"""Test helpers that drive stage 1 through Engine.stage1_step."""

import numpy as np

from triplay.orchestrator import Sample


def neutral_probe(image, rng) -> Sample:
    """Stand-in for the questioner's probe: one fixed question without a
    marker word, so question_delta is 0 and every image is probed at its own
    difficulty."""
    return Sample(text="<question>What value does the figure report?</question>")


def stage1_stats(engine, steps: int, seed: int) -> list[dict]:
    """Run `steps` stage-1 steps on one RNG; per step, the mean challenge
    reward, mean repetition penalty and mean |accuracy - 1/2| of its rows."""
    rng = np.random.default_rng(seed)
    stats = []
    for step in range(steps):
        rows = engine.stage1_step(step, rng).rows
        stats.append(
            {
                "challenge_mean": float(np.mean([r["r_chal"] for r in rows])),
                "penalty_mean": float(np.mean([r["p_rep"] for r in rows])),
                "acc_gap_mean": float(np.mean([abs(r["acc"] - 0.5) for r in rows])),
            }
        )
    return stats
