"""Test helpers: deterministic stand-in backends, helpers that drive and
measure stage 1 through Engine.stage1_step, a uniform active-set baseline, a
pairwise cosine oracle, a way to end a run right after a stage commits, and a
byte comparison of two runs' artifacts."""

import hashlib
import json
from pathlib import Path

import numpy as np

from triplay.backends import GenerationRequest
from triplay.errors import DimensionMismatch, ZeroVector
from triplay.grpo import action_cdf, log_probabilities, sample_actions
from triplay.orchestrator import Journal, Sample
from triplay.synthetic_world import SyntheticWorld


def request_fingerprint(request: GenerationRequest, extra: str = "") -> str:
    payload = json.dumps(
        {
            "prompt": request.prompt,
            "image_ref": request.image_ref,
            "n": request.n,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "system": request.system,
            "extra": extra,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Stopped(Exception):
    """Raised by a run that end_run_after ended."""


def end_run_after(monkeypatch, key: str) -> None:
    """End the next run that commits journal key `key` right after that
    commit, by raising Stopped, as a kill between two stages would."""
    mark = Journal.mark

    def mark_then_stop(self, entry_key, *args, **kwargs):
        mark(self, entry_key, *args, **kwargs)
        if entry_key == key:
            monkeypatch.setattr(Journal, "mark", mark)
            raise Stopped(key)

    monkeypatch.setattr(Journal, "mark", mark_then_stop)


def assert_same_artifacts(run_a: Path, run_b: Path) -> None:
    """Every cycle artifact and stats.json of run_b is byte-identical to run_a's."""

    def digest(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    names = sorted(str(p.relative_to(run_a)) for p in run_a.glob("cycle*/*"))
    assert names == sorted(str(p.relative_to(run_b)) for p in run_b.glob("cycle*/*"))
    for name in names + ["stats.json"]:
        assert digest(run_a / name) == digest(run_b / name), name


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two nonzero vectors, clipped into [-1, 1];
    the one-pair oracle for the index scores and the visual distance matrix."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dimensions differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity is undefined for the zero vector")
    return float(np.clip(float(np.dot(a, b)) / (na * nb), -1.0, 1.0))


class ScriptedBackend:
    """Deterministic stand-in: completions are a pure function of (seed, request)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, request: GenerationRequest) -> list[str]:
        return [
            f"scripted:{request_fingerprint(request, extra=f'{self.seed}:{i}')[:16]}"
            for i in range(request.n)
        ]


class ScriptedEmbeddingBackend:
    """Hash-seeded unit vector per text; identical text gives identical output."""

    def __init__(self, dimension: int, seed: int = 0):
        self.dimension = dimension
        self.seed = seed

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}:{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vec = rng.normal(size=self.dimension)
        return vec / np.linalg.norm(vec)


def neutral_sample(image, g, rng) -> list[Sample]:
    """Stand-in for the questioner's sample in stage 1: one fixed, well-formed
    question without a marker word, so question_delta is 0 and every image is
    probed at its own difficulty."""
    text = (
        "<type>numeric_value</type>\n<question>What value does the figure report?</question>\n"
        "<answer>0</answer>"
    )
    return [Sample(text=text)] * g


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


def random_active(engine, count: int, rng: np.random.Generator) -> list[dict]:
    """Uniform-sampling baseline with the same row shape as
    Engine.build_active_dataset."""
    records = engine.index.records
    picks = rng.choice(len(records), size=min(count, len(records)), replace=False)
    return [
        {"image_id": records[i].id, "category": records[i].category, "query": "", "rank": 1,
         "score": 0.0}
        for i in sorted(int(i) for i in picks)
    ]


def selected_difficulties(
    world: SyntheticWorld,
    logits: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> list[float]:
    """Difficulties of top-1 retrieved images for template draws from the
    searcher logits."""
    out = []
    per_category = samples // len(world.categories)
    for category in world.categories:
        indices = world.template_indices(category)
        cdf = action_cdf(log_probabilities(logits[indices]))
        actions = sample_actions(cdf, per_category, rng)
        for a in actions:
            template = world.templates[indices[a]]
            record, _ = world.index.retrieve(template.embedding, 1)[0]
            out.append(record.meta["difficulty"])
    return out


def ks_statistic_uniform(values: list[float]) -> float:
    """Kolmogorov-Smirnov statistic of a sample against Uniform[0, 1]."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)
    upper = np.arange(1, n + 1) / n - v
    lower = v - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
