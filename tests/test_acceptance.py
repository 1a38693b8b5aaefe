"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them) and enforcing
its wall-clock budget.
"""

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from triplay.cli import main as cli_main
from triplay.config import IterationConfig, RunConfig, WorldConfig
from triplay.consensus import ExactNormalizedJudge, majority_vote, normalize_answer
from triplay.diversity import components, repetition_penalty
from triplay.embedding_index import EmbeddingIndex, ImageRecord, IndexManifest
from triplay.grpo import domain_advantages, gradient_check, group_advantages
from triplay.orchestrator import build_engine, consensus_histogram, read_jsonl
from triplay.rewards import challenge_reward, difficulty_filter

from conftest import Stopped, end_run_after, neutral_sample, random_active, stage1_stats


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
            )
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number:02d}: {status} ({elapsed:.1f}s) {description}")


# --- shared fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Full-default synthetic run (G=8, m=10, K=9, 6000 queries) via the CLI."""
    run_dir = tmp_path_factory.mktemp("acceptance") / "main_run"
    start = time.perf_counter()
    code = cli_main(
        ["run", "--synthetic", "--seed", "7", "--cycles", "1", "--run-dir", str(run_dir)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    return SimpleNamespace(run_dir=run_dir, elapsed=elapsed)


@pytest.fixture(scope="module")
def trained_pipeline():
    """10k-image world; searcher trained for 200 stage-1 steps with neutral
    probes, plus the untrained baseline time series."""
    cfg = RunConfig(
        seed=7,
        mode="synthetic",
        iteration=IterationConfig(cycles=1, queries_per_iteration=2000),
        world=WorldConfig(count=10000, dim=32),
    )
    engine = build_engine(cfg)
    baseline_engine = build_engine(cfg)
    for e in (engine, baseline_engine):
        e.questioner.sample = neutral_sample
    # The untrained baseline samples from its initial policy throughout.
    baseline_engine.searcher.apply = lambda groups: None
    start = time.perf_counter()
    trained_stats = stage1_stats(engine, steps=200, seed=11)
    baseline_stats = stage1_stats(baseline_engine, steps=200, seed=11)
    elapsed = time.perf_counter() - start
    # Neutral questions stand in for stage 1's probes only: the training set
    # of criterion 9 asks the trained engine's own questioner.
    for e in (engine, baseline_engine):
        del e.questioner.sample
    return SimpleNamespace(
        engine=engine,
        trained=trained_stats,
        baseline=baseline_stats,
        elapsed=elapsed,
    )


# --- criteria --------------------------------------------------------------


def test_criterion_01_reward_identities():
    with criterion(1, "challenge reward identities and symmetry", budget=1.0):
        assert abs(challenge_reward(0.5) - 1.0) <= 1e-12
        assert abs(challenge_reward(0.0)) <= 1e-12
        assert abs(challenge_reward(1.0)) <= 1e-12
        for i in range(101):
            a = i / 100
            assert abs(challenge_reward(a) - challenge_reward(1.0 - a)) <= 1e-12


def _closure_components(mat: np.ndarray, tau: float) -> list[list[int]]:
    n = mat.shape[0]
    adj = mat <= tau
    np.fill_diagonal(adj, True)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if adj[i, k] and adj[k, j]:
                    adj[i, j] = True
    components, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        comp = sorted(j for j in range(n) if adj[i, j])
        seen.update(comp)
        components.append(comp)
    return sorted(components)


def test_criterion_02_repetition_penalty():
    with criterion(2, "repetition penalty extremes and clustering oracle", budget=5.0):
        identical = [("same query text", np.array([1.0, 0.0]))] * 4
        assert repetition_penalty(identical, 0.5, 0.1) == [2.0] * 4

        texts = ["alpha omicron", "beta sigma", "gamma tau", "delta upsilon"]
        items = []
        for i, text in enumerate(texts):
            e = np.zeros(4)
            e[i] = 1.0
            items.append((text, e))
        assert repetition_penalty(items, 0.5, 0.1) == [0.5] * 4

        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            mat = rng.uniform(0, 1, size=(n, n))
            mat = (mat + mat.T) / 2
            np.fill_diagonal(mat, 0.0)
            tau = float(rng.uniform(0.1, 0.9))
            roots = components(n, lambda i, j: mat[i, j] <= tau)
            got: dict[int, list[int]] = {}
            for i in range(n):
                got.setdefault(roots[i], []).append(i)
            assert sorted(sorted(m) for m in got.values()) == _closure_components(mat, tau)


def test_criterion_03_advantage_normalization():
    with criterion(3, "advantage normalization on 1000 random groups", budget=5.0):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            rewards = rng.normal(size=8)
            adv = np.asarray(group_advantages(rewards))
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std() - 1.0) < 1e-6
        assert group_advantages([0.25] * 8) == [0.0] * 8
        for _ in range(200):
            rewards_a = rng.normal(size=8)
            rewards_b = rng.normal(size=8)
            base = domain_advantages(
                [(r, "A") for r in rewards_a] + [(r, "B") for r in rewards_b]
            )
            a_scale = float(rng.uniform(0.5, 4.0))
            b_scale = float(rng.uniform(0.5, 4.0))
            rescaled = domain_advantages(
                [(a_scale * r + 1.0, "A") for r in rewards_a]
                + [(b_scale * r - 2.0, "B") for r in rewards_b]
            )
            assert np.allclose(rescaled, base, atol=1e-6)


def test_criterion_04_gradient_check():
    with criterion(4, "clipped-objective gradient vs finite differences", budget=10.0):
        assert gradient_check(trials=100, seed=0, h=1e-5) < 1e-4


def test_criterion_05_retrieval_oracle():
    with criterion(5, "top-k retrieval vs brute force on 10k vectors", budget=10.0):
        rng = np.random.default_rng(55)
        n, dim = 10000, 32
        ids = [f"img{i:05d}" for i in range(n)]
        rng.shuffle(ids)
        vectors = rng.normal(size=(n, dim))
        records = [
            ImageRecord(id=ids[i], embedding=vectors[i], category="c")
            for i in range(n)
        ]
        index = EmbeddingIndex(IndexManifest(dimension=dim, records=records))
        # Independent scoring path: renormalize from the raw vectors.
        oracle_matrix = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        oracle_ids = list(ids)
        for _ in range(100):
            query = rng.normal(size=dim)
            scores = oracle_matrix @ (query / np.linalg.norm(query))
            order = sorted(range(n), key=lambda i: (-scores[i], oracle_ids[i]))
            for k in (1, 5, 50):
                got = index.retrieve(query, k)
                expected = order[:k]
                assert [rec.id for rec, _ in got] == [oracle_ids[i] for i in expected]
                for (rec, s_got), i in zip(got, expected):
                    assert abs(s_got - scores[i]) <= 1e-9


def test_criterion_06_difficulty_window(default_run):
    with criterion(6, "difficulty window boundaries and on-disk recheck", budget=30.0):
        assert difficulty_filter(0.3, 0.3, 0.8) is False
        assert difficulty_filter(0.8, 0.3, 0.8) is False
        for i in range(31, 80):
            assert difficulty_filter(i / 100, 0.3, 0.8) is True
        star_rows = read_jsonl(default_run.run_dir / "cycle1" / "d_train_star.jsonl")
        assert star_rows
        for row in star_rows:
            assert difficulty_filter(row["accuracy"], 0.3, 0.8)
        train_rows = read_jsonl(default_run.run_dir / "cycle1" / "d_train.jsonl")
        expected = [r for r in train_rows if 0.3 < r["accuracy"] < 0.8]
        assert len(expected) == len(star_rows)


def test_criterion_07_majority_vote():
    with criterion(7, "majority vote vs grouping oracle on 1000 multisets", budget=10.0):
        judge = ExactNormalizedJudge()
        rng = np.random.default_rng(77)
        pool = ["4", " 4 ", "4.0", "+4", "5", "5.0", "five", "1,000", "1000", "x", "8√3."]
        for _ in range(1000):
            answers = [pool[i] for i in rng.integers(0, len(pool), size=9)]
            result = majority_vote(answers, judge)
            counts = Counter(normalize_answer(a) for a in answers)
            label, size = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            assert result.label == label
            assert result.score == pytest.approx(size / 9)
            shuffled = list(answers)
            rng.shuffle(shuffled)
            again = majority_vote(shuffled, judge)
            assert (again.label, again.score) == (result.label, result.score)
        tie = majority_vote(["b", "a", "c"], judge)
        assert tie.label == "a" and tie.score == pytest.approx(1 / 3)


def test_criterion_08_stage1_curriculum(trained_pipeline):
    with criterion(
        8, "stage-1 uncertainty targeting improves over 200 steps", budget=60.0
    ):
        trained = trained_pipeline.trained
        baseline = trained_pipeline.baseline
        assert trained_pipeline.elapsed < 55.0
        gap_start = trained[0]["acc_gap_mean"]
        gap_final = trained[-1]["acc_gap_mean"]
        assert gap_final <= 0.8 * gap_start, (gap_start, gap_final)
        assert gap_final < baseline[-1]["acc_gap_mean"]
        challenge = [s["challenge_mean"] for s in trained]
        first_quintile = float(np.mean(challenge[:40]))
        last_quintile = float(np.mean(challenge[160:]))
        assert last_quintile > first_quintile


def test_criterion_09_consensus_shift(trained_pipeline):
    with criterion(
        9, "trained pipeline shifts mass out of the lowest-consensus bin", budget=120.0
    ):
        engine = trained_pipeline.engine
        k = engine.cfg.iteration.vote_trajectories
        rng = np.random.default_rng(21)
        d_active = engine.build_active_dataset(rng)
        assert d_active
        d_train, _ = engine.build_training_set(d_active, np.random.default_rng(22))
        hist_trained = consensus_histogram(d_train, k)

        d_random = random_active(engine, len(d_active), np.random.default_rng(23))
        d_train_random, _ = engine.build_training_set(
            d_random, np.random.default_rng(22)
        )
        hist_random = consensus_histogram(d_train_random, k)

        mass_trained = hist_trained["counts"][1] / hist_trained["total"]
        mass_random = hist_random["counts"][1] / hist_random["total"]
        assert mass_trained < mass_random, (mass_trained, mass_random)


def test_criterion_10_full_pipeline_smoke(default_run, tmp_path, monkeypatch):
    with criterion(10, "full synthetic run with kill-and-resume", budget=300.0):
        saved_cfg = json.loads((default_run.run_dir / "config.json").read_text())
        assert saved_cfg["iteration"]["group_size"] == 8
        assert saved_cfg["iteration"]["probe_rollouts"] == 10
        assert saved_cfg["iteration"]["vote_trajectories"] == 9
        assert saved_cfg["iteration"]["cycles"] == 1
        cycle = default_run.run_dir / "cycle1"
        for name in ("queries", "d_active", "d_train", "d_train_star"):
            path = cycle / f"{name}.jsonl"
            assert path.exists() and path.stat().st_size > 0, name
        assert (default_run.run_dir / "stats.json").exists()

        resumed_dir = tmp_path / "resumed"
        args = ["run", "--synthetic", "--seed", "7", "--cycles", "1", "--run-dir", str(resumed_dir)]
        end_run_after(monkeypatch, "cycle1:stage2")
        with pytest.raises(Stopped):
            cli_main(args)
        assert not (resumed_dir / "cycle1" / "d_train.jsonl").exists()
        start = time.perf_counter()
        assert cli_main(args) == 0
        resume_elapsed = time.perf_counter() - start

        def digest(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        for name in sorted(p.name for p in cycle.iterdir()):
            assert digest(cycle / name) == digest(resumed_dir / "cycle1" / name), name
        assert digest(default_run.run_dir / "stats.json") == digest(
            resumed_dir / "stats.json"
        )
        assert default_run.elapsed + resume_elapsed < 280.0
