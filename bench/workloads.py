"""The benchmark's workloads, the output checks run on every iteration, and
the per-layer metrics of a traced iteration.

A run repeats one workload for a fixed time budget in one process. Each
iteration starts from scratch (fresh engine, fresh run directory) on the same
seed, so every iteration must produce the same artifacts. The engine is driven
only through its public entry points: ``cli.main``, ``build_engine`` and
``Engine.stage1_step``.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import requests

from triplay import (
    backends,
    cli,
    consensus,
    diversity,
    embedding_index,
    grpo,
    orchestrator,
    rewards,
    synthetic_world,
)
from triplay.config import load_config

from fake_endpoint import ENDPOINT, FakeEndpoint, image_uri
from tracer import SpanRecorder, file_size, layer_totals

# Set-up time is the median of this many standalone set-ups, timed at the
# start of a run: like a user's first build_engine call, each one runs in a
# process that has not yet run the workload.
SETUP_REPEATS = 9
# Retrievals per iteration compared against the brute-force oracle.
ORACLE_SAMPLE = 32

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "backend_calls": "count",
}

# Span name suffix -> the Engine method that runs the stage.
_STAGES = {
    "stage1": "stage1_step",
    "build_active": "build_active_dataset",
    "stage2": "stage2_step",
    "build_training": "build_training_set",
    "stage3": "stage3_step",
}
_ROLES = ("searcher", "questioner", "solver", "judge", "embed")

PER_LAYER = {
    "embedding_index.retrieve_batch.calls": "count",
    "embedding_index.retrieve_batch.queries": "count",
    "embedding_index.retrieve_batch.self_s": "s",
    "embedding_index.retrieve.calls": "count",
    "embedding_index.retrieve.self_s": "s",
    "embedding_index.load_manifest.self_s": "s",
    "embedding_index.build.self_s": "s",
    "diversity.repetition_penalty.calls": "count",
    "diversity.repetition_penalty.items": "count",
    "diversity.repetition_penalty.self_s": "s",
    "diversity.text_repetition_penalty.calls": "count",
    "diversity.text_repetition_penalty.items": "count",
    "diversity.text_repetition_penalty.self_s": "s",
    "consensus.majority_vote.calls": "count",
    "consensus.majority_vote.answers": "count",
    "consensus.majority_vote.self_s": "s",
    "consensus.judge.calls": "count",
    "consensus.judge.self_s": "s",
    "rewards.probe_from_answers.calls": "count",
    "rewards.probe_from_answers.self_s": "s",
    "grpo.policy_update.calls": "count",
    "grpo.policy_update.self_s": "s",
    "grpo.advantages.self_s": "s",
    "grpo.write_training_batch.self_s": "s",
    "grpo.write_training_batch.bytes": "bytes",
    **{f"backends.requests.{role}": "count" for role in _ROLES},
    "backends.retries": "count",
    "backends.rate_limited": "count",
    "backends.failed": "count",
    "backends.wait_s": "s",
    "backends.client.self_s": "s",
    "synthetic_world.generate.self_s": "s",
    "synthetic_world.solve.calls": "count",
    "synthetic_world.solve.self_s": "s",
    **{
        f"orchestrator.{stage}.{key}": "s"
        for stage in (*_STAGES, "compute_stats")
        for key in ("s", "self_s")
    },
    "orchestrator.persist.self_s": "s",
    "orchestrator.persist.bytes": "bytes",
    "orchestrator.stage1.kept_ratio": "ratio",
    "orchestrator.build_training.kept_ratio": "ratio",
    "orchestrator.build_training.star_ratio": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Tracing targets


def install_layers(recorder: SpanRecorder, endpoint: bool = False) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    index_cls = embedding_index.EmbeddingIndex
    recorder.patch(index_cls, "retrieve_batch", "embedding_index.retrieve_batch",
                   attrs=lambda args, result, _: {"queries": len(result)})
    recorder.patch(index_cls, "retrieve", "embedding_index.retrieve")
    recorder.patch(index_cls, "__init__", "embedding_index.build")
    recorder.patch_function(embedding_index, "load_manifest", "embedding_index.load_manifest")
    for fn in ("repetition_penalty", "text_repetition_penalty"):
        recorder.patch_function(diversity, fn, f"diversity.{fn}",
                                attrs=lambda args, result, _: {"items": len(result)})
    recorder.patch_function(consensus, "majority_vote", "consensus.majority_vote",
                            attrs=lambda args, result, _: {"answers": len(args[0])})
    recorder.patch(consensus.ExactNormalizedJudge, "equivalent", "consensus.judge")
    recorder.patch(consensus.RemoteJudge, "equivalent", "consensus.judge")
    recorder.patch_function(rewards, "probe_from_answers", "rewards.probe_from_answers")
    recorder.patch_function(grpo, "toy_policy_update", "grpo.policy_update")
    for fn in ("group_advantages", "domain_advantages"):
        recorder.patch_function(grpo, fn, "grpo.advantages")
    recorder.patch_function(
        grpo, "write_training_batch", "grpo.write_training_batch",
        before=lambda args: file_size(args[1]),
        attrs=lambda args, result, size: {"bytes": file_size(args[1]) - size},
    )
    recorder.patch(backends.HttpChatBackend, "generate", "backends.client")
    recorder.patch(backends.HttpEmbeddingBackend, "embed", "backends.client")
    recorder.patch(synthetic_world.SyntheticWorld, "generate", "synthetic_world.generate")
    recorder.patch_function(synthetic_world, "synthetic_solve", "synthetic_world.solve")
    stage_attrs = {
        "stage1": lambda args, result, _: {
            "sampled": len(result.rows),
            "kept": sum(row["image_id"] is not None for row in result.rows),
        },
        "build_training": lambda args, result, _: {
            "active": len(args[1]), "train": len(result[0]), "star": len(result[1]),
        },
    }
    for stage, method in _STAGES.items():
        recorder.patch(orchestrator.Engine, method, f"orchestrator.{stage}",
                       attrs=stage_attrs.get(stage))
    recorder.patch_function(orchestrator, "compute_stats", "orchestrator.compute_stats")
    recorder.patch_function(orchestrator, "write_jsonl", "orchestrator.persist",
                            attrs=lambda args, result, _: {"bytes": file_size(args[0])})
    if endpoint:
        recorder.patch(requests, "post", "backends.endpoint",
                       attrs=lambda args, response, _: {
                           "role": response.role,
                           "retry": response.retry,
                           "rate_limited": response.status_code == 429,
                       })


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead, from one iteration's spans."""
    totals = layer_totals(spans)

    def get(span: str, key: str) -> float:
        return float(totals[span][key]) if span in totals else 0.0

    def ratio(span: str, kept: str, base: str) -> float:
        return get(span, kept) / get(span, base) if get(span, base) else 0.0

    client = totals.get("backends.client", {})
    special = {
        "backends.retries": get("backends.endpoint", "retry"),
        "backends.rate_limited": get("backends.endpoint", "rate_limited"),
        "backends.failed": float(sum(v for k, v in client.items() if k.startswith("error="))),
        "backends.wait_s": get("backends.endpoint", "s"),
        "orchestrator.stage1.kept_ratio": ratio("orchestrator.stage1", "kept", "sampled"),
        "orchestrator.build_training.kept_ratio": ratio("orchestrator.build_training", "train", "active"),
        "orchestrator.build_training.star_ratio": ratio("orchestrator.build_training", "star", "train"),
    }
    for role in _ROLES:
        special[f"backends.requests.{role}"] = get("backends.endpoint", f"role={role}")
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name in special:
            out[name] = special[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = get(span, key)
    return out


# ---------------------------------------------------------------------------
# Output checks


class CosineOracle:
    """Brute-force retrieval: every record scored, ranked by descending
    cosine with ties broken by ascending id."""

    def __init__(self, records):
        self.ids = [r.id for r in records]
        matrix = np.stack([r.embedding for r in records])
        self.matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

    def top(self, query, k: int) -> list[tuple[str, float]]:
        q = np.asarray(query, dtype=np.float64)
        scores = (self.matrix @ (q / np.linalg.norm(q))).tolist()
        best = heapq.nsmallest(k, range(len(scores)), key=lambda i: (-scores[i], self.ids[i]))
        return [(self.ids[i], scores[i]) for i in best]


def check_retrievals(rows, oracle: CosineOracle, embed, seed: int) -> list[str]:
    """rows: dicts with query, image_id and optionally rank and score."""
    rows = [r for r in rows if r.get("image_id") is not None]
    if not rows:
        return ["no retrievals to check"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False)
    problems = []
    for pick in sorted(int(p) for p in picks):
        row = rows[pick]
        rank = row.get("rank", 1)
        expected_id, expected_score = oracle.top(embed(row["query"]), rank)[rank - 1]
        score = row.get("score", expected_score)
        if row["image_id"] != expected_id or abs(score - expected_score) > 1e-9:
            problems.append(
                f"retrieval for {row['query']!r} rank {rank}: got {row['image_id']} "
                f"({score}), oracle {expected_id} ({expected_score})"
            )
    return problems


def check_cycle(run_dir: Path, cfg, oracle: CosineOracle, embed, seed: int) -> list[str]:
    """Invariants of one cycle's datasets, plus retrievals against the oracle."""
    cycle = run_dir / "cycle1"
    d_active = orchestrator.read_jsonl(cycle / "d_active.jsonl")
    d_train = orchestrator.read_jsonl(cycle / "d_train.jsonl")
    d_star = orchestrator.read_jsonl(cycle / "d_train_star.jsonl")
    problems = []
    active_ids = [row["image_id"] for row in d_active]
    if len(set(active_ids)) != len(active_ids):
        problems.append("d_active image ids are not unique")
    stray = {row["image_id"] for row in d_train} - set(active_ids)
    if stray:
        problems.append(f"{len(stray)} d_train image(s) missing from d_active")
    train_rows = {json.dumps(row, sort_keys=True) for row in d_train}
    low, high = cfg.iteration.tau_low, cfg.iteration.tau_high
    for row in d_star:
        if json.dumps(row, sort_keys=True) not in train_rows:
            problems.append(f"d_train_star row for {row['image_id']} missing from d_train")
        if not low < row["accuracy"] < high:
            problems.append(f"d_train_star accuracy {row['accuracy']} outside ({low}, {high})")
    return problems + check_retrievals(d_active, oracle, embed, seed)


def artifact_digest(run_dir: Path) -> str:
    """sha256 over every cycle artifact and stats.json, by relative path."""
    digest = hashlib.sha256()
    paths = sorted(run_dir.glob("cycle*/*.jsonl")) + [run_dir / "stats.json"]
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Iterations


@dataclass
class Iteration:
    run_s: float
    backend_calls: int
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


class EngineProbe:
    """Wraps orchestrator.build_engine during one iteration: notes when the
    first call returns, which ends set-up, and counts the stage calls, model
    calls and failed client calls made through the engine it returned."""

    SYNTHETIC_ROLES = (("searcher", "sample"), ("questioner", "sample"),
                       ("solver", "solve"), ("embedder", "embed"))

    def __init__(self):
        self.engine = None
        self.set_up_at = 0.0
        self.counts: Counter = Counter()

    @contextmanager
    def installed(self):
        original = orchestrator.build_engine

        def build_engine(cfg):
            engine = original(cfg)
            if self.engine is None:
                self.set_up_at = perf_counter()
                self.engine = engine
                self._instrument(engine)
            return engine

        orchestrator.build_engine = build_engine
        try:
            yield self
        finally:
            orchestrator.build_engine = original

    def _counted(self, fn, kind: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[kind + "_failed"] += 1
                raise

        return wrapper

    def _instrument(self, engine) -> None:
        for name in _STAGES.values():
            setattr(engine, name, self._counted(getattr(engine, name), "stage"))
        if engine.cfg.mode == "synthetic":
            # Model calls the synthetic world serves in process.
            targets = [(getattr(engine, role), method) for role, method in self.SYNTHETIC_ROLES]
        else:
            targets = [(engine.searcher.backend, "generate"), (engine.embedder, "embed")]
        for obj, method in targets:
            setattr(obj, method, self._counted(getattr(obj, method), "model"))


@contextmanager
def tracing(recorder: SpanRecorder | None, endpoint: bool = False):
    if recorder is None:
        yield
        return
    with recorder.installed(lambda rec: install_layers(rec, endpoint)):
        yield


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _quiet_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.work_dir = _fresh(work_dir / self.name)
        self.tiny = tiny
        self._oracle: CosineOracle | None = None

    def config(self):
        raise NotImplementedError

    def setup(self) -> float:
        """One standalone set-up, as the workload's first build_engine call does it."""
        cfg = self.config()
        start = perf_counter()
        orchestrator.build_engine(cfg)
        return perf_counter() - start

    def oracle(self, engine) -> CosineOracle:
        if self._oracle is None:
            self._oracle = CosineOracle(engine.index.records)
        return self._oracle

    def iteration(self, index: int, recorder: SpanRecorder | None) -> Iteration:
        raise NotImplementedError

    def _finish(self, probe: EngineProbe, end: float, backend_calls: int,
                digest: str, problems: list[str], recorder) -> Iteration:
        counts = probe.counts
        return Iteration(
            run_s=end - probe.set_up_at,
            backend_calls=backend_calls,
            attempted=counts["stage"] + backend_calls,
            failed=counts["stage_failed"] + counts["model_failed"] + len(problems),
            digest=digest,
            problems=problems,
            layers=layer_metrics(recorder.spans) if recorder is not None else None,
        )


class SyntheticWorkload(Workload):
    def config(self):
        overrides = {"seed": self.seed, "mode": "synthetic"}
        if self.tiny:
            overrides["world"] = {"count": 400}
        return load_config(None, overrides)


class CycleDefault(SyntheticWorkload):
    """``triplay run --synthetic --seed S --cycles 1`` at default settings."""

    name = "cycle_default"
    TINY_ARGS = ["--world-count", "400", "--queries", "100", "--searcher-steps", "2",
                 "--questioner-steps", "2", "--solver-steps", "3"]

    def argv(self, run_dir: Path) -> list[str]:
        argv = ["run", "--synthetic", "--seed", str(self.seed), "--cycles", "1",
                "--run-dir", str(run_dir)]
        return argv + (self.TINY_ARGS if self.tiny else [])

    def iteration(self, index, recorder):
        run_dir = _fresh(self.work_dir / f"iter{index}")
        probe = EngineProbe()
        with tracing(recorder), probe.installed():
            rc = _quiet_cli(self.argv(run_dir))
            end = perf_counter()
        backend_calls = probe.counts["model"]
        problems = [f"triplay run exited {rc}"] if rc else []
        if not rc:
            engine = probe.engine
            problems += check_cycle(run_dir, engine.cfg, self.oracle(engine),
                                    engine.world.embed_query, self.seed + index)
        return self._finish(probe, end, backend_calls, artifact_digest(run_dir),
                            problems, recorder)


class Stage1Search(SyntheticWorkload):
    """build_engine at defaults, then consecutive Engine.stage1_step calls."""

    name = "stage1_search"

    @property
    def steps(self) -> int:
        return 2 if self.tiny else 100

    def iteration(self, index, recorder):
        cfg = self.config()
        probe = EngineProbe()
        rows: list[dict] = []
        batches: list[dict] = []
        with tracing(recorder), probe.installed():
            engine = orchestrator.build_engine(cfg)
            rng = np.random.default_rng(orchestrator.stage_seed(self.seed, 1, "stage1"))
            for step in range(self.steps):
                result = engine.stage1_step(step, rng)
                rows.extend(result.rows)
                batches.extend(b.to_row() for b in result.batches)
            end = perf_counter()
        backend_calls = probe.counts["model"]
        payload = json.dumps({"rows": rows, "batches": batches}, sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        problems = check_retrievals(rows, self.oracle(engine), engine.world.embed_query,
                                    self.seed + index)
        return self._finish(probe, end, backend_calls, digest, problems, recorder)


class RemoteCycle(Workload):
    """``triplay run --config remote.json``: remote roles and a remote judge
    against the in-process fake endpoint."""

    name = "remote_cycle"

    def __init__(self, seed, work_dir, tiny=False):
        super().__init__(seed, work_dir, tiny)
        count, queries, steps = (200, 8, (1, 1, 2)) if tiny else (2000, 40, (2, 2, 10))
        self.latency_s = 0.0 if tiny else 0.001
        generated = self.work_dir / "generated.jsonl"
        rc = _quiet_cli(["synth", "gen", "--out", str(generated), "--seed", str(seed),
                         "--count", str(count)])
        if rc:
            raise RuntimeError(f"triplay synth gen exited {rc}")
        manifest = embedding_index.load_manifest(generated)
        self.dimension = manifest.dimension
        # Remote mode cannot read the synthetic world's synth:// locators as
        # images, so the manifest gets https:// ones.
        for record in manifest.records:
            record.uri = image_uri(record.id)
        manifest_path = self.work_dir / "corpus.jsonl"
        embedding_index.save_manifest(manifest, manifest_path)
        config = {
            "seed": seed,
            "mode": "remote",
            "manifest_path": str(manifest_path),
            "iteration": {
                "cycles": 1,
                "queries_per_iteration": queries,
                "searcher_steps": steps[0],
                "questioner_steps": steps[1],
                "solver_steps": steps[2],
            },
            "backend": {
                "endpoint": f"{ENDPOINT}/chat/completions",
                "model": "bench-chat",
                "embedding_endpoint": f"{ENDPOINT}/embeddings",
                "embedding_model": "bench-embed",
                "in_flight": len(os.sched_getaffinity(0)),
                "backoff_base": 0.001,
            },
            "judge": {"kind": "remote"},
        }
        self.config_path = self.work_dir / "remote.json"
        self.config_path.write_text(json.dumps(config, indent=2))

    def config(self):
        return load_config(self.config_path)

    def iteration(self, index, recorder):
        run_dir = _fresh(self.work_dir / f"iter{index}")
        fake = FakeEndpoint(self.seed, self.dimension, self.latency_s)
        probe = EngineProbe()
        with fake.installed(), tracing(recorder, endpoint=True), probe.installed():
            rc = _quiet_cli(["run", "--config", str(self.config_path), "--run-dir", str(run_dir)])
            end = perf_counter()
        problems = [f"triplay run exited {rc}"] if rc else []
        if not rc:
            engine = probe.engine
            problems += check_cycle(run_dir, engine.cfg, self.oracle(engine),
                                    fake.embedding, self.seed + index)
        return self._finish(probe, end, fake.total_requests, artifact_digest(run_dir),
                            problems, recorder)


WORKLOADS = {w.name: w for w in (CycleDefault, Stage1Search, RemoteCycle)}


# ---------------------------------------------------------------------------
# A run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float, trace: bool, trace_dir: Path) -> dict:
    """Repeat the workload for about `seconds`; return the result object.

    Untraced runs report the end-to-end metrics. Traced runs alternate
    untraced and traced iterations and report the per-layer metrics, with the
    tracing overhead taken between the two kinds.
    """
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS):
        gc.collect()
        setups.append(workload.setup())
    iterations: list[Iteration] = []
    recorders: list[SpanRecorder] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        recorder = SpanRecorder() if trace and len(iterations) % 2 else None
        # Each iteration starts without the previous one's garbage, as a
        # fresh process would.
        gc.collect()
        iterations.append(workload.iteration(len(iterations), recorder))
        if recorder is not None:
            recorders.append(recorder)
        now = perf_counter()
        # Stop when another iteration would overrun the budget.
        if len(iterations) >= (2 if trace else 1) and now - start + (now - began) > seconds:
            break

    first = iterations[0]
    for i, it in enumerate(iterations[1:], start=1):
        if it.digest != first.digest:
            it.problems.append(f"iteration {i} artifact digest differs from iteration 0")
            it.failed += 1
        if it.backend_calls != first.backend_calls:
            it.problems.append(f"iteration {i} made {it.backend_calls} backend calls, "
                               f"iteration 0 made {first.backend_calls}")
            it.failed += 1
    for i, it in enumerate(iterations):
        for problem in it.problems:
            print(f"check failed ({workload.name}, iteration {i}): {problem}", file=sys.stderr)

    if trace:
        traced = [it for it in iterations if it.layers is not None]
        plain = [it for it in iterations if it.layers is None]
        values = {
            name: statistics.median(it.layers[name] for it in traced)
            for name in traced[0].layers
        }
        values["trace.overhead_s"] = (
            statistics.median(it.run_s for it in traced)
            - statistics.median(it.run_s for it in plain)
        )
        units = PER_LAYER
        for i, recorder in enumerate(recorders):
            recorder.write(trace_dir / f"{workload.name}-seed{workload.seed}-traced{i}.json.gz")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(it.run_s for it in iterations),
            "peak_rss_mb": peak_rss_mb(),
            "backend_calls": first.backend_calls,
        }
        units = END_TO_END

    failed = sum(it.failed for it in iterations)
    return {
        "workload": workload.name,
        "iterations": len(iterations),
        "run_s": [it.run_s for it in iterations],
        "digest": first.digest,
        "result": {
            "correct": failed == 0,
            "attempted": sum(it.attempted for it in iterations),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
    }
