"""Remote-mode wiring: role adapters over generative backends, parse-failure
handling for free-form completions, concurrent rollouts and votes that match
a serial run in every stage, and the exact bytes of every request payload.
"""

import hashlib
import json
import logging
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from triplay import backends
from triplay.backends import GenerationRequest
from triplay.cli import main
from triplay.config import IterationConfig, RunConfig, config_to_dict
from triplay.embedding_index import EmbeddingIndex, IndexManifest
from triplay.errors import ConfigError, Transport
from triplay.orchestrator import (
    Engine,
    RemoteQuestionerRole,
    RemoteSearcherRole,
    RemoteSolverRole,
    build_engine,
    read_jsonl,
    run,
)
from triplay.synthetic_world import SyntheticWorld

from conftest import (
    ScriptedBackend,
    ScriptedEmbeddingBackend,
    Stopped,
    assert_same_artifacts,
    end_run_after,
    request_fingerprint,
)


class RolePlayBackend:
    """Deterministic well-formed completions for all three role prompts."""

    WORDS = "axle beam cog dial etch flux gear hinge inlet joist".split()

    def _pick(self, request: GenerationRequest, i: int, modulus: int) -> int:
        digest = request_fingerprint(request, extra=str(i))
        return int.from_bytes(hashlib.sha256(digest.encode()).digest()[:4], "big") % modulus

    def generate(self, request: GenerationRequest) -> list[str]:
        out = []
        for i in range(request.n):
            if "Target Category:" in request.prompt:
                w = self.WORDS[self._pick(request, i, len(self.WORDS))]
                out.append(f"<type>cat</type>\n<query>{w} panel with annotations</query>")
            elif "Analysis Phase" in request.prompt:
                w = self.WORDS[self._pick(request, i, len(self.WORDS))]
                out.append(
                    "<think>analysis</think>\n<type>numeric_value</type>\n"
                    f"<question>How many {w} marks are implied?</question>\n<answer>4</answer>"
                )
            else:
                value = self._pick(request, i, 3) + 3
                out.append(f"Working through it, \\boxed{{{value}}}")
        return out


class CountingRolePlayBackend(RolePlayBackend):
    """RolePlayBackend that counts its requests per role (thread-safe) and
    records the peak number of generate calls in progress at once; each call
    holds its slot for `hold_s` so concurrent calls overlap."""

    def __init__(self, hold_s: float = 0.0):
        self.hold_s = hold_s
        self.requests: Counter = Counter()
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    @staticmethod
    def role(request: GenerationRequest) -> str:
        if "Target Category:" in request.prompt:
            return "searcher"
        return "questioner" if "Analysis Phase" in request.prompt else "solver"

    def generate(self, request: GenerationRequest) -> list[str]:
        with self._lock:
            self.requests[self.role(request)] += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.hold_s)
            return self.complete(request)
        finally:
            with self._lock:
                self.active -= 1

    def complete(self, request: GenerationRequest) -> list[str]:
        return super().generate(request)


class CountingEmbeddingBackend(ScriptedEmbeddingBackend):
    def __init__(self):
        super().__init__(dimension=16, seed=1)
        self.requests = 0
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        with self._lock:
            self.requests += 1
        return super().embed(text)


def remote_cfg(manifest_path: str) -> RunConfig:
    cfg = RunConfig(
        seed=5,
        mode="remote",
        manifest_path=manifest_path,
        iteration=IterationConfig(
            cycles=1,
            queries_per_iteration=20,
            searcher_steps=1,
            questioner_steps=1,
            solver_steps=1,
        ),
    )
    cfg.backend.endpoint = "https://api.example/v1/chat"
    cfg.backend.model = "m"
    cfg.backend.embedding_endpoint = "https://api.example/v1/embed"
    cfg.backend.embedding_model = "e"
    return cfg


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    from triplay.embedding_index import save_manifest

    world = SyntheticWorld.generate(seed=4, count=120, dim=16, categories=["charts", "diagrams"])
    path = tmp_path_factory.mktemp("remote") / "corpus.jsonl"
    save_manifest(
        IndexManifest(dimension=16, records=world.index.records), path
    )
    return str(path)


class CountingVerdictBackend:
    """Thread-safe judge backend: a fixed verdict per prompt, a request count,
    and how often each prompt was sent."""

    def __init__(self):
        self.requests = 0
        self.prompts: Counter = Counter()
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> list[str]:
        with self._lock:
            self.requests += 1
            self.prompts[request.prompt] += 1
        digest = hashlib.sha256(request.prompt.encode()).digest()
        return ["correct" if digest[0] % 3 == 0 else "incorrect"]


def role_engine(cfg: RunConfig, backend, judge_backend=None, embedder=None) -> Engine:
    from triplay.embedding_index import load_manifest

    index = EmbeddingIndex(load_manifest(cfg.manifest_path))
    exemplars = {d.category: d.exemplar for d in cfg.iteration.domains}
    return Engine(
        cfg,
        index=index,
        searcher=RemoteSearcherRole(backend, exemplars),
        questioner=RemoteQuestionerRole(backend),
        solver=RemoteSolverRole(backend),
        embedder=embedder or ScriptedEmbeddingBackend(dimension=16, seed=1),
        judge_backend=judge_backend,
    )


# Each stage call on a fresh engine; d_active and d_train are fixed inputs.
STAGE_CALLS = {
    "build_active": lambda engine, data: engine.build_active_dataset(np.random.default_rng(1)),
    "stage1": lambda engine, data: engine.stage1_step(0, np.random.default_rng(0)),
    "stage2": lambda engine, data: engine.stage2_step(
        0, data["d_active"], np.random.default_rng(3)
    ),
    "stage3": lambda engine, data: engine.stage3_step(
        0, data["d_train"], np.random.default_rng(4)
    ),
}


@pytest.fixture(scope="module")
def stage_inputs(manifest_path):
    engine = role_engine(remote_cfg(manifest_path), RolePlayBackend())
    d_active = engine.build_active_dataset(np.random.default_rng(1))
    d_train, _ = engine.build_training_set(d_active, np.random.default_rng(2))
    assert d_active and len(d_train) >= 4
    return {"d_active": d_active, "d_train": d_train}


def fan_out_cfg(manifest_path: str, in_flight: int, judge: str = "exact") -> RunConfig:
    cfg = remote_cfg(manifest_path)
    cfg.backend.in_flight = in_flight
    cfg.judge.kind = judge
    return cfg


class TestRemoteWiring:
    def test_build_engine_validates_backend_config(self, manifest_path):
        cfg = remote_cfg(manifest_path)
        cfg.backend.model = ""
        with pytest.raises(ConfigError, match="model"):
            build_engine(cfg)

    def test_build_engine_constructs_remote_roles(self, manifest_path):
        engine = build_engine(remote_cfg(manifest_path))
        assert isinstance(engine.searcher, RemoteSearcherRole)
        assert isinstance(engine.questioner, RemoteQuestionerRole)
        assert isinstance(engine.solver, RemoteSolverRole)

    def test_stage1_with_wellformed_backend(self, manifest_path):
        cfg = remote_cfg(manifest_path)
        engine = role_engine(cfg, RolePlayBackend())
        result = engine.stage1_step(0, np.random.default_rng(0))
        g = cfg.iteration.group_size
        assert len(result.rows) == g * len(cfg.iteration.domains)
        assert any(row["image_id"] is not None for row in result.rows)
        # exported batches carry the raw completion text for the trainer
        assert all(isinstance(b.tokens[0], str) for b in result.batches)

    def test_freeform_backend_yields_zero_rewards(self, manifest_path):
        # Untagged completions are parse failures: reward 0, group intact.
        cfg = remote_cfg(manifest_path)
        engine = role_engine(cfg, ScriptedBackend(seed=2))
        result = engine.stage1_step(0, np.random.default_rng(0))
        assert len(result.rows) == cfg.iteration.group_size * len(cfg.iteration.domains)
        assert all(row["r_final"] == 0.0 for row in result.rows)
        assert all(b.advantage == 0.0 for b in result.batches)

    def test_full_dataset_path(self, manifest_path):
        cfg = remote_cfg(manifest_path)
        engine = role_engine(cfg, RolePlayBackend())
        d_active = engine.build_active_dataset(np.random.default_rng(1))
        assert d_active
        d_train, d_star = engine.build_training_set(d_active, np.random.default_rng(2))
        assert d_train
        assert all(item["pseudo_label"] for item in d_train)
        result = engine.stage3_step(0, d_train, np.random.default_rng(3))
        assert result.batches

    def test_concurrent_rollouts_match_serial(self, manifest_path):
        # Remote mode fans training-set rollouts out to in_flight workers;
        # the reduction is order-preserving, so results match a serial run.
        cfg_serial = remote_cfg(manifest_path)
        cfg_serial.backend.in_flight = 1
        cfg_parallel = remote_cfg(manifest_path)
        cfg_parallel.backend.in_flight = 8
        serial = role_engine(cfg_serial, RolePlayBackend())
        parallel = role_engine(cfg_parallel, RolePlayBackend())
        d_active = serial.build_active_dataset(np.random.default_rng(1))
        train_serial, star_serial = serial.build_training_set(
            d_active, np.random.default_rng(2)
        )
        train_parallel, star_parallel = parallel.build_training_set(
            d_active, np.random.default_rng(2)
        )
        assert train_parallel == train_serial
        assert star_parallel == star_serial

    def test_concurrent_remote_votes_match_serial(self, manifest_path):
        # The vote and its judge calls run in the harvest workers; with a
        # remote judge the datasets match a serial run, and the fan-out
        # asks the judge no more often.
        runs = {}
        for in_flight in (1, 4):
            cfg = remote_cfg(manifest_path)
            cfg.judge.kind = "remote"
            cfg.backend.in_flight = in_flight
            judge_backend = CountingVerdictBackend()
            engine = role_engine(cfg, RolePlayBackend(), judge_backend)
            d_active = engine.build_active_dataset(np.random.default_rng(1))
            datasets = engine.build_training_set(d_active, np.random.default_rng(2))
            runs[in_flight] = (datasets, judge_backend.requests)
        (serial, serial_requests), (parallel, parallel_requests) = runs[1], runs[4]
        assert serial[0]
        assert parallel == serial
        assert 0 < parallel_requests == serial_requests

    def test_engine_sends_each_judge_payload_once(self, manifest_path, stage_inputs):
        # One engine builds the training set, then runs stage 3 on it. Its
        # verdict memo outlives every judge it hands out, so stage 3 reuses
        # the votes' verdicts, and no payload is sent twice at any fan-out.
        runs = {}
        for in_flight in (1, 4):
            cfg = fan_out_cfg(manifest_path, in_flight, judge="remote")
            judge_backend = CountingVerdictBackend()
            engine = role_engine(cfg, RolePlayBackend(), judge_backend)
            d_train, _ = engine.build_training_set(
                stage_inputs["d_active"], np.random.default_rng(2)
            )
            built = judge_backend.requests
            result = engine.stage3_step(0, d_train, np.random.default_rng(4))
            assert max(judge_backend.prompts.values()) == 1
            runs[in_flight] = (result, built, judge_backend.requests)
        assert runs[4] == runs[1]
        _, built, total = runs[1]
        alone = CountingVerdictBackend()
        role_engine(fan_out_cfg(manifest_path, 1, judge="remote"), RolePlayBackend(), alone
                    ).stage3_step(0, d_train, np.random.default_rng(4))
        assert total - built < alone.requests


class TestStageFanOut:
    """Stages 1, 2 and 3 and the active-set embeddings fan their remote
    requests out over backend.in_flight workers; results, request counts and
    drop warnings match a serial run."""

    @pytest.fixture
    def frequent_switches(self):
        # More thread switches, so more interleavings of the workers.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stage", sorted(STAGE_CALLS))
    def test_fan_out_matches_serial(self, manifest_path, stage_inputs, stage, frequent_switches):
        runs = {}
        for in_flight in (1, 4):
            backend = CountingRolePlayBackend()
            judge_backend = CountingVerdictBackend()
            embedder = CountingEmbeddingBackend()
            engine = role_engine(
                fan_out_cfg(manifest_path, in_flight, judge="remote"),
                backend, judge_backend, embedder,
            )
            result = STAGE_CALLS[stage](engine, stage_inputs)
            counts = dict(backend.requests, judge=judge_backend.requests,
                          embed=embedder.requests)
            runs[in_flight] = (result, counts)
        (serial, serial_counts), (parallel, parallel_counts) = runs[1], runs[4]
        assert serial
        assert parallel == serial
        assert parallel_counts == serial_counts
        if stage != "build_active":
            assert serial_counts["judge"] > 0

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "stage3"])
    def test_stage_requests_overlap(self, manifest_path, stage_inputs, stage):
        # Guards the fan-out itself: a serial stage never has two requests
        # in progress at once.
        backend = CountingRolePlayBackend(hold_s=0.002)
        engine = role_engine(fan_out_cfg(manifest_path, 4), backend)
        STAGE_CALLS[stage](engine, stage_inputs)
        assert backend.peak >= 2

    @pytest.mark.parametrize("in_flight", [1, 4])
    def test_transport_failure_in_probe_propagates(self, manifest_path, in_flight):
        class FailingSolver(CountingRolePlayBackend):
            def complete(self, request):
                if self.role(request) == "solver" and self.requests["solver"] >= 3:
                    raise Transport("endpoint returned 503")
                return super().complete(request)

        engine = role_engine(fan_out_cfg(manifest_path, in_flight), FailingSolver())
        with pytest.raises(Transport, match="503"):
            engine.stage1_step(0, np.random.default_rng(0))

    def test_drop_warnings_in_serial_order(self, manifest_path, stage_inputs, caplog):
        class SometimesMalformed(CountingRolePlayBackend):
            # Drops about a third of the questioner's completions and of the
            # searcher's query tags, keyed by request content.
            def complete(self, request):
                out = super().complete(request)
                if self.role(request) == "solver":
                    return out
                return [
                    "no tags here" if self._pick(request, i + 100, 3) == 0 else text
                    for i, text in enumerate(out)
                ]

        logs = {}
        for in_flight in (1, 4):
            engine = role_engine(fan_out_cfg(manifest_path, in_flight), SometimesMalformed())
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="triplay.orchestrator"):
                for stage in ("stage1", "stage2"):
                    STAGE_CALLS[stage](engine, stage_inputs)
            # Drop warnings come from the thread that called the stage.
            assert {r.thread for r in caplog.records} <= {threading.get_ident()}
            logs[in_flight] = [r.getMessage() for r in caplog.records]
        serial = logs[1]
        assert any("probe question unparsable" in m for m in serial)
        assert any("malformed question output" in m for m in serial)
        assert any("query tag missing" in m for m in serial)
        assert logs[4] == serial


class FailOnceVerdictBackend(CountingVerdictBackend):
    """CountingVerdictBackend whose first reply, in whichever worker asks
    first, is unparsable."""

    def __init__(self):
        super().__init__()
        self.failed = False

    def generate(self, request: GenerationRequest) -> list[str]:
        verdict = super().generate(request)
        with self._lock:
            fail, self.failed = not self.failed, True
        return ["maybe"] if fail else verdict


class TestJudgeFailure:
    """The judge asks once; the HTTP client under it is the one retry layer."""

    @pytest.mark.parametrize(
        "reply, error",
        [(Transport("connection refused"), Transport), ((429, ""), backends.RateLimited)],
        ids=("transport", "rate_limited"),
    )
    def test_dead_judge_ends_build_training(self, manifest_path, stage_inputs, reply, error):
        cfg = fan_out_cfg(manifest_path, 1, judge="remote")
        posts: Counter = Counter()
        sleeps: list[float] = []

        def dead_endpoint(url, payload, headers, timeout):
            posts[json.dumps(payload, sort_keys=True)] += 1
            if isinstance(reply, Exception):
                raise reply
            return reply

        judge_backend = backends.HttpChatBackend(cfg.backend, dead_endpoint, sleeps.append)
        engine = role_engine(cfg, RolePlayBackend(), judge_backend)
        with pytest.raises(error):
            engine.build_training_set(stage_inputs["d_active"], np.random.default_rng(2))
        # One judge request, sent max_retries + 1 times by the client alone.
        assert list(posts.values()) == [cfg.backend.max_retries + 1]
        assert sleeps == [0.5, 1.0, 2.0]

    def test_unparsable_verdict_drops_only_its_item(self, manifest_path, stage_inputs, caplog):
        cfg = fan_out_cfg(manifest_path, 4, judge="remote")
        d_active = stage_inputs["d_active"]
        clean, _ = role_engine(cfg, RolePlayBackend(), CountingVerdictBackend()).build_training_set(
            d_active, np.random.default_rng(2)
        )
        engine = role_engine(cfg, RolePlayBackend(), FailOnceVerdictBackend())
        with caplog.at_level(logging.WARNING):
            d_train, _ = engine.build_training_set(d_active, np.random.default_rng(2))
        aborted = [r for r in caplog.records if "vote aborted" in r.getMessage()]
        assert len(aborted) == 1
        assert aborted[0].thread == threading.get_ident()
        assert "'maybe'" in aborted[0].getMessage()
        dropped = [item for item in clean if item not in d_train]
        assert len(dropped) == 1
        assert dropped[0]["image_id"] in aborted[0].getMessage()
        assert d_train == [item for item in clean if item is not dropped[0]]


def payload_role(payload: dict) -> str:
    """Which role sent a request payload, read from the payload alone."""
    if "input" in payload:
        return "embed"
    messages = payload["messages"]
    if messages[0]["role"] == "system":
        return "judge"
    content = messages[-1]["content"]
    text = content if isinstance(content, str) else content[0]["text"]
    if "Target Category:" in text:
        return "searcher"
    return "questioner" if "Analysis Phase" in text else "solver"


class RecordingTransport:
    """HTTP transport stand-in: records each payload as the bytes it would
    be sent as, and answers with well-formed completions (or a unit
    embedding) that are a pure function of those bytes."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.bodies: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    def __call__(self, url, payload, headers, timeout):
        body = json.dumps(payload)
        role = payload_role(payload)
        with self._lock:
            self.bodies.setdefault(role, []).append(body)
        digest = hashlib.sha256(body.encode()).digest()
        if role == "embed":
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            vec = rng.normal(size=self.dimension)
            return 200, json.dumps({"data": [{"embedding": (vec / np.linalg.norm(vec)).tolist()}]})
        words = RolePlayBackend.WORDS
        replies = {
            "searcher": lambda b: f"<type>cat</type>\n<query>{words[b % 10]} panel</query>",
            "questioner": lambda b: (
                "<think>analysis</think>\n<type>numeric_value</type>\n"
                f"<question>How many {words[b % 10]} marks?</question>\n<answer>4</answer>"
            ),
            "solver": lambda b: f"Working through it, \\boxed{{{b % 3 + 3}}}",
            "judge": lambda b: "correct" if b % 3 == 0 else "incorrect",
        }
        texts = [replies[role](digest[i]) for i in range(payload["n"])]
        return 200, json.dumps({"choices": [{"message": {"content": t}} for t in texts]})


# Per role: (request count, sha256 of the sorted request bodies), recorded
# for one remote cycle of remote_cfg with a remote judge and 20 queries per
# domain (so the active set's searcher requests split 16 + 4). A change to
# the bytes of any prompt or payload changes these. The 10 embed bodies are
# distinct: the engine's query memo embeds each text once per run, for stage
# 1 and the active set alike. The judge's 30 bodies are distinct: the
# engine's verdict memo sends each payload once per run, and each pair of
# normalized answers is asked in one order only. The
# judge's verdicts are not transitive, so the vote's class rule decides which
# items reach d_train_star, and with them stage 3's solver bodies.
PAYLOAD_GOLDEN = {
    "embed": (10, "913f95495b382165ed03e21dd875716b506dac7aba85b37143c3253a7c5ffd44"),
    "judge": (30, "5a8bbd3c99dc6217c0025e2f3e339b63175a8088b9055c7ce1e37f3d3faa7975"),
    "questioner": (77, "3339c7bb816547457ae86d7cc9d0c07aee7cdeb7fdf3c5628b86636b3f670784"),
    "searcher": (12, "d920a7964d464b835a86e57ed5e3b93159ba75e15e3b3226fc24ec8e2a8e71a8"),
    "solver": (109, "ea2e43b4c6d0818e530ca108912e0b5c5b526b6958c43f7e5dda27e0841de57d"),
}


def test_remote_cycle_payloads_are_byte_stable(manifest_path, tmp_path, monkeypatch):
    transport = RecordingTransport(dimension=16)
    monkeypatch.setattr(backends, "_requests_transport", transport)
    cfg = remote_cfg(manifest_path)
    cfg.judge.kind = "remote"
    cfg.iteration.queries_per_iteration = 80
    cfg.run_dir = str(tmp_path / "run")
    run(cfg)
    observed = {
        role: (len(bodies), hashlib.sha256("\n".join(sorted(bodies)).encode()).hexdigest())
        for role, bodies in sorted(transport.bodies.items())
    }
    assert observed == PAYLOAD_GOLDEN


def test_remote_run_embeds_each_text_once_at_any_in_flight(manifest_path, tmp_path, monkeypatch):
    # Stage 1 and the active set read one query memo per engine, so across
    # two cycles no embedding body repeats, and neither the bodies nor the
    # artifacts depend on how many requests are in flight.
    embed_bodies = {}
    for in_flight in (1, 4):
        transport = RecordingTransport(dimension=16)
        monkeypatch.setattr(backends, "_requests_transport", transport)
        cfg = remote_cfg(manifest_path)
        cfg.judge.kind = "remote"
        cfg.iteration.cycles = 2
        cfg.iteration.queries_per_iteration = 80
        cfg.backend.in_flight = in_flight
        cfg.run_dir = str(tmp_path / f"in_flight{in_flight}")
        run(cfg)
        bodies = transport.bodies["embed"]
        assert len(bodies) == len(set(bodies))
        embed_bodies[in_flight] = sorted(bodies)
    assert embed_bodies[4] == embed_bodies[1]
    assert_same_artifacts(tmp_path / "in_flight1", tmp_path / "in_flight4")


def test_remote_active_rows_carry_their_images_category(manifest_path, tmp_path, monkeypatch):
    monkeypatch.setattr(backends, "_requests_transport", RecordingTransport(dimension=16))
    cfg = remote_cfg(manifest_path)
    cfg.run_dir = str(tmp_path / "run")
    run(cfg)
    index = build_engine(cfg).index
    rows = read_jsonl(tmp_path / "run" / "cycle1" / "d_active.jsonl")
    assert {row["category"] for row in rows} == {"charts", "diagrams"}
    for row in rows:
        assert row["category"] == index.get(row["image_id"]).category


def test_resume_with_empty_verdict_memo_is_byte_identical(manifest_path, tmp_path, monkeypatch):
    # The verdict memo is not journaled. A run ended after build_training
    # resumes stage 3 with an empty memo, so it asks the judge again where
    # the whole run reused the votes' verdicts, and writes the same bytes.
    judge_requests = {}
    for name in ("whole", "resumed"):
        transport = RecordingTransport(dimension=16)
        monkeypatch.setattr(backends, "_requests_transport", transport)
        cfg = remote_cfg(manifest_path)
        cfg.judge.kind = "remote"
        cfg.run_dir = str(tmp_path / name)
        if name == "resumed":
            end_run_after(monkeypatch, "cycle1:build_training")
            with pytest.raises(Stopped):
                run(cfg)
        run(cfg)
        judge_requests[name] = len(transport.bodies["judge"])
    assert_same_artifacts(tmp_path / "whole", tmp_path / "resumed")
    assert judge_requests["resumed"] > judge_requests["whole"]


def test_remote_run_with_malformed_manifest_sends_nothing(
    manifest_path, tmp_path, monkeypatch, capsys
):
    # Unchecked, a non-JSON manifest line ended a remote run in a raw
    # JSONDecodeError traceback.
    transport = RecordingTransport(dimension=16)
    monkeypatch.setattr(backends, "_requests_transport", transport)
    bad = tmp_path / "bad.jsonl"
    lines = open(manifest_path, encoding="utf-8").read().splitlines()
    bad.write_text("\n".join(lines[:2] + ["{not json"] + lines[3:]) + "\n")
    config_path = tmp_path / "remote.json"
    config_path.write_text(json.dumps(config_to_dict(remote_cfg(str(bad)))))
    code = main(["run", "--config", str(config_path), "--run-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error[ManifestError]: {bad}:3: not valid JSON")
    assert transport.bodies == {}
