"""Remote-mode wiring: role adapters over generative backends, parse-failure
handling for free-form completions, and concurrent rollouts and votes that
match a serial run.
"""

import hashlib
import threading

import numpy as np
import pytest

from triplay.backends import GenerationRequest
from triplay.config import IterationConfig, RunConfig
from triplay.embedding_index import EmbeddingIndex, IndexManifest
from triplay.errors import ConfigError
from triplay.orchestrator import (
    Engine,
    RemoteQuestionerRole,
    RemoteSearcherRole,
    RemoteSolverRole,
    build_engine,
)
from triplay.synthetic_world import SyntheticWorld

from conftest import ScriptedBackend, ScriptedEmbeddingBackend, request_fingerprint


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

    world = SyntheticWorld.generate(
        seed=4, count=120, dim=16, categories=["charts", "diagrams"], bands_per_category=4
    )
    path = tmp_path_factory.mktemp("remote") / "corpus.jsonl"
    save_manifest(
        IndexManifest(dimension=16, records=[img.record for img in world.images]), path
    )
    return str(path)


class CountingVerdictBackend:
    """Thread-safe judge backend: a fixed verdict per prompt, and a request count."""

    def __init__(self):
        self.requests = 0
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> list[str]:
        with self._lock:
            self.requests += 1
        digest = hashlib.sha256(request.prompt.encode()).digest()
        return ["correct" if digest[0] % 3 == 0 else "incorrect"]


def role_engine(cfg: RunConfig, backend, judge_backend=None) -> Engine:
    from triplay.embedding_index import load_manifest

    index = EmbeddingIndex(load_manifest(cfg.manifest_path))
    exemplars = {d.category: d.exemplar for d in cfg.iteration.domains}
    return Engine(
        cfg,
        index=index,
        searcher=RemoteSearcherRole(backend, exemplars),
        questioner=RemoteQuestionerRole(backend),
        solver=RemoteSolverRole(backend),
        embedder=ScriptedEmbeddingBackend(dimension=16, seed=1),
        judge_backend=judge_backend,
    )


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
        assert all(item.pseudo_label for item in d_train)
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
        assert 0 < parallel_requests <= serial_requests

