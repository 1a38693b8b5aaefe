import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import triplay
from triplay.backends import HttpBackendConfig
from triplay.config import (
    DEFAULT_DOMAINS,
    IterationConfig,
    JudgeConfig,
    RunConfig,
    WorldConfig,
    config_from_dict,
    config_hash,
    deep_merge,
    load_config,
    resolve_run_dir,
    validate_config,
)
from triplay.errors import ConfigError
from triplay.grpo import CLIP_EPSILON
from triplay.orchestrator import SOLVER_GAIN, TOY_LEARNING_RATE
from triplay.synthetic_world import (
    BANDS_PER_CATEGORY,
    EMBEDDING_NOISE,
    INITIAL_SKILL,
    SOLVER_TEMPERATURE,
)

REMOTE = {
    "mode": "remote",
    "manifest_path": "x.jsonl",
    "backend": {
        "endpoint": "https://x/chat",
        "model": "m",
        "embedding_endpoint": "https://x/embed",
        "embedding_model": "e",
    },
}

# Settings deleted because no caller varied them: (section, key, old default).
REMOVED_SETTINGS = [
    ("iteration", "reinit_each_cycle", True),
    ("grpo", "std_epsilon", 1e-8),
    ("grpo", "eps_low", 0.2),
    ("grpo", "eps_high", 0.2),
    ("iteration", "searcher_lr", 0.35),
    ("iteration", "questioner_lr", 0.35),
    ("iteration", "solver_gain", 0.02),
    ("world", "bands_per_category", 16),
    ("world", "noise", 0.02),
    ("world", "solver_skill", 0.5),
    ("world", "solver_noise_temperature", 0.15),
    ("iteration", "probe_questions_per_image", 1),
    ("iteration", "stage2_images_per_step", 4),
    ("iteration", "stage3_items_per_step", 4),
]


class TestDefaults:
    def test_iteration_defaults_pinned(self):
        it = IterationConfig()
        assert it.group_size == 8
        assert it.probe_rollouts == 10
        assert it.vote_trajectories == 9
        assert it.tau_txt == 0.5
        assert it.tau_vis == 0.1
        assert it.tau_low == 0.3
        assert it.tau_high == 0.8
        assert it.queries_per_iteration == 6000
        assert it.top_k == 5
        assert (it.searcher_steps, it.questioner_steps, it.solver_steps) == (10, 10, 30)
        assert it.cycles == 3

    def test_world_defaults(self):
        cfg = RunConfig()
        assert cfg.world.count == 10000
        assert cfg.world.dim == 32
        assert cfg.judge.kind == "exact"
        assert len(DEFAULT_DOMAINS) == 4
        # The synthetic roles' law and the world's shape are constants beside
        # the code that uses them, not settings: remote mode has no use for them.
        assert CLIP_EPSILON == 0.2
        assert TOY_LEARNING_RATE == 0.35
        assert SOLVER_GAIN == 0.02
        assert (BANDS_PER_CATEGORY, EMBEDDING_NOISE) == (16, 0.02)
        assert (INITIAL_SKILL, SOLVER_TEMPERATURE) == (0.5, 0.15)


class TestValidation:
    def test_inverted_window_message_names_both_bounds(self):
        cfg = RunConfig()
        cfg.iteration.tau_low = 0.9
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert "tau_low=0.9" in str(exc.value)
        assert "tau_high=0.8" in str(exc.value)

    def test_remote_mode_requires_backend_fields(self):
        with pytest.raises(ConfigError, match="endpoint"):
            config_from_dict({"mode": "remote", "manifest_path": "x.jsonl"})

    def test_remote_mode_requires_manifest(self):
        data = {
            "mode": "remote",
            "backend": {
                "endpoint": "https://x/chat",
                "model": "m",
                "embedding_endpoint": "https://x/embed",
                "embedding_model": "e",
            },
        }
        with pytest.raises(ConfigError, match="manifest_path"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "name, value, need, edge",
        [
            ("in_flight", 0, ">= 1", 1),
            ("max_retries", -1, ">= 0", 0),
            ("backoff_base", -0.5, ">= 0", 0.0),
            ("timeout", 0, "> 0", 0.01),
        ],
    )
    def test_remote_backend_bounds(self, name, value, need, edge):
        # A negative backoff would surface as a raw ValueError from
        # time.sleep at the first retry; in_flight 0 would silently run serial.
        with pytest.raises(ConfigError, match=re.escape(f"backend.{name} must be {need}, got {value}")):
            config_from_dict(deep_merge(REMOTE, {"backend": {name: value}}))
        cfg = config_from_dict(deep_merge(REMOTE, {"backend": {name: edge}}))
        assert getattr(cfg.backend, name) == edge

    def test_judge_retries_is_an_unknown_key(self):
        # Transport retries belong to backend.max_retries alone; a config
        # written before judge.retries was removed is refused, not migrated.
        with pytest.raises(ConfigError, match="unknown key.*'judge': retries"):
            config_from_dict(deep_merge(REMOTE, {"judge": {"kind": "remote", "retries": 3}}))

    @pytest.mark.parametrize(
        "section, key, value", REMOVED_SETTINGS, ids=[key for _, key, _ in REMOVED_SETTINGS]
    )
    def test_removed_setting_is_an_unknown_key(self, section, key, value):
        # No caller varied them: the agents are never reset between cycles,
        # the advantage guard is grpo.STD_EPSILON, and the clip range, the
        # toy learning law and the world's shape are simulator constants.
        # Stage 1 asks one probe question per query, and the stage-2 and
        # stage-3 step sizes are orchestrator constants. A config that still
        # names one is refused, not migrated; the grpo section is refused as
        # a whole.
        where = "config: grpo" if section == "grpo" else f"config section '{section}': {key}"
        with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) in {where}")):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("value", ["NaN", "-0.1"])
    @pytest.mark.parametrize("name", ["tau_txt", "tau_vis"])
    def test_clustering_threshold_refused(self, name, value, tmp_path):
        # NaN passed a "< 0" test, and then not even identical texts
        # clustered. JSON parses NaN, so a config file can carry one.
        message = re.escape(f"{name}={float(value)}")
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"iteration": {name: float(value)}})
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"iteration": {{"{name}": {value}}}}}')
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_group_size_floor(self):
        with pytest.raises(ConfigError, match="group_size"):
            config_from_dict({"iteration": {"group_size": 1}})

    @pytest.mark.parametrize(
        "name, value, floor",
        [
            ("searcher_steps", -3, 0),
            ("questioner_steps", -1, 0),
            ("solver_steps", -1, 0),
        ],
    )
    def test_iteration_count_floor(self, name, value, floor):
        with pytest.raises(ConfigError, match=f"{name} must be >= {floor}, got {value}"):
            config_from_dict({"iteration": {name: value}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="tau_mid"):
            config_from_dict({"iteration": {"tau_mid": 0.5}})

    def test_duplicate_domain_category(self):
        # Two domains of one category share stage-1 prompt ids and have their
        # advantages normalized together, as one domain.
        domains = [{"category": "charts", "exemplar": "a"}, {"category": "charts", "exemplar": "b"}]
        with pytest.raises(ConfigError, match="repeat a category: charts, charts"):
            config_from_dict({"iteration": {"domains": domains}})


class TestJsonTypes:
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"iteration": {"group_size": "8"}}, "iteration.group_size must be an integer, got '8'"),
            ({"iteration": {"group_size": True}}, "iteration.group_size must be an integer, got True"),
            ({"world": {"count": 400.0}}, "world.count must be an integer, got 400.0"),
            ({"iteration": {"tau_low": "0.3"}}, "iteration.tau_low must be a number, got '0.3'"),
            ({"iteration": {"tau_high": False}}, "iteration.tau_high must be a number, got False"),
            ({"judge": {"kind": 1}}, "judge.kind must be a string, got 1"),
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"manifest_path": 3}, "manifest_path must be a string or null, got 3"),
        ],
        ids=(
            "string_for_int", "bool_for_int", "float_for_int", "string_for_float",
            "bool_for_float", "int_for_string", "string_for_root_int", "int_for_optional_string",
        ),
    )
    def test_mismatched_scalar_refused(self, data, message):
        # Unchecked, a string group_size ended in a raw TypeError from a
        # comparison in validate_config.
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(data)

    def test_int_accepted_for_float(self):
        cfg = config_from_dict({"iteration": {"tau_low": 0, "tau_high": 1}})
        assert (cfg.iteration.tau_low, cfg.iteration.tau_high) == (0, 1)

    @pytest.mark.parametrize(
        "domains, message",
        [
            ([{"category": "charts"}], "config section 'iteration.domains[0]' is missing exemplar"),
            (["charts"], "config section 'iteration.domains[0]' must be an object"),
            (
                [{"category": "charts", "exemplar": 3}],
                "iteration.domains[0].exemplar must be a string, got 3",
            ),
            ("charts", "iteration.domains must be a list"),
        ],
        ids=("no_exemplar", "not_an_object", "int_exemplar", "not_a_list"),
    )
    def test_malformed_domain_refused(self, domains, message):
        # Unchecked, a domain without exemplar ended in a raw TypeError.
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict({"iteration": {"domains": domains}})

    def test_non_json_file_refused(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not valid JSON")):
            load_config(path)


class TestLoadingAndHash:
    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "iteration": {"group_size": 4}}))
        cfg = load_config(path, {"seed": 9})
        assert cfg.seed == 9
        assert cfg.iteration.group_size == 4

    def test_deep_merge_nested(self):
        merged = deep_merge(
            {"iteration": {"group_size": 4, "top_k": 5}},
            {"iteration": {"top_k": 3}},
        )
        assert merged == {"iteration": {"group_size": 4, "top_k": 3}}

    def test_domains_from_dicts(self):
        cfg = config_from_dict(
            {
                "iteration": {
                    "domains": [{"category": "charts", "exemplar": "a bar chart"}]
                },
                "world": {"dim": 8},
            }
        )
        assert cfg.iteration.domains[0].category == "charts"

    def test_hash_stable_and_sensitive(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        c = RunConfig(seed=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_run_dir_naming(self):
        cfg = RunConfig(seed=3)
        path = resolve_run_dir(cfg)
        assert path.name == f"{config_hash(cfg)}-seed3"
        cfg.run_dir = "explicit/dir"
        assert str(resolve_run_dir(cfg)) == "explicit/dir"


class TestNoDeadKeys:
    def test_every_field_is_read_outside_config(self):
        # A field that no module reads as an attribute is a key users can
        # set to no effect.
        package = Path(triplay.__file__).parent
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(package.glob("*.py"))
            if path.name != "config.py"
        )
        unread = [
            f"{cls.__name__}.{f.name}"
            for cls in (
                IterationConfig,
                WorldConfig,
                JudgeConfig,
                RunConfig,
                HttpBackendConfig,
            )
            for f in fields(cls)
            if not re.search(rf"\.{f.name}\b", source)
        ]
        assert unread == []


class TestNoDeadCode:
    def test_every_public_name_is_used_in_the_package(self):
        # A public name that no module of the package refers to is code that
        # only tests reach; it belongs in tests/ or nowhere. That holds for
        # public methods of public classes too, matched by attribute name;
        # dunder methods are called by the language, not by name.
        package = Path(triplay.__file__).parent
        defined: list[tuple[str, str]] = []  # (module:qualified name, name)
        used: set[str] = set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    names = []
                defined += [
                    (f"{path.name}:{name}", name) for name in names if not name.startswith("_")
                ]
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    defined += [
                        (f"{path.name}:{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    ]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
        unused = sorted(where for where, name in defined if name not in used)
        assert unused == []
