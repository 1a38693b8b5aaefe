"""Run configuration: dataclasses, JSON loading, overrides, and validation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .backends import HttpBackendConfig
from .errors import ConfigError


@dataclass
class DomainSpec:
    category: str
    exemplar: str


DEFAULT_DOMAINS = (
    DomainSpec("charts", "stacked bar chart comparing quarterly totals"),
    DomainSpec("diagrams", "labeled pulley system with two masses"),
    DomainSpec("maps", "contour map with marked elevation lines"),
    DomainSpec("photos", "crowded market stall with visible price tags"),
)


@dataclass
class IterationConfig:
    group_size: int = 8
    probe_rollouts: int = 10
    vote_trajectories: int = 9
    tau_txt: float = 0.5
    tau_vis: float = 0.1
    tau_low: float = 0.3
    tau_high: float = 0.8
    queries_per_iteration: int = 6000
    top_k: int = 5
    domains: list[DomainSpec] = field(default_factory=lambda: list(DEFAULT_DOMAINS))
    searcher_steps: int = 10
    questioner_steps: int = 10
    solver_steps: int = 30
    cycles: int = 3


@dataclass
class WorldConfig:
    count: int = 10000
    dim: int = 32


@dataclass
class JudgeConfig:
    kind: str = "exact"  # "exact" or "remote"


@dataclass
class RunConfig:
    seed: int = 0
    mode: str = "synthetic"  # "synthetic" or "remote"
    run_dir: str | None = None
    manifest_path: str | None = None
    iteration: IterationConfig = field(default_factory=IterationConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    backend: HttpBackendConfig = field(default_factory=HttpBackendConfig)
    judge: JudgeConfig = field(default_factory=JudgeConfig)


def validate_config(cfg: RunConfig) -> RunConfig:
    # numpy's seed sequences take only non-negative integers.
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    it = cfg.iteration
    if not (0.0 <= it.tau_low < it.tau_high <= 1.0):
        raise ConfigError(
            f"difficulty window is inverted or out of range: "
            f"tau_low={it.tau_low}, tau_high={it.tau_high} (need 0 <= low < high <= 1)"
        )
    # NaN (JSON parses it) fails every ordered comparison, so only this form refuses it.
    if not (it.tau_txt >= 0 and it.tau_vis >= 0):
        raise ConfigError(
            f"clustering thresholds must be >= 0: tau_txt={it.tau_txt}, tau_vis={it.tau_vis}"
        )
    if it.group_size < 2:
        raise ConfigError(f"group_size must be >= 2 for advantage normalization, got {it.group_size}")
    for name, floor in (
        ("probe_rollouts", 1),
        ("vote_trajectories", 1),
        ("queries_per_iteration", 1),
        ("top_k", 1),
        ("cycles", 1),
        ("searcher_steps", 0),
        ("questioner_steps", 0),
        ("solver_steps", 0),
    ):
        if getattr(it, name) < floor:
            raise ConfigError(f"{name} must be >= {floor}, got {getattr(it, name)}")
    if not it.domains:
        raise ConfigError("at least one domain is required")
    categories = [d.category for d in it.domains]
    if len(set(categories)) < len(categories):
        raise ConfigError(f"iteration.domains repeat a category: {', '.join(categories)}")
    if cfg.mode not in ("synthetic", "remote"):
        raise ConfigError(f"mode must be 'synthetic' or 'remote', got {cfg.mode!r}")
    if cfg.judge.kind not in ("exact", "remote"):
        raise ConfigError(f"judge.kind must be 'exact' or 'remote', got {cfg.judge.kind!r}")
    if cfg.mode == "synthetic" and cfg.judge.kind == "remote":
        raise ConfigError(
            "judge.kind 'remote' needs mode 'remote': a synthetic run has no "
            "chat backend to judge with"
        )
    if cfg.mode == "remote":
        missing = [
            name
            for name in ("endpoint", "model", "embedding_endpoint", "embedding_model")
            if not getattr(cfg.backend, name)
        ]
        if missing:
            raise ConfigError(
                f"remote mode requires backend fields: {', '.join(missing)}"
            )
        if not cfg.manifest_path:
            raise ConfigError("remote mode requires manifest_path")
        backend = cfg.backend
        for name, ok, need in (
            ("in_flight", backend.in_flight >= 1, ">= 1"),
            ("max_retries", backend.max_retries >= 0, ">= 0"),
            ("backoff_base", backend.backoff_base >= 0, ">= 0"),
            ("timeout", backend.timeout > 0, "> 0"),
        ):
            if not ok:
                raise ConfigError(
                    f"backend.{name} must be {need}, got {getattr(backend, name)}"
                )
    if cfg.mode == "synthetic" and cfg.world.dim < 2 * len(cfg.iteration.domains):
        raise ConfigError(
            f"world dim {cfg.world.dim} too small for {len(cfg.iteration.domains)} "
            f"domains (need at least 2 per domain)"
        )
    return cfg


# The JSON types a scalar field takes, by its annotation. JSON true and false
# are never numbers here, although Python counts a bool as an int.
_SCALARS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}

_SECTIONS = {
    cls.__name__: cls
    for cls in (IterationConfig, WorldConfig, HttpBackendConfig, JudgeConfig)
}


def _build(cls, data, where: str):
    """cls from a JSON object, named where in messages ("" for the root).
    Unknown and missing keys are refused, and so is a value whose JSON type
    does not fit its field's annotation."""
    label = f"config section {where!r}" if where else "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be an object")
    known = {f.name: f for f in fields(cls)}
    extra = set(data) - set(known)
    if extra:
        raise ConfigError(f"unknown key(s) in {label}: {', '.join(sorted(extra))}")
    missing = [
        name for name, f in known.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{label} is missing {', '.join(missing)}")
    kwargs = {}
    for name, value in data.items():
        path = f"{where}.{name}" if where else name
        kind = known[name].type
        if kind in _SCALARS:
            types, noun = _SCALARS[kind]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{path} must be {noun}, got {value!r}")
        elif kind == "list[DomainSpec]":
            if not isinstance(value, list):
                raise ConfigError(f"{path} must be a list")
            value = [_build(DomainSpec, d, f"{path}[{i}]") for i, d in enumerate(value)]
        else:
            value = _build(_SECTIONS[kind], value, path)
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    return validate_config(_build(RunConfig, data, ""))


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply overrides on top (overrides win)."""
    data: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
    if overrides:
        data = deep_merge(data, overrides)
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def resolve_run_dir(cfg: RunConfig) -> Path:
    if cfg.run_dir:
        return Path(cfg.run_dir)
    return Path("runs") / f"{config_hash(cfg)}-seed{cfg.seed}"
