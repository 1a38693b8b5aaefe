"""Group-relative advantages, the clipped objective over a toy softmax policy
with its analytic gradient, and training-batch export for an external trainer.

Advantages normalize each reward against its group (or domain) peers using the
population standard deviation plus a small guard; zero-variance groups yield
exactly zero advantages. A toy policy is a float64 logits array whose
softmax is the action distribution: each action is a one-token response, so
the clipped objective is the mean of min(ratio * A, clip(ratio) * A) over a
group, with the clip range [1 - CLIP_EPSILON, 1 + CLIP_EPSILON]. The synthetic
searcher and questioner learn by ascending it; in remote mode the engine only
exports batches, and the external trainer owns its own clip range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDistribution, DomainTooSmall, GroupTooSmall

STD_EPSILON = 1e-8
CLIP_EPSILON = 0.2
_CLIP_LOW, _CLIP_HIGH = 1.0 - CLIP_EPSILON, 1.0 + CLIP_EPSILON


def group_advantages(rewards) -> list[float]:
    """(r - mean) / (population std + STD_EPSILON); all zeros when variance is zero."""
    arr = np.asarray(list(rewards), dtype=np.float64)
    if arr.size < 2:
        raise GroupTooSmall(f"need at least 2 rewards, got {arr.size}")
    # Identical rewards carry no signal; test equality directly so the rule
    # holds even when float rounding leaves np.std() marginally above zero.
    if np.all(arr == arr[0]):
        return [0.0] * arr.size
    return [float(x) for x in (arr - arr.mean()) / (arr.std() + STD_EPSILON)]


def domain_advantages(groups: list[tuple[float, str]]) -> list[float]:
    """group_advantages applied independently within each domain, preserving order."""
    by_domain: dict[str, list[int]] = {}
    for idx, (_, domain) in enumerate(groups):
        by_domain.setdefault(domain, []).append(idx)
    out = [0.0] * len(groups)
    for domain, indices in by_domain.items():
        if len(indices) < 2:
            raise DomainTooSmall(domain, len(indices))
        values = group_advantages([groups[i][0] for i in indices])
        for i, value in zip(indices, values):
            out[i] = value
    return out


def _clipped_terms(ratios: np.ndarray, advantage: float) -> np.ndarray:
    clipped = np.clip(ratios, _CLIP_LOW, _CLIP_HIGH)
    return np.minimum(ratios * advantage, clipped * advantage)


def log_probabilities(logits: np.ndarray) -> np.ndarray:
    """Log-softmax of a toy policy's logits; each action is one token."""
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


def action_cdf(logp: np.ndarray) -> np.ndarray:
    """The cumulative action distribution that sample_actions draws from,
    built from p = exp(logp) as Generator.choice(len(p), p=p) builds it: the
    cumsum of p divided by its last entry."""
    probs = np.exp(logp)
    if not np.all(probs > 0.0):
        raise DegenerateDistribution("an action probability is zero or not a number")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_actions(cdf: np.ndarray, group_size: int, rng: np.random.Generator) -> np.ndarray:
    """group_size actions drawn from action_cdf(logp). These are the actions
    rng.choice(len(p), size=group_size, p=exp(logp)) draws, and the RNG moves
    on by the same single rng.random(group_size) call, so a caller may keep
    one cdf for many draws without changing any stream."""
    return cdf.searchsorted(rng.random(group_size), side="right")


def toy_objective(logits, actions, logp_old, advantages) -> float:
    """Clipped objective for single-token responses as a function of the logits."""
    logp = log_probabilities(np.asarray(logits, dtype=np.float64))
    ratios = np.exp(logp[np.asarray(actions)] - np.asarray(logp_old, dtype=np.float64))
    terms = _clipped_terms(ratios, np.asarray(advantages, dtype=np.float64))
    return float(terms.mean())


def toy_objective_gradient(logits, actions, logp_old, advantages) -> np.ndarray:
    """Analytic gradient of toy_objective with respect to the logits.

    Each min(ratio * A, clip(ratio) * A) term is piecewise linear in the
    ratio: its slope is A on the active branch and 0 where the clip saturates
    the min (ratio above 1 + CLIP_EPSILON for A > 0, below 1 - CLIP_EPSILON
    for A < 0).
    """
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions)
    advantages = np.asarray(advantages, dtype=np.float64)
    logp = log_probabilities(logits)
    ratios = np.exp(logp[actions] - np.asarray(logp_old, dtype=np.float64))
    slopes = np.where(
        advantages > 0,
        np.where(ratios <= _CLIP_HIGH, advantages, 0.0),
        np.where(ratios >= _CLIP_LOW, advantages, 0.0),
    )
    grad = np.zeros_like(logits)
    coeff = slopes * ratios
    for a, c in zip(actions, coeff):
        grad[a] += c
    grad -= coeff.sum() * np.exp(logp)
    return grad / len(actions)


def toy_policy_update(
    logits: np.ndarray, actions, logp_old, advantages, learning_rate: float
) -> np.ndarray:
    """One gradient-ascent step on the clipped objective; returns new logits."""
    return logits + learning_rate * toy_objective_gradient(logits, actions, logp_old, advantages)


def gradient_check(trials: int = 100, seed: int = 0, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central finite
    differences over random configurations, including clip-active ones.

    Configurations whose ratios land within 1e-3 of a clip boundary are
    redrawn: the objective is only piecewise differentiable, so finite
    differences are meaningful strictly inside a branch.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    produced = 0
    while produced < trials:
        n_actions = int(rng.integers(2, 7))
        group = int(rng.integers(2, 9))
        old_logits = rng.normal(size=n_actions)
        new_logits = old_logits + rng.normal(scale=0.4, size=n_actions)
        actions = rng.integers(0, n_actions, size=group)
        logp_old = log_probabilities(old_logits)[actions]
        rewards = rng.normal(size=group)
        advantages = np.asarray(group_advantages(rewards))
        ratios = np.exp(log_probabilities(new_logits)[actions] - logp_old)
        if np.any(np.abs(ratios - _CLIP_LOW) < 1e-3) or np.any(np.abs(ratios - _CLIP_HIGH) < 1e-3):
            continue
        produced += 1
        analytic = toy_objective_gradient(new_logits, actions, logp_old, advantages)
        numeric = np.zeros_like(analytic)
        for k in range(n_actions):
            bump = np.zeros(n_actions)
            bump[k] = h
            up = toy_objective(new_logits + bump, actions, logp_old, advantages)
            down = toy_objective(new_logits - bump, actions, logp_old, advantages)
            numeric[k] = (up - down) / (2 * h)
        scale = max(1e-6, float(np.abs(numeric).max()))
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    return worst


@dataclass
class BatchRecord:
    """One exported training-batch row for an external trainer."""

    prompt_id: str
    domain: str
    tokens: list
    reward: float
    advantage: float

    def to_row(self) -> dict:
        return dict(vars(self))


# The one encoding of a JSONL row, for training batches and run-directory
# artifacts alike. One encoder serves every row: json.dumps(row,
# sort_keys=True) builds a new one per call.
encode_row = json.JSONEncoder(sort_keys=True).encode


def write_training_batch(records: list[BatchRecord], path: str | Path) -> None:
    """Write newline-delimited JSON rows consumable by an external trainer.
    The rows go to a temporary file that then replaces path, so a kill
    leaves either the old file or the whole new one."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(encode_row(rec.to_row()) + "\n")
    tmp.replace(path)
