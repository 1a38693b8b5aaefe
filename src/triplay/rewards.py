"""The uncertainty reward (searcher and questioner), the solver reward, the
difficulty window, and probe_from_answers, the one rule that scores a question."""

from __future__ import annotations

from dataclasses import dataclass

from .consensus import AnswerJudge, ConsensusResult, majority_vote
from .errors import InvalidWindow, OutOfRange


@dataclass(frozen=True)
class ProbeResult:
    """The vote over m solver rollouts on one task, and the share of rollouts
    in its winning class (0.0 when the label is empty)."""

    vote: ConsensusResult
    accuracy: float


def probe_from_answers(answers: list[str], judge: AnswerJudge) -> ProbeResult:
    """Vote over rollout answers; the accuracy is the vote's score, the share
    of rollouts in the winning class, for every judge. An empty winning label
    (unanswered rollouts) scores 0.0. Only the vote asks the judge."""
    vote = majority_vote(answers, judge)
    return ProbeResult(vote=vote, accuracy=vote.score if vote.label else 0.0)


def challenge_reward(acc: float) -> float:
    """1 - 2|acc - 1/2|: peaks at maximum uncertainty, zero at both endpoints."""
    if not 0.0 <= acc <= 1.0:
        raise OutOfRange(f"accuracy {acc} outside [0, 1]")
    return 1.0 - 2.0 * abs(acc - 0.5)


@dataclass(frozen=True)
class RewardRecord:
    challenge: float
    penalty: float
    final: float


def uncertainty_reward(probe: ProbeResult, penalty: float) -> RewardRecord:
    """The probe's challenge reward minus the repetition penalty, clamped at
    zero: the searcher's reward for a query, the questioner's for a question."""
    challenge = challenge_reward(probe.accuracy)
    return RewardRecord(
        challenge=challenge,
        penalty=penalty,
        final=max(0.0, challenge - penalty),
    )


def solver_reward(answer: str, pseudo_label: str, judge: AnswerJudge) -> int:
    """1 iff the judge deems the answer equivalent to the pseudo-label."""
    if not pseudo_label:
        raise ValueError("pseudo-label must be nonempty")
    return int(judge.equivalent(answer, pseudo_label))


def check_window(tau_low: float, tau_high: float) -> None:
    """Raise InvalidWindow unless 0 <= tau_low < tau_high <= 1."""
    if not (0.0 <= tau_low < tau_high <= 1.0):
        raise InvalidWindow(f"invalid window ({tau_low}, {tau_high})")


def difficulty_filter(acc: float, tau_low: float, tau_high: float) -> bool:
    """True iff accuracy falls strictly inside the open window (tau_low, tau_high)."""
    check_window(tau_low, tau_high)
    return tau_low < acc < tau_high
