"""Reward formulas for the three agent roles and the difficulty window, and
probe_from_answers, the one rule that scores a question from its rollouts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import fmean

from .consensus import AnswerJudge, ConsensusResult, ExactNormalizedJudge, majority_vote
from .errors import EmptyProbes, InvalidWindow, OutOfRange


@dataclass(frozen=True)
class ProbeResult:
    """The vote over m solver rollouts on one task, and the share of rollouts
    that agree with its label (0.0 when the label is empty)."""

    vote: ConsensusResult
    accuracy: float


def probe_from_answers(answers: list[str], judge: AnswerJudge | None = None) -> ProbeResult:
    """Vote over rollout answers and measure agreement with the winner. An
    empty winning label (unanswered rollouts) scores 0.0, with no recount.

    The judge must be reflexive (see majority_vote). A judge with a key is not
    asked: the answers that agree with the label are exactly the winning
    class, so the accuracy is the vote's score. Any other judge is asked once
    per distinct answer, and every copy of an answer it accepts counts.
    """
    judge = judge if judge is not None else ExactNormalizedJudge()
    vote = majority_vote(answers, judge)
    if not vote.label:
        return ProbeResult(vote=vote, accuracy=0.0)
    if getattr(judge, "key", None) is not None:
        return ProbeResult(vote=vote, accuracy=vote.score)
    agree = sum(n for a, n in Counter(answers).items() if judge.equivalent(a, vote.label))
    return ProbeResult(vote=vote, accuracy=agree / len(answers))


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


def searcher_reward(probes: list[ProbeResult], penalty: float) -> RewardRecord:
    """Mean challenge reward over the probe questions, minus the repetition
    penalty, clamped at zero."""
    if not probes:
        raise EmptyProbes("searcher reward needs at least one probe")
    challenge = fmean(challenge_reward(p.accuracy) for p in probes)
    return RewardRecord(
        challenge=challenge,
        penalty=penalty,
        final=max(0.0, challenge - penalty),
    )


def questioner_reward(acc: float, text_penalty: float) -> RewardRecord:
    challenge = challenge_reward(acc)
    return RewardRecord(
        challenge=challenge,
        penalty=text_penalty,
        final=max(0.0, challenge - text_penalty),
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
