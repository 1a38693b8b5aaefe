import numpy as np
import pytest

from triplay.consensus import ConsensusResult, ExactNormalizedJudge
from triplay.errors import InvalidWindow, OutOfRange
from triplay.rewards import (
    ProbeResult,
    challenge_reward,
    difficulty_filter,
    probe_from_answers,
    solver_reward,
    uncertainty_reward,
)


def probe(acc: float, m: int = 10) -> ProbeResult:
    hits = round(acc * m)
    vote = ConsensusResult(label="1", score=max(hits, 1) / m)
    return ProbeResult(vote=vote, accuracy=hits / m)


class TestChallengeReward:
    def test_peak_at_half(self):
        assert challenge_reward(0.5) == 1.0

    def test_endpoints_zero(self):
        assert challenge_reward(0.0) == 0.0
        assert challenge_reward(1.0) == 0.0

    def test_direct_substitution(self):
        assert challenge_reward(0.3) == pytest.approx(0.6, abs=1e-12)

    def test_symmetry(self):
        for i in range(101):
            a = i / 100
            assert challenge_reward(a) == pytest.approx(
                challenge_reward(1 - a), abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            challenge_reward(1.5)
        with pytest.raises(OutOfRange):
            challenge_reward(-0.1)


class TestEmpiricalAccuracy:
    def test_all_identical(self):
        p = probe_from_answers(["4"] * 5, ExactNormalizedJudge())
        assert p.accuracy == 1.0

    def test_two_thirds(self):
        p = probe_from_answers(["4", "4", "5"], ExactNormalizedJudge())
        assert p.vote.label == "4"
        assert p.accuracy == pytest.approx(2 / 3)

    def test_empty_consensus_scores_zero(self):
        # Six of ten rollouts gave no boxed answer: the empty string wins the
        # vote, and an empty label earns no accuracy.
        p = probe_from_answers(
            ["", "", "", "", "", "", "7", "7", "8", "9"], ExactNormalizedJudge()
        )
        assert p.vote.label == ""
        assert p.vote.score == 6 / 10
        assert p.accuracy == 0.0

    def test_accuracy_is_quantized(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(1, 12))
            answers = [str(rng.integers(0, 3)) for _ in range(m)]
            p = probe_from_answers(answers, ExactNormalizedJudge())
            assert (p.accuracy * m) == pytest.approx(round(p.accuracy * m))


class TestQuestionerReward:
    """uncertainty_reward over one probe: the searcher's reward for a query and
    the questioner's for a question, one rule."""

    def test_peak_no_penalty(self):
        assert uncertainty_reward(probe(0.5), 0.0).final == 1.0

    def test_clamp(self):
        assert uncertainty_reward(probe(0.5), 1.2).final == 0.0

    def test_substitution(self):
        rec = uncertainty_reward(probe(0.7), 0.1)
        assert rec.challenge == pytest.approx(0.6, abs=1e-12)
        assert rec.final == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_penalty(self):
        finals = [uncertainty_reward(probe(0.5), penalty=p).final for p in (0, 0.3, 0.8, 1.5)]
        assert finals == sorted(finals, reverse=True)
        assert all(0.0 <= f <= 1.0 for f in finals)

    def test_one_probe_is_its_challenge_exactly(self):
        # The reward is challenge - penalty as computed alone, bit for bit.
        for acc in np.linspace(0.0, 1.0, 41):
            one = ProbeResult(vote=probe(0.5).vote, accuracy=float(acc))
            for penalty in (0.0, 0.1, 0.37):
                rec = uncertainty_reward(one, penalty)
                assert rec.challenge == challenge_reward(float(acc))
                assert rec.final == max(0.0, challenge_reward(float(acc)) - penalty)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            uncertainty_reward(ProbeResult(vote=probe(0.5).vote, accuracy=-0.5), 0.0)


class TestSearcherReward:
    """uncertainty_reward as stage 1 calls it, over a query's one probe."""

    def test_single_probe(self):
        rec = uncertainty_reward(probe(0.5), penalty=0.5)
        assert rec.final == pytest.approx(0.5)

    def test_clamp_at_zero(self):
        rec = uncertainty_reward(probe(1.0), penalty=0.7)
        assert rec.final == 0.0


class TestSolverReward:
    def test_exact_match(self):
        assert solver_reward("8√3", "8√3", ExactNormalizedJudge()) == 1

    def test_mismatch(self):
        assert solver_reward("square", "circle", ExactNormalizedJudge()) == 0

    def test_normalizing_judge(self):
        assert solver_reward(" 4 ", "4", ExactNormalizedJudge()) == 1

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            solver_reward("4", "", ExactNormalizedJudge())

    def test_binary(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = str(rng.integers(0, 4)), str(rng.integers(0, 4))
            assert solver_reward(a, b, ExactNormalizedJudge()) in (0, 1)


class TestDifficultyFilter:
    def test_keep_midpoint(self):
        assert difficulty_filter(0.5, 0.3, 0.8) is True

    def test_open_boundaries(self):
        assert difficulty_filter(0.3, 0.3, 0.8) is False
        assert difficulty_filter(0.8, 0.3, 0.8) is False

    def test_invalid_window(self):
        with pytest.raises(InvalidWindow):
            difficulty_filter(0.5, 0.8, 0.3)
        with pytest.raises(InvalidWindow):
            difficulty_filter(0.5, -0.1, 0.8)

    def test_kept_samples_have_high_challenge(self):
        # With the default window, anything kept scores challenge > 0.4.
        for acc in np.linspace(0.31, 0.79, 25):
            if difficulty_filter(float(acc), 0.3, 0.8):
                assert challenge_reward(float(acc)) > 0.4
