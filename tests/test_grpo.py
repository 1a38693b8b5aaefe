import json
import math

import numpy as np
import pytest

from triplay.errors import DegenerateDistribution, DomainTooSmall, GroupTooSmall
from triplay.grpo import (
    BatchRecord,
    action_cdf,
    domain_advantages,
    gradient_check,
    group_advantages,
    log_probabilities,
    sample_actions,
    toy_objective,
    toy_objective_gradient,
    toy_policy_update,
    write_training_batch,
)


class TestGroupAdvantages:
    def test_binary_rewards(self):
        assert group_advantages([1, 0, 0, 1]) == pytest.approx([1, -1, -1, 1], abs=1e-6)

    def test_zero_variance(self):
        assert group_advantages([0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0]

    def test_two_point(self):
        assert group_advantages([3, 1]) == pytest.approx([1, -1], abs=1e-6)

    def test_too_small(self):
        with pytest.raises(GroupTooSmall):
            group_advantages([1.0])

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rewards = rng.normal(size=8)
            adv = np.asarray(group_advantages(rewards))
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std() - 1.0) < 1e-6

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rewards = rng.normal(size=8)
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.normal())
            base = group_advantages(rewards)
            scaled = group_advantages(a * rewards + b)
            assert scaled == pytest.approx(base, abs=1e-6)


class TestDomainAdvantages:
    def test_cross_domain_scale_removed(self):
        groups = [(1.0, "A"), (0.0, "A"), (10.0, "B"), (0.0, "B")]
        adv = domain_advantages(groups)
        assert adv == pytest.approx([1, -1, 1, -1], abs=1e-6)

    def test_single_domain_matches_group(self):
        rewards = [0.2, 0.9, 0.4, 0.6]
        assert domain_advantages([(r, "only") for r in rewards]) == pytest.approx(
            group_advantages(rewards)
        )

    def test_zero_variance_domain(self):
        assert domain_advantages([(0.5, "A"), (0.5, "A")]) == [0.0, 0.0]

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmall):
            domain_advantages([(1.0, "A"), (2.0, "A"), (1.0, "B")])

    def test_order_preserved(self):
        groups = [(1.0, "A"), (5.0, "B"), (0.0, "A"), (1.0, "B")]
        adv = domain_advantages(groups)
        assert adv[0] > 0 and adv[2] < 0
        assert adv[1] > 0 and adv[3] < 0

    def test_per_domain_affine_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rewards_a = rng.normal(size=4)
            rewards_b = rng.normal(size=4)
            base = domain_advantages(
                [(r, "A") for r in rewards_a] + [(r, "B") for r in rewards_b]
            )
            scaled = domain_advantages(
                [(3.0 * r + 1.0, "A") for r in rewards_a]
                + [(0.5 * r - 2.0, "B") for r in rewards_b]
            )
            assert scaled == pytest.approx(base, abs=1e-6)


def single_action_objective(ratio: float, advantage: float) -> float:
    """toy_objective for one sampled action whose new/old probability ratio is `ratio`."""
    logp_old = [math.log(0.5) - math.log(ratio)]
    return toy_objective(np.zeros(2), [0], logp_old, [advantage])


class TestClippedObjective:
    def test_upper_clip(self):
        assert single_action_objective(1.5, 1.0) == pytest.approx(1.2)

    def test_sign_aware_min_on_negative_advantage(self):
        assert single_action_objective(0.5, -1.0) == pytest.approx(-0.8)

    def test_scalar_oracle_both_branches(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ratio = float(rng.uniform(0.1, 2.5))
            adv = float(rng.normal())
            value = single_action_objective(ratio, adv)
            oracle = min(ratio * adv, min(max(ratio, 0.8), 1.2) * adv)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_invariant_beyond_clip_range(self):
        v1 = single_action_objective(1.3, 1.0)
        v2 = single_action_objective(4.0, 1.0)
        assert v1 == pytest.approx(v2)


def policy_step(logits, rng, reward_fn, learning_rate, group_size):
    """Sample a group from the frozen logits, score it with reward_fn, and take
    one ascent step on the clipped objective."""
    logp = log_probabilities(logits)
    actions = sample_actions(action_cdf(logp), group_size, rng)
    advantages = group_advantages(reward_fn(actions))
    return toy_policy_update(logits, actions, logp[actions], advantages, learning_rate)


class TestToyPolicy:
    def test_probabilities_sum_to_one(self):
        logp = log_probabilities(np.array([0.3, -1.2, 2.0]))
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("group_size", range(1, 10))
    def test_draws_equal_generator_choice(self, group_size):
        # One kept cdf gives the actions rng.choice draws from p = exp(logp),
        # and leaves the generator where rng.choice leaves it.
        logp = log_probabilities(np.random.default_rng(group_size).normal(size=7))
        cdf = action_cdf(logp)
        for seed in range(200):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                sample_actions(cdf, group_size, ours),
                theirs.choice(len(logp), size=group_size, p=np.exp(logp)),
            )
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("logits", ([0.0, np.nan], [0.0, np.inf]))
    def test_non_finite_logits_are_degenerate(self, logits):
        with np.errstate(invalid="ignore"), pytest.raises(DegenerateDistribution):
            action_cdf(log_probabilities(np.array(logits)))

    def test_degenerate_distribution(self):
        logp = log_probabilities(np.array([0.0, -2000.0]))
        with pytest.raises(DegenerateDistribution):
            action_cdf(logp)


class TestToyGradient:
    def test_matches_finite_differences(self):
        assert gradient_check(trials=100, seed=0) < 1e-4

    def test_clip_active_cases_are_exercised(self):
        rng = np.random.default_rng(5)
        clipped_seen = 0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            old_logits = rng.normal(size=n)
            new_logits = old_logits + rng.normal(scale=0.5, size=n)
            actions = rng.integers(0, n, size=4)
            logp_old = log_probabilities(old_logits)[actions]
            ratios = np.exp(log_probabilities(new_logits)[actions] - logp_old)
            if np.any(ratios > 1.2) or np.any(ratios < 0.8):
                clipped_seen += 1
        assert clipped_seen > 20

    def test_gradient_zero_beyond_upper_clip(self):
        # Single action with ratio above 1 + eps_high and positive advantage:
        # the objective is flat there, so the gradient must vanish.
        logits = np.array([2.0, 0.0])
        logp_old = np.array([math.log(0.3)])
        actions = np.array([0])
        ratio = math.exp(log_probabilities(logits)[0]) / 0.3
        assert ratio > 1.2
        grad = toy_objective_gradient(logits, actions, logp_old, [1.0])
        assert grad == pytest.approx(np.zeros(2), abs=1e-12)

    def test_zero_variance_leaves_logits_unchanged(self):
        logits = np.array([0.5, -0.5, 0.0])
        rng = np.random.default_rng(2)
        updated = policy_step(
            logits, rng, lambda actions: [0.7] * len(actions), 0.5, group_size=6
        )
        np.testing.assert_array_equal(updated, logits)

    def test_learning_favors_rewarded_action(self):
        logits = np.zeros(4)
        rng = np.random.default_rng(11)
        p_start = math.exp(log_probabilities(logits)[0])
        for _ in range(100):
            logits = policy_step(
                logits,
                rng,
                lambda actions: [1.0 if a == 0 else 0.0 for a in actions],
                0.3,
                group_size=8,
            )
        p_end = math.exp(log_probabilities(logits)[0])
        assert p_end > p_start
        assert p_end > 0.5

    def test_update_returns_new_policy(self):
        logits = np.zeros(3)
        updated = toy_policy_update(
            logits, np.array([0, 1]), np.array([-1.0986, -1.0986]), [1.0, -1.0], 0.1
        )
        assert updated is not logits
        assert not np.array_equal(updated, logits)
        np.testing.assert_array_equal(logits, np.zeros(3))

    def test_objective_value_at_old_policy(self):
        logits = np.array([0.2, -0.4, 1.0])
        actions = np.array([2, 0])
        logp_old = log_probabilities(logits)[actions]
        value = toy_objective(logits, actions, logp_old, [1.0, -1.0])
        # ratios are exactly 1 -> objective is the mean advantage
        assert value == pytest.approx(0.0, abs=1e-12)


class TestBatchExport:
    def test_write_training_batch(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        records = [
            BatchRecord(
                prompt_id="stage1:s0:charts:0",
                domain="charts",
                tokens=[3],
                reward=0.7,
                advantage=1.0,
            ),
            BatchRecord(
                prompt_id="stage1:s0:charts:1",
                domain="charts",
                tokens=[5],
                reward=0.1,
                advantage=-1.0,
            ),
        ]
        write_training_batch(records, path)
        write_training_batch(records, path)  # replaces the file, not appends
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["batch.jsonl"]
        assert rows[0]["prompt_id"] == "stage1:s0:charts:0"
        assert set(rows[0]) == {"prompt_id", "domain", "tokens", "reward", "advantage"}
