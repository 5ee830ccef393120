"""Unit tests for the loss models."""

import random

import pytest

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        rng = random.Random(1)
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_clone_returns_fresh_instance(self):
        model = NoLoss()
        assert model.clone() is not model


class TestBernoulliLoss:
    def test_zero_probability_never_drops(self):
        model = BernoulliLoss(0.0)
        rng = random.Random(1)
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_drop_rate_approximates_probability(self):
        model = BernoulliLoss(0.2)
        rng = random.Random(7)
        drops = sum(model.should_drop(rng) for _ in range(20000))
        assert 0.18 < drops / 20000 < 0.22

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(ValueError):
            BernoulliLoss(bad)

    def test_clone_preserves_probability(self):
        assert BernoulliLoss(0.05).clone().probability == 0.05


class TestGilbertElliottLoss:
    def test_always_good_behaves_like_no_loss(self):
        model = GilbertElliottLoss(0.0, 1.0, loss_good=0.0, loss_bad=1.0)
        rng = random.Random(3)
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_bad_state_loses_heavily(self):
        model = GilbertElliottLoss(1.0, 0.0, loss_good=0.0, loss_bad=1.0)
        rng = random.Random(3)
        # First packet transitions to bad, everything is lost from there.
        drops = [model.should_drop(rng) for _ in range(100)]
        assert all(drops)

    def test_losses_are_bursty(self):
        """Consecutive losses cluster more than under Bernoulli."""
        model = GilbertElliottLoss(0.01, 0.2, loss_good=0.0, loss_bad=0.5)
        rng = random.Random(11)
        outcomes = [model.should_drop(rng) for _ in range(50000)]
        loss_rate = sum(outcomes) / len(outcomes)
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a and b
        )
        conditional = pairs / max(sum(outcomes), 1)
        assert conditional > 2 * loss_rate  # loss given loss is elevated

    def test_transition_state_tracked(self):
        model = GilbertElliottLoss(1.0, 0.0)
        rng = random.Random(5)
        model.should_drop(rng)
        assert model._in_bad_state

    def test_clone_resets_state(self):
        model = GilbertElliottLoss(1.0, 0.0)
        rng = random.Random(5)
        model.should_drop(rng)
        assert not model.clone()._in_bad_state

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            GilbertElliottLoss(bad, 0.5)
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.5, 0.5, loss_bad=bad)

    @pytest.mark.parametrize("bad", [-0.01, 1.5])
    def test_invalid_recovery_and_good_rate_rejected(self, bad):
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.5, bad)
        with pytest.raises(ValueError):
            GilbertElliottLoss(0.5, 0.5, loss_good=bad)

    def test_clone_preserves_all_parameters(self):
        model = GilbertElliottLoss(0.02, 0.3, loss_good=0.001, loss_bad=0.7)
        twin = model.clone()
        assert twin.p_good_to_bad == 0.02
        assert twin.p_bad_to_good == 0.3
        assert twin.loss_good == 0.001
        assert twin.loss_bad == 0.7


class TestCloneStateIndependence:
    """Each link direction must own independent channel state."""

    def test_gilbert_elliott_clones_do_not_share_state(self):
        model = GilbertElliottLoss(1.0, 0.0, loss_good=0.0, loss_bad=1.0)
        twin = model.clone()
        rng = random.Random(5)
        model.should_drop(rng)  # drives only the original into bad state
        assert model._in_bad_state
        assert not twin._in_bad_state
        # And the other way round: exercising the clone leaves the
        # original's state untouched.
        fresh = model.clone()
        fresh.should_drop(rng)
        assert fresh._in_bad_state
        assert not model.clone()._in_bad_state

    @pytest.mark.parametrize(
        "model",
        [
            NoLoss(),
            BernoulliLoss(0.1),
            GilbertElliottLoss(0.01, 0.2),
        ],
        ids=["no_loss", "bernoulli", "gilbert_elliott"],
    )
    def test_clone_is_always_a_distinct_instance(self, model):
        assert model.clone() is not model

    def test_bernoulli_clones_draw_independently(self):
        # Two clones fed the same rng sequence behave identically —
        # there is no hidden shared mutable state.
        a = BernoulliLoss(0.3).clone()
        b = BernoulliLoss(0.3).clone()
        outcomes_a = [a.should_drop(random.Random(9)) for _ in range(1)]
        outcomes_b = [b.should_drop(random.Random(9)) for _ in range(1)]
        assert outcomes_a == outcomes_b
