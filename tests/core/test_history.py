"""Unit and property tests for history policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.history import EwmaHistory, NoHistory, WindowedHistory, make_history_policy


class TestEwmaHistory:
    def test_first_value_passes_through(self):
        assert EwmaHistory(0.7).update("d", 50.0) == 50.0

    def test_paper_weighting(self):
        """alpha weight to history, 1 - alpha to the new value."""
        history = EwmaHistory(0.7)
        history.update("d", 100.0)
        assert history.update("d", 0.0) == pytest.approx(70.0)

    def test_smooths_spikes(self):
        history = EwmaHistory(0.9)
        history.update("d", 10.0)
        spiked = history.update("d", 1000.0)
        assert spiked < 150.0  # dampened, not a jump to 1000

    def test_prevents_plummeting(self):
        """Paper: history prevents the window from plummeting when all
        connections to a destination close or reset."""
        history = EwmaHistory(0.7)
        value = 100.0
        history.update("d", value)
        dropped = history.update("d", 10.0)
        assert dropped > 70.0

    def test_keys_are_independent(self):
        history = EwmaHistory(0.5)
        history.update("a", 100.0)
        assert history.update("b", 10.0) == 10.0

    def test_forget_resets_key(self):
        history = EwmaHistory(0.5)
        history.update("d", 100.0)
        history.forget("d")
        assert history.update("d", 10.0) == 10.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EwmaHistory(1.0)
        with pytest.raises(ValueError):
            EwmaHistory(-0.1)


class TestWindowedHistory:
    def test_mean_of_window(self):
        history = WindowedHistory(3)
        history.update("d", 10.0)
        history.update("d", 20.0)
        assert history.update("d", 30.0) == pytest.approx(20.0)

    def test_window_slides(self):
        history = WindowedHistory(2)
        history.update("d", 10.0)
        history.update("d", 20.0)
        assert history.update("d", 40.0) == pytest.approx(30.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedHistory(0)

    def test_forget(self):
        history = WindowedHistory(5)
        history.update("d", 100.0)
        history.forget("d")
        assert history.update("d", 10.0) == 10.0


class TestNoHistory:
    def test_always_newest(self):
        history = NoHistory()
        history.update("d", 100.0)
        assert history.update("d", 7.0) == 7.0


class TestFactory:
    def test_builds_all(self):
        assert isinstance(make_history_policy("ewma", 0.7, 5), EwmaHistory)
        assert isinstance(make_history_policy("windowed", 0.7, 5), WindowedHistory)
        assert isinstance(make_history_policy("none", 0.7, 5), NoHistory)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_history_policy("kalman", 0.7, 5)

    def test_unknown_error_lists_known_names(self):
        with pytest.raises(
            ValueError,
            match=r"unknown history policy 'kalman' "
            r"\(known: ewma, none, windowed\)",
        ) as excinfo:
            make_history_policy("kalman", 0.7, 5)
        # ``from None``: the internal KeyError must not leak into the
        # traceback a user sees for a config typo.
        assert excinfo.value.__suppress_context__
        assert excinfo.value.__cause__ is None


values = st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=50)


@given(alpha=st.floats(min_value=0.0, max_value=0.99), sequence=values)
def test_ewma_stays_within_seen_range(alpha, sequence):
    """The EWMA never escapes the convex hull of its inputs."""
    history = EwmaHistory(alpha)
    low, high = min(sequence), max(sequence)
    for value in sequence:
        result = history.update("d", value)
        assert low - 1e-6 <= result <= high + 1e-6


@given(window=st.integers(min_value=1, max_value=10), sequence=values)
def test_windowed_stays_within_recent_range(window, sequence):
    history = WindowedHistory(window)
    for i, value in enumerate(sequence):
        result = history.update("d", value)
        recent = sequence[max(0, i - window + 1) : i + 1]
        assert min(recent) - 1e-6 <= result <= max(recent) + 1e-6
