"""Unit and property tests for the combination algorithms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.combiners import (
    AverageCombiner,
    MaxCombiner,
    TrafficWeightedCombiner,
    make_combiner,
)
from tests.rows import ss_row


def obs(*pairs):
    return [ss_row(c, b) for c, b in pairs]


class TestAverageCombiner:
    def test_plain_mean(self):
        # The paper's Figure 7 example: windows averaging to 80.
        combined = AverageCombiner().combine(obs((60, 0), (80, 0), (100, 0)))
        assert combined == pytest.approx(80.0)

    def test_single_observation(self):
        assert AverageCombiner().combine(obs((42, 0))) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AverageCombiner().combine([])


class TestMaxCombiner:
    def test_takes_maximum(self):
        assert MaxCombiner().combine(obs((10, 0), (90, 0), (40, 0))) == 90.0

    def test_more_aggressive_than_average(self):
        group = obs((10, 0), (50, 0), (100, 0))
        assert MaxCombiner().combine(group) >= AverageCombiner().combine(group)


class TestTrafficWeightedCombiner:
    def test_heavy_connection_dominates(self):
        # One busy connection at cwnd 100, one idle at cwnd 10.
        combined = TrafficWeightedCombiner().combine(
            obs((100, 1_000_000), (10, 0))
        )
        assert combined == pytest.approx(100.0, rel=0.01)

    def test_equal_traffic_reduces_to_mean(self):
        combined = TrafficWeightedCombiner().combine(
            obs((40, 5000), (80, 5000))
        )
        assert combined == pytest.approx(60.0)

    def test_all_idle_still_combines(self):
        combined = TrafficWeightedCombiner().combine(obs((40, 0), (80, 0)))
        assert combined == pytest.approx(60.0)

    def test_more_conservative_than_max(self):
        group = obs((10, 100_000), (100, 1_000))
        assert TrafficWeightedCombiner().combine(group) < MaxCombiner().combine(group)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("average", AverageCombiner),
            ("max", MaxCombiner),
            ("traffic_weighted", TrafficWeightedCombiner),
        ],
    )
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_combiner(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_combiner("median")

    def test_unknown_error_lists_known_names(self):
        with pytest.raises(
            ValueError,
            match=r"unknown combiner 'median' "
            r"\(known: average, max, traffic_weighted\)",
        ) as excinfo:
            make_combiner("median")
        # ``from None``: the internal KeyError must not leak into the
        # traceback a user sees for a config typo.
        assert excinfo.value.__suppress_context__
        assert excinfo.value.__cause__ is None


observation_lists = st.lists(
    st.builds(
        ss_row,
        cwnd=st.integers(min_value=1, max_value=500),
        bytes_acked=st.integers(min_value=0, max_value=10**9),
    ),
    min_size=1,
    max_size=30,
)


@given(observations=observation_lists)
def test_all_combiners_stay_within_observed_range(observations):
    """Every combiner output lies between the min and max observed cwnd."""
    low = min(o.cwnd for o in observations)
    high = max(o.cwnd for o in observations)
    for name in ("average", "max", "traffic_weighted"):
        combined = make_combiner(name).combine(observations)
        assert low - 1e-9 <= combined <= high + 1e-9


@given(observations=observation_lists)
def test_max_dominates_average(observations):
    assert (
        make_combiner("max").combine(observations)
        >= make_combiner("average").combine(observations) - 1e-9
    )
