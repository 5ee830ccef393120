"""Unit tests for RiptideConfig (Table I parameters)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import RiptideConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = RiptideConfig()
        assert config.update_interval == 1.0  # i_u in the evaluation
        assert config.ttl == 90.0  # t in the implementation
        assert config.c_max == 100  # chosen after Figure 10
        assert config.c_min == 10  # the Linux default window
        assert config.combiner == "average"
        assert config.policy == "ewma"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.0},
            {"update_interval": 0.0},
            {"ttl": -1.0},
            {"c_min": 0},
            {"c_max": 5, "c_min": 10},
            {"combiner": "median"},
            {"granularity": "asn"},
            {"alpha": float("nan")},
            {"update_interval": float("nan")},
            {"ttl": float("nan")},
            {"policy": "magic"},
            {"c_min": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RiptideConfig(**kwargs)

    def test_valid_variants_accepted(self):
        RiptideConfig(combiner="max", granularity="prefix")
        RiptideConfig(combiner="traffic_weighted", policy="p90")


class TestClamp:
    def test_clamps_to_bounds(self):
        config = RiptideConfig(c_min=10, c_max=100)
        assert config.clamp(5.0) == 10
        assert config.clamp(500.0) == 100
        assert config.clamp(55.4) == 55

    def test_rounds_to_nearest(self):
        config = RiptideConfig()
        assert config.clamp(54.5) in (54, 55)  # banker's rounding is fine
        assert config.clamp(54.9) == 55


@given(
    value=st.floats(min_value=-1e6, max_value=1e6),
    c_min=st.integers(min_value=1, max_value=50),
    extra=st.integers(min_value=0, max_value=400),
)
def test_clamp_always_within_bounds(value, c_min, extra):
    config = RiptideConfig(c_min=c_min, c_max=c_min + extra)
    clamped = config.clamp(value)
    assert config.c_min <= clamped <= config.c_max
