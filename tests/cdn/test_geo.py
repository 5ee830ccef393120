"""Unit tests for geography and RTT synthesis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cdn.geo import (
    FIBRE_KM_PER_SECOND,
    PATH_INFLATION,
    GeoPoint,
    haversine_km,
    rtt_between,
)

LONDON = GeoPoint(51.51, -0.13)
NEW_YORK = GeoPoint(40.71, -74.01)
SYDNEY = GeoPoint(-33.87, 151.21)


class TestGeoPoint:
    def test_valid_coordinates(self):
        point = GeoPoint(45.0, -120.0)
        assert point.latitude == 45.0

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_invalid_coordinates_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestHaversine:
    def test_zero_distance_to_self(self):
        assert haversine_km(LONDON, LONDON) == 0.0

    def test_london_new_york_distance(self):
        # Great-circle distance is ~5570 km.
        assert haversine_km(LONDON, NEW_YORK) == pytest.approx(5570, rel=0.02)

    def test_symmetry(self):
        assert haversine_km(LONDON, SYDNEY) == pytest.approx(
            haversine_km(SYDNEY, LONDON)
        )

    def test_antipodal_bound(self):
        north = GeoPoint(90.0, 0.0)
        south = GeoPoint(-90.0, 0.0)
        # Half the Earth's circumference.
        assert haversine_km(north, south) == pytest.approx(20015, rel=0.01)


class TestRttSynthesis:
    def test_min_rtt_floor_for_colocated(self):
        assert rtt_between(LONDON, LONDON) == pytest.approx(0.002)

    def test_transatlantic_rtt_plausible(self):
        rtt = rtt_between(LONDON, NEW_YORK)
        # Real LHR<->JFK RTTs sit around 70-90 ms.
        assert 0.050 < rtt < 0.130

    def test_inflation_scales_rtt(self):
        great_circle = 2 * haversine_km(LONDON, SYDNEY) / FIBRE_KM_PER_SECOND
        assert rtt_between(LONDON, SYDNEY) == pytest.approx(PATH_INFLATION * great_circle)


coordinates = st.tuples(
    st.floats(min_value=-90, max_value=90),
    st.floats(min_value=-180, max_value=180),
)


@given(a=coordinates, b=coordinates)
def test_distance_is_symmetric_and_bounded(a, b):
    pa, pb = GeoPoint(*a), GeoPoint(*b)
    d_ab = haversine_km(pa, pb)
    d_ba = haversine_km(pb, pa)
    assert d_ab == pytest.approx(d_ba, abs=1e-6)
    assert 0.0 <= d_ab <= 20016.0


@given(a=coordinates, b=coordinates)
def test_rtt_at_least_floor(a, b):
    rtt = rtt_between(GeoPoint(*a), GeoPoint(*b))
    assert rtt >= 0.002
