"""Tests for country centroids and distances."""

import numpy as np
import pytest

from repro.errors import UnknownCountryError
from repro.world.geo import (
    COUNTRY_CENTROIDS,
    centroid,
    country_distance_km,
    distance_matrix,
    haversine_km,
)


class TestCentroids:
    def test_every_registry_country_has_centroid(self, registry):
        for code in registry.codes():
            lat, lon = centroid(code)
            assert -90 <= lat <= 90
            assert -180 <= lon <= 180

    def test_no_orphan_centroids(self, registry):
        assert set(COUNTRY_CENTROIDS) == set(registry.codes())

    def test_unknown_country_rejected(self):
        with pytest.raises(UnknownCountryError):
            centroid("XX")


class TestHaversine:
    def test_zero_distance_same_point(self):
        assert haversine_km((10.0, 20.0), (10.0, 20.0)) == pytest.approx(0.0)

    def test_known_distance_london_newyork(self):
        london = (51.5, -0.1)
        new_york = (40.7, -74.0)
        assert haversine_km(london, new_york) == pytest.approx(5570, rel=0.02)

    def test_antipodal_is_half_circumference(self):
        assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            np.pi * 6371, rel=0.001
        )

    def test_symmetry(self):
        a, b = (12.3, 45.6), (-33.9, 151.2)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


class TestCountryDistances:
    def test_same_country_zero(self):
        assert country_distance_km("BR", "BR") == 0.0

    def test_neighbours_closer_than_antipodes(self):
        assert country_distance_km("PT", "ES") < country_distance_km("PT", "NZ")

    def test_plausible_us_brazil(self):
        assert 6000 < country_distance_km("US", "BR") < 9000

    def test_matrix_properties(self, registry):
        matrix = distance_matrix(registry)
        n = len(registry)
        assert matrix.shape == (n, n)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)
        off_diagonal = matrix[~np.eye(n, dtype=bool)]
        assert np.all(off_diagonal > 0)
        assert off_diagonal.max() < 20_100  # half Earth circumference

    def test_matrix_matches_pairwise(self, registry):
        matrix = distance_matrix(registry)
        i = registry.index_of("US")
        j = registry.index_of("SG")
        assert matrix[i][j] == pytest.approx(country_distance_km("US", "SG"))

    def test_matrix_computed_once_and_read_only(self, registry):
        matrix = distance_matrix(registry)
        assert distance_matrix(registry) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 1] = 0.0
        codes = registry.codes()
        expected = np.array(
            [[country_distance_km(a, b) for b in codes] for a in codes]
        )
        assert np.array_equal(matrix, expected)
