"""Country centroids and great-circle distances.

Edge placement is not only about hit rates: a miss served from a nearby
replica costs less backbone transit than one served across an ocean.
This module provides approximate population-centroid coordinates for
every registry country and haversine distances, which
:mod:`repro.placement.distance` turns into a serving-cost metric.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import UnknownCountryError, WorldError
from repro.world.countries import CountryRegistry, default_registry

#: Approximate population-centroid coordinates, ``code: (lat, lon)``.
COUNTRY_CENTROIDS: Dict[str, Tuple[float, float]] = {
    "US": (39.8, -98.6), "CA": (45.4, -75.7), "MX": (19.4, -99.1),
    "BR": (-15.8, -47.9), "AR": (-34.6, -58.4), "CL": (-33.5, -70.7),
    "CO": (4.7, -74.1), "PE": (-12.0, -77.0), "VE": (10.5, -66.9),
    "GB": (52.5, -1.5), "IE": (53.3, -6.3), "FR": (47.0, 2.4),
    "DE": (51.0, 10.0), "AT": (47.6, 14.1), "CH": (46.8, 8.2),
    "NL": (52.2, 5.3), "BE": (50.8, 4.4), "ES": (40.3, -3.7),
    "PT": (39.6, -8.0), "IT": (42.8, 12.8), "GR": (38.3, 23.8),
    "SE": (59.6, 16.3), "NO": (60.5, 8.5), "DK": (55.9, 10.0),
    "FI": (61.9, 25.7), "PL": (52.1, 19.4), "CZ": (49.8, 15.5),
    "SK": (48.7, 19.7), "HU": (47.2, 19.5), "RO": (45.9, 25.0),
    "BG": (42.7, 25.5), "UA": (49.0, 31.4), "RU": (55.7, 37.6),
    "TR": (39.9, 32.9), "IL": (31.8, 35.0), "SA": (24.7, 46.7),
    "AE": (24.5, 54.4), "EG": (30.1, 31.2), "MA": (33.6, -7.6),
    "ZA": (-28.5, 24.7), "NG": (9.1, 7.4), "KE": (-1.3, 36.8),
    "JP": (35.7, 139.7), "KR": (37.6, 127.0), "TW": (24.0, 121.0),
    "HK": (22.3, 114.2), "CN": (34.8, 113.6), "IN": (22.8, 79.6),
    "PK": (30.4, 69.4), "BD": (23.8, 90.4), "LK": (7.0, 80.6),
    "ID": (-6.2, 106.8), "MY": (3.1, 101.7), "SG": (1.35, 103.8),
    "TH": (13.8, 100.5), "PH": (14.6, 121.0), "VN": (16.0, 107.5),
    "AU": (-33.9, 151.2), "NZ": (-41.3, 174.8), "IS": (64.1, -21.9),
    "HR": (45.8, 16.0), "RS": (44.8, 20.5),
}

#: Mean Earth radius in kilometres.
EARTH_RADIUS_KM = 6_371.0


def centroid(code: str) -> Tuple[float, float]:
    """(lat, lon) of a country's population centroid."""
    try:
        return COUNTRY_CENTROIDS[code]
    except KeyError:
        raise UnknownCountryError(code) from None


def haversine_km(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance in km between two (lat, lon) points."""
    lat_a, lon_a = math.radians(a[0]), math.radians(a[1])
    lat_b, lon_b = math.radians(b[0]), math.radians(b[1])
    d_lat = lat_b - lat_a
    d_lon = lon_b - lon_a
    h = (
        math.sin(d_lat / 2) ** 2
        + math.cos(lat_a) * math.cos(lat_b) * math.sin(d_lon / 2) ** 2
    )
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def country_distance_km(code_a: str, code_b: str) -> float:
    """Centroid distance in km between two countries (0 for the same)."""
    if code_a == code_b:
        return 0.0
    return haversine_km(centroid(code_a), centroid(code_b))


def distance_matrix(registry: Optional[CountryRegistry] = None) -> np.ndarray:
    """Symmetric km matrix on the registry's canonical axis (computed once
    per axis and shared, so read-only)."""
    if registry is None:
        registry = default_registry()
    return _distance_matrix(tuple(registry.codes()))


@functools.lru_cache(maxsize=None)
def _distance_matrix(codes: Tuple[str, ...]) -> np.ndarray:
    missing = [code for code in codes if code not in COUNTRY_CENTROIDS]
    if missing:
        raise WorldError(f"no centroid for countries: {missing}")
    n = len(codes)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            km = country_distance_km(codes[i], codes[j])
            matrix[i, j] = km
            matrix[j, i] = km
    matrix.flags.writeable = False
    return matrix
