"""Overlap-class distances against the pure-Python oracle."""

import math
from itertools import combinations

import pytest

from collisioncode import _classes
import oracles


def subset_vectors(n: int) -> dict[frozenset, str]:
    """Every station subset of an n-station code, the empty one included,
    mapped to its demodulated vector (rows include the padding row)."""
    rows = oracles.matrix_rows(n + (n % 2 == 0))
    return {frozenset(s): oracles.demod(rows, s)
            for k in range(n + 1) for s in combinations(range(1, n + 1), k)}


@pytest.mark.parametrize("n", range(1, 8))
def test_class_distance_is_hamming_distance(n):
    rows = n + (n % 2 == 0)
    vectors = subset_vectors(n)
    for s, vs in vectors.items():
        assert _classes.demod_weight(rows, len(s)) == vs.count("1")
        for t, vt in vectors.items():
            assert _classes.class_distance(
                rows, len(s - t), len(t - s), len(s & t)) == \
                oracles.hamming(vs, vt), (s, t)


@pytest.mark.parametrize("n", range(1, 8))
def test_radius_is_least_pairwise_distance(n):
    vectors = subset_vectors(n)
    for k in range(1, n + 1):
        least = min((oracles.hamming(vs, vt)
                     for s, vs in vectors.items() if len(s) == k
                     for t, vt in vectors.items() if t and t != s),
                    default=math.inf)
        assert _classes.radius(n, k) == least, k


def test_single_station_has_no_finite_radius():
    assert _classes.radius(1, 1) == math.inf
    assert all(math.isfinite(_classes.radius(n, k))
               for n in range(2, 8) for k in range(1, n + 1))
