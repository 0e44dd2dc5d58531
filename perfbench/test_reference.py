"""The benchmark's reference against the test suite's brute-force oracle."""

import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "tests"),
                str(Path(__file__).resolve().parent)]
import oracles  # noqa: E402
import reference  # noqa: E402


def as_str(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def oracle_nearest(reach: dict, received: str, max_dist: int):
    if "1" not in received:
        return "silence", None, 0
    dists = {s: oracles.hamming(vec, received) for s, vec in reach.items()}
    best = min(dists.values())
    hits = [s for s, d in dists.items() if d == best]
    if best > max_dist or len(hits) > 1:
        return "nomatch", None, best
    return "identified", frozenset(hits[0]), best


@pytest.mark.parametrize("n", range(1, 8))
def test_matrix_matches_oracle(n):
    rows = reference.shape(n)[0]
    assert [as_str(row) for row in reference.matrix(n)] == oracles.matrix_rows(rows)


@pytest.mark.parametrize("n", range(1, 8))
def test_subset_vectors_match_oracle(n):
    rows = reference.shape(n)[0]
    reach = oracles.reachable_map(n, rows)
    ref = reference.NearestReference(n)
    got = {tuple(sorted(reference.subset_ids(int(mask)))): as_str(vec)
           for mask, vec in zip(ref.masks, ref.vectors)}
    assert got == reach
    m = reference.matrix(n)
    for subset, vec in reach.items():
        assert as_str(reference.demod(m, subset)) == vec


@pytest.mark.parametrize("n", range(1, 8))
def test_nearest_matches_oracle(n):
    rows = reference.shape(n)[0]
    reach = oracles.reachable_map(n, rows)
    ref = reference.NearestReference(n)
    v = reference.shape(n)[2]
    if v <= 10:
        received = ["".join(bits) for bits in product("01", repeat=v)]
    else:
        rng = np.random.default_rng(n)
        received = [as_str(rng.integers(0, 2, v)) for _ in range(300)]
        # every subset vector with its first chip flipped
        received += [("1" if vec[0] == "0" else "0") + vec[1:]
                     for vec in reach.values()]
    for vec in received:
        bits = np.frombuffer(vec.encode(), np.uint8) - ord("0")
        for max_dist in (0, 1, 3, v):
            assert ref.decode(bits, max_dist) == oracle_nearest(reach, vec, max_dist)


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms_match_oracle(n):
    rows_n = reference.shape(n)[0]
    rows = oracles.matrix_rows(rows_n)
    v = len(rows[0])
    for subset, vec in oracles.reachable_map(n, rows_n).items():
        k = len(subset)
        assert vec.count("1") == reference.demod_weight(n, k)
        total = sum(oracles.chip_sum(rows, subset, c) for c in range(1, v + 1))
        assert total == reference.sums_total(n, k)


def test_nearest_reference_refuses_large_n():
    with pytest.raises(ValueError):
        reference.NearestReference(reference.NEAREST_MAX_STATIONS + 1)
