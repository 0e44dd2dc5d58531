"""Exact and nearest-match inversion of received bitstreams."""

import functools
import hashlib
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collisioncode as cc
from collisioncode import _classes, channel, decoder
from collisioncode._subsets import demod_blocks, mask_to_ids
from conftest import cached_codebook, load_golden
import oracles

DECODE_MAP_N3 = {
    (1,): "110", (2,): "101", (3,): "011",
    (1, 2): "100", (1, 3): "010", (2, 3): "001",
    (1, 2, 3): "111",
}


def n_rows(n_stations: int) -> int:
    """Matrix rows for n stations: odd n as is, even n plus a padding row."""
    return n_stations + (n_stations % 2 == 0)


def smallest_unreachable(n_stations: int) -> str:
    """Lexicographically smallest nonzero vector with no preimage."""
    reachable = set(oracles.reachable_map(n_stations).values())
    v = len(next(iter(reachable)))
    for value in range(1, 2 ** v):
        candidate = format(value, f"0{v}b")
        if candidate not in reachable:
            return candidate
    raise AssertionError("every vector reachable")


@functools.lru_cache(maxsize=None)
def subset_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, packed) of every non-empty station subset of the canonical
    n-station codebook, with packed[i] the demodulated vector of masks[i]."""
    blocks = list(demod_blocks(cached_codebook(n).matrix(), n))
    masks = np.concatenate([b[0] for b in blocks])
    packed = np.concatenate([b[1] for b in blocks])
    nonempty = masks != 0
    return masks[nonempty], packed[nonempty]


def scan_nearest(cb, received, max_dist: int) -> cc.DecodeOutcome:
    """decode_nearest by scanning the demodulated vector of every subset
    of a canonical codebook."""
    assert cb == cached_codebook(cb.n_stations)
    bits = np.asarray(received, np.uint8)
    if not bits.any():
        return cc.DecodeOutcome(cc.SILENCE, None, 0)
    masks, packed = subset_table(cb.n_stations)
    target = np.packbits(bits)
    dists = np.bitwise_count(packed ^ target).sum(axis=1, dtype=np.int64)
    best = int(dists.min())
    hits = np.flatnonzero(dists == best)
    if best > max_dist or hits.size > 1:
        return cc.DecodeOutcome(cc.NOMATCH, None, best)
    return cc.DecodeOutcome(cc.IDENTIFIED,
                            frozenset(mask_to_ids(int(masks[hits[0]]))), best)


def noisy_vector(cb, subset, sigma: float, seed: int) -> np.ndarray:
    return cc.threshold_noisy(cc.superpose_noisy(cb, subset, sigma, seed))


class TestDecodeExact:
    @pytest.mark.parametrize("subset,vector", sorted(DECODE_MAP_N3.items()))
    def test_known_vectors(self, subset, vector):
        outcome = cc.decode_exact(cached_codebook(3), cc.str_to_bits(vector))
        assert outcome.kind == cc.IDENTIFIED
        assert outcome.stations == frozenset(subset)
        assert outcome.distance == 0

    def test_silence(self):
        outcome = cc.decode_exact(cached_codebook(3), cc.str_to_bits("000"))
        assert outcome.kind == cc.SILENCE
        assert outcome.stations is None

    def test_no_match(self):
        vector = smallest_unreachable(5)
        outcome = cc.decode_exact(cached_codebook(5), cc.str_to_bits(vector))
        assert outcome.kind == cc.NOMATCH

    def test_silence_only_for_all_zero(self):
        cb = cached_codebook(3)
        for value in range(8):
            vector = format(value, "03b")
            outcome = cc.decode_exact(cb, cc.str_to_bits(vector))
            assert (outcome.kind == cc.SILENCE) == (value == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cc.decode_exact(cached_codebook(3), cc.str_to_bits("0110"))

    DECODERS = [cc.decode_exact,
                functools.partial(cc.decode_nearest, max_dist=3)]

    def test_rejects_non_binary_entries(self):
        """Each decoder refuses a vector that does not hold 0/1 values
        exactly, without a cast warning."""
        cb = cached_codebook(3)
        for decode in self.DECODERS:
            for received in (np.array([0, 2, 1]),
                             np.array([0, -1, 1], np.int16),
                             np.array([0, 256, 1], np.int16),
                             np.array([0, 0.5, 1]), np.array([0, np.nan, 1]),
                             np.array([[0, 1, 1]])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError):
                        decode(cb, received)

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    def test_accepts_bool_and_float_bits(self, dtype):
        cb = cached_codebook(3)
        for decode in self.DECODERS:
            assert decode(cb, np.array([1, 1, 0], dtype)) == cc.DecodeOutcome(
                cc.IDENTIFIED, frozenset({1}), 0)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        cb = cached_codebook(n)
        subset = data.draw(
            st.sets(st.integers(1, cb.n_stations), min_size=1).map(frozenset))
        received = cc.demodulate(cc.superpose(cb, subset))
        outcome = cc.decode_exact(cb, received)
        assert outcome == cc.DecodeOutcome(cc.IDENTIFIED, subset, 0)

    def test_single_station(self):
        cb = cached_codebook(1)
        assert cc.decode_exact(cb, np.array([1])) == cc.DecodeOutcome(
            cc.IDENTIFIED, frozenset({1}), 0)
        assert cc.decode_exact(cb, np.array([0])).kind == cc.SILENCE

    @pytest.mark.parametrize("n", range(1, 12))
    def test_every_subset_round_trips(self, n):
        cb = cached_codebook(n)
        if n <= 9:
            vectors = {s: cc.str_to_bits(v) for s, v in
                       oracles.reachable_map(n, n_rows(n)).items()}
        else:  # the pure-Python oracle takes seconds from n=10 on
            vectors = {s: cc.demodulate(cc.superpose(cb, s))
                       for s in oracles.nonempty_subsets(n)}
        for subset, vector in vectors.items():
            assert cc.decode_exact(cb, vector) == cc.DecodeOutcome(
                cc.IDENTIFIED, frozenset(subset), 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_identified_iff_oracle_reachable(self, n):
        preimage = {v: frozenset(s) for s, v in
                    oracles.reachable_map(n, n_rows(n)).items()}
        cb = cached_codebook(n)
        v = cb.v_length
        if 2 ** v <= 1024:
            vectors = [format(x, f"0{v}b") for x in range(1, 2 ** v)]
        else:
            # half uniform, half within two flips of a reachable vector, so
            # both outcomes are well represented
            rng = random.Random(1000 + n)
            reachable = sorted(preimage)
            vectors = []
            while len(vectors) < 400:
                if rng.random() < 0.5:
                    chips = list(format(rng.randrange(1, 2 ** v), f"0{v}b"))
                else:
                    chips = list(rng.choice(reachable))
                    for c in rng.sample(range(v), rng.randint(0, 2)):
                        chips[c] = "1" if chips[c] == "0" else "0"
                if "1" in chips:
                    vectors.append("".join(chips))
        kinds = set()
        for vector in vectors:
            outcome = cc.decode_exact(cb, cc.str_to_bits(vector))
            kinds.add(outcome.kind)
            if vector in preimage:
                assert outcome == cc.DecodeOutcome(
                    cc.IDENTIFIED, preimage[vector], 0)
            else:
                assert outcome == cc.DecodeOutcome(cc.NOMATCH)
        assert cc.IDENTIFIED in kinds
        assert (cc.NOMATCH in kinds) == (len(preimage) < 2 ** v - 1)

    @pytest.mark.parametrize("n", [20, 21])
    def test_round_trips_at_large_n(self, n):
        # n=20 has a padding row that must never be reported as a station
        cb = cached_codebook(n)
        rng = random.Random(n)
        everyone = set(range(1, n + 1))
        subsets = [{1}, {n}, everyone, everyone - {n}]
        subsets += [set(rng.sample(sorted(everyone), rng.randint(1, n)))
                    for _ in range(8)]
        for subset in subsets:
            received = cc.demodulate(cc.superpose(cb, subset))
            assert cc.decode_exact(cb, received) == cc.DecodeOutcome(
                cc.IDENTIFIED, frozenset(subset), 0)
        # every reachable vector has weight above 1, so a unit vector has
        # no preimage
        assert min(demod_weight(n, k) for k in range(1, n + 1)) > 1
        unit = np.zeros(cb.v_length, np.uint8)
        unit[rng.randrange(cb.v_length)] = 1
        assert cc.decode_exact(cb, unit) == cc.DecodeOutcome(cc.NOMATCH)


def _comb(n: int, r: int) -> int:
    return math.comb(n, r) if 0 <= r <= n else 0


def correlation_levels(n: int, k: int) -> tuple[int, int]:
    """(A_k, B_k): row . demod(S) for a member and a non-member of S, |S|=k.

    j counts the other members holding a 1 in a column where the row does;
    the column's remaining ones fall on non-members."""
    rows, r = n_rows(n), (n_rows(n) + 1) // 2
    a = sum(_comb(k - 1, j) * _comb(rows - k, r - 1 - j)
            for j in range(k) if 2 * (j + 1) > k)
    b = sum(_comb(k, j) * _comb(rows - k - 1, r - 1 - j)
            for j in range(k + 1) if 2 * j > k)
    return a, b


def demod_weight(n: int, k: int) -> int:
    """Number of ones in demod(S) for any |S| = k."""
    rows, r = n_rows(n), (n_rows(n) + 1) // 2
    return sum(_comb(k, j) * _comb(rows - k, r - j)
               for j in range(k + 1) if 2 * j > k)


class TestCorrelationPremise:
    """Members of S correlate strictly higher with demod(S) than non-members,
    which is what makes the decoder's argmax set equal S."""

    @pytest.mark.parametrize("n", range(1, cc.MAX_STATIONS + 1))
    def test_members_outscore_non_members(self, n):
        for k in range(1, n):
            a, b = correlation_levels(n, k)
            assert a > b, (n, k, a, b)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_forms_match_oracle(self, n):
        rows = oracles.matrix_rows(n_rows(n))
        for subset in oracles.nonempty_subsets(n):
            y = oracles.demod(rows, subset)
            a, b = correlation_levels(n, len(subset))
            assert y.count("1") == demod_weight(n, len(subset))
            for station in range(1, n + 1):
                corr = sum(c == d == "1" for c, d in zip(rows[station - 1], y))
                assert corr == (a if station in subset else b), (subset, station)


class TestDecodeNearest:
    def test_exact_match_distance_zero(self):
        outcome = cc.decode_nearest(cached_codebook(3), cc.str_to_bits("110"), 0)
        assert outcome == cc.DecodeOutcome(cc.IDENTIFIED, frozenset({1}), 0)

    def test_flip_recovers_full_set(self):
        # 111 is itself reachable (all three stations), so the preimage at
        # distance 0 wins over the corrupted singleton at distance 1
        outcome = cc.decode_nearest(cached_codebook(3), cc.str_to_bits("111"), 1)
        assert outcome == cc.DecodeOutcome(cc.IDENTIFIED, frozenset({1, 2, 3}), 0)

    def test_all_zero_is_silence(self):
        outcome = cc.decode_nearest(cached_codebook(3), cc.str_to_bits("000"), 2)
        assert outcome == cc.DecodeOutcome(cc.SILENCE, None, 0)

    def test_golden_single_bit_corruptions(self):
        golden = load_golden("nearest_corruptions_n5.json")
        cb = cached_codebook(golden["n"])
        reach = oracles.reachable_map(golden["n"])
        for case in golden["cases"]:
            base = reach[tuple(case["stations"])]
            flip = case["flip"] - 1
            corrupted = (base[:flip] + ("1" if base[flip] == "0" else "0")
                         + base[flip + 1:])
            outcome = cc.decode_nearest(cb, cc.str_to_bits(corrupted),
                                        golden["max_dist"])
            assert outcome.kind == case["expect"]
            if case["expect"] == "identified":
                assert sorted(outcome.stations) == case["stations_out"]
                assert outcome.distance == case["distance"]

    def test_tie_reports_no_match(self):
        # derive a tied vector from the oracle: two bits of a reachable
        # vector flipped toward another reachable vector four bits away
        reach = oracles.reachable_map(5)
        items = sorted(reach.items())
        tie_vector = None
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                va, vb = items[i][1], items[j][1]
                if oracles.hamming(va, vb) != 4:
                    continue
                diff = [c for c in range(len(va)) if va[c] != vb[c]]
                cand = list(va)
                for c in diff[:2]:
                    cand[c] = vb[c]
                cand = "".join(cand)
                dists = sorted(oracles.hamming(cand, v) for _, v in items)
                if dists[0] == 2 and dists[1] == 2:
                    tie_vector = cand
                    break
            if tie_vector:
                break
        assert tie_vector is not None
        outcome = cc.decode_nearest(cached_codebook(5),
                                    cc.str_to_bits(tie_vector), 10)
        assert outcome.kind == cc.NOMATCH
        assert outcome.distance == 2

    def test_distance_beyond_bound_is_no_match(self):
        reach = oracles.reachable_map(5)
        base = reach[(1, 2)]
        corrupted = ("1" if base[0] == "0" else "0") + base[1:]
        outcome = cc.decode_nearest(cached_codebook(5),
                                    cc.str_to_bits(corrupted), 0)
        assert outcome.kind == cc.NOMATCH
        assert outcome.distance == 1

    def test_max_dist_zero_agrees_with_exact_everywhere(self):
        cb = cached_codebook(5)
        for value in range(2 ** cb.v_length):
            vector = cc.str_to_bits(format(value, "010b"))
            nearest = cc.decode_nearest(cb, vector, 0)
            exact = cc.decode_exact(cb, vector)
            assert nearest.kind == exact.kind
            assert nearest.stations == exact.stations

    def test_rejects_negative_bound(self):
        for bound in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="^max_dist must be >= 0$"):
                cc.decode_nearest(cached_codebook(3), cc.str_to_bits("110"),
                                  bound)

    @pytest.mark.parametrize("bad", [math.nan, True, np.True_, 2.5, 3.0,
                                     np.float64(3), None, "3"])
    def test_refuses_bounds_that_are_not_integers(self, bad):
        """A NaN would accept every distance and True would be a bound of
        1; a float, None or a str is a ValueError, not a TypeError."""
        message = f"max_dist must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.decode_nearest(cached_codebook(3), cc.str_to_bits("110"), bad)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int8])
    def test_numpy_integer_bounds_are_held_as_ints(self, kind):
        cb = cached_codebook(5)
        reach = oracles.reachable_map(5)
        base = reach[(1, 2)]
        corrupted = cc.str_to_bits(("1" if base[0] == "0" else "0") + base[1:])
        for bound in (0, 1):
            assert cc.decode_nearest(cb, corrupted, kind(bound)) == \
                cc.decode_nearest(cb, corrupted, bound)

    def test_refused_over_chip_budget(self):
        # a uniform vector is far from every subset, so the exact search
        # would cover all 2^18 of them
        assert cc.NEAREST_BUDGET_CHIPS == (2 ** 17 - 1) * math.comb(17, 9)
        cb = cached_codebook(18)
        received = np.random.default_rng(18).integers(0, 2, cb.v_length)
        with pytest.raises(cc.SizeLimitError, match="nearest-decode budget"):
            cc.decode_nearest(cb, received, cb.v_length)

    def test_full_search_at_17_stations_is_not_refused(self):
        cb = cached_codebook(17)
        received = np.random.default_rng(17).integers(0, 2, cb.v_length)
        outcome = cc.decode_nearest(cb, received, cb.v_length)
        assert outcome.distance is not None

    @pytest.mark.parametrize("n", [18, 21, 25])
    def test_noisy_vector_decodes_at_large_n(self, n):
        cb = cc.build_codebook(n)  # not cached: the n=25 codebook is 150 MB
        rng = random.Random(n)
        subset = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        received = noisy_vector(cb, subset, 0.5, n)
        clean = cc.demodulate(cc.superpose(cb, subset))
        distance = int(np.count_nonzero(received != clean))
        assert distance > 0
        assert cc.decode_nearest(cb, received, distance) == cc.DecodeOutcome(
            cc.IDENTIFIED, subset, distance)

    def test_inside_station_budget(self):
        cb = cached_codebook(13)
        received = cc.demodulate(cc.superpose(cb, {2, 7, 13})).copy()
        received[0] ^= 1
        outcome = cc.decode_nearest(cb, received, 1)
        assert outcome == cc.DecodeOutcome(cc.IDENTIFIED, frozenset({2, 7, 13}), 1)


class TestNearestAgainstScan:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_vector(self, n):
        cb = cached_codebook(n)
        v = cb.v_length
        for value in range(2 ** v):
            received = cc.str_to_bits(format(value, f"0{v}b"))
            for max_dist in (0, 1, 2, v):
                assert cc.decode_nearest(cb, received, max_dist) == \
                    scan_nearest(cb, received, max_dist), (value, max_dist)

    @pytest.mark.parametrize("lo_bits", [1, 3])
    def test_flip_sets_of_several_high_rows(self, lo_bits, monkeypatch):
        # a small low block leaves most stations to the high block, whose
        # flip sets are running sums over combinations of several rows
        monkeypatch.setattr(decoder, "_LO_BITS", lo_bits)
        cb = cached_codebook(9)
        rng = np.random.default_rng(900 + lo_bits)
        for _ in range(20):
            received = rng.integers(0, 2, cb.v_length).astype(np.uint8)
            assert cc.decode_nearest(cb, received, cb.v_length) == \
                scan_nearest(cb, received, cb.v_length)

    @pytest.mark.parametrize("n", range(6, 14))
    def test_seeded_sweep(self, n, monkeypatch):
        """Every outcome equals the scan's, and each tier runs: a
        certified candidate and the class search."""
        searches, decodes = [], []

        def counted(*args):
            searches.append(args)
            return search(*args)

        def nearest(received, max_dist):
            decodes.append(max_dist)
            return cc.decode_nearest(cb, received, max_dist)

        search = decoder._nearest_by_class
        monkeypatch.setattr(decoder, "_nearest_by_class", counted)
        cb = cached_codebook(n)
        v = cb.v_length
        rng = np.random.default_rng(600 + n)

        def random_subset():
            mask = int(rng.integers(1, 2 ** n))
            return [i + 1 for i in range(n) if mask >> i & 1]

        vectors = []
        for _ in range(24 if n >= 12 else 60):
            kind = rng.integers(3)
            if kind == 0:
                received = rng.integers(0, 2, v).astype(np.uint8)
            elif kind == 1:
                received = cc.demodulate(cc.superpose(cb, random_subset()))
                flips = rng.choice(v, int(rng.integers(0, v // 6 + 1)),
                                   replace=False)
                received[flips] ^= 1
            else:
                # halfway between two subset vectors, as in
                # test_tie_reports_no_match
                received = cc.demodulate(cc.superpose(cb, random_subset()))
                other = cc.demodulate(cc.superpose(cb, random_subset()))
                diff = np.flatnonzero(received != other)
                received[diff[:diff.size // 2]] ^= 1
            vectors.append(received)
        assert all(received.any() for received in vectors)  # no silence
        kinds = set()
        for received in vectors:
            expect = scan_nearest(cb, received, v)
            assert nearest(received, v) == expect
            kinds.add(expect.kind)
            d = expect.distance
            for max_dist in {d, d - 1} - {-1}:
                assert nearest(received, max_dist) == \
                    scan_nearest(cb, received, max_dist), max_dist
        assert kinds == {cc.IDENTIFIED, cc.NOMATCH}  # nomatch here is a tie
        assert 0 < len(searches) < len(decodes)

    @pytest.fixture
    def no_search(self, monkeypatch):
        """Fail any call of the class search, the tier past the
        certificates."""
        def searched(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(decoder, "_nearest_by_class", searched)

    def test_low_noise_needs_no_search(self, no_search):
        cb = cached_codebook(13)
        rng = np.random.default_rng(13)
        for seed in range(32):
            subset = {i + 1 for i in range(13) if rng.random() < 0.5} or {1}
            received = noisy_vector(cb, subset, 0.3, seed)
            assert cc.decode_nearest(cb, received, 200) == scan_nearest(
                cb, received, 200)

    @pytest.mark.parametrize("n", [13, 15])
    @pytest.mark.parametrize("sigma", [0.3, 0.5])
    def test_moderate_noise_needs_no_scan(self, n, sigma, no_search):
        """The gap set is the sent set and is certified, so the class
        search does not run."""
        cb = cached_codebook(n)
        rng = np.random.default_rng([n, round(10 * sigma)])
        for seed in range(32):
            mask = int(rng.integers(1, 1 << n))
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            received = noisy_vector(cb, subset, sigma, seed)
            flips = int(np.count_nonzero(
                received != cc.demodulate(cc.superpose(cb, subset))))
            assert cc.decode_nearest(cb, received, cb.v_length) == \
                cc.DecodeOutcome(cc.IDENTIFIED, subset, flips)

    @pytest.mark.parametrize("n", [2, 5, 9, 13])
    def test_all_stations_sending(self, n):
        """Every station sends: on the clean vector all n correlations
        sit at one level, so there is no drop at k = n and the set is
        found as the second candidate; under noise the outcome is still
        the scan's."""
        cb = cached_codebook(n)
        everyone = frozenset(range(1, n + 1))
        clean = cc.demodulate(cc.superpose(cb, everyone))
        assert cc.decode_nearest(cb, clean, 0) == cc.DecodeOutcome(
            cc.IDENTIFIED, everyone, 0)
        for seed in range(8):
            received = noisy_vector(cb, everyone, 0.5, seed)
            for max_dist in (0, cb.v_length):
                assert cc.decode_nearest(cb, received, max_dist) == \
                    scan_nearest(cb, received, max_dist)

    @pytest.mark.parametrize("n", [5, 9, 13, 15])
    @pytest.mark.parametrize("sigma", [0.3, 0.5])
    def test_all_stations_need_no_scan_when_certified(self, n, sigma,
                                                      monkeypatch):
        """Every station sends: the widest drop falls at no k = n, so all
        n stations are measured after the gap set. A vector within half of
        radius(n, n) of theirs is returned with no class search. Past that
        the search runs (at sigma 0.5 about 16% of a 13-station vector's
        chips flip, against a radius of 27% of them), and the outcome is
        still that of a scan of every subset."""
        searches = []
        search = decoder._nearest_by_class
        monkeypatch.setattr(decoder, "_nearest_by_class",
                            lambda *args: searches.append(args) or
                            search(*args))
        cb = cached_codebook(n)
        everyone = frozenset(range(1, n + 1))
        clean = cc.demodulate(cc.superpose(cb, everyone))
        certified = 0
        for seed in range(8):
            received = noisy_vector(cb, everyone, sigma, seed)
            flips = int(np.count_nonzero(received != clean))
            out = cc.decode_nearest(cb, received, cb.v_length)
            if 2 * flips < _classes.radius(n, n):
                certified += 1
                assert not searches
                assert out == cc.DecodeOutcome(cc.IDENTIFIED, everyone, flips)
            else:
                assert out == scan_nearest(cb, received, cb.v_length)
            searches.clear()
        if sigma == 0.3 and n > 5:
            assert certified == 8

    @pytest.mark.parametrize("n", [7, 13])
    def test_midway_from_all_stations_is_a_tie(self, n):
        """A vector halfway between all n stations' vector and that of all
        but stations 1 and 2, radius(n, n) apart, is as far from both: it
        fails the all-stations certificate and is a tie."""
        cb = cached_codebook(n)
        everyone = cc.demodulate(cc.superpose(cb, range(1, n + 1)))
        others = cc.demodulate(cc.superpose(cb, range(3, n + 1)))
        differ = np.flatnonzero(everyone != others)
        assert differ.size == _classes.radius(n, n)
        received = everyone.copy()
        received[differ[::2]] = others[differ[::2]]
        expect = cc.DecodeOutcome(cc.NOMATCH, None, differ.size // 2)
        assert scan_nearest(cb, received, cb.v_length) == expect
        assert cc.decode_nearest(cb, received, cb.v_length) == expect

    def test_one_station_needs_no_scan(self, no_search):
        """With one station there is no drop: the gap set is that station,
        and with no other subset it is certified."""
        cb = cached_codebook(1)
        assert cc.decode_nearest(cb, np.array([1]), 0) == cc.DecodeOutcome(
            cc.IDENTIFIED, frozenset({1}), 0)
        assert cc.decode_nearest(cb, np.array([0]), 0) == cc.DecodeOutcome(
            cc.SILENCE, None, 0)

    def test_tied_drops_go_to_the_smaller_k(self, no_search, monkeypatch):
        """Ranked correlations 10, 10, 5, 5, 0 drop by 5 after 2 and after
        4 stations: the gap set is the first two, which sent, so it is
        certified; the first four would not be."""
        monkeypatch.setattr(decoder, "_correlation", lambda cb, packed_bits:
                            np.array([10, 10, 5, 5, 0], np.int32))
        cb = cached_codebook(5)
        received = cc.demodulate(cc.superpose(cb, {1, 2}))
        assert cc.decode_nearest(cb, received, 0) == cc.DecodeOutcome(
            cc.IDENTIFIED, frozenset({1, 2}), 0)


def seeded_outcomes():
    """One line per decode_nearest outcome on a seeded corpus: 16 noisy
    vectors of random subsets for each n <= 15 and sigma in {0.3, 0.7,
    1.0}, each decoded unbounded and at a random max_dist."""
    for n in range(1, 16):
        cb = cached_codebook(n)
        for sigma in (0.3, 0.7, 1.0):
            rng = np.random.default_rng([n, round(10 * sigma)])
            for i in range(16):
                mask = int(rng.integers(1, 1 << n))
                subset = [s + 1 for s in range(n) if mask >> s & 1]
                received = noisy_vector(cb, subset, sigma,
                                        int(rng.integers(1 << 32)))
                for max_dist in (cb.v_length,
                                 int(rng.integers(0, cb.v_length // 8 + 1))):
                    out = cc.decode_nearest(cb, received, max_dist)
                    stations = sorted(out.stations) if out.stations else None
                    yield (f"{n} {sigma} {i} {max_dist} {out.kind} {stations} "
                           f"{out.distance}")


def test_seeded_outcomes_are_frozen():
    """The outcomes equal those of the decoder that scanned every top-k set
    before any certificate, digested from that decoder's run."""
    digest = hashlib.sha256("\n".join(seeded_outcomes()).encode()).hexdigest()
    assert digest == ("d504aae8f0fd5bcd3df2b480c74ed6bc"
                      "323031497e402c1331bf89744caa555c")


def exact_outcomes():
    """One line per decode_exact outcome on a seeded corpus: for each n in
    1..15, 17 and 21, 8 random subsets' vectors clean, with one chip
    flipped and at sigma 0.2, and 8 uniform random vectors."""
    for n in [*range(1, 16), 17, 21]:
        cb = cached_codebook(n)
        rng = np.random.default_rng([n, 2])
        for i in range(8):
            mask = int(rng.integers(1, 1 << n))
            subset = [s + 1 for s in range(n) if mask >> s & 1]
            clean = cc.demodulate(cc.superpose(cb, subset))
            flipped = clean.copy()
            flipped[rng.integers(cb.v_length)] ^= 1
            noisy = noisy_vector(cb, subset, 0.2, int(rng.integers(1 << 32)))
            uniform = rng.integers(0, 2, cb.v_length, dtype=np.uint8)
            for name, received in (("clean", clean), ("flipped", flipped),
                                   ("noisy", noisy), ("uniform", uniform)):
                out = cc.decode_exact(cb, received)
                stations = sorted(out.stations) if out.stations else None
                yield f"{n} {i} {name} {out.kind} {stations} {out.distance}"


def test_seeded_exact_outcomes_are_frozen():
    """The outcomes equal those of the decoder that re-encoded its
    candidate set through superpose and demodulate, digested from that
    decoder's run."""
    digest = hashlib.sha256("\n".join(exact_outcomes()).encode()).hexdigest()
    assert digest == ("4b8d35442efb2c1493fbfd562475a7bb"
                      "124290049b50b3986661d36afe32ccca")


def large_n_outcomes():
    """One line per unbounded decode_nearest outcome, or SizeLimitError
    message, on a seeded corpus past the 17-station full scan: 4 noisy
    vectors of random subsets for each n in {18, 21} and sigma in {0.7,
    1.0, 1.5}, and 3 uniform vectors at n = 18."""
    def line(cb, received):
        try:
            out = cc.decode_nearest(cb, received, cb.v_length)
        except cc.SizeLimitError as exc:
            return f"refused {exc}"
        stations = sorted(out.stations) if out.stations else None
        return f"{out.kind} {stations} {out.distance}"

    for n in (18, 21):
        cb = cached_codebook(n)
        for sigma in (0.7, 1.0, 1.5):
            rng = np.random.default_rng([n, round(10 * sigma), 1])
            for i in range(4):
                mask = int(rng.integers(1, 1 << n))
                subset = [s + 1 for s in range(n) if mask >> s & 1]
                received = noisy_vector(cb, subset, sigma,
                                        int(rng.integers(1 << 32)))
                yield f"{n} {sigma} {i} {line(cb, received)}"
    cb = cached_codebook(18)
    rng = np.random.default_rng([18, 2])
    for i in range(3):
        received = rng.integers(0, 2, cb.v_length, dtype=np.uint8)
        yield f"18 uniform {i} {line(cb, received)}"


def test_large_n_outcomes_are_frozen():
    """Outcomes and refusals at n >= 18, where the class search is sized
    against NEAREST_BUDGET_CHIPS, equal those of the decoder that scanned
    every top-k set before the class search, digested from its run."""
    digest = hashlib.sha256(
        "\n".join(large_n_outcomes()).encode()).hexdigest()
    assert digest == ("1b5f4f6272959720f2ccf21482c07898"
                      "b25eeb17424371606561d12c3af18023")


class TestMismatches:
    """The count of chips where a station set's demodulated vector and the
    bits differ, read from the column values, against the references."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_subset_against_the_oracle(self, n):
        """Even n included: the padding row belongs to no set, so it is
        never counted."""
        cb = cached_codebook(n)
        rows = oracles.matrix_rows(n_rows(n))
        rng = np.random.default_rng(70 + n)
        for subset in oracles.nonempty_subsets(n):
            target = oracles.demod(rows, subset)
            for _ in range(3):
                bits = rng.integers(0, 2, cb.v_length, dtype=np.uint8)
                got = decoder._mismatches(cb, [i - 1 for i in subset], bits)
                assert got == oracles.hamming(
                    target, "".join(map(str, bits.tolist())))
            clean = np.array(list(target), np.uint8)
            assert decoder._mismatches(cb, [i - 1 for i in subset], clean) == 0

    def test_broken_matrix(self):
        """A matrix of random bits, built with the unchecking constructor:
        the count needs no code property."""
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 2, (9, 77), dtype=np.uint8)
        cb = cc.Codebook(8, matrix)
        rows = ["".join(map(str, row)) for row in matrix.tolist()]
        for subset in oracles.nonempty_subsets(8):
            bits = rng.integers(0, 2, 77, dtype=np.uint8)
            assert decoder._mismatches(cb, [i - 1 for i in subset], bits) == \
                oracles.hamming(oracles.demod(rows, subset),
                                "".join(map(str, bits.tolist())))

    def test_two_blocks(self):
        """n=19: V = 92,378 columns cross a _BLOCK_COLUMNS block."""
        cb = cached_codebook(19)
        assert decoder._BLOCK_COLUMNS < cb.v_length < 2 * decoder._BLOCK_COLUMNS
        rng = np.random.default_rng(19)
        for seed in range(6):
            subset = sorted((rng.choice(19, int(rng.integers(1, 20)),
                                        replace=False) + 1).tolist())
            for bits in (noisy_vector(cb, subset, 0.6, seed),
                         rng.integers(0, 2, cb.v_length, dtype=np.uint8)):
                got = decoder._mismatches(cb, [i - 1 for i in subset], bits)
                assert type(got) is int  # a distance printed as JSON
                assert got == np.count_nonzero(
                    cc.demodulate(cc.superpose(cb, subset)) != bits)


def test_decoders_superpose_nothing(monkeypatch):
    """Neither decoder superposes or demodulates a candidate set, and a
    simulated session superposes once per round, for the channel."""
    cb = cached_codebook(9)
    received = [noisy_vector(cb, {2, 5, 7}, sigma, 3) for sigma in (0, 0.7)]
    exact = [cc.decode_exact(cb, r) for r in received]
    nearest = [cc.decode_nearest(cb, r, cb.v_length) for r in received]
    assert all(type(out.distance) is int for out in nearest)  # JSON-ready
    cfg = cc.SessionConfig(9, 0.3, 12, 4, 0.4)
    session = cc.run_session(cfg).to_json_dict()

    def refused(*args):
        raise AssertionError("called")

    assert not {"superpose", "demodulate"} & set(vars(decoder))
    calls = []
    superpose = channel.superpose
    monkeypatch.setattr(channel, "superpose", refused)
    monkeypatch.setattr(channel, "demodulate", refused)
    assert [cc.decode_exact(cb, r) for r in received] == exact
    assert [cc.decode_nearest(cb, r, cb.v_length) for r in received] == nearest
    monkeypatch.setattr(channel, "superpose",
                        lambda *args: calls.append(args) or superpose(*args))
    stats = cc.run_session(cfg)
    assert stats.to_json_dict() == session
    assert len(calls) == stats.rounds_used


class TestFlipRows:
    @pytest.mark.parametrize("n", [9, 17, 20, 21])
    def test_rows_are_the_matrix_columns(self, n):
        """At 17 rows and more the stations span three byte planes of the
        column values; at n=20 the padding row is left out."""
        cb = cached_codebook(n)
        rng = np.random.default_rng(n)
        for ones in (1, 64, cb.v_length // 3):
            cols = np.sort(rng.choice(cb.v_length, ones, replace=False))
            width = -(-cols.size // 64) * 64
            flip = decoder._flip_rows(cb, cols, width)
            assert flip.dtype == np.int8 and flip.shape == (n, width)
            assert np.array_equal(flip[:, :cols.size], cb.matrix()[:n, cols])
            assert not flip[:, cols.size:].any()
