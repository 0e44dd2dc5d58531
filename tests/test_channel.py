"""BPSK mapping, majority demodulation, and the noisy extension."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collisioncode as cc
from conftest import cached_codebook, load_golden
import oracles

# (s1, s3) -> (a1 + a3, s2): the two-transmitter demapping table
PNC_TABLE = [
    ((1, 1), 2, 0),
    ((0, 1), 0, 1),
    ((1, 0), 0, 1),
    ((0, 0), -2, 0),
]


class TestModulation:
    def test_mapping(self):
        assert cc.modulate(1) == 1
        assert cc.modulate(0) == -1

    def test_bijection(self):
        assert {cc.modulate(b) for b in (0, 1)} == {-1, 1}

    def test_rejects_non_bits(self):
        for bad in (2, -1, 0.5):
            with pytest.raises(ValueError):
                cc.modulate(bad)


class TestPncXor:
    @pytest.mark.parametrize("bits,amp_sum,expected", PNC_TABLE)
    def test_table_rows(self, bits, amp_sum, expected):
        s1, s3 = bits
        assert cc.modulate(s1) + cc.modulate(s3) == amp_sum
        assert cc.pnc_xor_map(amp_sum) == expected
        assert expected == s1 ^ s3

    @pytest.mark.parametrize("bad", [1, -1, 3, 4])
    def test_rejects_impossible_sums(self, bad):
        with pytest.raises(ValueError):
            cc.pnc_xor_map(bad)

    def test_per_chip_xor_on_codebook_rows(self):
        cb = cached_codebook(3)
        m = cb.matrix()
        for i, j in itertools.combinations(range(3), 2):
            for c in range(cb.v_length):
                amp = cc.modulate(int(m[i, c])) + cc.modulate(int(m[j, c]))
                assert cc.pnc_xor_map(amp) == int(m[i, c]) ^ int(m[j, c])


class TestMajority:
    @pytest.mark.parametrize("bits,expected", [
        ((0, 0, 0), 0), ((0, 0, 1), 0), ((0, 1, 0), 0), ((0, 1, 1), 1),
        ((1, 0, 0), 0), ((1, 0, 1), 1), ((1, 1, 0), 1), ((1, 1, 1), 1),
    ])
    def test_three_transmitters(self, bits, expected):
        assert cc.majority_demod_bit(bits) == expected

    def test_tie_defaults_to_zero(self):
        assert cc.majority_demod_bit((0, 1)) == 0
        assert cc.majority_demod_bit((1, 0, 1, 0)) == 0

    def test_single_transmitter_is_identity(self):
        assert cc.majority_demod_bit([1]) == 1
        assert cc.majority_demod_bit([0]) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cc.majority_demod_bit([])
        with pytest.raises(ValueError):
            cc.majority_demod_bit([0, 2])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=15))
    def test_matches_sign_of_amplitude_sum(self, bits):
        total = sum(cc.modulate(b) for b in bits)
        assert cc.majority_demod_bit(bits) == (1 if total > 0 else 0)


def subset_strategy(n, min_size=0):
    return st.sets(st.integers(1, n), min_size=min_size).map(frozenset)


class TestSuperpose:
    def test_two_station_example(self):
        assert cc.superpose(cached_codebook(3), {1, 2}).tolist() == [2, 0, 0]

    def test_silence(self):
        assert cc.superpose(cached_codebook(3), set()).tolist() == [0, 0, 0]

    def test_full_set_sums_to_one_everywhere(self):
        assert cc.superpose(cached_codebook(3), {1, 2, 3}).tolist() == [1, 1, 1]

    def test_rejects_unknown_station(self):
        with pytest.raises(ValueError):
            cc.superpose(cached_codebook(3), {1, 4})

    def test_out_of_range_ids_are_named(self):
        """Stations are checked against N, not against ROWS, which counts
        the padding row of an even N."""
        cb = cached_codebook(4)
        with pytest.raises(ValueError) as exc:
            cc.superpose(cb, {5, 1})
        assert str(exc.value) == "station ids must lie in 1..4, got [1, 5]"

    @pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True,
                                     np.bool_(True), "2", None])
    def test_rejects_ids_that_are_not_integers(self, bad):
        """A float is refused, not truncated to a station: 2.7 would
        otherwise superpose station 2."""
        with pytest.raises(ValueError, match=r"^station ids must be integers, "
                                             rf"got {re.escape(repr(bad))}$"):
            cc.superpose(cached_codebook(5), [1, bad])

    @pytest.mark.parametrize("kind", [np.int8, np.uint8, np.int64, np.uint64])
    def test_accepts_numpy_integer_ids(self, kind):
        cb = cached_codebook(5)
        ids = np.array([4, 2, 2], kind)
        assert cc.superpose(cb, ids).tolist() == cc.superpose(cb, [2, 4]).tolist()

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60)
    def test_parity_and_bound(self, n, data):
        cb = cached_codebook(n)
        subset = data.draw(subset_strategy(cb.n_stations))
        sums = cc.superpose(cb, subset)
        size = len(subset)
        assert (np.abs(sums) <= size).all()
        assert ((sums - size) % 2 == 0).all()

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60)
    def test_disjoint_union_adds(self, n, data):
        cb = cached_codebook(n)
        g1 = data.draw(subset_strategy(cb.n_stations))
        g2 = data.draw(subset_strategy(cb.n_stations)) - g1
        lhs = cc.superpose(cb, g1 | g2)
        assert np.array_equal(lhs, cc.superpose(cb, g1) + cc.superpose(cb, g2))

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60)
    def test_nested_difference_subtracts(self, n, data):
        cb = cached_codebook(n)
        g2 = data.draw(subset_strategy(cb.n_stations))
        g1 = data.draw(st.sets(st.sampled_from(sorted(g2)))) if g2 else frozenset()
        lhs = cc.superpose(cb, g2 - g1)
        assert np.array_equal(lhs, cc.superpose(cb, g2) - cc.superpose(cb, g1))

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60)
    def test_matches_oracle(self, n, data):
        cb = cached_codebook(n)
        subset = data.draw(subset_strategy(cb.n_stations, min_size=1))
        rows = oracles.matrix_rows(cb.n_rows)
        expected = [oracles.chip_sum(rows, subset, c + 1)
                    for c in range(cb.v_length)]
        assert cc.superpose(cb, subset).tolist() == expected

    def test_all_stations_at_the_cap_match_oracle(self):
        """All 25 stations: the oracle's sums on sampled columns, and +1
        at every column (13 ones and 12 zeros)."""
        cb = cc.build_codebook(25)
        sums = cc.superpose(cb, range(1, 26))
        assert sums.dtype == np.int16 and sums.shape == (cb.v_length,)
        rng = np.random.default_rng(25)
        cols = np.concatenate([[0, cb.v_length - 1],
                               np.sort(rng.choice(cb.v_length, 200, replace=False))])
        rows = ["".join(map(str, row)) for row in cb.matrix()[:, cols].tolist()]
        assert sums[cols].tolist() == [oracles.chip_sum(rows, range(1, 26), c + 1)
                                       for c in range(len(cols))]
        assert (sums == 1).all()

    @pytest.mark.parametrize("n", range(8, 16))
    def test_two_byte_column_values_match_the_matrix(self, n):
        """8 to 15 stations hold uint16 column values, which superpose
        widens before counting bits."""
        cb = cached_codebook(n)
        assert cb.vals.dtype == np.uint16
        amps = 2 * cb.matrix().astype(np.int64) - 1
        rng = np.random.default_rng(n)
        for size in (1, 2, n // 2, n):
            subset = sorted(rng.choice(n, size, replace=False) + 1)
            assert cc.superpose(cb, subset).tolist() == amps[
                np.array(subset) - 1].sum(axis=0).tolist()

    def test_peak_at_the_cap(self):
        """At n=25 the int16 sums are the whole peak but one block: no
        temporary grows with V."""
        cb = cc.build_codebook(25)
        tracemalloc.start()
        try:
            sums = cc.superpose(cb, range(1, 26, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sums.nbytes + (1 << 20)

    @pytest.mark.parametrize("n_rows", [26, 300])
    def test_more_rows_than_the_cap_are_refused(self, n_rows):
        bits = np.random.default_rng(n_rows).integers(0, 2, (n_rows, 40),
                                                      dtype=np.uint8)
        with pytest.raises(cc.SizeLimitError):
            cc.Codebook(n_rows, bits)

    def test_random_matrix_at_the_cap(self):
        """Codebook accepts any 0/1 matrix of up to 25 rows; superpose of
        all its rows is the exact signed sum, as int16."""
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 2, (25, 40), dtype=np.uint8)
        bits[:, 0] = 1
        bits[:, 1] = 0
        sums = cc.superpose(cc.Codebook(25, bits), range(1, 26))
        assert sums.dtype == np.int16
        assert sums.tolist() == (2 * bits.astype(np.int64) - 1).sum(axis=0).tolist()
        assert sums[0] == 25 and sums[1] == -25


class TestDemodulate:
    def test_known_vectors(self):
        cb = cached_codebook(3)
        assert cc.bits_to_str(cc.demodulate(cc.superpose(cb, {1, 2}))) == "100"
        assert cc.bits_to_str(cc.demodulate(cc.superpose(cb, {1, 2, 3}))) == "111"
        assert cc.bits_to_str(cc.demodulate(cc.superpose(cb, set()))) == "000"

    @given(st.integers(1, 9))
    def test_singleton_identity(self, n):
        cb = cached_codebook(n)
        for i in range(1, cb.n_stations + 1):
            demod = cc.demodulate(cc.superpose(cb, {i}))
            assert np.array_equal(demod, cc.codeword_for(cb, i))


class TestNoisyChannel:
    def test_zero_sigma_is_exact(self):
        cb = cached_codebook(3)
        samples = cc.superpose_noisy(cb, {1, 2, 3}, 0.0, 99)
        assert samples.dtype == np.float64 and samples.tolist() == [1.0, 1.0, 1.0]
        bits = cc.threshold_noisy(cc.superpose_noisy(cb, {1, 2}, 0.0, 0))
        assert cc.bits_to_str(bits) == "100"

    def test_same_seed_same_samples(self):
        cb = cached_codebook(5)
        a = cc.superpose_noisy(cb, {1, 4}, 0.3, 1234)
        b = cc.superpose_noisy(cb, {1, 4}, 0.3, 1234)
        assert np.array_equal(a, b)
        c = cc.superpose_noisy(cb, {1, 4}, 0.3, 1235)
        assert not np.array_equal(a, c)

    def test_golden_samples(self):
        golden = load_golden("noisy_profile_n3.json")
        samples = cc.superpose_noisy(cached_codebook(3), set(golden["stations"]),
                                     golden["sigma"], golden["seed"])
        assert samples.tolist() == golden["samples"]
        assert (np.abs(samples - np.array([1, 1, -1])) <= 1.0).all()

    def test_rejects_bad_parameters(self):
        cb = cached_codebook(3)
        with pytest.raises(ValueError):
            cc.superpose_noisy(cb, {1}, -0.1, 0)
        with pytest.raises(ValueError):
            cc.superpose_noisy(cb, {1}, 0.1, -1)

    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, 1.5, "1", None])
    def test_refuses_seeds_that_are_not_integers(self, bad):
        """A bool is not taken as seed 1, and a float or str is a
        ValueError, not a TypeError."""
        message = f"seed must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.superpose_noisy(cached_codebook(3), {1}, 0.1, bad)

    @pytest.mark.parametrize("kind", [np.int64, np.uint32, np.uint8])
    def test_accepts_numpy_integer_seeds(self, kind):
        cb = cached_codebook(5)
        assert np.array_equal(cc.superpose_noisy(cb, {1, 4}, 0.3, kind(7)),
                              cc.superpose_noisy(cb, {1, 4}, 0.3, 7))

    @pytest.mark.parametrize("sigma", [-1e-300, -1.0, float("nan"),
                                       float("inf"), float("-inf")])
    def test_rejects_sigma_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be >= 0$"):
            cc.superpose_noisy(cached_codebook(3), {1}, sigma, 0)

    @pytest.mark.parametrize("sigma", [True, np.True_, "0.3", None])
    def test_rejects_sigma_that_is_not_a_real_number(self, sigma):
        message = f"sigma must be a real number, got {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.superpose_noisy(cached_codebook(3), {1}, sigma, 0)

    def test_rejects_samples_that_overflow(self):
        with pytest.raises(ValueError, match=r"^sigma=1\.7e\+308 overflows"):
            cc.superpose_noisy(cached_codebook(3), {1}, 1.7e308, 3)
        samples = cc.superpose_noisy(cached_codebook(3), {1}, 1e300, 3)
        assert np.isfinite(samples).all() and np.abs(samples).max() > 1e299

    def test_negative_zero_sigma_is_exact(self):
        cb = cached_codebook(5)
        assert np.array_equal(cc.superpose_noisy(cb, {2, 4}, -0.0, 3),
                              cc.superpose(cb, {2, 4}))

    def test_threshold_midpoint(self):
        samples = np.array([0.49, 0.51, -3.0])
        assert cc.bits_to_str(cc.threshold_noisy(samples)) == "010"

    def test_low_noise_agrees_with_ideal_demodulation(self):
        # Monte Carlo over seeds 1..10000 at sigma=0.1; the 0.5 threshold
        # sits five sigmas from both the tie level and the minimum
        # positive sum, so disagreement should be essentially absent.
        cb = cached_codebook(3)
        subsets = [frozenset(s) for s in oracles.nonempty_subsets(3)]
        agree = 0
        for seed in range(1, 10001):
            subset = subsets[seed % len(subsets)]
            noisy = cc.threshold_noisy(cc.superpose_noisy(cb, subset, 0.1, seed))
            ideal = cc.demodulate(cc.superpose(cb, subset))
            agree += np.array_equal(noisy, ideal)
        assert agree >= 9900
