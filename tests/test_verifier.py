"""Chip-sum operations and the exhaustive code checks."""

import functools
import subprocess
import sys
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collisioncode as cc
from collisioncode import verifier
from collisioncode._subsets import (DEFAULT_LO_BITS, demod_blocks, ids_to_mask,
                                   mask_to_ids, partial_counts)
from conftest import cached_codebook
import oracles


def row_subset_strategy(n_rows, min_size=0):
    return st.sets(st.integers(1, n_rows), min_size=min_size).map(frozenset)


def corrupted_rows(n_rows, src, dst):
    """Oracle matrix rows with row src copied over row dst (1-based)."""
    rows = oracles.matrix_rows(n_rows)
    rows[dst - 1] = rows[src - 1]
    return rows


def codebook_from_rows(rows):
    """Codebook built directly, since parse_codebook rejects broken matrices."""
    bits = np.array([[int(c) for c in row] for row in rows], np.uint8)
    return cc.Codebook(len(rows), bits)


def small_blocks(monkeypatch, kernel_bytes, draw_trials):
    """Shrink the additivity kernel's column, trial and draw blocks."""
    if kernel_bytes:
        monkeypatch.setattr(verifier, "_KERNEL_BYTES", kernel_bytes)
    if draw_trials:
        monkeypatch.setattr(verifier, "_DRAW_TRIALS", draw_trials)


def brute_force_uniqueness(rows):
    """(collisions, distinct_vectors) by grouping every non-empty subset's
    oracle demodulation; pairs are in ascending mask order."""
    groups = {}
    for subset in oracles.nonempty_subsets(len(rows)):
        groups.setdefault(oracles.demod(rows, subset), []).append(subset)
    collisions = sorted(
        (a, b, vec) for vec, subsets in groups.items()
        for a, b in combinations(sorted(subsets, key=ids_to_mask), 2))
    return collisions, len(groups)


class TestChipSum:
    def test_full_set_is_one_everywhere(self):
        cb = cached_codebook(3)
        for col in range(1, 4):
            assert cc.chip_sum(cb, {1, 2, 3}, col) == 1

    def test_empty_subset(self):
        assert cc.chip_sum(cached_codebook(3), set(), 2) == 0

    def test_pair_at_first_column(self):
        assert cc.chip_sum(cached_codebook(3), {1, 2}, 1) == 2

    def test_column_range(self):
        with pytest.raises(ValueError):
            cc.chip_sum(cached_codebook(3), {1}, 4)
        with pytest.raises(ValueError):
            cc.chip_sum(cached_codebook(3), {1}, 0)

    def test_row_range(self):
        with pytest.raises(ValueError):
            cc.chip_sum(cached_codebook(3), {4}, 1)

    def test_padding_row_is_addressable(self):
        cb = cached_codebook(4)  # five rows, four stations
        assert cc.chip_sum(cb, {5}, 1) in (-1, 1)

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=50)
    def test_agrees_with_superposition(self, n, data):
        cb = cached_codebook(n)
        subset = data.draw(
            st.sets(st.integers(1, cb.n_stations), min_size=1).map(frozenset))
        sums = cc.superpose(cb, subset).sums
        for col in range(1, cb.v_length + 1):
            assert cc.chip_sum(cb, subset, col) == int(sums[col - 1])

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=50)
    def test_agrees_with_oracle_over_rows(self, n, data):
        cb = cached_codebook(n)
        rows = oracles.matrix_rows(cb.n_rows)
        subset = data.draw(row_subset_strategy(cb.n_rows))
        col = data.draw(st.integers(1, cb.v_length))
        assert cc.chip_sum(cb, subset, col) == oracles.chip_sum(rows, subset, col)


class TestAmplitudeCounts:
    def test_example_first_column(self):
        assert cc.amplitude_counts(cached_codebook(3), {1, 2, 3}, 1) == (2, 1)

    def test_empty(self):
        assert cc.amplitude_counts(cached_codebook(3), set(), 2) == (0, 0)

    def test_full_set_any_column(self):
        cb = cached_codebook(5)
        for col in range(1, cb.v_length + 1):
            assert cc.amplitude_counts(cb, set(range(1, 6)), col) == (3, 2)

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=50)
    def test_identities(self, n, data):
        cb = cached_codebook(n)
        subset = data.draw(row_subset_strategy(cb.n_rows))
        col = data.draw(st.integers(1, cb.v_length))
        plus, minus = cc.amplitude_counts(cb, subset, col)
        assert plus + minus == len(subset)
        assert plus - minus == cc.chip_sum(cb, subset, col)


class TestWitnesses:
    def test_singleton_witness_at_first_column(self):
        report = cc.find_unit_sum_column(cached_codebook(3), {1})
        assert (report.column, report.chip_sum) == (1, 1)

    def test_pair_witness_at_second_column(self):
        report = cc.find_zero_sum_column(cached_codebook(3), {1, 2})
        assert (report.column, report.chip_sum) == (2, 0)

    def test_odd_triple_in_five_rows(self):
        cb = cached_codebook(5)
        report = cc.find_unit_sum_column(cb, {1, 2, 3})
        rows = oracles.matrix_rows(5)
        sums = [oracles.chip_sum(rows, {1, 2, 3}, c + 1) for c in range(10)]
        assert report.column == sums.index(1) + 1

    def test_even_pair_in_five_rows(self):
        cb = cached_codebook(5)
        report = cc.find_zero_sum_column(cb, {2, 4})
        rows = oracles.matrix_rows(5)
        sums = [oracles.chip_sum(rows, {2, 4}, c + 1) for c in range(10)]
        assert report.column == sums.index(0) + 1

    def test_preconditions(self):
        cb = cached_codebook(3)
        with pytest.raises(ValueError):
            cc.find_unit_sum_column(cb, {1, 2})  # even size
        with pytest.raises(ValueError):
            cc.find_unit_sum_column(cb, {1, 2, 3})  # not proper
        with pytest.raises(ValueError):
            cc.find_unit_sum_column(cb, set())
        with pytest.raises(ValueError):
            cc.find_zero_sum_column(cb, {1})  # odd size
        with pytest.raises(ValueError):
            cc.find_zero_sum_column(cb, set())

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_every_proper_subset_has_witness_via_ops(self, n):
        cb = cached_codebook(n)
        for subset in oracles.nonempty_subsets(cb.n_rows):
            if len(subset) == cb.n_rows:
                continue
            if len(subset) % 2:
                report = cc.find_unit_sum_column(cb, subset)
                assert cc.chip_sum(cb, subset, report.column) == 1
            else:
                report = cc.find_zero_sum_column(cb, subset)
                assert cc.chip_sum(cb, subset, report.column) == 0

    @pytest.mark.parametrize("n", list(range(1, 12)))
    def test_sweep_finds_no_failures(self, n):
        report = cc.sweep_witnesses(cached_codebook(n))
        assert report.failures == []
        assert report.subsets_checked == max(2 ** report.n - 2, 0)

    def test_sweep_budget(self):
        with pytest.raises(cc.SizeLimitError):
            cc.sweep_witnesses(cached_codebook(13))
        cc.sweep_witnesses(cached_codebook(13), max_rows=13)


class TestAdditivity:
    @pytest.mark.parametrize("n,trials,seed", [(3, 100, 7), (1, 50, 0),
                                               (6, 200, 42)])
    def test_passes(self, n, trials, seed):
        report = cc.check_additivity(cached_codebook(n), trials, seed)
        assert report.ok and report.counterexample is None

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            cc.check_additivity(cached_codebook(3), 0, 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_draws_match_oracle(self, n):
        m = cached_codebook(n).n_rows
        forced = 0
        for seed, trials in [(0, 300), (1, 7), (2, 1), (3, 120), (4, 64),
                             (5, 5000)]:
            masks = verifier._trial_masks(np.random.default_rng(seed), trials, m)
            assert masks.shape == (trials, 6)
            draws = list(oracles.additivity_draws(m, trials, seed))
            for row, (g1, g2, inner, outer, was_forced) in zip(masks.tolist(), draws):
                ids = [mask_to_ids(mask) for mask in row]
                assert (ids[0], ids[1], ids[3], ids[5]) == (g1, g2, inner, outer)
                assert ids[2] == tuple(sorted(g1 + g2))
                assert ids[4] == tuple(sorted(set(outer) - set(inner)))
                assert ids[4]  # the nesting is strict
                forced += was_forced
        assert forced  # some trials drew an empty outer-only part

    @pytest.mark.parametrize("trials", [1, 3, 20, 1000, 10 ** 6])
    def test_row_chunks_tile_the_rows(self, trials):
        for m in range(1, 26):
            chunks = verifier._row_chunks(m, trials)
            assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]]
            assert chunks[-1][1] == m
            assert all(1 <= b - a <= DEFAULT_LO_BITS for a, b in chunks)

    @pytest.mark.parametrize("n,trials,seed", [(1, 30, 0), (2, 40, 1),
                                               (5, 60, 2), (8, 25, 3),
                                               (9, 43, 4)])
    @pytest.mark.parametrize("kernel_bytes,draw_trials", [
        (None, None), (1 << 9, None), (1 << 9, 7)])
    def test_report_matches_oracle(self, n, trials, seed, kernel_bytes,
                                   draw_trials, monkeypatch):
        small_blocks(monkeypatch, kernel_bytes, draw_trials)
        cb = cached_codebook(n)
        drawn = []
        original = verifier._trial_masks
        monkeypatch.setattr(verifier, "_trial_masks",
                            lambda rng, k, m: drawn.append(k) or original(rng, k, m))
        report = cc.check_additivity(cb, trials, seed)
        assert sum(drawn) == trials
        ok, counterexample = oracles.additivity_report(
            oracles.matrix_rows(cb.n_rows), trials, seed)
        assert (report.ok, report.counterexample) == (ok, counterexample)
        assert (report.trials, report.seed) == (trials, seed)

    @pytest.mark.parametrize("n,trials,seed,kernel_bytes,draw_trials,blocks", [
        (3, 40, 0, None, None, (0,)), (7, 100, 3, None, None, (0,)),
        (9, 1000, 2, None, None, (0,)), (9, 300, 5, 1 << 9, None, (0,)),
        (9, 300, 6, 1 << 9, None, (2,)), (7, 50, 7, 1 << 8, None, (3,)),
        (9, 300, 8, 1 << 9, None, (-1,)), (9, 300, 9, 1 << 9, None, (1, -1)),
        (7, 300, 10, None, 5, (0,)), (9, 300, 11, 1 << 9, 6, (2, -1)),
        # in these two the first failing trial is in the fourth or fifth draw
        (7, 300, 21, None, 2, (0,)), (9, 300, 57, 1 << 9, 2, (1, -1)),
        # in these two the difference law is the first to fail
        (5, 60, 1, None, None, (0,)), (9, 60, 1, 1 << 9, 9, (1, -1))])
    def test_corrupted_counts_are_reported(self, n, trials, seed, kernel_bytes,
                                           draw_trials, blocks, monkeypatch):
        """The first-chunk table of some column blocks counts one extra one
        for row 1 alone at its middle column. So does the oracle, for every
        subset whose first-chunk part is exactly row 1."""
        small_blocks(monkeypatch, kernel_bytes, draw_trials)
        cb = cached_codebook(n)
        chunks = verifier._row_chunks(cb.n_rows,
                                      6 * min(trials, verifier._DRAW_TRIALS))
        original = verifier.partial_counts
        calls = []
        monkeypatch.setattr(verifier, "partial_counts",
                            lambda rows: calls.append(rows) or original(rows))
        cc.check_additivity(cb, trials, seed)
        widths = [rows.shape[1] for rows in calls[::len(chunks)]]
        n_blocks = list(accumulate(widths)).index(cb.v_length) + 1
        # every block of trials tiles the matrix with the same column blocks
        assert widths == widths[:n_blocks] * (len(widths) // n_blocks)
        widths = widths[:n_blocks]
        targets = {b % n_blocks for b in blocks}
        corrupted = {sum(widths[:b]) + widths[b] // 2 + 1 for b in targets}

        def partial_counts(rows):
            table = original(rows)
            block, chunk = divmod(len(calls), len(chunks))
            if chunk == 0 and block % n_blocks in targets:
                table[1, len(table[0]) // 2] += 1
            calls.append(rows)
            return table

        calls.clear()
        monkeypatch.setattr(verifier, "partial_counts", partial_counts)
        report = cc.check_additivity(cb, trials, seed)
        first_chunk = (1 << chunks[0][1]) - 1
        ok, expected = oracles.additivity_report(
            oracles.matrix_rows(cb.n_rows), trials, seed,
            lambda subset, col: int(col in corrupted and
                                    ids_to_mask(subset) & first_chunk == 1))
        assert not ok and not report.ok
        assert report.counterexample == expected


class TestUniqueness:
    @pytest.mark.parametrize("n,expected", [(3, 7), (1, 1), (5, 31)])
    def test_counts(self, n, expected):
        report = cc.verify_uniqueness(cached_codebook(n))
        assert report.subsets_checked == expected
        assert report.distinct_vectors == expected
        assert report.collisions == []

    def test_even_station_count_checks_all_rows(self):
        report = cc.verify_uniqueness(cached_codebook(4))
        assert report.n == 5
        assert report.subsets_checked == 31

    def test_workers_produce_identical_report(self):
        cb = cached_codebook(9)
        reports = [cc.verify_uniqueness(cb, workers=w) for w in (1, 3, 8)]
        for report in reports[1:]:
            assert report.n == reports[0].n
            assert report.subsets_checked == reports[0].subsets_checked
            assert report.distinct_vectors == reports[0].distinct_vectors
            assert report.collisions == reports[0].collisions

    def test_budget(self):
        with pytest.raises(cc.SizeLimitError):
            cc.verify_uniqueness(cached_codebook(16))
        with pytest.raises(ValueError):
            cc.verify_uniqueness(cached_codebook(3), workers=0)

    @pytest.mark.parametrize("n_rows,src,dst", [(3, 1, 2), (5, 4, 2),
                                                (7, 7, 3), (9, 2, 9)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_collisions_match_brute_force(self, n_rows, src, dst, workers):
        rows = corrupted_rows(n_rows, src, dst)
        report = cc.verify_uniqueness(codebook_from_rows(rows), workers=workers)
        collisions, distinct = brute_force_uniqueness(rows)
        assert collisions  # a copied row always collides with its source
        assert report.collisions == collisions
        assert report.distinct_vectors == distinct
        assert report.subsets_checked == 2 ** n_rows - 1

    def test_json_shape(self):
        d = cc.verify_uniqueness(cached_codebook(3)).to_json_dict()
        assert set(d) == {"n", "subsets_checked", "distinct_vectors",
                          "collisions", "elapsed_ms"}


class TestNoZeroVector:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9])
    def test_passes(self, n):
        assert cc.verify_no_zero_vector(cached_codebook(n))

    def test_budget(self):
        with pytest.raises(cc.SizeLimitError):
            cc.verify_no_zero_vector(cached_codebook(17))

    @pytest.mark.parametrize("rows,expected", [
        (oracles.matrix_rows(5), True),
        (corrupted_rows(5, 1, 4), True),
        (["11100", "00011", "10101"], False),  # rows 1 and 2 share no one
        (oracles.matrix_rows(5)[:2] + ["0" * 10] + oracles.matrix_rows(5)[3:],
         False),  # row 3 alone demodulates to zeros
        (["0"], False),
        (["1100", "0011", "1010", "0101", "1001"], False),
    ])
    def test_matches_brute_force(self, rows, expected):
        zero = "0" * len(rows[0])
        assert expected == all(oracles.demod(rows, subset) != zero
                               for subset in oracles.nonempty_subsets(len(rows)))
        assert cc.verify_no_zero_vector(codebook_from_rows(rows)) == expected


def random_rows(rng, m, v):
    """m random 0/1 rows of length v, at a density drawn from 0.1..0.9."""
    p = rng.uniform(0.1, 0.9)
    return ["".join("1" if x < p else "0" for x in rng.random(v))
            for _ in range(m)]


def edited_rows(seed):
    """A seeded random matrix of up to 11 rows, some with a duplicated,
    all-zero or all-one row; the width covers 1, 63, 64 and 65 columns
    (one or two tiles) and 130 or more (three or more)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 12))
    # one column gives few distinct vectors and so millions of colliding
    # pairs at 11 rows; many columns make the oracle slow
    widths = [63, 64, 65] if m > 8 else [1, 63, 64, 65, 130, 200]
    v = int(rng.choice(widths[m > 6:]))
    rows = random_rows(rng, m, v)
    edit = seed % 4
    if edit == 1 and m > 1:
        rows[int(rng.integers(m))] = rows[int(rng.integers(m))]
    elif edit == 2:
        rows[int(rng.integers(m))] = "0" * v
    elif edit == 3:
        rows[int(rng.integers(m))] = "1" * v
    return rows


@functools.lru_cache(maxsize=None)
def edited_case(seed):
    """(rows, collisions, distinct, zero unreachable, witness failures)."""
    rows = edited_rows(seed)
    return (rows, *brute_force_uniqueness(rows), oracles.zero_unreachable(rows),
            oracles.witness_failures(rows))


def last_visited_column(v):
    return int(verifier._column_tiles(v)[-1][-1])


class TestTileRefinement:
    """The tiled checks against pure-Python brute force."""

    @pytest.mark.parametrize("v", [*range(1, 300), 462, 6435, 352716])
    def test_column_tiles_visit_every_column_once(self, v):
        tiles = verifier._column_tiles(v)
        assert len(tiles) == -(-v // 64)
        assert all(1 <= len(cols) <= 64 for cols in tiles)
        assert sorted(np.concatenate(tiles).tolist()) == list(range(v))

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kernel_bytes", [None, 200])
    def test_checks_match_oracle(self, seed, kernel_bytes, monkeypatch):
        """kernel_bytes=200 splits every tile into blocks of a few subsets."""
        if kernel_bytes:
            monkeypatch.setattr(verifier, "_KERNEL_BYTES", kernel_bytes)
        rows, collisions, distinct, no_zero, failures = edited_case(seed)
        cb = codebook_from_rows(rows)
        for workers in (1, 3):
            report = cc.verify_uniqueness(cb, workers=workers)
            assert report.collisions == collisions
            assert report.distinct_vectors == distinct
        assert cc.verify_no_zero_vector(cb) == no_zero
        sweep = cc.sweep_witnesses(cb)
        assert sweep.failures == failures
        assert sweep.subsets_checked == max(2 ** len(rows) - 2, 0)

    def test_edits_reach_every_outcome(self):
        """The seeded cases include collisions, reachable zeros and
        witness failures; duplicated rows collide and all-zero rows
        reach the zero vector."""
        outcomes = {edit: set() for edit in range(4)}
        for seed in range(40):
            _, collisions, _, no_zero, failures = edited_case(seed)
            for name, seen in [("collision", collisions), ("zero", not no_zero),
                               ("witness", failures)]:
                if seen:
                    outcomes[seed % 4].add(name)
        assert set().union(*outcomes.values()) == {"collision", "zero", "witness"}
        assert "collision" in outcomes[1] and "zero" in outcomes[2]

    @pytest.mark.parametrize("v", [65, 130, 200, 462])
    @pytest.mark.parametrize("flip", [True, False])
    def test_last_tile_decides_uniqueness(self, v, flip):
        """Rows 1 and 2 are equal or, when flipped, differ only at the
        last column visited, the only column that tells {1} from {2}."""
        rng = np.random.default_rng(v)
        rows = random_rows(rng, 6, v)
        col = last_visited_column(v)
        rows[1] = rows[0][:col] + str(int(flip) ^ int(rows[0][col])) + rows[0][col + 1:]
        report = cc.verify_uniqueness(codebook_from_rows(rows), workers=3)
        collisions, distinct = brute_force_uniqueness(rows)
        assert report.collisions == collisions
        assert report.distinct_vectors == distinct
        pair = [c[:2] for c in report.collisions if c[:2] == ((1,), (2,))]
        assert bool(pair) == (not flip)

    @pytest.mark.parametrize("v", [1, 64, 65, 130, 462])
    @pytest.mark.parametrize("one", [True, False])
    def test_last_tile_decides_zero_and_witness(self, v, one):
        """Row 1 is all zeros except, optionally, a one at the last column
        visited, its only majority and witness column."""
        rows = random_rows(np.random.default_rng(v), 5, v)
        col = last_visited_column(v)
        rows[0] = "0" * col + str(int(one)) + "0" * (v - col - 1)
        cb = codebook_from_rows(rows)
        assert cc.verify_no_zero_vector(cb) == oracles.zero_unreachable(rows)
        if not one:
            assert not cc.verify_no_zero_vector(cb)
        failures = cc.sweep_witnesses(cb).failures
        assert failures == oracles.witness_failures(rows)
        assert ((1,) in failures) == (not one)


def test_import_leaves_numpy_random_unloaded():
    code = "import sys, collisioncode; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


class TestEnumerationEngine:
    @pytest.mark.parametrize("k", range(6))
    def test_partial_counts_match_row_sums(self, k):
        rows = np.random.default_rng(k).integers(0, 2, (k, 13)).astype(np.int8)
        table = partial_counts(rows)
        assert table.shape == (1 << k, 13) and table.dtype == np.int8
        for mask in range(1 << k):
            ids = [i - 1 for i in mask_to_ids(mask)]
            assert table[mask].tolist() == rows[ids].sum(axis=0).tolist()

    def test_blocks_match_oracle_for_five_rows(self):
        cb = cached_codebook(5)
        rows = oracles.matrix_rows(5)
        seen = {}
        for masks, packed in demod_blocks(cb.matrix(), 5):
            for mask, row in zip(masks.tolist(), packed):
                seen[mask] = "".join(
                    str(b) for b in np.unpackbits(row)[:cb.v_length])
        assert len(seen) == 32
        for mask, bits in seen.items():
            subset = mask_to_ids(mask)
            assert bits == oracles.demod(rows, subset)
