"""The verifier's exhaustive and seeded code checks."""

import functools
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import collisioncode as cc
from collisioncode import _subsets, verifier
from collisioncode._subsets import count_blocks, demod_blocks, mask_to_ids
from conftest import cached_codebook
import oracles


def corrupted_rows(n_rows, src, dst):
    """Oracle matrix rows with row src copied over row dst (1-based)."""
    rows = oracles.matrix_rows(n_rows)
    rows[dst - 1] = rows[src - 1]
    return rows


def codebook_from_rows(rows):
    """Codebook built directly, since parse_codebook rejects broken matrices."""
    bits = np.array([[int(c) for c in row] for row in rows], np.uint8)
    return cc.Codebook(len(rows), bits)


def brute_force_uniqueness(rows):
    """(collisions, distinct_vectors) by grouping every non-empty subset's
    oracle demodulation; pairs are in ascending mask order."""
    groups = {}
    for subset in oracles.nonempty_subsets(len(rows)):
        groups.setdefault(oracles.demod(rows, subset), []).append(subset)
    collisions = sorted(
        (a, b, vec) for vec, subsets in groups.items()
        for a, b in combinations(sorted(subsets, key=oracles.ids_to_mask), 2))
    return collisions, len(groups)


class TestWitnesses:
    @pytest.mark.parametrize("n", list(range(1, 16)))
    def test_sweep_finds_no_failures(self, n):
        report = cc.sweep_witnesses(cached_codebook(n))
        assert report.failures == []
        assert report.subsets_checked == max(2 ** report.n - 2, 0)

    def test_sweep_budget(self, monkeypatch):
        with pytest.raises(cc.SizeLimitError, match=r"^n_rows=17 exceeds the "
                                                    r"witness sweep budget of 15$"):
            cc.sweep_witnesses(cached_codebook(16))
        monkeypatch.setattr(verifier, "UNIQUENESS_BUDGET_ROWS", 17)
        report = cc.sweep_witnesses(cached_codebook(16))
        assert report.failures == [] and report.subsets_checked == 2 ** 17 - 2


class TestAdditivity:
    @pytest.mark.parametrize("n,trials,seed", [(3, 100, 7), (1, 50, 0),
                                               (6, 200, 42)])
    def test_passes(self, n, trials, seed):
        report = cc.check_additivity(cached_codebook(n), trials, seed)
        assert report.ok and report.counterexample is None

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            cc.check_additivity(cached_codebook(3), 0, 1)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", drawn)
        with pytest.raises(ValueError,
                           match="^seed must be a non-negative integer$"):
            cc.check_additivity(cached_codebook(3), 10, -1)

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, 1.5, "1", None])
    def test_refuses_arguments_that_are_not_integers(self, field, bad):
        """A bool is not run as 1 trial (and reported as `true`), and a
        float or str is a ValueError, not a TypeError."""
        args = {"trials": 10, "seed": 1} | {field: bad}
        message = f"{field} must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.check_additivity(cached_codebook(3), **args)

    def test_numpy_integers_are_held_as_ints(self):
        report = cc.check_additivity(cached_codebook(5), np.int64(20),
                                     np.uint8(3))
        assert report == cc.check_additivity(cached_codebook(5), 20, 3)
        assert json.dumps(report.to_json_dict()) == json.dumps(
            cc.check_additivity(cached_codebook(5), 20, 3).to_json_dict())

    @pytest.mark.parametrize("n", range(1, 10))
    def test_draws_match_oracle(self, n, monkeypatch):
        """Trials drawn in blocks read the stream of the oracle's one draw."""
        m = cached_codebook(n).n_rows
        default_rng, blocks = np.random.default_rng, []

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, *args):
                blocks.append(self.rng.integers(*args))
                return blocks[-1]

        monkeypatch.setattr(np.random, "default_rng", Recording)
        for draw_trials, trials, seed in [(1, 5, 0), (7, 1, 1), (7, 7, 2),
                                          (7, 300, 3), (4096, 5000, 4)]:
            monkeypatch.setattr(verifier, "_DRAW_TRIALS", draw_trials)
            blocks.clear()
            assert cc.check_additivity(cached_codebook(n), trials, seed).ok
            assert [len(b) for b in blocks[:-1]] == [draw_trials] * (len(blocks) - 1)
            assert np.array_equal(np.concatenate(blocks),
                                  default_rng(seed).integers(1, 1 << m, trials))

    @pytest.mark.parametrize("n,trials,seed", [(1, 30, 0), (2, 40, 1),
                                               (5, 60, 2), (8, 25, 3),
                                               (9, 43, 4)])
    @pytest.mark.parametrize("kernel_bytes,draw_trials", [
        (None, None), (1 << 9, None), (1 << 9, 7)])
    def test_report_matches_oracle(self, n, trials, seed, kernel_bytes,
                                   draw_trials, monkeypatch):
        """On the canonical rows and, from 3 rows up, with row 1 copied
        over the last row, where the first failing trial depends on every
        draw before it."""
        if kernel_bytes:
            monkeypatch.setattr(_subsets, "_KERNEL_BYTES", kernel_bytes)
        if draw_trials:
            monkeypatch.setattr(verifier, "_DRAW_TRIALS", draw_trials)
        m = cached_codebook(n).n_rows
        cases = [oracles.matrix_rows(m)]
        if m >= 3:
            cases.append(corrupted_rows(m, 1, m))
        for rows in cases:
            report = cc.check_additivity(codebook_from_rows(rows), trials, seed)
            expected = oracles.claims_report(rows, trials, seed)
            assert (report.ok, report.counterexample) == expected
            assert (report.trials, report.seed) == (trials, seed)
        assert expected[0] == (m < 3)  # the copied row is caught

    @pytest.mark.parametrize("n_rows,src,dst", [(3, 1, 3), (5, 3, 5), (5, 2, 1),
                                                (7, 1, 4), (9, 9, 2), (9, 4, 5)])
    @pytest.mark.parametrize("draw_trials", [None, 3])
    def test_corrupted_rows_are_reported(self, n_rows, src, dst, draw_trials,
                                         monkeypatch):
        if draw_trials:
            monkeypatch.setattr(verifier, "_DRAW_TRIALS", draw_trials)
        rows = corrupted_rows(n_rows, src, dst)
        report = cc.check_additivity(codebook_from_rows(rows), 50, n_rows)
        assert not report.ok
        assert (report.ok, report.counterexample) == oracles.claims_report(
            rows, 50, n_rows)

    @pytest.mark.parametrize("v", [2, 63, 64, 65, 301])
    @pytest.mark.parametrize("kernel_bytes", [None, 1 << 9])
    def test_first_and_last_columns_count(self, v, kernel_bytes, monkeypatch):
        """Row 1 holds its only 1 at the first column and row 2 at the
        last, so {1} or {2} fails unless every column block is counted."""
        if kernel_bytes:
            monkeypatch.setattr(_subsets, "_KERNEL_BYTES", kernel_bytes)
        rows = ["1" + "0" * (v - 1), "0" * (v - 1) + "1"]
        assert cc.check_additivity(codebook_from_rows(rows), 20, 0).ok
        report = cc.check_additivity(codebook_from_rows(rows[:1] + ["0" * v]), 20, 0)
        assert report.counterexample == {"rows": [2], "top": [1, 2]}

    def test_budget_refuses_before_any_draw(self, monkeypatch):
        """At the 25-station cap the default 1000 trials are the budget;
        one more is refused before a generator or the matrix is touched."""
        v = math.comb(25, 13)
        cb = SimpleNamespace(n_rows=25, v_length=v, matrix=None)

        def no_draws(seed):
            raise LookupError("drew")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(cc.SizeLimitError, match="exceed the claims budget"):
            cc.check_additivity(cb, 1001, 0)
        with pytest.raises(LookupError):
            cc.check_additivity(cb, 1000, 0)


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

    @pytest.mark.parametrize("check", [cc.verify_uniqueness,
                                       cc.verify_no_zero_vector,
                                       cc.sweep_witnesses])
    def test_budget_is_read_at_call_time(self, check, monkeypatch):
        cb = cached_codebook(7)
        check(cb)
        monkeypatch.setattr(verifier, "UNIQUENESS_BUDGET_ROWS", 6)
        name = "witness sweep" if check is cc.sweep_witnesses else "uniqueness"
        with pytest.raises(cc.SizeLimitError,
                           match=rf"^n_rows=7 exceeds the {name} budget of 6$"):
            check(cb)

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
        (["10"], True),  # total 0 settles nothing; column 1 does
        (["00"], False),  # total -2 settles nothing; no column does
    ])
    def test_matches_brute_force(self, rows, expected):
        zero = "0" * len(rows[0])
        assert expected == all(oracles.demod(rows, subset) != zero
                               for subset in oracles.nonempty_subsets(len(rows)))
        assert cc.verify_no_zero_vector(codebook_from_rows(rows)) == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_every_small_matrix_matches_oracle(self, m, v):
        for bits in itertools.product("01", repeat=m * v):
            rows = ["".join(bits[r * v:(r + 1) * v]) for r in range(m)]
            assert (cc.verify_no_zero_vector(codebook_from_rows(rows))
                    == oracles.zero_unreachable(rows)), rows

    @staticmethod
    def scanned(cb, monkeypatch):
        """(verify_no_zero_vector(cb), the subset masks its tiles scanned)."""
        masks = []
        unsettled = verifier._unsettled

        def spy(cb, live, settles):
            masks.extend(live.tolist())
            return unsettled(cb, live, settles)

        monkeypatch.setattr(verifier, "_unsettled", spy)
        return cc.verify_no_zero_vector(cb), masks

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 15])
    def test_totals_settle_canonical_codes(self, n, monkeypatch):
        """Every canonical row has 2 * weight - V = V / rows > 0, so the
        subset totals settle every subset and no tile is scanned."""
        assert self.scanned(cached_codebook(n), monkeypatch) == (True, [])

    def test_only_unsettled_totals_are_scanned(self, monkeypatch):
        """Row 1 has weight 1 of 4 (gain -2), rows 2 and 3 weight 3 (gain
        +2): only {1}, {1, 2} and {1, 3}, of total <= 0, are scanned."""
        cb = codebook_from_rows(["1000", "1011", "1110"])
        assert self.scanned(cb, monkeypatch) == (True, [0b001, 0b011, 0b101])


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


def uniqueness_json(cb):
    """verify_uniqueness's JSON report without its timing."""
    d = cc.verify_uniqueness(cb).to_json_dict()
    del d["elapsed_ms"]
    return json.dumps(d)


class TestUniquenessPinned:
    """Reports pinned by sha256, so a faster refinement stays exact."""

    def test_copied_row_at_fifteen_rows(self):
        """Row 15 copied over row 4: 8,192 groups of colliding subsets."""
        rows = cached_codebook(15).matrix().copy()
        rows[3] = rows[14]
        doc = uniqueness_json(cc.Codebook(15, rows))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "e26d0f13911e14a891e41a827d9d64533a0c1c987565268704982483f1db53f9")

    def test_edited_cases(self):
        doc = "\n".join(uniqueness_json(codebook_from_rows(edited_rows(seed)))
                        for seed in range(40))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "a26cfaa5fcf2a58b9abf86a1c2ed6b315877872b55ae1ce1aea007a97aedaefb")


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
            monkeypatch.setattr(_subsets, "_KERNEL_BYTES", kernel_bytes)
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


class TestChipSums:
    """The one count kernel against the pure-Python chip sums."""

    @staticmethod
    def kernel_sums(cb, cols, masks):
        """Every yielded block, checked to tile the masks in order."""
        sums, stop = [], 0
        for sl, block in _subsets._chip_sums(cb, cols, masks):
            assert sl.start == stop and block.dtype == np.float32
            assert block.shape == (sl.stop - sl.start, len(cols))
            assert block.nbytes <= max(_subsets._KERNEL_BYTES, 4 * len(cols))
            stop = sl.stop
            sums += block.tolist()
        assert stop == len(masks)
        return sums

    @staticmethod
    def oracle_sums(rows, cols, masks):
        return [[oracles.chip_sum(rows, mask_to_ids(mask), c + 1) for c in cols]
                for mask in masks]

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("kernel_bytes", [None, 200, 1 << 9])
    def test_random_matrices_match_oracle(self, seed, kernel_bytes, monkeypatch):
        """kernel_bytes=200 yields one subset a block, 512 a few."""
        if kernel_bytes:
            monkeypatch.setattr(_subsets, "_KERNEL_BYTES", kernel_bytes)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        v = int(rng.choice([1, 2, 63, 64, 65, 130]))
        rows = random_rows(rng, m, v)
        cols = verifier._column_tiles(v)[int(rng.integers(-(-v // 64)))]
        masks = np.concatenate([[1, (1 << m) - 1], rng.integers(1, 1 << m, 40)])
        assert (self.kernel_sums(codebook_from_rows(rows), cols, masks)
                == self.oracle_sums(rows, cols.tolist(), masks.tolist()))

    def test_sampled_columns_at_the_cap(self):
        """200 columns of the 25-row code: every |sum| is at most 25."""
        cb = cc.build_codebook(25)
        rng = np.random.default_rng(25)
        cols = np.sort(rng.choice(cb.v_length, 200, replace=False))
        rows = ["".join(map(str, row)) for row in cb.matrix()[:, cols].tolist()]
        masks = np.concatenate([[1, 1 << 24, (1 << 25) - 1],
                                rng.integers(1, 1 << 25, 60)])
        sums = self.kernel_sums(cb, cols, masks)
        assert sums == self.oracle_sums(rows, range(200), masks.tolist())
        assert sums[2] == [1] * 200  # all 25 rows: 13 ones, 12 zeros


def test_import_leaves_numpy_random_unloaded():
    code = "import sys, collisioncode; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


class TestEnumerationEngine:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("kernel_bytes", [None, 200])
    def test_counts_match_row_sums(self, n, kernel_bytes, monkeypatch):
        """Every subset once, in ascending mask order, with its row sums
        and size; kernel_bytes=200 yields a few subsets a block."""
        if kernel_bytes:
            monkeypatch.setattr(_subsets, "_KERNEL_BYTES", kernel_bytes)
        matrix = cached_codebook(n).matrix()
        m = len(matrix)
        seen = []
        for masks, counts, sizes in count_blocks(matrix, m):
            assert counts.dtype == sizes.dtype == np.int8
            for mask, row, size in zip(masks.tolist(), counts, sizes.tolist()):
                ids = [i - 1 for i in mask_to_ids(mask)]
                assert row.tolist() == matrix[ids].sum(axis=0).tolist()
                assert size == len(ids)
                seen.append(mask)
        assert seen == list(range(1 << m))

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
