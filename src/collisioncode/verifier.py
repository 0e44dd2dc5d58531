"""Exhaustive machine checks of the codebook's chip-sum structure.

These operations work at the row level of the matrix (for even station
counts that includes the padding row) and re-establish, by enumeration
rather than by trust, the facts the decoder relies on:

* chip sums are additive over disjoint unions and subtractive over nested
  differences;
* every proper non-empty row subset has a witness column where its chip
  sum is +1 (odd-size subsets) or 0 (even-size subsets);
* distinct non-empty subsets demodulate to distinct vectors;
* no non-empty subset demodulates to the all-zero vector.

Every check counts a subset's ones at a column by gathering from
`partial_counts` tables, which hold the counts of every subset of a small
chunk of rows: a subset's counts are the sum of one table row per chunk.
The additivity identities are checked on seeded random trials; the other
three facts by enumerating every row subset:

* `check_additivity` draws blocks of trials as subset masks, gathers
  their counts a block of columns at a time, and tests both identities
  as sums of counts at every column;
* the three enumerations visit the columns in tiles of 64, spread over
  the whole codeword (`_column_tiles`), and count a tile only for the
  subsets that the earlier tiles left unresolved. On the canonical codes
  of up to 15 stations the first tile resolves all but at most four
  subsets, and the second the rest;
* `sweep_witnesses` drops a subset once a tile holds its witness count;
  the subsets no tile drops are the failures;
* `verify_no_zero_vector` drops a subset once a tile holds a column
  count that reaches its majority; a subset that survives every tile
  demodulates to all zeros;
* `verify_uniqueness` refines an exact partition of the subsets: each
  tile packs a subset's demodulated bits into one uint64 word, groups
  split on it and singletons leave. The groups left after the last tile
  are the collisions. Nothing is hashed, so no tie is ever re-checked.

Enumeration budgets keep the 2^rows scans at desk scale and can be raised
per call; the additivity trials need no row budget.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ._subsets import DEFAULT_LO_BITS, mask_to_ids, partial_counts
from .codebook import Codebook, SizeLimitError, bits_to_str

UNIQUENESS_BUDGET_ROWS = 15
WITNESS_SWEEP_BUDGET_ROWS = 11
_KERNEL_BYTES = 1 << 20  # tables, or gathered counts, of one kernel block
_TILE_COLUMNS = 64  # columns per tile: one uint64 word of demodulated bits
_DRAW_TRIALS = 1 << 12  # additivity trials drawn and checked at once


class WitnessNotFoundError(RuntimeError):
    """A guaranteed witness column is missing: implementation bug."""


@dataclass(frozen=True)
class WitnessReport:
    """A column witnessing the expected chip sum for one row subset."""
    rows: frozenset[int]
    column: int  # 1-based
    chip_sum: int


@dataclass
class UniquenessReport:
    """Outcome of enumerating every non-empty row subset's demodulation."""
    n: int
    subsets_checked: int
    distinct_vectors: int
    collisions: list[tuple[tuple[int, ...], tuple[int, ...], str]]
    elapsed: float  # seconds

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "subsets_checked": self.subsets_checked,
            "distinct_vectors": self.distinct_vectors,
            "collisions": [
                {"subset_a": list(a), "subset_b": list(b), "vector": vec}
                for a, b, vec in self.collisions
            ],
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


@dataclass
class WitnessSweepReport:
    """Witness existence over every proper non-empty row subset."""
    n: int
    subsets_checked: int
    failures: list[tuple[int, ...]]
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "subsets_checked": self.subsets_checked,
            "failures": [list(f) for f in self.failures],
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


@dataclass
class AdditivityReport:
    """Seeded random check of the union/difference chip-sum identities."""
    trials: int
    seed: int
    ok: bool
    counterexample: dict | None

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "counterexample": self.counterexample,
        }


def _row_indices(cb: Codebook, rows) -> list[int]:
    ids = sorted({int(r) for r in rows})
    if ids and not (1 <= ids[0] and ids[-1] <= cb.n_rows):
        raise ValueError(f"row ids must lie in 1..{cb.n_rows}, got {ids}")
    return [i - 1 for i in ids]


def _sums_vector(cb: Codebook, idx: list[int]) -> np.ndarray:
    if not idx:
        return np.zeros(cb.v_length, np.int16)
    ones = cb.matrix()[idx].sum(axis=0, dtype=np.int16)
    return 2 * ones - np.int16(len(idx))


def _ones_at(cb: Codebook, rows, col: int) -> tuple[int, int]:
    """(ones, size): one-bits of a row subset at a 1-based column, and its size."""
    idx = _row_indices(cb, rows)
    if not 1 <= col <= cb.v_length:
        raise ValueError(f"column {col} out of range 1..{cb.v_length}")
    ones = int(cb.matrix()[idx, col - 1].sum()) if idx else 0
    return ones, len(idx)


def chip_sum(cb: Codebook, rows, col: int) -> int:
    """Signed amplitude sum of a row subset at a 1-based column.

    Equals (ones minus zeros) over the subset's bits at that column and
    agrees entrywise with the channel's superposition.
    """
    ones, size = _ones_at(cb, rows, col)
    return 2 * ones - size


def amplitude_counts(cb: Codebook, rows, col: int) -> tuple[int, int]:
    """(plus, minus): how many rows of the subset carry +1 and -1 at col."""
    ones, size = _ones_at(cb, rows, col)
    return ones, size - ones


# chip sum a witness must reach -> (subset precondition, name of the sum)
_WITNESS_KINDS = {1: ("a proper non-empty subset of odd size", "+1"),
                  0: ("a proper subset of non-zero even size", "zero")}


def _find_witness(cb: Codebook, rows, target: int) -> WitnessReport:
    """Smallest column where the subset sums to target, whose parity the
    subset size must share."""
    what, name = _WITNESS_KINDS[target]
    idx = _row_indices(cb, rows)
    ids = sorted(i + 1 for i in idx)
    if not idx or len(idx) % 2 != target or len(idx) == cb.n_rows:
        raise ValueError(f"rows must be {what}, got {ids} of {cb.n_rows} rows")
    cols = np.flatnonzero(_sums_vector(cb, idx) == target)
    if not cols.size:
        raise WitnessNotFoundError(f"no {name} column for rows {ids}")
    return WitnessReport(frozenset(ids), int(cols[0]) + 1, target)


def find_unit_sum_column(cb: Codebook, rows) -> WitnessReport:
    """Smallest column where an odd proper row subset sums to exactly +1.

    Such a column always exists by construction; failing to find one means
    the matrix is broken, so that case raises instead of returning.
    """
    return _find_witness(cb, rows, 1)


def find_zero_sum_column(cb: Codebook, rows) -> WitnessReport:
    """Smallest column where an even-size proper row subset sums to 0."""
    return _find_witness(cb, rows, 0)


def _row_chunks(m: int, gathers: int) -> list[tuple[int, int]]:
    """Row ranges of the partial-count tables for `gathers` subsets.

    Per column, k balanced chunks cost their table rows (sum of 2^size)
    plus one gathered row per chunk for each subset; take the cheapest k
    whose chunks hold at most DEFAULT_LO_BITS rows.
    """
    def sizes(k: int) -> list[int]:
        return [m // k + (i < m % k) for i in range(k)]

    best = min(range(-(-m // DEFAULT_LO_BITS), m + 1),
               key=lambda k: sum(1 << s for s in sizes(k)) + gathers * k)
    stops = itertools.accumulate(sizes(best))
    return [(stop - size, stop) for size, stop in zip(sizes(best), stops)]


def _column_tiles(v: int) -> list[np.ndarray]:
    """0-based columns of each of the ceil(v / 64) tiles of a v-column matrix.

    With T tiles, tile t holds columns t, t + T, t + 2T, ..., so each tile
    samples the whole codeword and every column is in exactly one tile.
    """
    n_tiles = -(-v // _TILE_COLUMNS)
    return [np.arange(t, v, n_tiles) for t in range(n_tiles)]


def _gather_counts(tables: list[np.ndarray], chunks: list[tuple[int, int]],
                   masks: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the int8 column counts of the subsets `masks` into `out`.

    Per row chunk (a, b), the mask's bits a..b-1 select a row of that
    chunk's `partial_counts` table (always in range, so "clip" never
    clips), and a subset's counts are the sum of its rows. `out` and
    `scratch` have shape masks.shape + (width,). Callers reuse them block
    after block: fresh megabyte arrays are handed back to the system when
    freed and page-faulted in again, which costs more than the gather.
    """
    (a, b), *rest = chunks
    np.take(tables[0], masks >> a & ((1 << (b - a)) - 1), axis=0, out=out,
            mode="clip")
    for table, (a, b) in zip(tables[1:], rest):
        np.take(table, masks >> a & ((1 << (b - a)) - 1), axis=0, out=scratch,
                mode="clip")
        out += scratch


def _tile_counts(matrix: np.ndarray, cols: np.ndarray, live: np.ndarray):
    """Yield (sl, ones, sizes): column counts at `cols` of the subsets
    live[sl], and their sizes as an int8 column, a slice at a time so that
    each block of counts stays within _KERNEL_BYTES. The counts buffer is
    reused between iterations."""
    chunks = _row_chunks(len(matrix), len(live))
    block = matrix[:, cols].astype(np.int8)
    tables = [partial_counts(block[a:b]) for a, b in chunks]
    step = max(1, min(len(live), _KERNEL_BYTES // len(cols)))
    shape = (step, len(cols))
    ones, scratch = np.empty(shape, np.int8), np.empty(shape, np.int8)
    for lo in range(0, len(live), step):
        masks = live[lo:lo + step]
        k = len(masks)
        _gather_counts(tables, chunks, masks, ones[:k], scratch[:k])
        sizes = np.bitwise_count(masks).astype(np.int8)[:, None]
        yield slice(lo, lo + k), ones[:k], sizes


def _unsettled(matrix: np.ndarray, live: np.ndarray, settles) -> np.ndarray:
    """The subset masks of `live` that no column of `matrix` settles.

    settles(ones, sizes) marks the subsets whose counts on one tile settle
    them. Tiles are visited in order and each counts only the subsets that
    every earlier tile left unsettled.
    """
    for cols in _column_tiles(matrix.shape[1]):
        if not live.size:
            break
        keep = np.empty(len(live), bool)
        for sl, ones, sizes in _tile_counts(matrix, cols, live):
            keep[sl] = ~settles(ones, sizes)
        live = live[keep]
    return live


def _colliding_groups(matrix: np.ndarray) -> list[list[int]]:
    """Every group of two or more non-empty row subsets with one
    demodulated vector, each as ascending subset masks.

    An exact partition of the subsets is refined a tile at a time: each
    subset's demodulated bits on the tile are packed into one uint64 word,
    the subsets are sorted on (group, word), groups split where the word
    changes, and singletons, whose vector no other subset shares, are
    dropped. Subsets still grouped after the last tile agree on every
    column.
    """
    live = np.arange(1, 1 << len(matrix))
    group = np.zeros(len(live), np.int64)  # non-decreasing along live
    for cols in _column_tiles(matrix.shape[1]):
        if not live.size:
            break
        words = np.zeros((len(live), 8), np.uint8)
        for sl, ones, sizes in _tile_counts(matrix, cols, live):
            words[sl, :-(-len(cols) // 8)] = np.packbits(ones > sizes // 2, axis=1)
        words = words.view(np.uint64).ravel()
        lead = np.empty(len(live), bool)  # first subset of its group
        lead[0] = True
        np.not_equal(group[1:], group[:-1], out=lead[1:])
        if (words == words[lead][np.cumsum(lead) - 1]).all():
            continue  # no group splits on this tile
        order = np.lexsort((words, group))  # keeps every group in place
        live, words = live[order], words[order]
        lead[1:] |= words[1:] != words[:-1]
        group = np.cumsum(lead)
        shared = np.bincount(group)[group] > 1
        live, group = live[shared], group[shared]
    live = live[np.lexsort((live, group))].tolist()
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(live)]
    return [live[a:b] for a, b in zip(bounds, bounds[1:]) if b - a > 1]


def _demodulated(matrix: np.ndarray, masks: np.ndarray) -> list[str]:
    """The demodulated vector of each subset in `masks`, as a string.

    Columns are taken in blocks narrow enough that the largest
    partial-count tables stay within _KERNEL_BYTES.
    """
    v = matrix.shape[1]
    width = max(1, _KERNEL_BYTES >> DEFAULT_LO_BITS)
    blocks = []
    for c0 in range(0, v, width):
        cols = np.arange(c0, min(c0 + width, v))
        text = "".join(bits_to_str(ones > sizes // 2)
                       for _, ones, sizes in _tile_counts(matrix, cols, masks))
        blocks.append([text[i:i + len(cols)] for i in range(0, len(text), len(cols))])
    return ["".join(parts) for parts in zip(*blocks)]


def sweep_witnesses(cb: Codebook,
                    max_rows: int = WITNESS_SWEEP_BUDGET_ROWS) -> WitnessSweepReport:
    """Check witness existence for every proper non-empty row subset.

    For subset size g the witness condition (+1 for odd g, 0 for even g)
    is equivalent to some column holding exactly floor((g+1)/2) ones over
    the subset. A subset is settled by the first tile holding such a
    column, and the subsets that no tile settles are the failures.
    """
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the witness sweep budget of {max_rows}")
    t0 = time.perf_counter()
    unsettled = _unsettled(cb.matrix(), np.arange(1, (1 << m) - 1),
                           lambda ones, sizes: (ones == (sizes + 1) // 2).any(axis=1))
    failures = sorted(mask_to_ids(mask) for mask in unsettled.tolist())
    return WitnessSweepReport(m, max(2 ** m - 2, 0), failures,
                              time.perf_counter() - t0)


# a string, because naming np.random at import would load numpy.random
# (about 15 ms and 5 MB) in every process that imports the package
def _trial_masks(rng: "np.random.Generator", trials: int, m: int) -> np.ndarray:
    """(trials, 6) subset masks (bit i for row i+1) of additivity trials.

    Each trial draws two length-m codes in {0, 1, 2}, giving the columns
    (g1, g2, g1 | g2) of a disjoint pair and (inner, outer_only, outer) of
    a strictly nested pair. One draw of every code reads the same PCG64
    stream as two draws per trial.
    """
    codes = rng.integers(0, 3, (trials, 2, m))
    bit = np.int64(1) << np.arange(m, dtype=np.int64)
    g1, g2 = (codes[:, 0] == 1) @ bit, (codes[:, 0] == 2) @ bit
    outer_only, inner = (codes[:, 1] == 1) @ bit, (codes[:, 1] == 2) @ bit
    # force the inclusion to be strict: an empty outer-only part takes the
    # lowest inner row, or row 1 when inner is empty too
    empty = outer_only == 0
    low = np.where(empty, inner & -inner, 0)
    outer_only = np.where(empty, np.where(low, low, 1), outer_only)
    inner ^= low
    return np.stack([g1, g2, g1 | g2, inner, outer_only, outer_only | inner],
                    axis=1)


def _first_failures(matrix: np.ndarray, masks: np.ndarray,
                    chunks: list[tuple[int, int]]) -> np.ndarray:
    """(trials, 2): the first 0-based column where each trial's union and
    difference identity fail, or V where they hold at every column.

    Each subset's ones are gathered by `_gather_counts`. Tables and
    gathered counts are built a block of columns and trials at a time,
    each within _KERNEL_BYTES.
    """
    v = matrix.shape[1]
    width = max(1, min(v, _KERNEL_BYTES // sum(1 << (b - a) for a, b in chunks)))
    step = max(1, _KERNEL_BYTES // (6 * width))
    first = np.full((len(masks), 2), v)
    for c0 in range(0, v, width):
        block = matrix[:, c0:c0 + width].astype(np.int8)
        tables = [partial_counts(block[a:b]) for a, b in chunks]
        shape = (min(step, len(masks)), 6, block.shape[1])
        ones, scratch = np.empty(shape, np.int8), np.empty(shape, np.int8)
        for t0 in range(0, len(masks), step):
            part = masks[t0:t0 + step]
            k = len(part)
            _gather_counts(tables, chunks, part, ones[:k], scratch[:k])
            counts = ones[:k].reshape(k, 2, 3, -1)
            bad = counts[:, :, 0] + counts[:, :, 1] != counts[:, :, 2]
            if bad.any():
                cols = np.where(bad.any(axis=2), c0 + bad.argmax(axis=2), v)
                np.minimum(first[t0:t0 + step], cols, out=first[t0:t0 + step])
    return first


def check_additivity(cb: Codebook, trials: int = 1000, seed: int = 0) -> AdditivityReport:
    """Random trials of the chip-sum identities over row subsets.

    Each trial draws one disjoint pair (union identity) and one strictly
    nested pair (difference identity) from a PCG64 generator seeded by
    `seed`, and compares the identities at every column. The first failing
    trial, if any, is reported as a counterexample.

    With |g1 | g2| = |g1| + |g2|, the union identity S(g1 | g2) = S(g1) +
    S(g2) on chip sums S = 2 * ones - size is ones(g1) + ones(g2) =
    ones(g1 | g2), and the difference identity S(outer - inner) =
    S(outer) - S(inner) is ones(inner) + ones(outer - inner) = ones(outer).
    Trials are drawn and checked _DRAW_TRIALS at a time, so memory does
    not grow with `trials`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    chunks = _row_chunks(cb.n_rows, 6 * min(trials, _DRAW_TRIALS))
    for t0 in range(0, trials, _DRAW_TRIALS):
        masks = _trial_masks(rng, min(_DRAW_TRIALS, trials - t0), cb.n_rows)
        first = _first_failures(cb.matrix(), masks, chunks)
        failed = np.flatnonzero(first.ravel() < cb.v_length)
        if failed.size:
            t, law = divmod(int(failed[0]), 2)
            name, a, b = (("union", 0, 1), ("difference", 3, 5))[law]
            return AdditivityReport(trials, seed, False, {
                "law": name, "g1": list(mask_to_ids(int(masks[t, a]))),
                "g2": list(mask_to_ids(int(masks[t, b]))),
                "column": int(first[t, law]) + 1})
    return AdditivityReport(trials, seed, True, None)


def verify_uniqueness(cb: Codebook, workers: int = 1,
                      max_rows: int = UNIQUENESS_BUDGET_ROWS) -> UniquenessReport:
    """Enumerate every non-empty row subset and detect vector collisions.

    The collision list must come back empty for a correct codebook. The
    subsets are split into exact groups of equal demodulated vectors by
    `_colliding_groups`, which compares whole tiles of bits, never hashes,
    so every group it returns is a set of true collisions. `workers` is
    validated for the CLI's sake; the refinement runs in one thread, and
    the report is the same for any worker count.
    """
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the uniqueness budget of {max_rows}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    groups = _colliding_groups(cb.matrix())
    leaders = np.array([masks[0] for masks in groups])
    vectors = _demodulated(cb.matrix(), leaders) if groups else []
    collisions = sorted((mask_to_ids(a), mask_to_ids(b), vec)
                        for masks, vec in zip(groups, vectors)
                        for a, b in itertools.combinations(masks, 2))
    distinct = 2 ** m - 1 - sum(len(masks) - 1 for masks in groups)
    return UniquenessReport(m, 2 ** m - 1, distinct, collisions,
                            time.perf_counter() - t0)


def verify_no_zero_vector(cb: Codebook,
                          max_rows: int = UNIQUENESS_BUDGET_ROWS) -> bool:
    """True when no non-empty row subset demodulates to the all-zero vector.

    A subset demodulates to all zeros exactly when no column count reaches
    its majority size // 2 + 1, so a subset is settled by the first tile
    holding such a column; the check fails only if one survives every tile.
    """
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the uniqueness budget of {max_rows}")
    return not _unsettled(cb.matrix(), np.arange(1, 1 << m),
                          lambda ones, sizes: (ones > sizes // 2).any(axis=1)).size
