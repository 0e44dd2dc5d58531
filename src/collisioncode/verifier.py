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

The additivity identities are checked on seeded random trials; the other
three facts by enumerating every row subset in blocks (`_subsets`):

* `check_additivity` draws blocks of trials as subset masks, gathers
  each subset's column counts from `partial_counts` tables over a few
  chunks of rows, a block of columns at a time, and tests both
  identities as sums of counts at every column;
* `sweep_witnesses` looks for the witness count in each `count_blocks`
  block;
* `verify_uniqueness` keys each packed `demod_blocks` vector with one
  vectorized multiply-sum per block and re-demodulates only the subsets
  whose keys tie;
* `verify_no_zero_vector` reads the all-zero case off `count_blocks`: a
  subset demodulates to all zeros exactly when no column count reaches
  its majority.

Enumeration budgets keep the 2^rows scans at desk scale and can be raised
per call; the additivity trials need no row budget.
"""

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._subsets import (DEFAULT_LO_BITS, count_blocks, demod_blocks, mask_to_ids,
                       partial_counts, split_rows)
from .codebook import Codebook, SizeLimitError, bits_to_str

UNIQUENESS_BUDGET_ROWS = 15
WITNESS_SWEEP_BUDGET_ROWS = 11
_KERNEL_BYTES = 1 << 20  # tables, or gathered counts, of one additivity block
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


def sweep_witnesses(cb: Codebook,
                    max_rows: int = WITNESS_SWEEP_BUDGET_ROWS) -> WitnessSweepReport:
    """Check witness existence for every proper non-empty row subset.

    For subset size g the witness condition (+1 for odd g, 0 for even g)
    is equivalent to some column holding exactly floor((g+1)/2) ones over
    the subset, which one scan of the count blocks answers.
    """
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the witness sweep budget of {max_rows}")
    t0 = time.perf_counter()
    full = (1 << m) - 1
    failures: list[tuple[int, ...]] = []
    for masks, counts, sizes in count_blocks(cb.matrix(), m):
        targets = (sizes + np.int8(1)) // 2
        found = (counts == targets[:, None]).any(axis=1)
        for pos in np.flatnonzero(~found):
            mask = int(masks[pos])
            if mask not in (0, full):
                failures.append(mask_to_ids(mask))
    failures.sort()
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


def _row_chunks(m: int, trials: int) -> list[tuple[int, int]]:
    """Row ranges of the partial-count tables for a block of trials.

    Per column, k balanced chunks cost their table rows (sum of 2^size)
    plus one gathered row per chunk for each of the 6 subsets of each
    trial; take the cheapest k whose chunks hold at most DEFAULT_LO_BITS
    rows.
    """
    def sizes(k: int) -> list[int]:
        return [m // k + (i < m % k) for i in range(k)]

    best = min(range(-(-m // DEFAULT_LO_BITS), m + 1),
               key=lambda k: sum(1 << s for s in sizes(k)) + 6 * trials * k)
    stops = itertools.accumulate(sizes(best))
    return [(stop - size, stop) for size, stop in zip(sizes(best), stops)]


def _first_failures(matrix: np.ndarray, masks: np.ndarray,
                    chunks: list[tuple[int, int]]) -> np.ndarray:
    """(trials, 2): the first 0-based column where each trial's union and
    difference identity fail, or V where they hold at every column.

    The ones of every subset are the sum of one row per chunk, looked up in
    that chunk's `partial_counts` table. Tables and gathered counts are
    built a block of columns and trials at a time, each within
    _KERNEL_BYTES.
    """
    v = matrix.shape[1]
    index = [masks >> a & ((1 << (b - a)) - 1) for a, b in chunks]
    width = max(1, min(v, _KERNEL_BYTES // sum(1 << (b - a) for a, b in chunks)))
    step = max(1, _KERNEL_BYTES // (6 * width))
    first = np.full((len(masks), 2), v)
    for c0 in range(0, v, width):
        block = matrix[:, c0:c0 + width].astype(np.int8)
        tables = [partial_counts(block[a:b]) for a, b in chunks]
        for t0 in range(0, len(masks), step):
            ones = tables[0][index[0][t0:t0 + step]]
            for table, idx in zip(tables[1:], index[1:]):
                ones += table[idx[t0:t0 + step]]
            ones = ones.reshape(-1, 2, 3, ones.shape[-1])
            bad = ones[:, :, 0] + ones[:, :, 1] != ones[:, :, 2]
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
    chunks = _row_chunks(cb.n_rows, min(trials, _DRAW_TRIALS))
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


def _hi_chunks(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    step = -(-total // workers)
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def _key_multipliers(v: int) -> np.ndarray:
    """Fixed odd uint64 multipliers, one per 8-byte word of a packed vector."""
    mults = np.random.default_rng(0).integers(0, 1 << 64, -(-v // 64), np.uint64)
    return mults | np.uint64(1)


def _block_keys(packed: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """One int64 key per packed row: its zero-padded uint64 words times
    `mults`, summed with wraparound. Equal rows get equal keys."""
    words = np.zeros((len(packed), len(mults)), np.uint64)
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return (words * mults).sum(axis=1, dtype=np.uint64).view(np.int64)


def verify_uniqueness(cb: Codebook, workers: int = 1,
                      max_rows: int = UNIQUENESS_BUDGET_ROWS) -> UniquenessReport:
    """Enumerate every non-empty row subset and detect vector collisions.

    The collision list must come back empty for a correct codebook. Each
    subset's packed demodulated vector gets a multiply-sum key (see
    `_block_keys`) in one array indexed by subset mask; workers > 1 fill
    disjoint ranges of the high row block, so nothing is merged and the
    report is the same for any worker count. Subsets whose keys tie are
    demodulated again and grouped by their exact vector, so a key clash
    cannot fake or hide a collision.
    """
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the uniqueness budget of {max_rows}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    matrix = cb.matrix()
    n_lo = split_rows(m, cb.v_length)
    chunks = _hi_chunks(1 << (m - n_lo), workers)
    keys = np.empty(1 << m, np.int64)
    mults = _key_multipliers(cb.v_length)

    def fill(chunk: tuple[int, int]) -> None:
        for masks, packed in demod_blocks(matrix, m, n_lo=n_lo, hi_range=chunk):
            keys[masks] = _block_keys(packed, mults)

    if len(chunks) == 1:
        fill(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(fill, chunks))

    order = np.argsort(keys[1:], kind="stable") + 1  # mask 0 is not a subset
    ties = np.flatnonzero(np.diff(keys[order]) == 0)
    groups: dict[str, list[int]] = {}
    for mask in sorted(set(order[ties].tolist()) | set(order[ties + 1].tolist())):
        idx = [i - 1 for i in mask_to_ids(mask)]
        vec = bits_to_str(_sums_vector(cb, idx) >= 1)
        groups.setdefault(vec, []).append(mask)
    collisions = sorted(
        (mask_to_ids(a), mask_to_ids(b), vec)
        for vec, masks in groups.items()
        for a, b in itertools.combinations(masks, 2))
    distinct = 2 ** m - 1 - sum(len(masks) - 1 for masks in groups.values())
    return UniquenessReport(m, 2 ** m - 1, distinct, collisions,
                            time.perf_counter() - t0)


def verify_no_zero_vector(cb: Codebook,
                          max_rows: int = UNIQUENESS_BUDGET_ROWS) -> bool:
    """True when no non-empty row subset demodulates to the all-zero vector."""
    m = cb.n_rows
    if m > max_rows:
        raise SizeLimitError(
            f"n_rows={m} exceeds the uniqueness budget of {max_rows}")
    for masks, counts, sizes in count_blocks(cb.matrix(), m):
        # all-zero exactly when no column reaches the majority size // 2 + 1
        zero = np.flatnonzero(counts.max(axis=1) <= sizes // 2)
        if zero.size and (masks[zero] != 0).any():
            return False
    return True
