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

Enumeration budgets keep the 2^rows scans at desk scale and can be raised
per call.
"""

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._subsets import count_blocks, demod_blocks, mask_to_ids, split_rows
from .codebook import Codebook, SizeLimitError, bits_to_str

UNIQUENESS_BUDGET_ROWS = 15
WITNESS_SWEEP_BUDGET_ROWS = 11


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


def check_additivity(cb: Codebook, trials: int = 1000, seed: int = 0) -> AdditivityReport:
    """Random trials of the chip-sum identities over row subsets.

    Each trial draws one disjoint pair (union identity) and one strictly
    nested pair (difference identity) from a PCG64 generator seeded by
    `seed`, and compares the identities at every column. The first failing
    trial, if any, is reported as a counterexample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = cb.n_rows

    def ids(idx: np.ndarray) -> list[int]:
        return [int(i) + 1 for i in idx]

    for _ in range(trials):
        codes = rng.integers(0, 3, m)
        g1 = np.flatnonzero(codes == 1)
        g2 = np.flatnonzero(codes == 2)
        union = np.flatnonzero(codes > 0)
        lhs = _sums_vector(cb, list(union))
        rhs = _sums_vector(cb, list(g1)) + _sums_vector(cb, list(g2))
        if not np.array_equal(lhs, rhs):
            col = int(np.flatnonzero(lhs != rhs)[0]) + 1
            return AdditivityReport(trials, seed, False, {
                "law": "union", "g1": ids(g1), "g2": ids(g2), "column": col})

        # nested pair: 0 = outside, 1 = outer only, 2 = inner and outer
        codes = rng.integers(0, 3, m)
        outer_only = np.flatnonzero(codes == 1)
        inner = np.flatnonzero(codes == 2)
        if outer_only.size == 0:  # force the inclusion to be strict
            if inner.size:
                outer_only, inner = inner[:1], inner[1:]
            else:
                outer_only = np.array([0])
        outer = np.sort(np.concatenate([outer_only, inner]))
        lhs = _sums_vector(cb, list(outer_only))
        rhs = _sums_vector(cb, list(outer)) - _sums_vector(cb, list(inner))
        if not np.array_equal(lhs, rhs):
            col = int(np.flatnonzero(lhs != rhs)[0]) + 1
            return AdditivityReport(trials, seed, False, {
                "law": "difference", "g1": ids(inner), "g2": ids(outer),
                "column": col})
    return AdditivityReport(trials, seed, True, None)


def _hi_chunks(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    step = -(-total // workers)
    return [(a, min(a + step, total)) for a in range(0, total, step)]


def verify_uniqueness(cb: Codebook, workers: int = 1,
                      max_rows: int = UNIQUENESS_BUDGET_ROWS) -> UniquenessReport:
    """Enumerate every non-empty row subset and detect vector collisions.

    The collision list must come back empty for a correct codebook. Each
    subset's demodulated vector is hashed into one array indexed by subset
    mask; workers > 1 fill disjoint ranges of the high row block, so
    nothing is merged and the report is the same for any worker count.
    Subsets whose hashes tie are demodulated again and grouped by their
    exact vector, so a hash clash cannot fake or hide a collision.
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

    def fill(chunk: tuple[int, int]) -> None:
        for masks, packed in demod_blocks(matrix, m, n_lo=n_lo, hi_range=chunk):
            keys[masks] = [hash(row.tobytes()) for row in packed]

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
    for masks, packed in demod_blocks(cb.matrix(), m):
        zero = np.flatnonzero(~packed.any(axis=1))
        if zero.size and (masks[zero] != 0).any():
            return False
    return True
