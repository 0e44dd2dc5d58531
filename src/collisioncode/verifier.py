"""Machine checks of the codebook's chip-sum structure.

These operations work at the row level of the matrix (for even station
counts that includes the padding row) and re-establish, by enumeration
or seeded trials rather than by trust, the facts the decoder relies on:

* the rows of maximal correlation with demod(S) are exactly the rows of
  S, the premise of exact decoding (seeded random subsets S);
* every proper non-empty row subset has a witness column where its chip
  sum is +1 (odd-size subsets) or 0 (even-size subsets);
* distinct non-empty subsets demodulate to distinct vectors;
* no non-empty subset demodulates to the all-zero vector.

Every check forms chip sums with the one kernel of `_subsets`: a float32
matmul of the subsets' 0/1 membership rows and the +1/-1 amplitudes of a
column block, whose positive sums are demod(S); the vectors a collision
report prints are counted by the codebook, as the channel's are.
`check_additivity` (named for the chip-sum identities it used to test)
forms demod(S) so for its trial subsets, a block of columns at a time,
and adds each row's signed correlation with it by a second matmul with
the same block. The other three facts are enumerated over every row
subset, reading the sums from `_chip_sums`:

* the three enumerations visit the columns in tiles of 64, spread over
  the whole codeword (`_column_tiles`), and count a tile only for the
  subsets that the earlier tiles left unresolved. On the canonical codes
  of up to 15 stations the first tile resolves all but at most four
  subsets, and the second the rest;
* `sweep_witnesses` drops a subset once a tile holds its witness sum;
  the subsets no tile drops are the failures;
* `verify_no_zero_vector` first settles, without a matmul, every subset
  whose chip sums total more than zero over the whole codeword: the
  total is the sum of 2 * weight - V over the subset's rows, and a
  positive total needs a positive chip sum. It scans only the rest (on
  the canonical codes, none), dropping a subset once a tile holds a
  positive chip sum; a subset that survives every tile demodulates to
  all zeros;
* `verify_uniqueness` refines an exact partition of the subsets: each
  tile packs a subset's demodulated bits into one uint64 word. Subsets
  whose word no other subset holds leave at once, found by one sort of
  the words; groups split on the word and singletons leave. The groups
  left after the last tile are the collisions. Nothing is hashed, so no
  tie is ever re-checked.

One row budget, UNIQUENESS_BUDGET_ROWS, read whenever an enumeration is
called, keeps all three 2^rows scans at desk scale. The claims trials need
no row budget; a run is refused when its trials times V exceed
_CLAIMS_BUDGET_CHIPS.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _subsets
from ._subsets import _chip_sums, _membership, _signed, mask_to_ids
from .codebook import Codebook, SizeLimitError, _integer

UNIQUENESS_BUDGET_ROWS = 15  # rows of every enumeration
_TILE_COLUMNS = 64  # columns per tile: one uint64 word of demodulated bits
_DRAW_TRIALS = 1 << 12  # claims trials drawn and checked at once
# trial chips (trials times V) of one claims run: the default 1000 trials
# at the 25-station cap
_CLAIMS_BUDGET_CHIPS = 1000 * math.comb(25, 13)


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
    """Seeded random check that demod(S) correlates most with S's rows."""
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


def _column_tiles(v: int) -> list[np.ndarray]:
    """0-based columns of each of the ceil(v / 64) tiles of a v-column matrix.

    With T tiles, tile t holds columns t, t + T, t + 2T, ..., so each tile
    samples the whole codeword and every column is in exactly one tile.
    """
    n_tiles = -(-v // _TILE_COLUMNS)
    return [np.arange(t, v, n_tiles) for t in range(n_tiles)]


def _unsettled(cb: Codebook, live: np.ndarray, settles) -> np.ndarray:
    """The subset masks of `live` that no column of the codebook settles.

    settles(sums, masks) marks the subsets whose chip sums on one tile
    settle them. Tiles are visited in order and each counts only the
    subsets that every earlier tile left unsettled.
    """
    for cols in _column_tiles(cb.v_length):
        if not live.size:
            break
        keep = np.empty(len(live), bool)
        for sl, sums in _chip_sums(cb, cols, live):
            keep[sl] = ~settles(sums, live[sl])
        live = live[keep]
    return live


def _colliding_groups(cb: Codebook) -> list[list[int]]:
    """Every group of two or more non-empty row subsets with one
    demodulated vector, each as ascending subset masks.

    An exact partition of the subsets is refined a tile at a time: each
    subset's demodulated bits on the tile are packed into one uint64 word.
    A subset whose word no other subset holds is a singleton whatever its
    group, so it is dropped before the rest are sorted on (group, word);
    groups split where the word changes, and the singletons this leaves
    are dropped. Subsets still grouped after the last tile agree on every
    column.
    """
    live = np.arange(1, 1 << cb.n_rows)
    group = np.zeros(len(live), np.int64)  # non-decreasing along live
    for cols in _column_tiles(cb.v_length):
        if not live.size:
            break
        words = np.zeros((len(live), 8), np.uint8)
        for sl, sums in _chip_sums(cb, cols, live):
            words[sl, :-(-len(cols) // 8)] = np.packbits(sums > 0, axis=1)
        words = words.view(np.uint64).ravel()
        lead = np.empty(len(live), bool)  # first subset of its group
        lead[0] = True
        np.not_equal(group[1:], group[:-1], out=lead[1:])
        if (words == words[lead][np.cumsum(lead) - 1]).all():
            continue  # no group splits on this tile
        # a subset whose word no other subset holds is a singleton
        ordered = np.sort(words)
        held = np.flatnonzero(
            np.isin(words, ordered[1:][ordered[1:] == ordered[:-1]]))
        # keeps every group in place
        order = held[np.lexsort((words[held], group[held]))]
        live, group, words = live[order], group[order], words[order]
        lead = np.empty(len(live), bool)  # first subset of its new group
        lead[:1] = True
        lead[1:] = (group[1:] != group[:-1]) | (words[1:] != words[:-1])
        group = np.cumsum(lead)
        shared = np.bincount(group)[group] > 1
        live, group = live[shared], group[shared]
    live = live[np.lexsort((live, group))].tolist()
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(live)]
    return [live[a:b] for a, b in zip(bounds, bounds[1:]) if b - a > 1]


def _demodulated(cb: Codebook, masks: np.ndarray) -> list[str]:
    """The demodulated vector of each subset in `masks`, as a string."""
    chars = np.empty((len(masks), cb.v_length), np.uint8)
    for row, mask in zip(chars, masks.tolist()):
        ids = mask_to_ids(mask)
        for cols, ones in cb._ones([i - 1 for i in ids]):
            np.greater_equal(ones, len(ids) // 2 + 1, out=row[cols])
    chars += ord("0")
    return [row.tobytes().decode("ascii") for row in chars]


def _check_budget(m: int, name: str) -> None:
    if m > UNIQUENESS_BUDGET_ROWS:
        raise SizeLimitError(f"n_rows={m} exceeds the {name} budget of "
                             f"{UNIQUENESS_BUDGET_ROWS}")


def sweep_witnesses(cb: Codebook) -> WitnessSweepReport:
    """Check witness existence for every proper non-empty row subset.

    For subset size g the witness is a column whose chip sum is g % 2
    (+1 for odd g, 0 for even g), that is, a column holding exactly
    floor((g+1)/2) ones over the subset. A subset is settled by the first
    tile holding such a column, and the subsets that no tile settles are
    the failures.
    """
    def settles(sums, masks):
        return (sums == (np.bitwise_count(masks) & 1)[:, None]).any(axis=1)

    m = cb.n_rows
    _check_budget(m, "witness sweep")
    t0 = time.perf_counter()
    unsettled = _unsettled(cb, np.arange(1, (1 << m) - 1), settles)
    failures = sorted(mask_to_ids(mask) for mask in unsettled.tolist())
    return WitnessSweepReport(m, max(2 ** m - 2, 0), failures,
                              time.perf_counter() - t0)


def check_additivity(cb: Codebook, trials: int = 1000, seed: int = 0) -> AdditivityReport:
    """Seeded random trials of the premise that exact decoding relies on.

    Each trial draws a non-empty row subset S, as a uniform mask from a
    PCG64 generator seeded by `seed`, and requires the rows of maximal
    correlation with demod(S) (the count of columns where a row and
    demod(S) are both 1) to be exactly S. The first failing trial is the
    counterexample: its rows and the rows of maximal correlation.

    Per column block, demod(S) is the positive chip sums of S's membership
    row times the +1/-1 block, and each row's signed correlation with it,
    2 * (shared ones) - |demod(S)|, ranks the rows as the shared ones do.
    float32 matmuls are exact here: no value exceeds V <= C(25, 13) <
    2^24. Trials are drawn and checked _DRAW_TRIALS at a time, which reads
    the same stream as one draw, so memory does not grow with `trials`.
    A run of more than _CLAIMS_BUDGET_CHIPS (trials times V) is refused,
    and so is a negative seed, both before any draw. `trials` and `seed`
    must be integers; a numpy integer is held as an int.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    m, v = cb.n_rows, cb.v_length
    if trials * v > _CLAIMS_BUDGET_CHIPS:
        raise SizeLimitError(f"{trials} trials of {v} chips exceed the claims "
                             f"budget of {_CLAIMS_BUDGET_CHIPS} chips")
    rng = np.random.default_rng(seed)
    for t0 in range(0, trials, _DRAW_TRIALS):
        masks = rng.integers(1, 1 << m, min(_DRAW_TRIALS, trials - t0))
        member = _membership(masks, m)
        corr = np.zeros((len(masks), m), np.float32)
        width = max(1, _subsets._KERNEL_BYTES // 4 // max(len(masks), m))
        for c0 in range(0, v, width):
            signed = _signed(cb, slice(c0, c0 + width))
            demod = member @ signed
            np.greater(demod, 0, out=demod)  # demod(S), as 0.0 / 1.0
            corr += demod @ signed.T
        top = corr == corr.max(axis=1, keepdims=True)
        failed = np.flatnonzero((top != (member == 1)).any(axis=1))
        if failed.size:
            t = int(failed[0])
            return AdditivityReport(trials, seed, False, {
                "rows": (np.flatnonzero(member[t]) + 1).tolist(),
                "top": (np.flatnonzero(top[t]) + 1).tolist()})
    return AdditivityReport(trials, seed, True, None)


def verify_uniqueness(cb: Codebook, workers: int = 1) -> UniquenessReport:
    """Enumerate every non-empty row subset and detect vector collisions.

    The collision list must come back empty for a correct codebook. The
    subsets are split into exact groups of equal demodulated vectors by
    `_colliding_groups`, which compares whole tiles of bits, never hashes,
    so every group it returns is a set of true collisions. `workers` must
    be >= 1 and changes nothing: the refinement runs in one thread.
    """
    m = cb.n_rows
    _check_budget(m, "uniqueness")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    groups = _colliding_groups(cb)
    leaders = np.array([masks[0] for masks in groups])
    vectors = _demodulated(cb, leaders) if groups else []
    collisions = sorted((mask_to_ids(a), mask_to_ids(b), vec)
                        for masks, vec in zip(groups, vectors)
                        for a, b in itertools.combinations(masks, 2))
    distinct = 2 ** m - 1 - sum(len(masks) - 1 for masks in groups)
    return UniquenessReport(m, 2 ** m - 1, distinct, collisions,
                            time.perf_counter() - t0)


def verify_no_zero_vector(cb: Codebook) -> bool:
    """True when no non-empty row subset demodulates to the all-zero vector.

    A subset demodulates to all zeros exactly when none of its chip sums
    is positive. Summed over every column, the chip sums of subset S
    total the sum over its rows r of 2 * w_r - V, w_r being row r's
    weight, and a positive total needs a positive chip sum. The totals
    of all 2^m subsets are tabulated by doubling, one addition per row,
    and settle every subset whose total is positive. Only the others are
    scanned, each settled by the first tile holding a positive sum; the
    check fails only if one survives every tile. On the canonical codes
    every row has 2 * w_r - V = V / m > 0, so no subset is scanned.
    """
    m = cb.n_rows
    _check_budget(m, "uniqueness")
    weights = np.bitwise_count(cb.packed).sum(axis=1, dtype=np.int64)
    gains = 2 * weights - cb.v_length  # each row's share of a total
    totals = np.zeros(1 << m, np.int64)  # totals[mask]; bit r is row r + 1
    for r in range(m):
        np.add(totals[:1 << r], gains[r], out=totals[1 << r:2 << r])
    return not _unsettled(cb, np.flatnonzero(totals[1:] <= 0) + 1,
                          lambda sums, _: (sums > 0).any(axis=1)).size
