"""Inverting a demodulated superposition back to the transmitting stations.

The all-zero vector is silence: no non-empty subset demodulates to it.
Any other vector is decoded by correlation. The columns of the codebook
are every weight-R pattern over its rows, so the code is symmetric under
row permutations. For y = demod(S) with |S| = k, the count row_i . y
(columns where row i and y are both 1) is therefore the same number A_k
for every member i of S, and the same number B_k for every non-member:

    A_k = sum over 2(j+1) > k of C(k-1, j) * C(rows-k, R-1-j)
    B_k = sum over 2j > k     of C(k, j)   * C(rows-k-1, R-1-j)

(j counts the other members holding a 1 in a column where row i does).
A_k > B_k for every supported size and every 1 <= k < n (the tests check
this in exact integers up to MAX_STATIONS), and for k = n there are no
non-members, so the stations of maximal correlation are
exactly S. The decoder takes that candidate set and checks it against
the channel's majority rule: a match identifies the unique preimage, and
a vector with no preimage can never re-encode to itself, so a mismatch
is a no-match. The check counts the chips where the majority of S's ones,
counted by the codebook as for the channel, differs from y, with no
amplitude sums. The cost is one pass over the packed station rows plus
one count over the column values, O(n * V), with no per-codebook state.

Nearest-match decoding ranks the stations by the same correlation (ties
by station id). By the same symmetry the distance between demod(S) and
demod(T) depends only on the overlap class (|S - T|, |T - S|, |S & T|),
so every non-empty T other than S lies at least r_k from S, where r_k
is the least class distance for |S| = k (see _classes). A set S at
distance d from y with 2 d < r_k is therefore certified: every other T
has d(y, T) >= r_k - d > d, so S is the unique nearest subset.

The first candidate is the gap set: the stations ranked above the
widest drop between neighbouring correlations (the first such drop; all
n stations when n = 1), measured by the same count over the column
values as an exact decode. Noise leaves the members' correlations near
A_k and the others' near B_k, so the widest drop usually falls at the
transmitting set's size. When all n stations send there are no others,
so the drop falls anywhere; when the gap set is not certified, all n
stations are therefore measured the same way. A certified candidate is
returned.

Otherwise the nearer of the two (the gap set on a tie), S at distance
d, starts a search. The triangle inequality puts every T within d of y
inside the classes within 2 d of S, and the decoder searches exactly
those, so the result is the one a scan of all 2^n subsets would give. The
search is sized from the class counts before it starts: one that would
cover more than NEAREST_BUDGET_CHIPS chips (subsets times V, the work of
a full scan at 17 stations) raises SizeLimitError. No input at n <= 17
is refused, and above that a vector close to a subset's is certified or
searched at every size up to MAX_STATIONS.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _classes
from .codebook import Codebook, SizeLimitError, _integer

# the chips of the largest search the old 2^n scan ran: every subset at 17
# stations, so no input at n <= 17 is refused
NEAREST_BUDGET_CHIPS = ((1 << 17) - 1) * math.comb(17, 9)
# stations in the class search's low block, and the most bytes its table holds
_LO_BITS = 8
_LO_TABLE_BYTES = 1 << 26

IDENTIFIED = "identified"
SILENCE = "silence"
NOMATCH = "nomatch"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of inverting a received bitstream.

    kind is one of "identified", "silence", "nomatch". stations is set
    only for identified outcomes. distance is the Hamming distance of the
    matched vector (0 for exact matches) and is reported for nearest-match
    results even when they fail."""
    kind: str
    stations: frozenset[int] | None = None
    distance: int | None = None


def _check_bits(cb: Codebook, received) -> tuple[np.ndarray, bool]:
    """received as a 0/1 uint8 vector, and whether it is silence (all
    0); a wrong length or an entry other than 0 and 1 raises ValueError."""
    arr = np.asarray(received)
    if arr.ndim != 1 or arr.size != cb.v_length:
        raise ValueError(
            f"received vector has length {arr.size}, expected {cb.v_length}")
    # one pass over a uint8 input, whose max also tells silence; other
    # types are compared, not cast, so that a NaN or a wrapped value is
    # refused without a cast warning
    if arr.dtype == np.uint8:
        top = arr.max()
    else:
        ones = arr == 1
        top = ones.max() if (ones | (arr == 0)).all() else 2
        arr = ones.view(np.uint8)
    if top > 1:
        raise ValueError("received vector entries must be 0 or 1")
    return arr, top == 0


def _correlation(cb: Codebook, packed_bits: np.ndarray) -> np.ndarray:
    """Ones shared by the packed bits and each station's codeword."""
    # the padding row of an even-n codebook belongs to no station; a sum
    # is at most V < 2^31, so int32 is exact
    return np.bitwise_count(cb.packed[:cb.n_stations] & packed_bits).sum(
        axis=1, dtype=np.int32)


def decode_exact(cb: Codebook, received) -> DecodeOutcome:
    """Unique preimage of a received bitstream, silence, or no match."""
    bits, silent = _check_bits(cb, received)
    if silent:
        return DecodeOutcome(SILENCE, None, 0)
    corr = _correlation(cb, np.packbits(bits))
    members = np.flatnonzero(corr == corr.max()).tolist()
    if _mismatches(cb, members, bits):
        return DecodeOutcome(NOMATCH)
    return DecodeOutcome(IDENTIFIED, frozenset(i + 1 for i in members), 0)


def _mismatches(cb: Codebook, members: list[int], bits: np.ndarray) -> int:
    """Chips where demod of the stations `members` (0-based) differs from
    the 0/1 uint8 `bits`: a column demodulates to 1 when more than half
    of the members hold a 1 in it, counted a block of columns at a time."""
    need = len(members) // 2 + 1
    chips = bits.view(bool)
    miss = 0
    for cols, ones in cb._ones(members):
        miss += np.count_nonzero((ones >= need) != chips[cols])
    return int(miss)


def decode_nearest(cb: Codebook, received, max_dist: int) -> DecodeOutcome:
    """Nearest reachable vector by Hamming distance, if unique and close.

    Returns the unique subset at minimum distance when that minimum is at
    most max_dist; a tie for the minimum, or a minimum beyond max_dist, is
    a no-match (a detected failure beats a guessed ACK set). An all-zero
    input is silence regardless of max_dist. Near-zero nonzero inputs are
    matched against subset vectors only, since silence is defined by the
    exact all-zero vector. max_dist must be a non-negative integer (a
    numpy integer is held as an int); any other value raises ValueError.

    The gap set (the stations above the widest drop in the ranked
    correlations), at distance d, is returned when 2 d < r_k, the least
    distance from its vector to any other subset's: every other subset
    is then at least r_k - d > d away. Failing that, all n stations are
    measured and returned under the same certificate, the case where
    every station sends. Each distance is counted from the column
    values, with no superposition. When neither is certified, the
    overlap classes are searched from the nearer of the two. An input
    whose exact search would cover more than NEAREST_BUDGET_CHIPS subset
    chips raises SizeLimitError before the search starts.
    """
    max_dist = _integer("max_dist", max_dist)
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    bits, silent = _check_bits(cb, received)
    if silent:
        return DecodeOutcome(SILENCE, None, 0)
    n = cb.n_stations
    corr = _correlation(cb, np.packbits(bits))
    order = np.argsort(-corr, kind="stable")
    # the gap set: the stations ranked above the first widest drop in
    # correlation, or the one station when n = 1
    ranked = corr[order]
    k = int((ranked[:-1] - ranked[1:]).argmax()) + 1 if n > 1 else 1
    members = sorted(order[:k].tolist())
    best = _mismatches(cb, members, bits)
    if 2 * best >= _classes.radius(n, k) and k < n:
        # all n stations: when every one sends, no drop sets them apart
        everyone = list(range(n))
        dist = _mismatches(cb, everyone, bits)
        if dist < best:
            k, members, best = n, everyone, dist
    ties = 1
    if 2 * best >= _classes.radius(n, k):
        best, members, ties = _nearest_by_class(cb, bits, members, best)
    if best > max_dist or ties > 1:
        return DecodeOutcome(NOMATCH, None, best)
    return DecodeOutcome(IDENTIFIED, frozenset(i + 1 for i in members), best)


def _flip_rows(cb: Codebook, cols: np.ndarray, width: int) -> np.ndarray:
    """int8 (n_stations, width) rows of the stations' chips at cols, then
    zero columns, walked into by `Codebook._rows_into` in one call."""
    flip = np.zeros((cb.n_stations, width), np.int8)
    cb._rows_into(flip[:, :cols.size].view(np.uint8), cols)
    return flip


def _nearest_by_class(cb: Codebook, bits: np.ndarray, members: list[int],
                      dist: int) -> tuple[int, list[int], int]:
    """(distance, stations, count) of the subsets nearest to bits, given a
    subset S (station indices) at distance dist from it.

    Every T with d(bits, T) <= dist lies within 2*dist of S, so only the
    overlap classes (a, b) = (|S - T|, |T - S|) with class distance at most
    2*dist are searched, and they hold every nearest subset. T is S with a
    members dropped and b non-members added, so its chip counts are those
    of S plus a signed sum of rows: -1 for a member, +1 for a non-member.
    The signed sums over a low block of stations are tabulated once by the
    lowbit recurrence, and each high-block flip set adds its own sum to
    the table rows that complete an enumerated class.
    """
    n, k, rows = cb.n_stations, len(members), cb.n_rows
    in_class = np.zeros((k + 1, n - k + 1), bool)
    for a, b in _classes.other_classes(n, k):
        in_class[a, b] = _classes.class_distance(rows, a, b, k - a) <= 2 * dist
    subsets = sum(math.comb(k, a) * math.comb(n - k, b)
                  for a, b in zip(*np.nonzero(in_class)))
    if subsets * cb.v_length > NEAREST_BUDGET_CHIPS:
        raise SizeLimitError(
            f"an exact search of {subsets} subsets of {cb.v_length} chips "
            f"exceeds the nearest-decode budget of {NEAREST_BUDGET_CHIPS} "
            f"chips")
    # classes that a partial flip set can still grow into
    open_class = np.logical_or.accumulate(
        np.logical_or.accumulate(in_class[::-1], axis=0)[:, ::-1],
        axis=1)[::-1, ::-1]

    # d(bits, T) = |demod T| + |bits| - 2 |demod T & bits|, and |demod T|
    # is known from |T| alone, so only the columns on one side of bits are
    # needed: the ones, or the zeros where |demod T & bits| = |demod T| -
    # |demod T & ~bits|. The side is padded with zero columns, which stay
    # below every threshold, to whole 64-bit words for the popcount.
    on_ones = 2 * np.count_nonzero(bits) <= bits.size
    cols = np.flatnonzero(bits if on_ones else bits == 0)
    width = -(-cols.size // 64) * 64
    is_member = np.zeros(n, bool)
    is_member[members] = True
    flip = _flip_rows(cb, cols, width)
    base = flip.sum(axis=0, dtype=np.int8, where=is_member[:, None])
    np.negative(flip, out=flip, where=is_member[:, None])
    weight = np.array([_classes.demod_weight(rows, s) for s in range(n + 1)])
    offset = np.count_nonzero(bits) + (weight if on_ones else -weight)
    sign = -2 if on_ones else 2

    n_lo = min(n, _LO_BITS)
    while n_lo > 1 and (1 << n_lo) * width > _LO_TABLE_BYTES:
        n_lo -= 1
    lo_masks = np.arange(1 << n_lo)
    lo_members = sum(1 << i for i in range(n_lo) if is_member[i])
    lo_a = np.bitwise_count(lo_masks & lo_members)
    lo_b = np.bitwise_count(lo_masks & ~lo_members)
    table = np.empty((1 << n_lo, width), np.int8)
    table[0] = 0
    for mask in range(1, 1 << n_lo):
        if open_class[lo_a[mask], lo_b[mask]]:
            low = mask & -mask
            np.add(table[mask ^ low], flip[low.bit_length() - 1],
                   out=table[mask])

    best, best_set, ties = dist, members, 1
    hi_members = [i for i in range(n_lo, n) if is_member[i]]
    hi_others = [i for i in range(n_lo, n) if not is_member[i]]
    for a_hi, b_hi in zip(*np.nonzero(open_class)):
        if a_hi > len(hi_members) or b_hi > len(hi_others):
            continue
        sel = np.flatnonzero(in_class[a_hi + lo_a, b_hi + lo_b])
        if not sel.size:
            continue
        size = k - a_hi - lo_a[sel] + b_hi + lo_b[sel]
        threshold = (size // 2 + 1).astype(np.int8)[:, None]
        rows_sel = table[sel]
        block = np.empty_like(rows_sel)
        for drop, dropped in _running_sums(base, flip, hi_members, a_hi):
            for add, cur in _running_sums(dropped, flip, hi_others, b_hi):
                np.add(rows_sel, cur, out=block)
                hits = np.bitwise_count(np.packbits(
                    block >= threshold, axis=1).view(np.uint64)).sum(
                        axis=1, dtype=np.int64)
                d = offset[size] + sign * hits
                low = int(d.min())
                if low > best:
                    continue
                at = np.flatnonzero(d == low)
                if low < best:
                    best, ties = low, 0
                    lo_mask = int(sel[at[0]])
                    best_set = sorted(
                        (set(members) - set(drop) | set(add))
                        ^ {i for i in range(n_lo) if lo_mask >> i & 1})
                ties += at.size
    return best, best_set, ties


def _running_sums(start: np.ndarray, rows: np.ndarray, pool: list[int],
                  size: int):
    """Yield (combo, start plus the rows in combo) for each size-combination
    of pool, in itertools order. Each sum extends the sum of the prefix it
    shares with the previous combination, so most cost one row; a yielded
    sum is valid until the next is drawn."""
    sums = [start] + [np.empty_like(start) for _ in range(size)]
    prev = ()
    for combo in itertools.combinations(pool, size):
        shared = 0
        while shared < len(prev) and combo[shared] == prev[shared]:
            shared += 1
        for j in range(shared, size):
            np.add(sums[j], rows[combo[j]], out=sums[j + 1])
        prev = combo
        yield combo, sums[size]
