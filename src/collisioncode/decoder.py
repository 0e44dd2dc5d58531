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
exactly S. The decoder takes that candidate set and re-encodes it through
the channel's majority rule: a match identifies the unique preimage, and
a vector with no preimage can never re-encode to itself, so a mismatch
is a no-match. The cost is one pass over the packed station rows plus one
superposition, O(n * V), with no per-codebook state.

Nearest-match decoding still scans all 2^n subsets and is refused above
NEAREST_BUDGET_STATIONS stations.
"""

from dataclasses import dataclass

import numpy as np

from ._subsets import POPCOUNT8, demod_blocks, mask_to_ids
from .channel import demodulate, superpose
from .codebook import Codebook, SizeLimitError

NEAREST_BUDGET_STATIONS = 17

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


def _check_bits(cb: Codebook, received) -> np.ndarray:
    arr = np.asarray(received)
    if arr.ndim != 1 or arr.size != cb.v_length:
        raise ValueError(
            f"received vector has length {arr.size}, expected {cb.v_length}")
    if ((arr != 0) & (arr != 1)).any():
        raise ValueError("received vector entries must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def decode_exact(cb: Codebook, received) -> DecodeOutcome:
    """Unique preimage of a received bitstream, silence, or no match."""
    bits = _check_bits(cb, received)
    if not bits.any():
        return DecodeOutcome(SILENCE, None, 0)
    # the padding row of an even-n codebook belongs to no station
    corr = POPCOUNT8[cb.packed[:cb.n_stations] & np.packbits(bits)].sum(
        axis=1, dtype=np.int64)
    stations = frozenset((np.flatnonzero(corr == corr.max()) + 1).tolist())
    if not np.array_equal(demodulate(superpose(cb, stations)), bits):
        return DecodeOutcome(NOMATCH)
    return DecodeOutcome(IDENTIFIED, stations, 0)


def decode_nearest(cb: Codebook, received, max_dist: int) -> DecodeOutcome:
    """Nearest reachable vector by Hamming distance, if unique and close.

    Returns the unique subset at minimum distance when that minimum is at
    most max_dist; a tie for the minimum, or a minimum beyond max_dist, is
    a no-match (a detected failure beats a guessed ACK set). An all-zero
    input is silence regardless of max_dist. Near-zero nonzero inputs are
    matched against subset vectors only, since silence is defined by the
    exact all-zero vector. The search enumerates every subset, so codebooks
    above NEAREST_BUDGET_STATIONS stations raise SizeLimitError.
    """
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    if cb.n_stations > NEAREST_BUDGET_STATIONS:
        raise SizeLimitError(
            f"n_stations={cb.n_stations} exceeds the nearest-decode budget "
            f"of {NEAREST_BUDGET_STATIONS}")
    bits = _check_bits(cb, received)
    if not bits.any():
        return DecodeOutcome(SILENCE, None, 0)
    target = np.frombuffer(np.packbits(bits).tobytes(), np.uint8)
    sentinel = cb.v_length + 1
    best = sentinel
    best_mask = 0
    ties = 0
    for masks, packed in demod_blocks(cb.matrix(), cb.n_stations):
        dists = POPCOUNT8[packed ^ target].sum(axis=1, dtype=np.int64)
        zero_pos = np.flatnonzero(masks == 0)
        if zero_pos.size:
            dists[zero_pos] = sentinel
        block_min = int(dists.min())
        if block_min < best:
            hits = np.flatnonzero(dists == block_min)
            best, best_mask, ties = block_min, int(masks[hits[0]]), len(hits)
        elif block_min == best:
            ties += int((dists == block_min).sum())
    if best > max_dist or ties > 1:
        return DecodeOutcome(NOMATCH, None, best if best < sentinel else None)
    return DecodeOutcome(IDENTIFIED, frozenset(mask_to_ids(best_mask)), best)


def contains_station(cb: Codebook, received, station: int) -> str:
    """Membership of one station in a received vector's preimage.

    Returns "present", "absent" (including silence), or "undecodable" when
    the vector has no preimage."""
    if not 1 <= station <= cb.n_stations:
        raise ValueError(
            f"station {station} out of range 1..{cb.n_stations}")
    outcome = decode_exact(cb, received)
    if outcome.kind == IDENTIFIED:
        return "present" if station in outcome.stations else "absent"
    if outcome.kind == SILENCE:
        return "absent"
    return "undecodable"
