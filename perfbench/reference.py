"""Independent reference for the collision code, used to check the program.

Built from the code's definition alone and sharing no code with the
`collisioncode` package: the matrix columns are every weight-R pattern of
`rows` bits in descending value (row 1 is the most significant bit), a chip
demodulates to 1 exactly when strictly more transmitters sent 1 than 0, and
nearest decoding is a brute-force scan over every non-empty station subset.
The closed forms give, for a k-station subset, the weight of its
demodulated vector and the total of its amplitude sums.
"""

from math import comb

import numpy as np

NEAREST_MAX_STATIONS = 13


def shape(n_stations: int) -> tuple[int, int, int]:
    """(rows, R, V): an even station count uses one extra, unassigned row."""
    rows = n_stations + (n_stations % 2 == 0)
    r = (rows + 1) // 2
    return rows, r, comb(rows, r)


def column_values(n_stations: int) -> np.ndarray:
    """Every weight-R pattern of `rows` bits, in descending numeric value."""
    rows, r, _ = shape(n_stations)
    values = np.arange(1 << rows, dtype=np.int64)[::-1]
    weights = np.zeros_like(values)
    for bit in range(rows):
        weights += (values >> bit) & 1
    return values[weights == r]


def matrix(n_stations: int) -> np.ndarray:
    """(rows, V) 0/1 matrix; row i holds bit rows-1-i of every column value."""
    rows = shape(n_stations)[0]
    values = column_values(n_stations)
    shifts = np.arange(rows - 1, -1, -1, dtype=np.int64)[:, None]
    return ((values[None, :] >> shifts) & 1).astype(np.uint8)


def subset_ids(mask: int) -> frozenset[int]:
    """1-based station ids of a subset mask, bit i standing for station i+1."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def sums(m: np.ndarray, stations) -> np.ndarray:
    """Amplitude sums of a station subset: ones minus zeros at each chip."""
    idx = sorted(stations)
    ones = m[[i - 1 for i in idx]].sum(axis=0, dtype=np.int64)
    return 2 * ones - len(idx)


def demod(m: np.ndarray, stations) -> np.ndarray:
    """Majority-demodulated superposition of a station subset, ties to 0."""
    return (sums(m, stations) > 0).astype(np.uint8)


class NearestReference:
    """Brute-force nearest decoding over every non-empty subset, n <= 13."""

    def __init__(self, n_stations: int):
        if n_stations > NEAREST_MAX_STATIONS:
            raise ValueError(
                f"brute-force nearest decoding is limited to "
                f"{NEAREST_MAX_STATIONS} stations, got {n_stations}")
        self.matrix = matrix(n_stations)
        masks = np.arange(1, 1 << n_stations, dtype=np.int64)
        members = ((masks[:, None] >> np.arange(n_stations)) & 1).astype(np.int32)
        ones = members @ self.matrix[:n_stations].astype(np.int32)
        self.masks = masks
        self.vectors = (2 * ones > members.sum(axis=1)[:, None]).astype(np.uint8)

    def decode(self, received: np.ndarray, max_dist: int):
        """(kind, stations, distance) with the decoder's documented rules:
        all-zero is silence; a unique minimum within max_dist is
        identified; a tie or a minimum beyond max_dist is nomatch."""
        if not received.any():
            return "silence", None, 0
        dists = (self.vectors != received[None, :]).sum(axis=1)
        best = int(dists.min())
        hits = np.flatnonzero(dists == best)
        if best > max_dist or hits.size > 1:
            return "nomatch", None, best
        return "identified", subset_ids(int(self.masks[hits[0]])), best


def demod_weight(n_stations: int, k: int) -> int:
    """Ones in the demodulated vector of any k-station subset.

    A column is 1 when the subset holds j > k/2 of its R ones; there are
    C(k, j) * C(rows - k, R - j) such columns for each j.
    """
    rows, r, _ = shape(n_stations)
    return sum(comb(k, j) * comb(rows - k, r - j)
               for j in range(k // 2 + 1, min(k, r) + 1))


def sums_total(n_stations: int, k: int) -> int:
    """Sum over every chip of the amplitude sums of a k-station subset.

    Each row holds C(rows-1, R-1) ones among V chips, so it contributes
    2*C(rows-1, R-1) - V.
    """
    rows, r, v = shape(n_stations)
    return k * (2 * comb(rows - 1, r - 1) - v)
