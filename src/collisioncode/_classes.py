"""Distances between demodulated subsets, by overlap class.

The columns of a codebook are every weight-R pattern over its rows, so the
code is symmetric under row permutations. The Hamming distance between
demod(S) and demod(T) therefore depends only on a = |S - T|, b = |T - S|
and c = |S & T|. A column holding i ones on S - T, j on T - S and l on
S & T demodulates to 1 for S when 2(i+l) > a+c and for T when
2(j+l) > b+c, and C(a,i) C(b,j) C(c,l) C(rows-a-b-c, R-i-j-l) columns
hold those counts.

Everything is computed in exact Python integers. The functions are pure
in small integers, so they are memoised; nothing is computed at import.
"""

import functools
import math


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


@functools.cache
def class_distance(rows: int, a: int, b: int, c: int) -> int:
    """Hamming distance between demod(S) and demod(T) in a rows-row code,
    where a = |S - T|, b = |T - S| and c = |S & T|."""
    r = (rows + 1) // 2
    rest = rows - a - b - c
    total = 0
    for i in range(a + 1):
        for j in range(b + 1):
            for l in range(c + 1):
                if (2 * (i + l) > a + c) != (2 * (j + l) > b + c):
                    total += (_comb(a, i) * _comb(b, j) * _comb(c, l)
                              * _comb(rest, r - i - j - l))
    return total


def demod_weight(rows: int, k: int) -> int:
    """Ones in demod(S) for |S| = k: its distance to the empty set's
    all-zero vector."""
    return class_distance(rows, k, 0, 0)


def other_classes(n_stations: int, k: int) -> list[tuple[int, int]]:
    """(a, b) = (|S - T|, |T - S|) for every non-empty station subset T
    other than S, |S| = k. T ranges over the stations only, never the
    padding row of an even n."""
    return [(a, b) for a in range(k + 1) for b in range(n_stations - k + 1)
            if b or 0 < a < k]


@functools.cache
def radius(n_stations: int, k: int) -> float:
    """Least distance from demod(S), |S| = k, to demod(T) for any other
    non-empty station subset T; math.inf when there is none (n = 1)."""
    rows = n_stations + (n_stations % 2 == 0)
    return min((class_distance(rows, a, b, k - a)
                for a, b in other_classes(n_stations, k)), default=math.inf)
