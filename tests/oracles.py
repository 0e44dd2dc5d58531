"""Brute-force reference implementations used only to derive expectations.

Everything here is pure Python over bit strings and deliberately avoids
the package's numpy code paths, so a test comparing the two is a real
cross-check rather than the implementation agreeing with itself. Only the
seeded draws of the claims check use numpy's generator, which defines
them, and `top_k_distances` adds plain numpy rows one k at a time, since
the sizes it checks are too large for pure Python.
"""

import math
import re
from itertools import combinations

import numpy as np

from collisioncode import (MAX_STATIONS, FormatError, InvariantError,
                           SizeLimitError)


def weight_patterns(n_rows: int, weight: int) -> list[int]:
    """All n-bit patterns of the given weight, by descending value."""
    return sorted((p for p in range(2 ** n_rows)
                   if bin(p).count("1") == weight), reverse=True)


def matrix_rows(n_rows: int) -> list[str]:
    """Rows of the constant-weight matrix with bit n_rows-1 as row 1."""
    r = (n_rows + 1) // 2
    pats = weight_patterns(n_rows, r)
    return ["".join(str((p >> (n_rows - 1 - i)) & 1) for p in pats)
            for i in range(n_rows)]


def ids_to_mask(ids) -> int:
    """Subset mask of 1-based row ids: bit i for row i+1."""
    return sum(1 << (i - 1) for i in set(ids))


def chip_sum(rows: list[str], subset, col: int) -> int:
    """Signed amplitude sum at a 1-based column over 1-based row ids."""
    return sum(2 * int(rows[i - 1][col - 1]) - 1 for i in subset)


def demod(rows: list[str], subset) -> str:
    """Majority-demodulated superposition of a subset, ties to 0."""
    v = len(rows[0]) if rows else 0
    out = []
    for c in range(v):
        ones = sum(int(rows[i - 1][c]) for i in subset)
        out.append("1" if 2 * ones > len(subset) else "0")
    return "".join(out)


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    return [s for k in range(1, n + 1)
            for s in combinations(range(1, n + 1), k)]


def reachable_map(n_stations: int, n_rows: int | None = None) -> dict:
    """Station subset -> demodulated vector string."""
    rows = matrix_rows(n_rows if n_rows is not None else n_stations)
    return {s: demod(rows, s) for s in nonempty_subsets(n_stations)}


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def top_k_distances(matrix: np.ndarray, order, bits: np.ndarray) -> list[int]:
    """Hamming distance from bits to the majority-demodulated vector of
    the rows order[:k] of a 0/1 matrix, for k = 1..len(order): one row
    added to the column counts per k."""
    counts = np.zeros(matrix.shape[1], np.int64)
    dists = []
    for k, i in enumerate(order, start=1):
        counts += matrix[i]
        dists.append(int(np.count_nonzero((2 * counts > k) != (bits == 1))))
    return dists


def claims_report(rows: list[str], trials: int, seed: int):
    """(ok, counterexample) of the claims check, trial by trial: the rows
    whose count of shared ones with a drawn subset's demodulation is
    largest must be exactly the subset's rows."""
    masks = np.random.default_rng(seed).integers(1, 1 << len(rows), trials)
    for mask in masks.tolist():
        subset = [i + 1 for i in range(len(rows)) if mask >> i & 1]
        y = demod(rows, subset)
        corr = [sum(a == b == "1" for a, b in zip(row, y)) for row in rows]
        top = [i + 1 for i, c in enumerate(corr) if c == max(corr)]
        if top != subset:
            return False, {"rows": subset, "top": top}
    return True, None


def zero_unreachable(rows: list[str]) -> bool:
    """No non-empty subset demodulates to the all-zero vector."""
    zero = "0" * len(rows[0])
    return all(demod(rows, s) != zero for s in nonempty_subsets(len(rows)))


def witness_failures(rows: list[str]) -> list[tuple[int, ...]]:
    """Proper non-empty subsets with no column whose chip sum is +1 (odd
    size) or 0 (even size), in ascending order of their row tuples."""
    cols = range(1, len(rows[0]) + 1)
    return sorted(s for s in nonempty_subsets(len(rows)) if len(s) < len(rows)
                  and all(chip_sum(rows, s, c) != len(s) % 2 for c in cols))


def parse_document(doc: str) -> tuple[int, list[str]]:
    """(N, row strings) of an ASCII codebook document, read line by line.

    Raises the first fault with the library's exception type and message,
    met in this order: the final newline, the header line and its
    arithmetic, the count of row lines, each row's length and then its
    characters, the column weights, and the smallest repeated column value
    (named by its first column).
    """
    if not doc.endswith("\n"):
        raise FormatError("document must end with a newline")
    lines = doc[:-1].split("\n")
    header = re.fullmatch(
        r"COLLISIONCODE v1 N=([0-9]+) ROWS=([0-9]+) R=([0-9]+) V=([0-9]+)",
        lines[0])
    if header is None:
        raise FormatError(f"bad header line: {lines[0]!r}")
    try:
        n, n_rows, r, v = (int(g) for g in header.groups())
    except ValueError:  # more digits than int() converts
        raise FormatError(f"bad header line: {lines[0]!r}") from None
    if n < 1:
        raise InvariantError("N must be >= 1")
    if n > MAX_STATIONS:
        raise SizeLimitError(f"N={n} exceeds the cap of {MAX_STATIONS}")
    if n_rows % 2 == 0 or n_rows != n + (n % 2 == 0):
        raise InvariantError(
            f"ROWS={n_rows} inconsistent with N={n}: rows must be N for odd "
            f"N and N+1 for even N")
    if r != (n_rows + 1) // 2:
        raise InvariantError(f"R={r}, expected (ROWS+1)/2 = {(n_rows + 1) // 2}")
    if v != math.comb(n_rows, r):
        raise InvariantError(
            f"V={v}, expected C({n_rows},{r}) = {math.comb(n_rows, r)}")
    rows = lines[1:]
    if len(rows) != n_rows:
        raise FormatError(f"expected {n_rows} row lines, got {len(rows)}")
    for i, row in enumerate(rows, start=1):
        if len(row) != v:
            raise FormatError(f"row {i} has length {len(row)}, expected {v}")
        for char in row:
            if char not in "01":
                raise FormatError(f"invalid bit character {char!r}")
    cols = ["".join(col) for col in zip(*rows)]
    for c, col in enumerate(cols, start=1):
        if col.count("1") != r:
            raise InvariantError(
                f"column {c} has weight {col.count('1')}, expected {r}")
    repeated = [col for col in cols if cols.count(col) > 1]
    if repeated:
        first = cols.index(min(repeated, key=lambda col: int(col, 2)))
        raise InvariantError(f"duplicate column (first at index {first + 1})")
    return n, rows
