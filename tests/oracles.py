"""Brute-force reference implementations used only to derive expectations.

Everything here is pure Python over bit strings and deliberately avoids
the package's numpy code paths, so a test comparing the two is a real
cross-check rather than the implementation agreeing with itself. Only the
seeded draws of the claims check use numpy's generator, which defines
them.
"""

from itertools import combinations

import numpy as np


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
