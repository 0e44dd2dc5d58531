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


def additivity_draws(n_rows: int, trials: int, seed: int):
    """Subsets of the claims check's trials, two generator draws per trial.

    Yields (g1, g2, inner, outer, forced): sorted 1-based row tuples of
    the disjoint pair and of the strictly nested pair, and whether the
    nested draw had an empty outer-only part that had to be forced.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        codes = rng.integers(0, 3, n_rows).tolist()
        g1 = [i + 1 for i, c in enumerate(codes) if c == 1]
        g2 = [i + 1 for i, c in enumerate(codes) if c == 2]
        codes = rng.integers(0, 3, n_rows).tolist()
        outer_only = [i + 1 for i, c in enumerate(codes) if c == 1]
        inner = [i + 1 for i, c in enumerate(codes) if c == 2]
        forced = not outer_only
        if forced:
            if inner:
                outer_only, inner = inner[:1], inner[1:]
            else:
                outer_only = [1]
        yield (tuple(g1), tuple(g2), tuple(inner),
               tuple(sorted(outer_only + inner)), forced)


def additivity_report(rows: list[str], trials: int, seed: int,
                      extra=lambda subset, col: 0):
    """(ok, counterexample) of the claims check, trial by trial over chip
    sums; extra(subset, col) is added to a subset's one-count, to model a
    corrupted count."""
    def sums(subset, col):
        return chip_sum(rows, subset, col) + 2 * extra(subset, col)

    for g1, g2, inner, outer, _ in additivity_draws(len(rows), trials, seed):
        union = tuple(sorted(g1 + g2))
        outer_only = tuple(sorted(set(outer) - set(inner)))
        for c in range(1, len(rows[0]) + 1):
            if sums(union, c) != sums(g1, c) + sums(g2, c):
                return False, {"law": "union", "g1": list(g1),
                               "g2": list(g2), "column": c}
        for c in range(1, len(rows[0]) + 1):
            if sums(outer_only, c) != sums(outer, c) - sums(inner, c):
                return False, {"law": "difference", "g1": list(inner),
                               "g2": list(outer), "column": c}
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
