"""Blocked enumeration of subset chip counts over codebook rows.

Enumerating every subset of m rows naively costs 2^m row sums of length V.
The generators here split the rows into a low block, whose 2^n_lo partial
sums are precomputed once, and a high block walked in Gray-code order so
that one row is added or removed per step. Each block of 2^n_lo subsets
then costs a single vectorized add. `split_rows` picks n_lo, at most
DEFAULT_LO_BITS rows, for these generators and for the decoder's pruned
nearest search.

Subset masks use bit i for row i+1, and `mask_to_ids` lists a mask's
row ids for the verifier's reports. Yielded count buffers are reused
between iterations; copy them if they must outlive the loop body.

Only `count_blocks` and a test call `partial_counts`, and only tests and
perfbench walk `count_blocks` and `demod_blocks`: the verifier forms its
chip sums by matmul, and the decoder's pruned nearest search uses just
`split_rows`. The two generators remain the full-width enumeration that
tests use as a reference and that perfbench's subset-throughput metrics
time.
"""

import numpy as np

DEFAULT_LO_BITS = 8
_LO_TABLE_BYTES = 1 << 26


def split_rows(m: int, v: int) -> int:
    """Width of the precomputed low block for an m-row, V-column run."""
    n_lo = min(m, DEFAULT_LO_BITS)
    while n_lo > 1 and (1 << n_lo) * v > _LO_TABLE_BYTES:
        n_lo -= 1
    return n_lo


def mask_to_ids(mask: int) -> tuple[int, ...]:
    """1-based row ids of the set bits of a subset mask."""
    ids = []
    i = 1
    while mask:
        if mask & 1:
            ids.append(i)
        mask >>= 1
        i += 1
    return tuple(ids)


def partial_counts(rows: np.ndarray) -> np.ndarray:
    """Column counts of every subset of a few int8 0/1 rows.

    table[mask, c] is the number of one-bits at column c over the rows
    whose bit is set in mask (bit i for rows[i]). The masks with highest
    bit i are those below 2^i plus rows[i], so the table doubles once per
    row.
    """
    table = np.zeros((1 << len(rows), rows.shape[1]), np.int8)
    for i, row in enumerate(rows):
        np.add(table[:1 << i], row, out=table[1 << i:2 << i])
    return table


def count_blocks(matrix: np.ndarray, m: int):
    """Yield (masks, counts, sizes) covering every subset of the first m rows.

    counts[i, c] is the number of one-bits at column c over the rows in
    subset masks[i]; sizes[i] is the subset cardinality. The empty mask 0
    is included (callers usually skip it).
    """
    v = matrix.shape[1]
    n_lo = split_rows(m, v)
    n_hi = m - n_lo
    rows = matrix[:m].astype(np.int8)  # counts stay below 127 for any supported size
    size_lo = 1 << n_lo
    lo_counts = partial_counts(rows[:n_lo])
    lo_pop = np.array([mask.bit_count() for mask in range(size_lo)], np.int8)
    lo_idx = np.arange(size_lo, dtype=np.int64)

    gray = 0
    cur = np.zeros(v, np.int8)
    counts = np.empty_like(lo_counts)
    for j in range(1 << n_hi):
        if j:
            prev, gray = gray, j ^ (j >> 1)
            b = (prev ^ gray).bit_length() - 1
            if gray >> b & 1:
                cur += rows[n_lo + b]
            else:
                cur -= rows[n_lo + b]
        np.add(lo_counts, cur[None, :], out=counts)
        sizes = lo_pop + np.int8(gray.bit_count())
        yield (gray << n_lo) | lo_idx, counts, sizes


def demod_blocks(matrix: np.ndarray, m: int):
    """Yield (masks, packed) where packed[i] is the majority-demodulated
    superposition of subset masks[i], packed 8 chips per byte, MSB first.

    A chip demodulates to 1 exactly when the subset holds strictly more
    ones than zeros at that column, i.e. count >= floor(size/2) + 1.
    """
    for masks, counts, sizes in count_blocks(matrix, m):
        bits = counts >= (sizes // 2 + 1)[:, None]
        yield masks, np.packbits(bits, axis=1)
