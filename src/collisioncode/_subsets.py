"""Chip sums of codebook row subsets, by one matmul kernel.

Subsets are given as masks, bit i for row i+1. The chip sums of a block
of subsets at a block of columns are one float32 matmul of the subsets'
0/1 membership rows (`_membership`) and the +1/-1 amplitudes of those
columns (`_signed`), exact since |sum| <= 25; demod(S) is the positive
sums. `_signed` forms the amplitudes from the codebook's column values
at the block's columns, so the kernel never derives the unpacked matrix.
`_chip_sums` runs that matmul a block of subsets at a time, within
_KERNEL_BYTES, and the verifier's checks all read their sums from it.

`count_blocks` and `demod_blocks` enumerate every subset of the first m
rows of a 0/1 matrix through the same kernel. No library code calls
them: tests use them as a reference scan. perfbench wraps them for its
subset-throughput metrics, but no workload calls them, so those read 0.
`mask_to_ids` lists a mask's row ids for the verifier's reports.
"""

import numpy as np

from .codebook import Codebook

_KERNEL_BYTES = 1 << 20  # chip sums or a matrix block of one kernel step


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


def _membership(masks: np.ndarray, m: int) -> np.ndarray:
    """float32 0/1 membership rows: entry [i, r] is bit r of masks[i]."""
    octets = masks.astype("<u8").view(np.uint8).reshape(len(masks), 8)
    return np.unpackbits(octets, axis=1, count=m, bitorder="little").astype(np.float32)


def _signed(cb: Codebook, cols) -> np.ndarray:
    """The float32 +1/-1 amplitudes of every row at a block of columns,
    2 * matrix[:, cols] - 1, from the column values at cols."""
    block = cb._rows_at(cols).astype(np.float32)
    block *= 2
    block -= 1
    return block


def _chip_sums(cb: Codebook, cols, masks: np.ndarray):
    """Yield (sl, sums): the chip sums at `cols` of the subsets masks[sl],
    a slice at a time so that each float32 block of sums stays within
    _KERNEL_BYTES.

    sums[i, c] = 2 * ones - |S| is the product of subset i's membership
    row and the +1/-1 block, exact in float32, and demod(S) is sums > 0.
    Every step writes into one buffer, so a block is only valid until the
    next one is drawn.
    """
    signed = _signed(cb, cols)
    step = max(1, _KERNEL_BYTES // (4 * signed.shape[1]))
    buf = np.empty((min(step, len(masks)), signed.shape[1]), np.float32)
    for lo in range(0, len(masks), step):
        sl = slice(lo, min(lo + step, len(masks)))
        sums = buf[:sl.stop - lo]
        np.matmul(_membership(masks[sl], cb.n_rows), signed, out=sums)
        yield sl, sums


def count_blocks(matrix: np.ndarray, m: int):
    """Yield (masks, counts, sizes) covering every subset of the first m
    rows, in ascending mask order, one `_chip_sums` block at a time.

    counts[i, c] is the number of one-bits at column c over the rows in
    subset masks[i]; sizes[i] is the subset cardinality. The empty mask 0
    is included (callers usually skip it).
    """
    masks = np.arange(1 << m)
    for sl, sums in _chip_sums(Codebook(m, matrix[:m]), slice(None), masks):
        sizes = np.bitwise_count(masks[sl]).astype(np.int8)
        counts = sums.astype(np.int8)  # 2 * ones - size, exact in int8
        counts += sizes[:, None]
        counts //= 2
        yield masks[sl], counts, sizes


def demod_blocks(matrix: np.ndarray, m: int):
    """Yield (masks, packed) where packed[i] is the majority-demodulated
    superposition of subset masks[i], packed 8 chips per byte, MSB first.

    A chip demodulates to 1 exactly when the subset holds strictly more
    ones than zeros at that column, i.e. count >= floor(size/2) + 1.
    """
    for masks, counts, sizes in count_blocks(matrix, m):
        bits = counts >= (sizes // 2 + 1)[:, None]
        yield masks, np.packbits(bits, axis=1)
