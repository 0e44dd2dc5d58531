"""Synchronized BPSK superposition channel.

Bits map to antipodal amplitudes (0 -> -1, 1 -> +1). When several stations
transmit the same chip slot simultaneously, the receiver sees the integer
sum of their amplitudes; the demodulator outputs 1 for a positive sum and
0 otherwise, so each chip follows the majority of the transmitted bits and
ties fall to 0. The ideal-channel path is exact integer arithmetic; the
optional additive-Gaussian extension thresholds at 0.5, halfway between
the tie level 0 and the smallest positive sum 1. Both paths pass plain
arrays: int16 sums, float64 samples and uint8 bits.

All randomness is derived from an explicit seed through a NumPy PCG64
generator, so noisy samples are reproducible.
"""

import numpy as np

from .codebook import Codebook


def modulate(bit: int) -> int:
    """BPSK amplitude of a bit: 2*bit - 1."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return 2 * bit - 1


def superpose(cb: Codebook, stations) -> np.ndarray:
    """Columnwise int16 amplitude sums of the given stations' codewords.

    Every entry has absolute value at most the subset size and the same
    parity as the subset size; the empty subset (silence) yields all zeros.
    A column's ones among the stations are the set bits of its value
    (`cb.vals`) under the stations' mask, counted in one pass for any
    subset, and the sums are 2 * ones - size.
    """
    ids = _station_ids(cb, stations)
    mask = cb.vals.dtype.type(sum(1 << (cb.n_rows - i) for i in ids))
    ones = np.bitwise_count(cb.vals & mask)
    sums = np.multiply(ones, 2, dtype=np.int16)
    sums -= len(ids)
    return sums


def _station_ids(cb: Codebook, stations) -> list[int]:
    """The distinct ids of `stations`, ascending; ValueError unless every
    one lies in 1..n_stations."""
    ids = sorted({int(i) for i in stations})
    if ids and not (1 <= ids[0] and ids[-1] <= cb.n_stations):
        raise ValueError(
            f"station ids must lie in 1..{cb.n_stations}, got {ids}")
    return ids


def demodulate(sums: np.ndarray) -> np.ndarray:
    """Hard-decision bits: 1 where the sum is >= 1, else 0 (ties to 0)."""
    return (sums >= 1).astype(np.uint8)


def majority_demod_bit(bits) -> int:
    """Demodulated bit of one chip slot given each transmitter's bit.

    Returns 1 exactly when strictly more transmitters sent 1 than 0.
    """
    seq = [int(b) for b in bits]
    if not seq:
        raise ValueError("need at least one transmitter")
    if any(b not in (0, 1) for b in seq):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return 1 if 2 * sum(seq) > len(seq) else 0


def pnc_xor_map(amp_sum: int) -> int:
    """Two-transmitter demapping: |sum|=2 -> 0, sum=0 -> 1.

    Composed with modulation this realizes the XOR of the two transmitted
    bits, the classic physical-layer network coding mapping.
    """
    if amp_sum in (2, -2):
        return 0
    if amp_sum == 0:
        return 1
    raise ValueError(f"not a two-transmitter amplitude sum: {amp_sum!r}")


def superpose_noisy(cb: Codebook, stations, sigma: float, seed: int) -> np.ndarray:
    """float64 amplitude sums with i.i.d. Gaussian(0, sigma) noise per chip.

    Identical (codebook, stations, sigma, seed) always produce identical
    samples; sigma=0 returns the integer sums exactly.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be >= 0")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    samples = superpose(cb, stations).astype(np.float64)
    if sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        samples += rng.normal(0.0, sigma, samples.size)
        if not np.isfinite(samples).all():  # sigma near the float maximum
            raise ValueError(f"sigma={sigma} overflows the noisy samples")
    return samples


def threshold_noisy(samples: np.ndarray) -> np.ndarray:
    """Hard-decision bits of noisy samples: 1 where the sample exceeds 0.5."""
    return (samples > 0.5).astype(np.uint8)
