"""Constant-weight collision codebooks.

A codebook for n stations is a binary matrix with one codeword row per
station. The row count is forced odd (n stations use the first n rows of
an (n+1)-row matrix when n is even), and the columns enumerate every
length-`rows` pattern holding exactly (rows+1)/2 ones, each pattern
appearing once. Columns are ordered by descending numeric value of the
column pattern with row 1 as the most significant bit, which makes
construction deterministic: the column values are exactly the integers
below 2^rows with (rows+1)/2 bits set, in descending order, so the
matrix is built by filtering that range on popcount and unpacking the
surviving values row by row. Parsing reads the whole byte image of a
document first, as a (rows, V+1) array whose last column must be LF, and
splits it into lines only to name the first fault of a malformed one; it
then re-validates the matrix through the same column values.

Because every column carries one more 1 than 0, the majority-demodulated
superposition of any non-empty station subset is unique to that subset;
the verifier module checks this exhaustively.

File format (ASCII, LF line endings, no trailing whitespace):

    COLLISIONCODE v1 N=<stations> ROWS=<rows> R=<weight> V=<columns>
    <row 1 as V characters from {0,1}>
    ...
    <row ROWS>
"""

import math
import re

import numpy as np

MAX_STATIONS = 25

_HEADER = re.compile(r"COLLISIONCODE v1 N=(\d+) ROWS=(\d+) R=(\d+) V=(\d+)")


class SizeLimitError(ValueError):
    """Requested size exceeds the station cap or an enumeration budget."""


class FormatError(ValueError):
    """Malformed codebook document (bad header, row length, or characters)."""


class InvariantError(ValueError):
    """Well-formed document whose matrix violates the codebook invariants."""


class Codebook:
    """Immutable constant-weight code matrix, one codeword row per station.

    Built from the unpacked (n_rows, V) 0/1 matrix, which `matrix()`
    exposes for the channel and verifier; `packed` holds the same rows 8
    chips per byte for the decoder. Both arrays are read-only. A
    station's codeword is read with `codeword_for`, which keeps the
    padding row of an even station count out of reach.
    """

    def __init__(self, n_stations: int, bits: np.ndarray):
        self.n_stations = int(n_stations)
        self.n_rows, self.v_length = bits.shape
        self.r_weight = (self.n_rows + 1) // 2
        self.packed = np.packbits(bits, axis=1)
        self.packed.flags.writeable = False
        bits.flags.writeable = False
        self._bits = bits

    def matrix(self) -> np.ndarray:
        """Unpacked (n_rows, V) uint8 matrix; read-only."""
        return self._bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.n_stations == other.n_stations
                and self.n_rows == other.n_rows
                and self.v_length == other.v_length
                and np.array_equal(self.packed, other.packed))

    def __repr__(self) -> str:
        return (f"Codebook(n_stations={self.n_stations}, "
                f"n_rows={self.n_rows}, r_weight={self.r_weight}, "
                f"v_length={self.v_length})")


def build_codebook(n_stations: int) -> Codebook:
    """Construct the codebook for n_stations.

    Even station counts get an extra padding row so the row count stays
    odd; that row keeps the column weights balanced but is never assigned
    to a station. Construction is deterministic: identical inputs yield
    bit-identical codebooks.
    """
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    if n_stations > MAX_STATIONS:
        raise SizeLimitError(
            f"n_stations={n_stations} exceeds the cap of {MAX_STATIONS} "
            f"(codeword length grows as C(rows, (rows+1)/2))")
    n_rows = n_stations + (n_stations % 2 == 0)
    r = (n_rows + 1) // 2
    # every column value in descending order, row 1 as the MSB, keeping
    # those of weight R; unpacked one row at a time straight into the
    # matrix (the cast keeps the low byte), since a whole (n_rows, V)
    # temporary of column values would be 4x the matrix
    vals = np.arange((1 << n_rows) - 1, -1, -1, dtype=_column_dtype(n_rows))
    vals = vals[np.bitwise_count(vals) == r]
    bits = np.empty((n_rows, vals.size), np.uint8)
    for i in range(n_rows):
        np.right_shift(vals, n_rows - 1 - i, out=bits[i], casting="unsafe")
        bits[i] &= 1
    return Codebook(n_stations, bits)


def _column_dtype(n_rows: int) -> np.dtype:
    """Narrowest unsigned type that holds an n_rows-bit column value."""
    return np.min_scalar_type((1 << n_rows) - 1)


def codeword_for(cb: Codebook, station: int) -> np.ndarray:
    """Length-V codeword the given station transmits as its ACK payload,
    as a read-only 0/1 vector."""
    if not 1 <= station <= cb.n_stations:
        raise ValueError(f"station {station} out of range 1..{cb.n_stations}")
    return cb.matrix()[station - 1]


def bits_to_str(bits: np.ndarray) -> str:
    """Render a 0/1 vector as an ASCII '0'/'1' string."""
    return (np.asarray(bits, np.uint8) + ord("0")).tobytes().decode("ascii")


def str_to_bits(s: str) -> np.ndarray:
    """Parse an ASCII '0'/'1' string into a uint8 vector."""
    try:
        arr = np.frombuffer(s.encode("ascii"), np.uint8) - ord("0")
    except UnicodeEncodeError as exc:
        raise FormatError(f"non-ASCII character in bit string: {exc}") from None
    if ((arr != 0) & (arr != 1)).any():
        bad = s[int(np.flatnonzero((arr != 0) & (arr != 1))[0])]
        raise FormatError(f"invalid bit character {bad!r}")
    return arr


def serialize_codebook(cb: Codebook) -> str:
    """Canonical text form; the same codebook always yields identical bytes."""
    header = (f"COLLISIONCODE v1 N={cb.n_stations} ROWS={cb.n_rows} "
              f"R={cb.r_weight} V={cb.v_length}\n").encode("ascii")
    buf = np.empty(len(header) + cb.n_rows * (cb.v_length + 1), np.uint8)
    buf[:len(header)] = np.frombuffer(header, np.uint8)
    body = buf[len(header):].reshape(cb.n_rows, cb.v_length + 1)
    np.add(cb.matrix(), ord("0"), out=body[:, :-1])
    body[:, -1] = ord("\n")
    return str(buf.data, "ascii")


def parse_codebook(doc: str) -> Codebook:
    """Parse and fully re-validate a codebook document.

    Rejects documents that are merely well-formed but violate the matrix
    invariants: every column must hold exactly R ones, columns must be
    pairwise distinct (hence enumerate all weight-R patterns, given the
    header's V), which makes the rows distinct with equal weights.
    """
    if not doc.endswith("\n"):
        raise FormatError("document must end with a newline")
    head = doc[:doc.index("\n")]
    header = _HEADER.fullmatch(head)
    if header is None:
        raise FormatError(f"bad header line: {head!r}")
    n, n_rows, r, v = (int(g) for g in header.groups())
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
    bits = _image_bits(doc, len(head) + 1, n_rows, v)
    if bits is None:
        bits = _line_bits(doc, n_rows, v)
    _validate_matrix(bits, n_rows, r, v)
    return Codebook(n, bits)


def _image_bits(doc: str, start: int, n_rows: int, v: int) -> np.ndarray | None:
    """The (n_rows, v) matrix read off the document's bytes in one pass.

    None unless everything after the header is exactly n_rows lines of v
    ASCII '0'/'1' characters, each ending in LF; the caller then falls
    back to `_line_bits`.
    """
    if len(doc) != start + n_rows * (v + 1):
        return None
    try:
        data = np.frombuffer(doc.encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        return None
    body = data[start:].reshape(n_rows, v + 1)
    if (body[:, -1] != ord("\n")).any():
        return None
    # characters below '0' wrap round to large values
    bits = body[:, :-1] - np.uint8(ord("0"))
    if bits.max() > 1:
        return None
    return bits


def _line_bits(doc: str, n_rows: int, v: int) -> np.ndarray:
    """The (n_rows, v) matrix parsed line by line; raises FormatError
    naming the first malformed line."""
    lines = doc[:-1].split("\n")
    if len(lines) != 1 + n_rows:
        raise FormatError(f"expected {n_rows} row lines, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        if len(line) != v:
            raise FormatError(f"row {i} has length {len(line)}, expected {v}")
        rows.append(str_to_bits(line))
    return np.vstack(rows)


def _validate_matrix(bits: np.ndarray, n_rows: int, r: int, v: int) -> None:
    """Raise InvariantError unless the v columns are distinct and of weight r.

    Callers pass v = C(n_rows, r), so distinct weight-r columns are every
    weight-r pattern: any two rows differ (some pattern holds one and not
    the other) and each row holds C(n_rows - 1, r - 1) ones.
    """
    # column value with row 1 as MSB
    vals = np.zeros(v, _column_dtype(n_rows))
    for i in range(n_rows):
        np.left_shift(vals, 1, out=vals)
        np.bitwise_or(vals, bits[i], out=vals)
    col_weights = np.bitwise_count(vals)
    bad = np.flatnonzero(col_weights != r)
    if bad.size:
        raise InvariantError(
            f"column {int(bad[0]) + 1} has weight {int(col_weights[bad[0]])}, "
            f"expected {r}")
    # strictly descending values, as every built or serialized codebook
    # has, are distinct; only other orders pay for the sort
    if not (vals[:-1] > vals[1:]).all():
        order = np.argsort(vals, kind="stable")
        ties = np.flatnonzero(np.diff(vals[order]) == 0)
        if ties.size:
            raise InvariantError(
                f"duplicate column (first at index {int(order[ties[0]]) + 1})")
