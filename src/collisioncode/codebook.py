"""Constant-weight collision codebooks.

A codebook for n stations is a binary matrix with one codeword row per
station. The row count is forced odd (n stations use the first n rows of
an (n+1)-row matrix when n is even), and the columns enumerate every
length-`rows` pattern holding exactly (rows+1)/2 ones, each pattern
appearing once. Columns are ordered by descending numeric value of the
column pattern with row 1 as the most significant bit, which makes
construction deterministic.

Building splits the rows into a top and a bottom half. In descending
order, the weight-R columns are: for each top-half pattern in descending
order, every bottom-half pattern that completes its weight to R, also in
descending order. So each top row is a small table row repeated, and the
bottom rows are one concatenation of small per-weight tables; no
2^rows range is ever enumerated.

A document is one byte image: the ASCII header line, then a (rows, V+1)
array whose last column is LF. Serializing fills that array;
`serialize_codebook` decodes it to text and `gen` writes its bytes.
There is one parser, over bytes: `parse_codebook` encodes its text as
ASCII and the CLI hands it a file's bytes. It finds the header line by
one search of the buffer in place, reads the rows off the image without
copying the body, then re-validates the matrix through its column
values. A document that does not read as that image goes to one fault
finder, which scans the bytes for the first fault in the order a
line-by-line read would meet them, so the library and the CLI accept the
same documents and refuse the rest with the same error. Neither copies a
refused document whole or decodes it to text.

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
from typing import NoReturn

import numpy as np

MAX_STATIONS = 25

_HEADER = re.compile(r"COLLISIONCODE v1 N=(\d+) ROWS=(\d+) R=(\d+) V=(\d+)")
_LF = re.compile(rb"\n")  # searches a numpy buffer in place; bytes.find needs a copy


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
    # each top row repeats a small table row over runs of columns, and the
    # bottom rows are one concatenation of per-weight tables
    lo_bits = n_rows // 2
    hi_rows, hi_weights = _patterns(n_rows - lo_bits)
    lo_rows, lo_weights = _patterns(lo_bits)
    lo_by_weight = [lo_rows[:, lo_weights == w] for w in range(lo_bits + 1)]
    need = r - hi_weights.astype(np.intp)
    keep = (need >= 0) & (need <= lo_bits)
    need = need[keep]
    counts = np.array([t.shape[1] for t in lo_by_weight])[need]
    bits = np.empty((n_rows, int(counts.sum())), np.uint8)
    for i, row in enumerate(hi_rows[:, keep]):
        bits[i] = np.repeat(row, counts)
    np.concatenate([lo_by_weight[w] for w in need], axis=1,
                   out=bits[len(hi_rows):])
    return Codebook(n_stations, bits)


def _patterns(n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Every n_bits-bit pattern as a column of an (n_bits, 2^n_bits) 0/1
    matrix, in descending value order with row 1 as the MSB, and the
    weight of each."""
    vals = np.arange((1 << n_bits) - 1, -1, -1)
    shifts = np.arange(n_bits - 1, -1, -1)[:, None]
    return (vals >> shifts & 1).astype(np.uint8), np.bitwise_count(vals)


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
    return str(_document_image(cb).data, "ascii")


def _document_image(cb: Codebook) -> np.ndarray:
    """The bytes of the canonical document, as one uint8 array."""
    header = (f"COLLISIONCODE v1 N={cb.n_stations} ROWS={cb.n_rows} "
              f"R={cb.r_weight} V={cb.v_length}\n").encode("ascii")
    buf = np.empty(len(header) + cb.n_rows * (cb.v_length + 1), np.uint8)
    buf[:len(header)] = np.frombuffer(header, np.uint8)
    body = buf[len(header):].reshape(cb.n_rows, cb.v_length + 1)
    np.add(cb.matrix(), ord("0"), out=body[:, :-1])
    body[:, -1] = ord("\n")
    return buf


def parse_codebook(doc: str) -> Codebook:
    """Parse and fully re-validate a codebook document.

    The format is ASCII, so any other character is refused first. Rejects
    documents that are merely well-formed but violate the matrix
    invariants: every column must hold exactly R ones, columns must be
    pairwise distinct (hence enumerate all weight-R patterns, given the
    header's V), which makes the rows distinct with equal weights.
    """
    try:
        data = doc.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"non-ASCII character in document: {exc}") from None
    return _parse_bytes(data)


def _parse_bytes(data: bytes | np.ndarray) -> Codebook:
    """The codebook of a document given as bytes or a uint8 array, whose
    header line is valid and whose rows read as one byte image; any other
    document raises the fault that `_raise_first_fault` finds first.

    The header's LF is found by one search of the buffer in place, which
    stops at the first LF; a document with no LF goes straight to the
    fault finder.
    """
    buf = np.frombuffer(data, np.uint8)
    lf = _LF.search(buf)
    if lf is None:
        _raise_first_fault(buf)
    try:
        n, n_rows, r, v = _header_fields(bytes(buf[:lf.start()]).decode("ascii"))
    except ValueError:
        bits = None
    else:
        bits = _image_bits(buf[lf.end():], n_rows, v)
    if bits is None:
        _raise_first_fault(buf)
    _validate_matrix(bits, n_rows, r, v)
    return Codebook(n, bits)


def _image_bits(body: np.ndarray, n_rows: int, v: int) -> np.ndarray | None:
    """The (n_rows, v) matrix read off `body`, the bytes after the header
    line, or None unless they are n_rows lines of v '0'/'1' characters,
    each ending in LF."""
    if len(body) != n_rows * (v + 1):
        return None
    body = body.reshape(n_rows, v + 1)
    if (body[:, -1] != ord("\n")).any():
        return None
    # characters below '0' wrap round to large values
    bits = body[:, :-1] - np.uint8(ord("0"))
    return bits if bits.max() <= 1 else None


def _header_fields(head: str) -> tuple[int, int, int, int]:
    """(N, ROWS, R, V) of a header line that names a codebook within the
    cap; raises the first fault otherwise. A number too long for int()
    makes the line a bad header line."""
    header = _HEADER.fullmatch(head)
    if header is None:
        raise FormatError(f"bad header line: {head!r}")
    try:
        n, n_rows, r, v = (int(g) for g in header.groups())
    except ValueError:  # more digits than int() converts
        raise FormatError(f"bad header line: {head!r}") from None
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
    return n, n_rows, r, v


def _raise_first_fault(buf: np.ndarray) -> NoReturn:
    """Raise the first fault of a document `_parse_bytes` refused, in the
    order a line-by-line read meets them: a non-ASCII byte (as the error
    of `bytes.decode`), a missing final LF, the header's faults, the row
    line count, then each row's length before its characters. The bytes
    are scanned with numpy, never decoded or split into lines."""
    if buf.max(initial=0) >= 0x80:
        # the error ASCII decoding raises at the first such byte; its
        # message reads the byte from the object, at the error's start
        pos = int(np.argmax(buf >= 0x80))
        raise UnicodeDecodeError("ascii", bytes(buf[:pos + 1]), pos, pos + 1,
                                 "ordinal not in range(128)")
    if not len(buf) or buf[-1] != ord("\n"):
        raise FormatError("document must end with a newline")
    newline = buf == ord("\n")
    _, n_rows, _, v = _header_fields(
        bytes(buf[:newline.argmax()]).decode("ascii"))
    lines = np.count_nonzero(newline)
    if lines != 1 + n_rows:
        raise FormatError(f"expected {n_rows} row lines, got {lines - 1}")
    ends = np.flatnonzero(newline)
    for i, (a, b) in enumerate(zip(ends[:-1] + 1, ends[1:]), start=1):
        row = buf[a:b]
        if len(row) != v:
            raise FormatError(f"row {i} has length {len(row)}, expected {v}")
        bad = row - np.uint8(ord("0")) > 1
        if bad.any():
            raise FormatError(
                f"invalid bit character {chr(row[bad.argmax()])!r}")


def _validate_matrix(bits: np.ndarray, n_rows: int, r: int, v: int) -> None:
    """Raise InvariantError unless the v columns are distinct and of weight r.

    Callers pass v = C(n_rows, r), so distinct weight-r columns are every
    weight-r pattern: any two rows differ (some pattern holds one and not
    the other) and each row holds C(n_rows - 1, r - 1) ones.
    """
    # column values with row 1 as the MSB, assembled 8 rows at a time in a
    # uint8 buffer (doubled by addition, which numpy runs far faster than
    # a uint8 shift) and only then shifted into the wide values
    vals = np.zeros(v, _column_dtype(n_rows))
    byte = np.empty(v, np.uint8)
    for first in range(0, n_rows, 8):
        group = bits[first:first + 8]
        np.copyto(byte, group[0])
        for row in group[1:]:
            np.add(byte, byte, out=byte)
            np.bitwise_or(byte, row, out=byte)
        np.left_shift(vals, len(group), out=vals)
        np.bitwise_or(vals, byte, out=vals)
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
