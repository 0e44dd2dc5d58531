"""Constant-weight collision codebooks.

A codebook for n stations is a binary matrix with one codeword row per
station. The row count is forced odd (n stations use the first n rows of
an (n+1)-row matrix when n is even), and the columns enumerate every
length-`rows` pattern holding exactly (rows+1)/2 ones, each pattern
appearing once. Columns are ordered by descending numeric value of the
column pattern with row 1 as the most significant bit, which makes
construction deterministic.

So one integer describes each column: its value, with row 1 as the most
significant bit. A `Codebook` holds those column values (`vals`, one
uint32 per column at most, 21 MB at the 25-station cap). The packed
rows, which the decoder scans, are derived from them on first use. The
verifier reads row blocks and the class search byte planes of the
column values directly, so no library path derives the unpacked matrix
(`matrix()`, 130 MB at the cap); it stays for callers that want it.

Building splits the rows into a top and a bottom half. In descending
order, the weight-R columns are: for each top-half pattern in descending
order, every bottom-half pattern that completes its weight to R, also in
descending order. So the column values are each top-half value repeated
over its run, OR'd with one concatenation of small per-weight tables of
bottom-half values; no 2^rows range is ever enumerated.

A document is streamed a row at a time both ways, through one reused
buffer of V+1 bytes. Writing renders each row from the column values as
'0'/'1' characters and LF. Reading takes the header line, then reads
each row into the buffer, checks its length, LF and characters, and
folds it into the column values, which are then checked. A file is read
this way directly; `parse_codebook`, stdin and pipes go through the same
reader over an in-memory stream. A document that does not read as a
valid header and V-character rows goes to one fault finder, which
scans the whole document for the first fault in the order a line-by-line
read would meet them, so the library and the CLI accept the same
documents and refuse the rest with the same error. The fault finder
never decodes a refused document to text.

Because every column carries one more 1 than 0, the majority-demodulated
superposition of any non-empty station subset is unique to that subset;
the verifier module checks this exhaustively.

File format (ASCII, LF line endings, no trailing whitespace):

    COLLISIONCODE v1 N=<stations> ROWS=<rows> R=<weight> V=<columns>
    <row 1 as V characters from {0,1}>
    ...
    <row ROWS>
"""

import io
import math
import re
from functools import cached_property
from typing import NoReturn

import numpy as np

MAX_STATIONS = 25

_HEADER = re.compile(r"COLLISIONCODE v1 N=(\d+) ROWS=(\d+) R=(\d+) V=(\d+)")
_BLOCK_COLUMNS = 1 << 16  # columns per step of a derived row array; 8 | it


class SizeLimitError(ValueError):
    """Requested size exceeds the station cap or an enumeration budget."""


class FormatError(ValueError):
    """Malformed codebook document (bad header, row length, or characters)."""


class InvariantError(ValueError):
    """Well-formed document whose matrix violates the codebook invariants."""


class Codebook:
    """Immutable constant-weight code matrix, one codeword row per station.

    Held as `vals`, one integer per column: the column's pattern with row
    1 as the most significant of n_rows bits. The row arrays are derived
    from it on first use and cached: `packed`, the rows 8 chips per byte
    for the decoder, and `matrix()`, the unpacked (n_rows, V) 0/1 matrix,
    which neither the decoder nor the verifier reads. Every array is
    read-only. A station's codeword is read with `codeword_for`, which
    keeps the padding row of an even station count out of reach.

    The constructor takes any (n_rows, V) 0/1 matrix of at most
    MAX_STATIONS rows and does not check it, so broken codes can be built.
    """

    def __init__(self, n_stations: int, bits: np.ndarray):
        bits = np.asarray(bits, np.uint8)
        n_rows, v = bits.shape
        if n_rows > MAX_STATIONS:
            raise SizeLimitError(
                f"{n_rows} rows exceed the cap of {MAX_STATIONS}")
        self._hold(n_stations, n_rows, _fold(iter(bits), n_rows, v))

    @classmethod
    def _of_values(cls, n_stations: int, n_rows: int,
                   vals: np.ndarray) -> "Codebook":
        cb = cls.__new__(cls)
        cb._hold(n_stations, n_rows, vals)
        return cb

    def _hold(self, n_stations: int, n_rows: int, vals: np.ndarray) -> None:
        self.n_stations = int(n_stations)
        self.n_rows, self.v_length = n_rows, len(vals)
        self.r_weight = (n_rows + 1) // 2
        vals.flags.writeable = False
        self.vals = vals

    @cached_property
    def _row_bits(self) -> np.ndarray:
        """Column of each row's bit in the column values, row 1 first."""
        return (1 << np.arange(self.n_rows - 1, -1, -1)).astype(
            self.vals.dtype)[:, None]

    def _rows_at(self, cols) -> np.ndarray:
        """(n_rows, len(cols)) bool block of the rows at columns cols."""
        return (self.vals[cols] & self._row_bits) != 0

    def _row_blocks(self):
        """Yield (first column, (n_rows, w) bool block of the rows) over
        the columns, _BLOCK_COLUMNS at a time."""
        for c0 in range(0, self.v_length, _BLOCK_COLUMNS):
            yield c0, self._rows_at(slice(c0, c0 + _BLOCK_COLUMNS))

    @cached_property
    def packed(self) -> np.ndarray:
        """The rows 8 chips per byte, MSB first; read-only."""
        out = np.empty((self.n_rows, -(-self.v_length // 8)), np.uint8)
        for c0, block in self._row_blocks():
            out[:, c0 // 8:(c0 + _BLOCK_COLUMNS) // 8] = np.packbits(block, axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def _matrix(self) -> np.ndarray:
        out = np.empty((self.n_rows, self.v_length), np.uint8)
        for c0, block in self._row_blocks():
            out[:, c0:c0 + _BLOCK_COLUMNS] = block
        out.flags.writeable = False
        return out

    def matrix(self) -> np.ndarray:
        """Unpacked (n_rows, V) uint8 matrix; read-only."""
        return self._matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.n_stations == other.n_stations
                and self.n_rows == other.n_rows
                and np.array_equal(self.vals, other.vals))

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
    # each top-half value repeats over a run of columns, and the bottom
    # halves are one concatenation of per-weight tables
    lo_bits = n_rows // 2
    dtype = _column_dtype(n_rows)
    hi_vals = _patterns(n_rows - lo_bits, dtype)
    lo_vals = _patterns(lo_bits, dtype)
    lo_weights = np.bitwise_count(lo_vals)
    lo_by_weight = [lo_vals[lo_weights == w] for w in range(lo_bits + 1)]
    need = r - np.bitwise_count(hi_vals).astype(np.intp)
    keep = (need >= 0) & (need <= lo_bits)
    need = need[keep]
    counts = np.array([t.size for t in lo_by_weight])[need]
    vals = np.empty(int(counts.sum()), dtype)
    np.concatenate([lo_by_weight[w] for w in need], out=vals)
    vals |= np.repeat(hi_vals[keep] << lo_bits, counts)
    return Codebook._of_values(n_stations, n_rows, vals)


def _patterns(n_bits: int, dtype: np.dtype) -> np.ndarray:
    """Every n_bits-bit value, in descending order."""
    return np.arange((1 << n_bits) - 1, -1, -1, dtype=dtype)


def _column_dtype(n_rows: int) -> np.dtype:
    """Narrowest unsigned type that holds an n_rows-bit column value."""
    return np.min_scalar_type((1 << n_rows) - 1)


def _byte_plane(cb: Codebook, bit: int, cols=slice(None)) -> np.ndarray:
    """Contiguous uint8 copy of the byte that holds bit `bit` (bit
    n_rows - 1 is row 1) of each column value at `cols`."""
    little = cb.vals.astype(cb.vals.dtype.newbyteorder("<"), copy=False)
    plane = little.view(np.uint8)[bit // 8::cb.vals.itemsize]
    return np.ascontiguousarray(plane[cols])


def codeword_for(cb: Codebook, station: int) -> np.ndarray:
    """Length-V codeword the given station transmits as its ACK payload,
    as a read-only 0/1 vector."""
    if not 1 <= station <= cb.n_stations:
        raise ValueError(f"station {station} out of range 1..{cb.n_stations}")
    bit = cb.n_rows - station
    bits = _byte_plane(cb, bit) >> bit % 8 & 1
    bits.flags.writeable = False
    return bits


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
    out = io.BytesIO()
    _write_document(cb, out)
    return str(out.getbuffer(), "ascii")


def _write_document(cb: Codebook, out) -> None:
    """Write the canonical document to the binary stream `out`: the header
    line, then each row rendered into one reused buffer from the byte
    plane of the column values that holds it, copied once per 8 rows."""
    out.write(f"COLLISIONCODE v1 N={cb.n_stations} ROWS={cb.n_rows} "
              f"R={cb.r_weight} V={cb.v_length}\n".encode("ascii"))
    line = np.empty(cb.v_length + 1, np.uint8)
    line[-1] = ord("\n")
    chars = line[:-1]
    for bit in range(cb.n_rows - 1, -1, -1):
        if bit == cb.n_rows - 1 or bit % 8 == 7:
            plane = _byte_plane(cb, bit)
        np.right_shift(plane, bit % 8, out=chars)
        np.bitwise_and(chars, 1, out=chars)
        np.bitwise_or(chars, ord("0"), out=chars)
        out.write(line)


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


def _parse_bytes(data) -> Codebook:
    """The codebook of a document given whole, as bytes or a uint8 array."""
    return _read_codebook(io.BytesIO(data))


def _read_codebook(fh) -> Codebook:
    """The codebook of the document read from the seekable binary stream
    fh, positioned at its start. A document that `_read_rows` does not
    accept raises the fault that `_raise_first_fault` finds first."""
    cb = _read_rows(fh)
    if cb is None:
        fh.seek(0)
        _raise_first_fault(np.frombuffer(fh.read(), np.uint8))
    return cb


def _read_rows(fh) -> Codebook | None:
    """The codebook read from fh a row at a time, or None unless the
    document is a valid header line and then ROWS lines of V '0'/'1'
    characters, each ending in LF; a matrix that breaks the invariants
    raises InvariantError."""
    head = fh.readline()
    if not head.endswith(b"\n"):
        return None
    try:
        n, n_rows, r, v = _header_fields(head[:-1].decode("ascii"))
    except ValueError:
        return None
    vals = _fold(_read_lines(fh, v), n_rows, v)
    if vals is None or fh.read(1):
        return None
    _check_values(vals, r)
    return Codebook._of_values(n, n_rows, vals)


def _read_lines(fh, v: int):
    """Yield the 0/1 bits of each line of fh, read into one reused
    buffer, while it is v '0'/'1' characters and LF."""
    line = np.empty(v + 1, np.uint8)
    bits = line[:-1]
    while fh.readinto(line) == v + 1 and line[-1] == ord("\n"):
        # characters below '0' wrap round to large values
        np.subtract(bits, ord("0"), out=bits)
        if bits.max() > 1:
            return
        yield bits


def _fold(rows, n_rows: int, v: int) -> np.ndarray | None:
    """Column values of the first n_rows length-v 0/1 rows drawn from the
    iterator `rows`, row 1 as the MSB, or None if it runs out first.

    Rows are assembled 8 at a time in a uint8 buffer (doubled by addition,
    which numpy runs far faster than a uint8 shift) and only then shifted
    into the wide values."""
    vals = np.zeros(v, _column_dtype(n_rows))
    byte = np.empty(v, np.uint8)
    for first in range(0, n_rows, 8):
        group = min(8, n_rows - first)
        byte[:] = 0
        for _ in range(group):
            row = next(rows, None)
            if row is None:
                return None
            np.add(byte, byte, out=byte)
            np.bitwise_or(byte, row, out=byte)
        np.left_shift(vals, group, out=vals)
        np.bitwise_or(vals, byte, out=vals)
    return vals


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
    """Raise the first fault of a document `_read_rows` refused, in the
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


def _check_values(vals: np.ndarray, r: int) -> None:
    """Raise InvariantError unless the column values are distinct and of
    weight r.

    Callers hold V = C(n_rows, r) values, so distinct weight-r columns are
    every weight-r pattern: any two rows differ (some pattern holds one
    and not the other) and each row holds C(n_rows - 1, r - 1) ones.
    """
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
