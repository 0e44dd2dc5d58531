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
rows, which the decoder scans and the verifier counts row weights in,
are derived from them on first use. The verifier reads row blocks and
the class search byte planes of the column values directly, so no
library path derives the unpacked matrix (`matrix()`, 130 MB at the
cap); it stays for callers that want it.

Building splits the rows into a top half and a bottom half of as many
rows or one more. In descending order, the weight-R columns are: for
each top-half pattern in descending order, every bottom-half pattern
that completes its weight to R, also in descending order. So the column
values are each top-half value repeated over its run, OR'd with one
concatenation of small per-weight tables of bottom-half values; no
2^rows range is ever enumerated.

A document is streamed a row at a time both ways, through two buffers of
V+1 bytes. Writing renders each row from the column values as '0'/'1'
characters and LF. Reading takes the header line, then reads each row
into a buffer, checks its length, LF and characters, and folds it into
the column values, which are then checked. While the caller renders or
folds the row in one buffer, a one-thread pool makes the stream's
`write` or `readinto` call for the neighbouring row in the other: the
call and numpy's loops both release the GIL, so the two overlap. The
read-ahead stops at the header's ROWS lines, and the pool is shut down
before the writer or reader returns or raises, so a stream must accept
calls from another thread but is never called from two at once. Rows
shorter than _OVERLAP_BYTES (up to 21 stations) make their calls
inline, where a hand-over would cost more than it saves. One reader
serves a file, stdin, a pipe and the bytes of `parse_codebook`, forward
from where the stream stands, and reads each byte once. At a fault it
reads on to the end a MiB at a time, keeping only what could outrank
that fault, and raises the first fault in the order a line-by-line read
meets them, so the library and the CLI accept the same documents and
refuse the rest with the same error.

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
import numbers
import re
from functools import cached_property
from itertools import chain
from typing import NoReturn

import numpy as np

MAX_STATIONS = 25

_HEADER = re.compile(r"COLLISIONCODE v1 N=(\d+) ROWS=(\d+) R=(\d+) V=(\d+)")
_BLOCK_COLUMNS = 1 << 16  # columns per step of a row array or a superpose; 8 | it
_OVERLAP_BYTES = 1 << 20  # shortest row whose I/O call runs on a worker thread
_SCAN_BYTES = 1 << 20  # bytes per read of the rest of a refused document


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
    bit-identical codebooks. A numpy integer is held as an int; a bool,
    a float or a str is refused.
    """
    n_stations = _integer("n_stations", n_stations)
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    if n_stations > MAX_STATIONS:
        raise SizeLimitError(
            f"n_stations={n_stations} exceeds the cap of {MAX_STATIONS} "
            f"(codeword length grows as C(rows, (rows+1)/2))")
    n_rows = n_stations + (n_stations % 2 == 0)
    r = (n_rows + 1) // 2
    # each top-half value repeats over a run of columns, and the bottom
    # halves are one concatenation of per-weight tables; the top half
    # takes the fewer bits, so there are fewer runs to concatenate
    lo_bits = n_rows - n_rows // 2
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


def _integer(name: str, value) -> int:
    """value as an int: an int or a numpy integer is accepted, and any
    other value, a bool included, raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    as a read-only 0/1 vector. The station must be an integer (a numpy
    integer is held as an int); any other value raises ValueError."""
    station = _integer("station", station)
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
        chars = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"non-ASCII character in bit string: {exc}") from None
    _check_bit_chars(chars)
    return np.frombuffer(chars, np.uint8) - ord("0")


def _check_bit_chars(chars: bytes) -> None:
    """Raise FormatError at the first byte of chars other than '0' or '1'."""
    bad = chars.translate(None, b"01")
    if bad:
        raise FormatError(f"invalid bit character {chr(bad[0])!r}")


def serialize_codebook(cb: Codebook) -> str:
    """Canonical text form; the same codebook always yields identical bytes.

    The document is written into one array of its exact length, sized at
    the header line for the ROWS rows of V characters and LF that follow,
    so it is never regrown as the rows arrive."""
    out = _SizedDocument(cb.n_rows * (cb.v_length + 1))
    _write_document(cb, out)
    return str(out.doc, "ascii")


class _SizedDocument:
    """A binary stream into one array, allocated at the first write (the
    header line) with room for `rest` more bytes."""

    def __init__(self, rest: int):
        self._rest, self._end, self.doc = rest, 0, None

    def write(self, chunk) -> None:
        if self.doc is None:
            self.doc = np.empty(len(chunk) + self._rest, np.uint8)
        end = self._end + len(chunk)
        self.doc[self._end:end] = np.frombuffer(chunk, np.uint8)
        self._end = end


class _RowIO:
    """Two row buffers of `size` bytes and at most one pending I/O call.

    `lines` holds each buffer with its view of all but the last byte.
    `swap(call, line)` waits for the pending call, then hands call(line),
    a stream's `write` or `readinto`, to a one-thread pool, which makes
    it while the caller renders or folds a row in the other buffer; it
    returns the result of the call it waited for, or raises its
    exception, as `wait()` does. A row shorter than _OVERLAP_BYTES makes
    its call inline, since handing it over costs more than such a call.
    Leaving the `with` block waits for a call still pending, shuts the
    pool down, and raises the call's exception unless another is already
    on its way out.
    """

    def __init__(self, size: int):
        self.lines = [(line, line[:-1]) for line in
                      (np.empty(size, np.uint8), np.empty(size, np.uint8))]
        self._pool = self._pending = self._result = None
        if size >= _OVERLAP_BYTES:
            # imported only here: at the top of the module it would add
            # about 4 ms to the start of every process
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(1)

    def __enter__(self) -> "_RowIO":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if self._pool is None:  # inline calls raise where they are made
            return
        self._pool.shutdown()
        if exc_type is None:
            self.wait()

    def swap(self, call, line: np.ndarray):
        if self._pool is None:
            result, self._result = self._result, call(line)
            return result
        result = self.wait()
        self._pending = self._pool.submit(call, line)
        return result

    def wait(self):
        if self._pending is None:
            result, self._result = self._result, None
            return result
        pending, self._pending = self._pending, None
        return pending.result()


def _write_document(cb: Codebook, out) -> None:
    """Write the canonical document to the binary stream `out`: the header
    line, then each row rendered from the byte plane of the column values
    that holds it, copied once per 8 rows. A row is rendered into one
    buffer of a `_RowIO` while the other buffer's row is written."""
    out.write(f"COLLISIONCODE v1 N={cb.n_stations} ROWS={cb.n_rows} "
              f"R={cb.r_weight} V={cb.v_length}\n".encode("ascii"))
    write = out.write
    with _RowIO(cb.v_length + 1) as io_:
        for line, _ in io_.lines:
            line[-1] = ord("\n")
        for i, bit in enumerate(range(cb.n_rows - 1, -1, -1)):
            if bit == cb.n_rows - 1 or bit % 8 == 7:
                plane = _byte_plane(cb, bit)
            line, chars = io_.lines[i % 2]
            np.right_shift(plane, bit % 8, out=chars)
            np.bitwise_and(chars, 1, out=chars)
            np.bitwise_or(chars, ord("0"), out=chars)
            io_.swap(write, line)


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
    return _read_codebook(io.BytesIO(data))


def _read_codebook(fh) -> Codebook:
    """The codebook of the document on the binary stream fh, read forward
    from where it stands, each byte once. A refused document raises the
    first fault `_raise_first_fault` finds; it runs once the column
    values folded so far are dropped, so it holds only the row buffers."""
    head = fh.readline()
    try:
        if not head.endswith(b"\n"):
            raise FormatError("document must end with a newline")
        fields = _header_fields(head[:-1].decode("ascii"))
    except ValueError:  # met again, in its order, by the fault finder
        fields = None
    if fields is None:
        _raise_first_fault(fh, head, None, 0, ())
    n, n_rows, r, v = fields
    stop = []
    lines = _read_lines(fh, v, n_rows, stop)
    try:
        vals = _fold(lines, n_rows, v)
    finally:
        lines.close()  # no read pending and no worker after this
    if vals is None:
        _raise_first_fault(fh, head, fields, *stop)
    if after := fh.read(1):
        _raise_first_fault(fh, head, fields, n_rows, (after,))
    _check_values(vals, r)
    return Codebook._of_values(n, n_rows, vals)


def _read_lines(fh, v: int, n_rows: int, stop: list):
    """Yield the 0/1 bits of each of the first n_rows lines of fh while
    it is v '0'/'1' characters and LF. At any other line, wait for the
    read-ahead and end with `stop` set to the valid line count and the
    bytes read past those lines: this line's, then the read-ahead's. The
    next line is read into the other buffer of a `_RowIO` while the
    caller folds this one; no read goes past line n_rows."""
    readinto = fh.readinto
    with _RowIO(v + 1) as io_:
        io_.swap(readinto, io_.lines[0][0])
        for i in range(n_rows):
            (line, bits), ahead = io_.lines[i % 2], io_.lines[1 - i % 2][0]
            more = i + 1 < n_rows
            got = io_.swap(readinto, ahead) if more else io_.wait()
            if got == v + 1 and line[-1] == ord("\n"):
                # characters below '0' wrap round to large values
                np.subtract(bits, ord("0"), out=bits)
                if bits.max() <= 1:
                    yield bits
                    continue
                np.add(bits, ord("0"), out=bits)  # the characters again
            pieces = [line[:got]]
            if more:
                pieces.append(ahead[:io_.wait()])
            stop[:] = i, pieces
            return


def _fold(rows, n_rows: int, v: int) -> np.ndarray | None:
    """Column values of the first n_rows length-v 0/1 rows drawn from the
    iterator `rows`, row 1 as the MSB, or None if it runs out first.

    The rows of each byte of the values are assembled in a uint8 buffer
    (doubled by addition, which numpy runs far faster than a uint8 shift)
    and written into that byte's plane of the values."""
    vals = np.zeros(v, _column_dtype(n_rows))
    width = vals.itemsize
    planes = vals.view(np.uint8)
    byte = np.empty(v, np.uint8)
    for plane in range((n_rows - 1) // 8, -1, -1):
        for k in range(min(8, n_rows - 8 * plane)):
            row = next(rows, None)
            if row is None:
                return None
            if k:
                np.add(byte, byte, out=byte)
                np.bitwise_or(byte, row, out=byte)
            else:
                np.copyto(byte, row)
        planes[plane if np.little_endian else width - 1 - plane::width] = byte
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


def _raise_first_fault(fh, head: bytes, fields, rows: int,
                       pieces) -> NoReturn:
    """Raise the first fault of a document refused after its header line
    `head`, with `_header_fields` `fields` or None if it is not valid,
    and `rows` valid rows, in the order a line-by-line read meets
    them: a non-ASCII byte (as the error of `bytes.decode`), a missing
    final LF, the header's faults, the row line count, then the length
    of the first row not read valid before its characters.

    The document goes on with the buffers `pieces`, then the rest of fh,
    all taken _SCAN_BYTES at a time, and fh is read only as far as a
    non-ASCII byte. What is kept is what can outrank a later fault: the
    first non-ASCII byte, the last byte, the LF count, and the length
    and first character other than '0' and '1' of that first row."""
    if not head.isascii():
        head.decode("ascii")  # raises at the first such byte
    pos = len(head) + rows * (fields[3] + 1 if fields else 0)
    last, lfs, in_row, row_len, row_bad = head[-1:], 0, True, 0, b""
    for chunk in chain((bytes(p[c0:c0 + _SCAN_BYTES]) for p in pieces
                        for c0 in range(0, len(p), _SCAN_BYTES)),
                       iter(lambda: fh.read(_SCAN_BYTES), b"")):
        if not chunk.isascii():
            at = int(np.argmax(np.frombuffer(chunk, np.uint8) >= 0x80))
            pos += at
            # the error ASCII decoding raises at that byte: its message
            # reads the byte from an object at least as long as its position
            raise UnicodeDecodeError(
                "ascii", chunk[at:at + 1].rjust(pos + 1, b"\0"), pos, pos + 1,
                "ordinal not in range(128)")
        if in_row:
            end = chunk.find(b"\n")
            in_row = end < 0
            part = chunk if in_row else chunk[:end]
            row_len += len(part)
            row_bad = row_bad or part.translate(None, b"01")[:1]
        lfs += chunk.count(b"\n")
        last = chunk[-1:]
        pos += len(chunk)
    if last != b"\n":
        raise FormatError("document must end with a newline")
    # an invalid header line raises its fault here
    _, n_rows, _, v = fields or _header_fields(head[:-1].decode("ascii"))
    if rows + lfs != n_rows:
        raise FormatError(f"expected {n_rows} row lines, got {rows + lfs}")
    if row_len != v:
        raise FormatError(f"row {rows + 1} has length {row_len}, expected {v}")
    _check_bit_chars(row_bad)


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
