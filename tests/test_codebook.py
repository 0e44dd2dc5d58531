"""Codebook construction, matrix invariants, and the text format."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import collisioncode as cc
from collisioncode import codebook, decoder, verifier
from collisioncode._subsets import mask_to_ids
from collisioncode.codebook import _column_dtype
from conftest import cached_codebook
import oracles

LOW_WEIGHT_DOC = "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n010\n101\n011\n"
DUPLICATE_COLUMN_DOC = "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n111\n001\n"
V_MISMATCH_DOC = "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=4\n110\n101\n011\n"
ROWS_MISMATCH_DOC = "COLLISIONCODE v1 N=4 ROWS=4 R=2 V=6\n" + "\n".join(
    ["110100", "101010", "011001", "000111"]) + "\n"
MALFORMED_DOCS = {
    "COLLISION v1 N=3 ROWS=3 R=2 V=3\n110\n101\n011\n":
        "bad header line: 'COLLISION v1 N=3 ROWS=3 R=2 V=3'",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3 \n110\n101\n011\n":
        "bad header line: 'COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3 '",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n101\n011":
        "document must end with a newline",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n101\n":
        "expected 3 row lines, got 2",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n101\n011\n\n":
        "expected 3 row lines, got 4",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n1001\n011\n":
        "row 2 has length 4, expected 3",
    "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n1x1\n011\n":
        "invalid bit character 'x'",
}


def oversized_doc():
    n = cc.MAX_STATIONS + 2
    return f"COLLISIONCODE v1 N={n} ROWS={n} R={(n + 1) // 2} V=1\n1\n"


def long_number_doc(field):
    """The n=3 document with 5,000 zeros before one header number's digits,
    more than int() converts."""
    doc = cc.serialize_codebook(cached_codebook(3))
    return doc.replace(f" {field}=", f" {field}=" + "0" * 5000, 1)


def rows_as_strings(cb):
    return [cc.bits_to_str(cb.matrix()[i]) for i in range(cb.n_rows)]


class TestConstruction:
    def test_three_stations_matches_known_matrix(self):
        cb = cached_codebook(3)
        assert rows_as_strings(cb) == ["110", "101", "011"]
        assert (cb.n_rows, cb.r_weight, cb.v_length) == (3, 2, 3)

    def test_single_station(self):
        cb = cached_codebook(1)
        assert (cb.n_rows, cb.r_weight, cb.v_length) == (1, 1, 1)
        assert rows_as_strings(cb) == ["1"]

    def test_five_stations_against_brute_force(self):
        cb = cached_codebook(5)
        assert (cb.n_rows, cb.r_weight, cb.v_length) == (5, 3, 10)
        assert rows_as_strings(cb) == oracles.matrix_rows(5)
        m = cb.matrix()
        assert (m.sum(axis=0) == 3).all()
        assert (m.sum(axis=1) == math.comb(4, 2)).all()

    @pytest.mark.parametrize("n", range(1, cc.MAX_STATIONS + 1))
    def test_column_values_pin_the_matrix(self, n):
        # strictly descending values, each of weight R, C(rows, R) of them:
        # only the canonical matrix has all three
        cb = cc.build_codebook(n)
        m = cb.matrix()
        assert m.shape == (cb.n_rows, math.comb(cb.n_rows, cb.r_weight))
        assert (m <= 1).all()
        vals = np.zeros(cb.v_length, np.uint64)
        for i in range(cb.n_rows):
            vals += m[i] * np.uint64(1 << (cb.n_rows - 1 - i))
        assert (vals[1:] < vals[:-1]).all()
        assert (m.sum(axis=0, dtype=np.uint8) == cb.r_weight).all()
        if cb.n_rows <= 13:
            assert rows_as_strings(cb) == oracles.matrix_rows(cb.n_rows)

    def test_even_station_count_uses_next_odd_matrix(self):
        cb4, cb5 = cached_codebook(4), cached_codebook(5)
        assert cb4.n_stations == 4 and cb4.n_rows == 5
        assert np.array_equal(cb4.matrix(), cb5.matrix())
        cc.codeword_for(cb4, 4)
        with pytest.raises(ValueError):
            cc.codeword_for(cb4, 5)  # padding row is not a station

    def test_deterministic(self):
        a, b = cc.build_codebook(7), cc.build_codebook(7)
        assert a == b
        assert cc.serialize_codebook(a) == cc.serialize_codebook(b)

    def test_size_cap(self):
        with pytest.raises(cc.SizeLimitError):
            cc.build_codebook(cc.MAX_STATIONS + 1)
        with pytest.raises(ValueError):
            cc.build_codebook(0)

    @pytest.mark.parametrize("kind", [np.int64, np.uint32, np.uint8, np.int8])
    def test_numpy_integer_station_counts(self, kind):
        cb = cc.build_codebook(kind(5))
        assert type(cb.n_stations) is int
        assert cb == cc.build_codebook(5)
        assert cc.serialize_codebook(cb) == cc.serialize_codebook(cc.build_codebook(5))

    @pytest.mark.parametrize("bad", [True, False, np.True_, 5.0, np.float64(5),
                                     "5", None])
    def test_refuses_station_counts_that_are_not_integers(self, bad):
        message = f"n_stations must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.build_codebook(bad)

    @given(st.integers(1, 9))
    def test_matrix_invariants(self, n):
        cb = cached_codebook(n)
        m = cb.matrix()
        assert cb.n_rows % 2 == 1
        assert cb.r_weight == (cb.n_rows + 1) // 2
        assert cb.v_length == math.comb(cb.n_rows, cb.r_weight)
        assert (m.sum(axis=0) == cb.r_weight).all()
        columns = {tuple(m[:, c]) for c in range(cb.v_length)}
        assert len(columns) == cb.v_length  # all weight-R patterns, once each
        assert len({tuple(row) for row in m}) == cb.n_rows
        assert (m.sum(axis=1) == math.comb(cb.n_rows - 1, cb.r_weight - 1)).all()


class TestDerivedArrays:
    """`packed` and `matrix()` are derived from the column values."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_match_the_oracle_matrix(self, n):
        cb = cc.build_codebook(n)
        rows = oracles.matrix_rows(cb.n_rows)
        oracle = np.array([[int(c) for c in row] for row in rows], np.uint8)
        assert cb.matrix().dtype == np.uint8
        assert np.array_equal(cb.matrix(), oracle)
        assert np.array_equal(cb.packed, np.packbits(oracle, axis=1))
        assert not (cb.matrix().flags.writeable or cb.packed.flags.writeable
                    or cb.vals.flags.writeable)

    def test_blocks_cover_every_column(self, monkeypatch):
        """Counted a few columns at a time, including a short last block:
        every subset's sums, mismatches and demodulated vector; the rows,
        which are walked whole, are unchanged."""
        rows = oracles.matrix_rows(9)
        oracle = np.array([[int(c) for c in row] for row in rows], np.uint8)
        monkeypatch.setattr(codebook, "_BLOCK_COLUMNS", 16)
        cb = cc.build_codebook(9)
        assert cb.v_length % 16
        assert np.array_equal(cb.matrix(), oracle)
        assert np.array_equal(cb.packed, np.packbits(oracle, axis=1))
        bits = np.random.default_rng(9).integers(0, 2, cb.v_length, np.uint8)
        text = cc.bits_to_str(bits)
        for subset in [(), *oracles.nonempty_subsets(9)]:
            assert cc.superpose(cb, subset).tolist() == [
                oracles.chip_sum(rows, subset, c + 1)
                for c in range(cb.v_length)]
            assert decoder._mismatches(cb, [i - 1 for i in subset], bits) == \
                oracles.hamming(oracles.demod(rows, subset), text)
        masks = np.arange(1, 1 << 9)
        assert verifier._demodulated(cb, masks) == [
            oracles.demod(rows, mask_to_ids(m)) for m in masks.tolist()]

    # sha256 of the row bytes, pinned from the block-by-block derivation;
    # rows of 17 to 25 stations span two to four byte planes of the values
    @pytest.mark.parametrize("n, sha256", [
        (17, "82d55a408dfad6a942a737bd15c6491dff55c2a794a9d05ab81a947be2a0760d"),
        (21, "ace138f61939f93695bb9ae9bfac45d8889cd365f3adf915bda4db7a0f8c4479"),
        (25, "7aa24e52931225b7ffd80999c9fd8d314c09c6ea816e0b494623432fc57e33da"),
    ])
    def test_packed_digest_across_byte_planes(self, n, sha256):
        packed = cc.build_codebook(n).packed
        assert hashlib.sha256(packed.tobytes()).hexdigest() == sha256

    @pytest.mark.parametrize("station, sha256", [
        (1, "03bfa7e707de817ea2939ae31504b5bafadfe29bbff46a10b5821809b38ad3f4"),
        (8, "206912ed7a2adb3401665e0122a88019406e050e40b337897ace22727901737a"),
        (9, "088e48251b3da9dee304c4249f301e4ac7882d9f385106bd2afaeaa5673f8b1a"),
        (16, "302009fe28702ef991fc0e27ff93d561f5a084d99019d72298aacd40f8d8c189"),
        (17, "4d31f1b3b564a8fb3b3c718b2a14c6f84cca98f8251a471bc8f10de9bffc5419"),
        (24, "7c326ff889dc7d6f3cdab9aaef62171e09834fe9e4adda5762fcb397d0598291"),
        (25, "c25143bbf8a4ad69252550cc26e815a61b11c31e712579d1f40a64a193fa6b89"),
    ])
    def test_codeword_digest_at_the_cap(self, station, sha256):
        """The first and last station of each byte plane at n=25."""
        word = cc.codeword_for(cached_codebook(25), station)
        assert hashlib.sha256(word.tobytes()).hexdigest() == sha256

    def test_constructor_folds_any_matrix(self):
        """Every row, over three byte planes of the values, also with 16
        stations, whose padding row is the lowest bit."""
        bits = np.random.default_rng(3).integers(0, 2, (17, 50), np.uint8)
        for n in (17, 16):
            cb = cc.Codebook(n, bits)
            assert np.array_equal(cb.matrix(), bits)
            assert np.array_equal(cb.packed, np.packbits(bits, axis=1))
            stations = range(1, n + 1)
            assert [cc.bits_to_str(cc.codeword_for(cb, i)) for i in stations] \
                == [cc.bits_to_str(bits[i - 1]) for i in stations]

    @pytest.mark.parametrize("n", [1, 2, 3, np.int64(3), np.uint8(2)])
    def test_constructor_takes_station_counts_up_to_the_rows(self, n):
        cb = cc.Codebook(n, cached_codebook(3).matrix())
        assert type(cb.n_stations) is int and cb.n_stations == n
        assert cc.bits_to_str(cc.codeword_for(cb, n)) == "110101011"[
            3 * n - 3:3 * n]

    @pytest.mark.parametrize("n", [0, -2, 4, 5])
    def test_constructor_refuses_station_counts_outside_the_rows(self, n):
        """A station past the rows would get a one-chip codeword, and no
        station at all would decode noise to the empty set."""
        message = f"n_stations={n} out of range 1..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.Codebook(n, cached_codebook(3).matrix())

    @pytest.mark.parametrize("bad", [2.9, True, np.True_, np.float64(3), "3",
                                     None])
    def test_constructor_refuses_station_counts_that_are_not_integers(
            self, bad):
        message = f"n_stations must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.Codebook(bad, cached_codebook(3).matrix())

    @pytest.mark.parametrize("bits", [
        [[1, 0, 1, 0], [2, 1, 0, 1], [0, 1, 1, 1]],
        [[1, 0, 1, 0], [1.5, 1, 0, 1], [0, 1, 1, 1]],
        [[1, 0, 1, 0], [-1, 1, 0, 1], [0, 1, 1, 1]],
        np.array([[1, 0, 1, 0], [np.nan, 1, 0, 1], [0, 1, 1, 1]]),
        np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 1, 9]], np.uint8)])
    def test_constructor_refuses_entries_other_than_0_and_1(self, bits):
        """A 2 would read as 0, a 1.5 as 1, and a -1 would overflow."""
        with pytest.raises(ValueError,
                           match="^codebook entries must be 0 or 1$"):
            cc.Codebook(3, bits)

    @pytest.mark.parametrize("kind", [bool, np.float64, np.int64, np.uint8])
    def test_constructor_takes_0_and_1_of_any_type(self, kind):
        matrix = cached_codebook(3).matrix()
        cb = cc.Codebook(3, matrix.astype(kind))
        assert cb == cached_codebook(3)
        assert cb.matrix().dtype == np.uint8


class TestCodewordAccess:
    def test_known_codewords(self):
        cb = cached_codebook(3)
        assert cc.bits_to_str(cc.codeword_for(cb, 1)) == "110"
        assert cc.bits_to_str(cc.codeword_for(cb, 3)) == "011"
        assert cc.bits_to_str(cc.codeword_for(cached_codebook(1), 1)) == "1"

    def test_repeated_calls_identical(self):
        cb = cached_codebook(5)
        assert np.array_equal(cc.codeword_for(cb, 2), cc.codeword_for(cb, 2))

    @pytest.mark.parametrize("station", [0, -1, 4, np.int64(4)])
    def test_out_of_range(self, station):
        with pytest.raises(ValueError,
                           match=f"^station {station} out of range 1..3$"):
            cc.codeword_for(cached_codebook(3), station)

    @pytest.mark.parametrize("bad", [True, np.True_, 2.0, np.float64(2),
                                     "2", None])
    def test_refuses_stations_that_are_not_integers(self, bad):
        """True is not station 1, and 2.0 is a ValueError, not a slicing
        TypeError."""
        message = f"station must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cc.codeword_for(cached_codebook(3), bad)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    def test_numpy_integer_stations(self, kind):
        cb = cached_codebook(3)
        assert np.array_equal(cc.codeword_for(cb, kind(2)),
                              cc.codeword_for(cb, 2))


class TestTextFormat:
    def test_serialize_known_document(self):
        doc = cc.serialize_codebook(cached_codebook(3))
        assert doc == "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n101\n011\n"

    def test_serialize_single_station(self):
        doc = cc.serialize_codebook(cached_codebook(1))
        assert doc == "COLLISIONCODE v1 N=1 ROWS=1 R=1 V=1\n1\n"

    @pytest.mark.parametrize("n", range(1, 14))
    def test_serialize_is_header_then_row_strings(self, n):
        cb = cached_codebook(n)
        header = (f"COLLISIONCODE v1 N={n} ROWS={cb.n_rows} "
                  f"R={cb.r_weight} V={cb.v_length}")
        assert cc.serialize_codebook(cb) == "\n".join(
            [header, *rows_as_strings(cb)]) + "\n"

    @given(st.integers(1, 8))
    @settings(max_examples=30)
    def test_round_trip(self, n):
        cb = cached_codebook(n)
        assert cc.parse_codebook(cc.serialize_codebook(cb)) == cb

    def test_parse_then_serialize_is_identity(self):
        doc = cc.serialize_codebook(cached_codebook(6))
        assert cc.serialize_codebook(cc.parse_codebook(doc)) == doc

    def test_rejects_low_weight_column(self):
        with pytest.raises(cc.InvariantError,
                           match=r"^column 1 has weight 1, expected 2$"):
            cc.parse_codebook(LOW_WEIGHT_DOC)

    @pytest.mark.parametrize("perm", [
        [9, 8, 7, 6, 5, 4, 3, 2, 1, 0], [3, 0, 7, 1, 9, 4, 2, 8, 6, 5],
    ])
    def test_column_permuted_document_parses(self, perm):
        # parse asks for distinct weight-R columns, not descending order
        m = cached_codebook(5).matrix()
        doc = "COLLISIONCODE v1 N=5 ROWS=5 R=3 V=10\n" + "".join(
            cc.bits_to_str(row) + "\n" for row in m[:, perm])
        cb = cc.parse_codebook(doc)
        assert np.array_equal(cb.matrix(), m[:, perm])
        assert cc.serialize_codebook(cb) == doc

    def test_rejects_duplicate_column(self):
        with pytest.raises(cc.InvariantError,
                           match=r"^duplicate column \(first at index 1\)$"):
            cc.parse_codebook(DUPLICATE_COLUMN_DOC)

    def test_duplicate_column_message_names_first_copy(self):
        # column 7 copied over column 4 keeps every column weight at 3
        rows = [row[:3] + row[6] + row[4:] for row in oracles.matrix_rows(5)]
        doc = "COLLISIONCODE v1 N=5 ROWS=5 R=3 V=10\n" + "\n".join(rows) + "\n"
        with pytest.raises(cc.InvariantError,
                           match=r"^duplicate column \(first at index 4\)$"):
            cc.parse_codebook(doc)

    @pytest.mark.parametrize("cols,error", [
        (list(range(10)), None),
        ([0, 2, 1] + list(range(3, 10)), None),  # columns 2 and 3 swapped
        ([0, 1, 2, 6, 4, 5, 6, 7, 8, 9],  # column 7 copied over column 4
         r"^duplicate column \(first at index 4\)$"),
        ([0, 1, 1, 3, 4, 5, 6, 7, 8, 9],  # column 2 copied over column 3
         r"^duplicate column \(first at index 2\)$"),
    ])
    def test_columns_sorted_only_off_descending_order(self, cols, error,
                                                      monkeypatch):
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: sorts.append(a) or argsort(*a, **k))
        rows = ["".join(row[c] for c in cols) for row in oracles.matrix_rows(5)]
        doc = "COLLISIONCODE v1 N=5 ROWS=5 R=3 V=10\n" + "\n".join(rows) + "\n"
        if error:
            with pytest.raises(cc.InvariantError, match=error):
                cc.parse_codebook(doc)
        else:
            assert cc.serialize_codebook(cc.parse_codebook(doc)) == doc
        assert len(sorts) == (cols != list(range(10)))

    @pytest.mark.parametrize("n", [9, 17])
    def test_multi_byte_column_values(self, n, monkeypatch):
        # column values span several 8-row groups: a valid document is
        # still seen as strictly descending, and a flip in any group
        # names its column
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **k: sorts.append(a) or argsort(*a, **k))
        cb = cached_codebook(n)
        doc = cc.serialize_codebook(cb)
        assert cc.parse_codebook(doc) == cb and not sorts
        lines = doc.split("\n")
        for row in (1, 8, 9, cb.n_rows):
            col = (7 * row) % cb.v_length
            flipped = lines.copy()
            bit = flipped[row][col]
            flipped[row] = (flipped[row][:col] + "10"[int(bit)]
                            + flipped[row][col + 1:])
            weight = cb.r_weight + (1 if bit == "0" else -1)
            with pytest.raises(cc.InvariantError, match=(
                    f"^column {col + 1} has weight {weight}, "
                    f"expected {cb.r_weight}$")):
                cc.parse_codebook("\n".join(flipped))

    def test_rejects_header_v_mismatch(self):
        with pytest.raises(cc.InvariantError, match="V=4"):
            cc.parse_codebook(V_MISMATCH_DOC)

    def test_rejects_header_rows_mismatch(self):
        with pytest.raises(cc.InvariantError, match="ROWS"):
            cc.parse_codebook(ROWS_MISMATCH_DOC)

    @pytest.mark.parametrize("doc", list(MALFORMED_DOCS))
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(cc.FormatError,
                           match=f"^{re.escape(MALFORMED_DOCS[doc])}$"):
            cc.parse_codebook(doc)

    def test_rejects_oversized_header(self):
        with pytest.raises(cc.SizeLimitError):
            cc.parse_codebook(oversized_doc())

    @pytest.mark.parametrize("field", ["N", "ROWS", "R", "V"])
    def test_rejects_header_number_too_long_for_int(self, field):
        doc = long_number_doc(field)
        head = doc[:doc.index("\n")]
        with pytest.raises(cc.FormatError) as exc:
            cc.parse_codebook(doc)
        assert str(exc.value) == f"bad header line: {head!r}"

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=50)
    def test_any_single_bit_flip_is_rejected(self, n, data):
        cb = cached_codebook(n)
        doc = cc.serialize_codebook(cb)
        lines = doc[:-1].split("\n")
        row = data.draw(st.integers(1, cb.n_rows))
        col = data.draw(st.integers(0, cb.v_length - 1))
        line = lines[row]
        lines[row] = line[:col] + ("1" if line[col] == "0" else "0") + line[col + 1:]
        with pytest.raises(cc.InvariantError):
            cc.parse_codebook("\n".join(lines) + "\n")


class TestParsePaths:
    """The bytes parser against a line-by-line reference parse."""

    @staticmethod
    def outcome(parse, doc):
        try:
            n, rows = parse(doc)
        except (cc.FormatError, cc.InvariantError, cc.SizeLimitError) as exc:
            return type(exc), str(exc)
        return n, rows

    @staticmethod
    def library(doc):
        cb = cc.parse_codebook(doc)
        return cb.n_stations, rows_as_strings(cb)

    @staticmethod
    def documents():
        docs = [LOW_WEIGHT_DOC, DUPLICATE_COLUMN_DOC, V_MISMATCH_DOC,
                ROWS_MISMATCH_DOC, oversized_doc(), long_number_doc("N"),
                *MALFORMED_DOCS]
        for n in range(1, 6):
            doc = cc.serialize_codebook(cached_codebook(n))
            lines = doc[:-1].split("\n")
            docs += [doc, doc[:-1]]
            for pos, char in enumerate(doc):
                if char in "01":
                    docs.append(doc[:pos] + "10"[int(char)] + doc[pos + 1:])
                docs += [doc[:pos] + sub + doc[pos + 1:]
                         for sub in ("2", " ", "\r", "\n", "\u00e9")
                         if sub != char]
                # a deleted or an inserted character: a row's length
                # fault comes before its character faults
                docs += [doc[:pos] + doc[pos + 1:], doc[:pos] + "x" + doc[pos:]]
            for i in range(1, len(lines)):
                docs.append("\n".join(lines[:i] + lines[i + 1:]) + "\n")
                docs.append("\n".join(lines[:i + 1] + lines[i:]) + "\n")
        return list(dict.fromkeys(docs))

    def test_matches_line_by_line_reference(self):
        docs = [doc for doc in self.documents() if doc.isascii()]
        expected = [self.outcome(oracles.parse_document, doc) for doc in docs]
        kinds = {o[0] if isinstance(o[0], type) else "accepted"
                 for o in expected}
        assert kinds == {cc.FormatError, cc.InvariantError,
                         cc.SizeLimitError, "accepted"}
        for doc, want in zip(docs, expected):
            assert self.outcome(self.library, doc) == want, repr(doc)

    def test_valid_document_skips_fault_finder(self, monkeypatch):
        def fault_finder(*args):
            raise AssertionError("fault finder reached")
        monkeypatch.setattr(codebook, "_raise_first_fault", fault_finder)
        cb = cached_codebook(9)
        assert cc.parse_codebook(cc.serialize_codebook(cb)) == cb

    @pytest.mark.parametrize("doc", [
        "COLLISIONCODE v1 N=\u0663 ROWS=3 R=2 V=3\n110\n101\n011\n",
        "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n1\u00e91\n011\n",
    ])
    def test_non_ascii_is_refused_first(self, doc):
        """The format is ASCII: a Unicode digit in the header, or a
        non-ASCII character among the bits, is a format error."""
        with pytest.raises(cc.FormatError,
                           match="^non-ASCII character in document: "):
            cc.parse_codebook(doc)


class TestColumnDtype:
    @pytest.mark.parametrize("n_rows, dtype", [
        (1, np.uint8), (7, np.uint8), (9, np.uint16), (15, np.uint16),
        (17, np.uint32), (25, np.uint32), (33, np.uint64), (64, np.uint64),
    ])
    def test_narrowest_type_holding_a_column(self, n_rows, dtype):
        assert _column_dtype(n_rows) == dtype

    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17])
    def test_round_trip_on_either_side_of_a_width_change(self, n):
        cb = cached_codebook(n)
        assert cc.parse_codebook(cc.serialize_codebook(cb)) == cb


class TestBitStrings:
    def test_round_trip(self):
        assert cc.bits_to_str(cc.str_to_bits("10011")) == "10011"

    def test_rejects_junk(self):
        with pytest.raises(cc.FormatError):
            cc.str_to_bits("012")
        with pytest.raises(cc.FormatError):
            cc.str_to_bits("1⁄2")
