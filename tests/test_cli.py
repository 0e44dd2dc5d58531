"""Command-line interface: output formats, exit codes, piping."""

import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import types
from concurrent import futures

import numpy as np
import pytest

import collisioncode as cc
from collisioncode import cli, codebook, verifier
from collisioncode.cli import main
from conftest import cached_codebook
from test_decoder import smallest_unreachable
import oracles

CB3_DOC = "COLLISIONCODE v1 N=3 ROWS=3 R=2 V=3\n110\n101\n011\n"


@pytest.fixture
def cb3_path(tmp_path):
    path = tmp_path / "cb3.txt"
    path.write_text(CB3_DOC)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, ["gen", "--n", "3"])
        assert code == 0
        assert out == CB3_DOC

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cb.txt"
        code, out, _ = run(capsys, ["gen", "--n", "5", "--out", str(path)])
        assert code == 0 and out == ""
        assert cc.parse_codebook(path.read_text()) == cached_codebook(5)

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--n", "26"])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("n", range(1, 10))
    def test_out_file_is_the_serialized_document(self, capsys, tmp_path, n):
        path = tmp_path / "cb.txt"
        assert run(capsys, ["gen", "--n", str(n), "--out", str(path)]) == (
            0, "", "")
        assert path.read_bytes() == cc.serialize_codebook(
            cc.build_codebook(n)).encode()

    # sha256 of `gen --n N` for every N, pinned from the writer that
    # rendered the whole unpacked matrix
    DIGESTS = [
        (1, "0b50ce80d137bc73dd4d8983ae7f808421e05a276c3af1b75be87730e5c7ce29"),
        (2, "d6f97efb7fb9c68016d0bd82f468f71698f3b332042a4330bdf111d8421b5a07"),
        (3, "f22f4bcb310fe23e122d897fa91c4484a3cdb8645217aea1fb3dac82200342b7"),
        (4, "b78a9ce24591e9d9cb89d7f284a3ac6aefead6fb60d96dbf8f7ede575c67ee86"),
        (5, "9e71b4e5ae0a087b4e2bb53bee0e0249b2944f9fae4c8c1fc03141284f048301"),
        (6, "76d09713bc02293318b41ca07e329b2a236f56ac5c35c05eb368957547946316"),
        (7, "08ce13ff5d41121491500e15538ad3866d3919c9bc37a149ef7076b23418a028"),
        (8, "a10f71dc70e7bd88ba16ed21e7786986f6e8b39ebeddb5da2ade04cf47a06101"),
        (9, "d1230250146c6b81da7b1e461a47a85f04ad17b72a6b336128726d1ceb68d509"),
        (10, "d5d5a410e4a6504a296a50451dfd45bb56a49d1d0eb5b3fe86af9cf582bd11c0"),
        (11, "d5b2a40d51de2ccfa4d18a9bf83aef33efad892eed470d378c24e7032a93579c"),
        (12, "463c5af03907b080fb862b0df37885bc876e29e00c9a7ecec927227c9662391b"),
        (13, "4d586502c57d65bd47a04b756d3394f2e916e8e0613b6911c547694e224c2059"),
        (14, "5e85bd983a6ec1ed8a9748fe1fbfb563b2abd2001a2cae2566ef9b44fcd57a25"),
        (15, "ce2b3dfa03c79f23cd81f55b000bfe5e6bbcc016efa00954bad2e6181fa4ef2d"),
        (16, "b97f8712081e4bce5c2b4d9f6a49e5e9c2dd2963b58b6b51433e000aa1075803"),
        (17, "071fe458cf439cd841c30af180bec9c9166c7065ed34bf449c8ada20879bffce"),
        (18, "d63b646b6ea2d25e2b89b744a8894279c4437bebad11c79ae30add403aa4b7e6"),
        (19, "c3a05558dbdf3d27cf985aa6cf5a380eb3067a2ac1521043af5a273237517f23"),
        (20, "11c325de194e1c8b00ad06e98a83a4d4996c8c880804a7a0644cf2e996baf3e5"),
        (21, "2be7fb698e4e072f9847f7d083b0609a3fe786ec0fc937902fed9c287715f4f1"),
        (22, "5a70ba4fc9104c11e7e0fdb53a76e2658ebab2cb019c1eb6ea42a98d801e8118"),
        (23, "9b96ee0812c158df964e0d7e1a1c4c2a8354de84c1dddd3c7938f77b9addf6ec"),
        (24, "c7ab5042e34a2afeb690ff11a0feaf1260ab90b90304dd6b545155c0a82b4f2a"),
        (25, "aa45acbc9e1a7a7a17f16329a28655882f88eab690f77430c711bf94ab73c36d"),
    ]

    @pytest.mark.parametrize("n, sha256", DIGESTS)
    def test_out_file_digest_beyond_the_oracle(self, capsys, tmp_path, n,
                                               sha256):
        path = tmp_path / "cb.txt"
        assert run(capsys, ["gen", "--n", str(n), "--out", str(path)])[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("n", [*range(1, 10), 25])
    def test_stdout_is_the_out_file(self, capsysbinary, tmp_path, n):
        path = tmp_path / "cb.txt"
        assert main(["gen", "--n", str(n), "--out", str(path)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert main(["gen", "--n", str(n)]) == 0
        assert capsysbinary.readouterr() == (path.read_bytes(), b"")

    @pytest.mark.parametrize("n, sha256", DIGESTS)
    def test_stdout_digest_beyond_the_oracle(self, capsysbinary, n, sha256):
        assert main(["gen", "--n", str(n)]) == 0
        out, err = capsysbinary.readouterr()
        assert hashlib.sha256(out).hexdigest() == sha256 and err == b""

    def test_stdout_follows_buffered_text(self, monkeypatch):
        # the image goes to stdout's byte layer after text still buffered
        # in the text layer (capsys writes through, so it cannot show this)
        stdout = io.TextIOWrapper(io.BytesIO(), "ascii")
        monkeypatch.setattr("sys.stdout", stdout)
        print("before", end="")
        assert main(["gen", "--n", "3"]) == 0
        stdout.flush()
        assert stdout.buffer.getvalue() == ("before" + CB3_DOC).encode()


class TestEncode:
    def test_codeword(self, capsys, cb3_path):
        code, out, _ = run(capsys, ["encode", "--codebook", cb3_path,
                                    "--station", "2"])
        assert code == 0 and out == "101\n"

    def test_bad_station(self, capsys, cb3_path):
        code, _, err = run(capsys, ["encode", "--codebook", cb3_path,
                                    "--station", "9"])
        assert code == 2 and "error" in err

    def test_crlf_codebook_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(CB3_DOC.replace("\n", "\r\n").encode("ascii"))
        code, out, err = run(capsys, ["encode", "--codebook", str(path),
                                      "--station", "1"])
        with pytest.raises(cc.FormatError) as exc:
            cc.parse_codebook(path.read_bytes().decode("ascii"))
        assert (code, out) == (2, "")
        assert err == f"error: {exc.value}\n"
        assert "bad header line" in err

    def test_header_number_too_long_for_int(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text(CB3_DOC.replace("N=3", "N=" + "0" * 5000 + "3", 1))
        code, out, err = run(capsys, ["encode", "--codebook", str(path),
                                      "--station", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad header line: ")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["encode", "--codebook",
                                    str(tmp_path / "nope.txt"), "--station", "1"])
        assert code == 2


class TestBytesLoader:
    """A codebook file parses from its bytes exactly as parse_codebook
    parses its ASCII text: the same matrix, or the same error."""

    @staticmethod
    def corpus():
        docs = []
        for n in range(1, 6):
            doc = cc.serialize_codebook(cached_codebook(n)).encode()
            docs += [
                doc, doc.replace(b"\n", b"\r\n"), doc[:len(doc) // 2],
                doc[:-1],
                doc[:5] + b"\xc3\xa9" + doc[5:],  # non-ASCII in the header
                doc[:5] + b"\xc3\xa9" + doc[5:-1],  # ... and no final LF
                doc[:5] + b"\xff" + doc[5:-2] + b"\x80\n",  # ... and the body
                doc[:-2] + b"\xff\n",  # non-ASCII in the body
                doc.replace(b"v1", b"v2", 1)[:-2] + b"\x80\n",
                doc.replace(b" V=", b" V=9", 1)[:-2] + b"\x80\n",
            ]
            docs += [doc[:pos] + bytes([doc[pos] ^ 1 << bit]) + doc[pos + 1:]
                     for pos in range(len(doc)) for bit in range(8)]
        return docs

    @staticmethod
    def outcome(parse, arg):
        try:
            cb = parse(arg)
        except ValueError as exc:
            return type(exc), str(exc)
        return cb.n_stations, cb.matrix().shape, cb.matrix().tobytes()

    @staticmethod
    def text_outcome(data):
        return TestBytesLoader.outcome(
            lambda d: cc.parse_codebook(d.decode("ascii")), data)

    @staticmethod
    def encode_result(data):
        """encode --station 1's (exit code, stdout, stderr) for a document."""
        try:
            cb = cc.parse_codebook(data.decode("ascii"))
        except ValueError as exc:
            return 2, "", f"error: {exc}\n"
        return 0, cc.bits_to_str(cc.codeword_for(cb, 1)) + "\n", ""

    def test_file_parse_matches_text_parse(self, tmp_path):
        path = tmp_path / "cb.txt"
        kinds = set()
        for data in self.corpus():
            path.write_bytes(data)
            expected = self.text_outcome(data)
            assert self.outcome(cli._load_codebook, str(path)) == expected, data
            kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert kinds == {"ok", UnicodeDecodeError, cc.FormatError,
                         cc.InvariantError}

    @staticmethod
    def oracle_outcome(data):
        """outcome() of the line-by-line oracle's parse of data."""
        def parse(d):
            n, rows = oracles.parse_document(d.decode("ascii"))
            bits = np.array([[int(c) for c in row] for row in rows], np.uint8)
            return types.SimpleNamespace(n_stations=n, matrix=lambda: bits)
        return TestBytesLoader.outcome(parse, data)

    def test_file_parse_matches_oracle(self, tmp_path):
        path = tmp_path / "cb.txt"
        for data in self.corpus():
            path.write_bytes(data)
            assert (self.outcome(cli._load_codebook, str(path))
                    == self.oracle_outcome(data)), data

    def test_stdin_parse_matches_text_parse(self, monkeypatch):
        for data in self.corpus():
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert (self.outcome(cli._load_codebook, "-")
                    == self.text_outcome(data)), data

    def test_cli_matches_text_parse(self, capsys, tmp_path):
        path = tmp_path / "cb.txt"
        for data in self.corpus():
            path.write_bytes(data)
            assert run(capsys, ["encode", "--codebook", str(path),
                                "--station", "1"]) == self.encode_result(data), data

    def test_cli_stdin_matches_text_parse(self, capsys, monkeypatch):
        for data in self.corpus():
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert run(capsys, ["encode", "--codebook", "-", "--station",
                                "1"]) == self.encode_result(data), data

    def test_unseekable_stdin_matches_text_parse(self, monkeypatch):
        """stdin from a pipe is read forward, as a file is."""
        class Pipe(io.BytesIO):
            def seekable(self):
                return False
        for data in self.corpus():
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(Pipe(data)))
            assert (self.outcome(cli._load_codebook, "-")
                    == self.text_outcome(data)), data

    def test_every_source_is_read_once(self):
        """A stream that cannot go back loads as the text parse: it is
        never asked to seek, and hands out each byte at most once."""
        class OneWay(io.BytesIO):
            def __init__(self, data):
                super().__init__(data)
                self.handed, self.seeks = 0, []

            def _hand(self, got):
                self.handed += got if isinstance(got, int) else len(got)
                return got

            def read(self, size=-1):
                return self._hand(super().read(size))

            def read1(self, size=-1):
                return self._hand(super().read1(size))

            def readline(self, size=-1):
                return self._hand(super().readline(size))

            def readinto(self, b):
                return self._hand(super().readinto(b))

            def readinto1(self, b):
                return self._hand(super().readinto1(b))

            def seekable(self):
                self.seeks.append("seekable")
                return False

            def seek(self, *args):
                self.seeks.append("seek")
                raise io.UnsupportedOperation("seek")

            def tell(self):
                self.seeks.append("tell")
                raise io.UnsupportedOperation("tell")
        for data in self.corpus():
            stream = OneWay(data)
            assert (self.outcome(codebook._read_codebook, stream)
                    == self.text_outcome(data)), data
            assert stream.seeks == [] and stream.handed <= len(data), data

    @pytest.mark.parametrize("scan", [1, 7])
    def test_fault_found_across_scan_reads(self, monkeypatch, scan):
        """The fault finder takes the rest of a document a few bytes at a
        time, so a row spans several of its reads; it still finds the
        oracle's first fault."""
        monkeypatch.setattr(codebook, "_SCAN_BYTES", scan)
        for data in self.corpus():
            assert (self.outcome(codebook._read_codebook, io.BytesIO(data))
                    == self.oracle_outcome(data)), data

    def test_stdin_after_a_prefix_matches_text_parse(self, monkeypatch):
        """A seekable stdin already past some bytes holds the document
        from there on; a non-ASCII byte's position counts from there."""
        prefix = b"COLLISIONCODE v1\n\xff"
        for data in self.corpus():
            stdin = io.BytesIO(prefix + data)
            stdin.seek(len(prefix))
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
            assert (self.outcome(cli._load_codebook, "-")
                    == self.text_outcome(data)), data

    @pytest.mark.parametrize("refused", [False, True])
    def test_stdin_file_after_a_prefix(self, tmp_path, refused):
        """encode's stdin, a file whose offset is past a junk prefix,
        loads as parse_codebook of the rest: a valid document, or one
        refused with the position of its non-ASCII byte."""
        data = cc.serialize_codebook(cached_codebook(5)).encode()
        if refused:
            data = data[:-2] + b"\xff\n"
        prefix = b"junk\n\xff\x80"
        path = tmp_path / "cb.txt"
        path.write_bytes(prefix + data)
        with open(path, "rb") as stdin:
            stdin.seek(len(prefix))
            done = subprocess.run(
                [sys.executable, "-m", "collisioncode.cli", "encode",
                 "--codebook", "-", "--station", "1"], stdin=stdin,
                capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(
                    os.path.dirname(cc.__file__))))
        assert ((done.returncode, done.stdout, done.stderr)
                == self.encode_result(data))
        assert done.returncode == 2 * refused

    def test_valid_file_is_not_decoded(self, tmp_path, monkeypatch):
        path = tmp_path / "cb.txt"
        path.write_text(cc.serialize_codebook(cached_codebook(9)))

        def text_parse(doc):
            raise AssertionError("decoded to text")
        monkeypatch.setattr(codebook, "parse_codebook", text_parse)
        assert cli._load_codebook(str(path)) == cached_codebook(9)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(
            path.read_bytes())))
        assert cli._load_codebook("-") == cached_codebook(9)

    def test_array_parse_matches_bytes_parse(self):
        for data in self.corpus():
            buf = np.frombuffer(data, np.uint8).copy()
            assert (self.outcome(codebook._read_codebook, io.BytesIO(buf))
                    == self.outcome(codebook._read_codebook,
                                    io.BytesIO(data))), data

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_header_longer_than_the_searched_prefix(self, tmp_path, extra):
        """Leading zeros make a valid header line as long as asked; one
        whose LF lies around the end of the first 4 KiB parses all the
        same."""
        doc = cc.serialize_codebook(cached_codebook(3))
        head = doc[:doc.index("\n")]
        pad = 4096 - len(head) + extra
        padded = doc.replace("N=3", "N=" + "0" * pad + "3", 1).encode()
        assert padded.index(b"\n") == 4096 + extra
        path = tmp_path / "cb.txt"
        path.write_bytes(padded)
        expected = self.text_outcome(padded)
        assert expected == self.outcome(cc.parse_codebook, doc)
        assert self.outcome(cli._load_codebook, str(path)) == expected


class TestLoaderSources:
    """A FIFO, or a file whose size changes while it is read, loads as
    its bytes parse: the same codebook, or the same error and exit 2."""

    @staticmethod
    def documents():
        doc = cc.serialize_codebook(cached_codebook(5)).encode()
        return {"canonical": doc, "crlf": doc.replace(b"\n", b"\r\n"),
                "truncated": doc[:len(doc) // 2]}

    @staticmethod
    def through_fifo(tmp_path, data, load):
        """load(path) of a FIFO that a writer thread fills with data."""
        fifo = tmp_path / "cb.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            return load(str(fifo))
        finally:
            writer.join(timeout=30)
            assert not writer.is_alive()
            fifo.unlink()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("kind", ["canonical", "crlf", "truncated"])
    def test_fifo_loads_as_its_bytes_parse(self, capsys, tmp_path, kind):
        data = self.documents()[kind]
        path = tmp_path / "cb.txt"
        path.write_bytes(data)
        expected = TestBytesLoader.outcome(codebook._read_codebook,
                                           io.BytesIO(path.read_bytes()))
        assert TestBytesLoader.outcome(cli._load_codebook, str(path)) == expected
        assert self.through_fifo(tmp_path, data, lambda p: TestBytesLoader.outcome(
            cli._load_codebook, p)) == expected
        argv = ["encode", "--station", "1", "--codebook"]
        from_file = run(capsys, [*argv, str(path)])
        assert from_file[0] == (0 if kind == "canonical" else 2)
        assert self.through_fifo(
            tmp_path, data, lambda p: run(capsys, [*argv, p])) == from_file

    @pytest.mark.parametrize("kind", ["canonical", "crlf", "truncated"])
    @pytest.mark.parametrize("shift", [-7, -1, 1, 7])
    def test_size_changed_during_read(self, tmp_path, monkeypatch, kind,
                                      shift):
        """fstat reporting fewer bytes than the file holds (it grew) or
        more (it shrank) still loads the whole file."""
        data = self.documents()[kind]
        path = tmp_path / "cb.txt"
        path.write_bytes(data)
        expected = TestBytesLoader.outcome(codebook._read_codebook,
                                           io.BytesIO(data))
        size = len(data) + shift
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
            st_size=size))
        assert TestBytesLoader.outcome(cli._load_codebook, str(path)) == expected


class TestRowStreaming:
    """A file is read a row at a time: documents whose column values span
    several 8-row groups load, or fail, as the line-by-line oracle reads
    them, from a file or through a FIFO."""

    @staticmethod
    def documents(n):
        doc = cc.serialize_codebook(cached_codebook(n)).encode()
        v = cached_codebook(n).v_length
        last = len(doc) - v - 1  # first byte of the last row
        row9 = doc.index(b"\n") + 1 + 8 * (v + 1)
        return {
            "canonical": doc,
            "bad byte in the last row": doc[:-2] + b"x\n",
            "high byte in the last row": doc[:last + 3] + b"\xff" + doc[last + 4:],
            "bad byte in row 9": doc[:row9] + b"2" + doc[row9 + 1:],
            "last row one byte short": doc[:-2] + b"\n",
            "row 9 one byte short": doc[:row9] + doc[row9 + 1:],
            "extra byte after the last LF": doc + b"0",
            "extra row": doc + doc[last:],
        }

    @staticmethod
    def expected(n, kind, data):
        if kind == "canonical":  # the oracle's column check is quadratic
            cb = cached_codebook(n)
            return cb.n_stations, cb.matrix().shape, cb.matrix().tobytes()
        return TestBytesLoader.oracle_outcome(data)

    @pytest.mark.parametrize("n", [9, 17])
    def test_file_matches_oracle(self, tmp_path, n):
        path = tmp_path / "cb.txt"
        for kind, data in self.documents(n).items():
            path.write_bytes(data)
            got = TestBytesLoader.outcome(cli._load_codebook, str(path))
            assert got == self.expected(n, kind, data), kind
            assert (kind == "canonical") == (got[0] == n), kind

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("n", [9, 17])
    def test_fifo_matches_oracle(self, tmp_path, n):
        for kind, data in self.documents(n).items():
            assert TestLoaderSources.through_fifo(
                tmp_path, data, lambda p: TestBytesLoader.outcome(
                    cli._load_codebook, p)) == self.expected(n, kind, data), kind


def count_workers(monkeypatch) -> list:
    """Lower the floor so that every row's I/O call runs on a worker
    thread; the returned list gains an entry per worker pool made."""
    monkeypatch.setattr(codebook, "_OVERLAP_BYTES", 1)
    made = []

    class Counted(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Counted)
    return made


class TestWorkerIO:
    """Rows read and written on the worker thread: the same documents and
    the same outcomes as the inline calls, with no thread left behind."""

    @staticmethod
    def load(source, tmp_path, monkeypatch, data):
        path = tmp_path / "cb.txt"
        path.write_bytes(data)
        if source == "file":
            return TestBytesLoader.outcome(cli._load_codebook, str(path))
        if source == "stdin":
            with open(path, "rb") as fh:
                monkeypatch.setattr("sys.stdin", io.TextIOWrapper(fh))
                return TestBytesLoader.outcome(cli._load_codebook, "-")
        if source == "pipe":
            return TestLoaderSources.through_fifo(
                tmp_path, data, lambda p: TestBytesLoader.outcome(
                    cli._load_codebook, p))
        return TestBytesLoader.text_outcome(data)  # through parse_codebook

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("source", ["file", "stdin", "pipe",
                                        "parse_codebook"])
    @pytest.mark.parametrize("n", [9, 17])
    def test_reads_match_oracle(self, tmp_path, monkeypatch, n, source):
        started = count_workers(monkeypatch)
        threads = threading.active_count()
        for kind, data in TestRowStreaming.documents(n).items():
            del started[:]
            got = self.load(source, tmp_path, monkeypatch, data)
            assert got == TestRowStreaming.expected(n, kind, data), kind
            assert threading.active_count() == threads, kind
            # a non-ASCII document is no str for parse_codebook
            assert started or (source == "parse_codebook"
                               and kind.startswith("high byte")), kind

    @pytest.mark.parametrize("n", [1, 9, 17])
    def test_writes_match_inline(self, capsys, tmp_path, monkeypatch, n):
        path = tmp_path / "cb.txt"
        inline = cc.serialize_codebook(cached_codebook(n))
        started = count_workers(monkeypatch)
        threads = threading.active_count()
        assert cc.serialize_codebook(cached_codebook(n)) == inline
        assert run(capsys, ["gen", "--n", str(n)]) == (0, inline, "")
        assert run(capsys, ["gen", "--n", str(n), "--out", str(path)]) == (
            0, "", "")
        assert path.read_text() == inline
        assert len(started) == 3
        assert threading.active_count() == threads


class FailingStream(io.BytesIO):
    """A stream whose `method` raises `error` at its `at`-th call."""

    def __init__(self, data, method, at, error):
        super().__init__(data)
        self.calls, self.method, self.at, self.error = 0, method, at, error

    def _count(self, name):
        if name == self.method:
            self.calls += 1
            if self.calls == self.at:
                raise self.error

    def write(self, b):
        self._count("write")
        return super().write(b)

    def readinto(self, b):
        self._count("readinto")
        return super().readinto(b)


class TestWorkerFailures:
    """An I/O call that raises raises the same exception from the library
    call, on the worker thread or inline, and leaves no thread behind."""

    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("row", [3, 9])  # 9: the last, still pending
    def test_write_raises(self, monkeypatch, worker, row):
        if worker:
            count_workers(monkeypatch)
        error = OSError(28, "No space left on device")
        out = FailingStream(b"", "write", 1 + row, error)  # the header first
        threads = threading.active_count()
        with pytest.raises(OSError) as raised:
            codebook._write_document(cached_codebook(9), out)
        assert raised.value is error
        assert threading.active_count() == threads
        assert out.calls == 1 + row  # no row written after the failure

    @pytest.mark.parametrize("worker", [True, False])
    @pytest.mark.parametrize("bad_row", [None, 2])
    def test_read_raises(self, monkeypatch, worker, bad_row):
        """Row 3's read fails; with a bad character in row 2 it is the
        read ahead, still pending when row 2 is refused."""
        if worker:
            count_workers(monkeypatch)
        error = OSError(5, "Input/output error")
        data = cc.serialize_codebook(cached_codebook(9)).encode()
        if bad_row:
            v = cached_codebook(9).v_length
            pos = data.index(b"\n") + 1 + (bad_row - 1) * (v + 1)
            data = data[:pos] + b"x" + data[pos + 1:]
        fh = FailingStream(data, "readinto", 3, error)
        threads = threading.active_count()
        with pytest.raises(OSError) as raised:
            codebook._read_codebook(fh)
        assert raised.value is error
        assert threading.active_count() == threads
        assert fh.calls == 3

    @pytest.mark.parametrize("extra", [b"", b"0"])
    def test_worker_joined_before_the_trailing_byte_check(self, monkeypatch,
                                                          extra):
        counts, threads = [], threading.active_count()

        class Counting(io.BytesIO):
            def read(self, size=-1):
                counts.append(threading.active_count())
                return super().read(size)
        count_workers(monkeypatch)
        data = cc.serialize_codebook(cached_codebook(9)).encode() + extra
        TestBytesLoader.outcome(codebook._read_codebook, Counting(data))
        assert counts and set(counts) == {threads}

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_gen_to_a_full_device(self, capsys):
        assert run(capsys, ["gen", "--n", "25", "--out", "/dev/full"]) == (
            2, "", "error: [Errno 28] No space left on device\n")


class TestSuperpose:
    def test_ideal_profile(self, capsys, cb3_path):
        code, out, _ = run(capsys, ["superpose", "--codebook", cb3_path,
                                    "--stations", "1,2"])
        assert code == 0
        assert json.loads(out) == {"stations": [1, 2], "v": 3,
                                   "sums": [2, 0, 0], "bits": "100"}

    def test_silence(self, capsys, cb3_path):
        code, out, _ = run(capsys, ["superpose", "--codebook", cb3_path,
                                    "--stations", "none"])
        assert json.loads(out)["sums"] == [0, 0, 0]

    @pytest.mark.parametrize("sigma", ["0", "0.1", "-1", "nan", "1.7e308"])
    def test_negative_seed_refused_before_the_load(self, capsys, monkeypatch,
                                                   sigma):
        def loaded(path):
            raise AssertionError("the codebook was read")
        monkeypatch.setattr(cli, "_load_codebook", loaded)
        assert run(capsys, ["superpose", "--codebook", "cb.txt", "--stations",
                            "1", "--sigma", sigma, "--seed", "-1"]) == (
            2, "", "error: seed must be a non-negative integer\n")

    def test_noisy_profile_reproducible(self, capsys, cb3_path):
        argv = ["superpose", "--codebook", cb3_path, "--stations", "1",
                "--sigma", "0.1", "--seed", "42"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert set(payload) == {"stations", "v", "sigma", "seed", "samples",
                                "bits"}
        assert payload["bits"] == "110"


class TestSuperposeBytes:
    """stdout equals json.dumps of the channel's arrays, byte for byte."""

    @staticmethod
    def stdout(capsys, tmp_path, n, stations, *extra):
        path = tmp_path / f"cb{n}.txt"
        if not path.exists():
            path.write_text(cc.serialize_codebook(cached_codebook(n)))
        code, out, _ = run(capsys, [
            "superpose", "--codebook", str(path),
            "--stations", ",".join(map(str, stations)) or "none", *extra])
        assert code == 0
        return out

    @staticmethod
    def subsets(n):
        """Every subset at n=5; silence and 8 seeded subsets otherwise."""
        if n == 5:
            return [[i + 1 for i in range(n) if mask >> i & 1]
                    for mask in range(1 << n)]
        rng = np.random.default_rng(n)
        return [[], *(sorted(rng.choice(np.arange(1, n + 1), int(k),
                                        replace=False).tolist())
                      for k in rng.integers(1, n + 1, 8))]

    @pytest.mark.parametrize("n", [5, 15])
    def test_ideal(self, capsys, tmp_path, n):
        cb = cached_codebook(n)
        for stations in self.subsets(n):
            sums = cc.superpose(cb, stations)
            assert self.stdout(capsys, tmp_path, n, stations) == json.dumps({
                "stations": stations, "v": cb.v_length,
                "sums": sums.tolist(),
                "bits": cc.bits_to_str(cc.demodulate(sums))}) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 7, 21])
    def test_empty_one_and_all_stations(self, capsys, tmp_path, n):
        cb = cached_codebook(n)
        for stations in ([], [n], list(range(1, n + 1))):
            sums = cc.superpose(cb, stations)
            assert self.stdout(capsys, tmp_path, n, stations) == json.dumps({
                "stations": stations, "v": cb.v_length,
                "sums": sums.tolist(),
                "bits": cc.bits_to_str(cc.demodulate(sums))}) + "\n"

    @pytest.mark.parametrize("bound", range(26))
    def test_json_int_list(self, bound):
        rng = np.random.default_rng(bound)
        vectors = [np.full(9, -bound, np.int16), np.full(9, bound, np.int16),
                   np.full(1, bound, np.int16),
                   rng.integers(-bound, bound + 1, 1000).astype(np.int16)]
        for values in vectors:
            assert cli._json_int_list(values, bound) == json.dumps(values.tolist())

    def test_noisy(self, capsys, tmp_path):
        cb = cached_codebook(5)
        for stations in self.subsets(5):
            samples = cc.superpose_noisy(cb, stations, 0.7, 5)
            out = self.stdout(capsys, tmp_path, 5, stations,
                              "--sigma", "0.7", "--seed", "5")
            assert out == json.dumps({
                "stations": stations, "v": cb.v_length, "sigma": 0.7,
                "seed": 5, "samples": samples.tolist(),
                "bits": cc.bits_to_str(cc.threshold_noisy(samples))}) + "\n"

    @staticmethod
    def noisy_json(cb, stations, sigma, seed):
        samples = cc.superpose_noisy(cb, stations, sigma, seed)
        return json.dumps({
            "stations": stations, "v": cb.v_length, "sigma": sigma,
            "seed": seed, "samples": samples.tolist(),
            "bits": cc.bits_to_str(cc.threshold_noisy(samples))}) + "\n"

    def test_noisy_blocks_of_any_size(self, capsys, tmp_path, monkeypatch):
        # one sample per block, two, all but one, and all of them
        cb = cached_codebook(7)
        v = cb.v_length
        for block in (1, 2, v - 1, v):
            monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
            for stations in ([], [3], [1, 2, 5], list(range(1, 8))):
                assert self.stdout(
                    capsys, tmp_path, 7, stations, "--sigma", "0.6",
                    "--seed", "4") == self.noisy_json(cb, stations, 0.6, 4)

    def test_noisy_spans_several_default_blocks(self, capsys, tmp_path):
        # compared by digest: a failing == on 7 MB strings takes minutes
        cb = cached_codebook(21)
        assert cb.v_length > 5 * cli._SAMPLE_BLOCK
        stations = [2, 7, 11, 20]
        out, expected = (self.stdout(capsys, tmp_path, 21, stations,
                                     "--sigma", "0.45", "--seed", "9"),
                         self.noisy_json(cb, stations, 0.45, 9))
        assert len(out) == len(expected) and hashlib.sha256(
            out.encode()).digest() == hashlib.sha256(expected.encode()).digest()


class TestDecode:
    def test_identified(self, capsys, cb3_path):
        code, out, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                    "--vector", "110"])
        assert code == 0
        assert json.loads(out) == {"kind": "identified", "stations": [1]}

    def test_silence(self, capsys, cb3_path):
        code, out, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                    "--vector", "000"])
        assert code == 0
        assert json.loads(out) == {"kind": "silence"}

    def test_nomatch_exit_code(self, capsys, tmp_path):
        path = tmp_path / "cb5.txt"
        path.write_text(cc.serialize_codebook(cached_codebook(5)))
        code, out, _ = run(capsys, ["decode", "--codebook", str(path),
                                    "--vector", smallest_unreachable(5)])
        assert code == 1
        assert json.loads(out) == {"kind": "nomatch"}

    def test_malformed_vector(self, capsys, cb3_path):
        code, _, err = run(capsys, ["decode", "--codebook", cb3_path,
                                    "--vector", "0Z1"])
        assert code == 2 and "error" in err

    def test_wrong_length(self, capsys, cb3_path):
        code, _, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                  "--vector", "11"])
        assert code == 2

    def test_vector_file(self, capsys, cb3_path, tmp_path):
        vec = tmp_path / "vec.txt"
        vec.write_text("001\n")
        code, out, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                    "--vector-file", str(vec)])
        assert code == 0
        assert json.loads(out) == {"kind": "identified", "stations": [2, 3]}

    def test_nearest_reports_distance(self, capsys, tmp_path):
        path = tmp_path / "cb5.txt"
        path.write_text(cc.serialize_codebook(cached_codebook(5)))
        base = cc.bits_to_str(cc.demodulate(cc.superpose(cached_codebook(5),
                                                         {1, 2})))
        corrupted = ("1" if base[0] == "0" else "0") + base[1:]
        code, out, _ = run(capsys, ["decode", "--codebook", str(path),
                                    "--vector", corrupted, "--nearest",
                                    "--max-dist", "1"])
        assert code == 0
        assert json.loads(out) == {"kind": "identified", "stations": [1, 2],
                                   "distance": 1}

    def test_nearest_beyond_17_stations(self, capsys, tmp_path):
        cb = cached_codebook(18)
        path = tmp_path / "cb.txt"
        path.write_text(cc.serialize_codebook(cb))
        vec = tmp_path / "vec.txt"
        vec.write_text(cc.bits_to_str(cc.demodulate(cc.superpose(cb, {1}))))
        code, out, _ = run(capsys, ["decode", "--codebook", str(path),
                                    "--vector-file", str(vec), "--nearest"])
        assert code == 0
        assert json.loads(out) == {"kind": "identified", "stations": [1],
                                   "distance": 0}

    def test_nearest_over_chip_budget_is_usage_error(self, capsys, tmp_path):
        cb = cached_codebook(18)
        path = tmp_path / "cb.txt"
        path.write_text(cc.serialize_codebook(cb))
        vec = tmp_path / "vec.txt"
        uniform = np.random.default_rng(18).integers(0, 2, cb.v_length)
        vec.write_text(cc.bits_to_str(uniform))
        code, out, err = run(capsys, ["decode", "--codebook", str(path),
                                      "--vector-file", str(vec), "--nearest"])
        assert code == 2 and out == ""
        assert "nearest-decode budget" in err

    @pytest.mark.parametrize("max_dist", ["-1", "-7"])
    def test_negative_max_dist_is_usage_error(self, capsys, cb3_path,
                                              max_dist):
        assert run(capsys, ["decode", "--codebook", cb3_path, "--vector",
                            "110", "--nearest", "--max-dist", max_dist]) == (
            2, "", "error: max_dist must be >= 0\n")

    def test_vector_and_file_are_exclusive(self, capsys, cb3_path, tmp_path):
        vec = tmp_path / "vec.txt"
        vec.write_text("110\n")
        code, _, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                  "--vector", "110", "--vector-file", str(vec)])
        assert code == 2


class TestPiping:
    def test_stdin_codebook_matches_file(self, capsys, cb3_path, monkeypatch):
        code_file, out_file, _ = run(capsys, ["decode", "--codebook", cb3_path,
                                              "--vector", "010"])
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(CB3_DOC.encode())))
        code_pipe, out_pipe, _ = run(capsys, ["decode", "--codebook", "-",
                                              "--vector", "010"])
        assert (code_file, out_file) == (code_pipe, out_pipe)
        assert json.loads(out_pipe)["stations"] == [1, 3]

    def test_gen_output_parses_back(self, capsys):
        _, out, _ = run(capsys, ["gen", "--n", "7"])
        assert cc.parse_codebook(out) == cached_codebook(7)


class TestVerify:
    def test_uniqueness_json(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "5", "--check",
                                    "uniqueness"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["subsets_checked"] == 31
        assert payload["distinct_vectors"] == 31
        assert payload["collisions"] == []
        assert payload["elapsed_ms"] >= 0

    def test_workers_flag(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "9", "--check",
                                    "uniqueness", "--workers", "4"])
        assert code == 0
        assert json.loads(out)["distinct_vectors"] == 511

    def test_lemmas(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "7", "--check", "lemmas"])
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_claims(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "6", "--check", "claims",
                                    "--trials", "50", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["trials"] == 50

    def test_zero(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "8", "--check", "zero"])
        assert code == 0
        assert json.loads(out)["ok"]

    def test_all(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "5", "--check", "all",
                                    "--trials", "25"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert set(payload) == {"n", "uniqueness", "lemmas", "claims", "zero",
                                "ok"}

    def test_all_skips_over_budget_sweep(self, capsys):
        """Within the one row budget the sweep runs: n=13 is not skipped."""
        code, out, _ = run(capsys, ["verify", "--n", "13", "--check", "all",
                                    "--trials", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lemmas"]["failures"] == []
        assert payload["lemmas"]["subsets_checked"] == 8190
        assert payload["uniqueness"]["distinct_vectors"] == 8191

    def test_all_skips_every_enumeration_over_budget(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "16", "--check", "all",
                                    "--trials", "10"])
        assert code == 0
        payload = json.loads(out)
        for check in ("uniqueness", "lemmas", "zero"):
            assert payload[check] == {
                "skipped": "n_rows=17 exceeds the default budget of 15"}
        assert payload["claims"]["ok"] and payload["ok"]

    def test_all_reads_budgets_at_run_time(self, capsys, monkeypatch):
        monkeypatch.setattr(verifier, "UNIQUENESS_BUDGET_ROWS", 6)
        code, out, _ = run(capsys, ["verify", "--n", "7", "--check", "all"])
        assert code == 0
        payload = json.loads(out)
        for check in ("uniqueness", "lemmas", "zero"):
            assert payload[check] == {
                "skipped": "n_rows=7 exceeds the default budget of 6"}

    @pytest.mark.parametrize("n,checked", [(12, 8190), (15, 32766)])
    def test_lemmas_within_the_budget(self, capsys, n, checked):
        code, out, _ = run(capsys, ["verify", "--n", str(n), "--check",
                                    "lemmas"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == [] and payload["subsets_checked"] == checked

    # every --check, within the enumeration budget and over it
    EVERY_CHECK = [
        "--n 7 --check zero", "--n 7 --check lemmas", "--n 7 --check claims",
        "--n 7 --check uniqueness", "--n 7 --check all",
        "--n 16 --check all --trials 5"]

    @pytest.mark.parametrize("argv", EVERY_CHECK)
    def test_workers_below_one_is_usage_error(self, capsys, monkeypatch, argv):
        def built(n):
            raise AssertionError("the codebook was built")
        monkeypatch.setattr(cli, "build_codebook", built)
        assert run(capsys, ["verify", *argv.split(), "--workers", "0"]) == (
            2, "", "error: workers must be >= 1\n")

    @pytest.mark.parametrize("argv", [*EVERY_CHECK, "--n 26 --check zero"])
    @pytest.mark.parametrize("option, message", [
        ("--seed -1", "seed must be a non-negative integer"),
        ("--trials 0", "trials must be >= 1"),
        ("--trials -5", "trials must be >= 1")])
    def test_bad_seed_or_trials_refused_before_the_build(
            self, capsys, monkeypatch, argv, option, message):
        def built(n):
            raise AssertionError("the codebook was built")
        monkeypatch.setattr(cli, "build_codebook", built)
        assert run(capsys, ["verify", *argv.split(), *option.split()]) == (
            2, "", f"error: {message}\n")

    @pytest.mark.parametrize("check", ["claims", "all"])
    def test_over_budget_claims_is_usage_error(self, capsys, check):
        code, out, err = run(capsys, ["verify", "--n", "15", "--check", check,
                                      "--trials", "1000000"])
        assert (code, out) == (2, "")
        assert err == ("error: 1000000 trials of 6435 chips exceed the claims "
                       "budget of 5200300000 chips\n")

    @pytest.mark.parametrize("check", ["verify_uniqueness", "sweep_witnesses",
                                       "verify_no_zero_vector"])
    def test_over_budget_claims_refused_before_enumeration(self, capsys,
                                                           monkeypatch, check):
        def enumerated(*args, **kwargs):
            raise AssertionError(f"{check} ran")
        monkeypatch.setattr(verifier, check, enumerated)
        code, out, err = run(capsys, ["verify", "--n", "11", "--check", "all",
                                      "--trials", "100000000"])
        assert (code, out) == (2, "")
        assert err == ("error: 100000000 trials of 462 chips exceed the claims "
                       "budget of 5200300000 chips\n")

    def test_over_budget_single_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["verify", "--n", "16", "--check",
                                    "uniqueness"])
        assert code == 2 and "error" in err


class TestSimulate:
    def test_byte_identical_runs(self, capsys):
        argv = ["simulate", "--n", "7", "--loss", "0.3", "--rounds", "20",
                "--seed", "7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n"] == 7 and payload["completed"]

    @pytest.mark.parametrize("n", [19, 21])
    def test_large_n_rounds_decode_exactly(self, capsys, n):
        code, out, _ = run(capsys, ["simulate", "--n", str(n), "--loss", "0.3",
                                    "--rounds", "1", "--seed", "1"])
        assert code == 0
        [r] = json.loads(out)["per_round"]
        assert r["decoded"] in ("identified", "silence")
        assert r["confirmed"] == r["received"]

    def test_round_budget(self, capsys):
        """A session never confirms anyone at loss 1, so it runs every round."""
        argv = ["simulate", "--n", "3", "--loss", "1", "--seed", "1", "--rounds"]
        code, out, err = run(capsys, [*argv, "1000"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["rounds_used"] == 1000 and not payload["completed"]
        assert run(capsys, [*argv, "1001"]) == (
            2, "", "error: max_rounds=1001 exceeds the round budget of 1000\n")

    def test_sigma_flag(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--n", "3", "--loss", "0.1",
                                    "--sigma", "0.2", "--rounds", "10",
                                    "--seed", "5"])
        assert code == 0
        assert json.loads(out)["noise_sigma"] == 0.2


class TestSigmaRefused:
    """A sigma that is not a finite number >= 0 is a usage error."""

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_superpose(self, capsys, cb3_path, sigma):
        assert run(capsys, ["superpose", "--codebook", cb3_path,
                            "--stations", "1,2", "--sigma", sigma]) == (
            2, "", "error: sigma must be >= 0\n")

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_simulate(self, capsys, sigma):
        assert run(capsys, ["simulate", "--n", "3", "--loss", "0.1",
                            "--sigma", sigma, "--rounds", "4",
                            "--seed", "1"]) == (
            2, "", "error: noise_sigma must be >= 0\n")

    def test_superpose_overflow(self, capsys, cb3_path):
        assert run(capsys, ["superpose", "--codebook", cb3_path,
                            "--stations", "1", "--sigma", "1.7e308",
                            "--seed", "3"]) == (
            2, "", "error: sigma=1.7e+308 overflows the noisy samples\n")

    def test_simulate_overflow(self, capsys):
        assert run(capsys, ["simulate", "--n", "7", "--loss", "0.1",
                            "--sigma", "1.7e308", "--rounds", "4",
                            "--seed", "1"]) == (
            2, "", "error: sigma=1.7e+308 overflows the noisy samples\n")


class TestNoisyDigests:
    """The noisy channel's stdout, pinned by sha256: no golden runs with
    sigma > 0."""

    def test_superpose(self, capsys, tmp_path):
        path = tmp_path / "cb15.txt"
        path.write_text(cc.serialize_codebook(cached_codebook(15)))
        code, out, _ = run(capsys, ["superpose", "--codebook", str(path),
                                    "--stations", "1,4,9", "--sigma", "0.7",
                                    "--seed", "5"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a6e6bf29fa166777770a303d952db5429761f42f7ee44a8702e3454cb751c76e")

    @pytest.mark.parametrize("argv, sha256", [
        ("--n 7 --loss 0.3 --sigma 0.2 --rounds 16 --seed 3",
         "7307c78e74519a541cfa729e1ecdd8e43d2598999196c4f89d23e449b7df60c0"),
        ("--n 15 --loss 0.3 --sigma 0.125 --rounds 64 --seed 11",
         "09522f96be250c0d64d3e6efe8969bbdbfe42d3efa9e699d405b8a0a9af0895e"),
    ])
    def test_simulate(self, capsys, argv, sha256):
        code, out, _ = run(capsys, ["simulate", *argv.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        assert main(["gen", "--n", "three"]) == 2
