"""Memory envelope at the 25-station cap: `gen` (to a file and to stdout),
`superpose`, `encode` (from a file, from stdin redirected from it and
through a pipe), exact `decode`, `verify --check claims` and the refusal
of a corrupted codebook, from a file or through a pipe, each run as a
child process whose peak RSS stays within PEAK_RSS_MB, `decode
--nearest` of a vector that reaches the class search and `simulate` on
the ideal and the noisy channel within NEAREST_PEAK_RSS_MB, and the
refusal of a codebook with a non-ASCII byte within REFUSAL_PEAK_RSS_MB.
Inputs over a size budget
(`gen --n 26`, `simulate --rounds 1001`, `verify` over the claims budget
and `decode --nearest` of a uniform vector at 18 stations) each exit 2
with an empty stdout within PEAK_RSS_MB. No timing bound is set.

Each command is spawned by a fresh launcher interpreter that reports the
child's peak from RUSAGE_CHILDREN. Linux carries a process's pre-exec
high-water mark into its ru_maxrss, so a child spawned by this test
process would read at least the test process's own peak.
"""

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collisioncode as cc
from collisioncode import _classes

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="ru_maxrss is in KiB on Linux")

PEAK_RSS_MB = 150
NEAREST_PEAK_RSS_MB = 256  # the class search's flip rows and sum tables
# a non-ASCII byte's error message reads the byte from an object at
# least as long as its position in the document
REFUSAL_PEAK_RSS_MB = 200
STATIONS = list(range(1, 26, 2))  # 13 of the 25 stations
SRC = Path(__file__).resolve().parent.parent / "src"
_LAUNCHER = """
import resource, shutil, subprocess, sys
with (open(sys.argv[1], "wb") as out, open(sys.argv[2], "rb") as inp,
      open(sys.argv[3], "wb") as err):
    pipe = sys.argv[4] == "pipe"
    child = subprocess.Popen(sys.argv[5:], stdin=subprocess.PIPE if pipe
                             else inp, stdout=out, stderr=err)
    if pipe:
        try:
            with child.stdin:
                shutil.copyfileobj(inp, child.stdin)
        except BrokenPipeError:  # the child stopped reading
            pass
    code = child.wait()
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_cli(stdout_path, *argv, stdin=os.devnull, stderr=os.devnull,
            pipe=False) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one CLI run in a child process whose
    stdin is the file stdin, or a pipe the launcher copies it into, and
    whose stdout and stderr go to the files stdout_path and stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(stdout_path), str(stdin),
         str(stderr), "pipe" if pipe else "file", sys.executable, "-m",
         "collisioncode.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300, check=True)
    code, kib = done.stdout.split()
    return int(code), int(kib) / 1024


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cap")


@pytest.fixture(scope="module")
def gen_out(work):
    path = work / "cb25.txt"
    return path, run_cli(os.devnull, "gen", "--n", 25, "--out", path)


@pytest.fixture(scope="module")
def superposed(work, gen_out):
    out = work / "superpose.json"
    return out, run_cli(out, "superpose", "--codebook", gen_out[0],
                        "--stations", ",".join(map(str, STATIONS)))


def test_gen_to_a_file(gen_out):
    code, peak = gen_out[1]
    assert code == 0 and peak <= PEAK_RSS_MB, peak


def test_gen_to_stdout(work, gen_out):
    out = work / "stdout.txt"
    code, peak = run_cli(out, "gen", "--n", 25)
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    assert filecmp.cmp(out, gen_out[0], shallow=False)


def test_superpose(superposed):
    out, (code, peak) = superposed
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    with open(out, "rb") as fh:
        head = fh.read(200)
    assert head.startswith(
        f'{{"stations": {STATIONS}, "v": {math.comb(25, 13)}, "sums": ['
        .encode())


def test_encode(work, gen_out):
    out = work / "encode.txt"
    code, peak = run_cli(out, "encode", "--codebook", gen_out[0],
                         "--station", 25)
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    word = out.read_bytes()
    assert len(word) == math.comb(25, 13) + 1 and word.endswith(b"\n")
    assert word.count(b"1") == math.comb(24, 12)


def test_encode_from_stdin(work, gen_out):
    """stdin redirected from the file is read a row at a time, as the
    file is."""
    out = work / "encode-stdin.txt"
    code, peak = run_cli(out, "encode", "--station", 25, "--codebook", "-",
                         stdin=gen_out[0])
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    assert out.read_text() == cc.bits_to_str(
        cc.codeword_for(cc.build_codebook(25), 25)) + "\n"


def test_encode_from_a_pipe(work, gen_out):
    """A pipe is read a row at a time, as the file is."""
    out = work / "encode-pipe.txt"
    code, peak = run_cli(out, "encode", "--station", 25, "--codebook", "-",
                         stdin=gen_out[0], pipe=True)
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    assert out.read_text() == cc.bits_to_str(
        cc.codeword_for(cc.build_codebook(25), 25)) + "\n"


V25 = math.comb(25, 13)
HEAD25 = len(f"COLLISIONCODE v1 N=25 ROWS=25 R=13 V={V25}\n")


def splice(src, dst, pos: int, cut: int, insert: bytes) -> None:
    """Copy the file src to dst with the cut bytes at pos (counted from
    the end if negative) replaced by insert, a MiB at a time."""
    pos %= src.stat().st_size
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        while fin.tell() < pos:
            fout.write(fin.read(min(1 << 20, pos - fin.tell())))
        fout.write(insert)
        fin.seek(cut, os.SEEK_CUR)
        shutil.copyfileobj(fin, fout)


REFUSALS = {
    "bad byte in the last row": (-2, 1, b"x", "invalid bit character 'x'"),
    "no final LF": (-1, 1, b"", "document must end with a newline"),
    "high byte in the last row": (
        -V25 + 2, 1, b"\xff", "'ascii' codec can't decode byte 0xff in "
        f"position {HEAD25 + 24 * (V25 + 1) + 3}: ordinal not in range(128)"),
    "extra LF in row 1": (HEAD25 + 10, 0, b"\n", "expected 25 row lines, got 26"),
    "last row 4 bytes short": (-5, 4, b"", f"row 25 has length {V25 - 4}, "
                                           f"expected {V25}"),
}


def refused(work, gen_out, kind, pipe=False) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of encode of the codebook corrupted as
    REFUSALS[kind] says, from a file or through a pipe; its stdout must be
    empty and its stderr the first fault's message."""
    pos, cut, insert, message = REFUSALS[kind]
    bad, out, err = work / "bad.txt", work / "bad.out", work / "bad.err"
    splice(gen_out[0], bad, pos, cut, insert)
    try:
        got = run_cli(out, "encode", "--station", 1, "--codebook",
                      "-" if pipe else bad, stdin=bad if pipe else os.devnull,
                      stderr=err, pipe=pipe)
    finally:
        bad.unlink()
    assert out.read_bytes() == b""
    assert err.read_text() == f"error: {message}\n"
    return got


@pytest.mark.parametrize("kind", REFUSALS)
def test_refused_file(work, gen_out, kind):
    """A corrupted document is refused, exit 2 and the first fault's
    message, within PEAK_RSS_MB; a non-ASCII byte within
    REFUSAL_PEAK_RSS_MB."""
    code, peak = refused(work, gen_out, kind)
    bound = REFUSAL_PEAK_RSS_MB if kind.startswith("high") else PEAK_RSS_MB
    assert code == 2 and peak <= bound, peak


def test_refused_pipe(work, gen_out):
    """A corrupted document through a pipe is read once, as a file is."""
    code, peak = refused(work, gen_out, "bad byte in the last row", pipe=True)
    assert code == 2 and peak <= PEAK_RSS_MB, peak


def test_exact_decode(work, gen_out, superposed):
    data = superposed[0].read_bytes()
    start = data.index(b'"bits": "') + len(b'"bits": "')
    vector = work / "vector.txt"
    vector.write_bytes(data[start:data.index(b'"', start)])
    out = work / "decode.json"
    code, peak = run_cli(out, "decode", "--codebook", gen_out[0],
                         "--vector-file", vector)
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    assert json.loads(out.read_text()) == {"kind": "identified",
                                           "stations": STATIONS}


def test_nearest_decode_through_the_class_search(work, gen_out):
    """12 stations under sigma=0.7 noise: the sent set is too far from
    the vector to be certified, so the class search runs."""
    stations = sorted((np.random.default_rng(1).choice(25, 12, replace=False)
                       + 1).tolist())
    bits = cc.threshold_noisy(cc.superpose_noisy(
        cc.build_codebook(25), stations, 0.7, 1))
    vector = work / "noisy.txt"
    vector.write_text(cc.bits_to_str(bits))
    out = work / "nearest.json"
    code, peak = run_cli(out, "decode", "--codebook", gen_out[0],
                         "--vector-file", vector, "--nearest")
    assert code == 0 and peak <= NEAREST_PEAK_RSS_MB, peak
    decoded = json.loads(out.read_text())
    assert decoded["kind"] == "identified" and decoded["stations"] == stations
    assert 2 * decoded["distance"] >= _classes.radius(25, 12)


def test_verify_claims(work):
    out = work / "claims.json"
    code, peak = run_cli(out, "verify", "--n", 25, "--check", "claims",
                         "--trials", 20)
    assert code == 0 and peak <= PEAK_RSS_MB, peak
    assert json.loads(out.read_text()) == {
        "n": 25, "trials": 20, "seed": 1, "ok": True, "counterexample": None}


@pytest.mark.parametrize("sigma,rounds", [(None, 8), (0.2, 2)])
def test_simulate(work, sigma, rounds):
    """A session at the cap: its shared codebook, each round's V-chip
    superposition and decode, and on the noisy channel the float64
    samples."""
    noise = [] if sigma is None else ["--sigma", sigma]
    out = work / "simulate.json"
    code, peak = run_cli(out, "simulate", "--n", 25, "--loss", 0.3, *noise,
                         "--rounds", rounds, "--seed", 1)
    assert code == 0 and peak <= NEAREST_PEAK_RSS_MB, peak
    stats = json.loads(out.read_text())
    assert stats["n"] == 25 and stats["noise_sigma"] == (sigma or 0.0)
    assert stats["rounds_used"] == len(stats["per_round"]) <= rounds
    if sigma is None:
        assert stats["completed"] and stats["undecodable_rounds"] == 0


@pytest.fixture(scope="module")
def uniform18(work):
    """An 18-station codebook file and a uniform vector, far from every
    subset, whose exact nearest search would cover all 2^18 of them."""
    path, vector = work / "cb18.txt", work / "uniform18.txt"
    assert run_cli(os.devnull, "gen", "--n", 18, "--out", path)[0] == 0
    v = math.comb(19, 10)
    vector.write_text(cc.bits_to_str(
        np.random.default_rng(18).integers(0, 2, v).astype(np.uint8)))
    return path, vector


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", 26], "n_stations=26 exceeds the cap of 25 (codeword "
                         "length grows as C(rows, (rows+1)/2))"),
    (["simulate", "--n", 25, "--loss", 0.3, "--rounds", 1001, "--seed", 1],
     "max_rounds=1001 exceeds the round budget of 1000"),
    (["verify", "--n", 25, "--check", "claims", "--trials", 1001],
     f"1001 trials of {V25} chips exceed the claims budget of "
     f"{1000 * V25} chips"),
    (["decode", "--nearest"], f"exceeds the nearest-decode budget of "
                              f"{cc.NEAREST_BUDGET_CHIPS} chips"),
], ids=["gen over the cap", "simulate over the round budget",
        "verify over the claims budget", "nearest over the chip budget"])
def test_refused_over_budget(work, uniform18, argv, message):
    """An input over a size budget is refused: exit 2, nothing on stdout
    and the budget's message, within PEAK_RSS_MB."""
    if argv[0] == "decode":
        argv = [*argv, "--codebook", uniform18[0],
                "--vector-file", uniform18[1]]
    out, err = work / "over.out", work / "over.err"
    code, peak = run_cli(out, *argv, stderr=err)
    assert code == 2 and peak <= PEAK_RSS_MB, peak
    assert out.read_bytes() == b""
    error = err.read_text()
    assert error.startswith("error: ") and error.endswith(f"{message}\n")
