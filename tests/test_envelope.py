"""Memory envelope at the 25-station cap: `gen` (to a file and to stdout),
`superpose`, `encode` and exact `decode` each run as a child process whose
peak RSS stays within PEAK_RSS_MB. No timing bound is set.

Each command is spawned by a fresh launcher interpreter that reports the
child's peak from RUSAGE_CHILDREN. Linux carries a process's pre-exec
high-water mark into its ru_maxrss, so a child spawned by this test
process would read at least the test process's own peak.
"""

import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="ru_maxrss is in KiB on Linux")

PEAK_RSS_MB = 150
STATIONS = list(range(1, 26, 2))  # 13 of the 25 stations
SRC = Path(__file__).resolve().parent.parent / "src"
_LAUNCHER = """
import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    code = subprocess.run(sys.argv[2:], stdout=out).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_cli(stdout_path, *argv) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one CLI run in a child process whose
    stdout goes to stdout_path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(stdout_path), sys.executable,
         "-m", "collisioncode.cli", *map(str, argv)],
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
