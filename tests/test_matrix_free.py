"""No library path derives the unpacked matrix.

With `Codebook.matrix` made to raise, exact and nearest decoding (both a
certified vector and one that needs the class search), the channel,
every verifier check and every CLI subcommand run to completion.
"""

import functools
from unittest import mock

import numpy as np
import pytest

import collisioncode as cc
from collisioncode import decoder
from collisioncode.cli import main
from collisioncode.codebook import Codebook

SIZES = [1, 4, 7, 9]


@pytest.fixture(autouse=True)
def no_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("the unpacked matrix was derived")

    monkeypatch.setattr(Codebook, "matrix", refuse)


@functools.cache
def searched_vector(n):
    """The first of a seeded stream of uniform vectors whose nearest
    decode on the n-station code reaches the class search."""
    cb = cc.build_codebook(n)
    rng = np.random.default_rng(n)
    for _ in range(100):
        received = rng.integers(0, 2, cb.v_length).astype(np.uint8)
        with mock.patch.object(decoder, "_nearest_by_class",
                               wraps=decoder._nearest_by_class) as search:
            cc.decode_nearest(cb, received, cb.v_length)
        if search.called:
            return received
    raise AssertionError("no vector reached the class search")


@pytest.mark.parametrize("n", SIZES)
def test_library(n, monkeypatch):
    # one station's code has no other subset to search
    far = searched_vector(n) if n > 1 else None
    search = mock.Mock(wraps=decoder._nearest_by_class)
    monkeypatch.setattr(decoder, "_nearest_by_class", search)
    cb = cc.build_codebook(n)
    subset = set(range(1, n + 1, 2))
    clean = cc.demodulate(cc.superpose(cb, subset))
    assert cc.decode_exact(cb, clean) == cc.DecodeOutcome(
        cc.IDENTIFIED, frozenset(subset), 0)
    assert cc.decode_nearest(cb, clean, 0) == cc.DecodeOutcome(
        cc.IDENTIFIED, frozenset(subset), 0)
    assert not search.called
    if far is not None:
        outcome = cc.decode_nearest(cb, far, cb.v_length)
        assert search.call_count == 1 and outcome.distance is not None
    assert cc.codeword_for(cb, n).size == cb.v_length
    assert not cc.verify_uniqueness(cb).collisions
    assert not cc.sweep_witnesses(cb).failures
    assert cc.check_additivity(cb, 50, 1).ok
    assert cc.verify_no_zero_vector(cb)


@pytest.mark.parametrize("n", SIZES)
def test_cli(n, tmp_path, capsys):
    path = str(tmp_path / "cb.txt")
    stations = ",".join(map(str, range(1, n + 1, 2)))
    assert main(["gen", "--n", str(n)]) == 0
    assert main(["gen", "--n", str(n), "--out", path]) == 0
    assert main(["encode", "--codebook", path, "--station", str(n)]) == 0
    assert main(["superpose", "--codebook", path, "--stations", stations,
                 "--sigma", "0.4", "--seed", "2"]) == 0
    assert main(["superpose", "--codebook", path, "--stations", stations]) == 0
    bits = capsys.readouterr().out.rsplit('"bits": "', 1)[1].split('"')[0]
    assert main(["decode", "--codebook", path, "--vector", bits]) == 0
    vector = cc.bits_to_str(searched_vector(n)) if n > 1 else bits
    assert main(["decode", "--codebook", path, "--vector", vector,
                 "--nearest"]) in (0, 1)
    assert main(["verify", "--n", str(n), "--check", "all",
                 "--trials", "50"]) == 0
    assert main(["simulate", "--n", str(n), "--loss", "0.3", "--sigma",
                 "0.3", "--rounds", "8", "--seed", "1"]) == 0
    assert "error" not in capsys.readouterr().err
