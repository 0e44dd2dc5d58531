"""The package's public names and the scripts shipped beside it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import collisioncode as cc

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = {
    "modulate", "superpose", "demodulate", "majority_demod_bit",
    "pnc_xor_map", "superpose_noisy", "threshold_noisy",
    "Codebook", "MAX_STATIONS", "build_codebook", "codeword_for",
    "serialize_codebook", "parse_codebook", "bits_to_str", "str_to_bits",
    "SizeLimitError", "FormatError", "InvariantError",
    "DecodeOutcome", "IDENTIFIED", "SILENCE", "NOMATCH",
    "NEAREST_BUDGET_CHIPS", "decode_exact", "decode_nearest",
    "UniquenessReport", "WitnessSweepReport", "AdditivityReport",
    "UNIQUENESS_BUDGET_ROWS", "sweep_witnesses", "check_additivity",
    "verify_uniqueness", "verify_no_zero_vector",
    "SessionConfig", "RoundResult", "SessionStats", "run_round",
    "run_session",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 38
    assert len(cc.__all__) == len(set(cc.__all__))
    assert set(cc.__all__) == PUBLIC_NAMES
    for name in cc.__all__:
        getattr(cc, name)


def noise_sweep(*argv):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), *argv],
        capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_noise_sweep_rates_partition_the_trials():
    argv = ["--n", "5", "--sigmas", "0.1,0.4", "--trials", "20", "--seed",
            "1", "--max-dist", "3", "--json"]
    out = noise_sweep(*argv)
    report = json.loads(out)
    assert (report["n"], report["seed"]) == (5, 1)
    assert [row["sigma"] for row in report["results"]] == [0.1, 0.4]
    for row in report["results"]:
        assert row["trials"] == 20
        for prefix in ("", "nearest_"):
            rates = [row[f"{prefix}{kind}_rate"]
                     for kind in ("exact", "nomatch", "wrong")]
            assert all(0 <= rate <= 1 for rate in rates)
            assert sum(rates) == pytest.approx(1)
    assert noise_sweep(*argv) == out
