"""Acceptance suite: one test per release criterion.

Every criterion prints a single pass line (visible with pytest -s), so a
full run doubles as a checklist. All tolerances are zero unless a runtime
bound is stated inline.
"""

import json
import math
import time

import numpy as np

import collisioncode as cc
from collisioncode import protocol
from conftest import cached_codebook

DECODED_BITSTREAMS_N3 = {
    (1,): "110", (2,): "101", (3,): "011",
    (1, 2): "100", (1, 3): "010", (2, 3): "001",
    (1, 2, 3): "111",
}

PNC_MAPPING = [((1, 1), 2, 0), ((0, 1), 0, 1), ((1, 0), 0, 1), ((0, 0), -2, 0)]

MAJORITY_TABLE = {
    (0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 0, (0, 1, 1): 1,
    (1, 0, 0): 0, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1,
}


def _passed(num: int, message: str) -> None:
    print(f"[acceptance] criterion {num:>2} PASS: {message}")


def _mask_subsets(n: int):
    for mask in range(1, 2 ** n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def test_criterion_01_three_station_decode_table():
    start = time.perf_counter()
    cb = cached_codebook(3)
    for subset, expected in DECODED_BITSTREAMS_N3.items():
        decoded = cc.bits_to_str(cc.demodulate(cc.superpose(cb, subset)))
        assert decoded == expected, (subset, decoded, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"all 7 receiver combinations decode as published "
               f"({elapsed * 1000:.1f} ms)")


def test_criterion_02_two_transmitter_xor_mapping():
    for (s1, s3), amp_sum, s2 in PNC_MAPPING:
        assert cc.modulate(s1) + cc.modulate(s3) == amp_sum
        assert cc.pnc_xor_map(amp_sum) == s2
        assert s2 == s1 ^ s3
    _passed(2, "all 4 mapping rows realize s2 = s1 XOR s3")


def test_criterion_03_three_transmitter_majority_table():
    for bits, expected in MAJORITY_TABLE.items():
        assert cc.majority_demod_bit(bits) == expected, bits
    _passed(3, "all 8 demodulation columns follow the majority principle")


def test_criterion_04_uniqueness_exhaustive():
    for n in (1, 3, 5, 7, 9, 11, 13):
        report = cc.verify_uniqueness(cached_codebook(n))
        assert report.subsets_checked == 2 ** n - 1
        assert report.distinct_vectors == 2 ** n - 1
        assert report.collisions == []
    cb15 = cached_codebook(15)
    single = cc.verify_uniqueness(cb15, workers=1)
    assert single.distinct_vectors == 32767 and single.collisions == []
    assert single.elapsed < 120.0
    eight = cc.verify_uniqueness(cb15, workers=8)
    assert eight.distinct_vectors == 32767 and eight.collisions == []
    assert eight.elapsed < 30.0
    assert (single.n, single.subsets_checked, single.distinct_vectors,
            single.collisions) == (eight.n, eight.subsets_checked,
                                   eight.distinct_vectors, eight.collisions)
    _passed(4, f"2^N-1 distinct vectors, zero collisions, N up to 15 "
               f"(single {single.elapsed:.2f}s, 8 workers {eight.elapsed:.2f}s)")


def test_criterion_05_codeword_length():
    for n in (1, 3, 5, 7, 9, 11, 13, 15):
        assert cached_codebook(n).v_length == math.comb(n, (n + 1) // 2)
    assert cached_codebook(15).v_length == 6435 < 8000
    _passed(5, "V = C(N,(N+1)/2), and V(15) = 6435 stays below 8000 bits")


def test_criterion_06_witness_sweeps():
    checked = 0
    for n in range(1, 16):
        report = cc.sweep_witnesses(cached_codebook(n))
        assert report.failures == [], (n, report.failures)
        checked += report.subsets_checked
    _passed(6, f"witness column found for every proper subset "
               f"({checked} subsets, zero failures)")


def test_criterion_07_additivity_identities():
    for n in range(1, 16):
        report = cc.check_additivity(cached_codebook(n), trials=1000, seed=n)
        assert report.ok, (n, report.counterexample)
    rows = cached_codebook(5).matrix().copy()
    rows[4] = rows[2]
    report = cc.check_additivity(cc.Codebook(5, rows))
    assert report.counterexample == {"rows": [1, 2, 4, 5], "top": [1, 2, 3, 4, 5]}
    _passed(7, "the rows correlating most with demod(S) are exactly S on 1000 "
               "seeded subsets per size, N = 1..15; a copied row is caught")


def test_criterion_08_all_zero_unreachable():
    for n in range(1, 14):
        assert cc.verify_no_zero_vector(cached_codebook(n)), n
    _passed(8, "no non-empty subset demodulates to all-zero, N up to 13")


def test_criterion_09_even_station_count():
    cb4, cb5 = cached_codebook(4), cached_codebook(5)
    assert np.array_equal(cb4.matrix(), cb5.matrix())
    seen = {}
    for subset in _mask_subsets(4):
        received = cc.demodulate(cc.superpose(cb4, subset))
        outcome = cc.decode_exact(cb4, received)
        assert outcome.kind == cc.IDENTIFIED and outcome.stations == subset
        key = received.tobytes()
        assert key not in seen, (subset, seen[key])
        seen[key] = subset
    assert len(seen) == 15
    _passed(9, "N=4 reuses the 5-row matrix; all 15 subsets decode uniquely")


def test_criterion_10_round_trip_exhaustive():
    total = 0
    for n in range(1, 16):
        cb = cached_codebook(n)
        for subset in _mask_subsets(cb.n_stations):
            received = cc.demodulate(cc.superpose(cb, subset))
            outcome = cc.decode_exact(cb, received)
            assert outcome.kind == cc.IDENTIFIED, (n, subset)
            assert outcome.stations == subset, (n, subset)
            total += 1
    _passed(10, f"decode(demodulate(superpose(S))) = S on all {total} "
                f"non-empty subsets, N up to 15")


def test_criterion_11_protocol_exactness_and_determinism():
    for loss in (0.0, 0.25, 0.5, 0.9, 1.0):
        cfg = protocol.SessionConfig(n_stations=7, loss_prob=loss,
                                     max_rounds=12, seed=int(loss * 100) + 1)
        stats = protocol.run_session(cfg)
        for r in stats.per_round:
            assert r.newly_confirmed == r.actually_received
    cfg = protocol.SessionConfig(n_stations=7, loss_prob=0.3, max_rounds=20,
                                 seed=7)
    first = json.dumps(protocol.run_session(cfg).to_json_dict())
    second = json.dumps(protocol.run_session(cfg).to_json_dict())
    assert first == second
    assert json.loads(first)["completed"]
    _passed(11, "ideal-channel rounds confirm exactly the receivers; "
                "session JSON is byte-identical across runs")
