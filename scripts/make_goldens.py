#!/usr/bin/env python3
"""Regenerate the frozen expectation files under tests/data/.

Two kinds of goldens live there:

* oracle-derived tables (the nearest-decode corruption table) computed
  by the pure-Python brute force of tests/oracles.py, independent of the
  package's decoder;
* seeded captures (noisy channel samples, protocol round/session runs)
  recorded from the package's own deterministic generators and frozen so
  any later behavior drift fails loudly.

Run from the repo root: python scripts/make_goldens.py
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import collisioncode as cc  # noqa: E402
from collisioncode import protocol  # noqa: E402
from oracles import demod, hamming, matrix_rows, nonempty_subsets  # noqa: E402


# ------------------------- oracle-derived tables --------------------------

def nearest_corruption_table(n_stations: int, max_dist: int) -> list[dict]:
    rows = matrix_rows(n_stations)
    subsets = nonempty_subsets(n_stations)
    reachable = {s: demod(rows, s) for s in subsets}
    v = len(rows[0])
    cases = []
    for subset in subsets:
        base = reachable[subset]
        for flip in range(v):
            corrupted = (base[:flip]
                         + ("1" if base[flip] == "0" else "0")
                         + base[flip + 1:])
            if corrupted == "0" * v:
                cases.append({"stations": list(subset), "flip": flip + 1,
                              "expect": "silence", "stations_out": None,
                              "distance": 0})
                continue
            dists = {s: hamming(vec, corrupted)
                     for s, vec in reachable.items()}
            best = min(dists.values())
            winners = [s for s, d in dists.items() if d == best]
            if best > max_dist or len(winners) != 1:
                cases.append({"stations": list(subset), "flip": flip + 1,
                              "expect": "nomatch", "stations_out": None,
                              "distance": best})
            else:
                cases.append({"stations": list(subset), "flip": flip + 1,
                              "expect": "identified",
                              "stations_out": list(winners[0]),
                              "distance": best})
    return cases


# ---------------------------- seeded captures -----------------------------

def noisy_profile_golden() -> dict:
    cb = cc.build_codebook(3)
    samples = cc.superpose_noisy(cb, {1}, 0.1, 42)
    return {
        "n": 3, "stations": [1], "sigma": 0.1, "seed": 42,
        "generator": "numpy PCG64, Generator.normal",
        "samples": samples.tolist(),
    }


def round_golden() -> dict:
    cb = cc.build_codebook(3)
    cfg = protocol.SessionConfig(n_stations=3, loss_prob=0.5, max_rounds=1,
                                 seed=0)
    result = protocol.run_round(cb, {1, 2, 3}, cfg, round_seed=42)
    return {
        "n": 3, "loss_prob": 0.5, "round_seed": 42,
        "received": sorted(result.actually_received),
        "decoded": result.decoded_ack.kind,
        "confirmed": sorted(result.newly_confirmed),
    }


def session_golden() -> dict:
    cfg = protocol.SessionConfig(n_stations=7, loss_prob=0.3, max_rounds=20,
                                 seed=7)
    return protocol.run_session(cfg).to_json_dict()


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    goldens = {
        "nearest_corruptions_n5.json": {
            "n": 5, "max_dist": 1,
            "cases": nearest_corruption_table(5, max_dist=1),
        },
        "noisy_profile_n3.json": noisy_profile_golden(),
        "round_n3_loss05_seed42.json": round_golden(),
        "session_n7_loss03_seed7.json": session_golden(),
    }
    for name, payload in goldens.items():
        path = DATA / name
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path.relative_to(REPO)}")


if __name__ == "__main__":
    main()
