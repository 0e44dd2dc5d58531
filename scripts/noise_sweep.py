#!/usr/bin/env python3
"""Sweep the ACK-channel noise level and measure decode reliability.

For each sigma, random non-empty station subsets are superposed with
Gaussian noise, thresholded, and decoded exactly; a trial succeeds when
the decoded subset equals the transmitted one. The ideal channel has
margin 0.5 on every chip, so reliability collapses once sigma approaches
that margin. With --max-dist, each vector is also decoded by nearest
match within that distance, reported in the nearest_* columns; a search
refused as over the nearest-decode budget counts as a no-match.

Example:
    python scripts/noise_sweep.py --n 7 --sigmas 0.05,0.1,0.2,0.3,0.5 \
        --trials 2000 --seed 1 --max-dist 40
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from collisioncode import (SizeLimitError, build_codebook, decode_exact,
                           decode_nearest, superpose_noisy, threshold_noisy)


def tally(outcome, subset, counts: dict) -> None:
    if outcome is None or outcome.kind == "nomatch":
        counts["nomatch"] += 1
    elif outcome.kind == "identified" and outcome.stations == subset:
        counts["exact"] += 1


def rates(counts: dict, trials: int, prefix: str = "") -> dict:
    return {
        f"{prefix}exact_rate": counts["exact"] / trials,
        f"{prefix}nomatch_rate": counts["nomatch"] / trials,
        f"{prefix}wrong_rate":
            (trials - counts["exact"] - counts["nomatch"]) / trials,
    }


def sweep(n: int, sigmas: list[float], trials: int, seed: int,
          max_dist: int | None = None) -> list[dict]:
    cb = build_codebook(n)
    master = np.random.default_rng(seed)
    results = []
    for sigma in sigmas:
        exact = {"exact": 0, "nomatch": 0}
        nearest = {"exact": 0, "nomatch": 0}
        for _ in range(trials):
            mask = int(master.integers(1, 2 ** n))
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            noise_seed = int(master.integers(0, 2 ** 63))
            bits = threshold_noisy(superpose_noisy(cb, subset, sigma, noise_seed))
            tally(decode_exact(cb, bits), subset, exact)
            if max_dist is not None:
                try:
                    outcome = decode_nearest(cb, bits, max_dist)
                except SizeLimitError:
                    outcome = None
                tally(outcome, subset, nearest)
        row = {"sigma": sigma, "trials": trials, **rates(exact, trials)}
        if max_dist is not None:
            row.update(rates(nearest, trials, "nearest_"))
        results.append(row)
    return results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=7)
    ap.add_argument("--sigmas", default="0.05,0.1,0.2,0.3,0.4,0.5")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-dist", type=int, default=None,
                    help="also decode by nearest match within this distance")
    ap.add_argument("--json", action="store_true", help="emit JSON only")
    args = ap.parse_args()
    sigmas = [float(tok) for tok in args.sigmas.split(",")]
    results = sweep(args.n, sigmas, args.trials, args.seed, args.max_dist)
    if args.json:
        print(json.dumps({"n": args.n, "seed": args.seed, "results": results}))
        return
    print(f"n={args.n} trials={args.trials} seed={args.seed}")
    columns = ["exact_rate", "nomatch_rate", "wrong_rate"]
    if args.max_dist is not None:
        columns += [f"nearest_{c}" for c in columns]
    labels = [c.removesuffix("_rate") for c in columns]
    widths = [max(8, len(label)) for label in labels]
    print(f"{'sigma':>7} " + " ".join(
        f"{label:>{w}}" for label, w in zip(labels, widths)))
    for row in results:
        print(f"{row['sigma']:>7.3f} " + " ".join(
            f"{row[c]:>{w}.4f}" for c, w in zip(columns, widths)))

if __name__ == "__main__":
    main()
