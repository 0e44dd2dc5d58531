"""Command-line front end.

Machine-readable output (JSON or the codebook text format) goes to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 operational failure (a
no-match decode, or a verification check that found a violation), 2 usage
error.
"""

import argparse
import json
import sys

import numpy as np

from . import channel, decoder, protocol, verifier
from .codebook import (FormatError, InvariantError, SizeLimitError,
                       bits_to_str, build_codebook, codeword_for,
                       parse_codebook, serialize_codebook, str_to_bits)


def _load_codebook(path: str):
    if path == "-":
        return parse_codebook(sys.stdin.read())
    # bytes, not text mode, so CR bytes reach the parser instead of being
    # folded into newlines
    with open(path, "rb") as fh:
        return parse_codebook(fh.read().decode("ascii"))


def _parse_stations(text: str) -> frozenset[int]:
    text = text.strip()
    if not text or text.lower() == "none":
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise FormatError(f"bad station list {text!r}; expected e.g. 1,2,3")


def cmd_gen(args) -> int:
    doc = serialize_codebook(build_codebook(args.n))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def cmd_encode(args) -> int:
    cb = _load_codebook(args.codebook)
    print(bits_to_str(codeword_for(cb, args.station)))
    return 0


def cmd_superpose(args) -> int:
    cb = _load_codebook(args.codebook)
    stations = _parse_stations(args.stations)
    out = {"stations": sorted(stations), "v": cb.v_length}
    if args.sigma > 0:
        profile = channel.superpose_noisy(cb, stations, args.sigma, args.seed)
        out["sigma"] = profile.sigma
        out["seed"] = profile.seed
        out["samples"] = profile.samples.tolist()
        out["bits"] = bits_to_str(channel.threshold_noisy(profile))
        print(json.dumps(out))
        return 0
    profile = channel.superpose(cb, stations)
    bits = bits_to_str(channel.demodulate(profile))
    # json.dumps(out | {"sums": sums.tolist(), "bits": bits}), spelled out
    # so the V sums never become a list of Python ints
    print(f'{json.dumps(out)[:-1]}, "sums": '
          f'{_json_int_list(profile.sums, len(stations))}, "bits": "{bits}"}}')
    return 0


def _json_int_list(values, bound: int) -> str:
    """json.dumps(values.tolist()) for integers within [-bound, bound]."""
    # one fixed-width, NUL-padded "<v>, " token per value, looked up as a
    # block; dropping the padding and the last ", " leaves the JSON list
    table = np.array([f"{v}, ".encode() for v in range(-bound, bound + 1)])
    chars = table[values + bound].view(np.uint8)
    return f"[{chars[chars != 0].tobytes()[:-2].decode('ascii')}]"


def cmd_decode(args) -> int:
    cb = _load_codebook(args.codebook)
    if args.vector is not None:
        bits = str_to_bits(args.vector)
    else:
        with open(args.vector_file, "r", encoding="ascii") as fh:
            bits = str_to_bits(fh.read().rstrip("\n"))
    if args.nearest:
        max_dist = args.max_dist if args.max_dist >= 0 else cb.v_length
        outcome = decoder.decode_nearest(cb, bits, max_dist)
    else:
        outcome = decoder.decode_exact(cb, bits)
    out: dict = {"kind": outcome.kind}
    if outcome.kind == decoder.IDENTIFIED:
        out["stations"] = sorted(outcome.stations)
    if args.nearest and outcome.distance is not None:
        out["distance"] = outcome.distance
    print(json.dumps(out))
    return 1 if outcome.kind == decoder.NOMATCH else 0


def _verify_section(check: str, cb, args) -> tuple[dict, bool]:
    """(json dict, ok) for one verification check."""
    if check == "uniqueness":
        report = verifier.verify_uniqueness(cb, workers=args.workers)
        return report.to_json_dict(), not report.collisions
    if check == "lemmas":
        report = verifier.sweep_witnesses(cb)
        return report.to_json_dict(), not report.failures
    if check == "claims":
        report = verifier.check_additivity(cb, args.trials, args.seed)
        return {"n": cb.n_rows, **report.to_json_dict()}, report.ok
    if check == "zero":
        ok = verifier.verify_no_zero_vector(cb)
        return {"n": cb.n_rows, "ok": ok}, ok
    raise AssertionError(check)


_BUDGETS = {
    "uniqueness": verifier.UNIQUENESS_BUDGET_ROWS,
    "lemmas": verifier.WITNESS_SWEEP_BUDGET_ROWS,
    "zero": verifier.UNIQUENESS_BUDGET_ROWS,
}


def cmd_verify(args) -> int:
    cb = build_codebook(args.n)
    if args.check != "all":
        section, ok = _verify_section(args.check, cb, args)
        print(json.dumps(section))
        return 0 if ok else 1
    out: dict = {"n": cb.n_rows}
    all_ok = True
    for check in ("uniqueness", "lemmas", "claims", "zero"):
        budget = _BUDGETS.get(check)
        if budget is not None and cb.n_rows > budget:
            out[check] = {"skipped": f"n_rows={cb.n_rows} exceeds the "
                                     f"default budget of {budget}"}
            continue
        section, ok = _verify_section(check, cb, args)
        out[check] = section
        all_ok = all_ok and ok
    out["ok"] = all_ok
    print(json.dumps(out))
    return 0 if all_ok else 1


def cmd_simulate(args) -> int:
    cfg = protocol.SessionConfig(
        n_stations=args.n, loss_prob=args.loss, max_rounds=args.rounds,
        seed=args.seed, noise_sigma=args.sigma)
    print(protocol.session_json(protocol.run_session(cfg)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="collisioncode",
        description="Constant-weight collision codes: generate codebooks, "
                    "simulate superimposed BPSK ACKs, decode which stations "
                    "transmitted, and verify the code's uniqueness properties.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a codebook")
    g.add_argument("--n", type=int, required=True, help="number of stations")
    g.add_argument("--out", help="write to a file instead of stdout")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("encode", help="print a station's codeword")
    e.add_argument("--codebook", required=True, help="codebook file ('-' for stdin)")
    e.add_argument("--station", type=int, required=True)
    e.set_defaults(func=cmd_encode)

    s = sub.add_parser("superpose",
                       help="superimpose a station subset's transmissions")
    s.add_argument("--codebook", required=True)
    s.add_argument("--stations", required=True,
                   help="comma-separated ids; empty or 'none' for silence")
    s.add_argument("--sigma", type=float, default=0.0,
                   help="Gaussian noise stddev (default 0: ideal channel)")
    s.add_argument("--seed", type=int, default=0, help="noise seed")
    s.set_defaults(func=cmd_superpose)

    d = sub.add_parser("decode", help="decode a received bitstream")
    d.add_argument("--codebook", required=True)
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--vector", help="bitstream as a 0/1 string")
    src.add_argument("--vector-file", help="file holding the 0/1 string")
    d.add_argument("--nearest", action="store_true",
                   help="nearest-match decoding instead of exact")
    d.add_argument("--max-dist", type=int, default=-1,
                   help="nearest-match distance bound (default: unbounded)")
    d.set_defaults(func=cmd_decode)

    v = sub.add_parser("verify", help="run exhaustive code checks")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--check", required=True,
                   choices=["uniqueness", "lemmas", "claims", "zero", "all"],
                   help="uniqueness: all subsets decode distinctly; lemmas: "
                        "witness columns exist for every proper subset; "
                        "claims: chip-sum additivity on random pairs; zero: "
                        "all-zero vector is unreachable")
    v.add_argument("--workers", type=int, default=1,
                   help="must be >= 1; kept for compatibility, since the "
                        "uniqueness check runs in one thread and its report "
                        "does not depend on the count")
    v.add_argument("--trials", type=int, default=1000,
                   help="random trials for the claims check")
    v.add_argument("--seed", type=int, default=1)
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("simulate", help="simulate a multicast ACK session")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--loss", type=float, required=True,
                   help="per-station broadcast loss probability")
    m.add_argument("--sigma", type=float, default=0.0,
                   help="ACK channel noise stddev")
    m.add_argument("--rounds", type=int, required=True, help="round budget")
    m.add_argument("--seed", type=int, required=True)
    m.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, InvariantError, SizeLimitError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
