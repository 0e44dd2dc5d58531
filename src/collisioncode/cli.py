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
from .codebook import (FormatError, _read_codebook, _write_document,
                       bits_to_str, build_codebook, codeword_for, str_to_bits)


def _load_codebook(path: str):
    # bytes, not text mode, so a CR reaches the parser as it is. A file,
    # stdin and a pipe are all read a row at a time, each byte once
    if path == "-":
        return _read_codebook(sys.stdin.buffer)
    with open(path, "rb") as fh:
        return _read_codebook(fh)


def _parse_stations(text: str) -> frozenset[int]:
    text = text.strip()
    if not text or text.lower() == "none":
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise FormatError(f"bad station list {text!r}; expected e.g. 1,2,3")


def cmd_gen(args) -> int:
    # the document's bytes, never decoded to a str, go a row at a time to
    # the file or, after any buffered text, to stdout's byte layer
    cb = build_codebook(args.n)
    if args.out:
        with open(args.out, "wb") as fh:
            _write_document(cb, fh)
    else:
        sys.stdout.flush()
        _write_document(cb, sys.stdout.buffer)
    return 0


def cmd_encode(args) -> int:
    cb = _load_codebook(args.codebook)
    print(bits_to_str(codeword_for(cb, args.station)))
    return 0


_SAMPLE_BLOCK = 1 << 16  # sums or samples per JSON piece in superpose


def cmd_superpose(args) -> int:
    if args.seed < 0:  # at every sigma, before the codebook is read
        raise ValueError("seed must be a non-negative integer")
    cb = _load_codebook(args.codebook)
    stations = _parse_stations(args.stations)
    head = {"stations": sorted(stations), "v": cb.v_length}
    if args.sigma != 0:  # negative or NaN too, so superpose_noisy refuses it
        values = channel.superpose_noisy(cb, stations, args.sigma, args.seed)
        head |= {"sigma": args.sigma, "seed": args.seed}
        key, bits = "samples", channel.threshold_noisy(values)

        def dumps(block):
            return json.dumps(block.tolist())
    else:
        values = channel.superpose(cb, stations)
        key, bits = "sums", channel.demodulate(values)

        def dumps(block):
            return _json_int_list(block, len(stations))
    # json.dumps(head | {key: values.tolist(), "bits": bits}) and LF,
    # written a block of values at a time so that they never become one
    # list of Python numbers and the JSON is never joined into one line
    sys.stdout.write(f'{json.dumps(head)[:-1]}, "{key}": [')
    sys.stdout.writelines(
        ", " * bool(i) + dumps(values[i:i + _SAMPLE_BLOCK])[1:-1]
        for i in range(0, values.size, _SAMPLE_BLOCK))
    sys.stdout.write(f'], "bits": "{bits_to_str(bits)}"}}\n')
    return 0


def _json_int_list(values, bound: int) -> str:
    """json.dumps(values.tolist()) for integers within [-bound, bound]."""
    # one fixed-width, NUL-padded "<v>, " token per value, looked up as a
    # block; dropping the padding and the last ", " leaves the JSON list
    table = np.array([f"{v}, ".encode() for v in range(-bound, bound + 1)])
    chars = table.take(values + bound).tobytes().translate(None, b"\0")
    return f"[{str(memoryview(chars)[:-2], 'ascii')}]"


def cmd_decode(args) -> int:
    cb = _load_codebook(args.codebook)
    if args.vector is not None:
        bits = str_to_bits(args.vector)
    else:
        with open(args.vector_file, "r", encoding="ascii") as fh:
            bits = str_to_bits(fh.read().rstrip("\n"))
    if args.nearest:
        max_dist = cb.v_length if args.max_dist is None else args.max_dist
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
        report = verifier.verify_uniqueness(cb)
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


def cmd_verify(args) -> int:
    # every option is checked for every --check, before the build
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if args.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    cb = build_codebook(args.n)
    if args.check != "all":
        section, ok = _verify_section(args.check, cb, args)
        print(json.dumps(section))
        return 0 if ok else 1
    # the budget is read when the command runs, so the verifier holds the
    # only copy. claims runs first, so an over-budget --trials is refused
    # before any enumeration; the keys are printed in their fixed order
    budget = verifier.UNIQUENESS_BUDGET_ROWS
    skipped = ({"skipped": f"n_rows={cb.n_rows} exceeds the default budget "
                           f"of {budget}"}, True)
    results = {}
    for check in ("claims", "uniqueness", "lemmas", "zero"):
        over = check != "claims" and cb.n_rows > budget
        results[check] = skipped if over else _verify_section(check, cb, args)
    out = {"n": cb.n_rows} | {check: results[check][0] for check in
                              ("uniqueness", "lemmas", "claims", "zero")}
    out["ok"] = all(ok for _, ok in results.values())
    print(json.dumps(out))
    return 0 if out["ok"] else 1


def cmd_simulate(args) -> int:
    cfg = protocol.SessionConfig(
        n_stations=args.n, loss_prob=args.loss, max_rounds=args.rounds,
        seed=args.seed, noise_sigma=args.sigma)
    print(json.dumps(protocol.run_session(cfg).to_json_dict()))
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
    d.add_argument("--max-dist", type=int,
                   help="nearest-match distance bound (default: unbounded)")
    d.set_defaults(func=cmd_decode)

    v = sub.add_parser("verify", help="run exhaustive code checks")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--check", required=True,
                   choices=["uniqueness", "lemmas", "claims", "zero", "all"],
                   help="uniqueness: all subsets decode distinctly; lemmas: "
                        "witness columns exist for every proper subset; "
                        "claims: on random subsets S, the rows correlating "
                        "most with demod(S) are exactly S; zero: all-zero "
                        "vector is unreachable")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
