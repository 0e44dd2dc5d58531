"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Each workload has
  program_setup()       the program objects the ops share, built through
                        the package (timed as part of set-up);
  items(seed, program)  the round of op inputs, made from the seed, plus a
                        list of problems found while checking the program
                        objects against the reference;
  op(program, item)     one operation, the only part that is timed;
  check(item, out)      problems with one op's output (empty when correct);
  traced_extra(program) calls made only in traced rounds, returning their
                        problems.
Outputs are checked against `reference` or against properties the code
must have, never against stored output.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

import reference
from collisioncode import build_codebook, cli, decoder, protocol, verifier

OUT_DIR = Path(__file__).resolve().parent / "out"


class AcksN15:
    """Multicast ACK sessions for the paper's 15 stations, 6435 chips."""
    name = "acks_n15"
    n = 15
    loss = 0.3
    # At this noise level a few rounds in a hundred decode to nomatch.
    sigma = 0.125
    max_rounds = 64
    sessions_per_channel = 12

    def program_setup(self):
        return None

    def items(self, seed, program):
        rng = np.random.default_rng(seed)
        sigmas = [0.0, self.sigma] * self.sessions_per_channel
        rng.shuffle(sigmas)
        return [protocol.SessionConfig(self.n, self.loss, self.max_rounds,
                                       int(rng.integers(0, 2 ** 63)), s)
                for s in sigmas], []

    def op(self, program, cfg):
        return protocol.run_session(cfg)

    def check(self, cfg, stats):
        problems = []
        if not stats.completed:
            problems.append(f"session seed {cfg.seed} did not complete")
        if stats.rounds_used != len(stats.per_round):
            problems.append("rounds_used disagrees with per_round")
        nomatch = 0
        for r in stats.per_round:
            kind = r.decoded_ack.kind
            if not r.actually_received <= r.intended:
                problems.append(f"round {r.round_index}: received outside intended")
            if kind == decoder.IDENTIFIED:
                if r.decoded_ack.stations != r.actually_received:
                    problems.append(
                        f"round {r.round_index}: decoded {sorted(r.decoded_ack.stations)}"
                        f" but {sorted(r.actually_received)} transmitted")
                expected_new = r.actually_received
            elif kind == decoder.SILENCE:
                if r.actually_received:
                    problems.append(f"round {r.round_index}: silence while "
                                    f"{sorted(r.actually_received)} transmitted")
                expected_new = frozenset()
            else:
                nomatch += 1
                if cfg.noise_sigma == 0:
                    problems.append(f"round {r.round_index}: nomatch on the ideal channel")
                expected_new = frozenset()
            if r.newly_confirmed != expected_new:
                problems.append(f"round {r.round_index}: wrong confirmed set")
        if stats.undecodable_rounds != nomatch:
            problems.append("undecodable_rounds disagrees with per_round")
        return problems


class NearestN13:
    """Robust receiver: nearest decoding of noisy vectors at 13 stations."""
    name = "nearest_n13"
    n = 13
    # Gaussian noise on the amplitude sums, thresholded at 0.5: every vector
    # has at least tens of flipped chips, so exact decoding misses.
    sigma = 0.3
    # Some vectors land farther than this from every subset: nomatch.
    max_dist = 200
    vectors = 64

    def program_setup(self):
        return build_codebook(self.n)

    def items(self, seed, cb):
        ref = reference.NearestReference(self.n)
        problems = []
        if not np.array_equal(cb.matrix(), ref.matrix):
            problems.append("build_codebook(13) differs from the reference matrix")
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(self.vectors):
            stations = reference.subset_ids(int(rng.integers(1, 1 << self.n)))
            clean = reference.sums(ref.matrix, stations)
            noisy = clean + rng.normal(0.0, self.sigma, clean.size)
            received = (noisy > 0.5).astype(np.uint8)
            items.append((received, ref.decode(received, self.max_dist)))
        return items, problems

    def op(self, cb, item):
        return decoder.decode_nearest(cb, item[0], self.max_dist)

    def check(self, item, out):
        got = (out.kind, out.stations, out.distance)
        if got != item[1]:
            return [f"decode_nearest gave {got}, reference {item[1]}"]
        return []


class VerifyN15:
    """`verify --check all`, each check at the largest default-budget size."""
    name = "verify_n15"
    n = 15
    sweep_n = 11
    trials = 1000
    rounds_of_seeds = 4

    def program_setup(self):
        return build_codebook(self.n), build_codebook(self.sweep_n)

    def items(self, seed, program):
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2 ** 63, self.rounds_of_seeds)], []

    def op(self, program, additivity_seed):
        cb, cb_sweep = program
        return (verifier.verify_uniqueness(cb, workers=1),
                verifier.verify_no_zero_vector(cb),
                verifier.check_additivity(cb, self.trials, additivity_seed),
                verifier.sweep_witnesses(cb_sweep))

    def _uniqueness_problems(self, report):
        subsets = 2 ** self.n - 1
        problems = []
        if report.collisions:
            problems.append(f"{len(report.collisions)} collisions")
        if not report.subsets_checked == report.distinct_vectors == subsets:
            problems.append(f"checked {report.subsets_checked}, distinct "
                            f"{report.distinct_vectors}, expected {subsets}")
        return problems

    def check(self, additivity_seed, out):
        unique, no_zero, additivity, sweep = out
        problems = self._uniqueness_problems(unique)
        if not no_zero:
            problems.append("a non-empty subset demodulates to all-zero")
        if not additivity.ok or additivity.trials != self.trials:
            problems.append(f"additivity failed: {additivity.counterexample}")
        if sweep.failures or sweep.subsets_checked != 2 ** self.sweep_n - 2:
            problems.append(f"witness sweep: {len(sweep.failures)} failures of "
                            f"{sweep.subsets_checked}")
        return problems

    def traced_extra(self, program):
        return self._uniqueness_problems(
            verifier.verify_uniqueness(program[0], workers=2))


class CodebookN25:
    """The 25-station cap through the CLI: gen to a file, then superpose."""
    name = "codebook_n25"
    n = 25

    def program_setup(self):
        return None

    def items(self, seed, program):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, self.n + 1))
        stations = sorted(int(s) + 1 for s in rng.choice(self.n, k, replace=False))
        return [stations], []

    def op(self, program, stations):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"codebook_n25-{os.getpid()}.txt"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = (cli.main(["gen", "--n", str(self.n), "--out", str(path)]),
                     cli.main(["superpose", "--codebook", str(path),
                               "--stations", ",".join(map(str, stations))]))
        return codes, out.getvalue(), path

    def check(self, stations, out):
        codes, stdout, path = out
        try:
            if codes != (0, 0):
                return [f"exit codes {codes}"]
            return self._file_problems(path) + self._superpose_problems(
                stations, stdout)
        finally:
            path.unlink(missing_ok=True)

    def _file_problems(self, path):
        rows, r, v = reference.shape(self.n)
        lines = path.read_bytes().split(b"\n")
        if lines[-1] != b"" or len(lines) != rows + 2:
            return [f"file has {len(lines) - 1} lines, expected {rows + 1}"]
        if lines[0] != f"COLLISIONCODE v1 N={self.n} ROWS={rows} R={r} V={v}".encode():
            return [f"bad header {lines[0][:80]!r}"]
        weights = np.zeros(v, np.uint8)
        values = np.zeros(v, np.uint32)
        for line in lines[1:-1]:
            bits = np.frombuffer(line, np.uint8) - ord("0")
            if bits.size != v or (bits > 1).any():
                return ["a row is not a 0/1 string of length V"]
            weights += bits
            values = (values << 1) | bits
        problems = []
        if (weights != r).any():
            problems.append(f"{int((weights != r).sum())} columns of weight != {r}")
        if not (values[:-1] > values[1:]).all():
            problems.append("column values do not strictly descend")
        return problems

    def _superpose_problems(self, stations, stdout):
        out = json.loads(stdout)
        k = len(stations)
        _, _, v = reference.shape(self.n)
        if out["stations"] != stations or out["v"] != v:
            return [f"superpose echoed stations {out['stations']}, v {out['v']}"]
        sums = np.array(out["sums"], np.int64)
        bits = np.frombuffer(out["bits"].encode(), np.uint8) - ord("0")
        problems = []
        if sums.size != v or bits.size != v:
            return [f"sums/bits length {sums.size}/{bits.size}, expected {v}"]
        if not np.array_equal(bits, (sums >= 1).astype(np.uint8)):
            problems.append("bits differ from sums >= 1")
        if int(bits.sum()) != reference.demod_weight(self.n, k):
            problems.append(f"bit weight {int(bits.sum())}, expected "
                            f"{reference.demod_weight(self.n, k)}")
        if int(sums.sum()) != reference.sums_total(self.n, k):
            problems.append(f"sum of sums {int(sums.sum())}, expected "
                            f"{reference.sums_total(self.n, k)}")
        return problems


WORKLOADS = {w.name: w for w in (AcksN15(), NearestN13(), VerifyN15(), CodebookN25())}
