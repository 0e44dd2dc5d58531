"""Benchmark of the collisioncode package: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run is a closed loop in one process with one caller: it times whole
rounds of the workload's ops until `--seconds` have passed, checks every
output, and prints as its last stdout line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced rounds and reports the
per-layer metrics taken from the traced rounds' spans, plus the tracing
overhead. Results and spans are also written under perfbench/out/.
The package is imported from the checkout's `src/` directory.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 8

# A fresh interpreter: import the package and build the workload's program
# objects, timed from before the first import.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].program_setup()
print(time.perf_counter() - t0)
"""


def setup_once(name: str) -> float:
    """Set-up time of one fresh interpreter, in seconds."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), name],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Counts and op durations of one closed-loop pass over whole rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations: list[float] = []
        self.problems: list[str] = []

    def run_round(self, wl, program, items, tracer=None):
        for item in items:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.op(program, item)
                else:
                    out = tracer.call("op", wl.op, (program, item), {})
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            self.durations.append(time.perf_counter() - t0)
            try:
                self.problems.extend(wl.check(item, out))
            except Exception as exc:  # a malformed output fails its check
                traceback.print_exc()
                self.problems.append(f"check raised {exc!r}")


def traced_loop(wl, program, items, loop: Loop, seconds: float):
    """Alternate untraced and traced rounds for `seconds`, at least one each.

    The traced rounds count into `loop`; returns the tracer and the loop of
    the untraced rounds.
    """
    tracer, hooks, plain = Tracer(), layers.Hooks(), Loop()
    start = time.perf_counter()
    while True:
        plain.run_round(wl, program, items)
        layers.install(tracer, hooks)
        try:
            loop.run_round(wl, program, items, tracer)
            if hasattr(wl, "traced_extra"):
                loop.problems.extend(wl.traced_extra(program))
        finally:
            tracer.unwrap_all()
        if time.perf_counter() - start >= seconds:
            break
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.problems.extend(plain.problems)
    return tracer, plain


def timed_loop(wl, program, items, loop: Loop, seconds: float) -> float:
    """Run whole rounds for `seconds` of op time; return the median set-up.

    The set-up samples are spread over the run, between rounds, and their
    time does not count towards `seconds`. A shared host's speed drifts over
    tens of seconds, and fresh-interpreter set-up swings with it more than
    the ops do, so samples taken all at once would catch a single moment.
    """
    setup: list[float] = []
    loop_time = 0.0
    while True:
        while (len(setup) < SETUP_SAMPLES
               and loop_time >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(setup_once(wl.name))
        t0 = time.perf_counter()
        loop.run_round(wl, program, items)
        loop_time += time.perf_counter() - t0
        if loop_time >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_once(wl.name))
    return statistics.median(setup)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    ms = [d * 1000 for d in loop.durations]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "collisioncode" / "__init__.py").is_file():
        print(f"error: no collisioncode package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    program = wl.program_setup()
    items, problems = wl.items(args.seed, program)
    loop = Loop()
    loop.problems.extend(problems)
    if args.trace:
        tracer, plain = traced_loop(wl, program, items, loop, args.seconds)
        metrics = layers.per_layer(tracer, plain, loop)
        tracer.dump(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        setup_s = timed_loop(wl, program, items, loop, args.seconds)
        metrics = end_to_end(loop, setup_s)

    for problem in loop.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
