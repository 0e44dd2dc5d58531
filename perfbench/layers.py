"""The traced run: per-layer metrics from spans around each module's calls.

Layers are the package's modules. Untraced and traced rounds alternate in
one process; per-layer figures come from the traced rounds' spans, and the
tracing overhead is the traced rounds' median op time over the untraced
rounds'. A layer that a workload bypasses records no span and reads 0.
"""

import ctypes
import ctypes.util
import statistics
import sys
import weakref

from tracing import Tracer, vm_rss_mb

# (name, unit, better); the order is the order of the printed metrics.
PER_LAYER = [
    ("codebook.build_codebook_ms", "ms", "lower"),
    ("codebook.serialize_codebook_ms", "ms", "lower"),
    ("codebook.parse_codebook_ms", "ms", "lower"),
    ("channel.superpose_ms", "ms", "lower"),
    ("channel.demodulate_ms", "ms", "lower"),
    ("channel.superpose_noisy_ms", "ms", "lower"),
    ("channel.threshold_noisy_ms", "ms", "lower"),
    ("decoder.decode_exact_cold_ms", "ms", "lower"),
    ("decoder.state_mb", "MB", "lower"),
    ("decoder.decode_exact_hit_ms", "ms", "lower"),
    ("decoder.decode_exact_miss_ms", "ms", "lower"),
    ("decoder.decode_nearest_ms", "ms", "lower"),
    ("subsets.demod_blocks_subsets_per_s", "1/s", "higher"),
    ("subsets.count_blocks_subsets_per_s", "1/s", "higher"),
    ("verifier.verify_uniqueness_ms", "ms", "lower"),
    ("verifier.verify_uniqueness_workers2_ms", "ms", "lower"),
    ("verifier.verify_no_zero_vector_ms", "ms", "lower"),
    ("verifier.check_additivity_ms", "ms", "lower"),
    ("verifier.sweep_witnesses_ms", "ms", "lower"),
    ("protocol.run_round_ms", "ms", "lower"),
    ("protocol.rounds_per_session", "count", "lower"),
    ("protocol.nomatch_rounds", "count", "lower"),
    ("protocol.silence_rounds", "count", "lower"),
    ("cli.gen_ms", "ms", "lower"),
    ("cli.superpose_ms", "ms", "lower"),
    ("cli.stdout_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

_libc_path = ctypes.util.find_library("c")
_malloc_trim = getattr(ctypes.CDLL(_libc_path), "malloc_trim", None) if _libc_path else None


class Hooks:
    """Span fields computed at a call boundary, before and after the call."""

    def __init__(self):
        self._seen: dict[int, weakref.ref] = {}

    def exact_before(self, args, kwargs):
        # The first decode on a codebook object is cold; its VmRSS growth is
        # the decoder state it builds. Trimming the C heap first keeps freed
        # memory of earlier codebooks from hiding that growth.
        cb = args[0]
        known = self._seen.get(id(cb))
        if known is not None and known() is cb:
            return False, 0.0
        self._seen[id(cb)] = weakref.ref(cb)
        if _malloc_trim is not None:
            _malloc_trim(0)
        return True, vm_rss_mb()

    @staticmethod
    def exact_after(token, args, kwargs, result):
        cold, rss_before = token
        fields = {"kind": result.kind, "cold": cold}
        if cold:
            fields["state_mb"] = vm_rss_mb() - rss_before
        return fields

    @staticmethod
    def cli_before(args, kwargs):
        return sys.stdout.tell() if sys.stdout.seekable() else None

    @staticmethod
    def cli_after(position, args, kwargs, result):
        fields = {"command": args[0][0]}
        if position is not None:
            fields["stdout_mb"] = (sys.stdout.tell() - position) / 1e6
        return fields

    @staticmethod
    def workers_after(token, args, kwargs, result):
        return {"workers": kwargs.get("workers", 1)}


def install(tracer: Tracer, hooks: Hooks) -> None:
    from collisioncode import (_subsets, channel, cli, codebook, decoder,
                               protocol, verifier)
    for fname in ("build_codebook", "serialize_codebook", "parse_codebook"):
        tracer.wrap(codebook, fname)
    for fname in ("superpose", "demodulate", "superpose_noisy", "threshold_noisy"):
        tracer.wrap(channel, fname)
    tracer.wrap(decoder, "decode_exact", (hooks.exact_before, hooks.exact_after))
    tracer.wrap(decoder, "decode_nearest")
    tracer.wrap(_subsets, "demod_blocks", generator=True)
    tracer.wrap(_subsets, "count_blocks", generator=True)
    tracer.wrap(verifier, "verify_uniqueness", (lambda a, k: None, hooks.workers_after))
    for fname in ("verify_no_zero_vector", "check_additivity", "sweep_witnesses"):
        tracer.wrap(verifier, fname)
    tracer.wrap(protocol, "run_session")
    tracer.wrap(protocol, "run_round")
    tracer.wrap(cli, "main", (hooks.cli_before, hooks.cli_after))


def per_layer(tracer: Tracer, plain, traced) -> dict:
    """Per-layer metrics from the traced rounds, as name -> (value, unit)."""
    spans = tracer.spans

    def named(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def median_ms(name, **match):
        ms = [(s["end"] - s["start"]) * 1000 for s in named(name, **match)]
        return statistics.median(ms) if ms else 0.0

    def median_field(name, field, **match):
        values = [s[field] for s in named(name, **match) if field in s]
        return statistics.median(values) if values else 0.0

    def subsets_per_s(name):
        chosen = named(name)
        busy = sum(s["busy"] for s in chosen)
        return sum(s["subsets"] for s in chosen) / busy if busy else 0.0

    sessions = len(named("protocol.run_session"))

    def per_session(count):
        return count / sessions if sessions else 0.0

    exact = "decoder.decode_exact"
    values = {
        "codebook.build_codebook_ms": median_ms("codebook.build_codebook"),
        "codebook.serialize_codebook_ms": median_ms("codebook.serialize_codebook"),
        "codebook.parse_codebook_ms": median_ms("codebook.parse_codebook"),
        "channel.superpose_ms": median_ms("channel.superpose"),
        "channel.demodulate_ms": median_ms("channel.demodulate"),
        "channel.superpose_noisy_ms": median_ms("channel.superpose_noisy"),
        "channel.threshold_noisy_ms": median_ms("channel.threshold_noisy"),
        "decoder.decode_exact_cold_ms": median_ms(exact, cold=True),
        "decoder.state_mb": median_field(exact, "state_mb", cold=True),
        "decoder.decode_exact_hit_ms": median_ms(exact, cold=False, kind="identified"),
        "decoder.decode_exact_miss_ms": median_ms(exact, cold=False, kind="nomatch"),
        "decoder.decode_nearest_ms": median_ms("decoder.decode_nearest"),
        "subsets.demod_blocks_subsets_per_s": subsets_per_s("subsets.demod_blocks"),
        "subsets.count_blocks_subsets_per_s": subsets_per_s("subsets.count_blocks"),
        "verifier.verify_uniqueness_ms": median_ms("verifier.verify_uniqueness", workers=1),
        "verifier.verify_uniqueness_workers2_ms":
            median_ms("verifier.verify_uniqueness", workers=2),
        "verifier.verify_no_zero_vector_ms": median_ms("verifier.verify_no_zero_vector"),
        "verifier.check_additivity_ms": median_ms("verifier.check_additivity"),
        "verifier.sweep_witnesses_ms": median_ms("verifier.sweep_witnesses"),
        "protocol.run_round_ms": median_ms("protocol.run_round"),
        "protocol.rounds_per_session": per_session(len(named("protocol.run_round"))),
        "protocol.nomatch_rounds": per_session(len(named(exact, kind="nomatch"))),
        "protocol.silence_rounds": per_session(len(named(exact, kind="silence"))),
        "cli.gen_ms": median_ms("cli.main", command="gen"),
        "cli.superpose_ms": median_ms("cli.main", command="superpose"),
        "cli.stdout_mb": median_field("cli.main", "stdout_mb", command="superpose"),
        "trace.overhead_pct": (statistics.median(traced.durations)
                               / statistics.median(plain.durations) - 1) * 100
                              if traced.durations and plain.durations else 0.0,
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
