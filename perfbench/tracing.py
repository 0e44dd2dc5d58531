"""Spans around the public functions of the collisioncode modules.

The tracer wraps functions from outside the package: every module attribute
of `collisioncode.*` that is the original function object is replaced by a
wrapper, so calls the package makes through its own module globals (for
example `protocol.run_session` calling `decoder.decode_exact`) are traced
too. Each call records a span with its name, start, end and the span that
was open when it began; spans stay in memory until `dump` writes them out.
A generator gets one span from its first block to its exhaustion, which
also counts the subsets it yields and the time spent producing them.
"""

import itertools
import json
import sys
import threading
import time


def vm_rss_mb() -> float:
    """Resident set size of this process, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmRSS missing from /proc/self/status")


class Tracer:
    """In-memory spans of the wrapped calls; `unwrap_all` restores the package."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        # Worker threads inherit the span the main thread is blocked in.
        stack = self._stack() or self._main_stack
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        attrs, if given, is a pair (before, after): before(args, kwargs)
        runs first and returns a token; after(token, args, kwargs, result)
        returns extra fields for the span.
        """
        token = attrs[0](args, kwargs) if attrs else None
        span = {"id": next(self._ids), "parent": self._parent(), "name": name}
        stack = self._stack()
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs:
            span.update(attrs[1](token, args, kwargs, result))
        return result

    def iterate(self, name: str, gen):
        """Re-yield a (masks, ...) block generator inside a span."""
        span = {"id": next(self._ids), "parent": self._parent(), "name": name,
                "start": time.perf_counter(), "busy": 0.0, "subsets": 0}
        try:
            while True:
                stack = self._stack()
                stack.append(span["id"])
                t0 = time.perf_counter()
                try:
                    block = next(gen)
                except StopIteration:
                    return
                finally:
                    span["busy"] += time.perf_counter() - t0
                    stack.pop()
                span["subsets"] += len(block[0])
                yield block
        finally:
            gen.close()
            span["end"] = time.perf_counter()
            self.spans.append(span)

    def wrap(self, module, fname: str, attrs=None, generator=False) -> None:
        """Replace module.fname wherever a collisioncode module refers to it."""
        original = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1].lstrip('_')}.{fname}"
        if generator:
            def wrapper(*args, **kwargs):
                return self.iterate(name, original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, attrs)
        wrapper.__wrapped__ = original
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("collisioncode"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def unwrap_all(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")
