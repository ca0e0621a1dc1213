"""Spans around the calls into colexa's modules, recorded from outside.

`Tracer.install` replaces every public function of the colexa modules, and
every public method of the classes they define, with a wrapper that records a
span: name, start, end, parent span, operation id and busy time.  A name that
one module imported from another (``gauge.symplectic_phase``,
``gatecalc.codeword``) is patched in the importing module too, with the same
wrapper, so every call path is seen.  `uninstall` puts the originals back.

Spans stay in memory; `write_spans` stores them when the run ends.  A span's self
time is its busy time minus the busy time of its children.  For a generator
(``ring.iter_span``) the span is busy only while the generator runs, so the
consumer's own work between elements stays with the consumer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

MODULES = ("ring", "colex", "code", "morth", "gatecalc", "gauge", "reports", "cli")

# span record fields
NAME, START, END, PARENT, OP, BUSY = range(6)

BOOKKEEPING = "trace.bookkeeping"


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('colexa.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}  # span index -> counts taken at that boundary
        self.cap_exceeded = 0
        self.op = None
        self._stack: list[int] = []
        self._resumed: dict[int, float] = {}
        self._patched: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        now = self.clock()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now, None, parent, self.op, 0.0])
        self._stack.append(idx)
        self._resumed[idx] = now
        return idx

    def suspend(self, idx: int) -> None:
        now = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("span stack out of order")
        self.spans[idx][BUSY] += now - self._resumed.pop(idx)

    def resume(self, idx: int) -> None:
        self._stack.append(idx)
        self._resumed[idx] = self.clock()

    def close(self, idx: int) -> None:
        self.suspend(idx)
        self.spans[idx][END] = self.clock()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.attrs = {}
        self.cap_exceeded = 0

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn):
        name = span_name(fn)
        hook = HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                idx = tracer.open(name)
                count = 0
                try:
                    while True:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        count += 1
                        tracer.suspend(idx)
                        try:
                            yield item
                        finally:
                            tracer.resume(idx)
                finally:
                    tracer.attrs[idx] = {"elements": count}
                    tracer.close(idx)

            gen_wrapper.__perfbench_original__ = fn
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                book = tracer.open(BOOKKEEPING)
                try:
                    tracer.attrs[idx] = hook(args, result)
                finally:
                    tracer.close(book)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _note_exception(self, exc: BaseException) -> None:
        # count each CapExceeded once, where it is first seen
        if type(exc).__name__ == "CapExceeded" and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.cap_exceeded += 1

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import importlib

        wrappers: dict = {}

        def patch(owner, attr, fn):
            if fn not in wrappers:
                wrappers[fn] = self.wrap(fn)
            setattr(owner, attr, wrappers[fn])
            self._patched.append((owner, attr, fn))

        prefix = package.__name__ + "."
        for short in MODULES:
            mod = importlib.import_module(prefix + short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    patch(mod, attr, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            patch(obj, mname, meth)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []


def write_spans(path, header: dict, passes) -> None:
    """Gzipped JSON lines: a header, then one line per span of each (spans,
    attrs) pass: the span's fields, its pass number and its counts, if any."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for number, (spans, attrs) in enumerate(passes):
            for idx, span in enumerate(spans):
                fh.write(json.dumps(span + [number, attrs.get(idx)]) + "\n")


# -- counts taken at layer boundaries -----------------------------------------


def _snf_hook(args, result) -> dict:
    A = args[0]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U, _S, V, _diag = result
    bits = max((abs(e).bit_length() for M in (U, V) for row in M for e in row), default=0)
    return {"cells": rows * cols, "key": hash(tuple(map(tuple, A))), "bits": bits}


def _checked_hook(args, result) -> dict:
    return {"checked": result.checked}


HOOKS = {
    "ring.smith_normal_form": _snf_hook,
    "gatecalc.verify_transversal_phase": _checked_hook,
    "gatecalc.verify_transversal_CX": _checked_hook,
}


def self_times(spans) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = [s[BUSY] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[BUSY]
    return out
