"""Workload-independent machinery of the benchmark.

Spans with parent ids and the self time derived from them, medians
stated with their sample count, the median pass of a workload, the
ledger of attempted and failed operations, timing wrappers bound into
every namespace that holds a name, and the exit code of a click entry
point.  Nothing here imports
the program under test, so `selftest.py` exercises it on synthetic
input.
"""

from __future__ import annotations

import functools
import statistics
import time
import traceback


class Tracer:
    """Spans and counts kept in memory until the run ends.

    A span is [id, parent id or None, name, start, end] in
    perf_counter seconds.  Wrappers record nothing while `active` is
    false, so the benchmark's own output checks stay out of the trace.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, list] = {}
        self.active = False
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, value) -> None:
        """A count or size observed at a span boundary."""
        self.values.setdefault(name, []).append(value)


def timed(tracer: Tracer, name: str, fn, after=None):
    """`fn` wrapped in a span named `name`.

    `after(tracer, result, args)` runs once the span has closed and
    records counts read from the call's arguments and result.
    """

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(tracer, out, args)
        return out

    # updated=(): a wrapped class must not lend its attributes
    return functools.update_wrapper(wrapper, fn, updated=())


class Rebinder:
    """Replaces objects by wrappers and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def everywhere(self, namespaces, original, wrapper) -> int:
        """Rebind every name bound to `original` in each namespace
        (module or class); returns how many bindings were replaced."""
        hits = 0
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, attr, wrapper)
                    self._undo.append((ns, attr, original))
                    hits += 1
        return hits

    def attribute(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out[sid] = (end - start) - covered
    return out


def median_with_count(values) -> tuple[float, int]:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values)), len(values)


def median_pass(samples: dict, steps: dict) -> tuple[float, int]:
    """(value, samples) of one pass of a workload with each step at its
    median.  `samples` maps a step to its sample values, `steps` a step
    to how often one pass runs it."""
    value = sum(n * median_with_count(samples[step])[0]
                for step, n in steps.items())
    return value, sum(len(samples[step]) for step in steps)


class Ledger:
    """Attempted and failed operations of one run.

    An operation is a timed call into the program or an output check.
    A call that raises and a check that does not hold both count as
    failed, with their reason kept; nothing is retried.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)

    def call(self, name: str, fn, *args, **kwargs):
        """(result, seconds) of fn(*args, **kwargs), or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc()}")
            return None
        return out, time.perf_counter() - t0


def exit_code(entry, args) -> int:
    """Exit code of a click entry point run in-process with `args`."""
    try:
        entry(args, prog_name="hodge-rsm")
    except SystemExit as e:
        if e.code is None:
            return 0
        return e.code if isinstance(e.code, int) else 1
    return 0
