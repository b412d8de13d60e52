"""In-memory spans and counters, and probes that wrap `kronscale` names.

A span is (name, start, end, parent); the layer of a span is the part of
its name before the first dot.  A probe replaces one attribute -- a module
function at the name its caller looks up, a method, or a property -- with
a wrapper that records a span or bumps a counter, and puts the original
back on removal.  A probe whose target no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []        # [name, start, end, parent index]
        self._stack: list = []
        self.counts: dict = {}       # counter name -> [count]
        self.values: dict = {}       # values captured by probe hooks
        self.broken: dict = {}       # probe target -> error in its hook

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} ended while {popped} was open")

    def counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self.counter(name)[0]

    def add(self, name: str, amount) -> None:
        self.values[name] = self.values.get(name, 0) + amount


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.
    Spans close in stack order, so siblings never overlap."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@dataclass(frozen=True)
class Probe:
    """Wrap `module.path` (path may be 'Class.attr').

    With `span` set, each call records a span of that name; otherwise each
    call bumps the counter `count`.  `before(tracer, args)` and
    `after(tracer, args, result, state)` capture values around a spanned
    call; `state` is what `before` returned.  A hook that raises marks the
    probe broken in `tracer.broken`.
    """

    module: str
    path: str
    span: str = ""
    count: str = ""
    before: object = None
    after: object = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.path}"


def _resolve(probe: Probe):
    """(owner, attribute name, original as stored on the owner) or None."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *parents, attr = probe.path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        stored = vars(owner).get(attr)
    else:
        stored = getattr(owner, attr, None)
    if stored is None:
        return None
    return owner, attr, stored


def _wrap(fn, probe: Probe, tracer: Tracer):
    if not probe.span:
        cell = tracer.counter(probe.count)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def hook(fn, *args):
        # a hook that no longer fits the program marks its probe broken;
        # the traced call itself must run unchanged
        if fn is None or probe.target in tracer.broken:
            return None
        try:
            return fn(tracer, *args)
        except Exception as exc:  # noqa: BLE001 - reported, never raised
            tracer.broken[probe.target] = f"{type(exc).__name__}: {exc}"
            return None

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        state = hook(probe.before, args)
        idx = tracer.begin(probe.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        hook(probe.after, args, result, state)
        return result
    return spanned


class Probes:
    """Installed probes; use as a context manager to restore originals."""

    def __init__(self, probes, tracer: Tracer):
        self.tracer = tracer
        self.absent: list = []
        self._restore: list = []
        for probe in probes:
            found = _resolve(probe)
            if found is None:
                self.absent.append(probe.target)
                continue
            owner, attr, stored = found
            if isinstance(stored, property):
                replacement = property(_wrap(stored.fget, probe, tracer))
            elif callable(stored):
                replacement = _wrap(stored, probe, tracer)
            else:
                self.absent.append(probe.target)
                continue
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, stored))

    def remove(self) -> None:
        while self._restore:
            owner, attr, stored = self._restore.pop()
            setattr(owner, attr, stored)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
