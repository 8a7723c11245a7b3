"""Span tracer that times calls into a package from outside it.

The tracer replaces a function under every module-level name that is
bound to it (``from .x import f`` copies the binding into each caller's
module), records one span per call, and restores every binding on exit.
The program under test is never edited.

A span is ``(id, name, start, end, parent_id, run_id)``.  Spans stay in
memory until the benchmark writes them out once, at the end.  A
recursive call of a traced function runs inside its outer span and
records nothing, so ``calls`` counts outermost calls only.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Layer(NamedTuple):
    """One traced function.

    ``name`` is the metric prefix ``<module>.<function>``; ``count``
    maps ``(args, kwargs, result)`` to one increment per entry of
    ``counters``; ``moves`` lists the ``(end-to-end metric, workload)``
    pairs a change to this layer should move.
    """

    name: str
    module: str
    function: str
    moves: tuple[tuple[str, str], ...]
    counters: tuple[str, ...] = ()
    count: Callable | None = None


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self, layers: list[Layer], package: str):
        self.layers = layers
        self.package = package
        self.run_id = ""
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        name, open_spans, spans = layer.name, self._open, self.spans
        counters, count, totals = layer.counters, layer.count, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_spans and open_spans[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = open_spans[-1][0] if open_spans else None
            open_spans.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans.append(Span(span_id, name, start, end, parent,
                                  self.run_id))
            if count is not None:
                for counter, value in zip(counters, count(args, kwargs,
                                                          result)):
                    totals[f"{name}.{counter}"] += value
            return result

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if n == self.package or n.startswith(prefix)]

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every layer's function; restore all of
        them on exit, also when the body raises."""
        wrappers = {}
        for layer in self.layers:
            fn = getattr(sys.modules[layer.module], layer.function)
            wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        try:
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            while self._patched:
                module, attr, value = self._patched.pop()
                setattr(module, attr, value)

    def metrics(self) -> dict[str, float]:
        """Per layer: total span seconds ``.s``, self seconds ``.self_s``
        (span time minus the time of its child spans), ``.calls``, and
        every counter; layers never called report zeros."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer.name}.s"] = 0.0
            out[f"{layer.name}.self_s"] = 0.0
            out[f"{layer.name}.calls"] = 0
            for counter in layer.counters:
                out[f"{layer.name}.{counter}"] = self.counts.get(
                    f"{layer.name}.{counter}", 0)
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.name}.s"] += duration
            out[f"{span.name}.self_s"] += duration - child_time[span.id]
            out[f"{span.name}.calls"] += 1
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def metric_names(layers: list[Layer]) -> list[str]:
    """Every per-layer metric the tracer reports, in table order."""
    names = []
    for layer in layers:
        names += [f"{layer.name}.s", f"{layer.name}.self_s",
                  f"{layer.name}.calls"]
        names += [f"{layer.name}.{c}" for c in layer.counters]
    return names
