"""Spans and counters recorded around the public functions of each layer.

``install`` replaces each function at the module attribute where the package
looks it up (``segmagic.kernels.product_square_indices`` for the search
module, ``segmagic.squares.classify`` and ``segmagic.search.classify``, and so
on) with a wrapper that times the call.  A span's self time is its duration
minus the time of the wrapped spans nested inside it.  Generator functions
are timed over each resumption, so the consumer's work between items is not
counted against them.
"""

from __future__ import annotations

import functools
from time import perf_counter

# Marks the line on which a traced child process reports its spans (stderr).
PREFIX = "perfbench-spans "

# Per-layer metrics: name -> unit.  The same list is in BENCHMARK.json.
PER_LAYER = {
    "kernels.product_square_indices.s": "s",
    "kernels.product_square_indices.calls": "count",
    "kernels.solutions": "count",
    "search.enumerate_squares.self_s": "s",
    "search.candidates": "count",
    "search.emitted": "count",
    "search.yield_ratio": "ratio",
    "search.enumerate_palindromic.s": "s",
    "squares.from_rows.calls": "count",
    "squares.from_rows.s": "s",
    "squares.apply_transform.calls": "count",
    "squares.apply_transform.s": "s",
    "squares.classify.calls": "count",
    "squares.classify.s": "s",
    "squares.classify_universal.s": "s",
    "squares.render.s": "s",
    "squares.parse_square.s": "s",
    "dates.scan.s": "s",
    "dates.days": "count",
    "dates.matches": "count",
    "cli.main.self_s": "s",
}


class Tracer:
    """Span totals (calls, seconds, self seconds) and counters, kept in memory."""

    def __init__(self):
        self._open: list[list] = []  # [name, seconds of nested spans]
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def parent(self) -> str | None:
        return self._open[-1][0] if self._open else None

    def _close(self, name: str, start: float, calls: int) -> None:
        elapsed = perf_counter() - start
        _, nested = self._open.pop()
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += elapsed
        entry[2] += elapsed - nested
        if self._open:
            self._open[-1][1] += elapsed

    def call(self, name: str, fn, *args, **kwargs):
        self._open.append([name, 0.0])
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start, 1)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(result, args)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """A generator function timed over each resumption; items counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name: str, gen):
        calls = 1
        while True:
            self._open.append([name, 0.0])
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(name, start, calls)
                calls = 0
            self.count(name + ".yielded")
            yield item

    def snapshot(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "s": s, "self_s": own}
                for name, (c, s, own) in self.spans.items()
            },
            "counts": dict(self.counts),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the span totals and counters of several snapshots."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for name, entry in snap["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """The PER_LAYER values from a (merged) snapshot; absent layers read 0."""
    spans, counts = snapshot["spans"], snapshot["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    candidates = counts.get("search.candidates", 0)
    emitted = counts.get("search.enumerate_squares.yielded", 0)
    values = {
        "kernels.solutions": counts.get("kernels.solutions", 0),
        "search.candidates": candidates,
        "search.emitted": emitted,
        "search.yield_ratio": emitted / candidates if candidates else 0.0,
        "dates.days": counts.get("dates.days", 0),
        "dates.matches": counts.get("dates.matches", 0),
    }
    for metric in PER_LAYER:
        if metric not in values:
            name, key = metric.rsplit(".", 1)
            values[metric] = span(name, key)
    return values


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported segmagic package."""
    from segmagic import dates, kernels, search, squares

    def solutions(result, args):
        tracer.count("kernels.solutions", len(result))

    def scanned(result, args):
        start, end = args[0], args[1]
        tracer.count("dates.days", (end - start).days + 1)
        tracer.count("dates.matches", len(result))

    kernels.product_square_indices = tracer.wrap(
        "kernels.product_square_indices", kernels.product_square_indices, solutions
    )
    for name in ("enumerate_squares", "enumerate_palindromic"):
        original = getattr(search, name)
        setattr(search, name, tracer.wrap_generator("search." + name, original))
    for name in ("apply_transform", "classify"):
        wrapped = tracer.wrap("squares." + name, getattr(squares, name))
        setattr(squares, name, wrapped)
        setattr(search, name, wrapped)
    for name in ("classify_universal", "render", "parse_square"):
        setattr(squares, name, tracer.wrap("squares." + name, getattr(squares, name)))
    dates.scan = tracer.wrap("dates.scan", dates.scan, scanned)

    from_rows = squares.Square.__dict__["from_rows"].__func__

    def traced_from_rows(cls, rows):
        if tracer.parent() == "search.enumerate_squares":
            tracer.count("search.candidates")
        return tracer.call("squares.from_rows", from_rows, cls, rows)

    squares.Square.from_rows = classmethod(traced_from_rows)
