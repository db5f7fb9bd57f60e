"""In-process spans at gridfreq's layer boundaries, for the traced run only.

The tracer replaces module attributes through which gridfreq's own callers
reach the next layer (``gridfreq.cli.simulate``, ``gridfreq.sweeps.mv_min_exact``
and so on) with timing shims, and restores them afterwards.  No gridfreq
source file is touched.  Spans stay in memory; the worker writes them out
when it exits.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import gridfreq.cli
import gridfreq.sweeps

# (module, attribute the caller binds, span name)
SHIMS = (
    (gridfreq.cli, "load_scenario", "scenariofile.load"),
    (gridfreq.cli, "simulate", "simulate"),
    (gridfreq.cli, "extract_metrics", "simulate.extract"),
    (gridfreq.cli, "write_trajectory_csv", "simulate.csv"),
    (gridfreq.sweeps, "simulate", "simulate"),
    (gridfreq.sweeps, "extract_metrics", "simulate.extract"),
    (gridfreq.sweeps, "mv_min_exact", "tuning"),
    (gridfreq.sweeps, "design_droop_from_target", "tuning"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "extra")

    def __init__(self, name: str, parent: int, op: Any) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.extra: dict = {}

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.extra]


def _simulate_counts(span: Span, _args: tuple, traj: Any) -> None:
    span.extra["steps"] = traj.n_samples - 1


def _csv_counts(span: Span, args: tuple, _result: Any) -> None:
    traj, stream = args
    span.extra["rows"] = traj.n_samples
    span.extra["bytes"] = stream.tell()  # the CLI writes into a freshly opened file


def _sweeps_counts(span: Span, _args: tuple, points: Any) -> None:
    span.extra["points"] = len(points)


# counts taken from a span's arguments and result, by span name
_COUNTERS = {"simulate": _simulate_counts, "simulate.csv": _csv_counts, "sweeps": _sweeps_counts}


class Tracer:
    """Records spans (name, start, end, parent, op id) and counts per span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Any = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` inside a span called ``name``."""
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            span.extra["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        counter = _COUNTERS.get(name)
        if counter is not None:
            counter(span, args, result)
        return result

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far; parents index into the list returned."""
        spans, self.spans = self.spans, []
        return spans

    def _shim(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def shim(*args: Any) -> Any:
            return self.call(name, fn, *args)

        return shim

    def install(self) -> None:
        for module, attr, name in SHIMS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._shim(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed counts, errors.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for span, children in zip(spans, child_time):
        row = totals.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0, "errors": 0})
        duration = span.end - span.start
        row["calls"] += 1
        row["total"] += duration
        row["self"] += duration - children
        for key, value in span.extra.items():
            if key == "error":
                row["errors"] += 1
            else:
                row[key] = row.get(key, 0) + value
    return totals
