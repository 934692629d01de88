"""Spans around calls into onlinelp's modules, recorded from outside.

``Tracer.installed`` replaces each traced function under the name its
caller looks it up by (the benchmark's own ``api`` namespace for the entry
points, ``onlinelp.online`` / ``onlinelp.sifting`` module globals for the
inner calls, ``LpInstance`` class attributes for the methods) and puts the
originals back on exit.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import onlinelp.online
import onlinelp.sifting
from onlinelp.model import LpInstance


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sift_instance = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if note is not None:
                s.attrs.update(note(args, kwargs, result))
            return result
        return traced

    def _wrap_sift(self, fn):
        def traced(instance, *args, **kwargs):
            self._sift_instance = instance
            try:
                with self.span("sift") as s:
                    result = fn(instance, *args, **kwargs)
            finally:
                self._sift_instance = None
            s.attrs.update(n=instance.num_cols, rounds=result.rounds,
                           initial=int(result.initial_working_set.size),
                           final=int(result.final_working_set.size))
            return result
        return traced

    def _solve_note(self, args, kwargs, result):
        instance = args[0]
        warm = kwargs.get("warm_basis", args[1] if len(args) > 1 else None)
        return {"iterations": result.iterations, "warm": warm is not None,
                "reference": instance is self._sift_instance}

    @contextlib.contextmanager
    def installed(self, api):
        """Wrap the traced functions for the duration of the block."""
        def online_note(args, kwargs, result):
            config = args[1]
            return {"method": config.method, "lazy": config.lazy,
                    "columns": result.elapsed_columns}

        patches = [
            (api, "generate_mkp", lambda f: self._wrap("generate_mkp", f)),
            (api, "parse_mps", lambda f: self._wrap("parse_mps", f)),
            (api, "solve_online", lambda f: self._wrap("solve_online", f, online_note)),
            (api, "sift", self._wrap_sift),
            (api, "solve_lp", lambda f: self._wrap("solve_lp", f, self._solve_note)),
            (onlinelp.online, "compute_stats", lambda f: self._wrap("compute_stats", f)),
            (onlinelp.online, "project_weighted_simplex",
             lambda f: self._wrap("project_weighted_simplex", f)),
            (onlinelp.sifting, "solve_lp", lambda f: self._wrap("solve_lp", f, self._solve_note)),
            (onlinelp.sifting, "price", lambda f: self._wrap("price", f)),
            (LpInstance, "to_scipy", lambda f: self._wrap("to_scipy", f)),
            (LpInstance, "restrict_columns", lambda f: self._wrap("restrict_columns", f)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, make in patches:
                setattr(owner, name, make(getattr(owner, name)))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "attrs": s.attrs} for s in self.spans], fh)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], rounds: int, mps_mb: float) -> dict:
    """Per-layer metrics of the traced rounds.

    Counts and the busy times of shared helpers are per round; the times of
    single calls are medians over the calls.  A layer the workload does not
    reach reads 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    def per_round(value) -> float:
        return value / rounds

    def children(parent: int, name: str):
        return [spans[i] for i in by_name.get(name, []) if spans[i].parent == parent]

    def us_per_column(method, lazy):
        runs = [s for s in named("solve_online")
                if s.attrs["method"] == method and s.attrs["lazy"] == lazy]
        cols = sum(s.attrs["columns"] for s in runs)
        return 1e6 * sum(s.dur for s in runs) / cols if cols else 0.0

    solves = named("solve_lp")
    iterations = sum(s.attrs["iterations"] for s in solves)
    projections = named("project_weighted_simplex")
    sift_ids = by_name.get("sift", [])
    sifts = [spans[i] for i in sift_ids]
    parse_s = _median(s.dur for s in named("parse_mps"))
    return {
        "instances.generate_s": _median(s.dur for s in named("generate_mkp")),
        "mps.parse_s": parse_s,
        "mps.parse_mb_per_s": mps_mb / parse_s if parse_s else 0.0,
        "model.compute_stats_s": _median(s.dur for s in named("compute_stats")),
        "model.to_scipy_calls": per_round(len(named("to_scipy"))),
        "model.to_scipy_s": per_round(sum(s.dur for s in named("to_scipy"))),
        "model.restrict_columns_s": per_round(sum(s.dur for s in named("restrict_columns"))),
        "online.columns": per_round(sum(s.attrs["columns"] for s in named("solve_online"))),
        "online.explicit_dense.us_per_column": us_per_column("explicit", False),
        "online.explicit_lazy.us_per_column": us_per_column("explicit", True),
        "online.implicit.us_per_column": us_per_column("implicit", False),
        "projection.calls": per_round(len(projections)),
        "projection.us_per_call": (1e6 * sum(s.dur for s in projections) / len(projections)
                                   if projections else 0.0),
        "simplex.solves": per_round(len(solves)),
        "simplex.warm_solves": per_round(sum(s.attrs["warm"] for s in solves)),
        "simplex.iterations": per_round(iterations),
        "simplex.us_per_iteration": (1e6 * sum(s.dur for s in solves) / iterations
                                     if iterations else 0.0),
        "sifting.prepass_s": _median(s.dur for s in named("op:prepass")),
        "sifting.rounds": _median(s.attrs["rounds"] for s in sifts),
        "sifting.initial_columns": _median(s.attrs["initial"] for s in sifts),
        "sifting.final_columns": _median(s.attrs["final"] for s in sifts),
        "sifting.final_fraction": _median(s.attrs["final"] / s.attrs["n"] for s in sifts),
        "sifting.working_solve_s": _median(
            sum(c.dur for c in children(i, "solve_lp") if not c.attrs["reference"])
            for i in sift_ids),
        "sifting.reference_solve_s": _median(
            sum(c.dur for c in children(i, "solve_lp") if c.attrs["reference"])
            for i in sift_ids),
        "sifting.price_calls": _median(len(children(i, "price")) for i in sift_ids),
        "sifting.price_s": _median(sum(c.dur for c in children(i, "price")) for i in sift_ids),
    }
