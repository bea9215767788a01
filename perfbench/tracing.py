"""Spans recorded from the benchmark around calls into each layer.

While :func:`instrumented` is active, every public function of the layer
modules is replaced by a wrapper that records a span (name, start, end,
parent, op id) in a :class:`SpanLog`.  The wrapper is installed at every
import site, because ``chains``, ``approx``, ``extension`` and ``cli`` bind
``solve_forward``, ``limit_frame``, ... with ``from .x import``; patching
only the defining module would miss most calls.  Private helpers
(``_drive``, ``_best_extrapolant``, ``_lsq_wirtinger``) are not wrapped, so
their time is the self time of their public caller.  The one extra span is
the fused field closure returned by ``VectorFieldHandle.segment_rhs``.

Counts are read at the same boundaries from what the wrapped calls
return (``TrajectorySet``, ``ChainLimitResult``, atlases, written paths).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Module -> layer.  The config layer covers the scenario registry and the
# CLI pipelines that drive every other layer.
LAYERS = {"herglotz": "herglotz", "evolution": "evolution", "chains": "chains",
          "extension": "extension", "approx": "approx", "artifacts": "artifacts",
          "config": "config", "scenarios": "config", "cli": "config"}

FIELD = "herglotz.field"

# Metrics of the traced run and their units.  All but the last three come
# from layer_metrics; oracle.err is the worst oracle ratio over the run's
# ops (1.0 is the acceptance line).
PER_LAYER = {
    "herglotz.field_s": "s", "herglotz.field_calls": "count",
    "herglotz.field_points": "count", "herglotz.ns_per_point": "ns",
    "herglotz.criteria_s": "s",
    "evolution.self_s": "s", "evolution.solves": "count",
    "evolution.steps_accepted": "count", "evolution.steps_rejected": "count",
    "evolution.accept_ratio": "ratio", "evolution.mean_batch": "points",
    "evolution.us_per_point_step": "us", "evolution.truncated": "count",
    "chains.self_s": "s", "chains.leg_s": "s", "chains.legs": "count",
    "chains.horizon_max": "t", "chains.wasted_leg_s": "s",
    "chains.accelerated_frac": "ratio", "chains.converged_frac": "ratio",
    "chains.acc_delta_max": "abs",
    "extension.self_s": "s", "extension.cells": "count",
    "extension.fd_valid_frac": "ratio", "extension.mu_agreement": "abs",
    "approx.self_s": "s", "approx.levels": "count",
    "artifacts.write_s": "s", "artifacts.bytes": "B", "artifacts.files": "count",
    "config.self_s": "s", "config.build_s": "s",
    "trace.overhead_frac": "ratio", "oracle.err": "ratio",
}


class SpanLog:
    """Spans in memory as parallel columns; names are interned to ids.

    ``aux`` holds one number per span that an observer may set (the end
    horizon of a solve, the horizon a limit used).  ``counts`` holds the
    counters observers read from return values.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.limits: list[tuple[float, bool, bool, float]] = []
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self.aux.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def arrays(self):
        """(name ids, parents, ops, start, end, aux) as numpy arrays."""
        return tuple(np.frombuffer(c, dtype=c.typecode).copy()
                     for c in (self.name, self.parent, self.op, self.start,
                               self.end, self.aux))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct child spans.

    Spans come from one call stack, so children of a span are disjoint and
    lie inside it; their durations add up to the part of the interval they
    cover.
    """
    dur = np.asarray(end, float) - np.asarray(start, float)
    parent = np.asarray(parent)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child[:dur.size]


def layer_of(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


# ---------------------------------------------------------------------------
# observers: counts read from what a wrapped call returns


def _observe_solve(log: SpanLog, i: int, args, kwargs, traj) -> None:
    log.aux[i] = float(traj.times[-1])      # the horizon the solve reached
    steps = traj.steps_accepted
    c = log.counts
    c["evolution.solves"] += 1
    c["evolution.steps_accepted"] += int(steps.max()) if steps.size else 0
    c["evolution.point_steps"] += int(steps.sum())
    c["evolution.steps_rejected"] += int(traj.steps_rejected)
    c["evolution.truncated"] += int(np.count_nonzero(traj.truncated))


def _observe_limit(log: SpanLog, i: int, args, kwargs, res) -> None:
    log.aux[i] = float(res.horizon_used)
    log.limits.append((float(res.horizon_used) - float(res.t), bool(res.accelerated),
                       bool(res.converged), float(res.acc_delta)))


def _observe_atlas(log: SpanLog, i: int, args, kwargs, atlas) -> None:
    log.counts["extension.cells"] += atlas.valid.size
    log.counts["extension.fd_valid"] += int(np.count_nonzero(atlas.fd_valid & atlas.valid))


def _observe_dilatation(log: SpanLog, i: int, args, kwargs, rep) -> None:
    c = log.counts
    c["extension.mu_agreement"] = max(c["extension.mu_agreement"], float(rep.agreement))


def _observe_level(log: SpanLog, i: int, args, kwargs, ap) -> None:
    log.counts["approx.levels"] += 1


def _observe_write(log: SpanLog, i: int, args, kwargs, path) -> None:
    log.counts["artifacts.files"] += 1
    log.counts["artifacts.bytes"] += Path(path).stat().st_size


OBSERVERS = {
    "evolution.solve_forward": _observe_solve,
    "evolution.solve_reverse": _observe_solve,
    "chains.limit_frame": _observe_limit,
    "extension.build_extension": _observe_atlas,
    "extension.dilatation_report": _observe_dilatation,
    "approx.step_approximate": _observe_level,
}


def _wrap(fn, log: SpanLog, span_name: str):
    nid = log.name_id(span_name)
    observe = OBSERVERS.get(span_name)
    if observe is None and span_name.startswith("artifacts.write_"):
        observe = _observe_write

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = log.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(i)
        if observe is not None:
            observe(log, i, args, kwargs, result)
        return result

    return traced


def _wrap_segment_rhs(orig, log: SpanLog):
    nid = log.name_id(FIELD)
    counts = log.counts

    @functools.wraps(orig)
    def segment_rhs(self, a, b):
        pair = orig(self, a, b)

        def traced_pair(z, t):
            i = log.open(nid)
            try:
                return pair(z, t)
            finally:
                log.close(i)
                counts["herglotz.field_points"] += z.size

        return traced_pair

    return segment_rhs


@contextmanager
def instrumented(log: SpanLog):
    """Wrap the layers' public functions at every import site, then restore."""
    import loewnerqc.herglotz as herglotz

    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "loewnerqc" or name.startswith("loewnerqc."))]
    wrappers = {}
    for m in mods:
        short = m.__name__.rsplit(".", 1)[-1]
        if short not in LAYERS:
            continue
        for attr, obj in vars(m).items():
            if (inspect.isfunction(obj) and obj.__module__ == m.__name__
                    and not attr.startswith("_")):
                wrappers[id(obj)] = _wrap(obj, log, f"{short}.{attr}")
    saved = []
    for m in mods:
        for attr, obj in list(vars(m).items()):
            w = wrappers.get(id(obj))
            if w is not None and w.__wrapped__ is obj:
                saved.append((m, attr, obj))
                setattr(m, attr, w)
    cls = herglotz.VectorFieldHandle
    orig_rhs = cls.segment_rhs
    cls.segment_rhs = _wrap_segment_rhs(orig_rhs, log)
    try:
        yield log
    finally:
        cls.segment_rhs = orig_rhs
        for m, attr, obj in saved:
            setattr(m, attr, obj)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def check_spans(log: SpanLog, op_walls: list[float]) -> list[str]:
    """Problems with the span log: open spans, children outside their parent,
    or per-op self times that do not add up to the op's traced wall time."""
    names, parent, op, start, end, _ = log.arrays()
    problems = []
    if np.isnan(end).any():
        problems.append(f"{int(np.isnan(end).sum())} spans never closed")
        return problems
    has = parent >= 0
    outside = (start[has] < start[parent[has]]) | (end[has] > end[parent[has]])
    if outside.any():
        problems.append(f"{int(outside.sum())} spans lie outside their parent span")
    st = self_times(start, end, parent)
    for i, wall in enumerate(op_walls):
        total = float(st[op == i].sum())
        if abs(total - wall) > 1e-3 * wall + 1e-3:
            problems.append(f"op {i}: layer self times sum to {total:.6f} s, "
                            f"traced wall time is {wall:.6f} s")
    return problems


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced pass."""
    names, parent, op, start, end, aux = log.arrays()
    labels = np.array(log.names, dtype=object)[names]
    layers = np.array([layer_of(s) for s in log.names], dtype=object)[names]
    dur = end - start
    st = self_times(start, end, parent)
    in_op = op >= 0

    def self_s(layer):
        return float(st[in_op & (layers == layer)].sum())

    c = log.counts
    m: dict[str, float] = {}
    is_field = labels == FIELD
    m["herglotz.field_s"] = float(dur[is_field].sum())
    m["herglotz.field_calls"] = float(np.count_nonzero(is_field))
    m["herglotz.field_points"] = c["herglotz.field_points"]
    m["herglotz.ns_per_point"] = (1e9 * m["herglotz.field_s"] / m["herglotz.field_points"]
                                  if m["herglotz.field_points"] else 0.0)
    m["herglotz.criteria_s"] = float(st[in_op & (layers == "herglotz") & ~is_field].sum())

    m["evolution.self_s"] = self_s("evolution")
    for key in ("solves", "steps_accepted", "steps_rejected", "truncated"):
        m[f"evolution.{key}"] = c[f"evolution.{key}"]
    tried = c["evolution.steps_accepted"] + c["evolution.steps_rejected"]
    m["evolution.accept_ratio"] = c["evolution.steps_accepted"] / tried if tried else 0.0
    m["evolution.mean_batch"] = (c["evolution.point_steps"] / c["evolution.steps_accepted"]
                                 if c["evolution.steps_accepted"] else 0.0)
    m["evolution.us_per_point_step"] = (1e6 * m["evolution.self_s"] / c["evolution.point_steps"]
                                        if c["evolution.point_steps"] else 0.0)

    m["chains.self_s"] = self_s("chains")
    is_limit = labels == "chains.limit_frame"
    has = parent >= 0
    leg = np.zeros(names.size, bool)
    leg[has] = (labels[has] == "evolution.solve_forward") & is_limit[parent[has]]
    wasted = np.zeros(names.size, bool)
    wasted[leg] = aux[leg] > aux[parent[leg]] + 1e-9
    m["chains.leg_s"] = float(dur[leg].sum())
    m["chains.legs"] = float(np.count_nonzero(leg))
    m["chains.wasted_leg_s"] = float(dur[wasted].sum())
    lim = log.limits
    m["chains.horizon_max"] = max((h for h, *_ in lim), default=0.0)
    m["chains.accelerated_frac"] = sum(a for _, a, _, _ in lim) / len(lim) if lim else 0.0
    m["chains.converged_frac"] = sum(cv for _, _, cv, _ in lim) / len(lim) if lim else 0.0
    m["chains.acc_delta_max"] = max((d for *_, d in lim if math.isfinite(d)), default=0.0)

    m["extension.self_s"] = self_s("extension")
    m["extension.cells"] = c["extension.cells"]
    m["extension.fd_valid_frac"] = (c["extension.fd_valid"] / c["extension.cells"]
                                    if c["extension.cells"] else 0.0)
    m["extension.mu_agreement"] = c["extension.mu_agreement"]

    m["approx.self_s"] = self_s("approx")
    m["approx.levels"] = c["approx.levels"]

    m["artifacts.write_s"] = float(dur[in_op & (layers == "artifacts")].sum())
    m["artifacts.bytes"] = c["artifacts.bytes"]
    m["artifacts.files"] = c["artifacts.files"]

    m["config.self_s"] = self_s("config")
    return m
