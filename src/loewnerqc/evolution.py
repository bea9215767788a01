"""Adaptive integration of the forward and reverse evolution-family ODEs.

The forward family solves

    d phi / dt = G(phi, t),   phi(s) = z,

the reverse family solves dw/ds = -G(w, s) backward from w(t) = z.  Both
carry the variational derivative d/dz alongside, so first derivatives of
the flow never come from finite-differencing trajectories.

The stepper is an embedded Dormand-Prince 5(4) pair with a shared
adaptive step across all seeds of a batch (the error norm maxes over live
seeds, so each seed still meets the tolerance), step boundaries aligned to
the field's stops (the jumps of tau and the table nodes of the data),
first-same-as-last reuse of the accepted step's last stage kept apart
from the trial buffer, so a rejected step restarts from the stored
f(t, y) and a trial step costs six field evaluations, stage sums formed
outside BLAS, and honest truncation when a trajectory reaches the
boundary guard or a point where the field is not finite.  Truncation is
per seed: the healthy seeds of the batch go on.  Forward seeds may
start apart: each joins the batch at its own start, a stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import DELTA_GUARD, SeedGrid, hyperbolic_distance, past_guard, time_row
from .herglotz import VectorFieldHandle

# Dormand-Prince 5(4) tableau.  Stage sums are einsums over the real view of the
# stages, not BLAS: a large-batch gemv wakes a BLAS thread that then spin-waits.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_H_MIN_FACTOR = 1e-13
_H_MAX = 4.0

DEFAULT_TOL = 1e-9          # the tolerance of a solve given none
_PANELS_PER_UNIT = 128      # Simpson panels per unit time of derivative_at_origin


@dataclass
class TrajectorySet:
    """Discretized evolution (or reverse evolution) family on a seed batch.

    values/derivs have shape [n_times, n_seeds].  Forward, the rows run
    over t >= min(s), and a seed holds NaN at the times before its own
    start; reverse, the rows run over s in [0, t] ascending and the
    seeds sit in the last row.  Truncated seeds hold NaN at every stored
    time past their truncation.
    """

    times: np.ndarray
    seeds: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    truncated: np.ndarray
    truncation_time: np.ndarray
    steps_accepted: np.ndarray
    steps_rejected: int
    warnings: list[str] = field(default_factory=list)

    def row(self, time: float) -> int:
        return time_row(self.times, time, "time {t} not stored (nearest {nearest})")

    def at(self, time: float) -> np.ndarray:
        return self.values[self.row(time)]

    def deriv_at(self, time: float) -> np.ndarray:
        return self.derivs[self.row(time)]

    def live(self) -> np.ndarray:
        return ~self.truncated


def _rhs(pair_fn, t, y):
    g, dzg = pair_fn(y[0], t)
    out = np.empty_like(y)
    out[0] = g
    out[1] = dzg * y[1]
    return out


def _drive(segment_rhs: Callable, starts: np.ndarray, t1: float, seeds: np.ndarray,
           rtol: float, atol: float, record_times: np.ndarray, breakpoints):
    """March the augmented system to t1, recording at record_times.

    Each seed joins the live batch at its own start, which is a stop.
    segment_rhs(a, b) must return an evaluator pair(z, t) -> (G, dG/dz)
    valid on [a, b]; segments never straddle a breakpoint.  Returns
    per-seed outputs in the original seed order.
    """
    n = seeds.size
    t0 = float(np.min(starts, initial=t1))
    rec = np.asarray(record_times, dtype=float)
    values = np.full((rec.size, n), np.nan + 0j, dtype=complex)
    derivs = np.full((rec.size, n), np.nan + 0j, dtype=complex)
    truncated = np.zeros(n, dtype=bool)
    trunc_time = np.full(n, np.nan)
    steps = np.zeros(n, dtype=np.int64)
    rejected = 0
    warnings: list[str] = []

    begin = np.unique(starts)
    stops = np.unique(np.concatenate([rec, begin, [b for b in breakpoints if t0 < b < t1]]))
    stops = stops[(stops >= t0 - 1e-15) & (stops <= t1 + 1e-15)]
    rec_lookup = {}
    for i, tr in enumerate(rec):
        rec_lookup[int(np.argmin(np.abs(stops - tr)))] = i

    joins = {int(np.searchsorted(stops, u)): np.flatnonzero(starts == u) for u in begin}
    active = np.empty(0, dtype=int)
    y = np.empty((2, 0), dtype=complex)

    def record(stop_idx):
        i = rec_lookup.get(stop_idx)
        if i is None:
            return
        values[i, active] = y[0]
        derivs[i, active] = y[1]

    h = h0 = min(max(stops[-1] - stops[0], 1e-12) * 0.05, 0.1)

    def drop(mask, t_now):
        """Truncate the active seeds selected by mask at t_now."""
        nonlocal active, y, k1
        gone = active[mask]
        truncated[gone] = True
        trunc_time[gone] = t_now
        keep = ~mask
        active = active[keep]
        y = y[:, keep]
        k1 = k1[:, keep]

    for si in range(len(stops)):
        new = joins.get(si)
        if new is not None:                  # recorded exactly, and k1 below covers them
            active = np.concatenate([active, new])
            y = np.concatenate([y, np.broadcast_to(seeds[new], (2, new.size))], axis=1)
            y[1, -new.size:] = 1.0
        record(si)
        if si + 1 == len(stops) or active.size == 0:
            continue
        a, b = float(stops[si]), float(stops[si + 1])
        pair_fn = segment_rhs(a, b)
        t = a
        k1 = _rhs(pair_fn, t, y)
        K = np.empty((7,) + y.shape, dtype=complex)
        Kr = K.view(float)
        bad = np.zeros(active.size, dtype=bool)
        # what is left of a segment below the step floor is not stepped, and
        # clamping h only here keeps a segment too short to step from shrinking it
        while t < b - _H_MIN_FACTOR * max(1.0, abs(b)):
            if active.size == 0:
                break
            h = min(h, b - t)
            h_min = _H_MIN_FACTOR * max(1.0, abs(t))
            # a seed whose field is not finite where it stands, or whose
            # steps stay non-finite down to the smallest step, cannot be
            # advanced; it is truncated alone and the others go on
            sick = ~np.isfinite(k1).all(axis=0)
            if h < h_min:
                sick |= bad
            if sick.any():
                warnings.append(f"non-finite field at t = {t}; "
                                f"{int(np.count_nonzero(sick))} seed(s) truncated")
                drop(sick, t)
                bad = np.zeros(active.size, dtype=bool)
                h = max(h, h_min)
                continue
            if h < h_min:
                warnings.append(f"step size underflow at t = {t}; live seeds truncated")
                drop(np.ones(active.size, dtype=bool), t)
                h = h0                       # seeds that join later start afresh
                break
            if K.shape[1:] != y.shape:
                K = np.empty((7,) + y.shape, dtype=complex)
                Kr = K.view(float)
            K[0] = k1
            for stage in range(1, 6):
                acc = np.einsum("i,i...->...", _A[stage], Kr[:stage]).view(complex)
                K[stage] = _rhs(pair_fn, t + _C[stage] * h, y + h * acc)
            y_new = y + h * np.einsum("i,i...->...", _A[6], Kr[:6]).view(complex)
            # the last stage is f(t + h, y_new): the next step's first (FSAL)
            K[6] = _rhs(pair_fn, t + h, y_new)
            err_vec = h * np.einsum("i,i...->...", _E, Kr).view(complex)
            abs_new = np.abs(y_new)
            scale = atol + rtol * np.maximum(np.abs(y), abs_new)
            with np.errstate(invalid="ignore"):
                err = np.abs(err_vec) / scale
            err_fin = err[np.isfinite(err)]
            errmax = float(err_fin.max()) if err_fin.size else np.inf
            bad = ~np.isfinite(y_new).all(axis=0)
            if errmax <= 1.0 and not bad.any():
                t = t + h
                y = y_new
                # a copy, not a view: the next trial overwrites K[6] at its
                # own end point, and a rejected trial must restart from
                # f(t, y) of this accepted step
                k1 = K[6].copy()
                steps[active] += 1
                hit = abs_new[0] >= 1.0 - DELTA_GUARD
                if hit.any():
                    drop(hit, t)
                    bad = np.zeros(active.size, dtype=bool)
                factor = 5.0 if errmax == 0.0 else min(5.0, max(0.2, 0.9 * errmax ** -0.2))
                h = min(_H_MAX, h * factor)
            else:
                rejected += 1
                # errmax covers finite entries only, so a non-finite state
                # takes the floor factor; a rejected step never grows h
                if bad.any() or not np.isfinite(errmax):
                    h *= 0.2
                else:
                    h *= min(1.0, max(0.2, 0.9 * errmax ** -0.2))

    return values, derivs, truncated, trunc_time, steps, rejected, warnings


def _solve(segment_rhs, s, b: float, seeds, rtol: float, atol: float, checkpoints,
           stops, reverse: bool) -> TrajectorySet:
    """The shared body of the solves: each seed starts at its s and rides to b.

    s broadcasts against the seeds.  A reverse solve (s = 0) drives in
    sigma = b - s; its rows are then re-indexed ascending in s, so the
    seeds sit in the last row.
    """
    pts = seeds.points.copy() if isinstance(seeds, SeedGrid) else \
        np.atleast_1d(np.asarray(seeds, dtype=complex))
    if np.any(past_guard(pts)):
        raise ValueError("seed modulus reaches the boundary guard")
    starts = np.broadcast_to(np.asarray(s, dtype=float), pts.shape)
    a = float(np.min(s))
    rec = np.unique(np.concatenate(
        [[a, b], np.asarray(checkpoints if checkpoints is not None else [], dtype=float)]))
    if rec[0] < a - 1e-12 or rec[-1] > b + 1e-12:
        raise ValueError(f"checkpoints outside [{a}, {b}]")

    values, derivs, truncated, ttime, steps, rej, warn = _drive(
        segment_rhs, starts, b, pts, rtol, atol, np.sort(b - rec) if reverse else rec, stops)
    if reverse:
        values, derivs, ttime = values[::-1].copy(), derivs[::-1].copy(), b - ttime
    return TrajectorySet(rec, pts, values, derivs, truncated, ttime, steps, rej, warn)


def solve_forward(field: VectorFieldHandle, s, t_end: float, seeds,
                  tol: float = DEFAULT_TOL, checkpoints=None,
                  atol: float | None = None) -> TrajectorySet:
    """Integrate d phi/dt = G(phi, t) from t = s to t_end for every seed.

    s broadcasts against the seeds.  The stored times are min(s), t_end and
    the checkpoints; a seed holds NaN at those before its start, and at its
    start, if stored, the seed itself with derivative 1.

    By default the controller uses rtol = atol = tol.  The chain limits pass
    an explicit near-zero atol: they divide exponentially small quantities,
    so the error control must stay relative all the way down.
    """
    if np.any(np.asarray(s) > t_end):
        raise ValueError(f"t_end = {t_end} < s = {np.max(s)}")
    return _solve(field.segment_rhs, s, t_end, seeds, tol, tol if atol is None else atol,
                  checkpoints, field.stops, reverse=False)


def solve_reverse(field: VectorFieldHandle, t: float, seeds,
                  tol: float = DEFAULT_TOL, checkpoints=None) -> TrajectorySet:
    """Integrate dw/ds = -G(w, s) backward from w(t) = seed down to s = 0.

    Internally runs forward in sigma = t - s.  The result is indexed by s
    ascending, so ``at(s)`` reads omega_{s,t}(seed).
    """
    if t < 0:
        raise ValueError(f"t = {t} < 0")

    def segment_rhs(a_sig, b_sig):
        pair = field.segment_rhs(t - b_sig, t - a_sig)
        return lambda w, sig: pair(w, t - sig)

    return _solve(segment_rhs, 0.0, t, seeds, tol, tol, checkpoints,
                  [t - b for b in field.stops], reverse=True)


# ---------------------------------------------------------------------------
# verification operations


@dataclass
class SemigroupReport:
    residual: float


def verify_semigroup(field: VectorFieldHandle, s: float, u: float, t: float,
                     seeds, tol: float = DEFAULT_TOL) -> SemigroupReport:
    """max |phi_{s,t}(z) - phi_{u,t}(phi_{s,u}(z))| by independent integrations."""
    if not s <= u <= t:
        raise ValueError("need s <= u <= t")
    direct = solve_forward(field, s, t, seeds, tol=tol)
    first = solve_forward(field, s, u, seeds, tol=tol)
    mid = first.at(u)
    ok = first.live() & np.isfinite(mid)
    second = solve_forward(field, u, t, np.where(ok, mid, 0.0), tol=tol)
    ok &= second.live()
    composed = second.at(t)
    res = np.abs(direct.at(t) - composed)
    ok &= direct.live() & np.isfinite(res)
    return SemigroupReport(float(res[ok].max()) if ok.any() else np.nan)


@dataclass
class SchwarzPickReport:
    worst_violation: float
    passed: bool


def schwarz_pick_check(traj: TrajectorySet, pairs=None, tol_hyp: float = 1e-9) -> SchwarzPickReport:
    """Hyperbolic contraction of the flow: d(phi(z1), phi(z2)) <= d(z1, z2)."""
    n = traj.seeds.size
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            pairs.append((0, n - 1))
    live = traj.live()
    pairs = [(i, j) for i, j in pairs if live[i] and live[j]]
    if not pairs:
        return SchwarzPickReport(np.nan, False)
    worst = -np.inf
    for i, j in pairs:
        d0 = hyperbolic_distance(traj.seeds[i], traj.seeds[j])
        dt = hyperbolic_distance(traj.values[:, i], traj.values[:, j])
        worst = max(worst, float(np.nanmax(dt - d0)))
    return SchwarzPickReport(worst, worst <= tol_hyp)


@dataclass
class OriginDerivativeTrace:
    times: np.ndarray
    dphi: np.ndarray
    quadrature: np.ndarray | None


def _cumulative_simpson_p0(field: VectorFieldHandle, times: np.ndarray) -> np.ndarray:
    """Cumulative integral of p(0, u) along the time grid, composite Simpson."""
    spans = [(float(a), float(b), max(2, int(np.ceil((b - a) * _PANELS_PER_UNIT / 2)) * 2))
             for a, b in zip(times[:-1], times[1:])]
    xs = np.concatenate([np.linspace(a, b, m + 1) for a, b, m in spans] + [np.zeros(0)])
    ys = field.p.evaluate(np.zeros(xs.size, dtype=complex), xs)
    out = np.zeros(times.size, dtype=complex)
    total, start = 0.0 + 0.0j, 0
    for i, (a, b, m) in enumerate(spans):
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (b - a) / (3.0 * m) * np.sum(w * ys[start:start + m + 1])
        start += m + 1
        out[i + 1] = total
    return out


def derivative_at_origin(field: VectorFieldHandle, t_end: float, tol: float = DEFAULT_TOL,
                         checkpoints=None) -> OriginDerivativeTrace:
    """Trace of phi'_{0,t}(0) from the variational equation.

    For tau identically 0 the identity phi'_{0,t}(0) = exp(-int_0^t p(0,u) du)
    holds, and the quadrature side is returned for cross-checking.
    """
    traj = solve_forward(field, 0.0, t_end, np.zeros(1, dtype=complex),
                         tol=tol, checkpoints=checkpoints)
    quad = None
    if field.tau.is_constant(0.0):
        quad = np.exp(-_cumulative_simpson_p0(field, traj.times))
    return OriginDerivativeTrace(traj.times, traj.derivs[:, 0], quad)
