"""Adaptive integration of the forward and reverse evolution-family ODEs.

The forward family solves

    d phi / dt = G(phi, t),   phi(s) = z,

the reverse family solves dw/ds = -G(w, s) backward from w(t) = z.  Both
carry the variational derivative d/dz alongside, so first derivatives of
the flow never come from finite-differencing trajectories.

The stepper is an embedded Dormand-Prince 5(4) pair with a shared
adaptive step across all seeds of a batch (the error norm maxes over
live seeds, so each seed still meets the tolerance), step boundaries
aligned to the Denjoy-Wolff discontinuity set, and honest truncation
when a trajectory reaches the boundary guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import DELTA_GUARD, SeedGrid, hyperbolic_distance
from .herglotz import VectorFieldHandle

# Dormand-Prince 5(4) tableau (complex dtype keeps the stage products in BLAS).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = tuple(np.array(row, dtype=complex) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# fifth-order minus embedded fourth-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
              dtype=complex)

_H_MIN_FACTOR = 1e-13


class IntegrationError(RuntimeError):
    pass


@dataclass
class TrajectorySet:
    """Discretized evolution (or reverse evolution) family on a seed batch.

    values/derivs have shape [n_times, n_seeds].  For direction "forward"
    the rows run over t >= s and the seeds sit in row 0; for "reverse" the
    rows run over s in [0, t] ascending and the seeds sit in the last row.
    Truncated seeds hold NaN at every stored time past their truncation.
    """

    direction: str
    start: float
    times: np.ndarray
    seeds: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    truncated: np.ndarray
    truncation_time: np.ndarray
    steps_accepted: np.ndarray
    steps_rejected: int
    tol: float
    labels: list | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def seed_row(self) -> int:
        return 0 if self.direction == "forward" else len(self.times) - 1

    def row(self, time: float) -> int:
        i = int(np.argmin(np.abs(self.times - time)))
        if abs(self.times[i] - time) > 1e-10 * max(1.0, abs(time)):
            raise KeyError(f"time {time} not stored (nearest {self.times[i]})")
        return i

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


def _drive(segment_rhs: Callable, t0: float, t1: float, seeds: np.ndarray,
           rtol: float, atol: float, record_times: np.ndarray,
           breakpoints, hmax: float, guard: float):
    """March the augmented system from t0 to t1, recording at record_times.

    segment_rhs(a, b) must return an evaluator pair(z, t) -> (G, dG/dz)
    valid on [a, b]; segments never straddle a breakpoint.  Returns
    per-seed outputs in the original seed order.
    """
    n = seeds.size
    rec = np.asarray(record_times, dtype=float)
    values = np.full((rec.size, n), np.nan + 0j, dtype=complex)
    derivs = np.full((rec.size, n), np.nan + 0j, dtype=complex)
    truncated = np.zeros(n, dtype=bool)
    trunc_time = np.full(n, np.nan)
    steps = np.zeros(n, dtype=np.int64)
    rejected = 0
    warnings: list[str] = []

    stops = np.unique(np.concatenate(
        [rec, [t0, t1], [b for b in breakpoints if t0 < b < t1]]))
    stops = stops[(stops >= t0 - 1e-15) & (stops <= t1 + 1e-15)]
    rec_lookup = {}
    for i, tr in enumerate(rec):
        rec_lookup[int(np.argmin(np.abs(stops - tr)))] = i

    active = np.arange(n)
    y = np.empty((2, n), dtype=complex)
    y[0] = seeds
    y[1] = 1.0

    def record(stop_idx, t_now):
        i = rec_lookup.get(stop_idx)
        if i is None:
            return
        values[i, active] = y[0]
        derivs[i, active] = y[1]

    record(0, stops[0])
    h = min(hmax, max(stops[-1] - stops[0], 1e-12) * 0.05, 0.1)

    for si in range(len(stops) - 1):
        a, b = float(stops[si]), float(stops[si + 1])
        if active.size == 0:
            continue
        pair_fn = segment_rhs(a, b)
        t = a
        h = min(h, b - a)
        k1 = _rhs(pair_fn, t, y)
        K = np.empty((7,) + y.shape, dtype=complex)
        Kf = K.reshape(7, -1)
        while t < b - 1e-14 * max(1.0, abs(b)):
            if active.size == 0:
                break
            h = min(h, b - t)
            if h < _H_MIN_FACTOR * max(1.0, abs(t)):
                warnings.append(f"step size underflow at t = {t}; live seeds truncated")
                truncated[active] = True
                trunc_time[active] = t
                active = np.empty(0, dtype=int)
                break
            if K.shape[1:] != y.shape:
                K = np.empty((7,) + y.shape, dtype=complex)
                Kf = K.reshape(7, -1)
            K[0] = k1
            for stage in range(1, 7):
                acc = (_A[stage] @ Kf[:stage]).reshape(y.shape)
                K[stage] = _rhs(pair_fn, t + _C[stage] * h, y + h * acc)
            y_new = y + h * (_A[6] @ Kf[:6]).reshape(y.shape)
            # stage 7 is evaluated at y_new (FSAL)
            K[6] = _rhs(pair_fn, t + h, y_new)
            err_vec = h * (_E @ Kf).reshape(y.shape)
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
                k1 = K[6]
                steps[active] += 1
                hit = abs_new[0] >= 1.0 - guard
                if hit.any():
                    gone = active[hit]
                    truncated[gone] = True
                    trunc_time[gone] = t
                    keep = ~hit
                    active = active[keep]
                    y = y[:, keep]
                    k1 = k1[:, keep]
                factor = 5.0 if errmax == 0.0 else min(5.0, max(0.2, 0.9 * errmax ** -0.2))
                h = min(hmax, h * factor)
            else:
                rejected += 1
                h = h * (0.2 if not np.isfinite(errmax) else max(0.2, 0.9 * errmax ** -0.2))
        record(si + 1, b)

    return values, derivs, truncated, trunc_time, steps, rejected, warnings


def _as_seed_array(seeds):
    if isinstance(seeds, SeedGrid):
        return seeds.points.copy(), seeds.labels
    return np.atleast_1d(np.asarray(seeds, dtype=complex)), None


def solve_forward(field: VectorFieldHandle, s: float, t_end: float, seeds,
                  tol: float = 1e-9, checkpoints=None, hmax: float = 4.0,
                  guard: float = DELTA_GUARD, atol: float | None = None) -> TrajectorySet:
    """Integrate d phi/dt = G(phi, t) from t = s to t_end for every seed.

    By default the controller uses rtol = atol = tol.  The chain limits pass
    an explicit near-zero atol: they divide exponentially small quantities,
    so the error control must stay relative all the way down.
    """
    if t_end < s:
        raise ValueError(f"t_end = {t_end} < s = {s}")
    pts, labels = _as_seed_array(seeds)
    if np.any(np.abs(pts) >= 1.0 - guard + 1e-15):
        raise ValueError("seed modulus reaches the boundary guard")
    rec = np.unique(np.concatenate(
        [[s, t_end], np.asarray(checkpoints if checkpoints is not None else [], dtype=float)]))
    if rec[0] < s - 1e-12 or rec[-1] > t_end + 1e-12:
        raise ValueError("checkpoints outside [s, t_end]")

    values, derivs, truncated, ttime, steps, rej, warn = _drive(
        field.segment_rhs, s, t_end, pts, tol, tol if atol is None else atol, rec,
        field.discontinuities, hmax, guard)
    values[0] = pts          # EF1 exactly
    derivs[0] = 1.0
    return TrajectorySet("forward", s, rec, pts, values, derivs, truncated,
                         ttime, steps, rej, tol, labels, warn)


def solve_reverse(field: VectorFieldHandle, t: float, seeds,
                  tol: float = 1e-9, checkpoints=None, hmax: float = 4.0,
                  guard: float = DELTA_GUARD) -> TrajectorySet:
    """Integrate dw/ds = -G(w, s) backward from w(t) = seed down to s = 0.

    Internally runs forward in sigma = t - s.  The result is indexed by s
    ascending, so ``at(s)`` reads omega_{s,t}(seed).
    """
    if t < 0:
        raise ValueError(f"t = {t} < 0")
    pts, labels = _as_seed_array(seeds)
    if np.any(np.abs(pts) >= 1.0 - guard + 1e-15):
        raise ValueError("seed modulus reaches the boundary guard")
    rec_s = np.unique(np.concatenate(
        [[0.0, t], np.asarray(checkpoints if checkpoints is not None else [], dtype=float)]))
    if rec_s[0] < -1e-12 or rec_s[-1] > t + 1e-12:
        raise ValueError("checkpoints outside [0, t]")

    def segment_rhs(a_sig, b_sig):
        pair = field.segment_rhs(t - b_sig, t - a_sig)
        return lambda w, sig: pair(w, t - sig)

    rec_sigma = np.sort(t - rec_s)
    bps = [t - b for b in field.discontinuities]
    values, derivs, truncated, ttime_sig, steps, rej, warn = _drive(
        segment_rhs, 0.0, t, pts, tol, tol, rec_sigma, bps, hmax, guard)

    # re-index ascending in s = t - sigma
    values = values[::-1].copy()
    derivs = derivs[::-1].copy()
    values[-1] = pts         # REF1 exactly at s = t
    derivs[-1] = 1.0
    ttime = t - ttime_sig
    return TrajectorySet("reverse", t, rec_s, pts, values, derivs, truncated,
                         ttime, steps, rej, tol, labels, warn)


# ---------------------------------------------------------------------------
# verification operations


@dataclass
class SemigroupReport:
    residual: float
    per_seed: np.ndarray
    excluded: int
    s: float
    u: float
    t: float


def verify_semigroup(field: VectorFieldHandle, s: float, u: float, t: float,
                     seeds, tol: float = 1e-9) -> SemigroupReport:
    """max |phi_{s,t}(z) - phi_{u,t}(phi_{s,u}(z))| by independent integrations."""
    if not s <= u <= t:
        raise ValueError("need s <= u <= t")
    pts, _ = _as_seed_array(seeds)
    direct = solve_forward(field, s, t, pts, tol=tol)
    first = solve_forward(field, s, u, pts, tol=tol)
    mid = first.at(u)
    ok = first.live() & np.isfinite(mid)
    second = solve_forward(field, u, t, np.where(ok, mid, 0.0), tol=tol)
    ok &= second.live()
    composed = second.at(t)
    res = np.abs(direct.at(t) - composed)
    ok &= direct.live() & np.isfinite(res)
    per_seed = np.where(ok, res, np.nan)
    residual = float(np.nanmax(per_seed)) if ok.any() else np.nan
    return SemigroupReport(residual, per_seed, int(np.count_nonzero(~ok)), s, u, t)


@dataclass
class SchwarzPickReport:
    worst_violation: float
    passed: bool
    n_pairs: int
    excluded: int


def schwarz_pick_check(traj: TrajectorySet, pairs=None, tol_hyp: float = 1e-9) -> SchwarzPickReport:
    """Hyperbolic contraction of the flow: d(phi(z1), phi(z2)) <= d(z1, z2)."""
    n = traj.seeds.size
    if pairs is None:
        pairs = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            pairs.append((0, n - 1))
    live = traj.live()
    worst = -np.inf
    used = 0
    excluded = 0
    for i, j in pairs:
        if not (live[i] and live[j]):
            excluded += 1
            continue
        used += 1
        d0 = hyperbolic_distance(traj.seeds[i], traj.seeds[j])
        dt = hyperbolic_distance(traj.values[:, i], traj.values[:, j])
        worst = max(worst, float(np.nanmax(dt - d0)))
    if used == 0:
        return SchwarzPickReport(np.nan, False, 0, excluded)
    return SchwarzPickReport(worst, worst <= tol_hyp, used, excluded)


@dataclass
class OriginDerivativeTrace:
    times: np.ndarray
    dphi: np.ndarray
    quadrature: np.ndarray | None


def _cumulative_simpson_p0(field: VectorFieldHandle, times: np.ndarray,
                           panels_per_unit: int = 128) -> np.ndarray:
    """Cumulative integral of p(0, u) along the time grid, composite Simpson."""
    out = np.zeros(times.size, dtype=complex)
    total = 0.0 + 0.0j
    z0 = np.zeros(1, dtype=complex)
    for i in range(times.size - 1):
        a, b = float(times[i]), float(times[i + 1])
        m = max(2, int(np.ceil((b - a) * panels_per_unit / 2)) * 2)
        xs = np.linspace(a, b, m + 1)
        ys = np.array([field.p.evaluate(z0, float(x))[0] for x in xs])
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (b - a) / (3.0 * m) * np.sum(w * ys)
        out[i + 1] = total
    return out


def derivative_at_origin(field: VectorFieldHandle, t_end: float, tol: float = 1e-9,
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
