"""Step-function approximation of Denjoy-Wolff data and convergence studies.

Replacing tau by a step function tau_n changes the vector field by at most

    |G - G_n| <= 4 |tau - tau_n| |p|,

an algebraic inequality that holds sample by sample, not just in the
limit.  Weak convergence of the fields then forces locally uniform
convergence of evolution families and of the range-normalized chains;
this module realizes those statements as measurable experiments with a
Gronwall envelope certifying each error level.  A level-n approximant is
itself a Denjoy-Wolff spec: n step cells on [0, horizon) that follow the
target exactly past the horizon.  ``convergence_table`` is the one level
loop: it builds the exact-tau references once, then each approximant once,
and measures the field deviation, the evolution-family error and the
chain difference of that level against them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .grids import SeedGrid, criteria_grid
from .herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field, time_samples, field_value
from .evolution import DEFAULT_TOL, solve_forward
from .chains import DEFAULT_T_INF, DEFAULT_TOL_LIMIT, limit_frame

DEVIATION_TOL = 1e-12
_LEVEL_PANELS = 1024        # trapezoid panels of a level's envelope in convergence_table


def step_approximate(tau: DenjoyWolffSpec, n: int,
                     horizon: float) -> tuple[DenjoyWolffSpec, float]:
    """Level-n approximant of tau and its deviation sup |tau - tau_n| on [0, horizon).

    tau_n samples tau at the midpoints of the uniform n-cell partition of
    [0, horizon) and follows tau exactly past the horizon (see
    ``DenjoyWolffSpec.step_with_tail``): a frozen tail would separate the
    range-normalized chains by an n-independent amount and hide the
    convergence under study.  The deviation is measured on a 16n-point
    probe grid.
    """
    if n < 1 or horizon <= 0:
        raise ValueError("need n >= 1 and horizon > 0")
    width = horizon / n
    mids = (np.arange(n) + 0.5) * width
    values = tau.value(mids)
    breakpoints = np.arange(1, n) * width
    tau_n = DenjoyWolffSpec.step_with_tail(breakpoints, values, horizon, tau)
    probes = np.linspace(0.0, horizon, 16 * n, endpoint=False)
    return tau_n, float(np.abs(tau.value(probes) - tau_n.value(probes)).max())


@dataclass
class DeviationReport:
    max_measured: float
    max_bound: float
    worst_ratio: float
    n_samples: int
    n_violations: int
    passed: bool


def _deviation_arrays(z, tau_v, tau_n_v, p_v):
    measured = np.abs(field_value(z, tau_v, p_v) - field_value(z, tau_n_v, p_v))
    bound = 4.0 * np.abs(tau_v - tau_n_v) * np.abs(p_v)
    return measured, bound


def _deviation_report(measured, bound) -> DeviationReport:
    bad = measured > bound + DEVIATION_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, measured / bound, 0.0)
    return DeviationReport(float(measured.max()), float(bound.max()),
                           float(np.nanmax(ratios)), measured.size,
                           int(np.count_nonzero(bad)), not bad.any())


def field_deviation(p: HerglotzSpec, tau: DenjoyWolffSpec, tau_n, grid, times) -> DeviationReport:
    """Measured |G - G_n| against the 4 |tau - tau_n| |p| bound, per sample.

    The inequality is exact algebra, so a report with violations beyond
    rounding (``passed`` false) can only mean an implementation bug.
    """
    z, t = time_samples(grid, times)
    return _deviation_report(*_deviation_arrays(z, tau.value(t), tau_n.value(t),
                                                p.evaluate(z, t)))


def random_deviation_check(n_samples: int, seed: int) -> DeviationReport:
    """Randomized trial of the deviation inequality on raw (z, tau, tau_n, p) draws."""
    rng = np.random.default_rng(seed)

    def disk(n, rmax):
        r = rmax * np.sqrt(rng.uniform(size=n))
        a = rng.uniform(0, 2 * np.pi, size=n)
        return r * np.exp(1j * a)

    z = disk(n_samples, 0.999)
    tau_v = disk(n_samples, 1.0)
    tau_n_v = disk(n_samples, 1.0)
    p_v = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    return _deviation_report(*_deviation_arrays(z, tau_v, tau_n_v, p_v))


# ---------------------------------------------------------------------------
# Gronwall envelope


def gronwall_envelope(xs, hs, gs, nodes) -> np.ndarray:
    """Evaluate h(t) + int_xs[0]^t g(s) h(s) exp(int_s^t g(u) du) ds at the nodes.

    hs and gs sample h and g at the ascending xs; composite trapezoid
    quadrature on the panels between them.
    """
    if np.any(gs < 0) or np.any(hs < -1e-12):
        raise ValueError("gronwall data must be nonnegative")
    dx = np.diff(xs)
    gi = np.concatenate([[0.0], np.cumsum(0.5 * (gs[1:] + gs[:-1]) * dx)])
    out = np.empty(len(nodes))
    for j, t in enumerate(nodes):
        i = int(np.searchsorted(xs, t + 1e-15))
        if i == 0:
            out[j] = hs[0]
            continue
        sub = slice(0, i + 1 if i < xs.size else xs.size)
        x_s, h_s, g_s, gi_s = xs[sub], hs[sub], gs[sub], gi[sub]
        gi_t = np.interp(t, xs, gi)
        h_t = np.interp(t, xs, hs)
        integrand = g_s * h_s * np.exp(gi_t - gi_s)
        w = np.diff(np.minimum(x_s, t))        # clip the last panel at t
        out[j] = h_t + float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * w))
    return out


# ---------------------------------------------------------------------------
# convergence experiments


@dataclass
class LevelRow:
    n: int
    deviation: float
    ef_error: float
    chain_error: float
    envelope: float
    runtime_ms: float


@dataclass
class ConvergenceTable:
    rows: list[LevelRow]
    fitted_order: float
    ef_strictly_decreasing: bool
    chain_strictly_decreasing: bool
    deviation_grid_passed: bool
    under_envelope: bool
    warnings: list[str] = field(default_factory=list)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


def _fit_order(devs, errs):
    devs, errs = np.asarray(devs, float), np.asarray(errs, float)
    ok = (devs > 0) & (errs > 0)
    if np.count_nonzero(ok) < 2:
        return np.nan
    return float(np.polyfit(np.log(devs[ok]), np.log(errs[ok]), 1)[0])


def _level_envelope(field_exact, tau, tau_n, t_end, r_compact) -> float:
    """Gronwall envelope at t_end of a level, on the ring |z| = r_compact."""
    xs = np.linspace(0.0, t_end, _LEVEL_PANELS + 1)
    z, t = time_samples(r_compact * np.exp(2j * np.pi * np.arange(32) / 32), xs)
    sup_p = np.abs(field_exact.p.evaluate(z, t)).max(axis=1)
    integrand = 4.0 * np.abs(tau.value(xs) - tau_n.value(xs)) * sup_p
    hs = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xs))])
    gs = np.abs(field_exact.pair(z, t)[1]).max(axis=1)
    return float(gronwall_envelope(xs, hs, gs, np.array([t_end]))[0])


def convergence_table(p: HerglotzSpec, tau: DenjoyWolffSpec, levels, grid: SeedGrid,
                      checkpoints, tol: float = DEFAULT_TOL, horizon: float | None = None,
                      t_inf: float = DEFAULT_T_INF,
                      tol_limit: float = DEFAULT_TOL_LIMIT) -> ConvergenceTable:
    """Per-level errors of the step approximants against exact-tau references.

    The references integrate the exact tau, never the finest approximant,
    so the columns have no self-referential floor.  Each level builds its
    approximant once and measures the field deviation inequality on the
    criteria grid, the evolution-family sup error at 9 uniform times on
    [0, checkpoints[-1]] with its Gronwall envelope (integrated field
    deviation, numeric Lipschitz bound on an enclosing compact), and the
    chain sup difference on the seed grid at the checkpoints, each chain one
    ``limit_frame`` evaluation of exactly those points.
    """
    cps = np.asarray(checkpoints, dtype=float)
    t_end = float(cps[-1])
    horizon = horizon if horizon is not None else max(t_end, 4.0)
    ef_times = np.linspace(0.0, t_end, 9)
    dev_grid = criteria_grid(n_angles=32)

    def measure(fld):
        return (solve_forward(fld, 0.0, t_end, grid, tol=tol, checkpoints=ef_times),
                limit_frame(fld, np.repeat(cps, len(grid)), np.tile(grid.points, cps.size),
                            tol, t_inf, tol_limit))

    exact = assemble_field(p, tau)
    ef_ref, chain_ref = measure(exact)
    ref_max = float(np.nanmax(np.abs(ef_ref.values)))

    rows = []
    warnings = []
    deviation_passed = True
    for n in levels:
        t0 = time.perf_counter()
        tau_n, dev = step_approximate(tau, int(n), horizon)
        rep = field_deviation(p, tau, tau_n, dev_grid, ef_times)
        if not rep.passed:
            deviation_passed = False
            warnings.append(
                f"level {n}: deviation bound violated at {rep.n_violations} of "
                f"{rep.n_samples} samples (worst ratio {rep.worst_ratio:.3g}); the "
                "inequality is exact algebra, so the field assembly is broken")
        traj, fr = measure(assemble_field(p, tau_n))
        live = ef_ref.live() & traj.live()
        if not live.all():
            warnings.append(f"level {n}: {int(np.count_nonzero(~live))} truncated seeds excluded")
        ef_err = float(np.nanmax(np.abs(traj.values[:, live] - ef_ref.values[:, live])))
        r_compact = min(0.999, max(ref_max, float(np.nanmax(np.abs(traj.values)))) + 0.05)
        env = _level_envelope(exact, tau, tau_n, t_end, r_compact)
        ok = chain_ref.valid & fr.valid
        chain_err = np.nan
        if not ok.any():
            warnings.append(f"level {n}: no valid grid points, level excluded")
        else:
            chain_err = float(np.nanmax(np.abs(np.where(ok, fr.values - chain_ref.values, 0.0))))
            # the differences must dominate the noise floor of the chain
            # evaluation (limit or quadrature) and of the integration, which
            # gets the same 10 tol relative margin as the ef column; otherwise
            # the level says nothing about chain convergence
            f_max = float(np.abs(np.where(ok, chain_ref.values, 0.0)).max())
            noise = 10.0 * (chain_ref.acc_delta + fr.acc_delta) + 10.0 * tol * f_max
            if chain_err <= noise:
                warnings.append(
                    f"level {n}: chain difference {chain_err:.3g} at the noise floor "
                    f"{noise:.3g}, level excluded")
                chain_err = np.nan
        rows.append(LevelRow(int(n), dev, ef_err, chain_err, env,
                             (time.perf_counter() - t0) * 1e3))

    ef_errs = [r.ef_error for r in rows]
    ef_decreasing = all(b < a for a, b in zip(ef_errs, ef_errs[1:]))
    if not ef_decreasing:
        warnings.append("ef error column is not strictly decreasing")
    # the envelope bounds the exact-arithmetic difference; measured errors sit
    # on an integrator noise floor the bound cannot see
    over = [r.n for r in rows if not (r.ef_error <= r.envelope + 10.0 * tol)]
    if over:
        warnings.append(f"levels {over} exceed their gronwall envelope")
    chain_errs = [r.chain_error for r in rows if np.isfinite(r.chain_error)]
    chain_decreasing = (len(chain_errs) == len(rows)
                        and all(b < a for a, b in zip(chain_errs, chain_errs[1:])))
    if not chain_decreasing:
        warnings.append("chain error column is not strictly decreasing")
    return ConvergenceTable(rows, _fit_order([r.deviation for r in rows], ef_errs),
                            ef_decreasing, chain_decreasing, deviation_passed,
                            not over, warnings)
