"""Step-function approximation of Denjoy-Wolff data and convergence studies.

Replacing tau by a step function tau_n changes the vector field by at most

    |G - G_n| <= 4 |tau - tau_n| |p|,

an algebraic inequality that holds sample by sample, not just in the
limit.  Weak convergence of the fields then forces locally uniform
convergence of evolution families and of the range-normalized chains;
this module realizes those statements as measurable experiments with a
Gronwall envelope certifying each error level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .grids import SeedGrid
from .herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field, _field_pair
from .evolution import solve_forward
from .chains import range_normalized_chain

DEVIATION_TOL = 1e-12


@dataclass
class StepApproximant:
    """Midpoint-sampled step function on the uniform n-cell partition of [0, T]."""

    level: int
    horizon: float
    breakpoints: np.ndarray
    values: np.ndarray
    deviation: float

    def to_spec(self, tail: DenjoyWolffSpec | None = None) -> DenjoyWolffSpec:
        """As a Denjoy-Wolff spec; constant extension beyond the horizon.

        With ``tail`` the spec follows the given data exactly past the
        horizon instead, which is what the chain experiments need: a frozen
        tail would separate the range-normalized chains by an n-independent
        amount and hide the convergence under study.
        """
        if tail is None:
            return DenjoyWolffSpec.step(list(self.breakpoints), list(self.values))
        return DenjoyWolffSpec.step_with_tail(list(self.breakpoints), list(self.values),
                                              self.horizon, tail.value)

    def value(self, t):
        idx = np.searchsorted(self.breakpoints, t, side="right")
        return self.values[idx]


def step_approximate(tau: DenjoyWolffSpec, n: int, horizon: float) -> StepApproximant:
    """Level-n approximant; deviation measured on a 16n-point probe grid."""
    if n < 1 or horizon <= 0:
        raise ValueError("need n >= 1 and horizon > 0")
    width = horizon / n
    mids = (np.arange(n) + 0.5) * width
    values = np.array([complex(tau.value(float(t))) for t in mids])
    breakpoints = np.arange(1, n) * width
    probes = np.linspace(0.0, horizon, 16 * n, endpoint=False)
    idx = np.minimum((probes / width).astype(int), n - 1)
    dev = max(abs(complex(tau.value(float(t))) - values[i]) for t, i in zip(probes, idx))
    return StepApproximant(n, horizon, breakpoints, values, float(dev))


@dataclass
class DeviationReport:
    max_measured: float
    max_bound: float
    worst_ratio: float
    n_samples: int
    n_violations: int
    passed: bool


def _deviation_arrays(z, tau_v, tau_n_v, p_v):
    g = _field_pair(z, tau_v, p_v, 0.0)[0]
    g_n = _field_pair(z, tau_n_v, p_v, 0.0)[0]
    measured = np.abs(g - g_n)
    bound = 4.0 * np.abs(tau_v - tau_n_v) * np.abs(p_v)
    return measured, bound


def field_deviation(p: HerglotzSpec, tau: DenjoyWolffSpec, tau_n, grid, times) -> DeviationReport:
    """Measured |G - G_n| against the 4 |tau - tau_n| |p| bound, per sample.

    The inequality is exact algebra; a violation beyond rounding is fatal
    because it can only mean an implementation bug.
    """
    if isinstance(tau_n, StepApproximant):
        tau_n = tau_n.to_spec()
    grid = np.asarray(grid, dtype=complex)
    times = np.asarray(times, dtype=float)
    max_m = max_b = worst = 0.0
    violations = 0
    for t in times:
        tv = complex(tau.value(float(t)))
        tnv = complex(tau_n.value(float(t)))
        pv = p.evaluate(grid, float(t))
        measured, bound = _deviation_arrays(grid, tv, tnv, pv)
        bad = measured > bound + DEVIATION_TOL
        violations += int(np.count_nonzero(bad))
        max_m = max(max_m, float(measured.max()))
        max_b = max(max_b, float(bound.max()))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(bound > 0, measured / bound, 0.0)
        worst = max(worst, float(np.nanmax(r)))
    if violations:
        raise RuntimeError(
            f"deviation bound violated at {violations} samples; this inequality "
            "is exact algebra, so the field assembly is broken")
    return DeviationReport(max_m, max_b, worst, grid.size * times.size, 0, True)


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
    measured, bound = _deviation_arrays(z, tau_v, tau_n_v, p_v)
    bad = measured > bound + DEVIATION_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, measured / bound, 0.0)
    return DeviationReport(float(measured.max()), float(bound.max()),
                           float(np.nanmax(ratios)), n_samples,
                           int(np.count_nonzero(bad)), not bad.any())


# ---------------------------------------------------------------------------
# Gronwall envelope


def gronwall_envelope(h, g, t0: float, t1: float, nodes, n_fine: int = 4096) -> np.ndarray:
    """Evaluate h(t) + int_t0^t g(s) h(s) exp(int_s^t g(u) du) ds at the nodes.

    h and g are callables on [t0, t1]; composite trapezoid quadrature on a
    uniform fine grid.
    """
    xs = np.linspace(t0, t1, n_fine + 1)
    hs = np.array([float(h(x)) for x in xs])
    gs = np.array([float(g(x)) for x in xs])
    return _gronwall_from_samples(xs, hs, gs, np.asarray(nodes, dtype=float))


def _gronwall_from_samples(xs, hs, gs, nodes):
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
        # clip the last panel at t
        if x_s[-1] > t:
            w = np.diff(np.minimum(x_s, t))
        else:
            w = np.diff(x_s)
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
    strictly_decreasing: bool
    reference: str
    warnings: list[str] = field(default_factory=list)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


def _fit_order(devs, errs):
    devs, errs = np.asarray(devs, float), np.asarray(errs, float)
    ok = (devs > 0) & (errs > 0)
    if np.count_nonzero(ok) < 2:
        return np.nan
    return float(np.polyfit(np.log(devs[ok]), np.log(errs[ok]), 1)[0])


def _envelope_inputs(field_exact, tau, approximant, s, t_end, r_compact, n_fine=1024):
    xs = np.linspace(s, t_end, n_fine + 1)
    ring = r_compact * np.exp(2j * np.pi * np.arange(32) / 32)
    dev = np.array([abs(complex(tau.value(float(x))) - complex(approximant.value(float(x))))
                    for x in xs])
    sup_p = np.array([float(np.abs(field_exact.p.evaluate(ring, float(x))).max()) for x in xs])
    integrand = 4.0 * dev * sup_p
    hs = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xs))])
    gs = np.array([float(np.abs(field_exact.pair(ring, float(x))[1]).max()) for x in xs])
    return xs, hs, gs


def ef_convergence(p: HerglotzSpec, tau: DenjoyWolffSpec, levels, seeds,
                   s: float, t_end: float, tol: float = 1e-9,
                   horizon: float | None = None, checkpoints=None) -> ConvergenceTable:
    """Per-level sup error of the approximated evolution families.

    The reference is a direct integration with the exact tau evaluator,
    never the finest approximant, so the error columns have no
    self-referential floor.  Each row also carries the Gronwall envelope
    built from the integrated field deviation and a numeric Lipschitz
    bound on an enclosing compact; every measured error must sit below it.
    """
    pts = seeds.points if isinstance(seeds, SeedGrid) else np.asarray(seeds, dtype=complex)
    horizon = horizon if horizon is not None else max(t_end, 4.0)
    cps = np.asarray(checkpoints if checkpoints is not None else
                     np.linspace(s, t_end, 9), dtype=float)
    exact = assemble_field(p, tau)
    ref = solve_forward(exact, s, t_end, pts, tol=tol, checkpoints=cps)
    r_compact = min(0.999, float(np.nanmax(np.abs(ref.values))) + 0.05)

    rows = []
    warnings = []
    for n in levels:
        t0 = time.perf_counter()
        ap = step_approximate(tau, int(n), horizon)
        fld = assemble_field(p, ap.to_spec())
        traj = solve_forward(fld, s, t_end, pts, tol=tol, checkpoints=cps)
        ok = ref.live() & traj.live()
        if not ok.all():
            warnings.append(f"level {n}: {int(np.count_nonzero(~ok))} truncated seeds excluded")
        err = float(np.nanmax(np.abs(traj.values[:, ok] - ref.values[:, ok])))
        r_level = min(0.999, float(np.nanmax(np.abs(traj.values))) + 0.05)
        xs, hs, gs = _envelope_inputs(exact, tau, ap, s, t_end, max(r_compact, r_level))
        env = float(_gronwall_from_samples(xs, hs, gs, np.array([t_end]))[0])
        rows.append(LevelRow(int(n), ap.deviation, err, np.nan, env,
                             (time.perf_counter() - t0) * 1e3))

    errs = [r.ef_error for r in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    if not decreasing:
        warnings.append("ef error column is not strictly decreasing")
    # the envelope bounds the exact-arithmetic difference; measured errors sit
    # on an integrator noise floor the bound cannot see
    over = [r.n for r in rows if not (r.ef_error <= r.envelope + 10.0 * tol)]
    if over:
        warnings.append(f"levels {over} exceed their gronwall envelope")
    return ConvergenceTable(rows, _fit_order([r.deviation for r in rows], errs),
                            decreasing, "exact-tau integration", warnings)


def chain_convergence(p: HerglotzSpec, tau: DenjoyWolffSpec, levels, grid: SeedGrid,
                      checkpoints, tol: float = 1e-9, horizon: float | None = None,
                      n_theta: int = 64, t_inf: float = 256.0,
                      tol_limit: float = 1e-8) -> ConvergenceTable:
    """Per-level sup difference of range-normalized chains at shared checkpoints.

    The default horizon is deeper than elsewhere: measurable tau data with a
    boundary limit point converge slowly in the scaling limit, and the
    level differences must dominate the limit-evaluation noise.
    """
    cps = np.asarray(checkpoints, dtype=float)
    horizon = horizon if horizon is not None else max(float(cps[-1]), 4.0)
    exact = assemble_field(p, tau)
    ref = range_normalized_chain(exact, cps, grid, n_theta=n_theta, tol=tol,
                                 t_inf=t_inf, tol_limit=tol_limit)
    ref_noise = float(np.nanmax(ref.acc_delta))
    rows = []
    warnings = []
    for n in levels:
        t0 = time.perf_counter()
        ap = step_approximate(tau, int(n), horizon)
        fld = assemble_field(p, ap.to_spec(tail=tau))
        fr = range_normalized_chain(fld, cps, grid, n_theta=n_theta, tol=tol,
                                    t_inf=t_inf, tol_limit=tol_limit)
        ok = ref.grid_valid & fr.grid_valid
        if not ok.any():
            warnings.append(f"level {n}: no valid grid points, level excluded")
            rows.append(LevelRow(int(n), ap.deviation, np.nan, np.nan, np.nan,
                                 (time.perf_counter() - t0) * 1e3))
            continue
        err = float(np.nanmax(np.abs(np.where(ok, fr.values - ref.values, 0.0))))
        # the differences must dominate the limit-evaluation noise floor,
        # otherwise the level says nothing about chain convergence
        noise = ref_noise + float(np.nanmax(fr.acc_delta))
        if err <= 10.0 * noise:
            warnings.append(
                f"level {n}: chain difference {err:.3g} at the limit noise floor "
                f"{noise:.3g}, level excluded")
            err = np.nan
        rows.append(LevelRow(int(n), ap.deviation, np.nan, err, np.nan,
                             (time.perf_counter() - t0) * 1e3))

    errs = [r.chain_error for r in rows if np.isfinite(r.chain_error)]
    decreasing = all(b < a for a, b in zip(errs, errs[1:])) and len(errs) == len(rows)
    if not decreasing:
        warnings.append("chain error column is not strictly decreasing")
    return ConvergenceTable(rows, _fit_order([r.deviation for r in rows],
                                             [r.chain_error for r in rows]),
                            decreasing, "exact-tau chain", warnings)


def merge_tables(ef: ConvergenceTable, chain: ConvergenceTable) -> ConvergenceTable:
    """Join ef and chain rows by level for the combined error table."""
    by_level = {r.n: r for r in chain.rows}
    rows = []
    for r in ef.rows:
        c = by_level.get(r.n)
        rows.append(LevelRow(r.n, r.deviation, r.ef_error,
                             c.chain_error if c else np.nan, r.envelope,
                             r.runtime_ms + (c.runtime_ms if c else 0.0)))
    return ConvergenceTable(rows, ef.fitted_order,
                            ef.strictly_decreasing and chain.strictly_decreasing,
                            ef.reference, ef.warnings + chain.warnings)
