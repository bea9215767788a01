"""Boundary welding, the radial extension and Beltrami-coefficient estimates.

The extension map pairs the reflected boundary trace of the decreasing
chain with the boundary trace of the chain at equal time,

    Phi(1 / conj(g_t(e^{i theta}))) = f_t(e^{i theta}),

and is quasiconformal with dilatation controlled by the pair inequality.
Two independent Beltrami estimators certify this numerically: the closed
formula built from (p, q, tau), and the Wirtinger quotient read by the
chain rule from finite differences of the sampled atlas.  The two never
share ingredients, so their agreement is evidence rather than tautology.

Becker's radial case (tau = 0) needs no second chain: the extension
F(r e^{i theta}) = f_{log r}(e^{i theta}) has the closed Beltrami
coefficient e^{2i theta} (p - 1)/(p + 1), which depends on p alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .herglotz import HerglotzSpec, DenjoyWolffSpec, time_samples
from .chains import ChainFrames
from .grids import rows_across_jumps

TOL_DILAT = 0.02
FORMULA_DENOM_FLOOR = 1e-12


class AtlasRejected(RuntimeError):
    """Source points collide en masse; welding hypotheses or integration broke."""


def phi_tau(z: np.ndarray, tau: complex) -> np.ndarray:
    """(z - tau)(1 - conj(tau) z) / z, real on the unit circle."""
    z = np.asarray(z, dtype=complex)
    return (z - tau) * (1.0 - np.conj(tau) * z) / z


@dataclass
class FormulaSamples:
    """Closed-formula Beltrami data on the (t, theta) atlas grid.

    ``valid`` masks the bare pair ratio (whole rows where tau is not
    frozen); ``prefactor_valid`` also masks cells without a valid g trace
    or a finite prefactor, where the full complex mu is undefined.
    """

    mu: np.ndarray            # with the unimodular trace prefactor
    mu_pair: np.ndarray       # bare pair ratio, |mu_pair| = |mu|
    valid: np.ndarray
    prefactor_valid: np.ndarray


def beltrami_formula(p: HerglotzSpec, q: HerglotzSpec, tau,
                     t_grid: np.ndarray, theta: np.ndarray, trace_radius: float,
                     g_traces: np.ndarray | None = None,
                     g_trace_valid: np.ndarray | None = None,
                     g_trace_derivs: np.ndarray | None = None) -> FormulaSamples:
    """Beltrami samples from the Berkson-Porta data.

    mu_pair = (phi_tau p - conj(phi_tau q)) / (phi_tau (p + q)) at
    zeta = trace_radius e^{i theta}.  The unimodular prefactor conj(v)/v
    with v = zeta dg/dz / g^2 is attached when the g traces and their
    variational derivatives are supplied.  Solving the welding derivative
    system for the Wirtinger quotient yields this spatial-derivative form;
    it coincides with the time-derivative form conj(u)/u, u = d_t g / g^2,
    exactly when q is positive real (the two differ by e^{2i arg q}, which
    drops out of |mu|; the phase was validated against the closed-form
    sector welding, where only this form matches the independent
    finite-difference estimator).  |mu| never depends on the prefactor, so
    the certified quantity needs no derivative data at all.

    tau is a Denjoy-Wolff spec or a bare constant.  The ratio is derived
    for tau constant in time, so row t is evaluated with
    ``tau.frozen_on(t, t)`` where that is not None and masked elsewhere:
    step data are evaluated piecewise per constancy interval, step cells
    followed by a tail up to the horizon, and sampled data not at all.
    """
    tau = tau if isinstance(tau, DenjoyWolffSpec) else DenjoyWolffSpec.constant(tau)
    t_grid = np.asarray(t_grid, dtype=float)
    theta = np.asarray(theta, dtype=float)
    zeta = trace_radius * np.exp(1j * theta)

    nt, ntheta = t_grid.size, theta.size
    mu_pair = np.full((nt, ntheta), np.nan + 0j)
    valid = np.zeros((nt, ntheta), bool)
    frozen = [tau.frozen_on(float(t), float(t)) for t in t_grid]
    rows = np.array([tv is not None for tv in frozen], dtype=bool)
    z, t = time_samples(zeta, t_grid[rows])
    ph = phi_tau(z, np.array([tv for tv in frozen if tv is not None], dtype=complex)[:, None])
    pv, qv = p.evaluate(z, t), q.evaluate(z, t)
    num = ph * pv - np.conj(ph * qv)
    pq = pv + qv    # named: numpy would multiply a large temporary in place, operands swapped
    den = ph * pq
    valid[rows] = (np.abs(den) >= FORMULA_DENOM_FLOOR) & np.isfinite(num) & np.isfinite(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_pair[rows] = np.where(valid[rows], num / den, np.nan + 0j)

    prefactor_valid = valid.copy()
    if g_traces is not None and g_trace_derivs is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            v = zeta[None, :] * g_trace_derivs / g_traces ** 2
            prefactor = np.where(v != 0, np.conj(v) / v, np.nan + 0j)
        if g_trace_valid is not None:
            prefactor_valid &= g_trace_valid
        prefactor_valid &= np.isfinite(prefactor)
    else:
        prefactor = np.ones((nt, ntheta), complex)
    mu = np.where(prefactor_valid, prefactor * mu_pair, np.nan + 0j)
    mu_pair = np.where(valid, mu_pair, np.nan + 0j)
    return FormulaSamples(mu, mu_pair, valid, prefactor_valid)


def _chart_mu(s1, s2, t1, t2):
    """b / a, where dT = a dS + b conj(dS) holds for both pairs (s1, t1) and (s2, t2)."""
    return (s1 * t2 - t1 * s2) / (t1 * np.conj(s2) - np.conj(s1) * t2)


def _chart_fd(sp, tp, s1, t1):
    """(mu, residual, ok) of the interior cells in one source and one target chart.

    sp and tp hold the charts' samples, padded by two columns at either end
    of the periodic theta axis; s1 and t1 hold their derivatives along the
    time rows at the interior cells.  mu solves dT = a dS + b conj(dS) along
    the time rows and, to fourth order, around theta; residual is the relative
    misfit of that linear model at the four diagonal neighbours.  ok asks
    for no welding pinch (the source directions' |sin| above 1e-2) and for
    mu within 0.02 of both the second-order theta and the diagonal estimate.
    """
    nt, nw = sp.shape

    def at(x, di, dj):          # x[i + di, j + dj] over the interior cells (i, j)
        return x[1 + di:nt - 1 + di, 2 + dj:nw - 2 + dj]

    def diff(x, di, dj):        # the centred difference in direction (di, dj)
        return at(x, di, dj) - at(x, -di, -dj)

    s2, t2 = diff(sp, 0, 1), diff(tp, 0, 1)
    mu2 = _chart_mu(s1, s2, t1, t2)
    s2 = (8.0 * s2 - diff(sp, 0, 2)) / 6.0
    t2 = (8.0 * t2 - diff(tp, 0, 2)) / 6.0
    det = s1 * np.conj(s2) - np.conj(s1) * s2
    a = (t1 * np.conj(s2) - np.conj(s1) * t2) / det
    b = (s1 * t2 - t1 * s2) / det
    mu = b / a
    ok = (np.abs(det) > 2e-2 * np.abs(s1) * np.abs(s2)) & (np.abs(mu2 - mu) < 2e-2)
    del s2, t2, det, mu2
    ok &= np.abs(_chart_mu(diff(sp, 1, 1), diff(sp, 1, -1),
                           diff(tp, 1, 1), diff(tp, 1, -1)) - mu) < 2e-2
    miss, spread = np.zeros(mu.shape), np.zeros(mu.shape)
    for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        ds, dt = at(sp, di, dj) - at(sp, 0, 0), at(tp, di, dj) - at(tp, 0, 0)
        miss += np.abs(dt - a * ds - b * np.conj(ds))
        spread += np.abs(dt)
    return mu, miss / spread, ok


def beltrami_fd(source: np.ndarray, target: np.ndarray, valid: np.ndarray | None = None,
                times: np.ndarray | None = None):
    """Per-cell Wirtinger quotient of target(source) by the chain rule on the atlas grid.

    Differences of source S and target T along the time rows and around the
    periodic theta axis give dS and dT in two directions; solving
    dT = a dS + b conj(dS) in both gives mu = b / a, whatever the grid's
    parametrization.  Along the rows, numpy's three-point gradient over the
    rows' ``times`` (unit-spaced when None, as for synthetic atlases) is
    second order on any row spacing; around theta the centred difference is
    fourth order.  The welding map is a homeomorphism between sphere
    domains, so both its sources and its values may legitimately run through
    infinity; the Beltrami quotient is invariant under Mobius postcomposition
    and its modulus under precomposition (the phase picks up the unimodular
    twist w^2/conj(w)^2).  Every cell is therefore read in the source chart
    (w or 1/w) and target chart (Phi or 1/Phi) whose linear model best
    predicts its four diagonal neighbours, and masked when that chart fails
    the checks of ``_chart_fd`` or its 3x5 neighbourhood holds an invalid
    point (by default a non-finite one).  Raw arrays, synthetic atlases
    among them, go in as they are.  Returns (mu, fd_valid).
    """
    source = np.asarray(source, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if valid is None:
        valid = np.isfinite(source) & np.isfinite(target)
    nt, ntheta = source.shape
    mu = np.full((nt, ntheta), np.nan + 0j)
    ok = np.zeros((nt, ntheta), bool)
    if nt < 3 or ntheta < 5:
        return mu, ok

    def padded(x):
        return np.concatenate([x[:, -2:], x, x[:, :2]], axis=1)

    times = np.arange(nt) if times is None else times

    def charts(x):      # per chart (x, 1/x): its padded samples and interior row derivative
        return ((padded(c), np.gradient(c, times, axis=0, edge_order=1)[1:-1])
                for c in (x, 1.0 / x))

    inner, inner_ok = mu[1:-1], ok[1:-1]
    best = np.full(inner.shape, np.inf)
    with np.errstate(all="ignore"):
        targets = list(charts(target))
        for s, (sp, s1) in enumerate(charts(source)):
            for tp, t1 in targets:
                m, res, good = _chart_fd(sp, tp, s1, t1)
                win = res < best
                best[win] = res[win]
                if s:                        # the 1/w chart: mu takes the twist
                    m *= source[1:-1] ** 2 / np.conj(source[1:-1]) ** 2
                inner[win], inner_ok[win] = m[win], good[win]
    near = padded(valid)
    inner_ok &= np.isfinite(inner) & np.all(
        [near[i:nt - 2 + i, j:ntheta + j] for i in range(3) for j in range(5)], axis=0)
    mu[~ok] = np.nan
    return mu, ok


@dataclass
class ExtensionAtlas:
    """Welding samples (source, target) with both Beltrami estimates.

    ``valid`` marks the sampled cells; ``formula_valid`` and ``fd_valid``
    mark the cells each estimator is judged on.  ``formula_withheld`` says
    the formula has no cell at all (measurable tau).
    """

    t_grid: np.ndarray
    theta: np.ndarray
    source: np.ndarray
    target: np.ndarray
    mu_formula: np.ndarray
    mu_pair: np.ndarray
    formula_valid: np.ndarray
    mu_fd: np.ndarray
    fd_valid: np.ndarray
    valid: np.ndarray
    formula_withheld: bool
    min_separation: float
    sep_threshold: float
    n_collisions: int
    coverage: float           # unmasked fraction of the atlas cells
    warnings: list[str] = field(default_factory=list)


# candidate pairs per point the witness enumerates before counting by crowded cells
_WITNESS_BUDGET = 64
_HALF_STENCIL = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))
_RING_STENCIL = ((0, 0),) + tuple((i, j) for i in range(-2, 3) for j in range(-2, 3) if i or j)


def _cell_ranges(x: np.ndarray, y: np.ndarray, side: float, stencil):
    """(x, y) sorted by square cell of the given side and, per stencil offset, each sorted
    point's [lo, hi) range in that neighbour cell; cells are keyed by coordinate rank."""
    ux, rx = np.unique(np.floor(x / side), return_inverse=True)
    uy, ry = np.unique(np.floor(y / side), return_inverse=True)

    def key(dx, dy):    # -1 where the cell (dx, dy) away is empty
        kx, ky = np.searchsorted(ux, ux + dx), np.searchsorted(uy, uy + dy)
        hit = (ux[kx % ux.size] == ux + dx)[rx] & (uy[ky % uy.size] == uy + dy)[ry]
        return np.where(hit, kx[rx] * uy.size + ky[ry], -1)

    order = np.argsort(own := key(0, 0), kind="stable")
    keys, near = own[order], [key(dx, dy)[order] for dx, dy in stencil]
    return (x[order], y[order], np.array([np.searchsorted(keys, k, "left") for k in near]),
            np.array([np.searchsorted(keys, k, "right") for k in near]))


def _injectivity_witness(points: np.ndarray):
    """(min_separation, threshold, n_collisions) of the unmasked source points.

    A point collides when another lies closer than threshold = 1e-6 max(1,
    median |z|).  The least gap u between consecutive points bounds the
    minimum, so one pass over a grid of side max(u, threshold), plus rounding
    slack, each point against its own and four forward cells, meets every
    pair that matters: both results are exact, as sqrt(dx^2 + dy^2) of a
    k-d tree bit for bit.  Past _WITNESS_BUDGET candidates per point, cells
    of side threshold / 2 count instead: two points sharing one collide, and
    a point alone is compared with the 24 cells around it.  The count stays
    exact, and min_separation becomes an upper bound.
    """
    n = points.size
    if n < 2:
        return np.nan, 0.0, 0
    x, y = points.real, points.imag
    threshold = 1e-6 * max(1.0, float(np.median(np.abs(points))))
    u = float(np.sqrt(np.diff(x) ** 2 + np.diff(y) ** 2).min())
    side = max(u, threshold) * (1 + 1e-14) + 1e-14 * np.abs(points).max()    # rounding slack
    after = np.arange(1, n + 1)        # own cell: the later points only
    xs, ys, lo, hi = _cell_ranges(x, y, side, _HALF_STENCIL)
    lo[0] = after
    if (hi - lo).sum() > _WITNESS_BUDGET * n:
        xs, ys, lo, hi = _cell_ranges(x, y, threshold / 2, _RING_STENCIL)
        crowded = hi[0] - lo[0] > 1
        lo[0], hi[0] = after, np.minimum(hi[0], after + 1)
        hi[1:, crowded] = lo[1:, crowded]
    counts = (hi - lo).ravel()
    i = np.repeat(np.tile(np.arange(n), len(lo)), counts)
    j = np.arange(counts.sum()) + np.repeat(lo.ravel() - np.cumsum(counts) + counts, counts)
    d = np.sqrt((xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2)
    close = d < threshold
    return float(np.min(d, initial=u)), threshold, np.union1d(i[close], j[close]).size


def build_extension(f_frames: ChainFrames, g_frames: ChainFrames) -> ExtensionAtlas:
    """Assemble the welding atlas from matching f and g frames.

    Sources are the reflected g traces 1/conj(g_t), targets the f traces.
    The formula side reads p and tau from the field of the f frames and q
    from that of the g frames, whose tau must agree at the checkpoints.  It
    has the rows where tau is frozen (see ``beltrami_formula``); when it has
    none, as for sampled (measurable) data, certification rests on the
    finite-difference estimator plus approximation evidence.  Rejects the
    atlas when more than 1% of source points collide, which signals broken
    hypotheses or integration failure rather than noise.
    """
    if f_frames.tag != "range-normalized" or g_frames.tag != "decreasing":
        raise ValueError("need range-normalized f frames and decreasing g frames")
    if f_frames.checkpoints.size != g_frames.checkpoints.size or \
            np.abs(f_frames.checkpoints - g_frames.checkpoints).max() > 1e-12:
        raise ValueError("f and g frames must share checkpoints")
    if f_frames.n_theta != g_frames.n_theta:
        raise ValueError("f and g frames must share the theta grid")
    if f_frames.trace_radius != g_frames.trace_radius:
        raise ValueError("f and g frames must share the trace ring")
    p, tau = f_frames.vector_field.p, f_frames.vector_field.tau
    q = g_frames.vector_field.p
    t_grid = f_frames.checkpoints
    if np.abs(tau.value(t_grid) - g_frames.vector_field.tau.value(t_grid)).max() > 1e-12:
        raise ValueError("f and g frames must share the Denjoy-Wolff function")

    warnings = []
    theta = f_frames.theta
    g_tr = g_frames.traces
    with np.errstate(divide="ignore", invalid="ignore"):
        source = 1.0 / np.conj(g_tr)
    target = f_frames.traces
    valid = f_frames.trace_valid & g_frames.trace_valid & np.isfinite(source) & np.isfinite(target)

    fs = beltrami_formula(p, q, tau, t_grid, theta,
                          f_frames.trace_radius, g_tr, g_frames.trace_valid,
                          g_frames.trace_derivs)
    if not fs.valid.any():
        warnings.append("measurable tau: closed-form dilatation unavailable, "
                        "certification rests on the finite-difference estimator "
                        "and the approximation experiments")
    mu_fd, fd_ok = beltrami_fd(source, target, valid, t_grid)
    fd_ok[rows_across_jumps(t_grid, tau.breakpoints)] = False

    min_sep, threshold, collisions = _injectivity_witness(source[valid])
    n_valid = int(np.count_nonzero(valid))
    if n_valid and collisions > 0.01 * n_valid:
        raise AtlasRejected(
            f"{collisions} of {n_valid} source points collide below {threshold:.2g}")

    return ExtensionAtlas(t_grid, theta, source, target,
                          np.where(valid & fs.prefactor_valid, fs.mu, np.nan + 0j),
                          np.where(valid, fs.mu_pair, np.nan + 0j),
                          valid & fs.valid, mu_fd, fd_ok, valid, not fs.valid.any(),
                          min_sep, threshold, collisions,
                          float(np.count_nonzero(valid)) / valid.size, warnings)


@dataclass
class BeckerExtension:
    """Radial extension F(r e^{i theta}) = f_{log r}(e^{i theta}) for r >= 1.

    Its Beltrami estimates sit in the fields of ``ExtensionAtlas``.
    """

    r: np.ndarray
    theta: np.ndarray
    values: np.ndarray
    mu_formula: np.ndarray
    mu_pair: np.ndarray
    formula_valid: np.ndarray
    mu_fd: np.ndarray
    fd_valid: np.ndarray
    valid: np.ndarray
    continuity_mismatch: float
    formula_withheld = False    # the formula reads p alone


def _polar_mu(values: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """e^{2i theta} (F_r + i F_theta / r) / (F_r - i F_theta / r) on a polar grid.

    values[i, j] = F(r_i e^{i theta_j}) with theta uniform and periodic.
    F_r is numpy's three-point gradient over r, second order on any radial
    spacing; F_theta is the periodic centered difference.
    """
    fr = np.gradient(values, r, axis=0, edge_order=1)
    ft = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (4.0 * np.pi / theta.size)
    e2 = np.exp(2j * theta)[None, :]
    num = fr + 1j * ft / r[:, None]
    den = fr - 1j * ft / r[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return e2 * num / den


def becker_extension(frames: ChainFrames) -> BeckerExtension:
    """Sample the radial extension of f_0 (tau = 0) from range-normalized frames.

    The samples sit at r = e^{t} on the checkpoints, so they are the stored
    traces themselves.  The formula side is mu = e^{2i theta} (p - 1)/(p + 1),
    p of the frames' field, at zeta = trace_radius e^{i theta} on every
    checkpoint: with F(e^{t + i theta}) = f_t(e^{i theta}) and d_t f = z f' p,
    the Wirtinger derivatives in w = log z are z f' (p + 1)/2 and
    z f' (p - 1)/2, and z = e^w adds the phase z / conj(z).  ``mu_pair`` is
    the bare ratio, which the unimodular phase leaves unchanged; it is
    ``beltrami_formula``'s pair ratio with q = 1 and tau = 0, where phi_tau
    is 1, masked as there.  The traces do not enter, so their validity does
    not.  The Wirtinger quotient mu_fd comes from polar differences of the
    samples (``_polar_mu``), an estimator fully independent of the Herglotz
    data.
    ``continuity_mismatch`` = (delta / 2) max |f_0'| on the trace ring,
    delta = 1 - trace_radius: to first order in delta the distance between
    f_0 on the ring and on the ring at half the offset, the gap the trace
    leaves across |z| = 1.
    """
    if frames.tag != "range-normalized" or not frames.vector_field.tau.is_constant(0.0):
        raise ValueError("radial extension needs range-normalized frames of tau identically 0")
    r = np.exp(frames.checkpoints)
    values, valid = frames.traces, frames.trace_valid

    delta = 1.0 - frames.trace_radius
    # fmax skips lost (NaN) points, and is NaN without a warning when all are
    mismatch = float(0.5 * delta * np.fmax.reduce(np.abs(frames.trace_derivs[frames.row(0.0)])))

    fs = beltrami_formula(frames.vector_field.p, HerglotzSpec.constant(1.0), 0.0,
                          frames.checkpoints, frames.theta, frames.trace_radius)

    mu_fd = np.full(values.shape, np.nan + 0j)
    fd_ok = np.zeros(values.shape, bool)
    if r.size >= 3:
        inner = slice(1, -1)
        mu_fd[inner] = _polar_mu(values, r, frames.theta)[inner]
        fd_ok[inner] = valid[inner] & np.isfinite(mu_fd[inner])
        mu_fd[~fd_ok] = np.nan + 0j

    return BeckerExtension(r, frames.theta, values, np.exp(2j * frames.theta) * fs.mu_pair,
                           fs.mu_pair, fs.valid, mu_fd, fd_ok, valid, mismatch)


@dataclass
class DilatationReport:
    max_mu_formula: float
    max_mu_fd: float
    agreement: float
    passed: bool
    sense_preserving: bool
    n_masked: int


def dilatation_report(ext: ExtensionAtlas | BeckerExtension, k: float,
                      tol_dilat: float = TOL_DILAT) -> DilatationReport:
    """Dilatation verdict of the welded or the radial extension.

    Both estimators' max |mu| on the cells each is judged on (the formula's
    read from the bare ratio mu_pair), their agreement where both are, and
    the verdict: pass iff every available estimator stays under
    k + tol_dilat.  When the formula side is withheld (measurable tau), the
    verdict rests on the finite-difference estimator alone.
    """
    formula_ok, fd_ok = ext.formula_valid, ext.fd_valid
    mf_vals = np.abs(ext.mu_pair[formula_ok])
    fd_vals = np.abs(ext.mu_fd[fd_ok])
    mf = float(mf_vals.max()) if mf_vals.size else np.nan
    md = float(fd_vals.max()) if fd_vals.size else np.nan
    both = formula_ok & fd_ok
    agree = float(np.abs(ext.mu_formula[both] - ext.mu_fd[both]).max()) if both.any() else np.nan
    sense = bool((fd_vals < 1.0).all()) if fd_vals.size else False
    passed = bool(np.isfinite(md) and md <= k + tol_dilat
                  and (ext.formula_withheld or (np.isfinite(mf) and mf <= k + tol_dilat)))
    n_masked = ext.valid.size - int(np.count_nonzero(ext.valid))
    return DilatationReport(mf, md, agree, passed, sense, n_masked)
