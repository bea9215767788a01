"""Boundary welding, the radial extension and Beltrami-coefficient estimates.

The extension map pairs the reflected boundary trace of the decreasing
chain with the boundary trace of the chain at equal time,

    Phi(1 / conj(g_t(e^{i theta}))) = f_t(e^{i theta}),

and is quasiconformal with dilatation controlled by the pair inequality.
Two independent Beltrami estimators certify this numerically: the closed
formula built from (p, q, tau), and Wirtinger derivatives recovered by
least-squares fits of Phi on local atlas stencils.  The two never share
ingredients, so their agreement is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .grids import nonuniform_centered, periodic_centered
from .herglotz import HerglotzSpec, DenjoyWolffSpec
from .chains import ChainFrames, limit_frame

TOL_DILAT = 0.02
FORMULA_DENOM_FLOOR = 1e-12


class AtlasRejected(RuntimeError):
    """Source points collide en masse; welding hypotheses or integration broke."""


def boundary_trace(frames: ChainFrames, t: float, second_radius: bool = False):
    """Stored near-boundary trace of a frame at checkpoint t.

    Returns (theta, values, valid_mask) and appends the half-offset ring
    when it was built and requested.
    """
    i = frames.row(t)
    out = (frames.theta, frames.traces[i], frames.trace_valid[i])
    if second_radius:
        if frames.traces_mid is None:
            raise ValueError("frames were built without the second trace radius")
        return out + (frames.traces_mid[i],)
    return out


def phi_tau(z: np.ndarray, tau: complex) -> np.ndarray:
    """(z - tau)(1 - conj(tau) z) / z, real on the unit circle."""
    z = np.asarray(z, dtype=complex)
    return (z - tau) * (1.0 - np.conj(tau) * z) / z


@dataclass
class FormulaSamples:
    """Closed-formula Beltrami data on the (t, theta) atlas grid.

    ``valid`` masks the bare pair ratio; ``prefactor_valid`` additionally
    masks rows whose trace time-derivative stencil is unavailable or would
    straddle a tau breakpoint, where the full complex mu is undefined.
    """

    mu: np.ndarray            # with the unimodular trace prefactor
    mu_pair: np.ndarray       # bare pair ratio, |mu_pair| = |mu|
    prefactor: np.ndarray
    valid: np.ndarray
    prefactor_valid: np.ndarray


def _tau_per_row(tau, t_grid):
    if isinstance(tau, DenjoyWolffSpec):
        return np.array([complex(tau.value(float(t))) for t in t_grid]), tau.breakpoints
    if callable(tau):
        return np.array([complex(tau(float(t))) for t in t_grid]), ()
    return np.full(t_grid.size, complex(tau)), ()


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

    tau may be a constant, a Denjoy-Wolff spec, or a callable; the ratio is
    derived for tau constant in time, so step data are evaluated piecewise
    per constancy interval.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    theta = np.asarray(theta, dtype=float)
    zeta = trace_radius * np.exp(1j * theta)
    tau_rows, _ = _tau_per_row(tau, t_grid)

    nt, ntheta = t_grid.size, theta.size
    mu_pair = np.empty((nt, ntheta), complex)
    valid = np.ones((nt, ntheta), bool)
    for i, t in enumerate(t_grid):
        ph = phi_tau(zeta, tau_rows[i])
        pv = p.evaluate(zeta, float(t))
        qv = q.evaluate(zeta, float(t))
        num = ph * pv - np.conj(ph * qv)
        den = ph * (pv + qv)
        small = np.abs(den) < FORMULA_DENOM_FLOOR
        valid[i] = ~small & np.isfinite(num) & np.isfinite(den)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_pair[i] = np.where(valid[i], num / den, np.nan + 0j)

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
    return FormulaSamples(mu, mu_pair, prefactor, valid, prefactor_valid)


def _fit_mu(d: np.ndarray, values: np.ndarray):
    """mu = c2/c1 and fit diagnostics from stencil fits against offsets d.

    Affine and quadratic models are fitted independently.  Returns
    (mu_quadratic, residual, ok) where residual is the quadratic model's
    relative misfit and ok requires both models well conditioned and
    agreeing about mu to 0.05: stencils that reach past a pole, where no
    local expansion holds, reject themselves.
    """
    A = np.stack([np.ones_like(d), d, np.conj(d), d * d, np.conj(d) ** 2,
                  d * np.conj(d)])

    def solve(cols):
        Ao = A[:cols]
        Mo = np.einsum("iakl,jakl->klij", np.conj(Ao), Ao)
        bo = np.einsum("iakl,akl->kli", np.conj(Ao), values)
        with np.errstate(all="ignore"):
            sv = np.linalg.svd(Mo, compute_uv=False)
            ok_ = np.isfinite(sv).all(axis=-1) & (sv[..., -1] > 1e-10 * sv[..., 0])
            coef = np.full(bo.shape, np.nan + 0j)
            if ok_.any():
                coef[ok_] = np.linalg.solve(Mo[ok_], bo[ok_][..., None])[..., 0]
            c1, c2 = coef[..., 1], coef[..., 2]
            ok_ &= (np.abs(c1) > 1e-300) & np.isfinite(c1) & np.isfinite(c2)
            with np.errstate(divide="ignore", invalid="ignore"):
                m = np.where(ok_, c2 / c1, np.nan + 0j)
        return m, coef, ok_

    mu_a, _, ok_a = solve(3)
    mu_q, coef_q, ok_q = solve(6)
    with np.errstate(all="ignore"):
        model = np.einsum("iakl,kli->akl", A, coef_q)
        res2 = (np.abs(values - model) ** 2).sum(axis=0)
        spread2 = (np.abs(values - values.mean(axis=0)) ** 2).sum(axis=0)
        residual = np.sqrt(res2 / np.maximum(spread2, 1e-300))
    ok = ok_a & ok_q & (np.abs(mu_q - mu_a) < 0.05)
    return mu_q, np.where(np.isfinite(residual), residual, np.inf), ok


def _offsets(points: np.ndarray, centers: np.ndarray):
    """Normalized stencil offsets and their isotropy.

    Near-collinear source points make d and conj(d) linearly dependent
    (a welding pinch collapses stencils onto a ray), measured by the
    eigenvalue ratio of the 2x2 scatter.
    """
    ds = points - centers[None]
    scale = np.maximum(np.abs(ds).max(axis=0), 1e-300)
    d = ds / scale
    a, b = d.real, d.imag
    sxx = (a * a).sum(axis=0)
    syy = (b * b).sum(axis=0)
    sxy = (a * b).sum(axis=0)
    half_tr = 0.5 * (sxx + syy)
    disc = np.sqrt(np.maximum(0.25 * (sxx - syy) ** 2 + sxy ** 2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        anisotropy = (half_tr - disc) / np.maximum(half_tr + disc, 1e-300)
    finite = np.isfinite(d).all(axis=0)
    return d, finite & (anisotropy > 1e-4)


def _lsq_wirtinger(source: np.ndarray, target: np.ndarray, valid: np.ndarray):
    """Per-cell Wirtinger quotient of target(source) on 3x3 stencils.

    The welding map is a homeomorphism between sphere domains, so both its
    sources and its values may legitimately run through infinity; the
    Beltrami quotient is invariant under Mobius postcomposition and its
    modulus under precomposition (the phase picks up the unimodular twist
    w^2/conj(w)^2).  Source stencils spanning a large modulus ratio are
    therefore fit in the reciprocal chart 1/w, and each cell picks the
    target chart (Phi or 1/Phi) whose quadratic model fits better.  The
    surviving estimate must pass model-order cross-validation (_fit_mu);
    everything else is masked.  Returns (mu, fit_valid).
    """
    nt, ntheta = source.shape
    mu = np.full((nt, ntheta), np.nan + 0j)
    ok = np.zeros((nt, ntheta), bool)
    if nt < 3 or ntheta < 3:
        return mu, ok

    stn_s, stn_v, stn_ok = [], [], []
    for di in (-1, 0, 1):
        rows = slice(1 + di, nt - 1 + di)
        for dj in (-1, 0, 1):
            stn_s.append(np.roll(source[rows], -dj, axis=1))
            stn_v.append(np.roll(target[rows], -dj, axis=1))
            stn_ok.append(np.roll(valid[rows], -dj, axis=1))
    S = np.stack(stn_s)            # [9, nt-2, ntheta]
    V = np.stack(stn_v)
    OK = np.stack(stn_ok).all(axis=0)

    centers = source[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        S_inv = np.where(np.abs(S) > 1e-300, 1.0 / S, np.nan + 0j)
        c_inv = np.where(np.abs(centers) > 1e-300, 1.0 / centers, np.nan + 0j)
        twist = centers ** 2 / np.conj(centers) ** 2   # unimodular
        V_inv = np.where(np.abs(V) > 1e-300, 1.0 / V, np.nan + 0j)

    d_dir, iso_dir = _offsets(S, centers)
    d_inv, iso_inv = _offsets(S_inv, c_inv)

    # all four charts; the residuals of a chart containing a pole and of a
    # smooth chart differ by orders of magnitude, so argmin is decisive
    cand_mu, cand_res, cand_ok = [], [], []
    for d, iso, tw in ((d_dir, iso_dir, None), (d_inv, iso_inv, twist)):
        for vals in (V, V_inv):
            m, r, g = _fit_mu(d, vals)
            if tw is not None:
                m = m * tw
            cand_mu.append(m)
            cand_res.append(np.where(g & iso, r, np.inf))
            cand_ok.append(g & iso)
    res = np.stack(cand_res)
    pick = np.argmin(res, axis=0)
    gather = (pick,) + tuple(np.indices(pick.shape))
    best = np.stack(cand_mu)[gather]
    best_res = res[gather]
    cell_ok = OK & np.isfinite(best_res) & (best_res < 0.02) & np.isfinite(best)
    mu[1:-1] = np.where(cell_ok, best, np.nan + 0j)
    ok[1:-1] = cell_ok
    return mu, ok


def beltrami_fd(source: np.ndarray, target: np.ndarray, valid: np.ndarray | None = None):
    """Finite-difference Beltrami estimate on (source, target) welding samples.

    Thin public wrapper over the stencil fit; accepts raw arrays so it can
    also digest synthetic atlases in tests.  Returns (mu, fit_valid).
    """
    source = np.asarray(source, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if valid is None:
        valid = np.isfinite(source) & np.isfinite(target)
    return _lsq_wirtinger(source, target, valid)


@dataclass
class Coverage:
    unmasked_fraction: float
    radial_span: tuple[float, float]
    annulus_fraction: float


@dataclass
class ExtensionAtlas:
    """Welding samples (source, target) with both Beltrami estimates."""

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
    min_separation: float
    sep_threshold: float
    n_collisions: int
    coverage: Coverage
    warnings: list[str] = field(default_factory=list)


def _injectivity_witness(points: np.ndarray):
    """Nearest-neighbour separation of the unmasked source points."""
    pts = np.column_stack([points.real, points.imag])
    if pts.shape[0] < 2:
        return np.nan, 0.0, 0
    tree = cKDTree(pts)
    d, _ = tree.query(pts, k=2)
    nn = d[:, 1]
    scale = float(np.median(np.abs(points)))
    threshold = 1e-6 * max(1.0, scale)
    return float(nn.min()), threshold, int(np.count_nonzero(nn < threshold))


def _coverage(source: np.ndarray, valid: np.ndarray) -> Coverage:
    pts = source[valid]
    if pts.size == 0:
        return Coverage(0.0, (np.nan, np.nan), 0.0)
    r = np.abs(pts)
    rmin, rmax = float(r.min()), float(r.max())
    frac = float(np.count_nonzero(valid)) / valid.size
    if rmax <= rmin * (1 + 1e-12):
        return Coverage(frac, (rmin, rmax), 1.0)
    nr, na = 24, 48
    ri = np.clip(((np.log(r) - np.log(rmin)) / (np.log(rmax) - np.log(rmin)) * nr).astype(int), 0, nr - 1)
    ai = ((np.angle(pts) + np.pi) / (2 * np.pi) * na).astype(int) % na
    hit = np.zeros((nr, na), bool)
    hit[ri, ai] = True
    return Coverage(frac, (rmin, rmax), float(hit.mean()))


def build_extension(f_frames: ChainFrames, g_frames: ChainFrames,
                    p: HerglotzSpec, q: HerglotzSpec, tau,
                    pair_checked: bool | None = None) -> ExtensionAtlas:
    """Assemble the welding atlas from matching f and g frames.

    Sources are the reflected g traces 1/conj(g_t), targets the f traces.
    tau may be a constant or a Denjoy-Wolff spec: step data get piecewise
    formula samples, while for sampled (measurable) data the formula side
    is withheld entirely and certification rests on the finite-difference
    estimator plus approximation evidence.  Rejects the atlas when more
    than 1% of source points collide, which signals broken hypotheses or
    integration failure rather than noise.
    """
    if f_frames.tag != "range-normalized" or g_frames.tag != "decreasing":
        raise ValueError("need range-normalized f frames and decreasing g frames")
    if f_frames.checkpoints.size != g_frames.checkpoints.size or \
            np.abs(f_frames.checkpoints - g_frames.checkpoints).max() > 1e-12:
        raise ValueError("f and g frames must share checkpoints")
    if f_frames.n_theta != g_frames.n_theta:
        raise ValueError("f and g frames must share the theta grid")

    warnings = []
    if pair_checked is False or pair_checked is None:
        warnings.append("pair inequality was not certified for this data; "
                        "atlas built anyway")

    t_grid = f_frames.checkpoints
    theta = f_frames.theta
    g_tr = g_frames.traces
    with np.errstate(divide="ignore", invalid="ignore"):
        source = 1.0 / np.conj(g_tr)
    target = f_frames.traces
    valid = f_frames.trace_valid & g_frames.trace_valid & np.isfinite(source) & np.isfinite(target)

    measurable = isinstance(tau, DenjoyWolffSpec) and tau.kind in ("sampled", "step_tail")
    if measurable:
        shape = (t_grid.size, theta.size)
        fs = FormulaSamples(np.full(shape, np.nan + 0j), np.full(shape, np.nan + 0j),
                            np.ones(shape, complex), np.zeros(shape, bool),
                            np.zeros(shape, bool))
        warnings.append("measurable tau: closed-form dilatation unavailable, "
                        "certification rests on the finite-difference estimator "
                        "and the approximation experiments")
    else:
        fs = beltrami_formula(p, q, tau, t_grid, theta,
                              f_frames.trace_radius, g_tr, g_frames.trace_valid,
                              g_frames.trace_derivs)
    mu_fd, fd_ok = _lsq_wirtinger(source, target, valid)
    # fd stencils must not straddle a tau jump either: the two welding
    # pieces meet there and the affine model mixes them
    if isinstance(tau, DenjoyWolffSpec):
        for b in tau.breakpoints:
            for i in range(t_grid.size):
                lo = t_grid[max(i - 1, 0)]
                hi = t_grid[min(i + 1, t_grid.size - 1)]
                if lo - 1e-12 <= b <= hi + 1e-12:
                    fd_ok[i] = False

    min_sep, threshold, collisions = _injectivity_witness(source[valid])
    n_valid = int(np.count_nonzero(valid))
    if n_valid and collisions > 0.01 * n_valid:
        raise AtlasRejected(
            f"{collisions} of {n_valid} source points collide below {threshold:.2g}")

    atlas = ExtensionAtlas(t_grid, theta, source, target,
                           np.where(valid & fs.prefactor_valid, fs.mu, np.nan + 0j),
                           np.where(valid, fs.mu_pair, np.nan + 0j),
                           fs.valid, mu_fd, fd_ok, valid,
                           min_sep, threshold, collisions,
                           _coverage(source, valid), warnings)
    return atlas


@dataclass
class BeckerExtension:
    """Radial extension F(r e^{i theta}) = f_{log r}(e^{i theta}) for r >= 1."""

    r: np.ndarray
    theta: np.ndarray
    values: np.ndarray
    valid: np.ndarray
    mu_fd: np.ndarray
    fd_valid: np.ndarray
    continuity_mismatch: float
    r_max: float


def becker_extension(frames: ChainFrames, r_grid=None) -> BeckerExtension:
    """Sample the radial extension of f_0 from range-normalized frames.

    Between checkpoints the trace is interpolated linearly in t = log r.
    The Wirtinger quotient mu_fd comes from polar centered differences of
    the samples, an estimator fully independent of the Herglotz data.
    """
    if frames.tag != "range-normalized":
        raise ValueError("radial extension needs range-normalized frames")
    cps = frames.checkpoints
    r_max = float(np.exp(cps[-1]))
    if r_grid is None:
        r = np.exp(cps)
    else:
        r = np.asarray(r_grid, dtype=float)
        if np.any(r < 1.0):
            raise ValueError("the radial extension lives on r >= 1")
        if np.any(np.log(r) > cps[-1] + 1e-12):
            raise ValueError(f"requested r beyond horizon; achievable r_max = {r_max}")

    logr = np.log(r)
    idx = np.clip(np.searchsorted(cps, logr, side="right") - 1, 0, cps.size - 2)
    lam = (logr - cps[idx]) / (cps[idx + 1] - cps[idx])
    lam = np.clip(lam, 0.0, 1.0)[:, None]
    values = (1.0 - lam) * frames.traces[idx] + lam * frames.traces[idx + 1]
    valid = frames.trace_valid[idx] & frames.trace_valid[idx + 1]

    # two-sided matching across |z| = 1: the r -> 1+ samples against the
    # best available interior stand-in (the half-offset ring when built),
    # an O(delta_trace) gap by construction
    i0 = frames.row(0.0)
    inner_ring = frames.traces_mid[i0] if frames.traces_mid is not None else frames.traces[i0]
    mismatch = float(np.nanmax(np.abs(frames.traces[i0] - inner_ring)))

    # mu = e^{2 i theta} (F_r + i F_theta / r) / (F_r - i F_theta / r)
    mu_fd = np.full(values.shape, np.nan + 0j)
    fd_ok = np.zeros(values.shape, bool)
    if r.size >= 3:
        fr = nonuniform_centered(values, r, axis=0)
        ft = periodic_centered(values, 2.0 * np.pi / frames.n_theta, axis=1)
        e2 = np.exp(2j * frames.theta)[None, :]
        num = fr + 1j * ft / r[:, None]
        den = fr - 1j * ft / r[:, None]
        inner = slice(1, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_fd[inner] = e2 * num[inner] / den[inner]
        fd_ok[inner] = valid[inner] & np.isfinite(mu_fd[inner])
        mu_fd[~fd_ok] = np.nan + 0j

    return BeckerExtension(r, frames.theta, values, valid, mu_fd, fd_ok, mismatch, r_max)


@dataclass
class DilatationReport:
    max_mu_formula: float
    max_mu_fd: float
    agreement: float
    passed: bool
    sense_preserving: bool
    k: float
    tol: float
    n_cells: int
    n_masked: int


def _dilatation(mu_pair, mu_formula, formula_ok, mu_fd, fd_ok, valid,
                k: float, tol_dilat: float, formula_withheld: bool = False) -> DilatationReport:
    """Both estimators' max |mu| on their cells, their agreement, the verdict.

    Pass iff every available estimator stays under k + tol_dilat.  When the
    formula side was withheld (measurable tau), the verdict rests on the
    finite-difference estimator alone.
    """
    mf_vals = np.abs(mu_pair[formula_ok])
    fd_vals = np.abs(mu_fd[fd_ok])
    mf = float(mf_vals.max()) if mf_vals.size else np.nan
    md = float(fd_vals.max()) if fd_vals.size else np.nan
    both = formula_ok & fd_ok
    agree = float(np.abs(mu_formula[both] - mu_fd[both]).max()) if both.any() else np.nan
    sense = bool((fd_vals < 1.0).all()) if fd_vals.size else False
    passed = bool(np.isfinite(md) and md <= k + tol_dilat
                  and (formula_withheld or (np.isfinite(mf) and mf <= k + tol_dilat)))
    n_masked = valid.size - int(np.count_nonzero(valid))
    return DilatationReport(mf, md, agree, passed, sense, k, tol_dilat, valid.size, n_masked)


def dilatation_report(atlas: ExtensionAtlas, k: float,
                      tol_dilat: float = TOL_DILAT) -> DilatationReport:
    """Dilatation verdict of the welded extension on its unmasked cells."""
    return _dilatation(atlas.mu_pair, atlas.mu_formula, atlas.valid & atlas.formula_valid,
                       atlas.mu_fd, atlas.valid & atlas.fd_valid, atlas.valid,
                       k, tol_dilat, formula_withheld=not atlas.formula_valid.any())


def becker_dilatation(f_frames: ChainFrames, g_frames: ChainFrames,
                      p: HerglotzSpec, q: HerglotzSpec, k: float,
                      tol_dilat: float = TOL_DILAT):
    """Radial extension of f_0 (tau = 0) and its dilatation verdict.

    The formula side pairs p with q on the g-chain traces; the
    finite-difference side is the radial extension's own estimator.
    Returns (BeckerExtension, DilatationReport).
    """
    ext = becker_extension(f_frames)
    fs = beltrami_formula(p, q, 0.0, f_frames.checkpoints, f_frames.theta,
                          f_frames.trace_radius, g_frames.traces,
                          g_frames.trace_valid, g_frames.trace_derivs)
    return ext, _dilatation(fs.mu_pair, fs.mu, fs.valid, ext.mu_fd, ext.fd_valid,
                            ext.valid, k, tol_dilat)


def interior_dilatation(field, radii=None, n_theta: int = 128, tol: float = 1e-9,
                        t_inf: float = 64.0) -> float:
    """max |mu_fd| of f_0 sampled on an interior polar grid.

    Phi equals f_0 inside the disk, so this must vanish up to
    discretization; it is the conformal-inside counterpart of the atlas
    estimates.
    """
    if radii is None:
        radii = np.linspace(0.15, 0.85, 15)
    radii = np.asarray(radii, dtype=float)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    pts = radii[:, None] * np.exp(1j * theta)[None, :]
    res = limit_frame(field, 0.0, pts.ravel(), tol, t_inf)
    vals = res.values.reshape(pts.shape)
    fr = nonuniform_centered(vals, radii, axis=0)
    ft = periodic_centered(vals, 2.0 * np.pi / n_theta, axis=1)
    e2 = np.exp(2j * theta)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = e2 * (fr + 1j * ft / radii[:, None]) / (fr - 1j * ft / radii[:, None])
    inner = np.abs(mu[1:-1])
    inner = inner[np.isfinite(inner)]
    return float(inner.max()) if inner.size else np.nan
