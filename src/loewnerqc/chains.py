"""Loewner chains from evolution families.

The range-normalized chain f_t is the chain with f_0(0) = 0, f_0'(0) = 1
and f_s = f_t o phi_{s,t}.  Two evaluators produce it.

The exact autonomous tail.  Every spec declares an autonomy time T_aut
past which p and tau no longer depend on t (0 for constants, the last
breakpoint of step data, the last node of a table; None for an arbitrary
callable).  From T_aut on the evolution is the semigroup of
G = G(., T_aut); a chain whose Loewner range is the plane is unique up to
an affine map, so it is an affine map of a linearizer u of G carried
by one model map m:

    f_t = A m_{t - T_aut}(u) + B,   m_d(w) = e^{lambda d} w - drift d,
    f_t = f_{T_aut} o phi_{t,T_aut}   for t < T_aut.

An interior tau with Re lambda > 0, lambda = (1 - |tau|^2) p(tau), has
the Koenigs function u = K (K' G = -lambda K, K(tau) = 0, K'(tau) = 1)
and drift 0; a tau on the circle whose chain ``beta_limit`` finds to fill
the plane (the parabolic case; a hyperbolic tail, p with a pole at tau,
or a group of automorphisms does not qualify) has the Abel function u = h
(h' G = 1), lambda 0 and drift 1.  One adaptive Gauss-Legendre panel
quadrature integrates both, and A and B follow from f_0(0) = 0 and
f_0'(0) = 1 through the origin's image phi_{0,T_aut}(0).

The push phi_{t,T_aut} of the points before T_aut depends on p alone.  A
p free of z (``VectorFieldHandle.quadratic``: the constant, sector and
time-table specs) makes G(., t) = conj(tau) p z^2 - (1 + |tau|^2) p z + tau p
quadratic, so every phi_{s,t} is a Mobius map, the flow of M' = A(t) M
with A = [[b/2, a], [-c, -b/2]] for G = a + b z + c z^2.  One solve of
three anchor seeds from 0 then fixes Phi_t = phi_{0,t} at every start and
at T_aut, and phi_{s,T_aut} = Phi_{T_aut} Phi_s^{-1}: no frame point is
integrated, and an image at or past the boundary guard is masked at
T_aut.  Any other p pushes every point, and the origin, in one staggered
solve.

The scaling limit, the fallback for a callable with no declared T_aut,
for Re lambda = 0 (rotations) and for a boundary tau whose range is not
certified as the plane: the Mobius normalization

    phi_{s,t} = M_t o psi_{s,t} o M_s^{-1},
    M_t(z) = (beta(t) z + alpha(t)) / (1 + beta(t) conj(alpha(t)) z),

with alpha(t) = phi_{0,t}(0) and beta(t) = phi'_{0,t}(0)/|phi'_{0,t}(0)|,
followed by

    h_s(z) = lim_{u -> inf} psi_{s,u}(z) / psi'_{0,u}(0),
    f_t = h_t o M_t^{-1}.

Each point carries its own time t.  Either evaluator starts the origin at
0 as one more seed of the points' first solve and reads alpha and
phi'_{0,.}(0) from it, so no caller tabulates a normalizer: a whole
chain is one evaluation, and so is a whole transition check.

The horizons of the limit, u = T + 1, 2, 4, ..., t_inf with T the latest
time, double; a point at t < T reaches them through f_t = f_T o phi_{t,T}.
For boundary Denjoy-Wolff data the raw iterates converge only like
O(1/u), far too slowly for the verification tolerances, so they are
accelerated by polynomial (Neville) and rational (Bulirsch-Stoer)
extrapolation in the node x = 1/(u - T).  Raw and accelerated deltas are
both reported, never asserted exact.

Decreasing chains g_t = omega_{0,t} come from direct reverse integration,
or from one forward solve when the field is autonomous from 0, and need
no limit.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .grids import SeedGrid, trace_ring, winding_number, time_row, past_guard
from .herglotz import VectorFieldHandle, field_value, time_samples
from .evolution import DEFAULT_TOL, solve_forward, solve_reverse

DEFAULT_T_INF = 64.0
DEFAULT_TOL_LIMIT = 1e-8
DEFAULT_N_THETA = 256
DEFAULT_DELTA_TRACE = 1e-3
TOL_CHAIN = 1e-6
TOL_BETA = 1e-6

_BETA_PROBES = np.array([0.0, 0.3, -0.25 + 0.25j, 0.4j, -0.5])   # the origin first
_TOL_STABLE = 1e-3          # relative change of a stabilized beta over the last doubling
_CONTAINMENT_PROBES = 32    # trace nodes per winding-number test

# Limit-bound integrations keep pure relative error control: the scaling
# limit divides quantities that decay like exp(-t).
_ATOL_FLOOR = 1e-300


class NormalizationError(RuntimeError):
    """phi'_{0,t}(0) vanished or went non-finite; univalence is broken."""


@functools.cache
def _gauss01(n: int):
    """n-node Gauss-Legendre rule on [0, 1].

    Built on first use: the eigenvalue solve behind it makes the linear
    algebra library allocate its buffers, which a run that never takes
    the exact tail need not pay for.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# levels of panel bisection per integral, and a panel's rounding error per unit scale
_PANEL_SPLITS = 40
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps


# from t_aut on the field is autonomous and its chain moves by the model map
# w -> e^{lam d} w - drift d: lam and drift 0 for Koenigs, lam 0 and drift 1 for Abel
_Tail = namedtuple("_Tail", "t_aut tau lam drift")


def _autonomous_tail(field: VectorFieldHandle, t_inf: float = DEFAULT_T_INF,
                     tol: float = DEFAULT_TOL):
    """The field's exact autonomous tail, or None.

    That needs a declared autonomy time and there either a tau inside the
    disk with Re lambda > 0, lambda = (1 - |tau|^2) p(tau, T_aut), or a tau
    on the circle whose chain ``beta_limit`` (to t_inf at tol, once per field
    and settings) finds to fill the plane.
    """
    t_aut = field.t_aut
    if t_aut is None:
        return None
    t_aut = max(float(t_aut), 0.0)
    tv = complex(field.tau.value(t_aut))
    inside = 1.0 - abs(tv) ** 2
    if inside <= 1e-9:
        key = ("plane", t_inf, tol)
        if key not in field.memo:
            field.memo[key] = beta_limit(field, t_inf=t_inf, tol=tol).classification == "plane"
        return _Tail(t_aut, tv, 0.0, 1.0) if field.memo[key] else None
    lam = complex(inside * field.p.evaluate(np.array([tv]), t_aut)[0])
    return _Tail(t_aut, tv, lam, 0.0) if lam.real > 0.0 else None


def _panel_quadrature(integrand, start: complex, z: np.ndarray, tol_q: float,
                      relative: bool = False, block: int = 256):
    """Integrals of integrand(w) dw over the segments start -> z, and their error estimates.

    A panel is bisected while |Q48 - Q24| of the 48- and 24-node
    Gauss-Legendre rules exceeds tol_q times its scale: its share of the
    segment, or with ``relative`` the larger of that share and |Q48|.
    |Q48 - Q24| is the error of Q24, not of the Q48 the panel returns.  A
    Gauss rule on an analytic integrand converges geometrically in its
    nodes, so doubling them squares the error relative to the scale: the
    panel reports min(1, |Q48 - Q24| / scale) |Q48 - Q24| plus a rounding
    floor of 50 eps scale (QUADPACK's 50 eps).  The points go through in
    blocks; a point's panels, and their summation order, depend on that
    point alone, so no result depends on the block size.
    """
    total, err = np.zeros(z.size, dtype=complex), np.zeros(z.size)

    def quad(n_nodes, seg, lo, hi):
        x, wts = _gauss01(n_nodes)
        w = start + seg[:, None] * (lo[:, None] + (hi - lo)[:, None] * x[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            h = integrand(w)
            # numpy's loop, not BLAS: a row rounds alike in any block, and no thread wakes
            s = np.einsum("ij,j->i", h, wts)
            return np.where(seg == 0, 0.0, seg * (hi - lo) * s)

    for b0 in range(0, z.size, block):
        idx = np.arange(b0, min(b0 + block, z.size))
        lo, hi = np.zeros(idx.size), np.ones(idx.size)
        for level in range(_PANEL_SPLITS + 1):
            seg = z[idx] - start
            q48 = quad(48, seg, lo, hi)
            est = np.abs(q48 - quad(24, seg, lo, hi))
            scale = np.maximum(hi - lo, np.abs(q48)) if relative else hi - lo
            done = ~(est > tol_q * scale) | (level == _PANEL_SPLITS)
            est48 = np.minimum(est, est * est / scale) + _ROUNDING_FLOOR * scale
            np.add.at(total, idx[done], q48[done])
            np.add.at(err, idx[done], est48[done])
            if done.all():
                break
            idx, lo, hi = idx[~done], lo[~done], hi[~done]
            mid = 0.5 * (lo + hi)
            idx, lo, hi = np.tile(idx, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return total, err


def _linearize(field: VectorFieldHandle, tail: _Tail, z: np.ndarray, tol_q: float):
    """(u, u', error of u, relative error of u') of the tail's linearizer at z.

    The one place that reads the tail's kind.  Abel: h integrates 1 / G over
    0 -> z, with a relative panel tolerance since |h| ~ 1 / |z - tau| grows
    toward the boundary tau, and h' = 1 / G is exact.  Koenigs:
    log(K(z) / (z - tau)) integrates -lambda / G(w) - 1 / (w - tau) over
    tau -> z, so its absolute error is the relative error of K and of K'.
    A NaN point comes back NaN.
    """
    t_aut, tv, lam, drift = tail
    p = field.p
    tconj = np.conj(tv)
    if drift:
        def inv_g(w):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / field_value(w, tv, p.evaluate(w, t_aut))

        h, err = _panel_quadrature(inv_g, 0.0, z, tol_q, relative=True)
        return h, inv_g(z), err, np.zeros_like(err)

    def integrand(w):
        return (-lam / ((tconj * w - 1.0) * p.evaluate(w, t_aut)) - 1.0) / (w - tv)

    total, err = _panel_quadrature(integrand, tv, z, tol_q)
    e = np.exp(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (z - tv) * e
        kd = -lam * e / ((tconj * z - 1.0) * p.evaluate(z, t_aut))
    at_tau = z == tv
    k[at_tau], kd[at_tau] = 0.0, 1.0
    return k, kd, np.abs(k) * err, err


def horizon_offsets(t_inf: float = DEFAULT_T_INF) -> np.ndarray:
    """Offsets u - t of the scaling-limit horizons: 1, 2, 4, ..., capped by t_inf."""
    k = int(np.floor(np.log2(t_inf) + 1e-12))
    return 2.0 ** np.arange(0, k + 1)


def _psi_prime0(alpha, dphi):
    """psi'_{0,t}(0) = |phi'_{0,t}(0)| / (1 - |alpha(t)|^2), positive real."""
    return np.abs(dphi) / (1.0 - np.abs(alpha) ** 2)


def _m_inv(alpha, beta, w):
    return (w - alpha) / (beta * (1.0 - np.conj(alpha) * w))


def _polynomial_table(its: np.ndarray, xs: np.ndarray):
    """Last two rows of the Neville table at x = 0 on the nodes xs.

    T[k, m] = (x_{k-m} T[k, m-1] - x_k T[k-1, m-1]) / (x_{k-m} - x_k) is
    the degree-m polynomial extrapolant through nodes k-m..k.  Rows roll,
    so memory stays O(K N); entries past the diagonal are NaN.
    """
    K = its.shape[0]
    prev = np.full(its.shape, np.nan, dtype=complex)
    cur = np.full(its.shape, np.nan, dtype=complex)
    cur[0] = its[0]
    for k in range(1, K):
        prev, cur = cur, prev
        cur[0] = its[k]
        for m in range(1, k + 1):
            a, b = xs[k - m], xs[k]
            cur[m] = (a * cur[m - 1] - b * prev[m - 1]) / (a - b)
    return prev, cur


def _rational_table(its: np.ndarray, xs: np.ndarray):
    """Last two rows of the Bulirsch-Stoer rational table at x = 0.

    Column c holds the order-(c-1) rational extrapolants; T[i, 0] is the
    conventional zero column of the recursion.  Exact for iterates that are
    Mobius functions of x, which is what boundary Denjoy-Wolff data produce.
    Rows roll as in ``_polynomial_table``.
    """
    K = its.shape[0]
    prev = np.full((K + 1,) + its.shape[1:], np.nan, dtype=complex)
    cur = np.full((K + 1,) + its.shape[1:], np.nan, dtype=complex)
    cur[0] = 0.0
    cur[1] = its[0]
    for i in range(1, K):
        prev, cur = cur, prev
        cur[0] = 0.0
        cur[1] = its[i]
        for k in range(1, i + 1):
            num = cur[k] - prev[k]
            den_inner = cur[k] - prev[k - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(den_inner != 0, num / den_inner, 0.0)
                factor = (xs[i - k] / xs[i]) * (1.0 - ratio) - 1.0
                upd = np.where(factor != 0, num / factor, 0.0)
            cur[k + 1] = cur[k] + upd
    return prev, cur


def _best_extrapolant(its: np.ndarray, xs: np.ndarray):
    """Per-point extrapolated limit at x = 0 of iterates taken at nodes xs.

    xs = 1/(u - t) for the horizons u of a limit.  Candidates are the raw
    tail, the last-row polynomial extrapolants (which use only the finest
    horizons) and the last-row rational extrapolants; each point picks the
    candidate with the smallest internal error estimate.  Near the
    Denjoy-Wolff point the 1/u power series can diverge while the rational
    extrapolant stays exact, so no depth is forced globally.  Returns
    (values, per-point error estimates).
    """
    its = np.asarray(its, dtype=complex)
    K = its.shape[0]
    if K < 2:
        return its[-1], np.full(its.shape[1:], np.nan)

    def candidates():
        prev, last = _polynomial_table(its, xs)
        for m in range(1, K):
            est = np.abs(last[m] - last[m - 1])
            if m <= K - 2:
                est = est + np.abs(last[m] - prev[m])
            yield last[m], est
        del prev, last                       # free the Neville rows before the rational ones
        prev, last = _rational_table(its, xs)
        for c in range(2, K + 1):
            est = np.abs(last[c] - last[c - 1])
            if c <= K - 1:
                est = est + np.abs(last[c] - prev[c])
            yield last[c], est

    # a running minimum; a strict < keeps the first of equal estimates, as argmin would
    best_v, best_e = its[-1], np.abs(its[-1] - its[-2])
    best_e = np.where(np.isfinite(best_e) & np.isfinite(best_v), best_e, np.inf)
    for v, e in candidates():
        better = (e < best_e) & np.isfinite(e) & np.isfinite(v)
        best_v = np.where(better, v, best_v)
        best_e = np.where(better, e, best_e)
    return best_v, best_e


@dataclass
class ChainLimitResult:
    """f_t (and d f_t/dz) at the requested points, each at its own t.

    ``t`` is the latest point time.  ``point_delta`` is the per-point
    successive-estimate (or extrapolation) error estimate; ``point_converged``
    compares it against tol_limit scaled by the local value.  ``converged``
    aggregates over all valid points and ``horizon_used`` reports where the
    iteration stopped.  ``warnings`` are those of the solves behind it, each
    once.
    """

    t: float
    values: np.ndarray
    derivs: np.ndarray
    valid: np.ndarray
    point_delta: np.ndarray
    point_converged: np.ndarray
    converged: bool
    acc_delta: float
    horizon_used: float
    accelerated: bool
    warnings: list[str]


def limit_frame(field: VectorFieldHandle, t, points, tol: float = DEFAULT_TOL,
                t_inf: float = DEFAULT_T_INF, tol_limit: float = DEFAULT_TOL_LIMIT
                ) -> ChainLimitResult:
    """Evaluate f_t at the given interior points; t broadcasts against them.

    With an exact autonomous tail (see the module docstring) one solve
    pushes each point from min(t, T_aut), and the origin from 0, to T_aut;
    the model map carries each point on over t - min(t, T_aut).
    ``point_delta`` is then the quadrature's error estimate carried through
    the map, ``horizon_used`` is max(T, T_aut) with T the latest t, and
    nothing is accelerated.

    Otherwise the scaling limit runs on the doubling horizons
    u = T + horizon_offsets(t_inf), its first leg starting each point at its
    own t and the origin at 0.  The iteration stops once the raw iterates
    agree to tol_limit in sup norm (the plain limit), once the extrapolants
    certify every point (from five horizons on), or when the schedule is
    exhausted; in the last two cases extrapolation in x = 1/(u - T)
    supplies the returned values.

    Either way the origin seed counts for nothing in the result.  If it is
    lost, or phi'_{0,.}(0) vanishes or goes non-finite, where it is read,
    NormalizationError is raised.  A non-finite point is masked, never
    integrated; a point at or past the boundary guard raises ValueError.
    """
    ts, pts = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.atleast_1d(np.asarray(points, dtype=complex)))
    if np.any(past_guard(pts)):
        raise ValueError("seed modulus reaches the boundary guard")
    t_last = float(np.max(t))
    tail = _autonomous_tail(field, t_inf, tol)
    if tail is None:
        return _scaling_limit(field, ts, t_last, pts, tol, t_inf, tol_limit)
    return _tail_frame(field, tail, ts, t_last, pts, tol, tol_limit)


def _tail_frame(field, tail, ts, t_last, pts, tol, tol_limit) -> ChainLimitResult:
    """f_t at pts through the exact tail; each point at its own t.

    f_t = c (e u - u_n - shift), (e, shift) the model map's over t - min(t, T_aut) and
    u_n the origin seed's u; c = 1 / (u_n' phi'_{0,T_aut}(0)) puts f_0 in S.  Points
    past T_aut do not move, so the distinct ones are linearized once, and the model
    map is formed once per distinct time.

    The push to T_aut takes one of two paths, by the field alone.  A quadratic
    field (p free of z) takes the Mobius push: phi_{s,T} = Phi_T Phi_s^{-1} from
    ``_mobius_push``, so no point is integrated, and an image at or past the
    boundary guard is masked at T_aut.  Any other field pushes every point, and
    the origin seed, in one staggered solve.  Either way a non-finite point stays
    masked and a point starting at T_aut passes through exactly.
    """
    n = pts.size
    starts = np.append(np.minimum(ts, tail.t_aut), 0.0)
    vals = np.append(pts, 0j)
    ders = np.ones_like(vals)
    warnings = []
    if starts.min() < tail.t_aut:
        ok = np.isfinite(vals)
        if field.quadratic:
            moved = ok & (starts < tail.t_aut)
            vals[moved], ders[moved] = _mobius_push(field, starts[moved], tail.t_aut,
                                                    vals[moved], tol)
            vals[~ok | past_guard(vals)] = np.nan
        else:
            o = solve_forward(field, starts, tail.t_aut, np.where(ok, vals, 0.0), tol=tol,
                              atol=_ATOL_FLOOR)
            vals = np.where(ok & o.live(), o.at(tail.t_aut), np.nan)
            ders, warnings = o.deriv_at(tail.t_aut), o.warnings
    alpha, dphi = vals[n], ders[n]
    if not (np.isfinite(alpha) and np.isfinite(dphi) and dphi != 0):
        raise NormalizationError(
            f"phi'_{{0,T}}(0) lost, vanished or non-finite at T = {tail.t_aut}")
    distinct, back = np.unique(vals, return_inverse=True)
    u, du, u_err, du_rel = _linearize(field, tail, distinct, 1e-2 * tol_limit)
    un, dun, un_err, dun_rel = (x[back[n]] for x in (u, du, u_err, du_rel))
    c = 1.0 / (dun * dphi)
    # the model map w -> e w - shift over each distinct time t - min(t, T_aut)
    times, at = np.unique(ts - starts[:n], return_inverse=True)
    e, shift = np.exp(tail.lam * times), tail.drift * times
    pt = back[:n]
    with np.errstate(invalid="ignore", over="ignore"):
        values = c * (e[at] * u[pt] - un - shift[at])
        derivs = c * e[at] * du[pt] * ders[:n]
        pdelta = abs(c) * (np.abs(e)[at] * u_err[pt] + un_err) + np.abs(values) * dun_rel
    return _limit_result(t_last, values, derivs, pdelta, tol_limit, max(t_last, tail.t_aut),
                         warnings)


# the Mobius push: three anchor seeds fix phi_{0,t}; they integrate at a tenth of the tol
_ANCHORS = 0.6 * np.exp(2j * np.pi * np.arange(3) / 3)
_ANCHOR_TOL = 0.1


def _cross_ratio(x1, x2, x3):
    """Entries (a, b, c, d) of the map z -> (z - x1)(x2 - x3) / ((z - x3)(x2 - x1)),
    which sends x1, x2, x3 to 0, 1, inf."""
    return x2 - x3, -x1 * (x2 - x3), x2 - x1, -x3 * (x2 - x1)


def _mobius_push(field, starts, t_aut, z, tol):
    """(phi_{s,T}(z), phi'_{s,T}(z)) of a quadratic field, each point z from its
    start s to T = t_aut.

    The Riccati flow of G = a + b z + c z^2 is M' = A(t) M with
    A = [[b/2, a], [-c, -b/2]], read through w = (M11 z + M12) / (M21 z + M22),
    so three points fix Phi_t = phi_{0,t}.  One solve carries the ``_ANCHORS``
    from 0 at ``_ANCHOR_TOL`` times tol and records them at every distinct
    start and at T.  Each Phi_t is adj(S_w) S_z, with S_z and S_w the
    cross-ratio maps of the anchors and of their images
    (adj [[a, b], [c, d]] = [[d, -b], [-c, a]]; no LAPACK), scaled to det 1.
    Then phi_{s,T} = Phi_T adj(Phi_s) = [[a, b], [c, d]] and
    phi' = 1 / (c z + d)^2.  A lost anchor, or a non-finite or singular
    matrix, raises NormalizationError.
    """
    times, at = np.unique(np.append(starts, t_aut), return_inverse=True)
    traj = solve_forward(field, 0.0, t_aut, _ANCHORS, tol=_ANCHOR_TOL * tol,
                         checkpoints=times, atol=_ATOL_FLOOR)
    a, b, c, d = _cross_ratio(*np.stack([traj.at(t) for t in times], axis=1))
    e, f, g, h = _cross_ratio(*_ANCHORS)
    m = np.array([[d * e - b * g, d * f - b * h], [a * g - c * e, a * h - c * f]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        m = m / np.sqrt(det)
    if traj.truncated.any() or not (np.isfinite(m).all() and np.all(det != 0)):
        raise NormalizationError(f"Mobius anchors lost, or their map singular, on [0, {t_aut}]")
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    (a, b), (c, d) = np.einsum("ij,jkn->ikn", m[:, :, -1], adj)[:, :, at[:-1]]
    den = c * z + d
    return (a * z + b) / den, 1.0 / den ** 2


def _limit_result(t, values, derivs, pdelta, tol_limit, horizon, warnings, accelerated=False,
                  ok=True) -> ChainLimitResult:
    """The result of either evaluator: points not ok or not finite are masked to
    NaN, and each point is judged against tol_limit max(1, |f|)."""
    valid = ok & np.isfinite(values) & np.isfinite(derivs)
    values, derivs, pdelta = (np.where(valid, x, np.nan) for x in (values, derivs, pdelta))
    point_conv = valid & (pdelta <= tol_limit * np.maximum(1.0, np.abs(values)))
    converged = bool(valid.any() and point_conv[valid].all())
    acc_delta = float(pdelta[valid].max()) if valid.any() else np.nan
    return ChainLimitResult(t, values, derivs, valid, pdelta, point_conv, converged,
                            acc_delta, horizon, accelerated, list(dict.fromkeys(warnings)))


def _scaling_limit(field, ts, t_last, pts, tol, t_inf, tol_limit) -> ChainLimitResult:
    """The horizon loop of ``limit_frame``: the first leg starts each point at
    its own t and the origin seed at 0."""
    n = pts.size
    offsets = horizon_offsets(t_inf)
    xs = 1.0 / offsets
    horizons = t_last + offsets
    vals = np.append(pts, 0j)
    ders = np.ones_like(vals)
    carried = np.append(np.isfinite(pts), True)
    live = carried[:n]                       # the points; the last entry is the seed
    its, dits = [], []
    last_delta = np.nan
    starts = np.append(ts, 0.0)
    used = float(horizons[-1])
    stopped_raw = False
    certified = None                         # (values, deltas, derivs) of the extrapolants
    warnings = []
    for u in horizons:
        u = float(u)
        if live.any():
            leg = solve_forward(field, starts[carried], u, vals[carried], tol=tol,
                                atol=_ATOL_FLOOR)
            lv, ld = leg.at(u), leg.deriv_at(u)
            warnings += leg.warnings
            ok = leg.live() & np.isfinite(lv) & np.isfinite(ld)
            upd = np.flatnonzero(carried)
            vals[upd[ok]] = lv[ok]
            ders[upd[ok]] = ld[ok] * ders[upd[ok]]
            carried[upd[~ok]] = False
        starts[:] = u
        alpha, dphi = vals[n], ders[n]
        if not (carried[n] and np.isfinite(dphi) and dphi != 0):
            raise NormalizationError(f"phi'_{{0,u}}(0) lost, vanished or non-finite at u = {u}")
        beta = dphi / abs(dphi)
        sp = _psi_prime0(alpha, dphi)
        w = vals[:n]
        with np.errstate(divide="ignore", invalid="ignore"):    # lost points hold NaN
            m_inv_deriv = (1.0 - abs(alpha) ** 2) / (beta * (1.0 - np.conj(alpha) * w) ** 2)
            its.append(np.where(live, _m_inv(alpha, beta, w) / sp, np.nan + 0j))
            dits.append(np.where(live, m_inv_deriv * ders[:n] / sp, np.nan + 0j))
        if len(its) >= 2 and live.any():
            d_new = float(np.abs((its[-1] - its[-2])[live]).max())
            # once psi'_{0,u}(0) decays toward machine scale the Mobius
            # renormalization cancels catastrophically and the deltas
            # re-diverge after having nearly converged; such horizons carry
            # only noise and are discarded
            if np.isfinite(last_delta) and last_delta < 1e-4 and d_new > 10.0 * last_delta:
                its.pop()
                dits.pop()
                break
            last_delta = d_new
            used = u
            d_deriv = float(np.abs((dits[-1] - dits[-2])[live]).max())
            deriv_scale = max(1.0, float(np.abs(dits[-1][live]).max()))
            if last_delta < tol_limit and d_deriv < tol_limit * deriv_scale:
                stopped_raw = True
                break
        # with five or more horizons the extrapolants usually settle long
        # before the raw tail does; stop once they certify every live point,
        # derivatives included (they converge slower for boundary tau data)
        if len(its) >= 5 and live.any():
            v_try, ve = _best_extrapolant(np.stack(its), xs[:len(its)])
            d_try, de = _best_extrapolant(np.stack(dits), xs[:len(its)])
            v_ok = ve[live] <= tol_limit * np.maximum(1.0, np.abs(v_try[live]))
            d_ok = de[live] <= tol_limit * np.maximum(1.0, np.abs(d_try[live]))
            if bool(v_ok.all()) and bool(d_ok.all()):
                used = u
                certified = (v_try, ve, d_try)
                break

    accelerated = not stopped_raw and len(its) >= 3
    if not accelerated:
        values, derivs = its[-1], dits[-1]
        pdelta = np.abs(its[-1] - its[-2]) if len(its) >= 2 else np.full(pts.shape, np.nan)
    elif certified is None:
        values, pdelta = _best_extrapolant(np.stack(its), xs[:len(its)])
        derivs, _ = _best_extrapolant(np.stack(dits), xs[:len(its)])
    else:
        values, pdelta, derivs = certified
    return _limit_result(t_last, values, derivs, pdelta, tol_limit, used, warnings, accelerated,
                         ok=live & np.isfinite(its[-1]))


# ---------------------------------------------------------------------------
# chain frames


@dataclass
class ChainFrames:
    """Discretized chain: values on the seed grid, on one near-boundary trace
    ring (1 - delta_trace) e^{i theta} and at the origin, one row per time.

    The ``*derivs`` arrays carry d f_t / dz from the variational equation,
    exact up to integration error (no grid differencing).  Decreasing
    chains need no limit: their rows are converged with zero deltas.

    The frames keep the field they integrated, ``vector_field``, and the
    settings of the build: ``tol``, and ``t_inf`` and ``tol_limit`` of the
    limit (None for decreasing frames).  The checks read them from here.
    """

    tag: str
    checkpoints: np.ndarray
    grid: SeedGrid
    values: np.ndarray
    derivs: np.ndarray
    grid_valid: np.ndarray
    theta: np.ndarray
    trace_radius: float
    traces: np.ndarray
    trace_derivs: np.ndarray
    trace_valid: np.ndarray
    origin_values: np.ndarray
    origin_derivs: np.ndarray
    converged: np.ndarray
    acc_delta: np.ndarray
    vector_field: VectorFieldHandle
    tol: float
    t_inf: float | None
    tol_limit: float | None
    warnings: list[str] = field(default_factory=list)

    @property
    def n_theta(self) -> int:
        return self.theta.size

    def row(self, t: float) -> int:
        return time_row(self.checkpoints, t, "checkpoint {t} not stored")


def _frame_points(grid: SeedGrid, n_theta: int, delta_trace: float) -> np.ndarray:
    """Frame points in column order: grid | trace ring | origin."""
    return np.concatenate([grid.points, trace_ring(n_theta, delta_trace), np.zeros(1, complex)])


def _frames(tag, cps, grid, n_theta, delta_trace, vals, ders, ok, conv, acc,
            settings, solve_warnings=()) -> ChainFrames:
    """ChainFrames from (checkpoint x frame point) arrays in _frame_points order.

    ok marks valid (finite, untruncated) data and conv per-point limit
    convergence, or is None for a chain built without a limit.  settings
    is (vector_field, tol, t_inf, tol_limit) of the build.  A row
    counts as converged when every valid grid point converged and at least
    one grid point is valid.  The warnings are the solves' own, each once,
    then per row an unconverged row and its masked trace nodes.
    """
    n_grid = len(grid)
    g, r = slice(0, n_grid), slice(n_grid, n_grid + n_theta)
    warnings = list(dict.fromkeys(solve_warnings))
    if conv is None:
        tvalid = ok[:, r]
        converged = np.ones(cps.size, bool)
    else:
        # trace nodes also need per-point convergence: atlases consume them blindly
        tvalid = ok[:, r] & conv[:, r]
        converged = (conv[:, g] | ~ok[:, g]).all(axis=1) & ok[:, g].any(axis=1)
    for i, t in enumerate(cps):
        if not converged[i]:
            warnings.append(f"chain limit unconverged on the grid at t = {t} "
                            f"(delta {acc[i]:.3g})")
        n_masked = int(np.count_nonzero(~tvalid[i]))
        if n_masked:
            warnings.append(f"{n_masked} trace node(s) masked at t = {t}")
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return ChainFrames(tag, cps, grid, vals[:, g], ders[:, g], ok[:, g],
                       theta, 1.0 - delta_trace, vals[:, r], ders[:, r], tvalid,
                       vals[:, -1], ders[:, -1], converged, acc, *settings, warnings)


def range_normalized_chain(field: VectorFieldHandle, checkpoints, grid: SeedGrid,
                           n_theta: int = DEFAULT_N_THETA, delta_trace: float = DEFAULT_DELTA_TRACE,
                           tol: float = DEFAULT_TOL, t_inf: float = DEFAULT_T_INF,
                           tol_limit: float = DEFAULT_TOL_LIMIT) -> ChainFrames:
    """Frames of the range-normalized chain f_t at every checkpoint.

    Every frame samples the seed grid, one trace ring at |z| = 1 -
    delta_trace and the origin.  The whole chain is one ``limit_frame``
    evaluation with each row's points at the row's time, which carries the
    normalizer with them and raises NormalizationError if it breaks down.
    With t_0 = 0 the frame origin at row 0 and the origin seed start alike
    in one solve, so f_0(0) = 0 holds exactly.

    ``verify_transitions`` evaluates f_t afresh at the images of every
    pair, in one batch of its own.  The caller checks f_0(0) = 0 and
    f_0'(0) = 1 against its own tolerance.
    """
    cps = np.unique(np.asarray(checkpoints, dtype=float))
    pts = _frame_points(grid, n_theta, delta_trace)
    res = limit_frame(field, np.repeat(cps, pts.size), np.tile(pts, cps.size), tol, t_inf,
                      tol_limit)
    vals, ders, ok, delta, conv = (x.reshape(cps.size, pts.size) for x in (
        res.values, res.derivs, res.valid, res.point_delta, res.point_converged))
    acc = np.array([float(d[v].max()) if v.any() else np.nan for d, v in zip(delta, ok)])
    return _frames("range-normalized", cps, grid, n_theta, delta_trace,
                   vals, ders, ok, conv, acc, (field, tol, t_inf, tol_limit), res.warnings)


def decreasing_chain(field: VectorFieldHandle, checkpoints, grid: SeedGrid,
                     n_theta: int = DEFAULT_N_THETA, delta_trace: float = DEFAULT_DELTA_TRACE,
                     tol: float = DEFAULT_TOL) -> ChainFrames:
    """Decreasing chain g_t = omega_{0,t} at every checkpoint.

    omega_{0,t} integrates the fields G(., s), s in [0, t], in reverse
    order.  A field autonomous from 0 (T_aut = 0) has one G, whose flow
    commutes with itself, so omega_{0,t} = phi_{0,t}: one forward solve
    records every row.  Any other field takes one reverse solve per
    checkpoint.  A point is valid in a row where its value and derivative
    are finite: a seed the forward solve truncates at s keeps its rows
    before s, as the reverse solves keep them.

    The frames sample the same points as ``range_normalized_chain``: the
    seed grid, one trace ring at |z| = 1 - delta_trace and the origin.
    They carry the solves' warnings and each row's masked trace nodes.
    """
    cps = np.unique(np.asarray(checkpoints, dtype=float))
    pts = _frame_points(grid, n_theta, delta_trace)
    if field.t_aut == 0.0:
        traj = solve_forward(field, 0.0, float(cps[-1]), pts, tol=tol, checkpoints=cps)
        rows = [traj.row(t) for t in cps]
        vals, ders, warnings = traj.values[rows], traj.derivs[rows], traj.warnings
    else:
        trajs = [solve_reverse(field, float(t), pts, tol=tol) for t in cps]
        vals = np.stack([tr.at(0.0) for tr in trajs])
        ders = np.stack([tr.deriv_at(0.0) for tr in trajs])
        warnings = [w for tr in trajs for w in tr.warnings]
    ok = np.isfinite(vals) & np.isfinite(ders)
    return _frames("decreasing", cps, grid, n_theta, delta_trace, vals, ders, ok, None,
                   np.zeros(cps.size), (field, tol, None, None), warnings)


# ---------------------------------------------------------------------------
# range classification


@dataclass
class RangeReport:
    """Loewner-range classification from the beta limit.

    beta0 is the reported estimate at the origin probe: the raw value once
    it stabilizes or drops under TOL_BETA, otherwise the Richardson limit
    of the doubling sequence clipped to [0, last raw value] (the raw
    estimates are non-increasing, so the true limit lives there).
    """

    classification: str
    beta0: float
    radius: float | None
    raw_last: np.ndarray
    history: np.ndarray
    horizons: np.ndarray
    warnings: list[str] = field(default_factory=list)


def beta_limit(field: VectorFieldHandle, t_inf: float = DEFAULT_T_INF,
               tol: float = DEFAULT_TOL) -> RangeReport:
    """Estimate beta(z) = lim |phi'_{0,t}(z)| / (1 - |phi_{0,t}(z)|^2) at _BETA_PROBES.

    The sequence along the doubling horizons is non-increasing (Schwarz-Pick),
    so each probe is classified as zero when the raw tail or its Richardson
    limit falls under TOL_BETA, nonzero when the tail has changed by at most
    _TOL_STABLE over the last doubling, and inconclusive otherwise.  The
    plane/disk verdict requires all probes to agree; the theory makes beta
    vanish either everywhere or nowhere.  beta0 is read at probe 0, the origin.
    """
    probes = _BETA_PROBES

    # the classifier reads tail ratios of successive doublings
    horizons = horizon_offsets(t_inf)
    traj = solve_forward(field, 0.0, float(horizons[-1]), probes, tol=tol,
                         checkpoints=horizons, atol=_ATOL_FLOOR)
    hist = np.empty((horizons.size, probes.size))
    for k, u in enumerate(horizons):
        w, dw = traj.at(u), traj.deriv_at(u)
        hist[k] = np.abs(dw) / (1.0 - np.abs(w) ** 2)

    raw_last = hist[-1]
    best, _ = _best_extrapolant(hist.astype(complex), 1.0 / horizons)
    # the raw sequence is non-increasing and nonnegative, so the limit is
    # bracketed by [0, last raw value]
    extrap = np.clip(best.real, 0.0, raw_last)
    classes = []
    warnings = []
    for j in range(probes.size):
        b = hist[:, j]
        if not np.all(np.isfinite(b)):
            classes.append("inconclusive")
            warnings.append(f"non-finite beta estimates at probe {probes[j]}")
            continue
        if raw_last[j] <= TOL_BETA:
            classes.append("zero")
            continue
        tail = b[-4:]
        ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
        if np.all(ratios <= 0.9) and extrap[j] <= TOL_BETA:
            classes.append("zero")
            continue
        rel_change = abs(b[-1] - b[-2]) / max(b[-1], 1e-300)
        if rel_change <= _TOL_STABLE:
            classes.append("nonzero")
        else:
            classes.append("inconclusive")
            warnings.append(
                f"beta at probe {probes[j]} neither stabilized nor contracting "
                f"(last values {b[-3:]})")

    if all(c == "zero" for c in classes):
        cls = "plane"
        beta0 = float(raw_last[0] if raw_last[0] <= TOL_BETA else extrap[0])
        radius = None
    elif all(c == "nonzero" for c in classes):
        cls = "disk"
        beta0 = float(raw_last[0])
        radius = 1.0 / beta0
    else:
        cls = "inconclusive"
        beta0 = float(raw_last[0])
        radius = None
        warnings.append(f"probes disagree on the zero set: {classes}")
    return RangeReport(cls, beta0, radius, raw_last, hist, horizons, warnings)


# ---------------------------------------------------------------------------
# verification


@dataclass
class TransitionReport:
    residual: float
    per_pair: list[tuple[float, float, float]]
    passed: bool


def verify_transitions(frames: ChainFrames, tol_chain: float = TOL_CHAIN) -> TransitionReport:
    """Check f_s = f_t o phi_{s,t} on the stored grid and origin for checkpoint pairs.

    The pairs are the consecutive checkpoints and, with more than two, the
    first and the last.  Both sides come from independent computations: the
    stored frame at s against f_t at the points' images under phi_{s,t},
    one s -> t solve per pair.  One ``limit_frame`` call (exact tail or
    scaling limit) evaluates the images of every pair, each at its pair's
    t, with the field and settings the frames were built with.  The origin
    is among the points, so the pairs (0, t) also check the stored f_0(0)
    against f_t(phi_{0,t}(0)) from a batch of its own.  A pair with nothing
    to compare reads NaN, and so does the residual: the report fails.
    Fewer than two checkpoints, and so no pair, raise ValueError.
    """
    if frames.tag != "range-normalized":
        raise ValueError("transition identity applies to range-normalized frames")
    field, tol, cps = frames.vector_field, frames.tol, frames.checkpoints
    if cps.size < 2:
        raise ValueError("need >= 2 checkpoints for a transition pair")
    pairs = [(i, i + 1) for i in range(cps.size - 1)]
    if cps.size > 2:
        pairs.append((0, cps.size - 1))
    first, last = np.transpose(pairs)
    s, t = cps[first], cps[last]
    pts = np.append(frames.grid.points, 0.0)
    stored = np.column_stack([frames.values, frames.origin_values])[first]
    img = np.empty_like(stored)
    for k in range(len(pairs)):
        traj = solve_forward(field, float(s[k]), float(t[k]), pts, tol=tol, atol=_ATOL_FLOOR)
        img[k] = np.where(traj.live(), traj.at(float(t[k])), np.nan)
    ok = np.column_stack([frames.grid_valid[first], np.isfinite(stored[:, -1])]) & np.isfinite(img)
    gap = np.full(img.shape, np.nan)
    if ok.any():
        res = limit_frame(field, np.repeat(t, ok.sum(1)), img[ok], tol, frames.t_inf,
                          frames.tol_limit)
        gap[ok] = np.abs(res.values - stored[ok])
    # the largest finite gap per pair; a pair with none is NaN, which fails the report
    per_pair = np.fmax.reduce(gap, axis=1, initial=np.nan)
    worst = float(np.max(per_pair))
    return TransitionReport(worst, list(zip(s.tolist(), t.tolist(), per_pair.tolist())),
                            worst <= tol_chain)


@dataclass
class PdeReport:
    rel_residual: float
    resolution_limited: bool


def verify_chain_pde(frames: ChainFrames, r_max: float | None = None) -> PdeReport:
    """Residual of the chain PDE of the frames' own field at interior checkpoints.

    d f_t / dt comes from numpy's three-point gradient of the frames over
    the checkpoint times, second order on any spacing; d f_t / dz is the
    stored variational derivative.  The residual is reported relative to
    |d f/dz| * sup|p|.  Checkpoints within a step of a jump of tau are left
    out.  The residual is a max over rows, so the coarsest row sets it:
    ``resolution_limited`` says the largest spacing exceeds 0.05.
    """
    field = frames.vector_field
    cps = frames.checkpoints
    if cps.size < 3:
        raise ValueError("need >= 3 checkpoints for time differencing")
    sel = np.ones(len(frames.grid), bool)
    if r_max is not None:
        sel = np.abs(frames.grid.points) <= r_max + 1e-12
    z = frames.grid.points[sel]
    vals = frames.values[:, sel]
    dfs = frames.derivs[:, sel]

    dt_all = np.diff(cps)
    lhs = np.gradient(vals, cps, axis=0, edge_order=1)

    zs, t = time_samples(z, cps)
    tv = field.tau.value(t)
    pv = field.p.evaluate(zs, t)
    sup_p = float(np.abs(pv).max(initial=0.0))
    if frames.tag == "range-normalized":
        a = (zs - tv) * (1.0 - np.conj(tv) * zs)
    else:
        a = (zs - tv) * (np.conj(tv) * zs - 1.0)
    rhs = a * dfs * pv

    interior = np.arange(1, cps.size - 1)
    # keep a full step away from tau's switching times
    for b in field.tau.breakpoints:
        interior = interior[np.abs(cps[interior] - b) > dt_all.max() + 1e-12]
    resid = np.abs(lhs[interior] - rhs[interior])
    denom = np.abs(dfs[interior]) * max(sup_p, 1e-300)
    with np.errstate(invalid="ignore"):
        rel = resid / denom
    rel_res = float(np.nanmax(rel)) if rel.size else np.nan
    return PdeReport(rel_res, bool(dt_all.max() > 0.05))


@dataclass
class ContainmentReport:
    """Trace-curve nesting along the chain, by winding-number tests."""

    passed: bool
    checked_pairs: int
    violations: int
    lambda_diameter: float | None


def verify_containment(frames: ChainFrames) -> ContainmentReport:
    """Spot-check image monotonicity using trace polygons.

    For decreasing frames each later trace must wind once inside every
    earlier one; for range-normalized frames the nesting is reversed.
    Probes closer to the outer polygon than twice its local edge length are
    skipped: domains with a common boundary fixed point are internally
    tangent there and the trace offset cannot resolve which side a point
    falls on.  The diameter of the last trace hull is reported for
    decreasing chains (it collapses when the intersection set degenerates
    to a point).
    """
    nt = frames.checkpoints.size
    step = max(1, frames.n_theta // _CONTAINMENT_PROBES)
    violations = 0
    checked = 0
    for i in range(nt - 1):
        outer_i, inner_i = (i, i + 1) if frames.tag == "decreasing" else (i + 1, i)
        if not (frames.trace_valid[outer_i].all() and frames.trace_valid[inner_i].all()):
            continue
        poly = frames.traces[outer_i]
        probes = frames.traces[inner_i][::step]
        edge = np.abs(np.roll(poly, -1) - poly)
        local_scale = np.maximum(edge, np.roll(edge, 1))
        dist = np.abs(probes[:, None] - poly[None, :])
        nearest = np.argmin(dist, axis=1)
        clear = dist[np.arange(probes.size), nearest] > 2.0 * local_scale[nearest]
        checked += 1
        if clear.any():
            w = winding_number(poly, probes[clear])
            if not np.all(w == 1):
                violations += 1
    lam = None
    if frames.tag == "decreasing" and frames.trace_valid[-1].all():
        tr = frames.traces[-1]
        lam = float(np.abs(tr[:, None] - tr[None, :]).max())
    return ContainmentReport(violations == 0, checked, violations, lam)


def frames_coincide_up_to_rotation(frames: ChainFrames, tol: float = 1e-9) -> tuple[bool, float]:
    """True when every frame is a rigid rotation of the first (T = 0 data)."""
    ref = frames.values[0]
    ok = frames.grid_valid.all(axis=0)
    zref = ref[ok]
    j = int(np.argmax(np.abs(zref)))
    worst = 0.0
    for i in range(1, frames.checkpoints.size):
        cur = frames.values[i][ok]
        rot = zref[j] / cur[j]
        rot /= abs(rot)
        worst = max(worst, float(np.abs(cur * rot - zref).max()))
    return worst <= tol, worst
