"""Berkson-Porta data: Herglotz functions, Denjoy-Wolff functions, vector fields.

A Herglotz function p(z, t) is holomorphic in z on the unit disk with
Re p >= 0, measurable in t.  Together with a Denjoy-Wolff function
tau(t) into the closed disk it assembles the vector field

    G(z, t) = (z - tau(t)) (conj(tau(t)) z - 1) p(z, t),

whose flow is the evolution family.  Every Herglotz kind is one evaluator
``pair(z, t) -> (p, dp/dz)``, and every field evaluation goes through one
kernel that applies the product rule to it.  The module also holds every
pointwise criterion check on p (Herglotz property, Becker and pair
inequalities, sector bound, Cayley transfer to the half plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Default tolerances for the grid checks.  Criteria are suprema over the
# disk and a.e. time; sampling plus these margins stands in for them.
TOL_CRITERION = 1e-6
TOL_HERGLOTZ = 1e-6
TOL_HOLO = 1e-6
HOLO_STEP = 1e-4
DZ_STEP = 1e-5


class SpecError(ValueError):
    """Structurally invalid Herglotz / Denjoy-Wolff specification."""


def _interp_table(ts, vs):
    """Complex linear interpolant t -> value through the nodes (ts, vs)."""
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=complex)
    if ts.size != vs.size or ts.size == 0:
        raise SpecError("time table needs matching nonempty t and value lists")
    if np.any(np.diff(ts) <= 0):
        raise SpecError("time table abscissae must be strictly increasing")

    def f(t):
        return np.interp(t, ts, vs.real) + 1j * np.interp(t, ts, vs.imag)

    return f


def _horner(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size == 1:
        return np.full_like(z, coeffs[0])
    v = z * coeffs[-1] + coeffs[-2]
    for c in coeffs[-3::-1]:
        v = v * z + c
    return v


def _full(z: np.ndarray, c) -> tuple[np.ndarray, np.ndarray]:
    """(p, dp/dz) of a value c that does not depend on z."""
    pv = np.full_like(z, c)
    return pv, np.zeros_like(pv)


@dataclass
class HerglotzSpec:
    """One of the built-in Herglotz-function kinds plus its evaluator.

    ``pair(z, t)`` takes a complex ndarray ``z`` and a scalar time and
    returns the ndarrays ``(p, dp/dz)``; it is the integrator's hot path.
    Built-in kinds differentiate analytically, user-sampled z-dependent
    data by a centered difference of step ``DZ_STEP``.  ``evaluate(z, t)``
    is the value alone.
    """

    kind: str
    pair: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]
    params: dict = field(default_factory=dict)

    def evaluate(self, z, t: float) -> np.ndarray:
        return self.pair(np.asarray(z, dtype=complex), t)[0]

    @classmethod
    def constant(cls, c) -> "HerglotzSpec":
        c = complex(c)
        if c.real < 0:
            raise SpecError(f"constant Herglotz value {c} has Re < 0")
        return cls("constant", lambda z, t: _full(z, c), params={"value": c})

    @classmethod
    def mobius_kernel(cls, driving: Callable[[float], complex]) -> "HerglotzSpec":
        """Slit-type kernel p(z,t) = (kappa(t) + z) / (kappa(t) - z).

        kappa must be unimodular; this orientation satisfies p(0,t) = 1 and
        Re p > 0 on the disk.
        """

        def pair(z, t):
            kap = complex(driving(t))
            if abs(abs(kap) - 1.0) > 1e-9:
                raise SpecError(f"mobius_kernel driving |kappa({t})| = {abs(kap)}, expected 1")
            w = kap - z
            return (kap + z) / w, 2.0 * kap / w ** 2

        return cls("mobius_kernel", pair, params={"driving": driving})

    @classmethod
    def sector(cls, opening: float, profile: Callable[[float], complex]) -> "HerglotzSpec":
        """z-independent values confined to the sector |arg| <= opening*pi/2."""
        if not 0.0 <= opening < 1.0:
            raise SpecError(f"sector opening {opening} outside [0, 1)")
        half = opening * math.pi / 2.0

        def pair(z, t):
            c = complex(profile(t))
            if c != 0 and abs(math.atan2(c.imag, c.real)) > half + 1e-12:
                raise SpecError(f"sector profile value {c} leaves |arg| <= {half}")
            return _full(z, c)

        return cls("sector", pair, params={"opening": opening, "profile": profile})

    @classmethod
    def rational(cls, numerator, denominator) -> "HerglotzSpec":
        """Time-constant rational p(z) = sum a_i z^i / sum b_i z^i."""
        num = np.asarray(numerator, dtype=complex)
        den = np.asarray(denominator, dtype=complex)
        if num.size == 0 or den.size == 0 or np.all(den == 0):
            raise SpecError("rational_table needs nonempty numerator and denominator")
        dnum = np.polynomial.polynomial.polyder(num) if num.size > 1 else np.zeros(1, complex)
        dden = np.polynomial.polynomial.polyder(den) if den.size > 1 else np.zeros(1, complex)

        def pair(z, t):
            n, d = _horner(z, num), _horner(z, den)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / d
                pv = n * inv
                return pv, (_horner(z, dnum) - pv * _horner(z, dden)) * inv

        return cls("rational_table", pair, params={"numerator": num, "denominator": den})

    @classmethod
    def sampled(cls, fn: Callable[[np.ndarray, float], np.ndarray],
                z_independent: bool = False) -> "HerglotzSpec":
        """Wrap a user evaluator; it must accept ndarray z and scalar t."""
        if z_independent:
            def pair(z, t):
                pv = fn(z, t)
                return pv, np.zeros_like(pv)
        else:
            def pair(z, t):
                return fn(z, t), (fn(z + DZ_STEP, t) - fn(z - DZ_STEP, t)) / (2.0 * DZ_STEP)
        return cls("user_sampled", pair)

    @classmethod
    def from_time_table(cls, ts, values) -> "HerglotzSpec":
        """z-independent samples p(t), linearly interpolated between nodes."""
        f = _interp_table(ts, values)
        return cls("user_sampled", lambda z, t: _full(z, f(t)),
                   params={"ts": np.asarray(ts, float), "values": np.asarray(values, complex)})


@dataclass
class DenjoyWolffSpec:
    """Denjoy-Wolff function tau(t) into the closed unit disk."""

    kind: str
    value: Callable[[float], complex]
    breakpoints: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)

    @classmethod
    def constant(cls, tau) -> "DenjoyWolffSpec":
        tau = complex(tau)
        if abs(tau) > 1.0 + 1e-12:
            raise SpecError(f"|tau| = {abs(tau)} > 1")
        return cls("constant", lambda t: tau, params={"value": tau})

    @classmethod
    def step(cls, breakpoints, values) -> "DenjoyWolffSpec":
        bps = [float(b) for b in breakpoints]
        vals = [complex(v) for v in values]
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise SpecError("step breakpoints must be strictly increasing")
        if len(vals) != len(bps) + 1:
            raise SpecError("step needs exactly one more value than breakpoints")
        for i, v in enumerate(vals):
            if abs(v) > 1.0 + 1e-12:
                raise SpecError(f"step value {i} has |tau| = {abs(v)} > 1")
        arr_b = np.asarray(bps, float)
        arr_v = np.asarray(vals, complex)

        def f(t):
            return complex(arr_v[np.searchsorted(arr_b, t, side="right")])

        return cls("step", f, breakpoints=tuple(bps),
                   params={"breakpoints": arr_b, "values": arr_v})

    @classmethod
    def sampled(cls, fn: Callable[[float], complex], modulus_bound: float = 1.0) -> "DenjoyWolffSpec":
        if modulus_bound > 1.0 + 1e-12:
            raise SpecError(f"declared modulus bound {modulus_bound} > 1")
        return cls("sampled", fn, params={"modulus_bound": modulus_bound})

    @classmethod
    def step_with_tail(cls, breakpoints, values, horizon: float,
                       tail: Callable[[float], complex]) -> "DenjoyWolffSpec":
        """Step cells on [0, horizon), an arbitrary evaluator beyond.

        Used by the approximation experiments: the data are approximated on
        a finite window and agree with the target exactly afterwards, which
        is what makes the weak-convergence experiments measure the window
        approximation instead of an incidental tail mismatch.
        """
        base = cls.step(list(breakpoints), list(values))
        horizon = float(horizon)

        def f(t):
            return base.value(t) if t < horizon else complex(tail(t))

        return cls("step_tail", f, breakpoints=tuple(breakpoints) + (horizon,),
                   params={"horizon": horizon, "step": base, "tail": tail})

    def is_constant(self, value=None) -> bool:
        if self.kind != "constant":
            return False
        return value is None or self.params["value"] == complex(value)

    def frozen_on(self, a: float, b: float):
        """Constant tau value on [a, b], or None when tau varies there.

        Integration segments never straddle a breakpoint, so freezing at the
        segment midpoint removes the boundary ambiguity of step data; tails
        and sampled data stay time-dependent.
        """
        if self.kind == "constant":
            return self.params["value"]
        mid = 0.5 * (a + b)
        if self.kind == "step":
            return complex(self.value(mid))
        if self.kind == "step_tail" and b <= self.params["horizon"] + 1e-12:
            return complex(self.value(mid))
        return None


def _field_pair(z: np.ndarray, tv, pv: np.ndarray, dp: np.ndarray):
    """(G, dG/dz) for G = (z - tv)(conj(tv) z - 1) p, by the product rule.

    G is exactly 0 at z = tv.  tv may be a scalar or an array shaped like z.
    """
    tconj = np.conj(tv)
    af = (z - tv) * (tconj * z - 1.0)
    return af * pv, (2.0 * tconj * z - (1.0 + abs(tv) ** 2)) * pv + af * dp


@dataclass
class VectorFieldHandle:
    """Assembled Berkson-Porta vector field with its discontinuity set."""

    p: HerglotzSpec
    tau: DenjoyWolffSpec
    discontinuities: tuple[float, ...]

    def tau_at(self, t: float) -> complex:
        v = complex(self.tau.value(t))
        if abs(v) > 1.0 + 1e-9:
            raise SpecError(f"|tau({t})| = {abs(v)} > 1")
        return v

    def pair(self, z: np.ndarray, t: float):
        """(G, dG/dz) at time t, with |tau(t)| <= 1 checked."""
        z = np.asarray(z, dtype=complex)
        return _field_pair(z, self.tau_at(t), *self.p.pair(z, t))

    def segment_rhs(self, a: float, b: float) -> Callable:
        """(G, dG/dz) evaluator ``pair(z, t)`` valid on [a, b].

        Segments never straddle a breakpoint; where tau is constant on the
        segment it is resolved once (at the midpoint for step data), so that
        stage evaluations at the segment endpoints cannot pick up the
        neighbouring interval.  Elsewhere tau is read at every stage.
        """
        p_pair = self.p.pair
        frozen = self.tau.frozen_on(a, b)
        if frozen is not None:
            tv = complex(frozen)

            def pair(z, t):
                return _field_pair(z, tv, *p_pair(z, t))
        else:
            tau_of = self.tau.value

            def pair(z, t):
                return _field_pair(z, complex(tau_of(t)), *p_pair(z, t))

        return pair


def assemble_field(p: HerglotzSpec, tau: DenjoyWolffSpec,
                   probe_times=(0.0, 0.5, 1.0, 2.0, 4.0)) -> VectorFieldHandle:
    """Build the vector field handle, rejecting |tau| > 1 at any probe."""
    for t in tuple(probe_times) + tau.breakpoints:
        v = complex(tau.value(float(t)))
        if abs(v) > 1.0 + 1e-12:
            raise SpecError(f"|tau({t})| = {abs(v)} > 1")
    return VectorFieldHandle(p=p, tau=tau, discontinuities=tau.breakpoints)


# ---------------------------------------------------------------------------
# criteria checks


@dataclass
class CheckReport:
    """Outcome of a grid criterion check.

    The extremal statistic, its witness sample, the pass flag, and the time
    nodes at which the criterion failed.  A violation confined to a single
    isolated time node is downgraded to a warning (measurable data are only
    known at quadrature nodes); violations on two consecutive nodes, on all
    nodes, or on the only node fail.
    """

    statistic: float
    worst_z: complex
    worst_t: float
    passed: bool
    warnings: list[str] = field(default_factory=list)
    failing_times: list[float] = field(default_factory=list)
    nonfinite: int = 0
    skipped: int = 0


def _node_verdict(times, node_fails, report: CheckReport, label: str):
    idx = [i for i, bad in enumerate(node_fails) if bad]
    report.failing_times = [float(times[i]) for i in idx]
    if not idx:
        report.passed = True
        return
    consecutive = any(j - i == 1 for i, j in zip(idx, idx[1:]))
    if consecutive or len(idx) == len(node_fails):
        report.passed = False
        return
    report.passed = True
    report.warnings.append(
        f"{label} violated only at isolated time node(s) {report.failing_times}; "
        "downgraded to a warning"
    )


def check_herglotz(p: HerglotzSpec, grid: np.ndarray, times, tol: float = TOL_HERGLOTZ) -> CheckReport:
    """min Re p over the sample set; passes iff >= -tol at a.e. node."""
    grid = np.asarray(grid, dtype=complex)
    times = np.asarray(times, dtype=float)
    if grid.size == 0 or times.size == 0:
        raise ValueError("empty grid or time set")
    rep = CheckReport(statistic=np.inf, worst_z=0j, worst_t=0.0, passed=True)
    node_fails = []
    for t in times:
        vals = p.evaluate(grid, float(t))
        finite = np.isfinite(vals)
        rep.nonfinite += int(np.count_nonzero(~finite))
        node_bad = not finite.all()
        if finite.any():
            re = vals.real[finite]
            i = int(np.argmin(re))
            if re[i] < rep.statistic:
                rep.statistic = float(re[i])
                rep.worst_z = complex(grid[finite][i])
                rep.worst_t = float(t)
            node_bad = node_bad or re[i] < -tol
        node_fails.append(node_bad)
    _node_verdict(times, node_fails, rep, "Re p >= 0")
    if rep.nonfinite:
        rep.passed = False
        rep.warnings.append(f"{rep.nonfinite} non-finite p samples")
    return rep


def _ratio_check(num_fn, den_fn, grid, times, k, tol, label) -> CheckReport:
    grid = np.asarray(grid, dtype=complex)
    times = np.asarray(times, dtype=float)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"k = {k} outside [0, 1)")
    if grid.size == 0 or times.size == 0:
        raise ValueError("empty grid or time set")
    rep = CheckReport(statistic=0.0, worst_z=0j, worst_t=0.0, passed=True)
    node_fails = []
    for t in times:
        num = np.abs(num_fn(grid, float(t)))
        den = np.abs(den_fn(grid, float(t)))
        both_zero = (num < 1e-300) & (den < 1e-300)
        rep.skipped += int(np.count_nonzero(both_zero))
        ratio = np.full(grid.shape, np.nan)
        ok = ~both_zero
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[ok] = num[ok] / den[ok]
        ratio[ok & (den < 1e-300)] = np.inf
        live = np.isfinite(ratio) | np.isinf(ratio)
        live &= ~np.isnan(ratio)
        if live.any():
            i = int(np.argmax(np.where(live, ratio, -np.inf)))
            if ratio[i] > rep.statistic:
                rep.statistic = float(ratio[i])
                rep.worst_z = complex(grid[i])
                rep.worst_t = float(t)
            node_fails.append(bool(ratio[i] > k + tol))
        else:
            node_fails.append(False)
    _node_verdict(times, node_fails, rep, label)
    return rep


def check_becker(p: HerglotzSpec, grid, times, k: float, tol: float = TOL_CRITERION) -> CheckReport:
    """max |p - 1| / |p + 1| over samples; the radial extension criterion."""
    return _ratio_check(
        lambda z, t: p.evaluate(z, t) - 1.0,
        lambda z, t: p.evaluate(z, t) + 1.0,
        grid, times, k, tol, f"|p-1| <= {k}|p+1|",
    )


def check_pair(p: HerglotzSpec, q: HerglotzSpec, grid, times, k: float,
               tol: float = TOL_CRITERION) -> CheckReport:
    """max |p - conj(q)| / |p + q| over samples; the two-chain criterion."""
    return _ratio_check(
        lambda z, t: p.evaluate(z, t) - np.conj(q.evaluate(z, t)),
        lambda z, t: p.evaluate(z, t) + q.evaluate(z, t),
        grid, times, k, tol, f"|p-conj(q)| <= {k}|p+q|",
    )


def sector_bound(opening: float) -> float:
    """Dilatation bound sin(k pi / 2) for data confined to the |arg| < k pi/2 sector."""
    if not 0.0 <= opening < 1.0:
        raise ValueError(f"opening {opening} outside [0, 1)")
    return math.sin(opening * math.pi / 2.0)


def cayley_transfer(p: HerglotzSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """Right-half-plane evaluator zeta -> 2 p((zeta-1)/(zeta+1), t)."""

    def ev(zeta, t):
        zeta = np.asarray(zeta, dtype=complex)
        if np.any(zeta == -1.0):
            raise ValueError("zeta = -1 is outside the Cayley image")
        return 2.0 * p.evaluate((zeta - 1.0) / (zeta + 1.0), t)

    return ev


def holomorphy_residual(p: HerglotzSpec, grid, times, h: float = HOLO_STEP) -> float:
    """Relative Cauchy-Riemann residual by centered differences.

    Returns max |d p/d conj(z)| / (1 + |d p/dz|) over the samples.  The
    normalization matters: the O(h^2 p''') truncation of the stencil grows
    without bound toward poles of legitimate kernels just outside the disk,
    while the relative quotient stays ~h^2 wherever the grid keeps a modest
    distance from them (r <= 0.8 in the default checks).
    """
    grid = np.asarray(grid, dtype=complex)
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        px = (p.evaluate(grid + h, t) - p.evaluate(grid - h, t)) / (2.0 * h)
        py = (p.evaluate(grid + 1j * h, t) - p.evaluate(grid - 1j * h, t)) / (2.0 * h)
        anti = 0.5 * np.abs(px + 1j * py)
        holo = 0.5 * np.abs(px - 1j * py)
        res = anti / (1.0 + holo)
        res = res[np.isfinite(res)]
        if res.size:
            worst = max(worst, float(res.max()))
    return worst


def rotation_only(p: HerglotzSpec, grid, times, tol: float = 1e-12) -> bool:
    """True when p is purely imaginary at every sample.

    Such data only rotate the disk: chain images never grow, the welding
    is conformal and extension construction is skipped.
    """
    grid = np.asarray(grid, dtype=complex)
    for t in np.asarray(times, dtype=float):
        if np.abs(p.evaluate(grid, float(t)).real).max() > tol:
            return False
    return True
