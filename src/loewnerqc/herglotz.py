"""Berkson-Porta data: Herglotz functions, Denjoy-Wolff functions, vector fields.

A Herglotz function p(z, t) is holomorphic in z on the unit disk with
Re p >= 0, measurable in t.  Together with a Denjoy-Wolff function
tau(t) into the closed disk it assembles the vector field

    G(z, t) = (z - tau(t)) (conj(tau(t)) z - 1) p(z, t),

whose flow is the evolution family.  Every Herglotz spec is one evaluator
``pair(z, t) -> (p, dp/dz)``, and every field evaluation goes through one
kernel that applies the product rule to it.  The module also holds every
pointwise criterion check on p (Herglotz property, Becker and pair
inequalities, sector bound); Becker's ratio is the pair ratio at q = 1.

Specs answer a (time x point) sample set in one call: t is a float or an
array broadcasting to z.  Their answers broadcast against z (a scalar or a
time column where p does not depend on z), and ``HerglotzSpec.evaluate``
gives them z's shape; ``DenjoyWolffSpec.value`` is shaped like t.
``z, t = time_samples(points, times)`` gives the points broadcast to
(n_t, n_z) and the times as a column, so axis 0 of every result is time.
Wrapped user callables keep a float-time contract; their adapter calls
them once per distinct time.

A spec is its behaviour; it keeps no record of how it was built.  Each
declares its autonomy time ``t_aut``: from then on it no longer depends
on t (0 for constants, the last jump of step data, the last node of a
linearly interpolated table, which ``np.interp`` clamps), or None for an
arbitrary callable.  Table specs also record their ``nodes``, where the
data have kinks; the assembled field makes them integration stops, apart
from the jumps that delimit welding pieces.  Where tau is constant in
time is answered by ``DenjoyWolffSpec.frozen_on`` alone: the integrator's
frozen segments, the closed-form Beltrami rows and the step approximants
all ask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Tolerances of the grid checks.  Criteria are suprema over the disk and
# a.e. time; sampling plus these margins stands in for them.
TOL_CRITERION = 1e-6
TOL_HERGLOTZ = 1e-6
TOL_HOLO = 1e-6
HOLO_STEP = 1e-4
DZ_STEP = 1e-5
ROTATION_TOL = 1e-12


class SpecError(ValueError):
    """Structurally invalid Herglotz / Denjoy-Wolff specification."""


def time_samples(points, times) -> tuple[np.ndarray, np.ndarray]:
    """(z, t) of the (time x point) product: points broadcast to (n_t, n_z), times as a column."""
    points = np.asarray(points, dtype=complex).ravel()
    times = np.asarray(times, dtype=float).ravel()
    return np.broadcast_to(points, (times.size, points.size)), times[:, None]


def _per_time(fn: Callable[[np.ndarray, float], np.ndarray]):
    """Lift fn(z, t) of a float t to times broadcasting to z: one call per distinct time."""

    def ev(z, t):
        if np.ndim(t) == 0:
            return fn(z, t)
        z, t = np.broadcast_arrays(z, t)
        out = np.empty(z.shape, dtype=complex)
        for x in np.unique(t):
            at = t == x
            out[at] = fn(z[at], float(x))
        return out

    return ev


def time_table(ts, vs):
    """(interpolant, t_aut, nodes) of the table (ts, vs): linear, constant past t_aut = ts[-1]."""
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=complex)
    if ts.size != vs.size or ts.size == 0:
        raise SpecError("time table needs matching nonempty t and value lists")
    if np.any(np.diff(ts) <= 0):
        raise SpecError("time table abscissae must be strictly increasing")

    def f(t):
        return np.interp(t, ts, vs.real) + 1j * np.interp(t, ts, vs.imag)

    return f, float(ts[-1]), tuple(ts.tolist())


def phase_table(ts, vs):
    """``time_table`` of unimodular values, linear in the unwrapped phase.

    Consecutive nodes are joined along the shorter arc, so every value
    stays on the circle; node values off the circle are refused.
    """
    vs = np.asarray(vs, dtype=complex)
    off = np.abs(np.abs(vs) - 1.0)
    if np.any(off > 1e-9):
        raise SpecError(f"table value with |value| = {np.abs(vs).flat[np.argmax(off)]}, expected 1")
    f, t_aut, nodes = time_table(ts, np.unwrap(np.angle(vs)))
    return (lambda t: np.exp(1j * f(t).real)), t_aut, nodes


def _horner(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size == 1:
        return np.full_like(z, coeffs[0])
    v = z * coeffs[-1] + coeffs[-2]
    for c in coeffs[-3::-1]:
        v = v * z + c
    return v


@dataclass
class HerglotzSpec:
    """A Herglotz function as its evaluator.

    ``pair(z, t)`` takes a complex ndarray ``z`` and a time ``t``, a float
    or a float array broadcasting to z, and returns ``(p, dp/dz)``
    broadcasting against z, ``(value, 0.0)`` where p does not depend on z;
    with a float t it is the integrator's hot path.  The built-in
    constructors differentiate analytically, a wrapped user evaluator by a
    centered difference of step ``DZ_STEP``.  ``evaluate(z, t)`` is the
    value alone shaped like z, from ``value`` where it is cheaper than
    ``pair``; ``t_aut`` and ``nodes`` are described in the module docstring.
    ``z_free`` declares that p does not depend on z; the ``constant``,
    ``sector`` and ``from_time_table`` constructors set it.
    """

    pair: Callable[[np.ndarray, float | np.ndarray], tuple[np.ndarray, np.ndarray]]
    t_aut: float | None = None
    nodes: tuple[float, ...] = ()
    value: Callable[[np.ndarray, float | np.ndarray], np.ndarray] | None = None
    z_free: bool = False

    def evaluate(self, z, t) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.broadcast_to(self.pair(z, t)[0] if self.value is None else self.value(z, t),
                               z.shape)

    @classmethod
    def constant(cls, c) -> "HerglotzSpec":
        c = complex(c)
        if c.real < 0:
            raise SpecError(f"constant Herglotz value {c} has Re < 0")
        return cls(lambda z, t: (c, 0.0), t_aut=0.0, z_free=True)

    @classmethod
    def mobius_kernel(cls, driving: Callable[[float], complex], t_aut: float | None = None,
                      nodes=()) -> "HerglotzSpec":
        """Slit-type kernel p(z,t) = (kappa(t) + z) / (kappa(t) - z).

        kappa must be unimodular; this orientation satisfies p(0,t) = 1 and
        Re p > 0 on the disk.  ``t_aut`` and ``nodes`` are those of the
        driving function (None for an arbitrary callable).
        """

        def pair(z, t):
            kap = np.asarray(driving(t), dtype=complex)
            off = np.abs(np.abs(kap) - 1.0)
            if np.any(off > 1e-9):
                raise SpecError(f"mobius_kernel driving |kappa| = "
                                f"{np.abs(kap).flat[np.argmax(off)]}, expected 1")
            w = kap - z
            return (kap + z) / w, 2.0 * kap / w ** 2

        return cls(pair, t_aut=t_aut, nodes=tuple(nodes))

    @classmethod
    def sector(cls, opening: float, profile: Callable[[float], complex],
               t_aut: float | None = None, nodes=()) -> "HerglotzSpec":
        """z-independent values confined to the sector |arg| <= opening*pi/2.

        ``t_aut`` and ``nodes`` are those of the profile.
        """
        if not 0.0 <= opening < 1.0:
            raise SpecError(f"sector opening {opening} outside [0, 1)")
        half = opening * math.pi / 2.0

        def pair(z, t):
            c = np.asarray(profile(t), dtype=complex)
            out = (c != 0) & (np.abs(np.angle(c)) > half + 1e-12)
            if np.any(out):
                raise SpecError(f"sector profile value {c[out][0]} leaves |arg| <= {half}")
            return c, 0.0

        return cls(pair, t_aut=t_aut, nodes=tuple(nodes), z_free=True)

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

        return cls(pair, t_aut=0.0)

    @classmethod
    def sampled(cls, fn: Callable[[np.ndarray, float], np.ndarray]) -> "HerglotzSpec":
        """Wrap fn(ndarray z, float t); ``evaluate`` calls it once per distinct time."""
        ev = _per_time(fn)

        def pair(z, t):
            return ev(z, t), (ev(z + DZ_STEP, t) - ev(z - DZ_STEP, t)) / (2.0 * DZ_STEP)

        return cls(pair, value=ev)

    @classmethod
    def from_time_table(cls, ts, values) -> "HerglotzSpec":
        """z-independent samples p(t), linearly interpolated between nodes."""
        f, t_aut, nodes = time_table(ts, values)
        return cls(lambda z, t: (f(t), 0.0), t_aut=t_aut, nodes=nodes, z_free=True)


def _refuse_off_disk(values, name: str) -> None:
    """SpecError "name = |tau| > 1" at the first value i past 1 + 1e-12; ``{i}`` in name is i."""
    mod = np.abs(np.asarray(values, dtype=complex))
    off = np.flatnonzero(mod > 1.0 + 1e-12)
    if off.size:
        raise SpecError(f"{name.format(i=off[0])} = {mod[off[0]]} > 1")


@dataclass
class DenjoyWolffSpec:
    """Denjoy-Wolff function tau(t) into the closed unit disk.

    ``value(t)`` takes a float or a float array and is shaped like t.
    Every constructor keeps |tau| <= 1 + 1e-12: the data-driven ones check
    their values once, ``sampled`` checks each value its callable returns.
    ``breakpoints`` are its jumps; ``t_aut`` and ``nodes`` are described in
    the module docstring.  ``frozen_on(a, b)`` is the constant value of tau
    on [a, b], or None where tau may vary there; each constructor sets it.
    Integration segments never straddle a breakpoint, so step data freeze
    at the segment midpoint, which removes the ambiguity at the jumps.  For
    a single time, ``frozen_on(t, t)`` is tau(t) (right-continuous at the
    jumps) where tau is piecewise constant, and None otherwise.
    """

    value: Callable[[float | np.ndarray], complex | np.ndarray]
    breakpoints: tuple[float, ...] = ()
    t_aut: float | None = None
    nodes: tuple[float, ...] = ()
    frozen_on: Callable[[float, float], complex | None] = lambda a, b: None

    @classmethod
    def constant(cls, tau) -> "DenjoyWolffSpec":
        return cls.step([], [tau])

    @classmethod
    def step(cls, breakpoints, values) -> "DenjoyWolffSpec":
        bps = [float(b) for b in breakpoints]
        vals = [complex(v) for v in values]
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise SpecError("step breakpoints must be strictly increasing")
        if len(vals) != len(bps) + 1:
            raise SpecError("step needs exactly one more value than breakpoints")
        _refuse_off_disk(vals, "value {i} has |tau|")
        arr_b = np.asarray(bps, float)
        arr_v = np.asarray(vals, complex)

        def f(t):
            return arr_v[np.searchsorted(arr_b, t, side="right")]

        jumps = [b for b, v0, v1 in zip(bps, vals, vals[1:]) if v1 != v0]
        return cls(f, breakpoints=tuple(bps), t_aut=jumps[-1] if jumps else 0.0,
                   frozen_on=lambda a, b: f(0.5 * (a + b)))

    @classmethod
    def sampled(cls, fn: Callable[[float], complex]) -> "DenjoyWolffSpec":
        """Wrap a user callable t -> tau(t) of a float t; it is never frozen.

        fn is called once per distinct time, and each value is checked.
        """

        def at(z, t):
            v = complex(fn(t))
            _refuse_off_disk([v], f"|tau({t})|")
            return v

        ev = _per_time(at)    # z only carries the shape of t
        return cls(lambda t: ev(np.zeros(np.shape(t)), t))

    @classmethod
    def from_time_table(cls, ts, values) -> "DenjoyWolffSpec":
        """Sampled tau(t), linearly interpolated between the nodes ts."""
        f, t_aut, nodes = time_table(ts, values)
        _refuse_off_disk(values, "table value with |tau|")
        return cls(f, t_aut=t_aut, nodes=nodes)

    @classmethod
    def step_with_tail(cls, breakpoints, values, horizon: float,
                       tail: "DenjoyWolffSpec") -> "DenjoyWolffSpec":
        """Step cells on [0, horizon), the spec ``tail`` beyond.

        Used by the approximation experiments: the data are approximated on
        a finite window and agree with the target exactly afterwards, which
        is what makes the weak-convergence experiments measure the window
        approximation instead of an incidental tail mismatch.  The tail's
        jumps and nodes past the horizon carry over, and so does its
        ``frozen_on``.  The spec is autonomous from the tail's autonomy
        time if that lies past the horizon, otherwise from its last jump
        (at the horizon or before).
        """
        base = cls.step(list(breakpoints), list(values))
        horizon = float(horizon)

        def f(t):
            return np.where(t < horizon, base.value(t), tail.value(t))

        def frozen_on(a, b):
            if b <= horizon + 1e-12:
                return f(0.5 * (a + b))
            if a >= horizon - 1e-12:
                return tail.frozen_on(a, b)
            return None

        t_aut = tail.t_aut
        if t_aut is not None and t_aut <= horizon:
            t_aut = horizon if complex(tail.value(horizon)) != complex(values[-1]) \
                else base.t_aut

        return cls(f, breakpoints=tuple(breakpoints) + (horizon,)
                   + tuple(b for b in tail.breakpoints if b > horizon),
                   t_aut=t_aut, nodes=tuple(n for n in tail.nodes if n > horizon),
                   frozen_on=frozen_on)

    def is_constant(self, c) -> bool:
        """True when tau(t) = c for every t >= 0."""
        return self.t_aut == 0.0 and complex(self.value(0.0)) == complex(c)


def _factor(z: np.ndarray, tv):
    """((z - tv)(conj(tv) z - 1), conj(tv)); the factor is exactly 0 at z = tv."""
    tconj = np.conj(tv)
    return (z - tv) * (tconj * z - 1.0), tconj


def _field_pair(z: np.ndarray, tv, pv, dp):
    """(G, dG/dz) for G = (z - tv)(conj(tv) z - 1) p, by the product rule."""
    af, tconj = _factor(z, tv)
    return af * pv, (2.0 * tconj * z - (1.0 + abs(tv) ** 2)) * pv + af * dp


def field_value(z: np.ndarray, tv, pv) -> np.ndarray:
    """G alone, bit for bit the value half of the integrators' (G, dG/dz) kernel."""
    return _factor(z, tv)[0] * pv


@dataclass
class VectorFieldHandle:
    """Assembled Berkson-Porta vector field.

    ``stops`` are the jumps of tau, where welding pieces meet, and the
    kinks (the table nodes of p and tau); the integrators end a step at
    each of them, so the error control never works across a corner of the
    data.  ``t_aut`` is the autonomy time of
    the field: the later of p's and tau's, or None if either is unknown.
    ``quadratic`` is true where p declares itself free of z: then
    G(., t) = conj(tau) p z^2 - (1 + |tau|^2) p z + tau p is a quadratic
    polynomial and every phi_{s,t} is a Mobius map.
    ``memo`` keeps what callers derive once per field.
    """

    p: HerglotzSpec
    tau: DenjoyWolffSpec
    stops: tuple[float, ...] = ()
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def t_aut(self) -> float | None:
        if self.p.t_aut is None or self.tau.t_aut is None:
            return None
        return max(self.p.t_aut, self.tau.t_aut)

    @property
    def quadratic(self) -> bool:
        return self.p.z_free

    def pair(self, z: np.ndarray, t):
        """(G, dG/dz) at a float time t or at times broadcasting to z's shape."""
        z = np.asarray(z, dtype=complex)
        return _field_pair(z, self.tau.value(t), *self.p.pair(z, t))

    def segment_rhs(self, a: float, b: float) -> Callable:
        """(G, dG/dz) evaluator ``pair(z, t)`` valid on [a, b].

        Segments never straddle a breakpoint; where tau is constant on the
        segment it is resolved once (at the midpoint for step data), so that
        stage evaluations at the segment endpoints cannot pick up the
        neighbouring interval.  Elsewhere tau is read at every stage.
        """
        p_pair, tv = self.p.pair, self.tau.frozen_on(a, b)
        tau_of = self.tau.value if tv is None else lambda t: tv

        def pair(z, t):
            return _field_pair(z, complex(tau_of(t)), *p_pair(z, t))

        return pair


def assemble_field(p: HerglotzSpec, tau: DenjoyWolffSpec) -> VectorFieldHandle:
    """Build the vector field handle; tau's constructor keeps |tau| <= 1."""
    stops = tuple(sorted(set(tau.breakpoints) | set(tau.nodes) | set(p.nodes)))
    return VectorFieldHandle(p=p, tau=tau, stops=stops)


# ---------------------------------------------------------------------------
# criteria checks


@dataclass
class CheckReport:
    """Outcome of a grid criterion check.

    The extremal statistic, the pass flag, and the time nodes at which the
    criterion failed.  A violation confined to a single isolated time node
    is downgraded to a warning (measurable data are only known at quadrature
    nodes); violations on two consecutive nodes, on all nodes, or on the
    only node fail.
    """

    statistic: float
    passed: bool
    warnings: list[str] = field(default_factory=list)
    failing_times: list[float] = field(default_factory=list)
    nonfinite: int = 0


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


def _sample_set(grid, times):
    """(z, t, times) of a nonempty criteria sample set; see ``time_samples``."""
    times = [float(t) for t in np.ravel(times)]
    if np.size(grid) == 0 or not times:
        raise ValueError("empty grid or time set")
    return *time_samples(grid, times), times


def check_herglotz(p: HerglotzSpec, grid: np.ndarray, times) -> CheckReport:
    """min Re p over the sample set; passes iff >= -TOL_HERGLOTZ at a.e. node."""
    z, t, times = _sample_set(grid, times)
    vals = p.evaluate(z, t)
    finite = np.isfinite(vals)
    re = np.where(finite, vals.real, np.inf)
    rep = CheckReport(float(re.min()), True, nonfinite=int(np.count_nonzero(~finite)))
    _node_verdict(times, ~finite.all(axis=1) | (re.min(axis=1) < -TOL_HERGLOTZ), rep, "Re p >= 0")
    if rep.nonfinite:
        rep.passed = False
        rep.warnings.append(f"{rep.nonfinite} non-finite p samples")
    return rep


def _ratio_check(parts, grid, times, k, label) -> CheckReport:
    """max |num| / |den| over the sample set, ``num, den = parts(z, t)``.

    Samples where both vanish are skipped; a non-finite num or den counts
    in ``nonfinite``, fails its node and fails the check.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"k = {k} outside [0, 1)")
    z, t, times = _sample_set(grid, times)
    num, den = (np.abs(v) for v in parts(z, t))
    finite = np.isfinite(num) & np.isfinite(den)
    both_zero = (num < 1e-300) & (den < 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den < 1e-300, np.inf, num / den)
    ratio = np.where(finite & ~both_zero, ratio, -np.inf)
    rep = CheckReport(max(0.0, float(ratio.max())), True,
                      nonfinite=int(np.count_nonzero(~finite)))
    _node_verdict(times, ~finite.all(axis=1) | (ratio.max(axis=1) > k + TOL_CRITERION), rep, label)
    if rep.nonfinite:
        rep.passed = False
        rep.warnings.append(f"{rep.nonfinite} non-finite samples of {label}")
    return rep


def pair_parts(pv, qv):
    """(p - conj(q), p + q), the parts of the pair ratio; q = 1 gives Becker's."""
    return pv - np.conj(qv), pv + qv


def check_becker(p: HerglotzSpec, grid, times, k: float) -> CheckReport:
    """max |p - 1| / |p + 1| over samples; the radial extension criterion."""
    return _ratio_check(lambda z, t: pair_parts(p.evaluate(z, t), 1.0), grid, times, k,
                        f"|p-1| <= {k}|p+1|")


def check_pair(p: HerglotzSpec, q: HerglotzSpec, grid, times, k: float) -> CheckReport:
    """max |p - conj(q)| / |p + q| over samples; the two-chain criterion."""
    return _ratio_check(lambda z, t: pair_parts(p.evaluate(z, t), q.evaluate(z, t)),
                        grid, times, k, f"|p-conj(q)| <= {k}|p+q|")


def sector_bound(opening: float) -> float:
    """Dilatation bound sin(k pi / 2) for data confined to the |arg| < k pi/2 sector."""
    if not 0.0 <= opening < 1.0:
        raise ValueError(f"opening {opening} outside [0, 1)")
    return math.sin(opening * math.pi / 2.0)


def holomorphy_residual(p: HerglotzSpec, grid, times) -> float:
    """Relative Cauchy-Riemann residual by centered differences.

    Returns max |d p/d conj(z)| / (1 + |d p/dz|) over the samples.  The
    normalization matters: the O(h^2 p''') truncation of the stencil grows
    without bound toward poles of legitimate kernels just outside the disk,
    while the relative quotient stays ~h^2 wherever the grid keeps a modest
    distance from them (r <= 0.8 in the default checks).
    """
    z, t = time_samples(grid, times)
    h = HOLO_STEP
    px = (p.evaluate(z + h, t) - p.evaluate(z - h, t)) / (2.0 * h)
    py = (p.evaluate(z + 1j * h, t) - p.evaluate(z - 1j * h, t)) / (2.0 * h)
    res = 0.5 * np.abs(px + 1j * py) / (1.0 + 0.5 * np.abs(px - 1j * py))
    res = res[np.isfinite(res)]
    return float(res.max()) if res.size else 0.0


def rotation_only(p: HerglotzSpec, grid, times) -> bool:
    """True when p is purely imaginary (to ROTATION_TOL) at every sample.

    Such data only rotate the disk: chain images never grow, the welding
    is conformal and extension construction is skipped.
    """
    return not np.any(np.abs(p.evaluate(*time_samples(grid, times)).real) > ROTATION_TOL)
