import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerqc.grids import criteria_grid
from loewnerqc.herglotz import (HerglotzSpec, DenjoyWolffSpec, SpecError,
                                assemble_field, check_herglotz, check_becker,
                                check_pair, sector_bound, holomorphy_residual,
                                rotation_only, time_samples)
from loewnerqc.evolution import solve_forward

GRID = criteria_grid(n_angles=64)
TIMES = np.linspace(0.0, 2.0, 5)


def test_field_product_formula_radial():
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(0))
    assert fld.pair(np.array([0.5 + 0j]), 0.3)[0][0] == pytest.approx(-0.5)


def test_field_product_formula_chordal():
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
    assert fld.pair(np.array([0j]), 0.0)[0][0] == pytest.approx(1.0)


def test_field_zero_at_interior_denjoy_wolff_point():
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(0.3))
    assert fld.pair(np.array([0.3 + 0j]), 1.7)[0][0] == 0.0


@given(st.complex_numbers(max_magnitude=0.99), st.floats(0.0, 10.0))
def test_field_vanishes_exactly_at_tau(tau, t):
    fld = assemble_field(HerglotzSpec.rational([1, 0.4], [1, -0.4]),
                         DenjoyWolffSpec.constant(tau))
    assert fld.pair(np.array([complex(tau)]), t)[0][0] == 0.0


def test_field_coarse_bound():
    # |G| <= 4 sup|p| on compacts of the disk
    fld = assemble_field(HerglotzSpec.constant(2.5), DenjoyWolffSpec.constant(0.7j))
    vals = np.abs(fld.pair(GRID, 0.0)[0])
    assert vals.max() <= 4.0 * 2.5 + 1e-12


# Berkson-Porta kernel: every p kind under every tau regime, against the
# closed form (z - tau)(conj(tau) z - 1) p with p written out by hand.
def _sector_profile(t):
    return (1 + t) * np.exp(0.25j * math.pi * np.sin(t))


def _z_dependent(z, t):
    return (1 + t) * (2 + z * z)


P_KINDS = {
    "constant": (HerglotzSpec.constant(0.7 + 0.2j), lambda z, t: 0.7 + 0.2j + 0 * z),
    "mobius_kernel": (HerglotzSpec.mobius_kernel(lambda t: np.exp(1j * t)),
                      lambda z, t: (np.exp(1j * t) + z) / (np.exp(1j * t) - z)),
    "sector": (HerglotzSpec.sector(0.5, _sector_profile),
               lambda z, t: _sector_profile(t) + 0 * z),
    "rational_table": (HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                       lambda z, t: (1 + 0.5 * z) / (1 - 0.5 * z)),
    "sampled": (HerglotzSpec.sampled(_z_dependent), _z_dependent),
    "from_time_table": (HerglotzSpec.from_time_table([0.0, 1.0, 3.0], [1, 1 + 2j, 0.5]),
                        lambda z, t: (1 + 2j * t if t <= 1 else
                                      1 + 2j + (t - 1) * (-0.25 - 1j)) + 0 * z),
}

BREAK = 1.0
# regime -> (tau spec, [(segment a, segment b, read time t, tau(t))])
TAU_REGIMES = {
    "zero": (DenjoyWolffSpec.constant(0), [(0.0, 2.0, 0.7, 0j)]),
    "interior": (DenjoyWolffSpec.constant(0.3 - 0.4j), [(0.0, 2.0, 0.7, 0.3 - 0.4j)]),
    "boundary": (DenjoyWolffSpec.constant(1j), [(0.0, 2.0, 0.7, 1j)]),
    "step": (DenjoyWolffSpec.step([BREAK], [0.3, 0.6j]),
             [(0.0, BREAK, BREAK - 1e-9, 0.3), (BREAK, 2.0, BREAK + 1e-9, 0.6j),
              (0.0, BREAK, BREAK, 0.3), (BREAK, 2.0, BREAK, 0.6j)]),
    "sampled": (DenjoyWolffSpec.sampled(lambda t: 0.5 * np.exp(1j * t)),
                [(0.0, 2.0, t, 0.5 * np.exp(1j * t)) for t in (0.7, 1.9)]),
}


@pytest.mark.parametrize("regime", TAU_REGIMES)
@pytest.mark.parametrize("kind", P_KINDS)
def test_field_pair_matches_closed_form(kind, regime):
    spec, p_exact = P_KINDS[kind]
    tau, reads = TAU_REGIMES[regime]
    fld = assemble_field(spec, tau)
    z = criteria_grid(radii=(0.2, 0.5, 0.8), n_angles=16)
    h = 1e-6
    for a, b, t, tv in reads:
        def g_exact(w):
            return (w - tv) * (np.conj(tv) * w - 1) * p_exact(w, t)

        g_ref = g_exact(z)
        dg_ref = (g_exact(z + h) - g_exact(z - h)) / (2 * h)
        evaluated = [fld.segment_rhs(a, b)(z, t)]
        if a < t < b:   # at a segment end only the closure keeps its segment's tau
            evaluated.append(fld.pair(z, t))
        for g, dg in evaluated:
            assert np.abs(g - g_ref).max() <= 1e-12 * (1 + np.abs(g_ref).max())
            assert np.abs(dg - dg_ref).max() <= 1e-6 * (1 + np.abs(dg_ref).max())
    # a column of times answers every (time, point) sample in one call, as
    # the scalar calls do; wrapped user callables may differ by rounding
    times = np.array([0.0, 0.7, BREAK - 1e-9, BREAK, 1.9, 0.7])
    column = fld.pair(*time_samples(z, times))
    scalar = [np.stack([fld.pair(z, t)[i] for t in times]) for i in (0, 1)]
    for got, want in zip(column, scalar):
        assert got.shape == (times.size, z.size)
        if "sampled" in (kind, regime):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        else:
            np.testing.assert_array_equal(got, want)


def test_tau_modulus_rejected():
    with pytest.raises(SpecError):
        DenjoyWolffSpec.constant(1.2)
    with pytest.raises(SpecError):
        DenjoyWolffSpec.step([1.0], [0.5, 1.01])


def test_sampled_tau_outside_the_disk_is_refused_where_it_is_read():
    # |tau| leaves the disk only on (0.6, 0.9); the spec refuses it
    # wherever it is read, here by the integrator
    tau = DenjoyWolffSpec.sampled(lambda t: 1.5 if 0.6 < t < 0.9 else 0.1)
    fld = assemble_field(HerglotzSpec.constant(1), tau)
    with pytest.raises(SpecError):
        solve_forward(fld, 0.0, 1.0, criteria_grid(radii=(0.5,), n_angles=8))
    with pytest.raises(SpecError):
        tau.value(np.linspace(0.0, 1.0, 11))
    assert tau.value(0.5) == 0.1


def test_step_spec_shape_validation():
    with pytest.raises(SpecError):
        DenjoyWolffSpec.step([2.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(SpecError):
        DenjoyWolffSpec.step([1.0], [0.1])


def test_frozen_on_and_is_constant_follow_the_data():
    const = DenjoyWolffSpec.constant(0.3j)
    assert const.frozen_on(0.0, 2.0) == 0.3j and const.frozen_on(1.0, 1.0) == 0.3j
    step = DenjoyWolffSpec.step([1.0], [0.1, 0.2])
    assert step.frozen_on(0.0, 1.0) == 0.1 and step.frozen_on(1.0, 3.0) == 0.2
    # a single time reads the right-continuous value
    assert step.frozen_on(1.0, 1.0) == step.value(1.0) == 0.2
    table = DenjoyWolffSpec.from_time_table([0.0, 1.0], [0.1, 0.2])
    assert table.frozen_on(0.0, 0.5) is None and table.frozen_on(0.5, 0.5) is None
    assert DenjoyWolffSpec.sampled(lambda t: 0.1).frozen_on(0.0, 1.0) is None
    with pytest.raises(SpecError):
        DenjoyWolffSpec.from_time_table([0.0, 1.0], [0.1, 1.01])
    # constancy is read off the data, not off the constructor
    assert const.is_constant(0.3j) and not const.is_constant(0.0)
    assert DenjoyWolffSpec.step([1.0], [0.2, 0.2]).is_constant(0.2)
    assert not step.is_constant(0.1)
    assert not DenjoyWolffSpec.sampled(lambda t: 0.0).is_constant(0.0)


def test_check_herglotz_constant_one():
    rep = check_herglotz(HerglotzSpec.constant(1), GRID, TIMES)
    assert rep.passed and rep.statistic == pytest.approx(1.0)


def test_check_herglotz_boundary_of_class():
    rep = check_herglotz(HerglotzSpec.constant(1j), GRID, TIMES)
    assert rep.passed
    assert rep.statistic == pytest.approx(0.0, abs=1e-15)


def test_check_herglotz_flags_pole_blowup():
    # (0.9+z)/(0.9-z) blows up near z = 0.9; refined grid catches large values
    spec = HerglotzSpec.rational([0.9, 1], [0.9, -1])
    fine = np.concatenate([GRID, np.linspace(0.89, 0.8999, 50).astype(complex)])
    rep = check_herglotz(spec, fine, TIMES)
    assert np.isfinite(rep.statistic)
    assert rep.statistic < 0 or rep.statistic >= 0  # evaluates everywhere it can


def test_check_becker_identity_case():
    rep = check_becker(HerglotzSpec.constant(1), GRID, TIMES, k=0.0)
    assert rep.passed and rep.statistic == pytest.approx(0.0, abs=1e-15)


def test_check_becker_mobius_ratio_is_half_rmax():
    # (p-1)/(p+1) = 0.5 z, so the sampled max is 0.5 * 0.99
    spec = HerglotzSpec.rational([1, 0.5], [1, -0.5])
    rep = check_becker(spec, criteria_grid(), TIMES, k=0.5)
    assert rep.passed
    assert rep.statistic == pytest.approx(0.5 * 0.99, abs=1e-10)


def test_check_becker_unimodular_fails():
    rep = check_becker(HerglotzSpec.constant(1j), GRID, TIMES, k=0.9)
    assert not rep.passed
    assert rep.statistic == pytest.approx(1.0)


@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_becker_ratio_identity_for_mobius_family(c):
    spec = HerglotzSpec.rational([1, c], [1, -c])
    rep = check_becker(spec, criteria_grid(), TIMES, k=c)
    assert rep.statistic == pytest.approx(c * 0.99, abs=1e-10)


def test_check_pair_reduces_to_becker():
    one = HerglotzSpec.constant(1)
    rep = check_pair(one, one, GRID, TIMES, k=0.0)
    assert rep.passed and rep.statistic == pytest.approx(0.0, abs=1e-15)


def test_check_pair_equal_specs_sine_identity():
    # |p - conj(p)| / |2p| = sin|arg p|
    spec = HerglotzSpec.constant(np.exp(1j * math.pi / 6))
    rep = check_pair(spec, spec, GRID, TIMES, k=0.5)
    assert rep.passed
    assert rep.statistic == pytest.approx(math.sin(math.pi / 6), abs=1e-10)


def test_check_pair_orthogonal_fails():
    rep = check_pair(HerglotzSpec.constant(1), HerglotzSpec.constant(1j),
                     GRID, TIMES, k=0.99)
    assert not rep.passed
    assert rep.statistic == pytest.approx(1.0)


def test_ratio_checks_fail_on_nonfinite_samples():
    # p is NaN at one grid point: every ratio check must see it, as
    # check_herglotz does
    bad = GRID[5]
    p = HerglotzSpec.sampled(lambda z, t: np.where(z == bad, np.nan, 1.0 + 0 * z))
    one = HerglotzSpec.constant(1)
    for rep in (check_herglotz(p, GRID, TIMES), check_becker(p, GRID, TIMES, k=0.5),
                check_pair(p, one, GRID, TIMES, k=0.5)):
        assert not rep.passed
        assert rep.nonfinite == TIMES.size
        assert rep.failing_times == list(TIMES)
        assert any("non-finite" in w for w in rep.warnings)


def test_sector_bound_values():
    assert sector_bound(0.0) == 0.0
    assert sector_bound(1.0 / 3.0) == pytest.approx(0.5)
    assert sector_bound(0.5) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(ValueError):
        sector_bound(1.0)


@pytest.mark.parametrize("spec", [
    HerglotzSpec.constant(1),
    HerglotzSpec.constant(0.3 + 1.1j),
    HerglotzSpec.rational([1, 0.5], [1, -0.5]),
    HerglotzSpec.mobius_kernel(lambda t: np.exp(1j * t)),
    HerglotzSpec.sector(0.5, lambda t: (1 + t) * np.exp(0.25j * math.pi * np.sin(t))),
])
def test_holomorphy_residual_below_tolerance(spec):
    grid = criteria_grid(radii=(0.2, 0.5, 0.8), n_angles=32)
    assert holomorphy_residual(spec, grid, [0.0, 1.0]) < 1e-6


def test_rotation_only_detection():
    assert rotation_only(HerglotzSpec.constant(1j), GRID, TIMES)
    assert not rotation_only(HerglotzSpec.constant(1), GRID, TIMES)


def test_isolated_time_node_downgrades_to_warning():
    # Herglotz everywhere except one isolated node: warn, do not fail
    def p(z, t):
        val = -1.0 if abs(t - 1.0) < 1e-9 else 1.0
        return np.full_like(np.asarray(z, complex), val)

    spec = HerglotzSpec.sampled(p)
    rep = check_herglotz(spec, GRID, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    assert rep.passed and rep.warnings


def test_consecutive_failing_nodes_fail():
    def p(z, t):
        val = -1.0 if t >= 1.0 else 1.0
        return np.full_like(np.asarray(z, complex), val)

    spec = HerglotzSpec.sampled(p)
    rep = check_herglotz(spec, GRID, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    assert not rep.passed


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(0.1, 5.0))
def test_pair_sine_identity_property(angle_frac, magnitude):
    # p = q bounded away from 0: max ratio equals sin|arg p|
    val = magnitude * np.exp(1j * angle_frac * math.pi / 2)
    spec = HerglotzSpec.constant(val)
    rep = check_pair(spec, spec, GRID[:64], TIMES[:2], k=0.999999)
    assert rep.statistic == pytest.approx(math.sin(angle_frac * math.pi / 2), abs=1e-10)


def test_sampled_spec_evaluates_its_callable_once_per_value():
    calls = []

    def fn(z, t):
        calls.append(t)
        return (1.0 + 0.5 * z) / (1.0 - 0.5 * z)

    spec = HerglotzSpec.sampled(fn)
    z = np.array([0.1, 0.2j, -0.3])
    spec.evaluate(z, 0.5)
    assert calls == [0.5]
    # one call per distinct time of a (time x point) sample set
    times = np.linspace(0.0, 1.0, 9)
    rep = check_herglotz(spec, z, times)
    assert rep.passed and len(calls) == 1 + 9
    # pair also differences the callable, two more calls per time
    calls.clear()
    spec.pair(z, 0.5)
    assert calls == [0.5] * 3


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


# the constructors whose p does not depend on z: they answer (value, 0.0)
Z_FREE = ("constant", "sector", "from_time_table")


@pytest.mark.parametrize("kind", P_KINDS)
def test_evaluate_gives_answers_the_shape_of_z(kind):
    spec, p_exact = P_KINDS[kind]
    z = criteria_grid(radii=(0.2, 0.5, 0.8), n_angles=16)
    assert spec.evaluate(z, 0.7).shape == z.shape
    np.testing.assert_allclose(spec.evaluate(z, 0.7), p_exact(z, 0.7), rtol=1e-12)
    zs, t = time_samples(z, [0.0, 0.7, 2.5])
    assert spec.evaluate(zs, t).shape == zs.shape == (3, z.size)
    pv, dp = spec.pair(z, 0.7)
    if kind in Z_FREE:
        assert np.ndim(pv) == 0 and dp == 0.0
        assert np.shape(spec.pair(zs, t)[0]) in ((), (3, 1))


@pytest.mark.parametrize("regime", TAU_REGIMES)
@pytest.mark.parametrize("kind", Z_FREE)
def test_z_free_answers_match_full_arrays_bit_for_bit(kind, regime):
    # the field kernel broadcasts a scalar p exactly as it multiplies a full
    # array of it, signed zeros included
    spec, _ = P_KINDS[kind]

    def full(z, t):
        pv, _ = spec.pair(z, t)
        return np.broadcast_to(pv, z.shape).astype(complex), np.zeros_like(z)

    tau, reads = TAU_REGIMES[regime]
    fld = assemble_field(spec, tau)
    ref = assemble_field(HerglotzSpec(full, t_aut=spec.t_aut, nodes=spec.nodes), tau)
    z = np.concatenate([criteria_grid(radii=(0.0, 0.3, 0.99), n_angles=12),
                        [-0.5 + 0j, complex(-0.0, -0.25), 0.3 - 0.4j, 1j]])
    for a, b, t, _ in reads:
        for got, want in zip(fld.segment_rhs(a, b)(z, t), ref.segment_rhs(a, b)(z, t)):
            assert got.shape == z.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
