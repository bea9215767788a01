import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerqc import approx
from loewnerqc.cli import run_pipeline
from loewnerqc.grids import circle_grid, criteria_grid
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec
from loewnerqc.approx import (step_approximate, field_deviation, random_deviation_check,
                              gronwall_envelope, convergence_table, _deviation_arrays)
from loewnerqc.scenarios import builtin_scenario

ONE = HerglotzSpec.constant(1)
TAU_MEASURABLE = DenjoyWolffSpec.sampled(lambda t: t / (1 + t))


def _cell_values(spec, n, horizon):
    """The values of a step approximant's n cells on [0, horizon), at their midpoints."""
    return np.array([spec.frozen_on(i * horizon / n, (i + 1) * horizon / n) for i in range(n)])


def test_step_approximate_constant_is_exact():
    spec, dev = step_approximate(DenjoyWolffSpec.constant(0.4 + 0.1j), 7, 4.0)
    assert dev == 0.0
    assert np.all(_cell_values(spec, 7, 4.0) == 0.4 + 0.1j)


@pytest.mark.parametrize("n, horizon", [(12, 1.0), (4, 0.7), (8, 1.3)])
def test_a_step_on_the_partition_is_its_own_approximant(n, horizon):
    # the deviation reads the returned spec, so cell-boundary probes take
    # the cell the spec itself takes
    width = horizon / n
    values = 0.5 * np.exp(2j * np.pi * np.arange(n) / n)
    tau = DenjoyWolffSpec.step(np.arange(1, n) * width, values)
    spec, dev = step_approximate(tau, n, horizon)
    assert dev == 0.0
    probes = np.linspace(0.0, horizon, 16 * n, endpoint=False)
    assert np.array_equal(spec.value(probes), tau.value(probes))


def test_step_approximate_midpoints():
    spec, _ = step_approximate(TAU_MEASURABLE, 4, 4.0)
    assert np.allclose(_cell_values(spec, 4, 4.0), [1 / 3, 3 / 5, 5 / 7, 7 / 9])
    assert spec.breakpoints == (1.0, 2.0, 3.0, 4.0)


def test_step_approximate_deviation_halves():
    devs = [step_approximate(TAU_MEASURABLE, n, 4.0)[1] for n in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    ratios = [b / a for a, b in zip(devs, devs[1:])]
    # Lipschitz tau, midpoint rule: ratio ~ 0.5 within a factor of 2
    assert all(0.25 <= r <= 1.0 for r in ratios)


def test_field_deviation_zero_for_equal_tau():
    rep = field_deviation(ONE, DenjoyWolffSpec.constant(0.5),
                          DenjoyWolffSpec.constant(0.5),
                          criteria_grid(n_angles=16), [0.0, 1.0])
    assert rep.max_measured == 0.0 and rep.passed


def test_field_deviation_origin_example():
    rep = field_deviation(ONE, DenjoyWolffSpec.constant(0.5),
                          DenjoyWolffSpec.constant(0.4), np.array([0j]), [0.0])
    assert rep.max_measured == pytest.approx(0.1)
    assert rep.max_bound == pytest.approx(0.4)


def test_deviation_violation_fails_approx_without_a_fatal_record(tmp_path, monkeypatch):
    # a violated inequality is a verdict, not a crash: the metric reads
    # false, the warning names the level and approx exits 1
    exact_arrays = approx._deviation_arrays

    def first_sample_over(*args):
        measured, bound = exact_arrays(*args)
        measured = measured.copy()
        measured[0] = bound[0] + 1.0
        return measured, bound

    monkeypatch.setattr(approx, "_deviation_arrays", first_sample_over)
    cfg = builtin_scenario("exponential")
    code, summary = run_pipeline(cfg, "approx", tmp_path)
    assert code == 1 and not summary["pass"]
    assert summary["metrics"]["deviation_grid_passed"] is False
    assert not any(w.startswith("fatal:") for w in summary["warnings"])
    first = cfg.approx_levels[0]
    assert any(w.startswith(f"level {first}: deviation bound violated at ")
               for w in summary["warnings"])


def test_random_deviation_ten_thousand_samples():
    rep = random_deviation_check(10_000, seed=20240601)
    assert rep.passed and rep.n_violations == 0
    assert rep.worst_ratio <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(max_magnitude=0.999),
       st.complex_numbers(max_magnitude=1.0),
       st.complex_numbers(max_magnitude=1.0),
       st.complex_numbers(max_magnitude=50.0))
def test_deviation_inequality_is_algebraic(z, tau_v, tau_n, p_v):
    measured, bound = _deviation_arrays(np.array([z]), complex(tau_v),
                                        complex(tau_n), np.array([p_v]))
    assert measured[0] <= bound[0] + 1e-12


XS = np.linspace(0.0, 1.0, 4097)


def test_gronwall_constant_coefficients():
    env = gronwall_envelope(XS, np.full(XS.size, 0.1), np.ones(XS.size), [1.0])
    assert env[0] == pytest.approx(0.1 * np.e, abs=1e-7)


def test_gronwall_zero_g_returns_h():
    env = gronwall_envelope(XS, np.full(XS.size, 0.3), np.zeros(XS.size), [0.25, 0.75])
    assert np.allclose(env, 0.3)


def test_gronwall_linear_h():
    env = gronwall_envelope(XS, XS, np.ones(XS.size), [1.0])
    assert env[0] == pytest.approx(np.e - 1.0, abs=1e-7)


def test_convergence_table_constant_tau_is_noise():
    grid = circle_grid((0.3, 0.6), 4)
    tab = convergence_table(ONE, DenjoyWolffSpec.constant(0.3), [2, 4], grid, [0.5, 1.0])
    assert all(r.ef_error <= 1e-8 for r in tab.rows)
    assert all(r.deviation == 0.0 for r in tab.rows)


def test_ef_convergence_measurable_tau():
    grid = circle_grid((0.3, 0.6), 8)
    tab = convergence_table(ONE, TAU_MEASURABLE, [4, 8, 16, 32], grid,
                            [0.5, 1.0, 1.5, 2.0])
    assert [r.n for r in tab.rows] == [4, 8, 16, 32]
    assert tab.deviation_grid_passed
    errs = tab.column("ef_error")
    assert tab.ef_strictly_decreasing
    assert errs[-1] <= 1e-3
    assert all(r.ef_error <= r.envelope + 1e-8 for r in tab.rows)


def test_chain_convergence_measurable_tau():
    grid = circle_grid((0.3, 0.6), 8)
    tab = convergence_table(ONE, TAU_MEASURABLE, [4, 8, 16, 32], grid,
                            [0.5, 1.0, 1.5, 2.0])
    errs = tab.column("chain_error")
    assert tab.chain_strictly_decreasing
    assert np.isfinite(errs).all()
    assert errs[-1] <= 1e-3


def test_step_tail_forwards_the_tail_spec():
    tail = DenjoyWolffSpec.from_time_table([0.0, 3.0, 6.0], [0.1, 0.2, 0.4])
    spec, _ = step_approximate(tail, 4, 4.0)
    assert spec.t_aut == 6.0 and spec.nodes == (6.0,)
    assert spec.breakpoints == (1.0, 2.0, 3.0, 4.0)
    assert spec.value(5.0) == pytest.approx(0.1 + (0.2 - 0.1) / 3 * 3 + (0.4 - 0.2) / 3 * 2)
    # past a tail that is constant from the horizon on, the last jump counts:
    # the cell [6, 8) samples the tail's final value 0.4
    assert step_approximate(tail, 4, 8.0)[0].t_aut == 6.0
    const = DenjoyWolffSpec.constant(0.2)
    assert step_approximate(const, 4, 4.0)[0].t_aut == 0.0
    assert step_approximate(TAU_MEASURABLE, 4, 4.0)[0].t_aut is None
    step = DenjoyWolffSpec.step([1.0, 5.0], [0.3, 0.6j, 0.2])
    spec, _ = step_approximate(step, 4, 4.0)
    assert spec.breakpoints[-2:] == (4.0, 5.0) and spec.t_aut == 5.0
    step = DenjoyWolffSpec.step([1.0, 2.0], [0.3, 0.6j, 0.6j])
    assert step.t_aut == 1.0
    assert step_approximate(step, 4, 4.0)[0].t_aut == 1.0
    assert spec.frozen_on(4.0, 5.0) == 0.6j and spec.frozen_on(5.0, 6.0) == 0.2


def test_convergence_table_excludes_chain_integration_noise():
    # step approximants that reproduce a step tau exactly differ from it
    # only by integration noise: every level sits at the floor
    step = DenjoyWolffSpec.step([1.0], [0.3, 0.6j])
    grid = circle_grid((0.3, 0.6), 4)
    tab = convergence_table(ONE, step, [4, 8], grid, [0.5, 1.0, 2.0], horizon=4.0)
    assert np.isnan(tab.column("chain_error")).all()
    assert all("noise floor" in w for w in tab.warnings[:2])


def test_convergence_table_evaluates_only_the_compared_grid(monkeypatch):
    # every chain evaluation of the study gets the seed grid at each
    # checkpoint and nothing else: no trace ring, no origin frame point
    sizes = []

    def spy(field, t, points, *args):
        sizes.append(np.size(points))
        return real(field, t, points, *args)

    real = approx.limit_frame
    monkeypatch.setattr(approx, "limit_frame", spy)
    grid = circle_grid((0.3, 0.6), 8)
    cps = [0.5, 1.0, 2.0]
    convergence_table(ONE, TAU_MEASURABLE, [4, 8], grid, cps)
    assert sizes == [len(grid) * len(cps)] * 3


def test_convergence_table_measurable_table():
    # the config-built table takes the exact tail: its levels stay above the
    # floor and strictly decreasing
    tau = DenjoyWolffSpec.from_time_table([t / 8.0 for t in range(64)],
                                          [(t / 8.0) / (1.0 + t / 8.0) for t in range(64)])
    grid = circle_grid((0.3, 0.6), 8)
    tab = convergence_table(ONE, tau, [4, 8, 16, 32], grid, [0.5, 1.0, 1.5, 2.0])
    errs = tab.column("chain_error")
    assert tab.chain_strictly_decreasing and np.isfinite(errs).all()
    assert 1e-5 < errs[-1] < 1e-2
