import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerqc.grids import DELTA_GUARD, SeedGrid, circle_grid, hyperbolic_distance
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field
from loewnerqc.evolution import (solve_forward, solve_reverse, verify_semigroup,
                                 schwarz_pick_check, derivative_at_origin)
from loewnerqc.config import GridConfig
from loewnerqc import evolution

EXP = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(0))
CHORDAL = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
ROTATION = assemble_field(HerglotzSpec.constant(1j), DenjoyWolffSpec.constant(0))
SEEDS = np.array([0.5, 0.3 + 0.4j, -0.2j, -0.7 + 0.1j])


def riccati(z, s, t):
    return 1 + (z - 1) / (1 - (z - 1) * (t - s))


def test_forward_exponential_oracle():
    tr = solve_forward(EXP, 0.0, 1.0, SEEDS, tol=1e-10)
    assert np.abs(tr.at(1.0) - SEEDS * np.exp(-1)).max() < 1e-9
    assert np.abs(tr.deriv_at(1.0) - np.exp(-1)).max() < 1e-9


def test_forward_chordal_riccati_oracle():
    tr = solve_forward(CHORDAL, 0.0, 1.0, SEEDS, tol=1e-10)
    assert np.abs(tr.at(1.0) - riccati(SEEDS, 0, 1)).max() < 1e-9
    assert tr.at(1.0)[0] != 0.5  # seed 0.5 maps to 2/3, not the origin seed value
    tr0 = solve_forward(CHORDAL, 0.0, 1.0, np.zeros(1, complex), tol=1e-10)
    assert tr0.at(1.0)[0] == pytest.approx(0.5)


def test_forward_rotation_oracle():
    tr = solve_forward(ROTATION, 0.0, np.pi, SEEDS, tol=1e-10)
    assert np.abs(tr.at(np.pi) + SEEDS).max() < 1e-9


def test_initial_condition_exact():
    tr = solve_forward(CHORDAL, 0.5, 2.0, SEEDS, tol=1e-9)
    assert np.array_equal(tr.at(0.5), SEEDS)
    assert np.all(tr.deriv_at(0.5) == 1.0)


def test_reverse_exponential_oracle():
    tr = solve_reverse(EXP, 1.0, SEEDS, tol=1e-10, checkpoints=[0.0, 0.4])
    assert np.abs(tr.at(0.0) - SEEDS * np.exp(-1)).max() < 1e-9
    assert np.abs(tr.at(0.4) - SEEDS * np.exp(-0.6)).max() < 1e-9


def test_reverse_riccati_origin_seed():
    tr = solve_reverse(CHORDAL, 1.0, np.zeros(1, complex), tol=1e-10)
    assert tr.at(0.0)[0] == pytest.approx(0.5, abs=1e-9)


def test_reverse_empty_interval_is_identity():
    tr = solve_reverse(CHORDAL, 0.0, SEEDS)
    assert np.array_equal(tr.at(0.0), SEEDS)


def test_reverse_matches_forward_for_autonomous_field():
    # autonomous data: omega_{s,t} equals the forward flow over t - s
    fwd = solve_forward(CHORDAL, 0.0, 0.7, SEEDS, tol=1e-10)
    rev = solve_reverse(CHORDAL, 0.7, SEEDS, tol=1e-10)
    assert np.abs(rev.at(0.0) - fwd.at(0.7)).max() < 1e-8


def test_semigroup_exponential():
    rep = verify_semigroup(EXP, 0.0, 0.5, 1.0, SEEDS, tol=1e-9)
    assert rep.residual < 1e-8


def test_semigroup_degenerate_composition():
    rep = verify_semigroup(CHORDAL, 0.0, 0.0, 1.0, SEEDS, tol=1e-9)
    assert rep.residual < 1e-8
    rep = verify_semigroup(CHORDAL, 0.0, 1.0, 1.0, SEEDS, tol=1e-9)
    assert rep.residual < 1e-8


def test_semigroup_becker_64_seeds():
    fld = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                         DenjoyWolffSpec.constant(0))
    grid = circle_grid(tuple(np.linspace(0.1, 0.8, 8)), 8)
    rep = verify_semigroup(fld, 0.0, 1.0, 2.0, grid, tol=1e-9)
    assert rep.residual < 1e-6


def test_schwarz_pick_rotation_is_isometry():
    tr = solve_forward(ROTATION, 0.0, 2.0, SEEDS, tol=1e-10,
                       checkpoints=np.linspace(0, 2, 9))
    rep = schwarz_pick_check(tr, tol_hyp=1e-9)
    assert rep.passed
    assert abs(rep.worst_violation) < 1e-9


def test_schwarz_pick_strict_contraction():
    tr = solve_forward(EXP, 0.0, 1.0, np.array([0.1, 0.5]), tol=1e-10)
    rep = schwarz_pick_check(tr, pairs=[(0, 1)])
    assert rep.passed
    d0 = hyperbolic_distance(0.1, 0.5)
    d1 = hyperbolic_distance(0.1 * np.exp(-1), 0.5 * np.exp(-1))
    assert d1 < d0


def test_modulus_monotone_for_radial_herglotz_data():
    fld = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                         DenjoyWolffSpec.constant(0))
    tr = solve_forward(fld, 0.0, 2.0, SEEDS, tol=1e-10,
                       checkpoints=np.linspace(0, 2, 21))
    mods = np.abs(tr.values)
    assert np.all(np.diff(mods, axis=0) <= 1e-12)


def test_derivative_at_origin_exponential():
    tr = derivative_at_origin(EXP, 1.0)
    assert abs(tr.dphi[-1] - np.exp(-1)) < 1e-9
    assert np.abs(tr.dphi - tr.quadrature).max() < 1e-9


def test_derivative_at_origin_becker_normalized():
    # p(0,t) = 1 forces |phi'_{0,t}(0)| = e^{-t}
    fld = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                         DenjoyWolffSpec.constant(0))
    tr = derivative_at_origin(fld, 2.0, checkpoints=[1.0, 2.0])
    assert np.abs(np.abs(tr.dphi) - np.exp(-tr.times)).max() < 1e-8


def test_derivative_at_origin_rotation_modulus_one():
    tr = derivative_at_origin(ROTATION, np.pi, tol=1e-11)
    assert abs(abs(tr.dphi[-1]) - 1.0) < 1e-9


def test_variational_derivative_matches_finite_differences():
    fld = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                         DenjoyWolffSpec.constant(0.2 + 0.1j))
    h = 1e-4
    z0 = 0.4 + 0.2j
    tr = solve_forward(fld, 0.0, 1.5, np.array([z0, z0 + h, z0 - h]), tol=1e-11)
    vals = tr.at(1.5)
    fd = (vals[1] - vals[2]) / (2 * h)
    assert abs(tr.deriv_at(1.5)[0] - fd) < 1e-5


def test_step_tau_breakpoint_alignment():
    fld = assemble_field(HerglotzSpec.constant(1),
                         DenjoyWolffSpec.step([1.0], [0.0, 1.0]))
    tr = solve_forward(fld, 0.0, 2.0, SEEDS, tol=1e-11, checkpoints=[1.0, 2.0])
    mid = SEEDS * np.exp(-1)
    assert np.abs(tr.at(1.0) - mid).max() < 1e-9
    assert np.abs(tr.at(2.0) - riccati(mid, 1, 2)).max() < 1e-9


def test_boundary_guard_truncates_honestly():
    # strong repulsion from tau = 0 pushes |z| to the guard: Re p < 0 data is
    # rejected by checks but the integrator must still truncate, not wander
    p = HerglotzSpec.sampled(lambda z, t: np.full_like(np.asarray(z, complex), -2.0))
    fld = assemble_field(p, DenjoyWolffSpec.constant(0))
    tr = solve_forward(fld, 0.0, 4.0, np.array([0.5 + 0j]), tol=1e-9)
    assert tr.truncated[0]
    assert np.isnan(tr.at(4.0)[0].real)
    assert np.isfinite(tr.truncation_time[0])


def test_seed_grid_and_solvers_share_the_boundary_guard():
    # a circle placed on the guard rounds a few ulps past it: the grid and
    # both solvers admit it, and all three refuse a point just outside
    on = circle_grid((1.0 - DELTA_GUARD,), 8)
    assert solve_forward(EXP, 0.0, 0.5, on).live().all()
    solve_reverse(EXP, 0.5, on)
    out = np.array([1.0 - DELTA_GUARD + 1e-14 + 0j])
    for build in (SeedGrid, lambda z: solve_forward(EXP, 0.0, 0.5, z),
                  lambda z: solve_reverse(EXP, 0.5, z)):
        with pytest.raises(ValueError, match="boundary guard"):
            build(out)


def test_seed_on_a_pole_is_truncated_alone():
    # p = 1/(1 - 2z) has its pole at the default seed 0.5: the field is not
    # finite there, so that seed stops where it starts and the rest go on
    fld = assemble_field(HerglotzSpec.rational([1], [1, -2]), DenjoyWolffSpec.constant(0))
    grid = GridConfig().seed_grid()
    tr = solve_forward(fld, 0.0, 1.0, grid, tol=1e-9)
    at_start = np.flatnonzero(tr.truncated & (tr.truncation_time == 0.0))
    assert grid.points[at_start].tolist() == [0.5]
    healthy = tr.live()
    assert healthy.sum() > len(grid) // 2
    assert np.isfinite(tr.at(1.0)[healthy]).all()
    assert tr.warnings == ["non-finite field at t = 0.0; 1 seed(s) truncated"]


def test_pole_config_evolve_ends_and_fails(tmp_path):
    cfg = tmp_path / "pole.json"
    cfg.write_text(json.dumps({"p": {"kind": "rational_table", "numerator": [1],
                                     "denominator": [1, -2]}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "loewnerqc", "evolve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [w for w in summary["warnings"] if "non-finite" in w] == \
        ["non-finite field at t = 0.0; 1 seed(s) truncated"]


def test_deterministic_repeat():
    a = solve_forward(CHORDAL, 0.0, 2.0, SEEDS, tol=1e-9, checkpoints=[1.0, 2.0])
    b = solve_forward(CHORDAL, 0.0, 2.0, SEEDS, tol=1e-9, checkpoints=[1.0, 2.0])
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.derivs, b.derivs)


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        solve_forward(EXP, 0.0, 1.0, SEEDS, checkpoints=[2.0])
    with pytest.raises(ValueError):
        solve_forward(EXP, 1.0, 0.5, SEEDS)


# one start time per seed: each seed joins the batch at its own start
STARTS = np.array([0.0, 0.3, 0.3, 1.1])


def test_staggered_starts_match_separate_solves():
    from loewnerqc.scenarios import builtin_scenario

    cfg = builtin_scenario("measurable-tau")
    fld = assemble_field(cfg.p, cfg.tau)
    tol = 1e-10
    tr = solve_forward(fld, STARTS, 2.0, SEEDS, tol=tol, checkpoints=[1.5])
    for i, (s, z) in enumerate(zip(STARTS, SEEDS)):
        one = solve_forward(fld, s, 2.0, [z], tol=tol, checkpoints=[1.5])
        for t in (1.5, 2.0):
            assert abs(tr.at(t)[i] - one.at(t)[0]) <= 10 * tol * abs(one.at(t)[0])
            assert abs(tr.deriv_at(t)[i] - one.deriv_at(t)[0]) <= 10 * tol * abs(one.deriv_at(t)[0])


def test_a_seed_sits_at_its_start_and_holds_nan_before_it():
    # the starts are stops, stored only when asked for: a batch that needs
    # its end row alone keeps two rows, not one per start
    assert np.array_equal(solve_forward(CHORDAL, STARTS, 2.0, SEEDS).times, [0.0, 2.0])
    tr = solve_forward(CHORDAL, STARTS, 2.0, SEEDS, tol=1e-10, checkpoints=STARTS)
    assert np.array_equal(tr.times, [0.0, 0.3, 1.1, 2.0])
    assert tr.live().all()
    for i, s in enumerate(STARTS):
        r = tr.row(s)
        assert tr.values[r, i] == SEEDS[i] and tr.derivs[r, i] == 1.0
        assert np.isnan(tr.values[:r, i]).all() and np.isnan(tr.derivs[:r, i]).all()
    assert np.abs(tr.at(2.0) - riccati(SEEDS, STARTS, 2.0)).max() < 1e-9


def test_a_start_after_t_end_raises():
    with pytest.raises(ValueError, match="t_end = 1.0 < s = 1.5"):
        solve_forward(EXP, np.array([0.0, 0.5, 1.5, 0.2]), 1.0, SEEDS)


def test_a_stop_next_to_a_breakpoint_keeps_the_batch_going():
    # starts or checkpoints an ulp to 5e-14 from the jump at 1 make segments
    # shorter than the step floor; they are not stepped, and they must not
    # shrink the step the batch carries on with
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.step([1.0], [0.0, 1.0]))
    starts = np.array([0.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 + 5e-14])
    at_one = np.where(starts == 0.0, SEEDS * np.exp(-1), SEEDS)
    tr = solve_forward(fld, starts, 2.0, SEEDS, tol=1e-11)
    assert tr.live().all() and not tr.warnings
    assert np.abs(tr.at(2.0) - riccati(at_one, np.maximum(starts, 1.0), 2.0)).max() < 1e-9
    tr = solve_forward(fld, 0.0, 2.0, SEEDS, tol=1e-11, checkpoints=[1.0 + 5e-14])
    assert tr.live().all() and not tr.warnings
    assert np.abs(tr.at(2.0) - riccati(SEEDS * np.exp(-1), 1.0, 2.0)).max() < 1e-9


def test_an_underflow_truncates_the_batch_and_later_seeds_join_afresh(monkeypatch):
    # an error estimate no step can meet shrinks h below the floor, so each
    # seed is truncated where it joins, and the next joiners start from a fresh h
    monkeypatch.setattr(evolution, "_E", evolution._E * 1e30)
    tr = solve_forward(EXP, STARTS, 2.0, SEEDS)
    assert tr.truncated.all() and np.array_equal(tr.truncation_time[1:], STARTS[1:])
    assert sum("underflow" in w for w in tr.warnings) == 3
    # the joiners tried steps of their own before the floor stopped them
    assert tr.steps_rejected > solve_forward(EXP, 0.0, 2.0, SEEDS[:1]).steps_rejected


def test_a_staggered_step_costs_six_field_evaluations(monkeypatch):
    # seeds that join at 0.25 take their first stage from the segment's one
    # f(t, y) call, so the count is the one of a batch that starts together
    from loewnerqc.herglotz import VectorFieldHandle

    calls = {"segments": 0, "evals": 0}
    segment_rhs = VectorFieldHandle.segment_rhs

    def counted_segment(self, a, b):
        calls["segments"] += 1
        pair = segment_rhs(self, a, b)

        def counted(z, t):
            calls["evals"] += 1
            return pair(z, t)
        return counted

    monkeypatch.setattr(VectorFieldHandle, "segment_rhs", counted_segment)
    fld = assemble_field(HerglotzSpec.constant(1),
                         DenjoyWolffSpec.step([0.5, 1.0], [0.3, 0.6j, 1.0]))
    seeds = 0.95 * np.exp(2j * np.pi * np.arange(16) / 16)
    starts = np.where(np.arange(16) % 2, 0.25, 0.0)
    tr = solve_forward(fld, starts, 2.0, seeds)
    assert tr.live().all() and tr.steps_rejected > 0
    first, late = tr.steps_accepted[starts == 0.0], tr.steps_accepted[starts == 0.25]
    assert len(set(first.tolist())) == 1 and (late < first[0]).all()
    assert calls["segments"] == 4       # the stops 0.25, 0.5 and 1 cut [0, 2] in four
    assert calls["evals"] == 6 * (first[0] + tr.steps_rejected) + calls["segments"]


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(0.0, np.pi))
def test_exponential_flow_property(r, angle):
    z = r * np.exp(1j * angle)
    tr = solve_forward(EXP, 0.0, 0.8, np.array([z]), tol=1e-10)
    assert abs(tr.at(0.8)[0] - z * np.exp(-0.8)) < 1e-8


def test_table_nodes_are_integration_stops():
    # the measurable-tau table is piecewise linear: its 64 nodes are kinks
    # of the field, so every node ends a step, while only jumps count as
    # discontinuities; across the whole table the origin then lands within
    # 1e-10 of a tol-1e-12 solve
    from loewnerqc.scenarios import builtin_scenario

    cfg = builtin_scenario("measurable-tau")
    fld = assemble_field(cfg.p, cfg.tau)
    nodes = [t / 8.0 for t in range(64)]
    assert fld.stops == tuple(nodes) and fld.tau.breakpoints == ()
    end = nodes[-1]
    got = solve_forward(fld, 0.0, end, np.zeros(1, complex), tol=1e-9)
    ref = solve_forward(fld, 0.0, end, np.zeros(1, complex), tol=1e-12)
    assert abs(got.at(end)[0] - ref.at(end)[0]) < 1e-10


def test_rejected_step_restarts_from_the_accepted_stage():
    # the chordal frame points reach |z| = 0.999 on the trace ring, where
    # the tolerance rejects steps; each retry must restart from f(t, y) of
    # the last accepted step, not from the rejected trial's last stage,
    # or the controller rejects in cascades and accepts a step built on
    # the wrong first stage
    from loewnerqc.chains import _frame_points
    from loewnerqc.scenarios import builtin_scenario

    pts = _frame_points(builtin_scenario("chordal").grid.seed_grid(), 256, 1e-3)
    tr = solve_forward(CHORDAL, 0.0, 0.5, pts, tol=1e-9, atol=1e-300)
    assert tr.live().all()
    exact = 1 - 1 / (1 / (1 - pts) + 0.5)
    assert np.max(np.abs(tr.at(0.5) - exact) / np.abs(exact)) <= 1e-6
    assert tr.steps_rejected <= 10


@pytest.mark.parametrize("reverse", [False, True])
def test_a_step_costs_six_field_evaluations(monkeypatch, reverse):
    # first-same-as-last: each segment evaluates f(t, y) once, and each
    # trial step, accepted or rejected, six more stages
    from loewnerqc.herglotz import VectorFieldHandle

    calls = {"segments": 0, "evals": 0}
    segment_rhs = VectorFieldHandle.segment_rhs

    def counted_segment(self, a, b):
        calls["segments"] += 1
        pair = segment_rhs(self, a, b)

        def counted(z, t):
            calls["evals"] += 1
            return pair(z, t)
        return counted

    monkeypatch.setattr(VectorFieldHandle, "segment_rhs", counted_segment)
    fld = assemble_field(HerglotzSpec.constant(1),
                         DenjoyWolffSpec.step([0.5, 1.0], [0.3, 0.6j, 1.0]))
    seeds = 0.95 * np.exp(2j * np.pi * np.arange(16) / 16)
    tr = (solve_reverse(fld, 2.0, seeds, checkpoints=[0.25]) if reverse else
          solve_forward(fld, 0.0, 2.0, seeds, checkpoints=[0.25]))
    assert tr.live().all() and tr.steps_rejected > 0
    steps = set(tr.steps_accepted.tolist())
    assert len(steps) == 1
    assert calls["segments"] == 4       # the stops 0.25, 0.5 and 1 cut [0, 2] in four
    assert calls["evals"] == 6 * (steps.pop() + tr.steps_rejected) + calls["segments"]


_THREAD_CPU_PROBE = """
import os
import numpy as np
from loewnerqc import chains
from loewnerqc.evolution import solve_forward
from loewnerqc.herglotz import assemble_field
from loewnerqc.scenarios import builtin_scenario

def cpu_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
        ticks[int(tid)] = int(rest[11]) + int(rest[12])     # utime + stime
    return ticks

cfg = builtin_scenario("measurable-tau")
fld = assemble_field(cfg.p, cfg.tau)
seeds = 0.9 * np.sqrt(np.linspace(0.01, 1.0, 1200)) * np.exp(2.4j * np.arange(1200))
before = cpu_ticks()
for _ in range(20):
    solve_forward(fld, 0.0, 2.0, seeds)
chains._panel_quadrature(lambda w: -2.0 / (1.0 + w), 0.0, 1.05 * seeds[:1024], 1e-10)
after = cpu_ticks()
main = os.getpid()
print(after[main] - before.get(main, 0),
      sum(v - before.get(tid, 0) for tid, v in after.items() if tid != main))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs per-thread CPU times and a second core")
def test_the_hot_loops_leave_the_blas_pool_idle():
    # on large batches a BLAS gemv wakes the library's worker threads, which
    # then spin between the integrator's small calls and burn a core; the
    # stage sums and the panel sums must keep the work on the main thread
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _THREAD_CPU_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    main, others = map(int, proc.stdout.split())
    assert main > 0 and others <= 0.1 * main, (main, others)
