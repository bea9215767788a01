import dataclasses

import numpy as np
import pytest

from loewnerqc.grids import circle_grid, past_guard, rows_across_jumps, trace_ring
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field
from loewnerqc.evolution import solve_forward, solve_reverse
from loewnerqc import chains
from loewnerqc.approx import step_approximate
from loewnerqc.scenarios import builtin_scenario

EXP = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(0))
CHORDAL = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
ROTATION = assemble_field(HerglotzSpec.constant(1j), DenjoyWolffSpec.constant(0))
BECKER = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                        DenjoyWolffSpec.constant(0))
GRID = circle_grid((0.2, 0.5, 0.8), 8)
# the Becker p as an opaque callable declares no autonomy time, so its
# frames come from the scaling limit; so do those of chordal's p = 1
BECKER_SAMPLED = assemble_field(HerglotzSpec.sampled(BECKER.p.evaluate),
                                DenjoyWolffSpec.constant(0))
CHORDAL_SAMPLED = assemble_field(HerglotzSpec.sampled(lambda z, t: np.ones_like(z)),
                                 DenjoyWolffSpec.constant(1))
# the Becker p, which depends on z, with the step-tau tau (T_aut = 1): its
# exact tail pushes every point, where step-tau's own p = 1 takes the Mobius push
PUSHED = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                        builtin_scenario("step-tau").tau)


def chordal_chain(z, t):
    return 1.0 / (1.0 - z) - (1.0 + t)


def origin_image(field, t, tol):
    """(phi_{0,t}(0), phi'_{0,t}(0)) from a direct solve."""
    o = solve_forward(field, 0.0, t, np.zeros(1, complex), tol=tol, atol=chains._ATOL_FLOOR)
    return o.at(t)[0], o.deriv_at(t)[0]


def test_normalizer_exponential_trivial():
    alpha, dphi = origin_image(EXP, 1.0, 1e-10)
    assert alpha == 0.0
    assert abs(dphi / abs(dphi) - 1.0) < 1e-12
    assert chains._psi_prime0(alpha, dphi) == pytest.approx(np.exp(-1), abs=1e-9)


def test_normalizer_chordal_alpha_half():
    alpha, dphi = origin_image(CHORDAL, 1.0, 1e-10)
    assert alpha == pytest.approx(0.5, abs=1e-9)
    # M_t^{-1}(alpha) = 0 for beta = phi'_{0,t}(0) / |phi'_{0,t}(0)|
    assert abs(chains._m_inv(alpha, dphi / abs(dphi), alpha)) < 1e-14


def test_normalizer_rotation_beta():
    alpha, dphi = origin_image(ROTATION, 1.0, 1e-11)
    assert alpha == 0.0
    assert dphi == pytest.approx(np.exp(-1j), abs=1e-9)


def test_range_normalized_chain_exponential():
    fr = chains.range_normalized_chain(EXP, [0.0, 0.5, 1.0], GRID, n_theta=64)
    ref = np.exp(fr.checkpoints)[:, None] * GRID.points[None, :]
    assert np.abs(fr.values - ref).max() < 1e-8
    assert np.abs(fr.derivs - np.exp(fr.checkpoints)[:, None]).max() < 1e-8
    assert abs(fr.origin_values[0]) < 1e-10
    assert abs(fr.origin_derivs[0] - 1) < 1e-8


def test_range_normalized_chain_chordal_closed_form():
    fr = chains.range_normalized_chain(CHORDAL, [0.0, 0.5, 1.0], GRID, n_theta=64)
    ref = chordal_chain(GRID.points[None, :], fr.checkpoints[:, None])
    assert np.abs(fr.values - ref).max() < 1e-7
    dref = 1.0 / (1.0 - GRID.points[None, :]) ** 2
    assert np.abs(fr.derivs - dref).max() < 1e-5
    assert fr.converged.all()


def test_rotation_frames_never_grow():
    fr = chains.range_normalized_chain(ROTATION, [0.0, 0.5, 1.0], GRID, n_theta=64)
    ref = np.exp(1j * fr.checkpoints)[:, None] * GRID.points[None, :]
    assert np.abs(fr.values - ref).max() < 1e-8
    ok, worst = chains.frames_coincide_up_to_rotation(fr)
    assert ok and worst < 1e-9


@pytest.mark.parametrize("name, cps", [
    pytest.param("becker", [0.0, 0.5, 1.0], id="becker"),       # every row scaled from T_aut = 0
    pytest.param("step-tau", [0.0, 0.5, 1.0, 1.5, 2.0],         # pushes to T_aut = 1, then scaled
                 id="step-tau"),
    pytest.param("becker-sampled", [0.0, 0.06, 0.12],           # the scaling limit
                 id="becker-sampled"),
    pytest.param("chordal", [0.0, 0.5, 1.0], id="chordal"),     # every row shifted from T_aut = 0
    pytest.param("chordal-sampled", [0.0, 0.5, 1.0],            # the extrapolated scaling limit
                 id="chordal-sampled"),
    # no row at T_aut = 0: every row moves by the model map, e != 1 or shift != 0
    pytest.param("becker", [0.5, 1.0, 1.5], id="becker-late"),
    pytest.param("chordal", [0.5, 1.0, 1.5], id="chordal-late"),
])
def test_frames_match_per_time_limit_frame(name, cps):
    fld = {"becker": BECKER, "becker-sampled": BECKER_SAMPLED, "chordal": CHORDAL,
           "chordal-sampled": CHORDAL_SAMPLED, "step-tau": _builtin_field("step-tau")[1]}[name]
    small = circle_grid((0.3, 0.6), 8)
    fr = chains.range_normalized_chain(fld, cps, small, n_theta=16)
    pts = chains._frame_points(small, 16, 1e-3)
    assert fr.converged.all()
    for i, t in enumerate(fr.checkpoints):
        ref = chains.limit_frame(fld, float(t), pts)
        got = np.concatenate([fr.values[i], fr.traces[i], [fr.origin_values[i]]])
        assert (np.abs(got - ref.values) <= 1e-7 * np.maximum(1.0, np.abs(ref.values))).all()
        got = np.concatenate([fr.derivs[i], fr.trace_derivs[i], [fr.origin_derivs[i]]])
        assert (np.abs(got - ref.derivs) <= 1e-6 * np.maximum(1.0, np.abs(ref.derivs))).all()


def test_step_tau_chain_integrates_legs_only_to_t_aut(monkeypatch):
    # T_aut = 1 with a z-dependent p: one staggered batch carries the frame
    # points from each row's min(t, 1) and the origin seed from 0 to 1, and
    # rows past 1 take no step
    calls = []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        traj = solve_forward(field, s, t_end, seeds, *args, **kwargs)
        calls.append((s, t_end, np.atleast_1d(seeds).size, traj.steps_accepted))
        return traj

    fld = PUSHED
    monkeypatch.setattr(chains, "solve_forward", spy)
    cps = np.linspace(0.0, 2.0, 9)
    fr = chains.range_normalized_chain(fld, cps, GRID, n_theta=16)
    n = len(GRID) + 16 + 1
    assert fr.converged.all()
    assert len(calls) == 1
    starts, t_end, size, steps = calls[0]
    assert np.array_equal(starts, np.append(np.repeat(np.minimum(cps, 1.0), n), 0.0))
    assert t_end == 1.0 and size == 9 * n + 1
    assert (steps[:-1][starts[:-1] == 1.0] == 0).all() and (steps[starts < 1.0] > 0).all()


def test_a_row_next_to_a_breakpoint_keeps_the_chain_going():
    # linspace puts row 3 at 0.30000000000000004, one ulp past the jump at
    # 0.3: the segment between them takes no step and must not starve the batch
    fld = assemble_field(HerglotzSpec.constant(1),
                         DenjoyWolffSpec.step([0.3, 0.6], [0.5, -0.5j, 0.2]))
    cps = np.linspace(0.0, 0.8, 9)
    assert 0.3 < cps[3] < 0.3 + 1e-15
    fr = chains.range_normalized_chain(fld, cps, GRID, n_theta=16)
    assert fr.converged.all()
    assert chains.verify_transitions(fr).passed


def test_transition_identity():
    fr = chains.range_normalized_chain(BECKER, [0.0, 0.4, 0.8], GRID, n_theta=64)
    rep = chains.verify_transitions(fr)
    assert rep.passed
    assert rep.residual < 1e-6
    # the origin is checked too: a stored f_0(0) off by 1e-3 fails the report
    fr.origin_values[0] += 1e-3
    rep = chains.verify_transitions(fr)
    assert not rep.passed
    assert rep.residual == pytest.approx(1e-3, rel=1e-3)


def test_transitions_fail_on_pairs_with_nothing_to_compare():
    # no valid grid point and a lost origin: every pair is NaN, not skipped
    fr = chains.range_normalized_chain(BECKER, [0.0, 0.4, 0.8], GRID, n_theta=16)
    fr.grid_valid[:] = False
    fr.origin_values[:] = np.nan
    rep = chains.verify_transitions(fr)
    assert not rep.passed and np.isnan(rep.residual)
    assert [(s, t) for s, t, _ in rep.per_pair] == [(0.0, 0.4), (0.4, 0.8), (0.0, 0.8)]
    assert all(np.isnan(r) for *_, r in rep.per_pair)


def test_a_pair_with_nothing_to_compare_leaves_the_others_finite():
    # one shared evaluation serves every pair: a blank row at 0.4 makes only
    # the pair (0.4, 0.8) NaN, and the report still fails
    fr = chains.range_normalized_chain(BECKER, [0.0, 0.4, 0.8], GRID, n_theta=16)
    fr.grid_valid[1] = False
    fr.origin_values[1] = np.nan
    rep = chains.verify_transitions(fr)
    assert not rep.passed and np.isnan(rep.residual)
    gaps = {(s, t): r for s, t, r in rep.per_pair}
    assert np.isnan(gaps[0.4, 0.8])
    assert gaps[0.0, 0.4] < 1e-6 and gaps[0.0, 0.8] < 1e-6


def test_transitions_need_two_checkpoints():
    fr = chains.range_normalized_chain(EXP, [0.5], GRID, n_theta=16)
    with pytest.raises(ValueError, match="2 checkpoints"):
        chains.verify_transitions(fr)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_limit_frame_carries_its_normalizer(monkeypatch, t):
    # every solve is a leg carrying the points plus the origin seed; no
    # separate normalizer runs
    calls = []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        calls.append((s, t_end, np.atleast_1d(seeds).size))
        return solve_forward(field, s, t_end, seeds, *args, **kwargs)

    monkeypatch.setattr(chains, "solve_forward", spy)
    pts = GRID.points[:5]
    res = chains.limit_frame(BECKER_SAMPLED, t, pts)
    assert res.converged
    assert calls
    assert all(n == pts.size + 1 for _, end, n in calls), calls


def test_limit_frame_raises_when_the_origin_seed_is_lost(monkeypatch):
    def lose_seed(*args, **kwargs):
        traj = solve_forward(*args, **kwargs)
        traj.truncated[-1] = True
        return traj

    monkeypatch.setattr(chains, "solve_forward", lose_seed)
    with pytest.raises(chains.NormalizationError):
        chains.limit_frame(BECKER_SAMPLED, 0.0, GRID.points[:5])


def test_chain_growth_with_interior_normalization():
    # f_t'(0) = 1/phi'_{0,t}(0) = e^t when p(0,.) = 1
    fr = chains.range_normalized_chain(BECKER, [0.0, 1.0], GRID, n_theta=32)
    assert abs(fr.origin_derivs[1] - np.exp(1.0)) < 1e-6


def test_rotation_chain_with_interior_tau_is_the_scaling_limit():
    # p = i, tau interior: Re lambda = 0, so no exact tail, and the scaling
    # limit gives f_0 = z.  The Mobius Koenigs form z / (1 - conj(tau) z)
    # also solves f_s = f_t o phi_{s,t}: a disk-range chain is not unique
    tau = 0.3 + 0.2j
    fld = assemble_field(HerglotzSpec.constant(1j), DenjoyWolffSpec.constant(tau))
    assert chains._autonomous_tail(fld) is None
    res = chains.limit_frame(fld, 0.0, GRID.points)
    assert np.abs(res.values - GRID.points).max() <= 1e-9
    koenigs = GRID.points / (1.0 - np.conj(tau) * GRID.points)
    assert np.abs(koenigs - GRID.points).max() > 0.1


def test_beta_limit_exponential_plane():
    rep = chains.beta_limit(EXP)
    assert rep.classification == "plane"
    assert rep.beta0 <= 1e-8


def test_beta_limit_rotation_disk():
    rep = chains.beta_limit(ROTATION)
    assert rep.classification == "disk"
    assert rep.beta0 == pytest.approx(1.0, abs=1e-6)
    assert rep.radius == pytest.approx(1.0, abs=1e-6)


def test_beta_limit_chordal_plane_with_closed_form_raw():
    rep = chains.beta_limit(CHORDAL)
    assert rep.classification == "plane"
    # raw estimate at horizon t is exactly 1/(1+2t)
    assert rep.raw_last[0] == pytest.approx(1.0 / 129.0, abs=1e-9)
    assert rep.beta0 <= 1e-6


def test_decreasing_chain_exponential():
    fr = chains.decreasing_chain(EXP, [0.0, 0.5, 1.0], GRID, n_theta=64)
    ref = np.exp(-fr.checkpoints)[:, None] * GRID.points[None, :]
    assert np.abs(fr.values - ref).max() < 1e-8
    assert np.array_equal(fr.values[0], GRID.points)  # g_0 = id exactly
    rep = chains.verify_containment(fr)
    assert rep.passed and rep.checked_pairs == 2
    assert rep.lambda_diameter == pytest.approx(2 * np.exp(-1) * (1 - 1e-3), rel=1e-6)


# EXP with its autonomy time hidden: no exact tail, so rows before the last
# checkpoint are composed from legs into the scaling limit there
EXP_UNDECLARED = assemble_field(dataclasses.replace(HerglotzSpec.constant(1), t_aut=None),
                                DenjoyWolffSpec.constant(0))


@pytest.mark.parametrize("build", [
    pytest.param(lambda cps: chains.range_normalized_chain(EXP, cps, GRID, n_theta=16),
                 id="direct"),        # every row from the exact tail at T_aut = 0
    pytest.param(lambda cps: chains.range_normalized_chain(EXP_UNDECLARED, cps, GRID,
                                                           n_theta=16),
                 id="composition"),   # f_t = f_T o phi_{t,T} with T = 0.5
    pytest.param(lambda cps: chains.decreasing_chain(EXP, cps, GRID, n_theta=16),
                 id="decreasing"),
])
def test_chain_frames_closed_form_exponential(build):
    # f_t = e^t z and g_t = e^{-t} z: every stored field has a closed form
    cps = np.array([0.0, 0.25, 0.5])
    fr = build(cps)
    sign = -1.0 if fr.tag == "decreasing" else 1.0
    scale = np.exp(sign * cps)[:, None]
    ring = (1 - 1e-3) * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.array_equal(fr.checkpoints, cps)
    assert np.array_equal(fr.theta, 2 * np.pi * np.arange(16) / 16)
    assert fr.trace_radius == 1 - 1e-3
    assert fr.values.shape == fr.derivs.shape == fr.grid_valid.shape == (3, len(GRID))
    assert fr.traces.shape == fr.trace_derivs.shape == fr.trace_valid.shape == (3, 16)
    assert np.abs(fr.values - scale * GRID.points).max() < 1e-8
    assert np.abs(fr.derivs - scale).max() < 1e-8
    assert np.abs(fr.traces - scale * ring).max() < 1e-8
    assert np.abs(fr.trace_derivs - scale).max() < 1e-8
    assert np.abs(fr.origin_values).max() < 1e-8
    assert np.abs(fr.origin_derivs - scale[:, 0]).max() < 1e-8
    assert fr.grid_valid.all() and fr.trace_valid.all() and fr.converged.all()
    assert fr.warnings == []
    if fr.tag == "decreasing":
        assert np.array_equal(fr.acc_delta, np.zeros(3))


def _reverse_rows(field, cps, pts, tol=1e-9):
    """(values, derivs) of the decreasing chain, one reverse solve per checkpoint."""
    trajs = [solve_reverse(field, float(t), pts, tol=tol) for t in cps]
    return (np.stack([tr.at(0.0) for tr in trajs]), np.stack([tr.deriv_at(0.0) for tr in trajs]))


def _frame_columns(fr):
    """(values, derivs, valid) of frames in frame-point order: grid | ring | origin."""
    return (np.concatenate([fr.values, fr.traces, fr.origin_values[:, None]], axis=1),
            np.concatenate([fr.derivs, fr.trace_derivs, fr.origin_derivs[:, None]], axis=1),
            np.concatenate([fr.grid_valid, fr.trace_valid,
                            np.isfinite(fr.origin_values)[:, None]], axis=1))


def _count_solves(monkeypatch):
    calls = {"forward": 0, "reverse": 0}

    def counted(kind, solve):
        def spy(*args, **kwargs):
            calls[kind] += 1
            return solve(*args, **kwargs)
        return spy

    monkeypatch.setattr(chains, "solve_forward", counted("forward", solve_forward))
    monkeypatch.setattr(chains, "solve_reverse", counted("reverse", solve_reverse))
    return calls


def _builtin_g_chain(name, monkeypatch, n_theta=64):
    """(frames, reverse-solve rows, solve counts) of a builtin's g chain on 9 checkpoints."""
    cfg = builtin_scenario(name)
    fld = assemble_field(cfg.q_or_default(), cfg.tau)
    cps, grid = cfg.time.checkpoint_array(9), cfg.grid.seed_grid()
    ref = _reverse_rows(fld, cps, chains._frame_points(grid, n_theta, cfg.grid.delta_trace),
                        cfg.time.tol)
    calls = _count_solves(monkeypatch)
    fr = chains.decreasing_chain(fld, cps, grid, n_theta=n_theta,
                                 delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol)
    return fr, ref, calls


@pytest.mark.parametrize("name", ["becker", "chordal", "exponential"])
def test_an_autonomous_g_chain_is_one_forward_solve(name, monkeypatch):
    # T_aut = 0: omega_{0,t} = phi_{0,t}, every row from one forward solve
    fr, (vals, ders), calls = _builtin_g_chain(name, monkeypatch)
    assert calls == {"forward": 1, "reverse": 0}
    got_v, got_d, ok = _frame_columns(fr)
    assert ok.all() and np.isfinite(vals).all() and np.isfinite(ders).all()
    assert (np.abs(got_v - vals) <= 1e-9 * np.maximum(1.0, np.abs(vals))).all()
    assert (np.abs(got_d - ders) <= 1e-9 * np.maximum(1.0, np.abs(ders))).all()
    assert fr.warnings == []


@pytest.mark.parametrize("name", ["measurable-tau", "sector", "step-tau"])
def test_a_time_dependent_g_chain_keeps_one_reverse_solve_per_checkpoint(name, monkeypatch):
    fr, (vals, ders), calls = _builtin_g_chain(name, monkeypatch)
    assert calls == {"forward": 0, "reverse": fr.checkpoints.size}
    got_v, got_d, ok = _frame_columns(fr)
    assert np.array_equal(got_v, vals) and np.array_equal(got_d, ders)
    assert np.array_equal(ok, np.isfinite(vals))


@pytest.mark.parametrize("field", [EXP, assemble_field(
    HerglotzSpec.constant(1), DenjoyWolffSpec.step([0.5], [0.0, 0.3]))], ids=["autonomous", "step"])
def test_a_g_chain_at_t_0_is_the_identity(field):
    fr = chains.decreasing_chain(field, [0.0], GRID, n_theta=16)
    vals, ders, ok = _frame_columns(fr)
    assert np.array_equal(vals[0], chains._frame_points(GRID, 16, 1e-3))
    assert np.array_equal(ders[0], np.ones(vals.shape[1])) and ok.all()


# p = -1 is no Herglotz function: G = z pushes every point out, and the
# solves truncate each seed at the boundary guard
OUTWARD = assemble_field(HerglotzSpec(lambda z, t: (-1 + 0j, 0.0), t_aut=0.0),
                         DenjoyWolffSpec.constant(0))


def test_an_autonomous_g_chain_masks_what_the_reverse_solves_mask():
    # rows 0.05 apart: the ring leaves at t ~ 1e-3, the 0.8 circle at t ~ 0.22,
    # so the forward solve keeps the rows of a seed before its truncation
    cps = np.linspace(0.0, 0.4, 9)
    fr = chains.decreasing_chain(OUTWARD, cps, GRID, n_theta=64)
    vals, _ = _reverse_rows(OUTWARD, cps, chains._frame_points(GRID, 64, 1e-3))
    _, _, ok = _frame_columns(fr)
    assert np.array_equal(ok, np.isfinite(vals))
    assert fr.grid_valid[0].all() and fr.grid_valid[4].all() and not fr.grid_valid[5].all()
    assert fr.trace_valid[0].all() and not fr.trace_valid[1:].any()
    assert fr.warnings == [f"64 trace node(s) masked at t = {t}" for t in fr.checkpoints[1:]]


def test_decreasing_chain_chordal_lambda_collapses():
    cps = [0.0, 2.0, 8.0, 24.0]
    fr = chains.decreasing_chain(CHORDAL, cps, GRID, n_theta=64)
    rep = chains.verify_containment(fr)
    assert rep.passed
    # g_t = 1 + (z-1)/(1-(z-1)t): hull shrinks toward the boundary point 1
    assert rep.lambda_diameter < 0.2


def test_verify_chain_pde_exponential():
    cps = np.linspace(0.0, 0.2, 21)
    fr = chains.range_normalized_chain(EXP, cps, GRID, n_theta=32)
    rep = chains.verify_chain_pde(fr)
    assert rep.rel_residual < 1e-4
    assert not rep.resolution_limited


def test_verify_chain_pde_decreasing_frames():
    cps = np.linspace(0.0, 0.2, 21)
    fr = chains.decreasing_chain(EXP, cps, GRID, n_theta=32)
    rep = chains.verify_chain_pde(fr)
    assert rep.rel_residual < 1e-4


def test_chain_pde_second_order_in_dt():
    grid = circle_grid((0.2, 0.5, 0.8), 8)
    r1 = chains.verify_chain_pde(
        chains.range_normalized_chain(BECKER, np.linspace(0, 0.12, 13), grid, n_theta=16))
    r2 = chains.verify_chain_pde(
        chains.range_normalized_chain(BECKER, np.linspace(0, 0.12, 25), grid, n_theta=16))
    order = np.log2(r1.rel_residual / r2.rel_residual)
    assert order > 1.9


def test_pde_resolution_is_judged_by_the_coarsest_row():
    # ten rows 0.01 apart, then one of 0.1: the mean spacing is 0.018, but
    # the residual is a max over rows, so the coarse row sets it
    cps = np.append(np.linspace(0.0, 0.1, 11), 0.2)
    rep = chains.verify_chain_pde(chains.range_normalized_chain(EXP, cps, GRID, n_theta=16))
    assert rep.resolution_limited


def test_pde_residual_reads_the_rows_clear_of_a_jump():
    # one spacing of 1.0 past the jump at t = 1 leaves the rows near it to
    # their own stencils: only t = 0.9, 1.0 and 1.1 straddle the jump
    cps = np.append(np.linspace(0.0, 2.0, 21), 3.0)
    cfg = builtin_scenario("step-tau")
    fld = assemble_field(cfg.p, cfg.tau)
    rep = chains.verify_chain_pde(chains.range_normalized_chain(fld, cps, GRID, n_theta=16))
    assert np.isfinite(rep.rel_residual) and rep.resolution_limited
    assert np.flatnonzero(rows_across_jumps(cps, cfg.tau.breakpoints)).tolist() == [9, 10, 11]


def test_jump_rows_on_uniform_checkpoints_are_within_one_spacing():
    # on uniform rows a stencil holds the jump iff the row is within one spacing of it
    for n in (5, 9, 21, 65):
        cps = np.linspace(0.0, 1.0, n)
        for jump in (0.5, 0.3, 0.0, 1.0):
            near = np.abs(cps - jump) <= np.diff(cps).max() + 1e-12
            assert np.array_equal(rows_across_jumps(cps, [jump]), near)
        assert not rows_across_jumps(cps, []).any()


def test_unconverged_frames_are_flagged():
    # measurable tau with boundary limit: honest convergence flags at default tol
    tau = DenjoyWolffSpec.sampled(lambda t: t / (1 + t))
    fld = assemble_field(HerglotzSpec.constant(1), tau)
    res = chains.limit_frame(fld, 1.0, GRID.points[:4], tol=1e-9, tol_limit=1e-12)
    assert not res.converged
    assert np.isfinite(res.acc_delta)


# ---------------------------------------------------------------------------
# doubling horizons and extrapolation on arbitrary nodes

DOUBLING_64 = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])


@pytest.mark.parametrize("a", [0.5, 0.3 - 0.4j])
def test_interior_chain_closed_form(a):
    # p = 1, tau = a: f_t(z) = (exp(lam t) T_a(z) + a) / lam with the disk
    # automorphism T_a(z) = (z - a)/(1 - conj(a) z) and lam = 1 - |a|^2
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(a))
    lam = 1.0 - abs(a) ** 2
    fr = chains.range_normalized_chain(fld, [0.0, 0.5, 1.0], GRID, n_theta=32)
    ta = (GRID.points - a) / (1.0 - np.conj(a) * GRID.points)
    ref = (np.exp(lam * fr.checkpoints)[:, None] * ta[None, :] + a) / lam
    assert fr.converged.all()
    assert np.abs(fr.values - ref).max() < 1e-7


def test_horizon_offsets_follow_the_regime():
    # pure doubling, capped by t_inf
    assert np.array_equal(chains.horizon_offsets(), DOUBLING_64)
    assert np.array_equal(chains.horizon_offsets(16.0), DOUBLING_64[:5])
    assert np.array_equal(chains.horizon_offsets(24.0), DOUBLING_64[:5])


def _doubling_extrapolant(its):
    """The extrapolant as computed on doubling nodes with full c = 2**m tables."""
    K = its.shape[0]
    poly = np.full((K, K) + its.shape[1:], np.nan, dtype=complex)
    poly[:, 0] = its
    for k in range(1, K):
        for m in range(1, k + 1):
            c = 2.0 ** m
            poly[k, m] = (c * poly[k, m - 1] - poly[k - 1, m - 1]) / (c - 1.0)
    xs = 2.0 ** -np.arange(K)
    rat = np.full((K, K + 1) + its.shape[1:], np.nan, dtype=complex)
    rat[:, 0] = 0.0
    rat[:, 1] = its
    for k in range(1, K):
        for i in range(k, K):
            num = rat[i, k] - rat[i - 1, k]
            den_inner = rat[i, k] - rat[i - 1, k - 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(den_inner != 0, num / den_inner, 0.0)
                factor = (xs[i - k] / xs[i]) * (1.0 - ratio) - 1.0
                upd = np.where(factor != 0, num / factor, 0.0)
            rat[i, k + 1] = rat[i, k] + upd
    vals, errs = [its[-1]], [np.abs(its[-1] - its[-2])]
    for m in range(1, K):
        est = np.abs(poly[K - 1, m] - poly[K - 1, m - 1])
        if m <= K - 2:
            est = est + np.abs(poly[K - 1, m] - poly[K - 2, m])
        vals.append(poly[K - 1, m])
        errs.append(est)
    for c in range(2, K + 1):
        est = np.abs(rat[K - 1, c] - rat[K - 1, c - 1])
        if c <= K - 1:
            est = est + np.abs(rat[K - 1, c] - rat[K - 2, c])
        vals.append(rat[K - 1, c])
        errs.append(est)
    vals, errs = np.stack(vals), np.stack(errs)
    errs = np.where(np.isfinite(errs) & np.isfinite(vals), errs, np.inf)
    pick = np.argmin(errs, axis=0)
    gather = (pick,) + tuple(np.indices(pick.shape))
    return vals[gather], errs[gather]


@pytest.mark.parametrize("K", [2, 3, 5, 7, 9])
def test_best_extrapolant_on_doubling_nodes_is_bit_identical(K):
    rng = np.random.default_rng(K)
    x = 2.0 ** -np.arange(K)
    # limits with O(x) tails, Mobius tails and plain noise
    base = rng.normal(size=40) + 1j * rng.normal(size=40)
    its = np.concatenate([
        base[:20] + np.outer(x, rng.normal(size=20)) + np.outer(x ** 2, rng.normal(size=20)),
        (base[20:30] + x[:, None]) / (1.0 + 0.3 * x[:, None]),
        rng.normal(size=(K, 10)) + 1j * rng.normal(size=(K, 10)),
    ], axis=1)
    want_v, want_e = _doubling_extrapolant(its)
    got_v, got_e = chains._best_extrapolant(its, 1.0 / chains.horizon_offsets(2.0 ** (K - 1)))
    assert np.array_equal(got_v, want_v)
    assert np.array_equal(got_e, want_e)
    hist = np.abs(its.real[:, :5]) + 0.1
    got, _ = chains._best_extrapolant(hist.astype(complex), 1.0 / 2.0 ** np.arange(K))
    want, _ = _doubling_extrapolant(hist.astype(complex))
    assert np.array_equal(got, want)


def test_best_extrapolant_exact_on_nonuniform_nodes():
    xs = 1.0 / np.array([1.0, 2.0, 4.0, 8.0, 16.0, 20.0, 24.0, 28.0, 32.0])
    x = xs[:, None]
    limit = np.array([0.3 + 0.1j, -1.2, 2.0j])
    poly = limit + 0.7 * x - (0.4 + 0.2j) * x ** 2 + 0.05j * x ** 3
    vals, _ = chains._best_extrapolant(poly, xs)
    assert np.abs(vals - limit).max() < 1e-12
    mobius = (limit + (0.5 - 0.3j) * x) / (1.0 + 0.8 * x)
    vals, _ = chains._best_extrapolant(mobius, xs)
    assert np.abs(vals - limit).max() < 1e-12


# ---------------------------------------------------------------------------
# the exact autonomous tail and the scaling limit it falls back to

def _builtin_field(name, declared=True):
    """The builtin's field; without ``declared`` p hides its autonomy time."""
    cfg = builtin_scenario(name)
    p = cfg.p if declared else dataclasses.replace(cfg.p, t_aut=None)
    return cfg, assemble_field(p, cfg.tau)


def test_becker_chain_matches_its_closed_form():
    # tau = 0, p = (1 + kz)/(1 - kz): K(z) = z/(1 + kz)^2 and f_t = e^t K
    cfg, fld = _builtin_field("becker")
    k = 0.5
    cps = cfg.time.checkpoint_array(65)
    fr = chains.range_normalized_chain(fld, cps, cfg.grid.seed_grid(), n_theta=256)
    scale = np.exp(cps)[:, None]
    ring = fr.trace_radius * np.exp(1j * fr.theta)

    def K(z):
        return z / (1 + k * z) ** 2

    def dK(z):
        return (1 - k * z) / (1 + k * z) ** 3

    z = fr.grid.points
    assert fr.converged.all() and fr.grid_valid.all() and fr.trace_valid.all()
    assert np.abs(fr.values - scale * K(z)).max() < 1e-12
    assert np.abs(fr.derivs - scale * dK(z)).max() < 1e-12
    assert np.abs(fr.traces - scale * K(ring)).max() < 1e-12
    assert np.abs(fr.trace_derivs - scale * dK(ring)).max() < 1e-12
    assert np.abs(fr.origin_values).max() < 1e-12
    assert np.abs(fr.origin_derivs - scale[:, 0]).max() < 1e-12


def _mobius(a, z):
    return (z - a) / (1 - np.conj(a) * z)


def _mobius_inv(a, w):
    return (w + a) / (1 + np.conj(a) * w)


def test_step_tau_chain_matches_the_mobius_form():
    # tau = 0.3 on [0, 1), 0.6i after, p = 1.  For constant tau = a the flow
    # is m_a(phi_{s,t}) = e^{-(1 - |a|^2)(t - s)} m_a, and the tail's Koenigs
    # function is the Mobius map m_tau up to scale, so
    # f_t = A m_tau(phi_{t,1}(z)) + B with A, B fixed by f_0 in S
    a, tau = 0.3, 0.6j
    cfg, fld = _builtin_field("step-tau")
    cps = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    fr = chains.range_normalized_chain(fld, cps, GRID, n_theta=32, tol=1e-11)

    def phi_to_1(t, z):
        return _mobius_inv(a, np.exp(-(1 - a * a) * (1 - t)) * _mobius(a, z))

    alpha = phi_to_1(0.0, 0.0)
    h = 1e-6
    dalpha = (phi_to_1(0.0, h) - phi_to_1(0.0, -h)) / (2 * h)
    dm = (1 - abs(tau) ** 2) / (1 - np.conj(tau) * alpha) ** 2
    A = 1.0 / (dm * dalpha)
    B = -A * _mobius(tau, alpha)
    lam = 1 - abs(tau) ** 2
    for i, t in enumerate(cps):
        if t <= 1.0:
            ref = A * _mobius(tau, phi_to_1(t, GRID.points)) + B
        else:
            ref = A * np.exp(lam * (t - 1.0)) * _mobius(tau, GRID.points) + B
        assert np.abs(fr.values[i] - ref).max() < 1e-8 * max(1.0, np.abs(ref).max())
    assert fr.converged.all()
    assert abs(fr.origin_values[0]) < 1e-9 and abs(fr.origin_derivs[0] - 1) < 1e-9


# (tol_limit, tol_chain) of the scaling limit's noise floor near 1e-6: its
# Mobius renormalization hits it on interior-attracting long-time data
_LIMIT_FLOOR_TOLS = {"step-tau": (5e-6, 1e-4), "measurable-tau": (5e-6, 1e-4)}


@pytest.mark.parametrize("name", ["becker", "exponential", "sector", "step-tau",
                                  "measurable-tau"])
def test_exact_tail_agrees_with_the_scaling_limit(name):
    cfg, exact = _builtin_field(name)
    _, limit = _builtin_field(name, declared=False)
    assert chains._autonomous_tail(exact) is not None
    assert chains._autonomous_tail(limit) is None
    tol_limit, tol_chain = _LIMIT_FLOOR_TOLS.get(
        name, (cfg.criteria.tol_limit, cfg.criteria.tol_chain))
    cps = [0.0, 0.5, 1.0, 2.0] if cfg.time.t_end >= 2.0 else [0.0, 0.5, 1.0]
    small = circle_grid((0.3, 0.6), 8)
    kw = dict(n_theta=16, tol=cfg.time.tol, t_inf=cfg.criteria.t_inf, tol_limit=tol_limit)
    fe = chains.range_normalized_chain(exact, cps, small, **kw)
    fl = chains.range_normalized_chain(limit, cps, small, **kw)
    assert fe.converged.all() and fl.converged.all()
    for i in range(len(cps)):
        bound = fl.acc_delta[i] + tol_chain
        ok = fe.grid_valid[i] & fl.grid_valid[i]
        assert ok.all()
        assert np.abs(fe.values[i] - fl.values[i]).max() <= bound
        tr = fe.trace_valid[i] & fl.trace_valid[i]
        assert np.abs(fe.traces[i][tr] - fl.traces[i][tr]).max() <= bound
        assert abs(fe.origin_values[i] - fl.origin_values[i]) <= bound


def test_exact_tail_raises_when_the_origin_seed_is_lost(monkeypatch):
    # at t = 0.5: the origin seed rides in the push to T_aut = 1
    fld = PUSHED

    def lose_seed(*args, **kwargs):
        traj = solve_forward(*args, **kwargs)
        traj.truncated[-1] = True
        return traj

    monkeypatch.setattr(chains, "solve_forward", lose_seed)
    with pytest.raises(chains.NormalizationError):
        chains.limit_frame(fld, 0.5, GRID.points[:5])


def test_exact_tail_masks_a_point_lost_on_the_push(monkeypatch):
    # at t = 0.5: the first point is truncated on its push to T_aut = 1; it
    # comes back invalid and NaN, the others bit for bit as before
    fld = PUSHED
    ref = chains.limit_frame(fld, 0.5, GRID.points[:5])

    def lose_point(field, s, t_end, seeds, *args, **kwargs):
        traj = solve_forward(field, s, t_end, seeds, *args, **kwargs)
        if t_end == 1.0:
            traj.truncated[0] = True
        return traj

    monkeypatch.setattr(chains, "solve_forward", lose_point)
    res = chains.limit_frame(fld, 0.5, GRID.points[:5])
    assert not res.valid[0] and np.isnan(res.values[0]) and np.isnan(res.derivs[0])
    assert res.valid[1:].all() and res.converged
    for got, want in ((res.values, ref.values), (res.derivs, ref.derivs),
                      (res.point_delta, ref.point_delta)):
        assert np.array_equal(got[1:], want[1:])


def test_abel_tail_masks_a_nan_point():
    pts = GRID.points[:5]
    ref = chains.limit_frame(CHORDAL, 0.75, pts)
    res = chains.limit_frame(CHORDAL, 0.75, np.append(np.nan, pts))
    assert not res.valid[0] and np.isnan(res.values[0]) and np.isnan(res.derivs[0])
    assert res.valid[1:].all() and res.converged
    assert np.array_equal(res.values[1:], ref.values)
    assert np.array_equal(res.derivs[1:], ref.derivs)


@pytest.mark.parametrize("grid, n_theta", [
    pytest.param(GRID, 16, id="3x8-16"),
    pytest.param(circle_grid((0.2, 0.8), 5), 7, id="2x5-7"),   # A u + B rounded off 0 here
])
@pytest.mark.parametrize("name", ["measurable-tau", "step-tau"])
def test_f0_is_normalized_exactly_from_the_leg_batch(name, grid, n_theta):
    # with a first checkpoint at 0 the origin seed and the frame's origin at
    # row 0 are one trajectory of one batch, so f_0(0) = 0 holds exactly
    cfg, fld = _builtin_field(name)
    cps = cfg.time.checkpoint_array(9)
    assert cps[0] == 0.0 and fld.t_aut > cps[1]
    fr = chains.range_normalized_chain(fld, cps, grid, n_theta=n_theta)
    assert fr.origin_values[0] == 0.0
    assert abs(fr.origin_derivs[0] - 1.0) <= 1e-15


def test_chain_raises_when_the_leg_batch_loses_the_origin_seed(monkeypatch):
    # the origin seed rides from 0 to T_aut = 1 as the last seed of the batch
    fld = PUSHED

    def lose_origin(*args, **kwargs):
        traj = solve_forward(*args, **kwargs)
        traj.truncated[-1] = True
        return traj

    monkeypatch.setattr(chains, "solve_forward", lose_origin)
    with pytest.raises(chains.NormalizationError):
        chains.range_normalized_chain(fld, [0.0, 0.5, 1.5], GRID, n_theta=16)


def test_exact_tail_pushes_points_and_seed_in_one_batch(monkeypatch):
    calls = []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        traj = solve_forward(field, s, t_end, seeds, *args, **kwargs)
        calls.append((s, t_end, np.atleast_1d(seeds).size, traj.steps_accepted))
        return traj

    fld = PUSHED
    monkeypatch.setattr(chains, "solve_forward", spy)
    res = chains.limit_frame(fld, 0.5, GRID.points[:5])
    assert res.converged and not res.accelerated and res.horizon_used == 1.0
    # one solve: the points from t = 0.5 and the origin seed from 0
    (starts, t_end, size, _), = calls
    assert np.array_equal(starts, [0.5] * 5 + [0.0]) and t_end == 1.0 and size == 6
    calls.clear()
    # past T_aut nothing moves: the points join the seed's solve at T_aut, take
    # no step, and e^{lambda (t - T_aut)} scales
    res = chains.limit_frame(fld, 1.5, GRID.points[:5])
    assert res.horizon_used == 1.5
    (starts, t_end, size, steps), = calls
    assert np.array_equal(starts, [1.0] * 5 + [0.0]) and t_end == 1.0 and size == 6
    assert (steps[:5] == 0).all()


# the Mobius push of a quadratic field (p free of z)

def test_a_quadratic_tail_pushes_by_one_anchor_solve(monkeypatch):
    # step-tau (p = 1, T_aut = 1): one solve carries the three anchors from 0
    # and records them at every distinct start and at T_aut; no frame point
    # is integrated, and the rows past T_aut reach the linearizer unmoved
    calls, linearized = [], []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        calls.append((s, t_end, np.atleast_1d(seeds).size, kwargs.get("checkpoints")))
        return solve_forward(field, s, t_end, seeds, *args, **kwargs)

    def lin_spy(field, tail, z, tol_q):
        linearized.append(z)
        return real_linearize(field, tail, z, tol_q)

    real_linearize = chains._linearize
    _, fld = _builtin_field("step-tau")
    assert fld.quadratic and not PUSHED.quadratic
    monkeypatch.setattr(chains, "solve_forward", spy)
    monkeypatch.setattr(chains, "_linearize", lin_spy)
    cps = np.linspace(0.0, 2.0, 9)
    fr = chains.range_normalized_chain(fld, cps, GRID, n_theta=16)
    assert fr.converged.all() and fr.grid_valid.all() and fr.trace_valid.all()
    (s, t_end, size, rec), = calls
    assert s == 0.0 and t_end == 1.0 and size == 3
    assert np.array_equal(rec, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.isin(chains._frame_points(GRID, 16, 1e-3), linearized[0]).all()


@pytest.mark.parametrize("fault", ["lost", "non-finite", "singular"])
def test_the_mobius_push_raises_on_a_bad_anchor(monkeypatch, fault):
    _, fld = _builtin_field("step-tau")

    def spoil(*args, **kwargs):
        traj = solve_forward(*args, **kwargs)
        if fault == "lost":
            traj.truncated[1] = True
        elif fault == "non-finite":
            traj.values[-1, 1] = np.nan
        else:                                # two images coincide
            traj.values[-1, 1] = traj.values[-1, 0]
        return traj

    monkeypatch.setattr(chains, "solve_forward", spoil)
    with pytest.raises(chains.NormalizationError, match="anchors"):
        chains.limit_frame(fld, 0.5, GRID.points[:5])


def test_the_mobius_push_masks_a_nan_point():
    _, fld = _builtin_field("step-tau")
    pts = GRID.points[:5]
    ref = chains.limit_frame(fld, 0.5, pts)
    res = chains.limit_frame(fld, 0.5, np.append(np.nan, pts))
    assert not res.valid[0] and np.isnan(res.values[0]) and np.isnan(res.derivs[0])
    assert res.valid[1:].all() and res.converged
    assert np.array_equal(res.values[1:], ref.values)
    assert np.array_equal(res.derivs[1:], ref.derivs)


def test_the_mobius_push_masks_an_image_past_the_guard():
    # tau = 1 and p = 5i up to t = 1: in zeta = 1/(1 - z) the flow is the
    # shift zeta - 5i t, which carries the point next to -1 to within 1e-7 of
    # the circle by T_aut.  The Mobius push masks that image at T_aut; the
    # per-point push truncates its trajectory at the guard.
    p = HerglotzSpec.from_time_table([0.0, 1.0, 1.0 + 1e-7], [5j, 5j, 1.0])
    mobius = assemble_field(p, DenjoyWolffSpec.constant(1))
    per_point = assemble_field(dataclasses.replace(p, z_free=False), mobius.tau)
    assert mobius.quadratic and not per_point.quadratic
    pts = np.array([-(1 - 1e-5), 0.3, 0.5j])
    image = 1.0 - 1.0 / (1.0 / (1.0 - pts) - 5j)
    assert np.array_equal(past_guard(image), [True, False, False])
    res, ref = (chains.limit_frame(f, 0.0, pts) for f in (mobius, per_point))
    assert np.array_equal(res.valid, [False, True, True]) and np.array_equal(ref.valid, res.valid)
    assert np.isnan(res.values[0]) and np.isnan(res.derivs[0])
    assert np.abs(res.values[1:] - ref.values[1:]).max() < 1e-9


def _mobius_data(name):
    """(config, p, tau) of a builtin, or of the level-32 approximant of measurable-tau."""
    if name == "level-32":
        cfg = builtin_scenario("measurable-tau")
        return cfg, cfg.p, step_approximate(cfg.tau, 32, 4.0)[0]
    cfg = builtin_scenario(name)
    return cfg, cfg.p, cfg.tau


@pytest.mark.parametrize("name", ["measurable-tau", "step-tau", "sector", "level-32"])
def test_the_mobius_push_is_as_accurate_as_the_per_point_push(name):
    # chain frames at tol 1e-9 through either push, against a tol-1e-13
    # per-point reference: the Mobius error is at most twice the per-point
    # error (or tol / 100), and the two paths agree within 1e-9 relative
    cfg, p, tau = _mobius_data(name)
    mobius = assemble_field(p, tau)
    per_point = assemble_field(dataclasses.replace(p, z_free=False), tau)
    assert mobius.quadratic and not per_point.quadratic and mobius.t_aut > 1.0 - 1e-12
    cps, grid = cfg.time.checkpoint_array(9), cfg.grid.seed_grid()
    ref, pp, mob = (chains.range_normalized_chain(f, cps, grid, n_theta=256, tol=tol)
                    for f, tol in ((per_point, 1e-13), (per_point, 1e-9), (mobius, 1e-9)))
    for fr in (pp, mob):
        assert fr.converged.all() and fr.grid_valid.all() and fr.trace_valid.all()

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

    for col in ("values", "derivs", "traces"):
        m, q, r = (getattr(fr, col) for fr in (mob, pp, ref))
        assert rel(m, r) <= max(2.0 * rel(q, r), 1e-11), col
        assert rel(m, q) <= 1e-9, col


@pytest.mark.parametrize("t_aut", [None, 0.5], ids=["scaling-limit", "exact-tail"])
def test_f_frames_carry_the_warnings_of_the_solves_inside_the_limit(t_aut):
    # p = 1 inside |z| < 0.95 and NaN outside: the 16 trace nodes are
    # truncated at once, and the frames say why as well as where
    p = HerglotzSpec.sampled(lambda z, t: np.where(np.abs(z) < 0.95, 1.0, np.nan) + 0j)
    fld = assemble_field(dataclasses.replace(p, t_aut=t_aut), DenjoyWolffSpec.constant(0))
    fr = chains.range_normalized_chain(fld, [0.0, 0.5], GRID, n_theta=16)
    assert fr.grid_valid.all() and not fr.trace_valid.any()
    assert "non-finite field at t = 0.0; 16 seed(s) truncated" in fr.warnings
    assert "16 trace node(s) masked at t = 0.5" in fr.warnings
    assert len(fr.warnings) == len(set(fr.warnings))



@pytest.mark.parametrize("name, times", [
    pytest.param("step-tau", [0.25, 0.5, 1.0, 1.5, 2.0], id="step-tau"),  # both sides of T_aut = 1
    pytest.param("chordal", [0.0, 0.5, 1.0, 1.5], id="chordal"),            # the Abel tail
    pytest.param("rotation-interior", [0.0, 0.5, 1.0], id="scaling-limit"),
])
def test_mixed_time_limit_frame_matches_per_time_calls(name, times):
    # each point is evaluated at its own time: one call over the rows equals
    # one call per time, up to the integrator's rounding at a tight tol
    fld = {"step-tau": _builtin_field("step-tau")[1], "chordal": CHORDAL,
           "rotation-interior": assemble_field(HerglotzSpec.constant(1j),
                                               DenjoyWolffSpec.constant(0.3 + 0.2j))}[name]
    pts = chains._frame_points(circle_grid((0.3, 0.6), 8), 16, 1e-3)
    res = chains.limit_frame(fld, np.repeat(times, pts.size), np.tile(pts, len(times)),
                             tol=1e-12)
    assert res.converged and res.t == times[-1]
    for i, t in enumerate(times):
        ref = chains.limit_frame(fld, t, pts, tol=1e-12)
        rows = slice(i * pts.size, (i + 1) * pts.size)
        for got, want in ((res.values[rows], ref.values), (res.derivs[rows], ref.derivs)):
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def test_exact_tail_linearizes_each_distinct_point_once(monkeypatch):
    # becker (T_aut = 0): no point moves, so the 65 rows share one set of
    # frame points, and the origin seed is the frame's origin
    sizes = []
    real = chains._linearize

    def spy(field, tail, z, tol_q):
        sizes.append(z.size)
        return real(field, tail, z, tol_q)

    monkeypatch.setattr(chains, "_linearize", spy)
    cfg, fld = _builtin_field("becker")
    grid = cfg.grid.seed_grid()
    fr = chains.range_normalized_chain(fld, cfg.time.checkpoint_array(65), grid, n_theta=256)
    assert fr.converged.all() and fr.values.shape == (65, len(grid))
    assert sizes == [len(grid) + 256 + 1]

def test_mobius_kernel_tail_agrees_or_is_flagged():
    # p = (1 + z)/(1 - z), tau = 0: the Koebe chain f_t = e^t z/(1 + z)^2,
    # whose 1/p has its pole on the circle at -1; points next to it either
    # match the closed form and the limit or are flagged unconverged
    def kappa(t):
        return 1.0 + 0j

    exact = assemble_field(HerglotzSpec.mobius_kernel(kappa, t_aut=0.0),
                           DenjoyWolffSpec.constant(0))
    limit = assemble_field(HerglotzSpec.mobius_kernel(kappa), DenjoyWolffSpec.constant(0))
    assert chains._autonomous_tail(exact) is not None
    assert chains._autonomous_tail(limit) is None
    th = np.linspace(np.pi - 0.2, np.pi + 0.2, 9)
    pts = np.concatenate([GRID.points, (1 - 1e-3) * np.exp(1j * th), 0.99 * np.exp(1j * th)])
    t = 0.5
    re = chains.limit_frame(exact, t, pts)
    rl = chains.limit_frame(limit, t, pts)
    koebe = np.exp(t) * pts / (1 + pts) ** 2
    scale = np.maximum(1.0, np.abs(koebe))
    good = re.point_converged
    assert good[:len(GRID)].all()
    assert (np.abs(re.values - koebe)[good] <= 1e-8 * scale[good]).all()
    both = good & rl.point_converged
    assert both[:len(GRID)].all()
    assert (np.abs(re.values - rl.values)[both] <= 1e-8 * scale[both]).all()


# ---------------------------------------------------------------------------
# the parabolic boundary tail: the Abel function h with h' G = 1


@pytest.mark.parametrize("tau", [1.0, np.exp(1j * np.pi / 4)], ids=["tau=1", "tau=e^ipi/4"])
def test_chordal_chain_is_the_abel_closed_form(tau):
    # p = 1: G = conj(tau) (z - tau)^2 and h = z / (tau - z), so
    # f_t = tau (F(conj(tau) z) - t) with F(z) = z / (1 - z), f_t' = 1 / (1 - conj(tau) z)^2
    cfg = builtin_scenario("chordal")
    fld = assemble_field(cfg.p, DenjoyWolffSpec.constant(tau))
    cps = cfg.time.checkpoint_array(9)
    fr = chains.range_normalized_chain(fld, cps, cfg.grid.seed_grid(), n_theta=256,
                                       tol=cfg.time.tol, t_inf=cfg.criteria.t_inf,
                                       tol_limit=cfg.criteria.tol_limit)
    assert fr.converged.all() and fr.grid_valid.all() and fr.trace_valid.all()
    ring = fr.trace_radius * np.exp(1j * fr.theta)
    for z, vals, ders in ((fr.grid.points, fr.values, fr.derivs),
                          (ring, fr.traces, fr.trace_derivs)):
        w = np.conj(tau) * z
        ref = tau * (w / (1 - w) - cps[:, None])
        dref = 1.0 / (1 - w) ** 2
        assert (np.abs(vals - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref))).all()
        assert (np.abs(ders - dref) <= 1e-11 * np.abs(dref)).all()
    assert np.abs(fr.origin_values + tau * cps).max() <= 1e-11
    assert np.abs(fr.origin_derivs - 1.0).max() <= 1e-11


def test_chordal_chain_integrates_no_legs(monkeypatch):
    # T_aut = 0: no row leg, no origin solve and no limit; the one solve is
    # the range classification's probe run to t_inf
    calls = []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        calls.append((s, t_end, np.atleast_1d(seeds).size))
        return solve_forward(field, s, t_end, seeds, *args, **kwargs)

    monkeypatch.setattr(chains, "solve_forward", spy)
    fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
    fr = chains.range_normalized_chain(fld, np.linspace(0.0, 4.0, 9), GRID, n_theta=16)
    assert fr.converged.all()
    assert calls == [(0.0, 64.0, 5)]


# (p, verdict of beta_limit, whether the tail takes the Abel form) with tau = 1
_BOUNDARY_TAILS = {
    "hyperbolic": (HerglotzSpec.rational([1, 1], [1, -1]), "inconclusive", False),
    "parabolic-automorphisms": (HerglotzSpec.constant(1j), "disk", False),
    "parabolic": (HerglotzSpec.constant(1 + 1j), "plane", True),
}


@pytest.mark.parametrize("name", sorted(_BOUNDARY_TAILS))
def test_only_a_plane_filling_boundary_tail_takes_the_abel_form(name):
    p, verdict, abel = _BOUNDARY_TAILS[name]
    fld = assemble_field(p, DenjoyWolffSpec.constant(1))
    assert chains.beta_limit(fld).classification == verdict
    tail = chains._autonomous_tail(fld)
    assert (tail is not None) == abel
    if abel:
        # h = z / ((1 + i)(1 - z)), so f_t = z / (1 - z) - (1 + i) t
        assert tail.drift == 1
        res = chains.limit_frame(fld, 0.75, GRID.points)
        ref = GRID.points / (1 - GRID.points) - (1 + 1j) * 0.75
        assert res.converged
        assert np.abs(res.values - ref).max() <= 1e-11


def test_boundary_tail_classifies_the_range_once_per_field(monkeypatch):
    calls = []
    real = chains.beta_limit

    def spy(field, *args, **kwargs):
        calls.append((kwargs.get("t_inf"), kwargs.get("tol")))
        return real(field, *args, **kwargs)

    monkeypatch.setattr(chains, "beta_limit", spy)
    for _ in range(2):
        fld = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
        fr = chains.range_normalized_chain(fld, [0.0, 0.5, 1.0, 2.0], GRID, n_theta=16,
                                           tol=1e-8, t_inf=32.0)
        rep = chains.verify_transitions(fr)
        assert rep.passed and len(rep.per_pair) == 4
    # one classification per chain build, at the run's own t_inf and tol
    assert calls == [(32.0, 1e-8), (32.0, 1e-8)]
    # an interior tail never asks
    chains.range_normalized_chain(EXP, [0.0, 1.0], GRID, n_theta=16)
    assert len(calls) == 2


@pytest.mark.parametrize("relative", [False, True])
def test_panel_quadrature_is_independent_of_the_block_size(relative):
    # integrands singular just outside the circle force deep, uneven bisection
    pts = np.concatenate([chains._frame_points(GRID, 64, 1e-3), [0.0, -0.999, 0.999j]])
    f = (lambda w: 1.0 / (w - 1.0) ** 2) if relative else (lambda w: -2.0 / (1.0 + w))
    one, err1 = chains._panel_quadrature(f, 0.0, pts, 1e-10, relative, block=pts.size)
    assert np.isfinite(one).all()
    for block in (1, 2, 7, 64):
        many, err = chains._panel_quadrature(f, 0.0, pts, 1e-10, relative, block=block)
        assert np.array_equal(many, one) and np.array_equal(err, err1)
    exact = pts / (1.0 - pts) if relative else -2.0 * np.log1p(pts)
    assert (np.abs(one - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact))).all()


@pytest.mark.parametrize("name", ["chordal", "becker"])
def test_quadrature_error_estimate_covers_the_observed_error(name):
    # the ring's error estimate is at least the error against the closed
    # form at every point, and for chordal (f_t = z/(1 - z) - t, |f| ~ 1e3
    # near z = 1) within 100 times its largest
    cfg = builtin_scenario(name)
    fld = assemble_field(cfg.p, cfg.tau)
    cps = cfg.time.checkpoint_array(9)
    ring = trace_ring(256, cfg.grid.delta_trace)
    t, z = np.repeat(cps, ring.size), np.tile(ring, cps.size)
    res = chains.limit_frame(fld, t, z, cfg.time.tol, cfg.criteria.t_inf, cfg.criteria.tol_limit)
    exact = chordal_chain(z, t) if name == "chordal" else np.exp(t) * z / (1 + 0.5 * z) ** 2
    err = np.abs(res.values - exact)
    assert res.valid.all()
    assert (res.point_delta >= err).all()
    if name == "chordal":
        assert res.acc_delta <= 100.0 * err.max()


# ---------------------------------------------------------------------------
# non-finite and past-guard points on every evaluator

# p = 1 hiding its autonomy time, with a step tau: the scaling limit
SCALING_STEP = assemble_field(dataclasses.replace(HerglotzSpec.constant(1), t_aut=None),
                              DenjoyWolffSpec.step([0.5], [0.0, 0.2]))


@pytest.mark.parametrize("path", ["scaling-limit", "mobius-push", "per-point-push"])
def test_every_evaluator_masks_a_nan_point_silently_and_refuses_one_past_the_guard(path):
    fld = {"scaling-limit": SCALING_STEP, "mobius-push": _builtin_field("step-tau")[1],
           "per-point-push": PUSHED}[path]
    # only a declared autonomy time selects the exact tail, and there only a
    # quadratic field the Mobius push
    assert (fld.t_aut is None, fld.quadratic) == {
        "scaling-limit": (True, True), "mobius-push": (False, True),
        "per-point-push": (False, False)}[path]
    pts = np.array([0.3, 0.5j])
    ref = chains.limit_frame(fld, 0.25, pts)
    res = chains.limit_frame(fld, 0.25, np.array([0.3, np.nan, 0.5j]))
    assert np.array_equal(res.valid, [True, False, True])
    assert np.isnan(res.values[1]) and np.isnan(res.derivs[1])
    assert res.warnings == ref.warnings == []
    # the integrating paths step the batch together, so the others agree to tol
    assert np.abs(res.values[[0, 2]] - ref.values).max() < 1e-9
    with pytest.raises(ValueError, match="boundary guard"):
        chains.limit_frame(fld, 0.25, np.array([0.3, 1.0 - 1e-7]))


# ---------------------------------------------------------------------------
# containment failures

def _nested_g_frames():
    return chains.decreasing_chain(EXP, [0.0, 0.25, 0.5, 0.75], GRID, n_theta=64)


def test_containment_counts_a_broken_nesting():
    # swapping the traces of rows 1 and 2 puts the wider curve inside the
    # narrower one for the pair (1, 2); the pairs (0, 1) and (2, 3) still nest
    fr = _nested_g_frames()
    assert chains.verify_containment(fr).passed
    fr.traces[[1, 2]] = fr.traces[[2, 1]]
    rep = chains.verify_containment(fr)
    assert rep.checked_pairs == 3
    assert rep.violations == 1 and not rep.passed


def test_containment_skips_the_pairs_of_a_masked_trace_node():
    fr = _nested_g_frames()
    fr.trace_valid[2, 5] = False
    rep = chains.verify_containment(fr)
    assert rep.checked_pairs == 1 and rep.violations == 0 and rep.passed


# ---------------------------------------------------------------------------
# the scaling limit for an interior tau

def test_the_scaling_limit_cannot_converge_for_an_interior_tau():
    # p = 1 without a declared autonomy time and tau = 0.5: w - alpha cancels
    # once both points are near tau, the horizon deltas re-diverge at about
    # 1e-5 and the loop discards the rest.  The flags must say so; the exact
    # tail converges on the same data
    cps = [0.0, 0.5, 1.0]
    tau = DenjoyWolffSpec.constant(0.5)
    hidden = assemble_field(dataclasses.replace(HerglotzSpec.constant(1), t_aut=None), tau)
    fr = chains.range_normalized_chain(hidden, cps, GRID, n_theta=16)
    assert not fr.converged.any() and not fr.trace_valid.any()
    assert (1e-6 < fr.acc_delta).all() and (fr.acc_delta < 1e-4).all()
    for t in fr.checkpoints:
        assert any(w.startswith(f"chain limit unconverged on the grid at t = {t} ")
                   for w in fr.warnings)
        assert f"16 trace node(s) masked at t = {t}" in fr.warnings
    assert not chains.verify_transitions(fr).passed
    # unconverged, yet stopped before the last horizon: only the
    # re-divergence discard ends the horizon loop there
    res = chains.limit_frame(hidden, np.repeat(cps, len(GRID)), np.tile(GRID.points, 3))
    assert not res.converged
    assert res.horizon_used < cps[-1] + chains.horizon_offsets()[-1]
    exact = chains.range_normalized_chain(assemble_field(HerglotzSpec.constant(1), tau), cps,
                                          GRID, n_theta=16)
    assert exact.converged.all() and exact.acc_delta.max() <= 1e-12
