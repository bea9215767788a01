import numpy as np
import pytest

from loewnerqc.grids import circle_grid
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field
from loewnerqc.evolution import solve_forward
from loewnerqc import chains

EXP = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(0))
CHORDAL = assemble_field(HerglotzSpec.constant(1), DenjoyWolffSpec.constant(1))
ROTATION = assemble_field(HerglotzSpec.constant(1j), DenjoyWolffSpec.constant(0))
BECKER = assemble_field(HerglotzSpec.rational([1, 0.5], [1, -0.5]),
                        DenjoyWolffSpec.constant(0))
GRID = circle_grid((0.2, 0.5, 0.8), 8)


def chordal_chain(z, t):
    return 1.0 / (1.0 - z) - (1.0 + t)


def test_normalizer_exponential_trivial():
    traj = solve_forward(EXP, 0.0, 1.0, np.zeros(1, complex), tol=1e-10,
                         checkpoints=[0.5, 1.0])
    nz = chains.normalize(traj)
    assert np.abs(nz.alpha).max() == 0.0
    assert np.abs(nz.beta - 1.0).max() < 1e-12
    assert nz.psi_prime0(1.0) == pytest.approx(np.exp(-1), abs=1e-9)


def test_normalizer_chordal_alpha_half():
    traj = solve_forward(CHORDAL, 0.0, 1.0, np.zeros(1, complex), tol=1e-10,
                         checkpoints=[1.0])
    nz = chains.normalize(traj)
    i = nz._i(1.0)
    assert nz.alpha[i] == pytest.approx(0.5, abs=1e-9)
    assert abs(abs(nz.beta[i]) - 1.0) < 1e-12
    # M_t(0) = alpha and M_t^{-1}(alpha) = 0
    assert nz.m(1.0, np.zeros(1, complex))[0] == pytest.approx(nz.alpha[i])
    assert abs(nz.m_inv(1.0, nz.alpha[i:i + 1])[0]) < 1e-14


def test_normalizer_rotation_beta():
    traj = solve_forward(ROTATION, 0.0, 1.0, np.zeros(1, complex), tol=1e-11,
                         checkpoints=[1.0])
    nz = chains.normalize(traj)
    assert nz.alpha[-1] == 0.0
    assert nz.beta[-1] == pytest.approx(np.exp(-1j), abs=1e-9)


def test_chain_limit_exponential():
    res = chains.chain_limit(EXP, 0.5, GRID, tol=1e-10)
    assert res.converged
    assert np.abs(res.values - np.exp(0.5) * GRID.points).max() < 1e-8


def test_chain_limit_rotation_identity():
    res = chains.chain_limit(ROTATION, 0.7, GRID, tol=1e-10)
    assert res.converged
    assert np.abs(res.values - GRID.points).max() < 1e-8


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


def test_composition_mode_matches_direct_mode():
    cps = np.linspace(0.0, 0.12, 13)
    small = circle_grid((0.3, 0.6), 8)
    direct = chains.range_normalized_chain(BECKER, cps, small, n_theta=32,
                                           via_transition=False)
    comp = chains.range_normalized_chain(BECKER, cps, small, n_theta=32,
                                         via_transition=True)
    assert np.abs(direct.values - comp.values).max() < 1e-7
    assert np.abs(direct.derivs - comp.derivs).max() < 1e-6


def test_transition_identity():
    fr = chains.range_normalized_chain(BECKER, [0.0, 0.4, 0.8], GRID, n_theta=64)
    rep = chains.verify_transitions(fr, BECKER)
    assert rep.passed
    assert rep.residual < 1e-6
    # the origin is checked too: a stored f_0(0) off by 1e-3 fails the report
    fr.origin_values[0] += 1e-3
    rep = chains.verify_transitions(fr, BECKER)
    assert not rep.passed
    assert rep.residual == pytest.approx(1e-3, rel=1e-3)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_limit_frame_carries_its_normalizer(monkeypatch, t):
    # every solve is the short 0 -> t origin solve or a leg carrying the
    # points plus the origin seed; no separate normalizer runs past t
    calls = []

    def spy(field, s, t_end, seeds, *args, **kwargs):
        calls.append((s, t_end, np.atleast_1d(seeds).size))
        return solve_forward(field, s, t_end, seeds, *args, **kwargs)

    monkeypatch.setattr(chains, "solve_forward", spy)
    pts = GRID.points[:5]
    res = chains.limit_frame(BECKER, t, pts)
    assert res.converged
    assert calls
    assert all(end == t or n == pts.size + 1 for _, end, n in calls), calls


def test_limit_frame_raises_when_the_origin_seed_is_lost(monkeypatch):
    def lose_seed(*args, **kwargs):
        traj = solve_forward(*args, **kwargs)
        traj.truncated[-1] = True
        return traj

    monkeypatch.setattr(chains, "solve_forward", lose_seed)
    with pytest.raises(chains.NormalizationError):
        chains.limit_frame(BECKER, 0.0, GRID.points[:5])


def test_chain_growth_with_interior_normalization():
    # f_t'(0) = 1/phi'_{0,t}(0) = e^t when p(0,.) = 1
    fr = chains.range_normalized_chain(BECKER, [0.0, 1.0], GRID, n_theta=32)
    assert abs(fr.origin_derivs[1] - np.exp(1.0)) < 1e-6


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


@pytest.mark.parametrize("build", [
    pytest.param(lambda cps: chains.range_normalized_chain(EXP, cps, GRID, n_theta=16,
                                                           via_transition=False), id="direct"),
    pytest.param(lambda cps: chains.range_normalized_chain(EXP, cps, GRID, n_theta=16,
                                                           via_transition=True), id="composition"),
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
        assert np.array_equal(fr.raw_delta, np.zeros(3))
        assert np.array_equal(fr.acc_delta, np.zeros(3))


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
    rep = chains.verify_chain_pde(fr, EXP)
    assert rep.rel_residual < 1e-4
    assert not rep.resolution_limited


def test_verify_chain_pde_decreasing_frames():
    cps = np.linspace(0.0, 0.2, 21)
    fr = chains.decreasing_chain(EXP, cps, GRID, n_theta=32)
    rep = chains.verify_chain_pde(fr, EXP)
    assert rep.rel_residual < 1e-4


def test_chain_pde_second_order_in_dt():
    grid = circle_grid((0.2, 0.5, 0.8), 8)
    r1 = chains.verify_chain_pde(
        chains.range_normalized_chain(BECKER, np.linspace(0, 0.12, 13), grid, n_theta=16), BECKER)
    r2 = chains.verify_chain_pde(
        chains.range_normalized_chain(BECKER, np.linspace(0, 0.12, 25), grid, n_theta=16), BECKER)
    order = np.log2(r1.rel_residual / r2.rel_residual)
    assert order > 1.9


def test_psi_normalization_identities():
    passed, worst = chains.verify_psi_normalization(
        CHORDAL, [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)])
    assert passed, worst
    passed, worst = chains.verify_psi_normalization(ROTATION, [(0.2, 0.9)])
    assert passed, worst


def test_unconverged_frames_are_flagged():
    # measurable tau with boundary limit: honest convergence flags at default tol
    tau = DenjoyWolffSpec.sampled(lambda t: t / (1 + t))
    fld = assemble_field(HerglotzSpec.constant(1), tau)
    res = chains.limit_frame(fld, 1.0, GRID.points[:4], tol=1e-9, tol_limit=1e-12)
    assert not res.converged
    assert np.isfinite(res.acc_delta)


# ---------------------------------------------------------------------------
# regime-aware horizons and extrapolation on arbitrary nodes

STEP_TAU = assemble_field(HerglotzSpec.constant(1),
                          DenjoyWolffSpec.step([1.0], [0.3, 0.6j]))
DOUBLING_64 = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
GEOMETRIC_64 = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 20.0, 24.0, 28.0, 32.0, 64.0])


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
    assert np.array_equal(chains.horizon_offsets(), DOUBLING_64)
    for fld in (CHORDAL, ROTATION, STEP_TAU):
        for t in (0.0, 0.5, 1.5):
            assert np.array_equal(chains.horizon_offsets(64.0, fld, t), DOUBLING_64)
    for fld in (EXP, BECKER):
        assert np.array_equal(chains.horizon_offsets(64.0, fld, 0.5), GEOMETRIC_64)
    assert np.array_equal(chains.horizon_offsets(16.0, BECKER, 0.0), DOUBLING_64[:5])
    assert np.array_equal(chains.horizon_offsets(24.0, BECKER, 0.0), GEOMETRIC_64[:7])
    # Re p(0, u) = 0.1 < ln 2 / 4: too slow for 4-unit steps to halve the error
    slow = assemble_field(HerglotzSpec.constant(0.1 + 1j), DenjoyWolffSpec.constant(0))
    assert np.array_equal(chains.horizon_offsets(64.0, slow, 0.0), DOUBLING_64)


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
    xs = 1.0 / GEOMETRIC_64[:9]
    x = xs[:, None]
    limit = np.array([0.3 + 0.1j, -1.2, 2.0j])
    poly = limit + 0.7 * x - (0.4 + 0.2j) * x ** 2 + 0.05j * x ** 3
    vals, _ = chains._best_extrapolant(poly, xs)
    assert np.abs(vals - limit).max() < 1e-12
    mobius = (limit + (0.5 - 0.3j) * x) / (1.0 + 0.8 * x)
    vals, _ = chains._best_extrapolant(mobius, xs)
    assert np.abs(vals - limit).max() < 1e-12
