import time
import tracemalloc

import numpy as np
import pytest

from loewnerqc import cli
from loewnerqc.config import validate_config
from loewnerqc.grids import circle_grid
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field
from loewnerqc import chains
from loewnerqc.extension import (build_extension, becker_extension, beltrami_formula,
                                 beltrami_fd, dilatation_report, phi_tau, AtlasRejected,
                                 _injectivity_witness)
from loewnerqc.scenarios import builtin_scenario, builtin_document

ONE = HerglotzSpec.constant(1)
EXPF = assemble_field(ONE, DenjoyWolffSpec.constant(0))
GRID = circle_grid((0.3, 0.6), 8)


def _exp_frames(n_theta=96, cps=None):
    cps = np.linspace(0.0, 0.3, 13) if cps is None else cps
    ff = chains.range_normalized_chain(EXPF, cps, GRID, n_theta=n_theta)
    gf = chains.decreasing_chain(EXPF, cps, GRID, n_theta=n_theta)
    return ff, gf


def test_affine_map_gives_exact_mu():
    t = np.linspace(0.0, 0.3, 9)
    th = 2 * np.pi * np.arange(48) / 48
    src = np.exp(t)[:, None] * np.exp(1j * th)[None, :]
    dst = src + 0.3 * np.conj(src)
    mu, ok = beltrami_fd(src, dst)
    assert ok[1:-1].all()
    assert np.abs(mu[ok] - 0.3).max() < 1e-10


def test_degenerate_stencils_are_masked():
    # collinear sources: ds and conj(ds) are linearly dependent, no fit
    rows = np.linspace(0.0, 0.8, 9)
    cols = np.linspace(1.0, 2.5, 16)
    src = (rows[:, None] + cols[None, :]).astype(complex)
    dst = src + 0.1 * np.conj(src)
    mu, ok = beltrami_fd(src, dst)
    assert not ok.any()


def test_phi_tau_real_on_circle():
    zeta = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    for tau in (0.0, 0.3 + 0.2j, 1.0):
        vals = phi_tau(zeta, tau)
        assert np.abs(vals.imag).max() < 1e-12


def test_beltrami_formula_sine_identity():
    # q = p: |mu| = sin|arg p| pointwise
    p = HerglotzSpec.constant(np.exp(1j * np.pi / 6))
    t = np.linspace(0, 0.2, 5)
    th = 2 * np.pi * np.arange(32) / 32
    fs = beltrami_formula(p, p, 0.0, t, th, 1.0 - 1e-3)
    assert np.abs(np.abs(fs.mu_pair[fs.valid]) - 0.5).max() < 1e-12


def test_beltrami_formula_real_data_is_conformal():
    p = HerglotzSpec.constant(2.0)
    q = HerglotzSpec.constant(0.5)
    fs = beltrami_formula(p, q, 0.0, np.array([0.0, 0.1]),
                          2 * np.pi * np.arange(16) / 16, 1.0 - 1e-3)
    # p, q real valued: numerator phi(p - q) is real minus real conj: zero only
    # when p = q; here |mu| = |p-q|/|p+q| is real-ratio, phase vanishes
    assert np.abs(fs.mu_pair[fs.valid].imag).max() < 1e-9


def test_beltrami_formula_becker_modulus():
    p = HerglotzSpec.rational([1, 0.5], [1, -0.5])
    delta = 1e-3
    fs = beltrami_formula(p, ONE, 0.0, np.array([0.0, 0.1]),
                          2 * np.pi * np.arange(64) / 64, 1.0 - delta)
    mods = np.abs(fs.mu_pair[fs.valid])
    assert np.abs(mods - 0.5 * (1 - delta)).max() < 1e-12


def test_conformal_welding_atlas():
    ff, gf = _exp_frames()
    atlas = build_extension(ff, gf)
    rep = dilatation_report(atlas, 0.0)
    assert rep.passed
    assert rep.max_mu_formula < 1e-12
    assert rep.max_mu_fd < 0.01
    assert rep.sense_preserving
    assert atlas.coverage == 1.0
    assert atlas.min_separation > atlas.sep_threshold
    assert atlas.n_collisions == 0
    # sources are reflections of interior traces: outside the closed disk
    # up to the trace-radius offset
    assert np.abs(atlas.source[atlas.valid]).min() >= 1.0 - 2e-3


def test_formula_rows_follow_frozen_tau():
    # step cells before the horizon 0.16, a linear table after it: the
    # formula has every row before the horizon and none after it
    cps = np.linspace(0.0, 0.3, 13)
    tail = DenjoyWolffSpec.from_time_table([0.0, 0.3], [0.3, 0.4])
    tau = DenjoyWolffSpec.step_with_tail([0.08], [0.1, 0.2j], 0.16, tail)
    fld = assemble_field(ONE, tau)
    ff = chains.range_normalized_chain(fld, cps, GRID, n_theta=32)
    gf = chains.decreasing_chain(fld, cps, GRID, n_theta=32)
    atlas = build_extension(ff, gf)
    before = cps < 0.16
    assert atlas.formula_valid[before].all()
    assert not atlas.formula_valid[~before].any()
    assert not any("measurable tau" in w for w in atlas.warnings)
    # a step row is the formula of that cell's constant
    cell = beltrami_formula(ONE, ONE, 0.2j, cps[4:5], ff.theta, ff.trace_radius)
    assert np.array_equal(atlas.mu_pair[4], cell.mu_pair[0])

    # the callable leaves the disk past t = 10, so the scaling limit stops at t_inf = 2
    fld = assemble_field(ONE, DenjoyWolffSpec.sampled(lambda t: 0.1 * t))
    sampled = build_extension(
        chains.range_normalized_chain(fld, cps, GRID, n_theta=32, t_inf=2.0),
        chains.decreasing_chain(fld, cps, GRID, n_theta=32))
    assert not sampled.formula_valid.any()
    assert sampled.formula_withheld and not atlas.formula_withheld
    assert any(w.startswith("measurable tau") for w in sampled.warnings)


def test_atlas_artifacts_render(tmp_path):
    from loewnerqc.artifacts import write_atlas_svg, write_traces_svg, write_atlas_csv
    ff, gf = _exp_frames(n_theta=32, cps=np.array([0.0, 0.1, 0.2]))
    atlas = build_extension(ff, gf)
    svg = write_atlas_svg(atlas, tmp_path / "a.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<path") >= 6
    svg2 = write_traces_svg(ff, tmp_path / "t.svg").read_text()
    assert "stroke" in svg2
    csv_text = write_atlas_csv(atlas, tmp_path / "a.csv").read_text().splitlines()
    assert csv_text[0].split(",")[:4] == ["t", "theta", "re_src", "im_src"]
    assert len(csv_text) == 1 + 3 * 32


def test_atlas_frame_mismatch_rejected():
    ff, gf = _exp_frames(n_theta=32, cps=np.array([0.0, 0.1, 0.2]))
    other = chains.decreasing_chain(EXPF, [0.0, 0.15, 0.2], GRID, n_theta=32)
    with pytest.raises(ValueError):
        build_extension(ff, other)


def test_atlas_refuses_frames_on_different_trace_rings():
    cps = np.array([0.0, 0.1, 0.2])
    ff = chains.range_normalized_chain(EXPF, cps, GRID, n_theta=32, delta_trace=1e-3)
    gf = chains.decreasing_chain(EXPF, cps, GRID, n_theta=32, delta_trace=5e-2)
    with pytest.raises(ValueError, match="trace ring"):
        build_extension(ff, gf)


def test_atlas_refuses_g_frames_of_another_denjoy_wolff_function():
    cps = np.array([0.0, 0.1, 0.2])
    ff = chains.range_normalized_chain(EXPF, cps, GRID, n_theta=32)
    other = assemble_field(ONE, DenjoyWolffSpec.constant(0.5))
    with pytest.raises(ValueError, match="Denjoy-Wolff"):
        build_extension(ff, chains.decreasing_chain(other, cps, GRID, n_theta=32))
    # equal data from two specs weld
    same = assemble_field(ONE, DenjoyWolffSpec.constant(0))
    build_extension(ff, chains.decreasing_chain(same, cps, GRID, n_theta=32))


def test_radial_formula_cells_ignore_trace_validity():
    k = 0.5
    fld = assemble_field(HerglotzSpec.rational([1, k], [1, -k]), DenjoyWolffSpec.constant(0))
    ff = chains.range_normalized_chain(fld, np.linspace(0.0, 0.16, 9), GRID, n_theta=64)
    ff.trace_valid[4, :8] = False
    ext = becker_extension(ff)
    assert ext.formula_valid.all() and not ext.formula_withheld
    assert not ext.fd_valid[4, :8].any()
    # |mu| = k |zeta| on the trace ring, judged on every formula cell
    rep = dilatation_report(ext, k)
    assert rep.passed and rep.n_masked == 8
    assert rep.max_mu_formula == pytest.approx(k * ff.trace_radius, abs=1e-12)
    assert rep.agreement <= 0.02


def test_radial_extension_refuses_a_nonzero_denjoy_wolff_point():
    # Becker's formula e^{2i theta}(p - 1)/(p + 1) holds for tau = 0 only:
    # here it would read 0 against a finite-difference max |mu| of 0.59
    fld = assemble_field(ONE, DenjoyWolffSpec.constant(0.5))
    ff = chains.range_normalized_chain(fld, np.linspace(0.0, 0.16, 17), GRID, n_theta=64)
    with pytest.raises(ValueError, match="tau identically 0"):
        becker_extension(ff)


def test_becker_extension_identity_continuation():
    cps = np.linspace(0.0, 0.3, 13)
    ff, _ = _exp_frames(cps=cps)
    ext = becker_extension(ff)
    ref = np.exp(cps)[:, None] * (1 - 1e-3) * np.exp(1j * ff.theta)[None, :]
    assert np.abs(ext.values - ref).max() < 1e-8
    # boundary matching gap is the distance between the two trace rings
    assert ext.continuity_mismatch == pytest.approx(5e-4, rel=1e-3)
    assert np.nanmax(np.abs(ext.mu_fd[ext.fd_valid])) < 1e-3


def test_becker_scenario_dilatation_small_grid():
    k = 0.5
    p = HerglotzSpec.rational([1, k], [1, -k])
    fld = assemble_field(p, DenjoyWolffSpec.constant(0))
    cps = np.linspace(0.0, 0.32, 17)
    ff = chains.range_normalized_chain(fld, cps, GRID, n_theta=128)
    gf = chains.decreasing_chain(EXPF, cps, GRID, n_theta=128)
    atlas = build_extension(ff, gf)
    rep = dilatation_report(atlas, k)
    assert rep.passed
    assert rep.max_mu_formula <= 0.5
    assert 0.45 <= rep.max_mu_fd <= 0.52
    assert rep.agreement <= 0.02


def test_dilatation_fails_for_rotation_vs_one():
    # |p - conj(q)|/|p + q| = 1 for p = i, q = 1: criterion fails for every k < 1
    p = HerglotzSpec.constant(1j)
    fs = beltrami_formula(p, ONE, 0.0, np.array([0.0]),
                          2 * np.pi * np.arange(16) / 16, 1.0 - 1e-3)
    assert np.abs(np.abs(fs.mu_pair[fs.valid]) - 1.0).max() < 1e-3


def test_stencil_fit_does_not_depend_on_its_row_blocks():
    # the estimate is local: a 40-row atlas and its rows 10..30 must agree
    # on the interior rows they share
    t = np.linspace(0.0, 0.8, 40)
    th = 2 * np.pi * np.arange(48) / 48
    src = np.exp(t)[:, None] * np.exp(1j * th)[None, :]
    dst = src + 0.3 * np.conj(src) + 0.05 * src ** 2
    valid = np.isfinite(src)
    valid[20, 5] = False
    mu, ok = beltrami_fd(src, dst, valid)
    mu_sub, ok_sub = beltrami_fd(src[10:31], dst[10:31], valid[10:31])
    assert np.array_equal(ok[11:30], ok_sub[1:-1])
    assert ok_sub[1:-1].sum() > 0.9 * ok_sub[1:-1].size
    shared = ok_sub[1:-1]
    assert np.abs(mu[11:30][shared] - mu_sub[1:-1][shared]).max() < 1e-13


def test_a_non_finite_source_masks_its_neighbourhood():
    # a truncated reverse trajectory leaves a NaN g trace with trace_valid
    # false; the fit must mask the stencils through it, not raise
    ff, gf = _exp_frames()
    clean = build_extension(ff, gf)
    gf.traces[5, 7] = np.nan
    gf.trace_valid[5, 7] = False
    atlas = build_extension(ff, gf)
    near = np.zeros(atlas.fd_valid.shape, bool)
    near[4:7, 5:10] = True
    assert clean.fd_valid[near].all()
    assert not atlas.fd_valid[near].any()
    assert np.array_equal(atlas.fd_valid[~near], clean.fd_valid[~near])
    assert np.array_equal(atlas.mu_fd[~near], clean.mu_fd[~near], equal_nan=True)


def _polar_map_errors(rows, with_times=False):
    """Largest FD error on the polar grids S = e^{t + i theta}, t = rows(nt), at
    17x64, 33x128 and 65x256, where T = S + k conj(S) + 0.05 S^2 has
    mu = k / (1 + 0.1 S); every interior cell must be read, no boundary row."""
    k = 0.3
    errs = []
    for nt, nth in ((17, 64), (33, 128), (65, 256)):
        t = rows(nt)
        th = 2 * np.pi * np.arange(nth) / nth
        src = np.exp(t)[:, None] * np.exp(1j * th)[None, :]
        mu, ok = beltrami_fd(src, src + k * np.conj(src) + 0.05 * src ** 2,
                             times=t if with_times else None)
        assert ok[1:-1].all() and not ok[[0, -1]].any()
        errs.append(np.abs(mu[ok] - k / (1 + 0.1 * src[ok])).max())
    return np.array(errs)


def _alternating_rows(nt, t_end=0.8):
    """nt times on [0, t_end] whose spacings alternate 1 : 1.3."""
    c = np.concatenate([[0.0], np.cumsum(np.resize([1.0, 1.3], nt - 1))])
    return t_end * c / c[-1]


def _uniform_rows(nt):
    return np.linspace(0.0, 0.8, nt)


def _graded_rows(nt):
    return 0.8 * np.linspace(0.0, 1.0, nt) ** 1.5


def test_fd_error_falls_at_second_order_on_polar_grids():
    # each doubling of both grid axes must cut the largest error about fourfold
    errs = _polar_map_errors(_uniform_rows)
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


@pytest.mark.parametrize("rows", [_alternating_rows, _graded_rows], ids=["alternating", "graded"])
def test_fd_error_falls_at_second_order_on_uneven_rows(rows):
    # the row differences read the rows' own times, so uneven rows keep the
    # fourfold fall per doubling that index differences lose
    errs = _polar_map_errors(rows, with_times=True)
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5
    if rows is _alternating_rows:
        assert (errs <= 1.25 * _polar_map_errors(_uniform_rows, with_times=True)).all()


def test_unit_spaced_rows_are_the_default_bit_for_bit():
    t = _alternating_rows(17)
    th = 2 * np.pi * np.arange(64) / 64
    src = np.exp(t)[:, None] * np.exp(1j * th)[None, :]
    dst = src + 0.3 * np.conj(src) + 0.05 * src ** 2
    mu, ok = beltrami_fd(src, dst)
    mu_unit, ok_unit = beltrami_fd(src, dst, times=np.arange(17))
    assert ok[1:-1].all()
    assert np.array_equal(ok, ok_unit) and np.array_equal(mu, mu_unit, equal_nan=True)


def test_sector_extend_agrees_on_alternating_checkpoints(tmp_path):
    # the welding atlas hands its checkpoint times to the FD side: on rows
    # whose spacings alternate 1 : 1.3 the two estimators still agree to
    # second order in the row spacing
    doc = builtin_document("sector")
    doc["time"]["checkpoints"] = _alternating_rows(65, 1.0).tolist()
    cfg, errors = validate_config(doc, name="sector")
    assert not errors
    code, summary = cli.run_pipeline(cfg, "extend", tmp_path)
    m = summary["metrics"]
    assert code == 0 and m["fd_coverage_fraction"] > 0.9
    assert m["mu_agreement"] <= 2e-4


def test_extend_reports_the_fd_coverage(tmp_path, monkeypatch):
    atlases = []

    def keep(*args, **kwargs):
        atlases.append(build_extension(*args, **kwargs))
        return atlases[-1]

    monkeypatch.setattr(cli, "build_extension", keep)
    code, summary = cli.run_pipeline(builtin_scenario("step-tau"), "extend", tmp_path)
    m = summary["metrics"]
    # the rows next to the tau jump at t = 1 are masked on the FD side only
    assert m["fd_coverage_fraction"] == atlases[0].fd_valid.mean() < m["coverage_fraction"]


@pytest.mark.parametrize("chart", ["target", "source"])
def test_poles_in_the_atlas_are_fitted_in_the_reciprocal_charts(chart):
    # a pole next to an atlas point: only the reciprocal target chart (1/Phi)
    # or source chart (1/w) sees an affine map near it
    t = np.linspace(0.0, 0.8, 17)
    th = 2 * np.pi * np.arange(64) / 64
    src = np.exp(t)[:, None] * np.exp(1j * th)[None, :]
    c = src[8, 20] + 2e-3 * (1 + 1j)

    def aff(z):
        return z + 0.3 * np.conj(z)

    if chart == "target":
        mu, ok = beltrami_fd(src, 1.0 / (aff(src) - aff(c)))
    else:
        mu, ok = beltrami_fd(1.0 / (src - c), aff(src))
    assert ok[1:-1].mean() >= 0.99
    assert np.abs(np.abs(mu[ok]) - 0.3).max() < 1e-10


def _brute_witness(points):
    """O(n^2) reference for _injectivity_witness, in blocks of rows.

    sqrt is monotone and correctly rounded, so the square root of the least
    squared distance is the least distance bit for bit.
    """
    x, y = points.real, points.imag
    nn = np.empty(points.size)
    for s in range(0, points.size, 64):
        d2 = (x[s:s + 64, None] - x) ** 2
        d2 += (y[s:s + 64, None] - y) ** 2
        d2[np.arange(d2.shape[0]), np.arange(s, s + d2.shape[0])] = np.inf
        nn[s:s + 64] = np.sqrt(d2.min(axis=1))
    threshold = 1e-6 * max(1.0, float(np.median(np.abs(points))))
    return float(nn.min()), threshold, int(np.count_nonzero(nn < threshold))


def _witness_set(kind, rng):
    if kind == "random":
        return rng.random(2000) + 1j * rng.random(2000)
    if kind == "duplicates":
        pts = rng.random(1500) + 1j * rng.random(1500)
        return rng.permutation(np.concatenate([pts, pts[:100]]))
    if kind == "planted":
        # |z| < 1, so the threshold is exactly 1e-6; each partner follows its
        # point, so the grid is as fine as the threshold and pairs straddle cells
        pts = 0.7 * (rng.random(1500) + 1j * rng.random(1500))
        gaps = np.repeat([0.5e-6, 1e-6, 2e-6], 100) * np.exp(2j * np.pi * rng.random(300))
        return np.concatenate([np.column_stack([pts[:300], pts[:300] + gaps]).ravel(),
                               pts[300:]])
    if kind == "vertical":
        return 0.3 + 1j * rng.random(2000)
    if kind == "horizontal":
        return rng.random(2000) + 0.3j
    return np.array([0.25 + 0.5j, 0.25 + 0.5j + 7e-7])     # two points


@pytest.mark.parametrize("kind", ["random", "duplicates", "planted", "vertical",
                                  "horizontal", "two"])
def test_injectivity_witness_is_exact(kind):
    pts = _witness_set(kind, np.random.default_rng(7))
    assert _injectivity_witness(pts) == _brute_witness(pts)


def test_a_crowded_set_counts_its_collisions_exactly():
    # 1,000 points within 1e-12 of the centre of a half-threshold cell exceed
    # the candidate budget.  Four lone points 0.9 thresholds away lie two
    # cells over (collisions only the 24 cells around a lone point find), six
    # more two thresholds out collide with nothing, nor do 1,000 random points
    rng = np.random.default_rng(11)
    centre = 0.4 + 0.3j + 0.25e-6 * (1 + 1j)
    lone = np.concatenate([0.9e-6 * 1j ** np.arange(4),
                           2e-6 * np.exp(2j * np.pi * (np.arange(6) + 0.5) / 6)])
    pts = rng.permutation(np.concatenate([
        centre + np.concatenate([1e-12 * rng.random(1000), lone]),
        0.7 * (rng.random(1000) + 1j * rng.random(1000))]))
    got, ref = _injectivity_witness(pts), _brute_witness(pts)
    assert got[1:] == ref[1:] == (1e-6, 1004)
    assert ref[0] <= got[0] < got[1]     # past the budget, an upper bound


def test_injectivity_witness_is_exact_on_the_chordal_atlas(tmp_path, monkeypatch):
    # sources spanning ~4,000 units with a 6.2e-8 minimum gap
    atlases = []

    def keep(*args, **kwargs):
        atlases.append(build_extension(*args, **kwargs))
        return atlases[-1]

    monkeypatch.setattr(cli, "build_extension", keep)
    cli.run_pipeline(builtin_scenario("chordal"), "extend", tmp_path)
    pts = atlases[0].source[atlases[0].valid]
    ref = _brute_witness(pts)
    assert 0 < ref[0] < ref[1] and ref[2] > 0
    assert _injectivity_witness(pts) == ref


def test_a_collapsed_atlas_is_rejected_quickly_in_bounded_memory():
    cps = np.linspace(0.0, 0.32, 65)
    ff = chains.range_normalized_chain(EXPF, cps, GRID, n_theta=256)
    gf = chains.decreasing_chain(EXPF, cps, GRID, n_theta=256)
    n = gf.traces.size
    rng = np.random.default_rng(3)
    gf.traces[:] = 0.5 + 0.2j + 1e-12 * rng.uniform(-1.0, 1.0, gf.traces.shape)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(AtlasRejected, match=f"{n} of {n} source points collide"):
            build_extension(ff, gf)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 16640
    assert elapsed < 2.0
    assert peak < 64e6      # one n x n boolean array alone takes 277 MB
