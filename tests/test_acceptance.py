"""Acceptance suite: one oracle- or property-based criterion per test.

Each test prints a single pass/fail line so the whole gate can be read
off a plain pytest -s run.  Expected values are closed forms or exact
algebra, never outputs of the code under test.
"""

import time

import numpy as np
import pytest

from loewnerqc.grids import circle_grid, criteria_grid
from loewnerqc.herglotz import (HerglotzSpec, DenjoyWolffSpec, assemble_field,
                                check_becker, check_pair, sector_bound)
from loewnerqc.evolution import solve_forward, verify_semigroup, derivative_at_origin
from loewnerqc import chains
from loewnerqc.extension import becker_extension, beltrami_formula
from loewnerqc.approx import random_deviation_check, convergence_table
from loewnerqc.scenarios import builtin_scenario, scenario_names
from loewnerqc.cli import run_pipeline

ONE = HerglotzSpec.constant(1)
SEEDS64 = circle_grid(tuple(np.linspace(0.1, 0.8, 8)), 8)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_exponential_oracle():
    t0 = time.perf_counter()
    fld = assemble_field(ONE, DenjoyWolffSpec.constant(0))
    traj = solve_forward(fld, 0.0, 1.0, SEEDS64, tol=1e-10, checkpoints=[0.5, 1.0])
    e_phi = max(np.abs(traj.at(t) - SEEDS64.points * np.exp(-t)).max() for t in (0.5, 1.0))

    frames = chains.range_normalized_chain(fld, [0.0, 0.5, 1.0], SEEDS64, n_theta=64,
                                           tol=1e-10)
    e_f = np.abs(frames.values - np.exp(frames.checkpoints)[:, None]
                 * SEEDS64.points[None, :]).max()

    dec = chains.decreasing_chain(fld, [0.0, 0.5, 1.0], SEEDS64, n_theta=64, tol=1e-10)
    e_g = np.abs(dec.values - np.exp(-dec.checkpoints)[:, None]
                 * SEEDS64.points[None, :]).max()

    rng = chains.beta_limit(fld, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = (e_phi < 1e-8 and e_f < 1e-8 and e_g < 1e-8
          and rng.classification == "plane" and rng.beta0 <= 1e-8 and elapsed < 5.0)
    _report(1, "exponential pipeline oracle", ok,
            f"phi {e_phi:.2e}, f {e_f:.2e}, g {e_g:.2e}, beta0 {rng.beta0:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_02_chordal_riccati_oracle():
    t0 = time.perf_counter()
    fld = assemble_field(ONE, DenjoyWolffSpec.constant(1))
    cps = [1.0, 2.0, 4.0]
    traj = solve_forward(fld, 0.0, 4.0, SEEDS64, tol=1e-10, checkpoints=cps)
    z = SEEDS64.points
    e_phi = max(np.abs(traj.at(t) - (1 + (z - 1) / (1 - (z - 1) * t))).max()
                for t in cps)
    rng = chains.beta_limit(fld)
    elapsed = time.perf_counter() - t0
    # raw estimate at horizon t is exactly 1/(1+2t); the threshold is met by
    # the extrapolated limit of the doubling sequence
    raw_ok = abs(rng.raw_last[0] - 1.0 / 129.0) < 1e-8
    ok = (e_phi < 1e-8 and rng.classification == "plane" and rng.beta0 <= 1e-6
          and raw_ok and elapsed < 10.0)
    _report(2, "chordal Riccati oracle", ok,
            f"phi {e_phi:.2e}, beta0 {rng.beta0:.2e}, raw {rng.raw_last[0]:.3e}, "
            f"{elapsed:.2f}s")


def test_criterion_03_semigroup_axiom_all_builtins():
    worst = {}
    for name in scenario_names():
        cfg = builtin_scenario(name)
        fld = assemble_field(cfg.p, cfg.tau)
        rep = verify_semigroup(fld, 0.0, 1.0, 2.0, SEEDS64, tol=1e-9)
        worst[name] = rep.residual
    ok = all(np.isfinite(r) and r <= 1e-6 for r in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(3, "EF2 residual on every builtin", ok, detail)


def test_criterion_04_becker_dilatation():
    k = 0.5
    p = HerglotzSpec.rational([1, k], [1, -k])
    fld = assemble_field(p, DenjoyWolffSpec.constant(0))
    g_fld = assemble_field(ONE, DenjoyWolffSpec.constant(0))

    rep = check_becker(p, criteria_grid(), np.linspace(0, 2, 5), k=k)
    ratio_ok = abs(rep.statistic - k * 0.99) < 1e-6

    grid = circle_grid((0.3, 0.6), 8)

    def study(n_cells, n_theta):
        cps = np.linspace(0.0, 0.64, n_cells + 1)
        ff = chains.range_normalized_chain(fld, cps, grid, n_theta=n_theta)
        gf = chains.decreasing_chain(g_fld, cps, grid, n_theta=n_theta)
        ext = becker_extension(ff)
        fs = beltrami_formula(p, ONE, 0.0, cps, ff.theta, ff.trace_radius,
                              gf.traces, gf.trace_valid, gf.trace_derivs)
        mu_f = float(np.nanmax(np.abs(fs.mu_pair[fs.valid])))
        mu_fd = float(np.nanmax(np.abs(ext.mu_fd[ext.fd_valid])))
        both = ext.fd_valid & fs.valid
        agree = float(np.abs(fs.mu[both] - ext.mu_fd[both]).max())
        return mu_f, mu_fd, agree

    mu_f, mu_fd, agree = study(64, 256)
    mu_f2, mu_fd2, agree2 = study(128, 512)
    shrink = agree / agree2
    ok = (ratio_ok and mu_f <= 0.52 and mu_fd <= 0.52 and agree <= 0.02
          and mu_f2 <= 0.52 and mu_fd2 <= 0.52 and shrink >= 2.0)
    _report(4, "Becker dilatation (64x256 atlas + doubling)", ok,
            f"ratio {rep.statistic:.6f}, mu_f {mu_f:.4f}, mu_fd {mu_fd:.4f}, "
            f"agree {agree:.2e} -> {agree2:.2e} (x{shrink:.1f})")


def test_criterion_05_pair_sector_consistency():
    profile = lambda t: (1.0 + 0.5 * t) * np.exp(1j * np.pi / 6)
    p = HerglotzSpec.sector(1.0 / 3.0, profile)
    rep = check_pair(p, p, criteria_grid(), np.linspace(0, 2, 5), k=0.5)
    bound = sector_bound(1.0 / 3.0)
    ok = rep.passed and abs(rep.statistic - 0.5) < 1e-6 and abs(bound - 0.5) < 1e-12
    _report(5, "pair inequality matches sector bound", ok,
            f"max ratio {rep.statistic:.8f}, sin(pi/6) = {bound}")


def test_criterion_06_deviation_inequality_randomized():
    rep = random_deviation_check(10_000, seed=20240601)
    ok = rep.passed and rep.n_violations == 0
    _report(6, "deviation bound on 1e4 random samples", ok,
            f"violations {rep.n_violations}, worst ratio {rep.worst_ratio:.4f}")


def test_criterion_07_approximation_lemma():
    t0 = time.perf_counter()
    tau = DenjoyWolffSpec.sampled(lambda t: t / (1 + t))
    grid = circle_grid((0.3, 0.6), 8)
    levels = [4, 8, 16, 32]
    tab = convergence_table(ONE, tau, levels, grid, [0.5, 1.0, 1.5, 2.0])
    elapsed = time.perf_counter() - t0
    ef_errs = tab.column("ef_error")
    ch_errs = tab.column("chain_error")
    env_ok = all(r.ef_error <= r.envelope for r in tab.rows)
    ok = (tab.ef_strictly_decreasing and tab.chain_strictly_decreasing
          and ef_errs[-1] <= 1e-3 and np.isfinite(ch_errs).all()
          and ch_errs[-1] <= 1e-3 and env_ok and elapsed < 60.0)
    _report(7, "approximation lemma experiment", ok,
            f"ef {ef_errs[-1]:.2e}, chain {ch_errs[-1]:.2e}, {elapsed:.1f}s")


def test_criterion_08_chain_pde_residual():
    grid = circle_grid(tuple(np.linspace(0.1, 0.8, 8)), 8)
    k = 0.5
    becker = assemble_field(HerglotzSpec.rational([1, k], [1, -k]),
                            DenjoyWolffSpec.constant(0))
    chordal = assemble_field(ONE, DenjoyWolffSpec.constant(1))

    def fresid(fld, dt):
        cps = np.arange(0.0, 0.12 + dt / 2, dt)
        fr = chains.range_normalized_chain(fld, cps, grid, n_theta=16)
        return chains.verify_chain_pde(fr, r_max=0.8).rel_residual

    def gresid(fld, dt):
        cps = np.arange(0.0, 0.12 + dt / 2, dt)
        fr = chains.decreasing_chain(fld, cps, grid, n_theta=16)
        return chains.verify_chain_pde(fr, r_max=0.8).rel_residual

    rb1, rb2 = fresid(becker, 0.01), fresid(becker, 0.005)
    order_becker = np.log2(rb1 / rb2)
    rc1, rc2 = fresid(chordal, 0.01), fresid(chordal, 0.005)
    # chordal f-chain is affine in t: the time difference is exact and the
    # residual is floor-limited; the order clause is verified on the
    # decreasing chain, which is genuinely nonlinear in t
    rg1, rg2 = gresid(chordal, 0.01), gresid(chordal, 0.005)
    order_chordal_g = np.log2(rg1 / rg2)
    floor_limited = rc1 <= 1e-4 and rc2 <= 1e-4

    ok = (rb1 <= 1e-3 and rc1 <= 1e-3 and order_becker >= 1.9
          and (floor_limited or np.log2(rc1 / rc2) >= 1.9)
          and order_chordal_g >= 1.9)
    _report(8, "chain-PDE residual and order", ok,
            f"becker {rb1:.2e} (order {order_becker:.2f}), "
            f"chordal f {rc1:.2e} (floor), g-order {order_chordal_g:.2f}")


def test_criterion_09_range_decay_law():
    ok_all = True
    details = []
    for name, p in (("constant", ONE),
                    ("becker", HerglotzSpec.rational([1, 0.5], [1, -0.5]))):
        fld = assemble_field(p, DenjoyWolffSpec.constant(0))
        tr = derivative_at_origin(fld, 8.0, tol=1e-10,
                                  checkpoints=np.linspace(0, 8, 17))
        gap = np.abs(np.abs(tr.dphi) - np.exp(-tr.times)).max()
        quad_gap = np.abs(tr.dphi - tr.quadrature).max()
        details.append(f"{name} {gap:.2e}/{quad_gap:.2e}")
        ok_all &= gap < 1e-8 and quad_gap < 1e-8
    _report(9, "derivative decay law |phi'(0)| = e^{-t}", ok_all, ", ".join(details))


def test_criterion_10_degenerate_rotation_detection(tmp_path):
    cfg = builtin_scenario("rotation")
    code, summary = run_pipeline(cfg, "extend", tmp_path)
    skipped = (code == 0 and summary["pass"]
               and summary["metrics"].get("degenerate") is True
               and any("skipped" in w for w in summary["warnings"]))

    fld = assemble_field(HerglotzSpec.constant(1j), DenjoyWolffSpec.constant(0))
    frames = chains.range_normalized_chain(fld, [0.0, 0.5, 1.0], SEEDS64,
                                           n_theta=64, tol=1e-10)
    coincide, worst = chains.frames_coincide_up_to_rotation(frames, tol=1e-9)
    ok = skipped and coincide
    _report(10, "rotation data: conformal-only, frames rigid", ok,
            f"skip {skipped}, rotation residual {worst:.2e}")
