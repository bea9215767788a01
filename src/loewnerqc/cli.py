"""Command-line pipelines: evolve | chain | range | extend | becker | check | approx.

Every command reads a scenario (JSON config or builtin name), runs the
corresponding construction, writes CSV/SVG artifacts plus a JSON summary
under the output directory, and exits 0 iff all requested checks pass.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts
from .grids import criteria_grid
from .herglotz import (assemble_field, check_herglotz, check_becker, check_pair,
                       holomorphy_residual, rotation_only, DenjoyWolffSpec,
                       sector_bound)
from .evolution import solve_forward, verify_semigroup, schwarz_pick_check
from .chains import (range_normalized_chain, decreasing_chain, beta_limit,
                     verify_transitions, verify_chain_pde, verify_containment)
from .extension import (build_extension, becker_dilatation, dilatation_report,
                        AtlasRejected)
from .approx import (step_approximate, field_deviation, random_deviation_check,
                     ef_convergence, chain_convergence, merge_tables)
from .config import ScenarioConfig, parse_config, ConfigError
from .scenarios import builtin_scenario, scenario_names


def _field(cfg: ScenarioConfig):
    return assemble_field(cfg.p, cfg.tau)


def _check_times(cfg: ScenarioConfig):
    return np.linspace(0.0, cfg.time.t_end, 9)


def _is_degenerate(cfg: ScenarioConfig) -> bool:
    grid = criteria_grid(n_angles=64)
    return rotation_only(cfg.p, grid, _check_times(cfg))


def _cmd_evolve(cfg, out, summary):
    fld = _field(cfg)
    cps = cfg.time.checkpoint_array()
    traj = solve_forward(fld, 0.0, cfg.time.t_end, cfg.grid.seed_grid(),
                         tol=cfg.time.tol, checkpoints=cps)
    mid = 0.5 * cfg.time.t_end
    semi = verify_semigroup(fld, 0.0, mid, cfg.time.t_end,
                            cfg.grid.seed_grid(), tol=cfg.time.tol)
    sp = schwarz_pick_check(traj)
    if cfg.outputs.csv:
        artifacts.write_trajectory_csv(traj, out / "trajectories.csv")
    summary["metrics"].update({
        "semigroup_residual": semi.residual,
        "schwarz_pick_worst": sp.worst_violation,
        "truncated_seeds": int(np.count_nonzero(traj.truncated)),
        "max_modulus": float(np.nanmax(np.abs(traj.values))),
        "steps_rejected": traj.steps_rejected,
    })
    summary["warnings"].extend(traj.warnings)
    return semi.residual <= cfg.criteria.tol_chain and sp.passed


def _build_frames(cfg, fld, n_default: int = 9, second_radius: bool = True):
    cps = cfg.time.checkpoint_array(n_default)
    return range_normalized_chain(
        fld, cps, cfg.grid.seed_grid(), n_theta=cfg.grid.theta_nodes,
        delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol,
        t_inf=cfg.criteria.t_inf, tol_limit=cfg.criteria.tol_limit,
        second_radius=second_radius)


def _cmd_chain(cfg, out, summary):
    fld = _field(cfg)
    frames = _build_frames(cfg, fld)
    trans = verify_transitions(frames, fld, tol=cfg.time.tol,
                               tol_chain=cfg.criteria.tol_chain,
                               t_inf=cfg.criteria.t_inf)
    pde = verify_chain_pde(frames, fld) if frames.checkpoints.size >= 3 else None
    if cfg.outputs.csv:
        artifacts.write_frames_csv(frames, out / "frames_f.csv")
    if cfg.outputs.svg:
        artifacts.write_traces_svg(frames, out / "traces_f.svg")
    summary["metrics"].update({
        "transition_residual": trans.residual,
        "f0_origin": abs(frames.origin_values[0]),
        "f0_derivative_gap": abs(frames.origin_derivs[0] - 1.0),
        "frames_converged": bool(frames.converged.all()),
    })
    if pde is not None:
        summary["metrics"]["pde_relative_residual"] = pde.rel_residual
        summary["metrics"]["pde_resolution_limited"] = pde.resolution_limited
    summary["warnings"].extend(frames.warnings)
    return trans.passed and bool(frames.converged.all())


def _cmd_range(cfg, out, summary):
    fld = _field(cfg)
    rep = beta_limit(fld, t_inf=cfg.criteria.t_inf, tol=cfg.time.tol,
                     tol_beta=cfg.criteria.tol_beta)
    summary["metrics"].update({
        "classification": rep.classification,
        "beta0": rep.beta0,
        "beta0_raw": float(rep.raw_last[0]),
        "radius": rep.radius,
        "horizon": float(rep.horizons[-1]),
    })
    summary["warnings"].extend(rep.warnings)
    if cfg.outputs.csv:
        rows = [[float(h)] + list(map(float, rep.history[i]))
                for i, h in enumerate(rep.horizons)]
        artifacts.write_table_csv(
            ["horizon"] + [f"beta_probe_{j}" for j in range(rep.probes.size)],
            rows, out / "beta_history.csv")
    return rep.classification in ("plane", "disk")


def _cmd_extend(cfg, out, summary):
    fld = _field(cfg)
    if _is_degenerate(cfg):
        summary["metrics"]["degenerate"] = True
        summary["metrics"]["reason"] = (
            "p is purely imaginary at every sample: chain images never grow, "
            "the welding is conformal and there is nothing to extend")
        summary["warnings"].append("extension construction skipped (T = 0 data)")
        return True
    q = cfg.q_or_default()
    grid = criteria_grid(n_angles=64)
    pair_rep = check_pair(cfg.p, q, grid, _check_times(cfg), cfg.criteria.k,
                          tol=cfg.criteria.tol_criterion)
    f_frames = _build_frames(cfg, fld, n_default=65, second_radius=False)
    g_fld = assemble_field(q, cfg.tau)
    g_frames = decreasing_chain(g_fld, cfg.time.checkpoint_array(65), cfg.grid.seed_grid(),
                                n_theta=cfg.grid.theta_nodes,
                                delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol,
                                second_radius=False)
    if cfg.tau.kind == "step":
        summary["warnings"].append(
            "step tau: formula-side dilatation evaluated piecewise per "
            "constancy interval, never across breakpoints")
    try:
        atlas = build_extension(f_frames, g_frames, cfg.p, q, cfg.tau,
                                pair_checked=pair_rep.passed)
    except AtlasRejected as e:
        summary["warnings"].append(str(e))
        summary["metrics"]["atlas_rejected"] = True
        return False
    rep = dilatation_report(atlas, cfg.criteria.k, cfg.criteria.tol_dilat)
    cont = verify_containment(g_frames)
    if cfg.outputs.csv:
        artifacts.write_atlas_csv(atlas, out / "atlas.csv")
    if cfg.outputs.svg:
        artifacts.write_atlas_svg(atlas, out / "atlas.svg")
        artifacts.write_traces_svg(f_frames, out / "traces_f.svg")
        artifacts.write_traces_svg(g_frames, out / "traces_g.svg")
    summary["metrics"].update({
        "pair_max_ratio": pair_rep.statistic,
        "pair_passed": pair_rep.passed,
        "max_mu_formula": rep.max_mu_formula,
        "max_mu_fd": rep.max_mu_fd,
        "mu_agreement": rep.agreement,
        "sense_preserving": rep.sense_preserving,
        "min_source_separation": atlas.min_separation,
        "coverage_fraction": atlas.coverage.unmasked_fraction,
        "containment_violations": cont.violations,
        "lambda_diameter": cont.lambda_diameter,
    })
    summary["warnings"].extend(atlas.warnings + f_frames.warnings)
    return rep.passed


def _cmd_becker(cfg, out, summary):
    if not cfg.tau.is_constant(0.0):
        summary["warnings"].append("the radial extension needs tau identically 0")
        return False
    fld = _field(cfg)
    f_frames = _build_frames(cfg, fld, n_default=65)
    q = cfg.q_or_default()
    g_fld = assemble_field(q, DenjoyWolffSpec.constant(0.0))
    g_frames = decreasing_chain(g_fld, cfg.time.checkpoint_array(65), cfg.grid.seed_grid(),
                                n_theta=cfg.grid.theta_nodes,
                                delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol)
    ext, rep = becker_dilatation(f_frames, g_frames, cfg.p, q, cfg.criteria.k,
                                 cfg.criteria.tol_dilat)
    if cfg.outputs.csv:
        rows = []
        for i, r in enumerate(ext.r):
            for j, th in enumerate(ext.theta):
                rows.append([r, th, ext.values[i, j].real, ext.values[i, j].imag,
                             np.abs(ext.mu_fd[i, j]) if ext.fd_valid[i, j] else ""])
        artifacts.write_table_csv(["r", "theta", "re_F", "im_F", "abs_mu_fd"],
                                  rows, out / "becker_extension.csv")
    summary["metrics"].update({
        "max_mu_formula": rep.max_mu_formula,
        "max_mu_fd": rep.max_mu_fd,
        "mu_agreement": rep.agreement,
        "continuity_mismatch": ext.continuity_mismatch,
        "r_max": ext.r_max,
    })
    summary["warnings"].extend(f_frames.warnings)
    return rep.passed


def _cmd_check(cfg, out, summary):
    grid = criteria_grid(n_angles=cfg.grid.theta_nodes)
    times = _check_times(cfg)
    hg = check_herglotz(cfg.p, grid, times, tol=cfg.criteria.tol_herglotz)
    bk = check_becker(cfg.p, grid, times, cfg.criteria.k, tol=cfg.criteria.tol_criterion)
    holo = holomorphy_residual(cfg.p, grid[np.abs(grid) <= 0.8], times)
    summary["metrics"].update({
        "min_re_p": hg.statistic,
        "herglotz_passed": hg.passed,
        "becker_max_ratio": bk.statistic,
        "becker_passed": bk.passed,
        "holomorphy_residual": holo,
        "sector_bound_at_k": sector_bound(cfg.criteria.k),
        "degenerate_rotation_only": _is_degenerate(cfg),
    })
    ok = hg.passed and bk.passed and holo <= cfg.criteria.tol_holo
    if cfg.q is not None:
        pr = check_pair(cfg.p, cfg.q, grid, times, cfg.criteria.k,
                        tol=cfg.criteria.tol_criterion)
        summary["metrics"]["pair_max_ratio"] = pr.statistic
        summary["metrics"]["pair_passed"] = pr.passed
        summary["warnings"].extend(pr.warnings)
        ok = ok and pr.passed
    summary["warnings"].extend(hg.warnings + bk.warnings)
    return ok


def _cmd_approx(cfg, out, summary):
    rand = random_deviation_check(10_000, seed=cfg.rng_seed)
    grid = criteria_grid(n_angles=32)
    times = _check_times(cfg)
    levels = [int(n) for n in cfg.approx_levels]
    ap_last = step_approximate(cfg.tau, levels[-1], cfg.approx_horizon)
    dev = field_deviation(cfg.p, cfg.tau, ap_last, grid, times)
    seeds = cfg.grid.seed_grid()
    ef = ef_convergence(cfg.p, cfg.tau, levels, seeds, 0.0, cfg.time.t_end,
                        tol=cfg.time.tol, horizon=cfg.approx_horizon)
    cps = cfg.time.checkpoint_array()
    chain = chain_convergence(cfg.p, cfg.tau, levels, seeds, cps[cps > 0],
                              tol=cfg.time.tol, horizon=cfg.approx_horizon)
    table = merge_tables(ef, chain)
    if cfg.outputs.csv:
        rows = [[r.n, r.deviation, r.ef_error, r.chain_error, r.envelope, r.runtime_ms]
                for r in table.rows]
        artifacts.write_table_csv(
            ["level_n", "deviation", "ef_error", "chain_error",
             "gronwall_envelope", "runtime_ms"], rows, out / "error_table.csv")
    summary["metrics"].update({
        "deviation_random_passed": rand.passed,
        "deviation_worst_ratio": rand.worst_ratio,
        "deviation_grid_passed": dev.passed,
        "ef_strictly_decreasing": ef.strictly_decreasing,
        "chain_strictly_decreasing": chain.strictly_decreasing,
        "ef_final_error": table.rows[-1].ef_error,
        "chain_final_error": table.rows[-1].chain_error,
        "fitted_order": table.fitted_order,
    })
    summary["warnings"].extend(table.warnings)
    env_ok = all(r.ef_error <= r.envelope + 10.0 * cfg.time.tol for r in table.rows
                 if np.isfinite(r.ef_error) and np.isfinite(r.envelope))
    return rand.passed and dev.passed and env_ok


_COMMANDS = {
    "evolve": _cmd_evolve,
    "chain": _cmd_chain,
    "range": _cmd_range,
    "extend": _cmd_extend,
    "becker": _cmd_becker,
    "check": _cmd_check,
    "approx": _cmd_approx,
}


def run_pipeline(cfg: ScenarioConfig, command: str, out_dir) -> tuple[int, dict]:
    """Run one command on a scenario; returns (exit_code, summary dict)."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command '{command}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"scenario": cfg.name, "command": command, "pass": False,
               "metrics": {}, "warnings": []}
    t0 = time.perf_counter()
    try:
        ok = _COMMANDS[command](cfg, out, summary)
    except Exception as e:  # summary still written with the failure record
        summary["warnings"].append(f"fatal: {type(e).__name__}: {e}")
        summary["runtime_ms"] = (time.perf_counter() - t0) * 1e3
        artifacts.write_summary(summary, out / cfg.outputs.json_summary)
        return 1, summary
    summary["pass"] = bool(ok)
    summary["runtime_ms"] = (time.perf_counter() - t0) * 1e3
    artifacts.write_summary(summary, out / cfg.outputs.json_summary)
    return (0 if ok else 1), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loewnerqc",
        description="Loewner evolution, conformal welding and quasiconformal "
                    "dilatation checks on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=str, help="scenario JSON file")
        src.add_argument("--scenario", type=str,
                         help=f"builtin scenario ({', '.join(scenario_names())})")
        sp.add_argument("--out", type=str, default="out", help="artifact directory")
        sp.add_argument("--tol", type=float, default=None, help="integrator tolerance override")
        sp.add_argument("--k", type=float, default=None, help="criterion k override")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = parse_config(args.config)
        else:
            cfg = builtin_scenario(args.scenario,
                                   k=args.k if args.k is not None else 0.5)
    except ConfigError as e:
        for line in e.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(str(e.args[0]), file=sys.stderr)
        return 2

    if args.tol is not None:
        cfg.time.tol = args.tol
    if args.k is not None:
        if not 0.0 <= args.k < 1.0:
            print("config error: criteria.k must lie in [0,1)", file=sys.stderr)
            return 2
        cfg.criteria.k = args.k

    code, summary = run_pipeline(cfg, args.command, args.out)
    word = "pass" if summary["pass"] else "FAIL"
    print(f"[{summary['scenario']}:{summary['command']}] {word} "
          f"({summary['runtime_ms']:.0f} ms)")
    for key, val in sorted(summary["metrics"].items()):
        print(f"  {key} = {val}")
    for w in summary["warnings"]:
        print(f"  warning: {w}")
    return code


if __name__ == "__main__":
    sys.exit(main())
