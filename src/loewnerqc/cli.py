"""Command-line pipelines: evolve | chain | range | extend | becker | check | approx.

Every command reads a scenario (JSON config or builtin name), runs the
corresponding construction, writes CSV/SVG artifacts plus a JSON summary
under the output directory, and exits 0 iff all requested checks pass.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts
from .herglotz import (TOL_HOLO, assemble_field, check_herglotz, check_becker, check_pair,
                       holomorphy_residual, rotation_only, sector_bound)
from .evolution import solve_forward, verify_semigroup, schwarz_pick_check
from .chains import (range_normalized_chain, decreasing_chain, beta_limit,
                     verify_transitions, verify_chain_pde, verify_containment)
from .extension import build_extension, becker_extension, dilatation_report, AtlasRejected
from .approx import random_deviation_check, convergence_table
from .config import ScenarioConfig, parse_config, ConfigError
from .scenarios import builtin_scenario, scenario_names

# seed of approx's randomized trial of the deviation inequality
_DEVIATION_SEED = 20240601


def _herglotz_verdict(cfg: ScenarioConfig, summary) -> bool:
    """True when p, and q if set, pass the Herglotz check; one warning per failure."""
    bad = [name for name, spec in (("p", cfg.p), ("q", cfg.q))
           if spec is not None and not check_herglotz(spec, *cfg.hypothesis_samples()).passed]
    summary["warnings"].extend(
        f"{name} fails the Herglotz check (Re {name} >= 0 on the check samples)" for name in bad)
    return not bad


def _cmd_evolve(cfg, out, summary):
    fld = assemble_field(cfg.p, cfg.tau)
    cps = cfg.time.checkpoint_array()
    traj = solve_forward(fld, 0.0, cfg.time.t_end, cfg.grid.seed_grid(),
                         tol=cfg.time.tol, checkpoints=cps)
    mid = 0.5 * cfg.time.t_end
    semi = verify_semigroup(fld, 0.0, mid, cfg.time.t_end,
                            cfg.grid.seed_grid(), tol=cfg.time.tol)
    sp = schwarz_pick_check(traj)
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


def _build_frames(cfg, n_default: int = 9):
    cps = cfg.time.checkpoint_array(n_default)
    return range_normalized_chain(
        assemble_field(cfg.p, cfg.tau), cps, cfg.grid.seed_grid(), n_theta=cfg.grid.theta_nodes,
        delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol,
        t_inf=cfg.criteria.t_inf, tol_limit=cfg.criteria.tol_limit)


def _cmd_chain(cfg, out, summary):
    if cfg.time.checkpoint_array().size < 2:
        summary["warnings"].append("the transition identity needs at least 2 checkpoints")
        return False
    frames = _build_frames(cfg)
    trans = verify_transitions(frames, cfg.criteria.tol_chain)
    pde = verify_chain_pde(frames) if frames.checkpoints.size >= 3 else None
    artifacts.write_frames_csv(frames, out / "frames_f.csv")
    artifacts.write_traces_svg(frames, out / "traces_f.svg")
    summary["metrics"].update({
        "transition_residual": trans.residual,
        "frames_converged": bool(frames.converged.all()),
    })
    if pde is not None:
        summary["metrics"]["pde_relative_residual"] = pde.rel_residual
        summary["metrics"]["pde_resolution_limited"] = pde.resolution_limited
    summary["warnings"].extend(frames.warnings)
    # f_0 in S: f_0(0) = 0 and f_0'(0) = 1 up to the chain tolerance; the
    # first row is f_0 only when the first checkpoint is 0
    f0_ok = True
    if frames.checkpoints[0] == 0.0:
        m0 = abs(frames.origin_values[0])
        d0 = abs(frames.origin_derivs[0] - 1.0)
        summary["metrics"].update({"f0_origin": m0, "f0_derivative_gap": d0})
        f0_ok = m0 <= cfg.criteria.tol_chain and d0 <= cfg.criteria.tol_chain
        if not f0_ok:
            summary["warnings"].append(
                f"f_0 normalization residuals |f_0(0)| = {m0:.3g}, |f_0'(0)-1| = {d0:.3g}")
    return trans.passed and bool(frames.converged.all()) and f0_ok


def _cmd_range(cfg, out, summary):
    rep = beta_limit(assemble_field(cfg.p, cfg.tau), t_inf=cfg.criteria.t_inf, tol=cfg.time.tol)
    summary["metrics"].update({
        "classification": rep.classification,
        "beta0": rep.beta0,
        "beta0_raw": float(rep.raw_last[0]),
        "radius": rep.radius,
        "horizon": float(rep.horizons[-1]),
    })
    summary["warnings"].extend(rep.warnings)
    probes = {f"beta_probe_{j}": col for j, col in enumerate(rep.history.T)}
    artifacts.write_csv({"horizon": rep.horizons, **probes}, out / "beta_history.csv")
    return rep.classification in ("plane", "disk")


# the finite-difference dilatation differentiates across time rows
_FEW_CHECKPOINTS = "the dilatation estimate needs at least 3 checkpoints"


def _cmd_extend(cfg, out, summary):
    grid, times = cfg.hypothesis_samples()
    if rotation_only(cfg.p, grid, times):
        summary["metrics"]["degenerate"] = True
        summary["metrics"]["reason"] = (
            "p is purely imaginary at every sample: chain images never grow, "
            "the welding is conformal and there is nothing to extend")
        summary["warnings"].append("extension construction skipped (T = 0 data)")
        return True
    if cfg.time.checkpoint_array(65).size < 3:
        summary["warnings"].append(_FEW_CHECKPOINTS)
        return False
    q = cfg.q_or_default()
    f_frames = _build_frames(cfg, n_default=65)
    g_frames = decreasing_chain(
        assemble_field(q, cfg.tau), cfg.time.checkpoint_array(65), cfg.grid.seed_grid(),
        n_theta=cfg.grid.theta_nodes, delta_trace=cfg.grid.delta_trace, tol=cfg.time.tol)
    pair_rep = check_pair(cfg.p, q, grid, times, cfg.criteria.k)
    if not pair_rep.passed:
        summary["warnings"].append(
            "pair inequality was not certified for this data; atlas built anyway")
    if cfg.tau.breakpoints:
        summary["warnings"].append(
            "step tau: formula-side dilatation evaluated piecewise per "
            "constancy interval, never across breakpoints")
    try:
        atlas = build_extension(f_frames, g_frames)
    except AtlasRejected as e:
        summary["warnings"].append(str(e))
        summary["metrics"]["atlas_rejected"] = True
        return False
    rep = dilatation_report(atlas, cfg.criteria.k, cfg.criteria.tol_dilat)
    cont = verify_containment(g_frames)
    artifacts.write_atlas_csv(atlas, out / "atlas.csv")
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
        "coverage_fraction": atlas.coverage,
        "fd_coverage_fraction": float(np.count_nonzero(atlas.fd_valid)) / atlas.fd_valid.size,
        "containment_violations": cont.violations,
        "lambda_diameter": cont.lambda_diameter,
    })
    summary["warnings"].extend(atlas.warnings + f_frames.warnings + g_frames.warnings)
    return rep.passed


def _cmd_becker(cfg, out, summary):
    if not cfg.tau.is_constant(0.0):
        summary["warnings"].append("the radial extension needs tau identically 0")
        return False
    cps = cfg.time.checkpoint_array(65)
    if cps[0] != 0.0:
        summary["warnings"].append("the radial extension needs a checkpoint at t = 0")
        return False
    if cps.size < 3:
        summary["warnings"].append(_FEW_CHECKPOINTS)
        return False
    if cfg.q is not None:
        summary["warnings"].append(
            "q is not used by the radial extension (extend reads it)")
    f_frames = _build_frames(cfg, n_default=65)
    ext = becker_extension(f_frames)
    rep = dilatation_report(ext, cfg.criteria.k, cfg.criteria.tol_dilat)
    abs_mu_fd = np.abs(ext.mu_fd).astype(object)
    abs_mu_fd[~ext.fd_valid] = ""
    artifacts.write_csv({"r": ext.r[:, None], "theta": ext.theta, "F": ext.values,
                         "abs_mu_fd": abs_mu_fd}, out / "becker_extension.csv")
    summary["metrics"].update({
        "max_mu_formula": rep.max_mu_formula,
        "max_mu_fd": rep.max_mu_fd,
        "mu_agreement": rep.agreement,
        "continuity_mismatch": ext.continuity_mismatch,
        "r_max": float(ext.r[-1]),
    })
    summary["warnings"].extend(f_frames.warnings)
    return rep.passed


def _cmd_check(cfg, out, summary):
    grid, times = cfg.hypothesis_samples()
    hg = check_herglotz(cfg.p, grid, times)
    bk = check_becker(cfg.p, grid, times, cfg.criteria.k)
    holo = holomorphy_residual(cfg.p, grid[np.abs(grid) <= 0.8], times)
    summary["metrics"].update({
        "min_re_p": hg.statistic,
        "herglotz_passed": hg.passed,
        "becker_max_ratio": bk.statistic,
        "becker_passed": bk.passed,
        "holomorphy_residual": holo,
        "sector_bound_at_k": sector_bound(cfg.criteria.k),
        "degenerate_rotation_only": rotation_only(cfg.p, grid, times),
    })
    ok = hg.passed and bk.passed and holo <= TOL_HOLO
    if cfg.q is not None:
        pr = check_pair(cfg.p, cfg.q, grid, times, cfg.criteria.k)
        summary["metrics"]["pair_max_ratio"] = pr.statistic
        summary["metrics"]["pair_passed"] = pr.passed
        summary["warnings"].extend(pr.warnings)
        ok = ok and pr.passed
    summary["warnings"].extend(hg.warnings + bk.warnings)
    return ok


def _cmd_approx(cfg, out, summary):
    cps = cfg.time.checkpoint_array()
    cps = cps[cps > 0]
    if cps.size == 0:
        summary["warnings"].append("the convergence study needs a checkpoint t > 0")
        return False
    rand = random_deviation_check(10_000, seed=_DEVIATION_SEED)
    table = convergence_table(cfg.p, cfg.tau, cfg.approx_levels, cfg.grid.seed_grid(), cps,
                              tol=cfg.time.tol, t_inf=cfg.criteria.t_inf,
                              tol_limit=cfg.criteria.tol_limit)
    artifacts.write_error_table_csv(table, out / "error_table.csv")
    summary["metrics"].update({
        "deviation_random_passed": rand.passed,
        "deviation_worst_ratio": rand.worst_ratio,
        "deviation_grid_passed": table.deviation_grid_passed,
        "ef_strictly_decreasing": table.ef_strictly_decreasing,
        "chain_strictly_decreasing": table.chain_strictly_decreasing,
        "ef_final_error": table.rows[-1].ef_error,
        "chain_final_error": table.rows[-1].chain_error,
        "fitted_order": table.fitted_order,
    })
    summary["warnings"].extend(table.warnings)
    return rand.passed and table.deviation_grid_passed and table.under_envelope


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
        # every building command needs Herglotz data; check reports its own verdict
        herglotz_ok = command == "check" or _herglotz_verdict(cfg, summary)
        ok = bool(_COMMANDS[command](cfg, out, summary)) and herglotz_ok
    except Exception as e:  # summary still written with the failure record
        summary["warnings"].append(f"fatal: {type(e).__name__}: {e}")
        ok = False
    summary["pass"] = ok
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

    if args.k is not None and not 0.0 <= args.k < 1.0:
        print("config error: criteria.k must lie in [0,1)", file=sys.stderr)
        return 2
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
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            print("config error: time.tol must be positive", file=sys.stderr)
            return 2
        cfg.time.tol = args.tol
    if args.k is not None:
        cfg.criteria.k = args.k
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: --out {args.out}: {e.strerror or e}", file=sys.stderr)
        return 2

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
