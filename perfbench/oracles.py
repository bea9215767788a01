"""Closed-form and exact-algebra oracles for the benchmark's operations.

Each oracle reads one ``run_pipeline`` result (exit code, summary dict and
the artifact directory) and returns a :class:`Verdict`.  The ratios are
errors divided by the acceptance-suite tolerance of the same quantity, so
1.0 is the acceptance line.  Expected values come from closed forms, never
from the code under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances of the acceptance suite (tests/test_acceptance.py) and the
# scenario defaults they stand for.
TOL_CRITERION = 1e-6      # pointwise criteria statistics
TOL_DILAT = 0.02          # Beltrami estimator agreement and the k + tol bound
TOL_ORACLE = 1e-8         # trajectory and beta oracles of criteria 1 and 2
TOL_CHAIN = 1e-6          # f_0 in S normalization
CRITERIA_RADIUS = 0.99    # outermost circle of the criteria grid
DELTA_TRACE = 1e-3        # trace ring offset: the ring sits at |z| = 1 - delta


@dataclass
class Verdict:
    """Boolean checks and tolerance ratios of one operation."""

    checks: dict[str, bool] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)

    @property
    def err(self) -> float:
        """Worst ratio; NaN counts as an infinite error."""
        vals = [r if math.isfinite(r) else math.inf for r in self.ratios.values()]
        return max(vals) if vals else 0.0

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and self.err <= 1.0

    def failures(self) -> list[str]:
        bad = [name for name, passed in self.checks.items() if not passed]
        bad += [f"{name}={r:.3g}" for name, r in self.ratios.items()
                if not (math.isfinite(r) and r <= 1.0)]
        return bad


def _base(code, summary, expected_code: int) -> Verdict:
    return Verdict(checks={"exit_code": code == expected_code,
                           "summary_pass": bool(summary.get("pass"))})


def _flag(summary, name) -> bool:
    v = summary["metrics"].get(name)
    return isinstance(v, (bool, np.bool_)) and bool(v)


def _metric(summary, name) -> float:
    v = summary["metrics"].get(name)
    return float(v) if isinstance(v, (int, float)) else math.nan


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def becker_check(code, summary, out: Path, *, k: float, expected_code: int = 0) -> Verdict:
    """p = (1+kz)/(1-kz), q = 1: |p-1|/|p+1| = |p-conj q|/|p+q| = k|z|.

    Both suprema over the criteria grid sit on its outer circle, at 0.99 k.
    """
    v = _base(code, summary, expected_code)
    for name in ("herglotz_passed", "becker_passed", "pair_passed"):
        v.checks[name] = _flag(summary, name)
    for name in ("becker_max_ratio", "pair_max_ratio"):
        v.ratios[name] = abs(_metric(summary, name) - CRITERIA_RADIUS * k) / TOL_CRITERION
    return v


def becker_extend(code, summary, out: Path, *, k: float, n_cells: int,
                  expected_code: int = 0) -> Verdict:
    """Welded extension of the Becker data: |mu| = k|zeta| in closed form.

    The formula estimator peaks on the trace ring, at k (1 - delta); the
    finite-difference estimator must agree with it within the criterion 4
    tolerance, and the atlas CSV must hold one row per cell.
    """
    v = _base(code, summary, expected_code)
    v.checks["sense_preserving"] = _flag(summary, "sense_preserving")
    v.checks["mu_fd_bound"] = _metric(summary, "max_mu_fd") <= k + TOL_DILAT
    v.ratios["mu_formula"] = abs(_metric(summary, "max_mu_formula")
                                 - k * (1.0 - DELTA_TRACE)) / TOL_CRITERION
    v.ratios["mu_agreement"] = _metric(summary, "mu_agreement") / TOL_DILAT
    atlas = out / "atlas.csv"
    v.checks["atlas_rows"] = atlas.is_file() and len(_rows(atlas)) == n_cells
    return v


def riccati_phi(z0: complex, t: float, tau: complex) -> complex:
    """Chordal closed form for p = 1, |tau| = 1: phi = tau + w / (1 - conj(tau) w t)."""
    w = z0 - tau
    return tau + w / (1.0 - tau.conjugate() * w * t)


def chordal_evolve(code, summary, out: Path, *, tau: complex, n_rows: int,
                   expected_code: int = 0) -> Verdict:
    """Every stored trajectory value against the Riccati closed form."""
    v = _base(code, summary, expected_code)
    path = out / "trajectories.csv"
    rows = _rows(path) if path.is_file() else []
    v.checks["trajectory_rows"] = len(rows) == n_rows
    v.checks["untruncated"] = bool(rows) and all(r["truncated_flag"] == "0" for r in rows)
    worst = 0.0 if rows else math.nan
    for r in rows:
        z0 = complex(float(r["re_z0"]), float(r["im_z0"]))
        phi = complex(float(r["re_phi"]), float(r["im_phi"]))
        err = abs(phi - riccati_phi(z0, float(r["t"]), tau))
        worst = max(worst, err) if math.isfinite(err) else math.nan
    v.ratios["phi"] = worst / TOL_ORACLE
    return v


def chordal_chain(code, summary, out: Path, *, expected_code: int = 0) -> Verdict:
    """The chain verdict, converged frames and f_0 in S (f_0(0) = 0, f_0'(0) = 1)."""
    v = _base(code, summary, expected_code)
    v.checks["frames_converged"] = _flag(summary, "frames_converged")
    v.ratios["f0_origin"] = _metric(summary, "f0_origin") / TOL_CHAIN
    v.ratios["f0_derivative"] = _metric(summary, "f0_derivative_gap") / TOL_CHAIN
    return v


def chordal_range(code, summary, out: Path, *, expected_code: int = 0) -> Verdict:
    """Chordal data fill the plane; the raw beta estimate at horizon 64 is 1/129."""
    v = _base(code, summary, expected_code)
    v.checks["plane"] = summary["metrics"].get("classification") == "plane"
    v.ratios["beta0_raw"] = abs(_metric(summary, "beta0_raw") - 1.0 / 129.0) / TOL_ORACLE
    return v


def approx_table(code, summary, out: Path, *, tol: float, n_levels: int,
                 expected_code: int = 0) -> Verdict:
    """Approximation lemma: decreasing error columns under the Gronwall envelope.

    The columns are read back from error_table.csv, not from the summary
    flags, and each ef error must sit under envelope + 10 tol.
    """
    v = _base(code, summary, expected_code)
    path = out / "error_table.csv"
    rows = _rows(path) if path.is_file() else []
    v.checks["table_rows"] = len(rows) == n_levels
    ef = [float(r["ef_error"]) for r in rows]
    chain = [float(r["chain_error"]) for r in rows]
    for name, col in (("ef_decreasing", ef), ("chain_decreasing", chain)):
        v.checks[name] = bool(col) and all(b < a for a, b in zip(col, col[1:]))
    ratios = [float(r["ef_error"]) / (float(r["gronwall_envelope"]) + 10.0 * tol)
              for r in rows]
    v.ratios["ef_envelope"] = max(ratios) if ratios else math.nan
    return v
