#!/usr/bin/env python3
"""The dilatation excess over k down a ladder of trace offsets delta.

Both Beltrami estimators of ``extend`` read the chains on the trace ring
(1 - delta) e^{i theta}, and both read above k by an amount that falls with
delta.  For each constant Denjoy-Wolff point tau and each delta this runs
``extend`` on the given data and reports the excess of ``max_mu_formula``
and of ``max_mu_fd`` over k, the share of atlas cells the finite-difference
estimator judges (``fd_coverage_fraction``) and the exit code.

The data are a scenario document (``--config``, JSON); its tau and
grid.delta_trace are replaced per cell.  The default, ``BASELINE``, is
p = (1 + kz)/(1 - kz) and q = 1 at k = 0.5 with the default time settings
(t_end = 1): the data of the baseline table in ROADMAP.md.

Usage: python scripts/delta_ladder.py [--config DOC.json] [--taus 1 0.9]
           [--deltas 4e-3 2e-3 1e-3 5e-4 2.5e-4] [--out delta_ladder.csv]
"""

import argparse
import copy
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loewnerqc.artifacts import write_csv
from loewnerqc.cli import run_pipeline
from loewnerqc.config import validate_config

BASELINE = {
    "scenario": "delta-ladder",
    "p": {"kind": "rational_table", "numerator": [1.0, 0.5], "denominator": [1.0, -0.5]},
    "q": {"kind": "constant", "value": 1.0},
    "criteria": {"k": 0.5},
}
TAUS = (1.0, 0.9)
DELTAS = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)


def ladder(doc: dict, taus=TAUS, deltas=DELTAS) -> list[dict]:
    """One record per (tau, delta): the excesses over k, the FD coverage and the exit code."""
    rows = []
    for tau in taus:
        for delta in deltas:
            cell = copy.deepcopy(doc)
            cell["tau"] = {"kind": "constant", "value": tau}
            cell.setdefault("grid", {})["delta_trace"] = delta
            cfg, errors = validate_config(cell, name=f"tau {tau}, delta {delta}")
            if errors:
                raise ValueError(f"invalid data: {errors}")
            with tempfile.TemporaryDirectory() as out:
                code, summary = run_pipeline(cfg, "extend", Path(out))
            m, k = summary["metrics"], cfg.criteria.k
            rows.append({"tau": tau, "delta": delta,
                         "formula_excess": m["max_mu_formula"] - k,
                         "fd_excess": m["max_mu_fd"] - k,
                         "fd_coverage": m["fd_coverage_fraction"], "exit": code})
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", type=str, default=None,
                    help="scenario document (JSON); default: BASELINE")
    ap.add_argument("--taus", type=float, nargs="+", default=list(TAUS))
    ap.add_argument("--deltas", type=float, nargs="+", default=list(DELTAS))
    ap.add_argument("--out", type=str, default="delta_ladder.csv")
    args = ap.parse_args()

    doc = json.loads(Path(args.config).read_text()) if args.config else BASELINE
    rows = ladder(doc, args.taus, args.deltas)
    print("| tau | delta | formula excess | FD excess | FD coverage | exit |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['tau']:g} | {r['delta']:g} | {r['formula_excess']:.2e} | "
              f"{r['fd_excess']:.2e} | {r['fd_coverage']:.3f} | {r['exit']} |")
    write_csv({key: [r[key] for r in rows] for key in rows[0]}, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
