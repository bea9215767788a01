#!/usr/bin/env python3
"""Grid-refinement study of the two Beltrami estimators on the radial extension.

For p = (1+kz)/(1-kz) the radial formula e^{2i theta}(p - 1)/(p + 1) gives
|mu| = k|zeta| exactly, so the finite-difference estimator's distance from
it measures pure discretization error; it should shrink at first order or
better under (t, theta) doubling.  Only the range-normalized chain of p is
built: the radial extension needs no second chain.

Usage: python scripts/becker_dilatation_study.py [--k 0.5] [--out becker_study.csv]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loewnerqc.grids import circle_grid
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field
from loewnerqc import chains
from loewnerqc.extension import becker_extension, dilatation_report
from loewnerqc.artifacts import write_csv


def study(k: float, n_cells: int, n_theta: int):
    p = HerglotzSpec.rational([1, k], [1, -k])
    fld = assemble_field(p, DenjoyWolffSpec.constant(0))
    grid = circle_grid((0.3, 0.6), 8)
    cps = np.linspace(0.0, 0.64, n_cells + 1)
    t0 = time.perf_counter()
    ff = chains.range_normalized_chain(fld, cps, grid, n_theta=n_theta)
    rep = dilatation_report(becker_extension(ff), k)
    return rep.max_mu_formula, rep.max_mu_fd, rep.agreement, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=float, default=0.5)
    ap.add_argument("--out", type=str, default="becker_study.csv")
    args = ap.parse_args()

    rows = []
    prev = None
    for cells, ntheta in ((16, 64), (32, 128), (64, 256), (128, 512)):
        mu_f, mu_fd, agree, secs = study(args.k, cells, ntheta)
        order = np.log2(prev / agree) if prev else float("nan")
        prev = agree
        rows.append([cells, ntheta, mu_f, mu_fd, agree, order, secs * 1e3])
        print(f"{cells:4d} x {ntheta:4d}: |mu_f| {mu_f:.5f}  |mu_fd| {mu_fd:.5f}  "
              f"agreement {agree:.2e}  order {order:5.2f}  ({secs:.1f}s)")
    header = ["t_cells", "theta_nodes", "max_mu_formula", "max_mu_fd",
              "agreement", "order_vs_previous", "runtime_ms"]
    write_csv(dict(zip(header, zip(*rows))), args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
