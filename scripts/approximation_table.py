#!/usr/bin/env python3
"""Step-approximation convergence table for measurable Denjoy-Wolff data.

Approximates tau(t) = t/(1+t) by midpoint step functions at doubling levels,
integrates the evolution families and chains against the exact-tau reference,
and prints the error columns together with their Gronwall envelopes.

Usage: python scripts/approximation_table.py [--levels 4 8 16 32] [--out table.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loewnerqc.grids import circle_grid
from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec
from loewnerqc.approx import convergence_table
from loewnerqc.artifacts import write_table_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--out", type=str, default="approximation_table.csv")
    args = ap.parse_args()

    tau = DenjoyWolffSpec.sampled(lambda t: t / (1 + t))
    p = HerglotzSpec.constant(1)
    grid = circle_grid((0.3, 0.6), 8)
    cps = [args.t_end * f for f in (0.25, 0.5, 0.75, 1.0)]

    table = convergence_table(p, tau, args.levels, grid, cps)

    print(f"{'n':>5} {'deviation':>12} {'ef_error':>12} {'chain_error':>12} "
          f"{'envelope':>12} {'ms':>8}")
    rows = []
    for r in table.rows:
        print(f"{r.n:>5} {r.deviation:>12.4e} {r.ef_error:>12.4e} "
              f"{r.chain_error:>12.4e} {r.envelope:>12.4e} {r.runtime_ms:>8.0f}")
        rows.append([r.n, r.deviation, r.ef_error, r.chain_error,
                     r.envelope, r.runtime_ms])
    for w in table.warnings:
        print(f"warning: {w}")
    print(f"fitted order (error vs deviation): {table.fitted_order:.2f}")
    write_table_csv(["level_n", "deviation", "ef_error", "chain_error",
                     "gronwall_envelope", "runtime_ms"], rows, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
