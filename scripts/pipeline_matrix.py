#!/usr/bin/env python3
"""Run every builtin scenario through every CLI command and hash the artifacts.

Each (scenario, command) cell goes through ``run_pipeline`` into
DIR/<scenario>/<command>/.  ``DIR/matrix.json`` then records, per cell, the
exit code, the pass flag, the numeric summary metrics (null where the
summary holds a non-finite value), the sha256 of every artifact the cell
wrote and the cell's wall time ``runtime_ms``.  The summary is hashed
without its ``runtime_ms`` field and a CSV without a ``runtime_ms`` column,
so two runs of the same code hash alike.

With ``--compare BASE/matrix.json`` the run then prints every cell whose
exit code, pass flag or artifact hashes differ from that base matrix, and
under it every metric that moved, as old -> new with its relative change.
It exits with status 1 when an exit code or a pass flag differs.  Last it
prints each cell's wall time, base -> new: one run each, so it informs
and decides nothing.

Usage: python scripts/pipeline_matrix.py --out DIR [--compare BASE/matrix.json]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loewnerqc.cli import run_pipeline
from loewnerqc.scenarios import builtin_scenario, scenario_names

COMMANDS = ("check", "evolve", "chain", "range", "extend", "becker", "approx")


def _digest(path: Path, summary_name: str) -> str:
    """sha256 of an artifact, without its wall-time fields."""
    if path.name == summary_name:
        doc = json.loads(path.read_text())
        doc.pop("runtime_ms", None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    elif path.suffix == ".csv":     # numeric tables: drop a runtime_ms column
        rows = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0] if rows else []) if name != "runtime_ms"]
        data = "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_cell(name: str, command: str, out: Path) -> dict:
    cfg = builtin_scenario(name)
    code, summary = run_pipeline(cfg, command, out)
    summary_name = cfg.outputs.json_summary
    written = json.loads((out / summary_name).read_text())["metrics"]
    return {"exit": code, "pass": bool(summary["pass"]),
            "metrics": {k: v for k, v in written.items() if v is None or type(v) in (int, float)},
            "artifacts": {p.name: _digest(p, summary_name)
                          for p in sorted(out.iterdir()) if p.is_file()},
            "runtime_ms": summary["runtime_ms"]}


def _moved(old: dict, new: dict) -> list[str]:
    """One line per metric that differs: old -> new, and the relative change."""
    lines = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        rel = f" ({(b - a) / abs(a):+.1e})" if a and b is not None else ""
        lines.append(f"  {name} {a!r} -> {b!r}{rel}")
    return lines


def compare(base: dict, matrix: dict) -> tuple[list[str], bool]:
    """(a line per differing cell, each followed by its moved metrics;
    whether an exit code or a pass flag differs)."""
    lines, broken, unlisted = [], False, False
    for key in sorted(set(base) | set(matrix)):
        old, new = base.get(key), matrix.get(key)
        if old is None or new is None:
            lines.append(f"{key}: only in the {'new' if old is None else 'base'} matrix")
            broken = True
            continue
        what = [f"{field} {old[field]} -> {new[field]}" for field in ("exit", "pass")
                if old[field] != new[field]]
        broken |= bool(what)
        names = sorted(set(old["artifacts"]) | set(new["artifacts"]))
        changed = [n for n in names if old["artifacts"].get(n) != new["artifacts"].get(n)]
        if changed:
            what.append("artifacts " + ", ".join(changed))
        if what:
            lines.append(f"{key}: " + "; ".join(what))
            if "metrics" in old:
                lines += _moved(old["metrics"], new["metrics"])
            else:
                unlisted = True
    if unlisted:
        lines.insert(0, "the base matrix stores no metrics: moved metrics are not listed")
    return lines, broken


def wall_times(base: dict, matrix: dict) -> list[str]:
    """Base -> new wall time of every cell both matrices timed."""
    keys = [k for k in sorted(matrix) if "runtime_ms" in base.get(k, {})]
    return [f"{k}: {base[k]['runtime_ms']:.0f} -> {matrix[k]['runtime_ms']:.0f} ms" for k in keys]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=str, required=True)
    ap.add_argument("--compare", type=str, default=None,
                    help="a base matrix.json to compare the new cells against")
    args = ap.parse_args()
    root = Path(args.out)
    matrix = {}
    for name in scenario_names():
        for command in COMMANDS:
            cell = run_cell(name, command, root / name / command)
            matrix[f"{name}/{command}"] = cell
            print(f"{name:>16} {command:>6}: exit {cell['exit']}", flush=True)
    (root / "matrix.json").write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    print(f"matrix under {root}/matrix.json")
    if args.compare:
        base = json.loads(Path(args.compare).read_text())
        lines, broken = compare(base, matrix)
        print("\n".join(lines) if lines else "every cell matches the base")
        times = wall_times(base, matrix)
        if times:
            print("wall time per cell, base -> new (single runs, informational):")
            print("\n".join(times))
        if broken:
            sys.exit(1)


if __name__ == "__main__":
    main()
