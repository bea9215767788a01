#!/usr/bin/env python3
"""Run every builtin scenario through every CLI command and hash the artifacts.

Each (scenario, command) cell goes through ``run_pipeline`` into
DIR/<scenario>/<command>/.  ``DIR/matrix.json`` then records, per cell, the
exit code, the pass flag and the sha256 of every artifact the cell wrote.
The summary is hashed without its ``runtime_ms`` field and a CSV without a
``runtime_ms`` column, so two runs of the same code hash alike.  Comparing
two commits is a diff of their matrix.json files.

Usage: python scripts/pipeline_matrix.py --out DIR
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
    return {"exit": code, "pass": bool(summary["pass"]),
            "artifacts": {p.name: _digest(p, summary_name)
                          for p in sorted(out.iterdir()) if p.is_file()}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=str, required=True)
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


if __name__ == "__main__":
    main()
