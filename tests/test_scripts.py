"""The experiment scripts under scripts/ import and run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["approximation_table", "becker_dilatation_study",
                                  "delta_ladder", "pipeline_matrix"])
def test_script_loads(name):
    assert callable(_load(name).main)


def test_becker_dilatation_study_small_grid():
    mu_f, mu_fd, agree, secs = _load("becker_dilatation_study").study(0.5, 8, 32)
    assert np.isfinite([mu_f, mu_fd, agree, secs]).all()
    # |mu| = k |zeta| on the trace ring |zeta| = 1 - 1e-3
    assert mu_f == pytest.approx(0.4995, abs=1e-12)


def test_the_fd_excess_over_k_falls_down_the_delta_ladder():
    # the baseline data: p = (1 + 0.5z)/(1 - 0.5z), q = 1, k = 0.5, constant tau
    ladder = _load("delta_ladder")
    rows = ladder.ladder(ladder.BASELINE)
    assert [(r["tau"], r["delta"]) for r in rows] == [
        (tau, delta) for tau in ladder.TAUS for delta in ladder.DELTAS]
    # the chain-rule estimator's excess at delta <= 1e-3 stays within that of
    # the stencil fit it replaced, and so does its FD coverage
    before = {1.0: ([2.15e-3, 1.24e-3, 8.36e-4], 0.923),
              0.9: ([1.67e-3, 1.01e-3, 6.84e-4], 0.939)}
    for tau, (excess, coverage) in before.items():
        row = [r for r in rows if r["tau"] == tau]
        fd = [r["fd_excess"] for r in row]
        assert all(a > b for a, b in zip(fd, fd[1:]))
        assert all(got <= bound for got, bound in zip(fd[2:], excess))
        assert min(r["fd_coverage"] for r in row) >= coverage


def test_approximation_table_writes_one_row_per_level(tmp_path, monkeypatch):
    out = tmp_path / "table.csv"
    monkeypatch.setattr(sys, "argv", ["approximation_table.py", "--levels", "2", "4",
                                      "--out", str(out)])
    _load("approximation_table").main()
    lines = out.read_text().splitlines()
    assert lines[0] == "level_n,deviation,ef_error,chain_error,gronwall_envelope,runtime_ms"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]


def test_pipeline_matrix_hashes_ignore_wall_time(tmp_path):
    # exponential approx writes runtime_ms into its summary and its error table
    matrix = _load("pipeline_matrix")
    a = matrix.run_cell("exponential", "approx", tmp_path / "a")
    b = matrix.run_cell("exponential", "approx", tmp_path / "b")
    assert a["exit"] == 0 and a["pass"]
    assert set(a["artifacts"]) == {"error_table.csv", "summary.json"}
    # each cell stores its wall time, which no hash and no comparison reads
    assert a["runtime_ms"] > 0 and b["runtime_ms"] > 0
    assert dict(a, runtime_ms=0) == dict(b, runtime_ms=0)
    # --compare reports differing cells, and fails only on exit codes and pass flags
    base = {"exponential/approx": a}
    assert matrix.compare(base, {"exponential/approx": b}) == ([], False)
    moved = dict(b, artifacts=dict(b["artifacts"], **{"summary.json": "0" * 64}))
    assert matrix.compare(base, {"exponential/approx": moved}) == (
        ["exponential/approx: artifacts summary.json"], False)
    lines, broken = matrix.compare(base, {"exponential/approx": dict(moved, exit=1)})
    assert broken and lines == ["exponential/approx: exit 0 -> 1; artifacts summary.json"]
    lines, broken = matrix.compare(base, {"exponential/approx": dict(b, **{"pass": False})})
    assert broken and lines == ["exponential/approx: pass True -> False"]
    # the numeric metrics are stored, and every moved one is listed under its cell
    assert a["metrics"] == {"chain_final_error": None, "deviation_worst_ratio": 0.902199189248392,
                            "ef_final_error": 0.0, "fitted_order": None}
    drift = dict(moved, metrics=dict(b["metrics"], deviation_worst_ratio=0.9022,
                                     fitted_order=2.0, ef_final_error=1e-9))
    assert matrix.compare(base, {"exponential/approx": drift}) == ([
        "exponential/approx: artifacts summary.json",
        "  deviation_worst_ratio 0.902199189248392 -> 0.9022 (+9.0e-07)",
        "  ef_final_error 0.0 -> 1e-09",
        "  fitted_order None -> 2.0"], False)
    # the wall times are listed base -> new, for the cells both matrices timed
    assert matrix.wall_times(base, {"exponential/approx": b}) == [
        f"exponential/approx: {a['runtime_ms']:.0f} -> {b['runtime_ms']:.0f} ms"]
    untimed = {"exponential/approx": {k: v for k, v in a.items() if k != "runtime_ms"}}
    assert matrix.wall_times(untimed, {"exponential/approx": b}) == []
    # a base matrix written before metrics were stored is named, not a crash
    old = {"exponential/approx": {k: v for k, v in a.items() if k != "metrics"}}
    assert matrix.compare(old, {"exponential/approx": b}) == ([], False)
    assert matrix.compare(old, {"exponential/approx": drift}) == ([
        "the base matrix stores no metrics: moved metrics are not listed",
        "exponential/approx: artifacts summary.json"], False)
