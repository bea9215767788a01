"""Tests of the benchmark itself: span arithmetic, oracles, seeds, limits.

Every oracle is fed a correct output and a deliberately perturbed one, so
an oracle that can never fail is caught.
"""

import cmath
import csv
import json
import math
import time

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads


def _log(spans, counts=None):
    """A SpanLog from (name, start, end, parent, op, aux) tuples."""
    log = tracing.SpanLog()
    for name, start, end, parent, op, aux in spans:
        log.name.append(log.name_id(name))
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
        log.op.append(op)
        log.aux.append(aux)
    log.counts.update(counts or {})
    return log


NESTED = [("cli.run_pipeline", 0.0, 10.0, -1, 0, math.nan),
          ("chains.limit_frame", 1.0, 4.0, 0, 0, 8.0),
          ("evolution.solve_forward", 2.0, 3.0, 1, 0, 8.0),
          ("evolution.solve_forward", 3.0, 3.5, 1, 0, 16.0),
          ("herglotz.field", 3.1, 3.2, 3, 0, math.nan),
          ("artifacts.write_summary", 5.0, 9.0, 0, 0, math.nan)]


def test_self_time_is_span_minus_children():
    log = _log(NESTED)
    _, parent, _, start, end, _ = log.arrays()
    st = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(st, [10 - 3 - 4, 3 - 1 - 0.5, 1, 0.5 - 0.1, 0.1, 4])
    assert st.sum() == pytest.approx(10.0)


def test_check_spans_accepts_consistent_log_and_flags_errors():
    assert tracing.check_spans(_log(NESTED), [10.0]) == []
    assert "sum to" in tracing.check_spans(_log(NESTED), [12.0])[0]
    outside = NESTED[:2] + [("evolution.solve_forward", 2.0, 4.5, 1, 0, 8.0)]
    assert "outside" in tracing.check_spans(_log(outside), [10.0])[0]
    unclosed = NESTED[:1] + [("chains.limit_frame", 1.0, math.nan, 0, 0, 8.0)]
    assert "never closed" in tracing.check_spans(_log(unclosed), [10.0])[0]


def test_layer_metrics_legs_and_wasted_legs():
    log = _log(NESTED, {"herglotz.field_points": 1000})
    log.limits.append((8.0, True, True, 1e-9))
    m = tracing.layer_metrics(log)
    assert m["chains.legs"] == 2
    assert m["chains.leg_s"] == pytest.approx(1.5)
    assert m["chains.wasted_leg_s"] == pytest.approx(0.5)    # horizon 16 > used 8
    assert m["chains.self_s"] == pytest.approx(1.5)
    assert m["evolution.self_s"] == pytest.approx(1.4)
    assert m["herglotz.field_s"] == pytest.approx(0.1)
    assert m["herglotz.ns_per_point"] == pytest.approx(1e5)
    assert m["artifacts.write_s"] == pytest.approx(4.0)
    assert m["config.self_s"] == pytest.approx(3.0)
    assert set(m) | {"config.build_s", "trace.overhead_frac", "oracle.err"} == \
        set(tracing.PER_LAYER)


def test_instrumented_run_matches_untraced_and_restores(tmp_path):
    from loewnerqc import chains, cli, evolution
    from loewnerqc.scenarios import builtin_scenario

    cfg = builtin_scenario("exponential")
    original = (chains.solve_forward, evolution.solve_forward, cli.run_pipeline)
    code, plain = cli.run_pipeline(cfg, "range", tmp_path / "a")
    log = tracing.SpanLog()
    with tracing.instrumented(log):
        log.op_id = 0
        t0 = time.perf_counter()
        code2, traced = cli.run_pipeline(cfg, "range", tmp_path / "b")
        wall = time.perf_counter() - t0
    assert (chains.solve_forward, evolution.solve_forward, cli.run_pipeline) == original
    assert code == code2 == 0
    assert run.canonical(plain) == run.canonical(traced)
    assert tracing.check_spans(log, [wall]) == []
    names, parent, *_ = log.arrays()
    label = [log.names[i] for i in names]
    solves = [i for i, s in enumerate(label) if s == "evolution.solve_forward"]
    assert solves and all(label[parent[i]] == "chains.beta_limit" for i in solves)
    assert tracing.layer_metrics(log)["herglotz.field_calls"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_time_limit_interrupts_a_hang_through_except_exception():
    def swallowing_hang():
        try:
            while True:
                pass
        except Exception:
            return "swallowed"

    t0 = time.perf_counter()
    with pytest.raises(run.OpTimeout):
        with run.time_limit(0.2):
            swallowing_hang()
    assert time.perf_counter() - t0 < 2.0


def test_seed_draws_are_deterministic_and_preserve_the_grids():
    from loewnerqc.grids import circle_grid, trace_ring

    draws = [workloads.draw_inputs(s) for s in range(40)]
    assert draws == [workloads.draw_inputs(s) for s in range(40)]
    assert all(0.45 <= d.k <= 0.55 for d in draws)
    assert len({d.rotation for d in draws}) == 8
    for rot in workloads.ROTATIONS:
        assert abs(rot) == pytest.approx(1.0, abs=1e-15)
        for pts in (circle_grid().points, trace_ring(256, 1e-3), trace_ring(64, 1e-3)):
            moved = pts * rot
            assert np.abs(moved[:, None] - pts[None, :]).min(axis=1).max() < 1e-15


# ---------------------------------------------------------------------------
# oracles: a correct output passes, a perturbed one fails


def _summary(**metrics):
    return {"pass": True, "metrics": metrics}


def test_becker_check_oracle():
    k = 0.5
    good = dict(herglotz_passed=True, becker_passed=True, pair_passed=True,
                becker_max_ratio=0.99 * k, pair_max_ratio=0.99 * k + 1e-12)
    assert oracles.becker_check(0, _summary(**good), None, k=k).ok
    bad = dict(good, pair_max_ratio=0.99 * k + 2e-6)
    assert not oracles.becker_check(0, _summary(**bad), None, k=k).ok
    assert not oracles.becker_check(1, _summary(**good), None, k=k).ok
    assert not oracles.becker_check(0, _summary(**dict(good, becker_passed=False)),
                                    None, k=k).ok


def _write_csv(path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_becker_extend_oracle(tmp_path):
    k = 0.5
    _write_csv(tmp_path / "atlas.csv", ["t"], [[i] for i in range(6)])
    good = dict(sense_preserving=True, max_mu_fd=0.4995, max_mu_formula=0.999 * k,
                mu_agreement=3e-4)
    v = oracles.becker_extend(0, _summary(**good), tmp_path, k=k, n_cells=6)
    assert v.ok and v.err == pytest.approx(0.015)
    for bad in (dict(mu_agreement=0.03), dict(max_mu_formula=0.999 * k + 2e-6),
                dict(max_mu_fd=k + 0.03), dict(sense_preserving=False),
                dict(mu_agreement=float("nan"))):
        assert not oracles.becker_extend(0, _summary(**dict(good, **bad)), tmp_path,
                                         k=k, n_cells=6).ok
    assert not oracles.becker_extend(0, _summary(**good), tmp_path, k=k, n_cells=7).ok


def _trajectories(path, tau, perturb=0.0, flag=0):
    header = ["seed_index", "re_z0", "im_z0", "t", "re_phi", "im_phi",
              "re_dphi", "im_dphi", "truncated_flag"]
    rows = []
    for j, z0 in enumerate([0.3, 0.5j, -0.2 - 0.4j]):
        for t in (0.0, 1.0, 4.0):
            phi = oracles.riccati_phi(complex(z0), t, tau) + (perturb if j == 2 else 0)
            rows.append([j, complex(z0).real, complex(z0).imag, t, phi.real, phi.imag,
                         0, 0, flag])
    _write_csv(path / "trajectories.csv", header, rows)


def test_chordal_evolve_oracle(tmp_path):
    tau = cmath.exp(0.25j * math.pi)
    _trajectories(tmp_path, tau)
    assert oracles.chordal_evolve(0, _summary(), tmp_path, tau=tau, n_rows=9).ok
    assert not oracles.chordal_evolve(0, _summary(), tmp_path, tau=1 + 0j, n_rows=9).ok
    assert not oracles.chordal_evolve(0, _summary(), tmp_path, tau=tau, n_rows=10).ok
    _trajectories(tmp_path, tau, perturb=2e-8)
    assert not oracles.chordal_evolve(0, _summary(), tmp_path, tau=tau, n_rows=9).ok
    _trajectories(tmp_path, tau, flag=1)
    assert not oracles.chordal_evolve(0, _summary(), tmp_path, tau=tau, n_rows=9).ok


def test_chordal_chain_and_range_oracles():
    chain = dict(frames_converged=True, f0_origin=3e-9, f0_derivative_gap=1e-9)
    assert oracles.chordal_chain(0, _summary(**chain), None).ok
    for bad in (dict(f0_origin=2e-6), dict(f0_derivative_gap=2e-6),
                dict(frames_converged=False)):
        assert not oracles.chordal_chain(0, _summary(**dict(chain, **bad)), None).ok
    rng = dict(classification="plane", beta0_raw=1.0 / 129.0 + 1e-12)
    assert oracles.chordal_range(0, _summary(**rng), None).ok
    assert not oracles.chordal_range(0, _summary(**dict(rng, beta0_raw=1 / 129 + 2e-8)),
                                     None).ok
    assert not oracles.chordal_range(0, _summary(**dict(rng, classification="disk")),
                                     None).ok


def test_approx_oracle(tmp_path):
    header = ["level_n", "deviation", "ef_error", "chain_error",
              "gronwall_envelope", "runtime_ms"]

    def table(ef, chain, env):
        _write_csv(tmp_path / "error_table.csv", header,
                   [[4 * 2 ** i, 0.1, e, c, g, 1.0] for i, (e, c, g) in
                    enumerate(zip(ef, chain, env))])
        return oracles.approx_table(0, _summary(), tmp_path, tol=1e-9, n_levels=3)

    v = table([4e-3, 2e-3, 1e-3], [3e-2, 1e-2, 3e-3], [1e-2, 5e-3, 1e-2])
    assert v.ok and v.err == pytest.approx(0.4, rel=1e-6)
    assert not table([4e-3, 4e-3, 1e-3], [3e-2, 1e-2, 3e-3], [1e-2] * 3).ok
    assert not table([4e-3, 2e-3, 1e-3], [3e-2, 3e-2, 3e-3], [1e-2] * 3).ok
    assert not table([4e-3, 2e-3, 1e-3], [3e-2, 1e-2, 3e-3], [1e-2, 1e-3, 1e-2]).ok
