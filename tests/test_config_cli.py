import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerqc.config import parse_config, validate_config, ConfigError
from loewnerqc.scenarios import builtin_scenario, scenario_names, builtin_document
from loewnerqc import artifacts, cli
from loewnerqc.cli import run_pipeline, main


def test_minimal_config_fills_defaults(tmp_path):
    doc = {"p": {"kind": "constant", "value": 1.0},
           "tau": {"kind": "constant", "value": 0.0},
           "time": {"t_end": 1.0}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    cfg = parse_config(path)
    assert cfg.time.t_end == 1.0
    assert cfg.criteria.k == 0.5
    assert cfg.grid.theta_nodes == 256
    assert cfg.q is None


def test_invalid_k_reports_field_path():
    cfg, errors = validate_config({"criteria": {"k": 1.2}})
    assert any("criteria.k must lie in [0,1)" in e for e in errors)


def test_unsorted_step_breakpoints_named():
    cfg, errors = validate_config(
        {"tau": {"kind": "step", "breakpoints": [2.0, 1.0], "values": [0, 0.1, 0.2]}})
    assert any("tau.breakpoints" in e for e in errors)


def test_errors_are_aggregated_not_fail_fast():
    cfg, errors = validate_config({
        "p": {"kind": "mystery"},
        "criteria": {"k": 1.5},
        "time": {"t_end": -1},
    })
    assert len(errors) >= 3


@pytest.mark.parametrize("doc, path", [
    ({"time": {"t_end": "abc"}}, "time.t_end"),
    ({"grid": {"circles": 0.5}}, "grid.circles"),
    ({"grid": {"circles": []}}, "grid.circles"),
    ({"approx_levels": []}, "approx_levels"),
    ({"grid": {"angles": "eight"}}, "grid.angles"),
    ({"approx_levels": ["x"]}, "approx_levels"),
    ({"criteria": {"t_inf": math.nan}}, "criteria.t_inf"),
    ({"criteria": {"t_inf": math.inf}}, "criteria.t_inf"),
    ({"time": {"t_end": 1.0, "checkpoints": [0.0, 2.0]}}, "time.checkpoints"),
    ({"time": [1.0]}, "time"),
    ({"approx_horizon": 0}, "approx_horizon"),
    ({"grid": {"circles": [0.9999999]}}, "grid.circles"),
    ({"grid": {"delta_trace": 1e-7}}, "grid.delta_trace"),
    ({"approx_levels": [8, 4]}, "approx_levels"),
    ({"criteria": {"t_inf": 1.5}}, "criteria.t_inf"),
    ({"outputs": {"svg": "false"}}, "outputs.svg"),
    ({"outputs": {"csv": 0}}, "outputs.csv"),
    ({"outputs": {"json_summary": ["a"]}}, "outputs.json_summary"),
    ({"outputs": {"json_summary": "sub/s.json"}}, "outputs.json_summary"),
    ({"outputs": {"json_summary": "sub\\s.json"}}, "outputs.json_summary"),
    ({"outputs": {"json_summary": ".."}}, "outputs.json_summary"),
    ({"outputs": {"json_summary": ""}}, "outputs.json_summary"),
    ({"tau": {"kind": "step", "breakpoints": [math.nan], "values": [0.1, 0.2]}},
     "tau.breakpoints"),
    ({"tau": {"kind": "step", "breakpoints": ["a", "b"], "values": [0.1, 0.2, 0.3]}},
     "tau.breakpoints"),
])
def test_malformed_values_are_collected(doc, path):
    cfg, errors = validate_config(doc)
    assert any(e.startswith(path + " ") for e in errors), errors


def test_cli_main_non_finite_t_inf_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"criteria": {"t_inf": Infinity}, "time": {"t_end": "abc"}}')
    code = main(["chain", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "criteria.t_inf" in err and "time.t_end" in err


def test_cli_main_summary_in_a_subdirectory_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"outputs": {"json_summary": "sub/s.json"}}))
    code = main(["check", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "outputs.json_summary" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_KEYS = ["scenario", "p", "q", "tau", "time", "grid", "criteria", "outputs", "rng_seed",
         "approx_levels", "approx_horizon", "kind", "value", "numerator", "denominator",
         "opening", "profile", "driving", "type", "points", "table", "breakpoints",
         "values", "t_end", "tol", "checkpoints", "circles", "angles", "delta_trace",
         "theta_nodes", "k", "t_inf", "tol_limit", "tol_chain", "svg", "json_summary"]
_KINDS = ["constant", "mobius_kernel", "sector", "rational_table", "user_sampled",
          "step", "sampled", "table"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_KINDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=8) | _JSON)
def test_validate_config_never_raises(doc):
    cfg, errors = validate_config(doc)
    assert isinstance(errors, list)
    assert all(isinstance(e, str) for e in errors)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.json")


def test_builtin_registry_complete():
    names = scenario_names()
    for expected in ("exponential", "chordal", "rotation", "becker",
                     "sector", "measurable-tau", "step-tau"):
        assert expected in names
    for n in names:
        cfg = builtin_scenario(n)
        assert cfg.name == n


def test_builtin_documents_validate():
    for n in scenario_names():
        cfg, errors = validate_config(builtin_document(n), name=n)
        assert not errors, f"{n}: {errors}"


def test_run_pipeline_check_writes_summary(tmp_path):
    cfg = builtin_scenario("exponential")
    code, summary = run_pipeline(cfg, "check", tmp_path)
    assert code == 0 and summary["pass"]
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["scenario"] == "exponential"
    assert data["command"] == "check"
    assert data["pass"] is True
    assert set(data) >= {"scenario", "command", "pass", "metrics", "warnings", "runtime_ms"}


def test_run_pipeline_check_fails_for_rotation():
    # Becker ratio is 1 for p = i: the check command must exit nonzero
    import tempfile
    cfg = builtin_scenario("rotation")
    with tempfile.TemporaryDirectory() as d:
        code, summary = run_pipeline(cfg, "check", d)
    assert code == 1
    assert summary["metrics"]["becker_max_ratio"] == pytest.approx(1.0)
    assert summary["metrics"]["degenerate_rotation_only"] is True


def test_run_pipeline_extend_skips_rotation(tmp_path):
    cfg = builtin_scenario("rotation")
    code, summary = run_pipeline(cfg, "extend", tmp_path)
    assert code == 0 and summary["pass"]
    assert summary["metrics"]["degenerate"] is True
    assert any("skipped" in w for w in summary["warnings"])


def test_becker_refuses_checkpoints_without_t0(tmp_path):
    # the radial extension starts at f_0: without a t = 0 row it is refused
    # like tau other than 0, with a warning instead of a fatal record
    cfg = builtin_scenario("becker")
    cfg.time.checkpoints = [0.32, 0.64]
    code, summary = run_pipeline(cfg, "becker", tmp_path)
    assert code == 1 and not summary["pass"]
    assert summary["warnings"] == ["the radial extension needs a checkpoint at t = 0"]


@pytest.mark.parametrize("name, command, checkpoints, warning", [
    ("exponential", "approx", [0.0], "the convergence study needs a checkpoint t > 0"),
    ("exponential", "extend", [0.0, 0.5],
     "the dilatation estimate needs at least 3 checkpoints"),
    ("becker", "becker", [0.0, 0.5], "the dilatation estimate needs at least 3 checkpoints"),
])
def test_too_few_checkpoints_are_refused(tmp_path, name, command, checkpoints, warning):
    cfg = builtin_scenario(name)
    cfg.time.checkpoints = checkpoints
    code, summary = run_pipeline(cfg, command, tmp_path)
    assert code == 1 and not summary["pass"]
    assert summary["warnings"] == [warning]


def test_run_pipeline_evolve_artifacts(tmp_path):
    cfg = builtin_scenario("exponential")
    code, summary = run_pipeline(cfg, "evolve", tmp_path)
    assert code == 0
    csv_path = tmp_path / "trajectories.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ("seed_index,re_z0,im_z0,t,re_phi,im_phi,"
                      "re_dphi,im_dphi,truncated_flag")


def test_run_pipeline_deterministic_artifacts(tmp_path):
    cfg = builtin_scenario("exponential")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, "range", d1)
    run_pipeline(builtin_scenario("exponential"), "range", d2)
    a = json.loads((d1 / "summary.json").read_text())
    b = json.loads((d2 / "summary.json").read_text())
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b
    assert (d1 / "beta_history.csv").read_bytes() == (d2 / "beta_history.csv").read_bytes()


def test_cli_main_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"criteria": {"k": 2.0}}))
    code = main(["check", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_cli_main_k_override(tmp_path):
    code = main(["check", "--scenario", "exponential", "--out", str(tmp_path),
                 "--k", "0.25"])
    assert code == 0


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_cli_main_bad_tol_override_is_a_config_error(tmp_path, capsys, tol):
    code = main(["evolve", "--scenario", "exponential", "--out", str(tmp_path),
                 "--tol", tol])
    assert code == 2
    assert "config error: time.tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1.5", "-0.1", "nan"])
@pytest.mark.parametrize("name", ["becker", "exponential"])
def test_cli_main_bad_k_override_is_a_config_error(tmp_path, capsys, name, k):
    # checked before the builtin is built: becker's document carries k itself
    code = main(["check", "--scenario", name, "--out", str(tmp_path), "--k", k])
    assert code == 2
    assert "config error: criteria.k must lie in [0,1)" in capsys.readouterr().err


def test_chain_verdict_holds_f0_to_the_scenario_tolerance(tmp_path, monkeypatch):
    real = cli.range_normalized_chain

    def shifted(*args, **kwargs):
        frames = real(*args, **kwargs)
        frames.origin_values[0] = 1e-3
        return frames

    monkeypatch.setattr(cli, "range_normalized_chain", shifted)
    code, summary = run_pipeline(builtin_scenario("exponential"), "chain", tmp_path)
    assert code == 1 and summary["pass"] is False
    assert any(w.startswith("f_0 normalization residuals |f_0(0)| = 0.001")
               for w in summary["warnings"]), summary["warnings"]


def test_cli_main_unknown_scenario(tmp_path):
    code = main(["check", "--scenario", "not-real", "--out", str(tmp_path)])
    assert code == 2


def test_range_classifications(tmp_path):
    code, s = run_pipeline(builtin_scenario("exponential"), "range", tmp_path / "e")
    assert s["metrics"]["classification"] == "plane"
    code, s = run_pipeline(builtin_scenario("rotation"), "range", tmp_path / "r")
    assert s["metrics"]["classification"] == "disk"
    assert s["metrics"]["radius"] == pytest.approx(1.0, abs=1e-6)


def test_specs_declare_their_autonomy_time():
    from loewnerqc import chains
    from loewnerqc.herglotz import HerglotzSpec, DenjoyWolffSpec, assemble_field

    want = {"becker": 0.0, "chordal": 0.0, "exponential": 0.0, "rotation": 0.0,
            "sector": 8.0, "step-tau": 1.0, "measurable-tau": 7.875}
    for name, t_aut in want.items():
        cfg = builtin_scenario(name)
        fld = assemble_field(cfg.p, cfg.tau)
        assert fld.t_aut == t_aut, name
        # boundary tau (chordal) and Re lambda = 0 (rotation) keep the limit
        assert (chains._autonomous_tail(fld) is None) == (name in ("chordal", "rotation"))
    cfg, errors = validate_config({
        "p": {"kind": "mobius_kernel",
              "driving": {"type": "table", "points": [[0.0, 1.0], [0.5, [0.0, 1.0]]]}},
        "tau": {"kind": "sampled", "table": [[0.0, 0.1], [2.0, 0.2], [3.0, 0.3]]}})
    assert not errors
    assert (cfg.p.t_aut, cfg.p.nodes) == (0.5, (0.0, 0.5))
    assert (cfg.tau.t_aut, cfg.tau.nodes) == (3.0, (0.0, 2.0, 3.0))
    fld = assemble_field(cfg.p, cfg.tau)
    assert fld.t_aut == 3.0 and fld.stops == (0.0, 0.5, 2.0, 3.0)
    assert fld.discontinuities == ()
    # a Python callable declares nothing, and the field inherits that
    opaque = HerglotzSpec.sampled(lambda z, t: 1.0 + 0 * z)
    assert opaque.t_aut is None
    assert assemble_field(opaque, DenjoyWolffSpec.constant(0)).t_aut is None
    assert assemble_field(cfg.p, DenjoyWolffSpec.sampled(lambda t: 0.1)).t_aut is None


# chordal's phi_{s,t} legs end near the boundary Denjoy-Wolff point, where
# |f_t'| amplifies any absolute error the leg was allowed
_TRANSITION_BOUND = {"chordal": 2e-9, "measurable-tau": 5e-9, "step-tau": 5e-9}


@pytest.mark.parametrize("name", sorted(_TRANSITION_BOUND))
def test_chain_transition_residual_is_tight(tmp_path, name):
    # the transition check composes independent integrations, so its
    # residual sits at the integrator's accuracy, far under tol_chain
    code, summary = run_pipeline(builtin_scenario(name), "chain", tmp_path)
    assert code == 0 and summary["pass"]
    assert summary["metrics"]["transition_residual"] <= _TRANSITION_BOUND[name]


def test_becker_builds_no_decreasing_chain(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the radial extension needs no g-chain")

    monkeypatch.setattr(cli, "decreasing_chain", refuse)
    code, summary = run_pipeline(builtin_scenario("becker"), "becker", tmp_path)
    assert code == 0 and summary["pass"], summary["warnings"]


_Q_UNUSED = "q is not used by the radial extension (extend reads it)"


def test_sector_becker_formula_reads_p_alone(tmp_path):
    # q = p here; the radial formula ignores q, and its sup over the
    # checkpoints is at t = 1, where p = 1.5 e^{i pi/6} on the ring
    code, summary = run_pipeline(builtin_scenario("sector"), "becker", tmp_path)
    assert code == 0 and summary["pass"]
    c = 1.5 * np.exp(1j * np.pi / 6)
    m = summary["metrics"]
    assert abs(m["max_mu_formula"] - abs(c - 1) / abs(c + 1)) <= 1e-9
    assert m["mu_agreement"] <= 1e-3
    assert _Q_UNUSED in summary["warnings"]


def test_becker_without_q_has_no_q_warning(tmp_path):
    code, summary = run_pipeline(builtin_scenario("exponential"), "becker", tmp_path)
    assert code == 0 and summary["pass"]
    assert _Q_UNUSED not in summary["warnings"]


def test_becker_extend_runs_the_welding_pipeline(tmp_path, monkeypatch):
    peaks = []
    real = artifacts.write_atlas_csv

    def measured(atlas, path):
        tracemalloc.start()
        try:
            return real(atlas, path)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(artifacts, "write_atlas_csv", measured)
    cfg = builtin_scenario("becker")
    code, summary = run_pipeline(cfg, "extend", tmp_path)
    assert code == 0 and summary["pass"], summary["warnings"]
    m, k = summary["metrics"], cfg.criteria.k
    # |mu| = k |zeta| on the trace ring |zeta| = 1 - delta_trace
    assert abs(m["max_mu_formula"] - k * (1 - cfg.grid.delta_trace)) <= 1e-6
    assert m["max_mu_fd"] <= k + cfg.criteria.tol_dilat
    lines = (tmp_path / "atlas.csv").read_text().splitlines()
    assert lines[0] == ("t,theta,re_src,im_src,re_dst,im_dst,"
                        "re_mu_f,im_mu_f,re_mu_fd,im_mu_fd,masked")
    assert len(lines) == 1 + 65 * 256
    # the 65 x 256 table is formatted one time row at a time
    assert len(peaks) == 1 and peaks[0] <= 1_000_000


def test_becker_check_reports_the_pair(tmp_path):
    cfg = builtin_scenario("becker")
    code, summary = run_pipeline(cfg, "check", tmp_path)
    assert code == 0 and summary["pass"]
    m = summary["metrics"]
    # |p - 1| / |p + 1| = k |z| with q = 1, at the criteria grid's |z| = 0.99
    assert m["pair_passed"] is True
    assert m["pair_max_ratio"] == pytest.approx(0.99 * cfg.criteria.k, abs=1e-9)


def test_a_raising_command_leaves_a_fatal_record(tmp_path, monkeypatch):
    def boom(cfg, out, summary):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "check", boom)
    code, summary = run_pipeline(builtin_scenario("exponential"), "check", tmp_path)
    assert code == 1 and summary["pass"] is False
    assert summary["warnings"] == ["fatal: RuntimeError: boom"]
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["warnings"] == ["fatal: RuntimeError: boom"] and data["pass"] is False


def test_user_sampled_p_passes_check(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "p": {"kind": "user_sampled", "table": [[0.0, 1.0], [0.5, [1.0, 0.2]], [1.0, 1.5]]},
        "tau": {"kind": "constant", "value": 0.0}}))
    cfg = parse_config(path)
    assert cfg.p.t_aut == 1.0
    code, summary = run_pipeline(cfg, "check", tmp_path / "out")
    assert code == 0 and summary["pass"], summary
    assert summary["metrics"]["herglotz_passed"] and summary["metrics"]["becker_passed"]
