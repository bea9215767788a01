import inspect
import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewnerqc.config import (parse_config, validate_config, ConfigError, CriteriaConfig,
                              GridConfig, OutputConfig, ScenarioConfig, TimeConfig)
from loewnerqc.herglotz import HerglotzSpec
from loewnerqc.scenarios import builtin_scenario, scenario_names, builtin_document
from loewnerqc import artifacts, chains, cli, evolution
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
    ({"outputs": {"json_summary": "atlas.csv"}}, "outputs.json_summary"),
    ({"outputs": {"json_summary": "beta_history.csv"}}, "outputs.json_summary"),
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


def test_cli_main_unreadable_config_is_a_config_error(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: cannot read config file {tmp_path}" in capsys.readouterr().err


def test_cli_main_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code = main(["check", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: config file {bad} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"])
def test_cli_main_out_that_cannot_be_a_directory_is_an_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / below if below else taken
    code = main(["check", "--scenario", "exponential", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1


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


def test_misspelt_keys_are_errors():
    # each would otherwise leave its default in force: p = 1, tau = 0, tol_dilat = 0.02
    _, errors = validate_config({"p": {"kind": "constant", "valu": 3},
                                 "tau": {"kind": "constant", "vlaue": [0.9, 0]},
                                 "criteria": {"tol_dilatt": 0.5}})
    assert errors == ["p.valu is not a recognised key", "tau.vlaue is not a recognised key",
                      "criteria.tol_dilatt is not a recognised key"]


@pytest.mark.parametrize("doc, path", [
    ({"scenaro": "x"}, "scenaro"),
    ({"time": {"tend": 2.0}}, "time.tend"),
    ({"grid": {"theta_node": 64}}, "grid.theta_node"),
    ({"outputs": {"csvs": False}}, "outputs.csvs"),
    ({"q": {"kind": "rational_table", "numerator": [1.0], "denominater": [1.0]}},
     "q.denominater"),
    ({"p": {"kind": "sector", "profile": {"type": "constant", "values": 2.0}}},
     "p.profile.values"),
    ({"tau": {"kind": "step", "breakpoints": [1.0], "values": [0.1, 0.2], "value": 0.3}},
     "tau.value"),
    # settings that are fixed: the criteria and Herglotz margins, the deviation
    # trial's seed, the approximants' horizon and whether artifacts are written
    ({"criteria": {"tol_criterion": 1e-6}}, "criteria.tol_criterion"),
    ({"criteria": {"tol_herglotz": 1e-6}}, "criteria.tol_herglotz"),
    ({"criteria": {"tol_holo": 1e-6}}, "criteria.tol_holo"),
    ({"criteria": {"tol_beta": 1e-6}}, "criteria.tol_beta"),
    ({"rng_seed": 20240601}, "rng_seed"),
    ({"approx_horizon": 4.0}, "approx_horizon"),
    ({"outputs": {"svg": True}}, "outputs.svg"),
    ({"outputs": {"csv": True}}, "outputs.csv"),
])
def test_unknown_keys_are_reported_with_their_path(doc, path):
    _, errors = validate_config(doc)
    assert errors == [f"{path} is not a recognised key"]


def test_every_setting_is_named_in_the_readme():
    # a key the config accepts is named in a code span, alone or under its
    # section, or as a key of the README's example scenario file
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sections = {"": ScenarioConfig, "time": TimeConfig, "grid": GridConfig,
                "criteria": CriteriaConfig, "outputs": OutputConfig}
    unnamed = []
    for section, cls in sections.items():
        keys = {f.name for f in fields(cls)}
        if not section:     # the top level holds the name under "scenario"
            keys = keys - {"name"} | {"scenario"}
        for key in sorted(keys):
            path = f"{section}.{key}" if section else key
            if not any(s in readme for s in (f"`{key}`", f"`{path}`", f'"{key}":')):
                unnamed.append(path)
    assert not unnamed, "settings the README does not name: " + ", ".join(unnamed)


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
    ("exponential", "chain", [0.5], "the transition identity needs at least 2 checkpoints"),
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
        # Re lambda = 0 (rotation) keeps the limit; chordal's boundary tau
        # fills the plane, so its tail takes the Abel form
        tail = chains._autonomous_tail(fld)
        assert (tail is None) == (name == "rotation")
        assert (tail is not None and tail.drift == 1) == (name == "chordal")
    cfg, errors = validate_config({
        "p": {"kind": "mobius_kernel",
              "driving": {"type": "table", "points": [[0.0, 1.0], [0.5, [0.0, 1.0]]]}},
        "tau": {"kind": "sampled", "table": [[0.0, 0.1], [2.0, 0.2], [3.0, 0.3]]}})
    assert not errors
    assert (cfg.p.t_aut, cfg.p.nodes) == (0.5, (0.0, 0.5))
    assert (cfg.tau.t_aut, cfg.tau.nodes) == (3.0, (0.0, 2.0, 3.0))
    fld = assemble_field(cfg.p, cfg.tau)
    assert fld.t_aut == 3.0 and fld.stops == (0.0, 0.5, 2.0, 3.0)
    assert fld.tau.breakpoints == ()
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



def test_measurable_tau_chain_solves_once_per_evaluation(tmp_path, monkeypatch):
    # one solve builds the chain (T_aut past the rows, so every row and the
    # origin seed ride one staggered batch to T_aut); each of the 9 transition
    # pairs takes its s -> t leg, and one push carries every pair's images
    # and the origin seed to T_aut
    real = evolution.solve_forward
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    for mod in (evolution, chains, cli):
        monkeypatch.setattr(mod, "solve_forward", spy)
    code, summary = run_pipeline(builtin_scenario("measurable-tau"), "chain", tmp_path)
    assert code == 0 and summary["pass"]
    assert len(calls) == 1 + 9 + 1


@pytest.mark.parametrize("name", ["chordal", "measurable-tau", "rotation"])
def test_chain_evaluates_once_for_the_frames_and_once_for_the_check(tmp_path, monkeypatch, name):
    # the Abel tail, the exact tail past the rows and the scaling limit: the
    # frames are one limit_frame call, and so are all the transition pairs
    real = chains.limit_frame
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "limit_frame", spy)
    code, summary = run_pipeline(builtin_scenario(name), "chain", tmp_path)
    assert code == 0 and summary["pass"]
    assert len(calls) == 2


def test_chain_checks_evaluate_at_the_configured_limit_tolerance(tmp_path, monkeypatch):
    # the frames and the transition check's fresh evaluations both read
    # criteria.tol_limit; neither falls back to the default
    doc = builtin_document("becker")
    doc["criteria"]["tol_limit"] = 1e-4
    cfg, errors = validate_config(doc)
    assert not errors
    real = chains.limit_frame
    seen = []

    def spy(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["tol_limit"])
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "limit_frame", spy)
    run_pipeline(cfg, "chain", tmp_path)
    assert len(seen) > 1 and set(seen) == {1e-4}


def test_both_extensions_reach_one_dilatation_verdict(tmp_path, monkeypatch):
    doc = builtin_document("becker")
    doc["time"]["checkpoints"] = [0.08 * i for i in range(9)]
    doc["grid"] = {"theta_nodes": 32}
    cfg, errors = validate_config(doc)
    assert not errors
    real = cli.dilatation_report
    seen = []

    def spy(ext, *args):
        seen.append(type(ext).__name__)
        return real(ext, *args)

    monkeypatch.setattr(cli, "dilatation_report", spy)
    for command in ("becker", "extend"):
        run_pipeline(cfg, command, tmp_path / command)
    assert seen == ["BeckerExtension", "ExtensionAtlas"]


def test_extend_reports_the_g_chains_warnings(tmp_path, monkeypatch):
    def flagged(*args, **kwargs):
        frames = chains.decreasing_chain(*args, **kwargs)
        frames.warnings.append("3 trace node(s) masked at t = 0.5")
        return frames

    monkeypatch.setattr(cli, "decreasing_chain", flagged)
    code, summary = run_pipeline(builtin_scenario("exponential"), "extend", tmp_path)
    assert code == 0
    assert summary["warnings"][-1] == "3 trace node(s) masked at t = 0.5"


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


def test_chain_reports_f0_only_from_a_row_at_t0(tmp_path):
    # without a t = 0 checkpoint the first row is some f_s, not f_0
    cfg = builtin_scenario("exponential")
    cfg.time.checkpoints = [0.5, 1.0]
    code, summary = run_pipeline(cfg, "chain", tmp_path)
    assert code == 0 and summary["pass"]
    assert "f0_origin" not in summary["metrics"]
    assert "f0_derivative_gap" not in summary["metrics"]


@pytest.mark.parametrize("command", ["evolve", "chain", "approx"])
def test_building_commands_fail_on_a_non_herglotz_p(tmp_path, command):
    # Re p < 0 from t = 2/3 on; check has always failed it, and so does
    # every command that builds from it, after running to the end
    cfg, errors = validate_config({
        "p": {"kind": "user_sampled", "table": [[0, 1.0], [1, -0.5]]},
        "tau": {"kind": "constant", "value": 0.0}, "time": {"t_end": 1.0}})
    assert not errors
    code, summary = run_pipeline(cfg, command, tmp_path)
    assert code == 1 and not summary["pass"]
    assert summary["warnings"].count(
        "p fails the Herglotz check (Re p >= 0 on the check samples)") == 1
    assert summary["metrics"]
    assert not any(w.startswith("fatal") for w in summary["warnings"])


@pytest.mark.parametrize("command", ["evolve", "chain", "range", "extend", "becker", "approx"])
def test_building_commands_leak_no_numpy_warnings(tmp_path, command):
    # scaling-limit frames whose normalizer is lost hold NaN without a warning
    cfg, errors = validate_config({
        "p": {"kind": "user_sampled", "table": [[0, 1.0], [1, -0.5]]},
        "tau": {"kind": "constant", "value": 0.0}, "time": {"t_end": 1.0}})
    assert not errors
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, summary = run_pipeline(cfg, command, tmp_path)
    assert not any(w.startswith("fatal") for w in summary["warnings"]), summary["warnings"]


def test_a_non_herglotz_q_fails_the_building_commands(tmp_path):
    cfg, errors = validate_config({"q": {"kind": "constant", "value": 1.0}})
    assert not errors
    cfg.q = HerglotzSpec.sampled(lambda z, t: -1.0 + 0 * z)
    code, summary = run_pipeline(cfg, "evolve", tmp_path)
    assert code == 1
    assert summary["warnings"] == ["q fails the Herglotz check (Re q >= 0 on the check samples)"]


@pytest.mark.parametrize("node", [
    {"kind": "mobius_kernel", "driving": {"type": "constant", "value": 0.5}},
    {"kind": "mobius_kernel", "driving": {"type": "table", "points": [[0, 1], [1, [0, 0.5]]]}},
    {"kind": "sector", "opening": 0.2, "profile": {"type": "constant", "value": [1, 5]}},
    {"kind": "sector", "opening": 0.2,
     "profile": {"type": "table", "points": [[0, 1], [1, [1, 5]]]}},
])
@pytest.mark.parametrize("key", ["p", "q"])
def test_bad_profiles_are_config_errors(tmp_path, capsys, node, key):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({key: node}))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_table_driving_runs_along_the_circle(tmp_path):
    # 1 -> i and 1 -> -i are each a quarter turn: the shorter arc, at unit speed in phase
    for end, turn in (([0, 1], 1), ([0, -1], -1)):
        cfg, errors = validate_config({
            "p": {"kind": "mobius_kernel",
                  "driving": {"type": "table", "points": [[0, 1], [1, end], [2, end]]}},
            "time": {"t_end": 2.0}})
        assert not errors
        z = np.array([0.3 - 0.2j, 0.5j])
        for t in (0.0, 0.25, 0.5, 1.0, 1.7):
            kap = np.exp(0.5j * math.pi * turn * min(t, 1.0))
            np.testing.assert_allclose(cfg.p.evaluate(z, t), (kap + z) / (kap - z),
                                       rtol=1e-14)
    code, summary = run_pipeline(cfg, "evolve", tmp_path)
    assert code == 0 and summary["pass"], summary


@pytest.mark.parametrize("prefix", ["", '{"p": '])
def test_deeply_nested_json_is_a_config_error(tmp_path, capsys, prefix):
    bad = tmp_path / "deep.json"
    bad.write_text(prefix + "[" * 100_000 + "]" * 100_000 + ("}" if prefix else ""))
    assert main(["check", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config file {bad} nests too deeply to parse\n"


def _blaschke_becker_doc(zeros, rotation, k, tau, t_end):
    """p = (1 + kB)/(1 - kB) for the Blaschke product B of the zeros, as a rational_table."""
    P = np.polynomial.polynomial
    num, den = np.array([rotation + 0j]), np.array([1.0 + 0j])
    for a in zeros:
        num, den = P.polymul(num, [-a, 1.0]), P.polymul(den, [1.0, -np.conj(a)])
    pairs = [[[c.real, c.imag] for c in P.polyadd(den, s * k * num)] for s in (1, -1)]
    return {"p": {"kind": "rational_table", "numerator": pairs[0], "denominator": pairs[1]},
            "tau": {"kind": "constant", "value": [tau.real, tau.imag]},
            "time": {"t_end": t_end}, "criteria": {"k": k}}


def _validated(doc):
    cfg, errors = validate_config(doc)
    assert not errors
    return cfg


def test_check_and_extend_read_one_pair_sample_set(tmp_path):
    # |B| peaks at angle 2 pi 130/256, on the 256-angle criteria grid and
    # off the 64-angle one, so a coarser pair grid would read a smaller ratio
    a = 0.7 * np.exp(2j * np.pi * (130 / 256 - 0.5))
    doc = _blaschke_becker_doc([a], 1.0, 0.5, 0j, 0.64)
    doc["q"] = {"kind": "constant", "value": 1.0}
    ratios = {}
    for command in ("check", "extend"):
        code, summary = run_pipeline(_validated(doc), command, tmp_path / command)
        assert code == 0 and summary["pass"], summary["warnings"]
        ratios[command] = summary["metrics"]["pair_max_ratio"]
    assert ratios["check"] == ratios["extend"]


def test_a_degree_two_blaschke_product_passes_check_chain_and_extend(tmp_path):
    doc = _blaschke_becker_doc([0.5 + 0.2j, -0.3 + 0.6j], np.exp(0.7j), 0.5, 0.3 - 0.2j, 1.0)
    cfg = _validated(doc)
    for command in ("check", "chain", "extend"):
        code, summary = run_pipeline(cfg, command, tmp_path / command)
        assert code == 0 and summary["pass"], (command, summary["warnings"])
    assert summary["metrics"]["max_mu_fd"] <= 0.5 + cfg.criteria.tol_dilat


def test_a_rejected_atlas_fails_extend_and_still_writes_its_summary(tmp_path, monkeypatch):
    real = cli.build_extension

    def collapsed(ff, gf):      # every source point on one spot
        gf.traces[:] = 0.5 + 0.2j
        return real(ff, gf)

    monkeypatch.setattr(cli, "build_extension", collapsed)
    code, summary = run_pipeline(builtin_scenario("exponential"), "extend", tmp_path)
    assert code == 1 and summary["pass"] is False
    assert summary["metrics"]["atlas_rejected"] is True
    assert any("source points collide" in w for w in summary["warnings"])
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["metrics"]["atlas_rejected"] is True and data["warnings"] == summary["warnings"]
