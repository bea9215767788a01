"""Scenario configuration: JSON ingestion with aggregated validation.

Complex values are written as [re, im] pairs (bare reals are accepted).
Validation never fails fast; every problem is collected with its field
path so a config author sees the whole damage at once.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .chains import DEFAULT_T_INF, DEFAULT_TOL_LIMIT, TOL_BETA, TOL_CHAIN
from .extension import TOL_DILAT
from .grids import DELTA_GUARD, SeedGrid, circle_grid
from .herglotz import (HerglotzSpec, DenjoyWolffSpec, SpecError, TOL_CRITERION, TOL_HERGLOTZ,
                       TOL_HOLO, _interp_table, _table_time)


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def _as_complex(v, path, errors):
    try:
        if isinstance(v, (int, float)):
            c = complex(v)
        elif isinstance(v, (list, tuple)) and len(v) == 2 and \
                all(isinstance(x, (int, float)) for x in v):
            c = complex(v[0], v[1])
        else:
            c = None
    except OverflowError:
        c = None
    if c is None or not cmath.isfinite(c):
        errors.append(f"{path} must be a finite number or an [re, im] pair")
        return 0j
    return c


def _real(v, path, errors, default: float) -> float:
    """float(v) for a finite number; otherwise default, with the error recorded."""
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        errors.append(f"{path} must be a finite number")
        return default
    return x


def _integer(v, path, errors, default: int) -> int:
    x = _real(v, path, errors, math.nan)
    if math.isnan(x):
        return default
    if x != int(x):
        errors.append(f"{path} must be an integer")
        return default
    return int(x)


def _real_list(v, path, errors, default) -> list:
    try:
        out = [float(x) for x in v] if isinstance(v, list) else None
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not all(math.isfinite(x) for x in out):
        errors.append(f"{path} must be a list of finite numbers")
        return list(default)
    return out


def _section(doc, key, errors) -> dict:
    d = doc.get(key, {})
    if not isinstance(d, dict):
        errors.append(f"{key} must be an object")
        return {}
    return d


@dataclass
class TimeConfig:
    t_end: float = 1.0
    checkpoints: list = dc_field(default_factory=list)
    tol: float = 1e-9

    def checkpoint_array(self, n_default: int = 9) -> np.ndarray:
        """Configured checkpoints, or a uniform default grid.

        Atlas-building commands ask for a dense default (65 cells): the
        finite-difference dilatation estimator is first-order in the
        stencil diameter, so coarse time rows poison it.
        """
        if self.checkpoints:
            return np.asarray(self.checkpoints, dtype=float)
        return np.linspace(0.0, self.t_end, n_default)


@dataclass
class GridConfig:
    circles: list = dc_field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    angles: int = 8
    delta_trace: float = 1e-3
    theta_nodes: int = 256

    def seed_grid(self) -> SeedGrid:
        return circle_grid(tuple(self.circles), self.angles)


@dataclass
class CriteriaConfig:
    k: float = 0.5
    tol_criterion: float = TOL_CRITERION
    tol_herglotz: float = TOL_HERGLOTZ
    tol_holo: float = TOL_HOLO
    tol_chain: float = TOL_CHAIN
    tol_beta: float = TOL_BETA
    tol_limit: float = DEFAULT_TOL_LIMIT
    tol_dilat: float = TOL_DILAT
    t_inf: float = DEFAULT_T_INF


@dataclass
class OutputConfig:
    svg: bool = True
    csv: bool = True
    json_summary: str = "summary.json"


@dataclass
class ScenarioConfig:
    name: str
    p: HerglotzSpec
    tau: DenjoyWolffSpec
    q: HerglotzSpec | None = None
    time: TimeConfig = dc_field(default_factory=TimeConfig)
    grid: GridConfig = dc_field(default_factory=GridConfig)
    criteria: CriteriaConfig = dc_field(default_factory=CriteriaConfig)
    outputs: OutputConfig = dc_field(default_factory=OutputConfig)
    rng_seed: int = 20240601
    approx_levels: list = dc_field(default_factory=lambda: [4, 8, 16, 32])
    approx_horizon: float = 4.0

    def q_or_default(self) -> HerglotzSpec:
        return self.q if self.q is not None else HerglotzSpec.constant(1.0)


def _time_table(rows, path, errors, build):
    """build(ts, values) from [[t, value], ...] rows, or None after recording why not."""
    try:
        ts = [float(r[0]) for r in rows]
        vs = [_as_complex(r[1], path, errors) for r in rows]
    except (TypeError, IndexError, KeyError, ValueError, OverflowError):
        errors.append(f"{path} must be [[t, value], ...] rows")
        return None
    try:
        return build(ts, vs)
    except SpecError as e:
        errors.append(f"{path}: {e}")
        return None


def _build_time_profile(d, path, errors):
    """(callable t -> complex, t_aut, nodes) from a config node (constant or table).

    A constant profile is autonomous from 0; a table from its last node.
    """
    if isinstance(d, dict) and d.get("type") == "constant":
        c = _as_complex(d.get("value", 1.0), f"{path}.value", errors)
        return (lambda t: c), 0.0, ()
    if isinstance(d, dict) and d.get("type") == "table":
        made = _time_table(d.get("points", []), f"{path}.points", errors,
                           lambda ts, vs: (_interp_table(ts, vs),) + _table_time(ts))
        if made is not None:
            return made
    else:
        errors.append(f"{path} must be a constant or table profile")
    return (lambda t: 1.0 + 0j), 0.0, ()


def build_herglotz(d, path, errors) -> HerglotzSpec:
    fallback = HerglotzSpec.constant(1.0)
    if not isinstance(d, dict) or "kind" not in d:
        errors.append(f"{path}.kind is required")
        return fallback
    kind = d["kind"]
    try:
        if kind == "constant":
            return HerglotzSpec.constant(_as_complex(d.get("value", 1.0), f"{path}.value", errors))
        if kind == "mobius_kernel":
            driving = _build_time_profile(d.get("driving", {"type": "constant", "value": 1.0}),
                                          f"{path}.driving", errors)
            return HerglotzSpec.mobius_kernel(*driving)
        if kind == "sector":
            opening = float(d.get("opening", 0.5))
            profile = _build_time_profile(d.get("profile", {"type": "constant", "value": 1.0}),
                                          f"{path}.profile", errors)
            return HerglotzSpec.sector(opening, *profile)
        if kind == "rational_table":
            num = [_as_complex(c, f"{path}.numerator", errors) for c in d.get("numerator", [1.0])]
            den = [_as_complex(c, f"{path}.denominator", errors) for c in d.get("denominator", [1.0])]
            return HerglotzSpec.rational(num, den)
        if kind == "user_sampled":
            table = d.get("table")
            if not table:
                errors.append(f"{path}.table of [t, value] rows is required for user_sampled")
                return fallback
            spec = _time_table(table, f"{path}.table", errors, HerglotzSpec.from_time_table)
            return spec if spec is not None else fallback
    except (SpecError, ValueError, TypeError, OverflowError) as e:
        errors.append(f"{path}: {e}")
        return fallback
    errors.append(f"{path}.kind '{kind}' is unknown "
                  "(constant | mobius_kernel | sector | rational_table | user_sampled)")
    return fallback


def build_tau(d, path, errors) -> DenjoyWolffSpec:
    fallback = DenjoyWolffSpec.constant(0.0)
    if not isinstance(d, dict) or "kind" not in d:
        errors.append(f"{path}.kind is required")
        return fallback
    kind = d["kind"]
    try:
        if kind == "constant":
            return DenjoyWolffSpec.constant(_as_complex(d.get("value", 0.0), f"{path}.value", errors))
        if kind == "step":
            n_errors = len(errors)
            bps = _real_list(d.get("breakpoints", []), f"{path}.breakpoints", errors, [])
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                errors.append(f"{path}.breakpoints must be strictly increasing")
            if len(errors) > n_errors:
                return fallback
            vals = [_as_complex(v, f"{path}.values", errors) for v in d.get("values", [])]
            return DenjoyWolffSpec.step(bps, vals)
        if kind == "sampled":
            table = d.get("table")
            if not table:
                errors.append(f"{path}.table of [t, value] rows is required for sampled")
                return fallback
            spec = _time_table(table, f"{path}.table", errors,
                               DenjoyWolffSpec.from_time_table)
            return spec if spec is not None else fallback
    except (SpecError, ValueError, TypeError, OverflowError) as e:
        errors.append(f"{path}: {e}")
        return fallback
    errors.append(f"{path}.kind '{kind}' is unknown (constant | step | sampled)")
    return fallback


def validate_config(doc: dict, name: str = "scenario") -> tuple[ScenarioConfig, list[str]]:
    """Build a ScenarioConfig from a parsed JSON document, collecting all errors."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ScenarioConfig("invalid", HerglotzSpec.constant(1),
                              DenjoyWolffSpec.constant(0)), ["top level must be an object"]

    p = build_herglotz(doc.get("p", {"kind": "constant", "value": 1.0}), "p", errors)
    tau = build_tau(doc.get("tau", {"kind": "constant", "value": 0.0}), "tau", errors)
    q = build_herglotz(doc["q"], "q", errors) if "q" in doc else None

    tc = TimeConfig()
    td = _section(doc, "time", errors)
    tc.t_end = _real(td.get("t_end", tc.t_end), "time.t_end", errors, tc.t_end)
    tc.tol = _real(td.get("tol", tc.tol), "time.tol", errors, tc.tol)
    tc.checkpoints = _real_list(td.get("checkpoints", []), "time.checkpoints", errors, [])
    if tc.t_end <= 0:
        errors.append("time.t_end must be positive")
    if tc.tol <= 0:
        errors.append("time.tol must be positive")
    cps = tc.checkpoints
    if any(b <= a for a, b in zip(cps, cps[1:])):
        errors.append("time.checkpoints must be ascending")
    if any(not 0.0 <= c <= tc.t_end for c in cps):
        errors.append("time.checkpoints must lie in [0, t_end]")

    gc = GridConfig()
    gd = _section(doc, "grid", errors)
    gc.circles = _real_list(gd.get("circles", gc.circles), "grid.circles", errors, gc.circles)
    gc.angles = _integer(gd.get("angles", gc.angles), "grid.angles", errors, gc.angles)
    gc.delta_trace = _real(gd.get("delta_trace", gc.delta_trace), "grid.delta_trace",
                           errors, gc.delta_trace)
    gc.theta_nodes = _integer(gd.get("theta_nodes", gc.theta_nodes), "grid.theta_nodes",
                              errors, gc.theta_nodes)
    if not gc.circles:
        errors.append("grid.circles must not be empty")
    # seeds and the trace ring must stay inside the integrator's boundary guard
    if any(not 0 < r < 1 - DELTA_GUARD for r in gc.circles):
        errors.append(f"grid.circles must lie in (0, 1 - {DELTA_GUARD:g})")
    if gc.angles < 4:
        errors.append("grid.angles must be >= 4")
    if not DELTA_GUARD < gc.delta_trace < 0.1:
        errors.append(f"grid.delta_trace must lie in ({DELTA_GUARD:g}, 0.1)")
    if gc.theta_nodes < 8:
        errors.append("grid.theta_nodes must be >= 8")

    cc = CriteriaConfig()
    cd = _section(doc, "criteria", errors)
    cc.k = _real(cd.get("k", cc.k), "criteria.k", errors, cc.k)
    if not 0.0 <= cc.k < 1.0:
        errors.append("criteria.k must lie in [0,1)")
    for name_ in ("tol_criterion", "tol_herglotz", "tol_holo", "tol_chain",
                  "tol_beta", "tol_limit", "tol_dilat"):
        default = getattr(cc, name_)
        v = _real(cd.get(name_, default), f"criteria.{name_}", errors, default)
        if v <= 0:
            errors.append(f"criteria.{name_} must be a positive number")
        setattr(cc, name_, v)
    cc.t_inf = _real(cd.get("t_inf", cc.t_inf), "criteria.t_inf", errors, cc.t_inf)
    # beta_limit extrapolates over at least two doubling horizons
    if cc.t_inf < 2:
        errors.append("criteria.t_inf must be >= 2")

    oc = OutputConfig()
    od = _section(doc, "outputs", errors)
    for key in ("svg", "csv"):
        setattr(oc, key, od.get(key, getattr(oc, key)))
        if not isinstance(getattr(oc, key), bool):
            errors.append(f"outputs.{key} must be true or false")
    oc.json_summary = js = od.get("json_summary", oc.json_summary)
    # the summary is written inside the output directory, never below or above it
    if not isinstance(js, str) or js in ("", ".", "..") or any(c in js for c in "/\\\0"):
        errors.append("outputs.json_summary must be a plain file name")

    cfg = ScenarioConfig(name=str(doc.get("scenario", name)), p=p, tau=tau, q=q,
                         time=tc, grid=gc, criteria=cc, outputs=oc)
    levels = _real_list(doc.get("approx_levels", cfg.approx_levels), "approx_levels",
                        errors, cfg.approx_levels)
    if not levels or any(n < 1 or n != int(n) for n in levels):
        errors.append("approx_levels must be positive integers")
        levels = cfg.approx_levels
    elif any(b <= a for a, b in zip(levels, levels[1:])):
        errors.append("approx_levels must be strictly increasing")
    cfg.approx_levels = [int(n) for n in levels]
    cfg.approx_horizon = _real(doc.get("approx_horizon", cfg.approx_horizon),
                               "approx_horizon", errors, cfg.approx_horizon)
    if cfg.approx_horizon <= 0:
        errors.append("approx_horizon must be positive")
    cfg.rng_seed = _integer(doc.get("rng_seed", cfg.rng_seed), "rng_seed", errors, cfg.rng_seed)
    return cfg, errors


def parse_config(path) -> ScenarioConfig:
    """Load and validate a JSON scenario file; raises ConfigError with all problems."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file {path} does not exist"])
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    cfg, errors = validate_config(doc, name=path.stem)
    if errors:
        raise ConfigError(errors)
    return cfg
