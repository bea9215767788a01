"""Scenario configuration: JSON ingestion with aggregated validation.

Complex values are written as [re, im] pairs (bare reals are accepted).
Validation never fails fast; every problem is collected with its field
path so a config author sees the whole damage at once.  A key that
nothing reads is a problem too, or a misspelt key would keep its default.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .chains import (DEFAULT_DELTA_TRACE, DEFAULT_N_THETA, DEFAULT_T_INF, DEFAULT_TOL_LIMIT,
                     TOL_CHAIN)
from .evolution import DEFAULT_TOL
from .extension import TOL_DILAT
from .grids import DELTA_GUARD, SeedGrid, circle_grid, criteria_grid
from .herglotz import (HerglotzSpec, DenjoyWolffSpec, SpecError, phase_table, time_samples,
                       time_table)


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


def _unknown_keys(d: dict, known, prefix: str, errors) -> None:
    errors.extend(f"{prefix}{key} is not a recognised key" for key in d if key not in known)


def _kind_keys(d, tag: str, keys_of: dict, path: str, errors) -> None:
    """Record the keys of a p/q/tau node or a profile that its kind does not read."""
    kind = d.get(tag) if isinstance(d, dict) else None
    if isinstance(kind, str) and kind in keys_of:
        _unknown_keys(d, (tag,) + keys_of[kind], f"{path}.", errors)


def _section(doc, key, errors, cls) -> dict:
    d = doc.get(key, {})
    if not isinstance(d, dict):
        errors.append(f"{key} must be an object")
        return {}
    _unknown_keys(d, {f.name for f in fields(cls)}, f"{key}.", errors)
    return d


@dataclass
class TimeConfig:
    t_end: float = 1.0
    checkpoints: list = dc_field(default_factory=list)
    tol: float = DEFAULT_TOL

    def checkpoint_array(self, n_default: int = 9) -> np.ndarray:
        """Configured checkpoints, or a uniform default grid.

        Atlas-building commands ask for a dense default (65 rows): the
        finite-difference dilatation estimator reads the rows' own times
        and is second order on any spacing, but its error still grows with
        the square of the widest spacing, so coarse time rows poison it.
        """
        if self.checkpoints:
            return np.asarray(self.checkpoints, dtype=float)
        return np.linspace(0.0, self.t_end, n_default)


@dataclass
class GridConfig:
    circles: list = dc_field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    angles: int = 8
    delta_trace: float = DEFAULT_DELTA_TRACE
    theta_nodes: int = DEFAULT_N_THETA

    def seed_grid(self) -> SeedGrid:
        return circle_grid(tuple(self.circles), self.angles)


@dataclass
class CriteriaConfig:
    k: float = 0.5
    tol_chain: float = TOL_CHAIN
    tol_limit: float = DEFAULT_TOL_LIMIT
    tol_dilat: float = TOL_DILAT
    t_inf: float = DEFAULT_T_INF


@dataclass
class OutputConfig:
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
    approx_levels: list = dc_field(default_factory=lambda: [4, 8, 16, 32])

    def q_or_default(self) -> HerglotzSpec:
        return self.q if self.q is not None else HerglotzSpec.constant(1.0)

    def hypothesis_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, times) on which every command checks the hypotheses on p and q."""
        return (criteria_grid(n_angles=max(64, self.grid.theta_nodes)),
                np.linspace(0.0, self.time.t_end, 9))


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


# the kinds of p/q and of tau and the types of a profile, with the keys each reads besides its tag
_HERGLOTZ_KEYS = {"constant": ("value",), "mobius_kernel": ("driving",),
                  "sector": ("opening", "profile"), "rational_table": ("numerator", "denominator"),
                  "user_sampled": ("table",)}
_TAU_KEYS = {"constant": ("value",), "step": ("breakpoints", "values"), "sampled": ("table",)}
_PROFILE_KEYS = {"constant": ("value",), "table": ("points",)}


def _build_time_profile(d, path, errors):
    """(callable t -> complex, t_aut, nodes) from a config node (constant or table).

    A constant profile is autonomous from 0; a table from its last node.
    """
    _kind_keys(d, "type", _PROFILE_KEYS, path, errors)
    if isinstance(d, dict) and d.get("type") == "constant":
        c = _as_complex(d.get("value", 1.0), f"{path}.value", errors)
        return (lambda t: c), 0.0, ()
    if isinstance(d, dict) and d.get("type") == "table":
        made = _time_table(d.get("points", []), f"{path}.points", errors, time_table)
        if made is not None:
            return made
    else:
        errors.append(f"{path} must be a constant or table profile")
    return (lambda t: 1.0 + 0j), 0.0, ()


def _probed(spec: HerglotzSpec) -> HerglotzSpec:
    """spec after one evaluation at its profile's nodes (t = 0 for a constant profile).

    A bad profile value raises SpecError here, not at the first use.  The nodes
    suffice: table drivings run along the circle, and the sector is convex.
    """
    spec.evaluate(*time_samples([0.0], spec.nodes or [0.0]))
    return spec


def build_herglotz(d, path, errors) -> HerglotzSpec:
    fallback = HerglotzSpec.constant(1.0)
    if not isinstance(d, dict) or "kind" not in d:
        errors.append(f"{path}.kind is required")
        return fallback
    _kind_keys(d, "kind", _HERGLOTZ_KEYS, path, errors)
    kind = d["kind"]
    try:
        if kind == "constant":
            return HerglotzSpec.constant(_as_complex(d.get("value", 1.0), f"{path}.value", errors))
        if kind == "mobius_kernel":
            driving, t_aut, nodes = _build_time_profile(
                d.get("driving", {"type": "constant", "value": 1.0}), f"{path}.driving", errors)
            if nodes:   # a table: rejoin its node values along the circle
                driving, t_aut, nodes = phase_table(nodes, driving(np.asarray(nodes)))
            return _probed(HerglotzSpec.mobius_kernel(driving, t_aut, nodes))
        if kind == "sector":
            opening = float(d.get("opening", 0.5))
            profile = _build_time_profile(d.get("profile", {"type": "constant", "value": 1.0}),
                                          f"{path}.profile", errors)
            return _probed(HerglotzSpec.sector(opening, *profile))
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
    errors.append(f"{path}.kind '{kind}' is unknown ({' | '.join(_HERGLOTZ_KEYS)})")
    return fallback


def build_tau(d, path, errors) -> DenjoyWolffSpec:
    fallback = DenjoyWolffSpec.constant(0.0)
    if not isinstance(d, dict) or "kind" not in d:
        errors.append(f"{path}.kind is required")
        return fallback
    _kind_keys(d, "kind", _TAU_KEYS, path, errors)
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
    errors.append(f"{path}.kind '{kind}' is unknown ({' | '.join(_TAU_KEYS)})")
    return fallback


def validate_config(doc: dict, name: str = "scenario") -> tuple[ScenarioConfig, list[str]]:
    """Build a ScenarioConfig from a parsed JSON document, collecting all errors."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ScenarioConfig("invalid", HerglotzSpec.constant(1),
                              DenjoyWolffSpec.constant(0)), ["top level must be an object"]

    # the top level holds ScenarioConfig's fields, its name under "scenario"
    known = {f.name for f in fields(ScenarioConfig)} - {"name"} | {"scenario"}
    _unknown_keys(doc, known, "", errors)
    p = build_herglotz(doc.get("p", {"kind": "constant", "value": 1.0}), "p", errors)
    tau = build_tau(doc.get("tau", {"kind": "constant", "value": 0.0}), "tau", errors)
    q = build_herglotz(doc["q"], "q", errors) if "q" in doc else None

    tc = TimeConfig()
    td = _section(doc, "time", errors, TimeConfig)
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
    gd = _section(doc, "grid", errors, GridConfig)
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
    cd = _section(doc, "criteria", errors, CriteriaConfig)
    cc.k = _real(cd.get("k", cc.k), "criteria.k", errors, cc.k)
    if not 0.0 <= cc.k < 1.0:
        errors.append("criteria.k must lie in [0,1)")
    for name_ in ("tol_chain", "tol_limit", "tol_dilat"):
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
    od = _section(doc, "outputs", errors, OutputConfig)
    oc.json_summary = js = od.get("json_summary", oc.json_summary)
    # the summary is written inside the output directory, never below or above
    # it, and never over an artifact: every artifact is a .csv or an .svg
    if not isinstance(js, str) or not js.endswith(".json") or any(c in js for c in "/\\\0"):
        errors.append("outputs.json_summary must be a plain file name ending in .json")

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
    return cfg, errors


def parse_config(path) -> ScenarioConfig:
    """Load and validate a JSON scenario file; raises ConfigError with all problems."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file {path} does not exist"])
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError([f"cannot read config file {path}: {e.strerror or e}"]) from e
    except UnicodeDecodeError as e:
        raise ConfigError([f"config file {path} is not UTF-8 text: {e.reason}"]) from e
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    except RecursionError as e:
        raise ConfigError([f"config file {path} nests too deeply to parse"]) from e
    cfg, errors = validate_config(doc, name=path.stem)
    if errors:
        raise ConfigError(errors)
    return cfg
