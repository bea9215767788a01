"""Scenario configuration: JSON ingestion with aggregated validation.

Complex values are written as [re, im] pairs (bare reals are accepted).
Validation never fails fast; every problem is collected with its field
path so a config author sees the whole damage at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grids import SeedGrid, circle_grid
from .herglotz import HerglotzSpec, DenjoyWolffSpec, SpecError, _interp_table


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def _as_complex(v, path, errors):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and \
            all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    errors.append(f"{path} must be a number or an [re, im] pair")
    return 0j


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
    tol_criterion: float = 1e-6
    tol_herglotz: float = 1e-6
    tol_holo: float = 1e-6
    tol_chain: float = 1e-6
    tol_beta: float = 1e-6
    tol_limit: float = 1e-8
    tol_dilat: float = 0.02
    t_inf: float = 64.0


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


def _time_table(rows, path, errors, build=_interp_table):
    """build(ts, values) from [[t, value], ...] rows, or None after recording why not."""
    try:
        ts = [float(r[0]) for r in rows]
        vs = [_as_complex(r[1], path, errors) for r in rows]
    except (TypeError, IndexError, ValueError):
        errors.append(f"{path} must be [[t, value], ...] rows")
        return None
    try:
        return build(ts, vs)
    except SpecError as e:
        errors.append(f"{path}: {e}")
        return None


def _build_time_profile(d, path, errors):
    """A time -> complex callable from a config node (constant or table)."""
    if isinstance(d, dict) and d.get("type") == "constant":
        c = _as_complex(d.get("value", 1.0), f"{path}.value", errors)
        return lambda t: c
    if isinstance(d, dict) and d.get("type") == "table":
        f = _time_table(d.get("points", []), f"{path}.points", errors)
        return f if f is not None else (lambda t: 1.0 + 0j)
    errors.append(f"{path} must be a constant or table profile")
    return lambda t: 1.0 + 0j


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
            return HerglotzSpec.mobius_kernel(driving)
        if kind == "sector":
            opening = float(d.get("opening", 0.5))
            profile = _build_time_profile(d.get("profile", {"type": "constant", "value": 1.0}),
                                          f"{path}.profile", errors)
            return HerglotzSpec.sector(opening, profile)
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
    except (SpecError, ValueError, TypeError) as e:
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
            bps = d.get("breakpoints", [])
            if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
                errors.append(f"{path}.breakpoints must be strictly increasing")
                return fallback
            vals = [_as_complex(v, f"{path}.values", errors) for v in d.get("values", [])]
            return DenjoyWolffSpec.step(bps, vals)
        if kind == "sampled":
            table = d.get("table")
            if not table:
                errors.append(f"{path}.table of [t, value] rows is required for sampled")
                return fallback

            def sampled(ts, vs):
                return DenjoyWolffSpec.sampled(_interp_table(ts, vs),
                                               modulus_bound=max(map(abs, vs)))

            spec = _time_table(table, f"{path}.table", errors, sampled)
            return spec if spec is not None else fallback
    except (SpecError, ValueError, TypeError) as e:
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
    td = doc.get("time", {})
    tc.t_end = float(td.get("t_end", tc.t_end))
    tc.tol = float(td.get("tol", tc.tol))
    tc.checkpoints = list(td.get("checkpoints", []))
    if tc.t_end <= 0:
        errors.append("time.t_end must be positive")
    if tc.tol <= 0:
        errors.append("time.tol must be positive")
    cps = tc.checkpoints
    if any(b <= a for a, b in zip(cps, cps[1:])):
        errors.append("time.checkpoints must be ascending")

    gc = GridConfig()
    gd = doc.get("grid", {})
    gc.circles = list(gd.get("circles", gc.circles))
    gc.angles = int(gd.get("angles", gc.angles))
    gc.delta_trace = float(gd.get("delta_trace", gc.delta_trace))
    gc.theta_nodes = int(gd.get("theta_nodes", gc.theta_nodes))
    if any(not 0 < r < 1 for r in gc.circles):
        errors.append("grid.circles must lie in (0, 1)")
    if gc.angles < 4:
        errors.append("grid.angles must be >= 4")
    if not 0 < gc.delta_trace < 0.1:
        errors.append("grid.delta_trace must lie in (0, 0.1)")
    if gc.theta_nodes < 8:
        errors.append("grid.theta_nodes must be >= 8")

    cc = CriteriaConfig()
    cd = doc.get("criteria", {})
    cc.k = float(cd.get("k", cc.k))
    if not 0.0 <= cc.k < 1.0:
        errors.append("criteria.k must lie in [0,1)")
    for name_ in ("tol_criterion", "tol_herglotz", "tol_holo", "tol_chain",
                  "tol_beta", "tol_limit", "tol_dilat"):
        v = float(cd.get(name_, getattr(cc, name_)))
        if v <= 0 or not math.isfinite(v):
            errors.append(f"criteria.{name_} must be a positive number")
        setattr(cc, name_, v)
    cc.t_inf = float(cd.get("t_inf", cc.t_inf))
    if cc.t_inf < 1:
        errors.append("criteria.t_inf must be >= 1")

    oc = OutputConfig()
    od = doc.get("outputs", {})
    oc.svg = bool(od.get("svg", oc.svg))
    oc.csv = bool(od.get("csv", oc.csv))
    oc.json_summary = str(od.get("json_summary", oc.json_summary))

    cfg = ScenarioConfig(
        name=str(doc.get("scenario", name)), p=p, tau=tau, q=q,
        time=tc, grid=gc, criteria=cc, outputs=oc,
        rng_seed=int(doc.get("rng_seed", 20240601)),
        approx_levels=list(doc.get("approx_levels", [4, 8, 16, 32])),
        approx_horizon=float(doc.get("approx_horizon", 4.0)),
    )
    if any(int(n) < 1 for n in cfg.approx_levels):
        errors.append("approx_levels must be positive integers")
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
