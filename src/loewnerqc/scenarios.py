"""Built-in scenario registry.

These cover the regimes the verification suite exercises: interior and
boundary Denjoy-Wolff points, pure rotation, the radial extension
criterion at a given k, sector data, and measurable or step tau.
"""

from __future__ import annotations

import math

from .config import ScenarioConfig, validate_config


def _docs(k: float = 0.5):
    sector_k = 1.0 / 3.0
    return {
        "exponential": {
            "scenario": "exponential",
            "p": {"kind": "constant", "value": 1.0},
            "tau": {"kind": "constant", "value": 0.0},
            "time": {"t_end": 1.0},
        },
        "chordal": {
            "scenario": "chordal",
            "p": {"kind": "constant", "value": 1.0},
            "tau": {"kind": "constant", "value": 1.0},
            "time": {"t_end": 4.0},
        },
        "rotation": {
            "scenario": "rotation",
            "p": {"kind": "constant", "value": [0.0, 1.0]},
            "tau": {"kind": "constant", "value": 0.0},
            "time": {"t_end": 1.0},
        },
        "becker": {
            "scenario": "becker",
            "p": {"kind": "rational_table", "numerator": [1.0, k], "denominator": [1.0, -k]},
            "q": {"kind": "constant", "value": 1.0},
            "tau": {"kind": "constant", "value": 0.0},
            "time": {"t_end": 0.64},
            "criteria": {"k": k},
        },
        "sector": {
            "scenario": "sector",
            "p": {"kind": "sector", "opening": sector_k,
                  "profile": {"type": "table",
                              "points": [[0.0, _sector_point(sector_k, 1.0)],
                                         [8.0, _sector_point(sector_k, 5.0)]]}},
            "q": {"kind": "sector", "opening": sector_k,
                  "profile": {"type": "table",
                              "points": [[0.0, _sector_point(sector_k, 1.0)],
                                         [8.0, _sector_point(sector_k, 5.0)]]}},
            "tau": {"kind": "constant", "value": 0.0},
            "time": {"t_end": 1.0},
            "criteria": {"k": math.sin(sector_k * math.pi / 2.0) + 1e-9},
        },
        "measurable-tau": {
            "scenario": "measurable-tau",
            "p": {"kind": "constant", "value": 1.0},
            "tau": {"kind": "sampled",
                    "table": [[t / 8.0, (t / 8.0) / (1.0 + t / 8.0)] for t in range(0, 64)]},
            "time": {"t_end": 2.0},
        },
        "step-tau": {
            "scenario": "step-tau",
            "p": {"kind": "constant", "value": 1.0},
            "tau": {"kind": "step", "breakpoints": [1.0], "values": [0.3, [0.0, 0.6]]},
            "time": {"t_end": 2.0},
        },
    }


def _sector_point(opening: float, magnitude: float):
    half = opening * math.pi / 2.0
    return [magnitude * math.cos(half), magnitude * math.sin(half)]


def scenario_names() -> list[str]:
    return sorted(_docs().keys())


def builtin_scenario(name: str, k: float = 0.5) -> ScenarioConfig:
    docs = _docs(k=k)
    if name not in docs:
        raise KeyError(f"unknown scenario '{name}'; available: {', '.join(sorted(docs))}")
    cfg, errors = validate_config(docs[name], name=name)
    if errors:
        raise RuntimeError(f"builtin scenario '{name}' failed validation: {errors}")
    return cfg


def builtin_document(name: str) -> dict:
    """The raw JSON document of a builtin, handy as a config template."""
    docs = _docs()
    if name not in docs:
        raise KeyError(f"unknown scenario '{name}'")
    return docs[name]
