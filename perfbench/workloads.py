"""The benchmark's workloads: seeded scenario configs and their op lists.

An op is one ``run_pipeline(cfg, command, out)`` call, the call the CLI
makes.  The seed draws the inputs, and every oracle holds for each drawn
value by closed form or by symmetry:

* ``becker``: k uniform in [0.45, 0.55]; the oracles are functions of k.
* ``chordal`` and ``measurable-tau``: tau -> e^{i alpha} tau with alpha a
  multiple of pi/4.  That rotation maps the 8-angle seed grid and the
  256/64-node trace rings onto themselves, so the work stays the same
  (a non-grid alpha changes the integrator's step sequence).
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles
from loewnerqc.config import validate_config
from loewnerqc.scenarios import builtin_document, builtin_scenario

_R = math.sqrt(0.5)
# e^{i m pi/4}, m = 0..7, with exact zeros and signs
ROTATIONS = (1 + 0j, complex(_R, _R), 1j, complex(-_R, _R),
             -1 + 0j, complex(-_R, -_R), -1j, complex(_R, -_R))


@dataclass(frozen=True)
class Inputs:
    """What the seed draws."""

    k: float
    rotation: complex


def draw_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    k = 0.45 + 0.1 * rng.random()
    return Inputs(k=k, rotation=ROTATIONS[rng.randrange(8)])


@dataclass
class Op:
    """One pipeline call with its oracle, expected exit code and time limit."""

    cfg: object
    command: str
    check: Callable
    expected_code: int = 0
    limit_s: float = 60.0


@dataclass
class Workload:
    name: str
    ops: list[Op]


def _rotated(z, rot: complex):
    w = complex(z) * rot
    return [w.real, w.imag]


def _interior_atlas(inputs: Inputs) -> list[Op]:
    k = inputs.k
    cfg = builtin_scenario("becker", k=k)
    n_cells = cfg.time.checkpoint_array(65).size * cfg.grid.theta_nodes
    return [Op(cfg, "check", partial(oracles.becker_check, k=k), limit_s=20.0),
            Op(cfg, "extend", partial(oracles.becker_extend, k=k, n_cells=n_cells),
               limit_s=90.0)]


def _boundary_chain(inputs: Inputs) -> list[Op]:
    doc = copy.deepcopy(builtin_document("chordal"))
    doc["tau"]["value"] = _rotated(doc["tau"]["value"], inputs.rotation)
    cfg = _validated(doc)
    tau = complex(*doc["tau"]["value"])
    n_rows = len(cfg.grid.seed_grid()) * cfg.time.checkpoint_array().size
    return [Op(cfg, "evolve", partial(oracles.chordal_evolve, tau=tau, n_rows=n_rows),
               limit_s=20.0),
            Op(cfg, "chain", oracles.chordal_chain, limit_s=30.0),
            Op(cfg, "range", oracles.chordal_range, limit_s=20.0)]


def _measurable_approx(inputs: Inputs) -> list[Op]:
    doc = copy.deepcopy(builtin_document("measurable-tau"))
    doc["tau"]["table"] = [[t, _rotated(v, inputs.rotation)] for t, v in doc["tau"]["table"]]
    cfg = _validated(doc)
    return [Op(cfg, "approx", partial(oracles.approx_table, tol=cfg.time.tol,
                                      n_levels=len(cfg.approx_levels)),
               limit_s=90.0)]


def _validated(doc):
    cfg, errors = validate_config(doc, name=doc["scenario"])
    if errors:
        raise ValueError(f"seeded scenario {doc['scenario']} is invalid: {errors}")
    return cfg


# Why each workload (also in BENCHMARK.json): ROADMAP items 4 (regime-aware
# limit horizons) and 5 (cache-blocked seed batches) should move the heavy
# 20,865-point batch of interior-atlas and leave boundary-chain, whose
# ~577-point limits are dominated by per-call overhead, flat;
# measurable-approx is the only one that runs time-dependent tau and the
# approx layer.
WORKLOADS = {
    "interior-atlas": _interior_atlas,
    "boundary-chain": _boundary_chain,
    "measurable-approx": _measurable_approx,
}


def build(name: str, seed: int) -> Workload:
    """The seeded workload; raises KeyError for an unknown name."""
    return Workload(name, WORKLOADS[name](draw_inputs(seed)))
