"""Numerical toolkit for generalized Loewner evolution on the unit disk.

Berkson-Porta data (a Herglotz function p and a Denjoy-Wolff function tau)
drive everything: the evolution-family ODE and its reverse, reconstruction
of range-normalized and decreasing Loewner chains, the boundary-welded
extension map, and two independent Beltrami-coefficient estimators that
certify quasiconformality bounds numerically.
"""

from .grids import SeedGrid, circle_grid, criteria_grid, trace_ring, hyperbolic_distance
from .herglotz import (HerglotzSpec, DenjoyWolffSpec, VectorFieldHandle, SpecError,
                       assemble_field, time_samples, check_herglotz, check_becker, check_pair,
                       pair_parts, sector_bound, holomorphy_residual, rotation_only)
from .evolution import (TrajectorySet, solve_forward, solve_reverse, verify_semigroup,
                        schwarz_pick_check, derivative_at_origin)
from .chains import (ChainFrames, RangeReport, limit_frame, range_normalized_chain,
                     decreasing_chain, beta_limit, verify_transitions, verify_chain_pde,
                     verify_containment, frames_coincide_up_to_rotation)
from .extension import (ExtensionAtlas, BeckerExtension, build_extension,
                        becker_extension, beltrami_formula, beltrami_fd,
                        dilatation_report, AtlasRejected)
from .approx import (step_approximate, field_deviation, random_deviation_check,
                     convergence_table, gronwall_envelope)
from .config import ScenarioConfig, parse_config, validate_config, ConfigError
from .scenarios import builtin_scenario, scenario_names
from .cli import run_pipeline

__version__ = "0.1.0"
