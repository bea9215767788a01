"""Numerical toolkit for generalized Loewner evolution on the unit disk.

Berkson-Porta data (a Herglotz function p and a Denjoy-Wolff function tau)
drive everything: the evolution-family ODE and its reverse, reconstruction
of range-normalized and decreasing Loewner chains, the boundary-welded
extension map, and two independent Beltrami-coefficient estimators that
certify quasiconformality bounds numerically.
"""

from .grids import SeedGrid, circle_grid, criteria_grid, trace_ring, hyperbolic_distance
from .herglotz import (HerglotzSpec, DenjoyWolffSpec, VectorFieldHandle, SpecError,
                       assemble_field, check_herglotz, check_becker, check_pair,
                       sector_bound, cayley_transfer, holomorphy_residual, rotation_only)
from .evolution import (TrajectorySet, solve_forward, solve_reverse, verify_semigroup,
                        schwarz_pick_check, derivative_at_origin, IntegrationError)
from .chains import (MobiusNormalizer, ChainFrames, RangeReport, normalize, limit_frame,
                     chain_limit, range_normalized_chain, decreasing_chain, beta_limit,
                     verify_transitions, verify_chain_pde, verify_containment,
                     verify_psi_normalization, frames_coincide_up_to_rotation)
from .extension import (ExtensionAtlas, BeckerExtension, boundary_trace, build_extension,
                        becker_extension, beltrami_formula, beltrami_fd,
                        becker_dilatation, dilatation_report, interior_dilatation, AtlasRejected)
from .approx import (StepApproximant, step_approximate, field_deviation,
                     random_deviation_check, ef_convergence, chain_convergence,
                     gronwall_envelope)
from .config import ScenarioConfig, parse_config, validate_config, ConfigError
from .scenarios import builtin_scenario, scenario_names
from .cli import run_pipeline

__version__ = "0.1.0"
