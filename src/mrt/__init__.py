"""Linear stability toolkit for stratified magnetic equilibria in a slab.

Critical field strengths via variational quotients, growth rates via the
monotone fixed point of the modified dispersion relation, growing-mode
construction, and linearized time evolution with discrete energy accounting.
Slab problems (incompressible and compressible) reduce to one vertical
dimension per horizontal mode; the bounded rectangle keeps two.
"""

from .bounded2d import Rect2D, critical_m_2d, divergence_defect, growth_rate_2d
from .dispersion import (DispersionResult, GrowingMode, ProofSequence,
                         build_growing_mode, compute_cr, critical_M,
                         critical_m_sweep, quotient_proof_sequence,
                         solve_growth_rate)
from .errors import InputError, MrtError, SolverError
from .evolve import (EnvelopeReport, EvolveState, TrajectoryRecord,
                     envelope_check, init_state, run_trajectory, step)
from .eigcore import pin_blas_threads, psd_ratio_sup, solve_gsym, top_pair
from .grid1d import Grid1D
from .modeforms import (ModeForms, ModeSpec, assemble_compressible,
                        assemble_cr_forms, assemble_incompressible,
                        assemble_quotient)
from .profiles import (CompressibleEquilibrium, DensityProfile, PhysicalParams,
                       build_equilibrium, make_affine_profile,
                       make_table_profile, make_tanh_profile,
                       min_admissible_pressure_const)

__all__ = [
    "CompressibleEquilibrium",
    "DensityProfile",
    "DispersionResult",
    "EnvelopeReport",
    "EvolveState",
    "Grid1D",
    "GrowingMode",
    "InputError",
    "ModeForms",
    "ModeSpec",
    "MrtError",
    "PhysicalParams",
    "ProofSequence",
    "Rect2D",
    "SolverError",
    "TrajectoryRecord",
    "assemble_compressible",
    "assemble_cr_forms",
    "assemble_incompressible",
    "assemble_quotient",
    "build_equilibrium",
    "build_growing_mode",
    "compute_cr",
    "critical_M",
    "critical_m_2d",
    "critical_m_sweep",
    "divergence_defect",
    "envelope_check",
    "growth_rate_2d",
    "init_state",
    "make_affine_profile",
    "make_table_profile",
    "make_tanh_profile",
    "min_admissible_pressure_const",
    "pin_blas_threads",
    "psd_ratio_sup",
    "quotient_proof_sequence",
    "run_trajectory",
    "solve_gsym",
    "solve_growth_rate",
    "step",
    "top_pair",
]

__version__ = "0.1.0"
