"""Numerical laboratory for weakly interacting Langevin particles on the
torus and the regularised density/momentum system they generate."""

__version__ = "0.1.0"

from .fields import empirical_field, interaction_decomposition, sobolev_norm
from .particles import (ConfigurationError, CoupledTrajectory, ModelParams,
                        TimeStepError, chaos_distance, ladder_from_thetas,
                        pairwise_force, simulate_coupled, simulate_interacting)
from .potential import PotentialSpec, mean_w1_at
from .ratefit import PowerLawFit, fit_loglog
from .spde import (SpdeConfig, SpdeTrajectory, SpectralState, StoppingStatus,
                   convolution_bound_check, h_delta, solve_spde, step_mild,
                   total_mass)
from .studies import STUDY_NAMES, STUDY_REGISTRY, StudyReport
from .torus import (KernelParams, ResolutionError, TorusGeometry, make_kernel,
                    normalization_constant, von_mises_eval, wrap,
                    wrap_centered)
from .vfp import PhaseSpaceDensity, VfpSolver, uniform_maxwellian

__all__ = [
    "__version__",
    "ConfigurationError", "CoupledTrajectory", "KernelParams",
    "ModelParams", "PhaseSpaceDensity",
    "PotentialSpec", "PowerLawFit", "ResolutionError", "STUDY_NAMES",
    "STUDY_REGISTRY", "SpdeConfig", "SpdeTrajectory", "SpectralState",
    "StoppingStatus", "StudyReport", "TimeStepError", "TorusGeometry",
    "VfpSolver", "chaos_distance",
    "convolution_bound_check", "empirical_field", "fit_loglog", "h_delta",
    "interaction_decomposition", "ladder_from_thetas",
    "make_kernel", "mean_w1_at", "normalization_constant",
    "pairwise_force", "simulate_coupled", "simulate_interacting",
    "sobolev_norm", "solve_spde", "step_mild",
    "total_mass", "uniform_maxwellian", "von_mises_eval", "wrap",
    "wrap_centered",
]
