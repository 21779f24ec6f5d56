"""Constrained generative sampling on optimal-transport flow paths.

The package couples exact flow-matching velocity fields for finite-atom and
Gaussian-mixture targets with constraint machinery that keeps samples inside
a feasible set: time-dependent chance-constraint tightening, pathwise
constraint transport, and Gauss-Newton / cyclic projection operators. A small
reaction-diffusion benchmark and a config-driven experiment runner sit on
top.
"""

from .chance import Scheduler, sigma_of_t, tighten_set, transport_set
from .constraints import (ConstraintSet, LinearBand, LinearIneq, MinDistance,
                          SmoothScalar, max_violation)
from .errors import ConfigError, NumericalError, OracleFailure
from .flow import (EmpiricalTarget, FlowModel, GaussianMixtureTarget,
                   interpolate, load_matrix, recover_x1)
from .numerics import normal_cdf, normal_quantile, solve_spd, stream_rng
from .oracles import (BruteForceConfig, DistortionReport, McEstimate,
                      brute_force_project, feasibility_report, mc_chance,
                      moment_errors, rejection_sample, sample_target, sliced_w2)
from .projection import (ProjectionReport, final_refine, gauss_newton_project,
                         project, project_decomposed, project_pocs)
from .reaction_diffusion import (RdGrid, RdProblem, rd_constraints, rd_dataset,
                                 rd_violation_split, sample_rd_problem, simulate_rd)
from .samplers import SampleRecord, SamplerConfig, run_batch

__version__ = "0.1.0"

__all__ = [
    "Scheduler", "sigma_of_t", "tighten_set", "transport_set",
    "ConstraintSet", "LinearBand", "LinearIneq", "MinDistance", "SmoothScalar",
    "max_violation",
    "ConfigError", "NumericalError", "OracleFailure",
    "EmpiricalTarget", "FlowModel", "GaussianMixtureTarget", "interpolate",
    "load_matrix", "recover_x1",
    "normal_cdf", "normal_quantile", "solve_spd", "stream_rng",
    "BruteForceConfig", "DistortionReport", "McEstimate", "brute_force_project",
    "feasibility_report", "mc_chance", "moment_errors", "rejection_sample",
    "sample_target", "sliced_w2",
    "ProjectionReport", "final_refine", "gauss_newton_project",
    "project", "project_decomposed", "project_pocs",
    "RdGrid", "RdProblem", "rd_constraints", "rd_dataset", "rd_violation_split",
    "sample_rd_problem", "simulate_rd",
    "SampleRecord", "SamplerConfig", "run_batch",
    "__version__",
]
