"""Simulation of multistable processes by truncated shot-noise series, with
statistical checks of their incremental scaling and pathwise roughness."""

__version__ = "0.1.0"

from .engine import (PoissonEnvironment, TruncationReport, build_environment,
                     eval_diagonal_path, tail_covariance,
                     truncation_diagnostic)
from .estimate import (ECFReport, HolderEstimate, KSResult, MomentEstimate,
                       ScalingFit, condition_probe, diagonal_samples,
                       ecf_compare, estimate_increment_moments, fit_scaling,
                       holder_pathwise, ks_two_sample, levy_increment_cf,
                       theoretical_scaling)
from .expr import (EvalError, ExprError, FuncSpec, ParseError, eval_expr,
                   parse_expr)
from .kernels import (Kernel, MeasureSpec, ProcessSpec, kink_power_integral,
                      levy_kernel, lmmm_kernel, make_process,
                      pair_integral, sigma_lmmm)
from .stable import (QuadratureConfig, c_alpha, cms_sample, sas_abs_moment,
                     sin2_integral, sin2_phase_integral)

__all__ = [
    "__version__",
    # expressions
    "parse_expr", "eval_expr", "FuncSpec", "ExprError", "ParseError",
    "EvalError",
    # stable-law numerics
    "QuadratureConfig", "c_alpha", "sin2_integral", "sin2_phase_integral",
    "sas_abs_moment", "cms_sample",
    # kernels and processes
    "Kernel", "MeasureSpec", "ProcessSpec", "levy_kernel", "lmmm_kernel",
    "make_process", "sigma_lmmm", "kink_power_integral", "pair_integral",
    # series engine
    "PoissonEnvironment", "build_environment", "eval_diagonal_path",
    "truncation_diagnostic", "TruncationReport", "tail_covariance",
    # estimation
    "MomentEstimate", "ScalingFit", "HolderEstimate", "ECFReport",
    "KSResult", "diagonal_samples", "estimate_increment_moments",
    "theoretical_scaling", "fit_scaling", "holder_pathwise",
    "levy_increment_cf", "ecf_compare", "condition_probe", "ks_two_sample",
]
