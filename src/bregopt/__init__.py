"""Stochastic model-based minimization under Bregman geometry.

A numpy library for minimizing F = f + r when f is only accessible through
sampled one-sided models whose accuracy and variation are controlled by a
Bregman divergence: Legendre geometry, model oracles, certified Bregman
proximal steps, the outer stochastic loops with their step-size schedules,
and Bregman-Moreau envelope stationarity diagnostics, plus a desk-scale
problem registry and CLI used to validate every claimed inequality and rate.
"""

from .legendre import (Burg, DomainError, Euclidean, LegendreFunction,
                       LocalNormContext, RadialPowerSum, RowState, ShannonEntropy,
                       SingularHessianError, WeightedSum,
                       build_composite_legendre, build_norm_power_legendre,
                       build_poly_legendre, legendre_from_config)
from .models import (LinearMirrorOracle, ModelOracle, NoisyGradientOracle,
                     OracleConstants, ProxLinearOracle, ProximalPointOracle,
                     SaddleOracle)
from .subproblem import (AffineRows, BallIndicator, EntropyLike,
                         InnerSolveError, L1Regularizer, NormTermRows,
                         PointModel, ProxStepResult, QuadraticRegularizer,
                         QuadraticRows, Regularizer, SimplexIndicator,
                         SmoothRows, ZeroRegularizer, absolute_affine_model,
                         center_certificate, check_three_point, inner_solve,
                         linear_model, power_terms, prox_points_1d, prox_step,
                         prox_step_rows, solve_monotone_power)
from .driver import (RunTrace, SolverConfig, default_lambda, fit_loglog,
                     format_csv_rows, parse_csv_rows, run_convex,
                     run_for_regime, run_mirror_descent_smooth,
                     run_model_based, sample_tstar, stepsize_constant, sweep)
from .envelope import (EnvelopeReport, bregman_prox_point, bregman_prox_points,
                       envelope_gradient, envelope_value, stationarity)
from .problems import (ProblemInstance, default_configs, dump_config, get_problem,
                       instance_from_config, load_config, registry)

__version__ = "0.1.0"


def __getattr__(name):
    # the names of validation, which compiles on first use, not with the solvers
    if name in ("OracleResult", "brute_force_min", "verify_lipschitz", "verify_one_sided",
                "verify_relative_smoothness", "verify_variance"):
        from . import validation
        return getattr(validation, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
