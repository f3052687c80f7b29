"""Synthetic problem builders shared across the test modules."""

import numpy as np

from bregopt.legendre import Euclidean
from bregopt.models import LinearMirrorOracle, NoisyGradientOracle, OracleConstants
from bregopt.problems import ProblemInstance
from bregopt.subproblem import PointModel, ZeroRegularizer, linear_model


def smooth_problem(phi, d=2, center=None, tau=0.0):
    """F(y) = 0.5 |y - center|^2 + 0.1 |y|^4, smooth and convex."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def f(y):
        r2 = float(np.sum((y - center) ** 2))
        return 0.5 * r2 + 0.1 * float(np.sum(y ** 2)) ** 2

    def grad(y):
        return (y - center) + 0.4 * float(np.sum(y ** 2)) * y

    def hess(y):
        return (np.eye(d) * (1.0 + 0.4 * float(np.sum(y ** 2)))
                + 0.8 * np.outer(y, y))

    if phi.domain == "all_space":
        sampler = lambda rng: rng.uniform(-2.0, 2.0, d)
    else:
        sampler = lambda rng: rng.uniform(0.5, 2.0, d)
    oracle = NoisyGradientOracle(
        f, grad, lambda rng, n: np.zeros((n, d)), regime="B",
        constants=OracleConstants(tau=tau, variance_sigma=0.0),
        test_point_sampler=sampler)
    prob = ProblemInstance("SMOOTH-" + phi.kind, oracle, ZeroRegularizer(),
                           phi, "B", d, np.full(d, 1.0), sampler=sampler)
    prob._objective_builder = lambda: PointModel(f, grad, hessian_fn=hess)
    return prob


def halfsq_problem():
    """F = 0.5 |y|^2 with Euclidean phi; every quantity has a closed form."""
    d = 2
    f = lambda y: 0.5 * float(y @ y)
    sampler = lambda rng: rng.uniform(-2, 2, d)
    oracle = NoisyGradientOracle(
        f, lambda y: y.copy(), lambda rng, n: np.zeros((n, d)), regime="B",
        constants=OracleConstants(), test_point_sampler=sampler)
    prob = ProblemInstance("HALFSQ", oracle, ZeroRegularizer(), Euclidean(),
                           "B", d, np.array([1.0, 1.0]),
                           optimum={"F_star": 0.0, "x_star": np.zeros(d)},
                           sampler=sampler)
    prob._objective_builder = lambda: PointModel(
        f, lambda y: y.copy(), hessian_fn=lambda y: np.eye(d))
    return prob


def quadratic_problem(x0, regime="A", x_star=None):
    """Deterministic-gradient f(x) = 0.5 |x - x_star|^2 with Euclidean phi.

    The oracle's callbacks act on the last axis, as the driver's lockstep
    loop needs.
    """
    x0 = np.asarray(x0, dtype=float)
    x_star = np.zeros(len(x0)) if x_star is None else np.asarray(x_star)
    f = lambda x: 0.5 * np.sum((x - x_star) ** 2, axis=-1)
    sampler = lambda rng: rng.uniform(-2, 2, len(x0))
    oracle = LinearMirrorOracle(
        f_fn=f, grad_map=lambda x, xi: x - x_star, weights=[1.0],
        lip_fn=lambda xi: 10.0, regime=regime,
        constants=OracleConstants(tau=0.0, rho=0.0, lip_bound_L=10.0),
        grad_f_fn=lambda x: x - x_star, test_point_sampler=sampler)
    prob = ProblemInstance("QUAD", oracle, ZeroRegularizer(), Euclidean(),
                           regime, len(x0), x0,
                           optimum={"F_star": 0.0, "x_star": x_star},
                           sampler=sampler)
    prob._objective_builder = lambda: PointModel(
        f, lambda x: x - x_star, hessian_fn=lambda x: np.eye(len(x0)))
    return prob
