"""Synthetic problem builders shared across the test modules."""

import numpy as np

from bregopt.legendre import Euclidean, norm_rows
from bregopt.models import LinearMirrorOracle, NoisyGradientOracle, OracleConstants
from bregopt.problems import ProblemInstance
from bregopt.subproblem import SECULAR_TOL, PointModel, ZeroRegularizer, linear_model


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
        lip=[10.0], regime=regime,
        constants=OracleConstants(tau=0.0, rho=0.0, lip_bound_L=10.0),
        grad_f_fn=lambda x: x - x_star, test_point_sampler=sampler)
    prob = ProblemInstance("QUAD", oracle, ZeroRegularizer(), Euclidean(),
                           regime, len(x0), x0,
                           optimum={"F_star": 0.0, "x_star": x_star},
                           sampler=sampler)
    prob._objective_builder = lambda: PointModel(
        f, lambda x: x - x_star, hessian_fn=lambda x: np.eye(len(x0)))
    return prob


def scan_tolerance(logs, etas, slopes, mu=0.0):
    """The bound on |log y| between scanned entropic steps
    (subproblem._affine_scan) and the same steps taken one by one, after
    each step: (K, S) from the step-by-step logs (K + 1, S, d) (log z
    first), the K step sizes, the (K, S, d) slopes and the tilt's weight mu
    (0 under the simplex).

    A step rounds its centre's and its minimizer's logs, its
    eta v / (1 + eta mu) (the tilt divides the step by 1 + eta mu) and the
    log of a sum of d exponentials (about d units), each to a few units eps
    of its magnitude m_k.  The scan sums up to SCAN_STEPS steps in one
    cumulative sum, whose worst-case rounding is SCAN_STEPS units of the
    summed magnitudes, and its tilt as much again in the cumulative factors
    (1 + eta mu) and the division by them.  The log-softmax removes any
    error that shifts a row, and the tilt divides the errors of earlier
    steps by 1 + eta mu, so the steps' errors add up at most: after step k
    |log y_scan - log y_step| <= 4 SCAN_STEPS eps sum_{j<=k} m_j, with
    m_j = ||log y_{j-1}|| + ||log y_j|| + eta_j ||v_j|| / (1 + eta_j mu) + d
    in sup norms."""
    from bregopt.driver import SCAN_STEPS
    etas = np.asarray(etas, dtype=float)[:, None]
    m = (np.abs(logs[:-1]).max(axis=-1) + np.abs(logs[1:]).max(axis=-1)
         + etas * np.abs(slopes).max(axis=-1) / (1.0 + etas * mu) + logs.shape[-1])
    return 4 * SCAN_STEPS * np.finfo(float).eps * np.cumsum(m, axis=0)


def secular_mirror_excess(mirror, phi, Y):
    """Per row, how far a secular step's mirror coordinates lie outside the
    bound ||mirror - grad phi(y)|| <= SECULAR_TOL ||grad phi(y)|| (> 0:
    outside).  The solve stops a row once A(||v||) and A(r) agree to
    SECULAR_TOL relative (to eta lam_min + A(r)), so it knows y's mirror
    coordinates A(||y||) y to no better than that; its A(||v||) y differs
    from grad phi(y) only by the rounding of ||U v|| against ||v||."""
    G = phi.gradient_rows(Y)
    return norm_rows(mirror - G) - SECULAR_TOL * norm_rows(G)


def root_mirror_excess(mirror, phi, Y, tol=1e-14):
    """Per row, how far the mirror coordinates W that a 1-d radial |affine|
    step returns lie outside |W - phi'(y)| <= 2 tol (1 + |W|) (> 0: outside),
    tol solve_monotone_power's default.  A root row's y = sign(W) r passed
    the check |s(r) - |W|| <= tol (1 + |W|) on the float sum s(r); that sum
    and phi'(y) = A(|y|) y, A(r) = sum_k c_k p_k r^(p_k - 2), each round to
    within 8 u |W| of the exact s(r) for the registry's two-term kernels,
    and 16 u = 3.6e-15 < tol.  A kink row's W = s(|y0|) and phi'(y0) differ
    by those two roundings only, and a row with g = 0 keeps the W and y of
    the step before."""
    W = np.asarray(mirror, dtype=float)
    return np.abs(W - phi.gradient_rows(Y)) - 2.0 * tol * (1.0 + np.abs(W))
