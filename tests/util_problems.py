"""Synthetic problem builders shared across the test modules."""

from collections import namedtuple

import numpy as np

from bregopt.legendre import Euclidean, norm_rows
from bregopt.models import LinearMirrorOracle, NoisyGradientOracle, OracleConstants
from bregopt.problems import ProblemInstance
from bregopt.subproblem import SECULAR_TOL, SmoothRows, ZeroRegularizer


class RowModel(namedtuple("RowModel", "values gradients")):
    """A model by its values and a subgradient selection over the rows of
    an (N, d) array, and no structure: no batched prox path takes it, so a
    1-d step bisects it and a d > 1 step raises."""

    __slots__ = ()


def smooth_problem(phi, d=2, center=None, tau=0.0):
    """F(y) = 0.5 |y - center|^2 + 0.1 |y|^4, smooth and convex; f, its
    gradient and its Hessian act on the last axis."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def f(y):
        r2 = np.sum((y - center) ** 2, axis=-1)
        return 0.5 * r2 + 0.1 * np.sum(y ** 2, axis=-1) ** 2

    def grad(y):
        return (y - center) + 0.4 * np.sum(y ** 2, axis=-1)[..., None] * y

    def hess(y):
        s = np.sum(y ** 2, axis=-1)[..., None, None]
        return np.eye(d) * (1.0 + 0.4 * s) + 0.8 * y[..., :, None] * y[..., None, :]

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
    prob.objective = SmoothRows(f, grad, hess)
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
    prob.objective = SmoothRows(lambda Y: 0.5 * np.sum(Y * Y, axis=-1), lambda Y: Y.copy(),
                                lambda Y: np.broadcast_to(np.eye(d), Y.shape + (d,)))
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
    prob.objective = SmoothRows(f, lambda x: x - x_star,
                                lambda x: np.broadcast_to(np.eye(len(x0)), x.shape + x0.shape))
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
    """Per row, how far the mirror coordinates W that a radial root step
    returns (subproblem._radial_root: P1's 1-d |affine| steps, P2's affine
    steps) lie outside ||W - grad phi(y)|| <= b(W), in row norms (> 0:
    outside).

    A root row's y = (r / ||W||) W, r the root of s(r) = ||W||, s(r) =
    sum_k a_k r^e_k and grad phi(y) = A(||y||) y, A(t) = s(t) / t.  In
    units u = eps / 2, for the powers {2, 4}: s(r) = a1 r + a3 r^3 and r is
    _cubic_root's 2 q sinh(v), q = sqrt(a1 / (3 a3)), v = asinh(x) / 3,
    x = 1.5 sqrt(3 a3 / a1) ||W|| / a1.  x is within 5 u relative (its
    constant 3 u, ||W|| 2 u), asinh adds u (its condition number
    x / (sqrt(1 + x^2) asinh x) is at most 1) and the division by 3 one
    more, so v is within 7 u; sinh's condition number v coth v is at most
    1 + v, so sinh(v) is within 7 u (1 + v) + u, and r, after q (2 u) and
    the product, within 7 u (1 + v) + 4 u.  s has condition number at most
    3 in r: s(r) = ||W|| (1 + d), |d| <= 21 u (1 + v) + 12 u.  y = (r /
    ||W||) W adds 3 u (the norm, the quotient, the product) to ||y||, A
    (condition number at most 2) 6 u for that and 4 u for its evaluation,
    so grad phi(y) = W (1 + d') entry by entry, |d'| <= 21 u (1 + v) + 25 u,
    and the subtraction adds u ||W||: b(W) = 24 u (2 + v) (1 + ||W||)
    covers it (the 1 for rows near 0).  Every other kernel's root passed
    solve_monotone_power's check |s(r) - ||W||| <= tol (1 + ||W||) on the
    float sum s(r), and b(W) = 2 tol (1 + ||W||).  A 1-d kink row's W =
    A(|y0|) y0 and phi'(y0) differ by their two evaluations' rounding only,
    and a row with g = 0 keeps the W and y of the step before."""
    from bregopt.subproblem import power_terms
    W = np.asarray(mirror, dtype=float)
    n = norm_rows(W)
    power = power_terms(*phi.radial_terms())
    if power.closed:
        v = np.arcsinh(1.5 * np.sqrt(3.0 * power.a3 / power.a1) * n / power.a1) / 3.0
        bound = 24.0 * np.finfo(float).eps / 2.0 * (2.0 + v) * (1.0 + n)
    else:
        bound = 2.0 * tol * (1.0 + n)
    return norm_rows(W - phi.gradient_rows(Y)) - bound
