"""Bregman-Moreau envelope diagnostics.

Stationarity of a weakly convex composite F = f + r is measured through the
envelope

    env(x) = inf_y { F(y) + (1/lam) D(y, x) }

and its proximal point x_hat = argmin of the same subproblem.  The distance
D(x_hat, x) is the quantity the outer algorithms drive to zero; the envelope
is differentiable with

    grad env(x) = (1/lam) hessian_phi(x) (x - x_hat),

and when phi is 1-strongly convex the square root of D(x_hat, x) dominates
(lam/sqrt(2)) times the local dual norm of that gradient.  Two independent
evaluation paths are provided: the direct infimum and the convex-conjugate
assembly

    env(x) = -(F + phi/lam)^*(grad phi(x)/lam) - phi(x)/lam
             + <grad phi(x), x>/lam,

whose agreement is enforced as a runtime cross-check.  The diagnostic is
always computed offline on recorded iterates, never inside an algorithm
loop.
"""

import numpy as np

# prox_step stays bound here: perfbench/tracing.py wraps envelope.prox_step
from .subproblem import (prox_points_1d, prox_step, prox_step_rows,  # noqa: F401
                         _missing_path)


class EnvelopeReport:
    """Stationarity diagnostics at one point."""

    def __init__(self, prox_point, divergence, envelope_value_direct,
                 envelope_value_conjugate, envelope_gradient,
                 local_dual_norm_of_gradient, lower_bound_check):
        self.prox_point = prox_point
        self.divergence = divergence
        self.envelope_value_direct = envelope_value_direct
        self.envelope_value_conjugate = envelope_value_conjugate
        self.envelope_gradient = envelope_gradient
        self.local_dual_norm_of_gradient = local_dual_norm_of_gradient
        self.lower_bound_check = lower_bound_check


def _weak_modulus(problem):
    c = problem.oracle.constants
    return c.tau + c.rho


def _check_lambda(problem, lam):
    if lam <= 0:
        raise ValueError("smoothing parameter must be positive")
    wm = _weak_modulus(problem)
    if wm > 0 and lam * wm >= 1.0:
        raise ValueError("need lam * (tau + rho) < 1 for a convex prox subproblem")


def bregman_prox_points(problem, phi, X, lam, tol=1e-10):
    """argmin_y { F(y) + (1/lam) D(y, x) } for each row x of an (N, d) array.

    All N subproblems are solved and certified in one batch: in one
    dimension by one lockstep bisection, which needs the exact objective's
    value and subgradient to act elementwise on an (N,) array; in d > 1 by
    prox_step_rows on the objective's row form (PointModel.rows): the
    secular equation for a quadratic (P6), one lockstep Newton for a smooth
    objective (P2) and the shrinkage for a norm term (P5).  In d > 1 an
    objective with no row form, or whose (r, phi) has no batched path,
    raises InnerSolveError.
    """
    _check_lambda(problem, lam)
    X = np.asarray(X, dtype=float)
    model = problem.exact_objective()
    reg = problem.regularizer
    rho = _weak_modulus(problem)
    if X.shape[1] == 1:
        return prox_points_1d(model, reg, phi, X[:, 0], lam, rho=rho, tol=tol)[:, None]
    rows = model.rows()
    res = (None if rows is None
           else prox_step_rows(rows, reg, phi, X, lam, rho=rho, inner_tol=tol))
    if res is None:
        raise _missing_path(rows, reg, phi)
    return res.minimizer


def bregman_prox_point(problem, phi, x, lam, tol=1e-10):
    """argmin_y { F(y) + (1/lam) D(y, x) } for the exact objective F."""
    x = np.asarray(x, dtype=float)
    return bregman_prox_points(problem, phi, x[None, :], lam, tol=tol)[0]


def _envelope_values(problem, phi, x, x_hat, lam):
    """D(x_hat, x) and the direct and conjugate envelope values at x."""
    F_hat = problem.exact_F(x_hat)
    div = phi.bregman(x_hat, x)
    direct = F_hat + div / lam
    gx = phi.gradient(x)
    u = gx / lam
    # (F + phi/lam)^* at u; the supremum is attained at the proximal point
    conj = float(np.dot(u, x_hat)) - F_hat - phi.value(x_hat) / lam
    conjugate = -conj - phi.value(x) / lam + float(np.dot(gx, x)) / lam
    return div, direct, conjugate


def envelope_value(problem, phi, x, lam, path="direct", tol=1e-10):
    """The envelope at x by the requested evaluation path."""
    if path not in ("direct", "conjugate"):
        raise ValueError("path must be 'direct' or 'conjugate'")
    x = np.asarray(x, dtype=float)
    x_hat = bregman_prox_point(problem, phi, x, lam, tol=tol)
    _, direct, conjugate = _envelope_values(problem, phi, x, x_hat, lam)
    return direct if path == "direct" else conjugate


def envelope_gradient(problem, phi, x, lam, tol=1e-10):
    """grad env(x) = (1/lam) hessian_phi(x) (x - prox(x))."""
    x = np.asarray(x, dtype=float)
    x_hat = bregman_prox_point(problem, phi, x, lam, tol=tol)
    return phi.hessian_apply(x, x - x_hat) / lam


def stationarity(problem, phi, x, lam, tol=1e-10, x_hat=None):
    """Full stationarity report at x.

    The divergence field D(prox(x), x) is the convergence metric of the
    weakly convex rate theory.  lower_bound_check is
    sqrt(D) - (lam/sqrt(2)) * ||grad env||_x^* when phi declares a strong
    convexity modulus >= 1, and None otherwise (the bound is then not
    claimed, so it is flagged rather than guessed).  x_hat is prox(x) when
    the caller has already solved it (bregman_prox_points), else it is
    solved here.
    """
    x = np.asarray(x, dtype=float)
    if x_hat is None:
        x_hat = bregman_prox_point(problem, phi, x, lam, tol=tol)
    div, direct, conjugate = _envelope_values(problem, phi, x, x_hat, lam)
    if abs(direct - conjugate) > 1e-6 * (1.0 + abs(direct)):
        raise RuntimeError(
            "direct and conjugate envelope values disagree: %.12g vs %.12g"
            % (direct, conjugate))
    grad = phi.hessian_apply(x, x - x_hat) / lam
    dual = phi.local_dual_norm(x, grad)
    modulus = phi.strong_convexity_modulus
    check = None
    if modulus is not None and modulus >= 1.0:
        check = float(np.sqrt(max(div, 0.0)) - (lam / np.sqrt(2.0)) * dual)
    return EnvelopeReport(x_hat, div, direct, conjugate, grad, dual, check)
