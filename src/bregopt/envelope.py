"""Bregman-Moreau envelope diagnostics.

Stationarity of a weakly convex composite F = f + r is measured through the
envelope

    env(x) = inf_y { F(y) + (1/lam) D(y, x) }

and its proximal point x_hat = argmin of the same subproblem.  The distance
D(x_hat, x) is the quantity the outer algorithms drive to zero; the envelope
is differentiable with

    grad env(x) = (1/lam) hessian_phi(x) (x - x_hat),

and when phi is 1-strongly convex the square root of D(x_hat, x) dominates
(lam/sqrt(2)) times the local dual norm of that gradient.  One report
(stationarity, or stationarity_rows over many points) holds every quantity
from one prox point per point: D(x_hat, x), the gradient above and the
envelope by two independent evaluation paths, the direct infimum and the
convex-conjugate assembly

    env(x) = -(F + phi/lam)^*(grad phi(x)/lam) - phi(x)/lam
             + <grad phi(x), x>/lam,

whose agreement is enforced as a runtime cross-check.  The diagnostic is
always computed offline on recorded iterates, never inside an algorithm
loop.  The prox points of many iterates are one batch through the exact
objective's row form, problem.objective (P1's pieces, P2's smooth rows,
P5's norm term, P6's quadratic), by the path subproblem.step_plan picks,
and their reports one row pass, of which the report at one point is the
one-row case.
"""

from collections import namedtuple

import numpy as np

from .legendre import DomainError, dot_rows, take_rows
# prox_step stays bound here: perfbench/tracing.py wraps envelope.prox_step
from .subproblem import prox_step, prox_step_rows  # noqa: F401


class EnvelopeReport(namedtuple("EnvelopeReport", "prox_point divergence envelope_value_direct "
                                 "envelope_value_conjugate envelope_gradient "
                                 "local_dual_norm_of_gradient lower_bound_check")):
    """Stationarity diagnostics at one point, or at the rows of an (N, d)
    array with one entry (one row of the points and gradients) per point."""

    __slots__ = ()

    row = take_rows  # the report of the rows idx


def _weak_modulus(problem):
    c = problem.oracle.constants
    return c.tau + c.rho


def _check_lambda(problem, lam):
    if lam <= 0:
        raise ValueError("smoothing parameter must be positive")
    wm = _weak_modulus(problem)
    if wm > 0 and lam * wm >= 1.0:
        raise ValueError("need lam * (tau + rho) < 1 for a convex prox subproblem")


def prox_records(problem, phi, X, lam):
    """The certified steps x -> argmin_y { F(y) + (1/lam) D(y, x) } from each
    row x of an (N, d) array, as one batch ProxStepResult: its minimizers
    are the prox points and its divergences D(prox(x), x).

    All N subproblems are solved and certified in one batch by
    prox_step_rows on the exact objective's row form (problem.objective), in
    every dimension: one kink search and one cubic root per point for P1's
    |quadratic| pieces, the secular equation for a quadratic (P6), one
    lockstep Newton for a smooth objective (P2) and the radial solve with the
    norm-term weight for a norm term (P5).  A 1-d form with no closed form
    takes one lockstep bisection on its values and gradients; in d > 1 such
    a form raises InnerSolveError (subproblem.step_plan).  Every batch is
    certified by center_certificate, at subproblem.INNER_TOL, with rho = tau
    + rho of the oracle.
    """
    _check_lambda(problem, lam)
    return prox_step_rows(problem.objective, problem.regularizer, phi,
                          np.asarray(X, dtype=float), lam, rho=_weak_modulus(problem))


def bregman_prox_points(problem, phi, X, lam):
    """argmin_y { F(y) + (1/lam) D(y, x) } for each row x of an (N, d)
    array: the minimizers of prox_records."""
    return prox_records(problem, phi, X, lam).minimizer


def bregman_prox_point(problem, phi, x, lam):
    """argmin_y { F(y) + (1/lam) D(y, x) } for the exact objective F."""
    x = np.asarray(x, dtype=float)
    return bregman_prox_points(problem, phi, x[None, :], lam)[0]


def _envelope_values(problem, phi, X, X_hat, lam):
    """D(x_hat, x) and the direct and conjugate envelope values at the rows
    x of X, from one value pass over (X, X_hat), one gradient pass at X and
    F at X_hat in one row pass (problem.exact_F_rows)."""
    F_hat = problem.exact_F_rows(X_hat)
    vx, v_hat = phi.value_rows(np.concatenate((X, X_hat))).reshape(2, -1)
    if not np.isfinite(v_hat).all():
        raise DomainError("the proximal point must lie in dom(phi)")
    GX = phi.gradient_rows(X)
    div = v_hat - vx - dot_rows(GX, X_hat - X)
    direct = F_hat + div / lam
    U = GX / lam
    # (F + phi/lam)^* at u; the supremum is attained at the proximal point
    conj = dot_rows(U, X_hat) - F_hat - v_hat / lam
    conjugate = -conj - vx / lam + dot_rows(GX, X) / lam
    return div, direct, conjugate


def stationarity_rows(problem, phi, X, lam, *, X_hat=None):
    """The stationarity reports at the rows of an (N, d) array X, as one
    EnvelopeReport over the rows, each row's bit for bit (every pass is row
    by row).

    The divergence field D(prox(x), x) is the convergence metric of the
    weakly convex rate theory.  lower_bound_check is
    sqrt(D) - (lam/sqrt(2)) * ||grad env||_x^* when phi declares a strong
    convexity modulus >= 1, and None otherwise (the bound is then not
    claimed, so it is flagged rather than guessed).  X_hat holds the prox
    points when the caller has already solved them, else they are solved
    here in one batch.  A row whose direct and conjugate envelope values
    disagree raises RuntimeError.
    """
    X = np.asarray(X, dtype=float)
    if X_hat is None:
        X_hat = bregman_prox_points(problem, phi, X, lam)
    div, direct, conjugate = _envelope_values(problem, phi, X, X_hat, lam)
    bad = np.flatnonzero(np.abs(direct - conjugate) > 1e-6 * (1.0 + np.abs(direct)))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            "direct and conjugate envelope values disagree: %.12g vs %.12g (row %d)"
            % (direct[i], conjugate[i], i))
    grad = phi.hessian_apply(X, X - X_hat) / lam
    dual = phi.local_dual_norm_rows(X, grad)
    modulus = phi.strong_convexity_modulus
    check = None
    if modulus is not None and modulus >= 1.0:
        check = np.sqrt(np.maximum(div, 0.0)) - (lam / np.sqrt(2.0)) * dual
    return EnvelopeReport(X_hat, div, direct, conjugate, grad, dual, check)


def stationarity(problem, phi, x, lam, *, x_hat=None):
    """Full stationarity report at x: the one-row case of stationarity_rows.
    x_hat is prox(x) when the caller has already solved it, else it is
    solved here."""
    x = np.asarray(x, dtype=float)[None, :]
    x_hat = None if x_hat is None else np.asarray(x_hat, dtype=float)[None, :]
    return stationarity_rows(problem, phi, x, lam, X_hat=x_hat).row(0)
