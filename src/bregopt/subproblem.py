"""Bregman proximal subproblems.

Each outer iteration solves

    argmin_x  model(x) + r(x) + (1/eta) D(x, z)

for a convex (or relatively weakly convex) sampled model, a simple closed
regularizer r, and the run's Legendre function phi.  A model is its row form
(AffineRows, ProxLinearRows, NormTermRows, QuadraticRows, AbsQuadraticRows
or SmoothRows): values and gradients (a subgradient selection) over the
rows of an (N, d) array; the atoms of linear models that move with their
centres (ProxLinearRows, TangentRows) give their slopes there.  Every step
goes through one dispatch on that form, made once per loop or batch
(step_plan): the affine or |affine| closed form, the norm shrinkage, the
scalar secular equation of a quadratic under a radial phi, one kink search
and one cubic root for a 1-d sum of |quadratic| terms, or one lockstep
Newton; a 1-d form with none of these takes the certified bisection on its
values and gradients.  Every returned step carries a three-point
optimality residual, the runtime contract

    g(x) + D(x, z) >= g(z+) + D(z+, z) + D(x, z+)   for all feasible x,

which holds with residual >= 0 exactly when z+ is the true minimizer.
"""

from collections import namedtuple
from functools import partial

import numpy as np

from .legendre import (Burg, DomainError, Euclidean, RowState, ShannonEntropy, dot_rows,
                       norm_rows)


class InnerSolveError(RuntimeError):
    """Inner solver failed to certify the requested tolerance."""


ETA_FLOOR = 1e-14  # below this the prox step is a numerical no-op
# the log of the largest total magnitude an entropic step's record may sum
# (float max over e^4, room for the certificate's handful of such sums)
_FLOAT_MAX = np.finfo(float).max
_LOG_RECORD_MAX = float(np.log(_FLOAT_MAX)) - 4.0
# below this norm the squares of a row's entries lose digits in the subnormals
_NORM_UNDERFLOW = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))
PowerTerms = namedtuple("PowerTerms", "a e closed a1 a3 const terms slopes cap")


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class Regularizer:
    """Closed convex regularizer r with a simple prox structure.

    value_rows gives r at each row of an (N, d) array; value is its one-row
    case.
    """

    kind = "abstract"
    bounds = (-np.inf, np.inf)  # dom r in one dimension, [lo, hi]

    def value_rows(self, X):
        raise NotImplementedError

    def value(self, x):
        return float(self.value_rows(np.asarray(x, dtype=float)[None, :])[0])

    def subgradient(self, x):
        """A subgradient selection at an interior point of dom r."""
        return np.zeros(np.asarray(x, dtype=float).shape)

    def inf_value(self, dim):
        """inf r over points of dimension dim, used by the theoretical rate
        bounds."""
        return 0.0


def _on_simplex(X, tol):
    return (X >= -tol).all(axis=1) & (np.abs(X.sum(axis=1) - 1.0) <= tol)


class ZeroRegularizer(Regularizer):
    kind = "zero"

    def value_rows(self, X):
        return np.zeros(len(X))


class SimplexIndicator(Regularizer):
    """Indicator of the probability simplex {x >= 0, sum x = 1}."""

    kind = "indicator_simplex"
    bounds = (1.0, 1.0)

    def __init__(self, tol=1e-9):
        self.tol = tol

    def value_rows(self, X):
        return np.where(_on_simplex(np.asarray(X, dtype=float), self.tol), 0.0, np.inf)


class BallIndicator(Regularizer):
    """Indicator of the centered Euclidean ball of the given radius."""

    kind = "indicator_ball"

    def __init__(self, radius, tol=1e-9):
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)
        self.bounds = (-self.radius, self.radius)
        self.tol = tol

    def value_rows(self, X):
        return np.where(norm_rows(X) <= self.radius * (1 + self.tol), 0.0, np.inf)


class L1Regularizer(Regularizer):
    kind = "l1"

    def __init__(self, weight):
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def value_rows(self, X):
        return self.weight * np.sum(np.abs(X), axis=1)

    def subgradient(self, x):
        return self.weight * np.sign(np.asarray(x, dtype=float))


class QuadraticRegularizer(Regularizer):
    kind = "quadratic"

    def __init__(self, weight):
        if weight < 0:
            raise ValueError("quadratic weight must be nonnegative")
        self.weight = float(weight)

    def value_rows(self, X):
        return 0.5 * self.weight * dot_rows(X, X)

    def subgradient(self, x):
        return self.weight * np.asarray(x, dtype=float)


class EntropyLike(Regularizer):
    """weight * sum_i x_i log x_i restricted to the probability simplex.

    Relative to the entropy Legendre function this is exactly weight-strongly
    convex, which is what the strongly convex rate regime exercises.
    """

    kind = "entropy_like"
    bounds = (1.0, 1.0)

    def __init__(self, weight, tol=1e-9):
        if weight < 0:
            raise ValueError("entropy tilt weight must be nonnegative")
        self.weight = float(weight)
        self.tol = tol
        self._entropy = ShannonEntropy()

    def value_rows(self, X, entropy=None):
        """r at the rows of X; entropy, when given, is their sum x log x."""
        X = np.asarray(X, dtype=float)
        if entropy is None:
            entropy = self._entropy.value_rows(np.maximum(X, 0.0))
        return np.where(_on_simplex(X, self.tol), self.weight * entropy, np.inf)

    def inf_value(self, dim):
        # entropy over the simplex is minimized at the uniform distribution
        return -self.weight * np.log(dim)


class ProxStepResult:
    """Outcome of one Bregman proximal step z -> y.

    divergence is D(y, z); model_value and r_value are the model and r at y.
    method names the path: closed_form_affine, closed_form_abs_affine,
    closed_form_norm, closed_form_abs_quadratic, bisection_1d, secular,
    newton or degenerate_eta.  For a batch of steps (prox_step_rows) every
    field but method and inner_iterations (the most any row used) holds one
    entry per row, and state is the minimizers' RowState (the next centres).
    """

    def __init__(self, minimizer, inner_iterations, three_point_residual,
                 objective_decrease, divergence, method, model_value, r_value,
                 state=None):
        self.minimizer = np.asarray(minimizer, dtype=float)
        self.inner_iterations = int(inner_iterations)
        self.three_point_residual = three_point_residual
        self.objective_decrease = objective_decrease
        self.divergence = divergence
        self.method = method
        self.model_value = model_value
        self.r_value = r_value
        self.state = state

    def row(self, i):
        """The step of row i of a batch, as a one-point result."""
        return ProxStepResult(self.minimizer[i], self.inner_iterations,
                              self.three_point_residual[i],
                              self.objective_decrease[i], self.divergence[i],
                              self.method, self.model_value[i], self.r_value[i])


class ThreePointReport:
    def __init__(self, min_residual, worst_probe, n_probes):
        self.min_residual = float(min_residual)
        self.worst_probe = worst_probe
        self.n_probes = int(n_probes)


def check_three_point(g_value, phi, z, z_plus, probe_points):
    """Minimum three-point residual of z_plus over the probe set.

    residual(x) = [g(x) + D(x, z)] - [g(z+) + D(z+, z) + D(x, z+)].
    A true minimizer of g + D(., z) yields min >= 0 over any feasible
    probes; probes at which g is infinite are skipped.  For a prox step
    with step size eta the caller folds the scaling into g, i.e. passes
    g = eta * (model + r).
    """
    z = np.asarray(z, dtype=float)
    z_plus = np.asarray(z_plus, dtype=float)
    base = g_value(z_plus) + phi.bregman(z_plus, z)
    probes = [np.asarray(x, dtype=float) for x in probe_points]
    gx = np.array([g_value(x) for x in probes], dtype=float)
    used = np.flatnonzero(np.isfinite(gx))
    if used.size == 0:
        raise ValueError("no feasible probe points supplied")
    # the feasible probes' two divergences in one row pass each
    X = np.reshape(probes, (len(probes), -1))[used]
    res = (gx[used] + phi.bregman_rows(X, np.tile(z, (used.size, 1))) - base
           - phi.bregman_rows(X, np.tile(z_plus, (used.size, 1))))
    # the first smallest residual; a NaN residual is never the worst
    res = np.where(res < np.inf, res, np.inf)
    i = int(np.argmin(res))
    if res[i] == np.inf:
        return ThreePointReport(np.inf, None, used.size)
    return ThreePointReport(res[i], probes[used[i]], used.size)


def center_certificate(psi_z, psi_y, d_yz, d_zy, eta, rho, tol):
    """Certified three-point residual of prox steps z -> y at the probe x = z.

    psi = model + r.  A rho-weakly convex objective is certified through the
    convexified split g = eta (psi + rho D(., z)) against the remaining
    (1 - eta rho) fraction of the divergence, the inequality the convergence
    analysis uses (rho = 0: the plain one); at x = z check_three_point's
    residual reads

        eta (psi(z) - psi(y)) - D(y, z) - (1 - eta rho) D(z, y).

    Each of its four terms is evaluated to within a few units u of roundoff
    of its own magnitude (or of 1, for a difference of values of order one),
    and the sum adds at most 3 u times their total magnitude, so a correct
    step misses 0 by a small multiple of u times

        scale = 1 + eta |psi(z)| + eta |psi(y)| + D(y, z) + (1 - eta rho) D(z, y),

    and tol, far above u, bounds the residual below by -tol * scale: a step
    with large divergences (an entropic D(y, z) = 4e13) is held to the same
    relative accuracy as a small one.  The arguments may be arrays of a
    batch.  Raises InnerSolveError below -tol * scale, or at a residual that
    is not a finite number from a feasible center (a minimizer outside dom r
    reads -inf against an infinite scale), with the first such row as its
    attribute row, and then DomainError if a center is infeasible; returns
    the residuals.
    """
    d_zy = (1.0 - eta * rho) * d_zy
    res = eta * (psi_z - psi_y) - d_yz - d_zy
    scale = tol * (1.0 + eta * (np.abs(psi_z) + np.abs(psi_y)) + np.abs(d_yz)
                   + np.abs(d_zy))
    bad = np.flatnonzero(np.logical_not((res >= -scale) & (np.abs(res) < np.inf))
                         & (psi_z != np.inf))
    if bad.size:
        i = bad[0]
        err = InnerSolveError(
            "prox step %d of %d missed tolerance: three-point residual "
            "%.3e < -%.3e" % (i, np.size(res), np.ravel(res)[i], np.ravel(scale)[i]))
        err.row = int(i)
        raise err
    if not np.isfinite(psi_z).all():
        raise DomainError("prox centers must be feasible for the objective")
    return res


def record_rows(values, phi, Z, Y, eta, rho=0.0, tol=1e-10):
    """The record of prox steps from the centres' RowState Z to the
    minimizers' RowState Y: (the models at Y, psi = model + r at Z,
    D(y, z), the center_certificate residuals).  values maps an (N, d) array
    to the models at its rows, row i's model at row i.  Every pass is row by
    row, so several steps' rows record in one call bit for bit as each step
    would alone, and eta may hold one step size per row.  Raises as
    center_certificate.
    """
    d_yz, d_zy = phi.bregman_pair(Y, Z)
    model_y = values(Y.points)
    psi_z = values(Z.points) + Z.r
    return (model_y, psi_z, d_yz,
            center_certificate(psi_z, model_y + Y.r, d_yz, d_zy, eta, rho, tol))


def _recorded(values, reg, phi, Z, found, eta, rho, tol):
    """The ProxStepResult of a solve's found = (minimizers, their mirror
    coordinates or None, inner iterations, method) from the centres'
    RowState Z: the minimizers' state (phi.state_at) and record_rows."""
    Y, mirror, its, method = found
    Y = phi.state_at(Y, phi.mirror_rows(Y) if mirror is None else mirror, reg)
    model_y, psi_z, d_yz, res = record_rows(values, phi, Z, Y, eta, rho, tol)
    return ProxStepResult(Y.points, its, res, psi_z - (model_y + Y.r + d_yz / eta),
                          d_yz, method, model_y, Y.r, Y)


def _check_step(eta, rho):
    if eta <= 0:
        raise ValueError("step size eta must be positive")
    if rho < 0:
        raise ValueError("weak convexity constant rho must be nonnegative")
    if eta * rho >= 1.0:
        raise ValueError("need eta * rho < 1 for a convex subproblem")


# ---------------------------------------------------------------------------
# scalar machinery for radial phi
# ---------------------------------------------------------------------------

def power_terms(coefs, powers):
    """The terms of the kernel sum_k c_k r^p_k (c_k > 0) that its scalar
    equations read, prepared once: s(r) = sum_k a_k r^e_k (a_k = c_k p_k,
    e_k = p_k - 1) as the arrays a, e (solve_monotone_power), whether the
    powers are {2, 4} and that case's cubic a1 r + a3 r^3 (_radial_root);
    _secular's A(r) = s(r)/r = const + sum_k a_k r^(e_k - 1) over terms
    (e_k > 1) and A'(r) over slopes; cap, up to which s does not overflow,
    with s(cap) >= min(1, a) M / (4 n) (n terms, M the largest float)."""
    c, p = np.asarray(coefs, dtype=float), np.asarray(powers, dtype=float)
    a, e = (c * p)[c > 0.0], (p - 1.0)[c > 0.0]
    pairs = list(zip(a.tolist(), e.tolist()))
    terms = [(ak, ek - 1.0) for ak, ek in pairs if ek > 1.0]
    cap = np.minimum.reduce((_FLOAT_MAX / (4.0 * a.size * np.maximum(a, 1.0))) ** (1.0 / e))
    return PowerTerms(a, e, {ek for _, ek in pairs} == {1.0, 3.0},
                      a[e == 1.0].sum(), a[e == 3.0].sum(),
                      sum((ak for ak, ek in pairs if ek == 1.0), 0.0), terms,
                      [(ak * ek, ek - 1.0) for ak, ek in terms], cap)


def solve_monotone_power(power, target, tol=1e-14, max_iter=200):
    """Root of s(r) = sum_k a_k r^e_k = target over r >= 0 for the
    power_terms power, unique since s is increasing and convex.

    Each entry g starts from the upper bound min_k (g/a_k)^(1/e_k), exact
    for one term, from which Newton descends monotonically.  The start is
    returned when every entry has |s(r) - g| <= tol (1 + g); the entries
    above take Newton steps in lockstep.  target may have any shape; entries
    <= 0 give 0.  A non-finite target, or an entry unsolved after max_iter
    steps, raises InnerSolveError.  (The radial steps take the closed form
    of the powers {2, 4} instead, _radial_root.)
    """
    a, e = power[:2]
    target = np.asarray(target, dtype=float)
    g = target.reshape(-1)
    if not np.logical_and.reduce(np.isfinite(g)):
        raise InnerSolveError("radial scale equation needs a finite target")
    g = np.where(g > 0.0, g, 0.0)
    r = np.minimum.reduce((g[:, None] / a) ** (1.0 / e), axis=1)
    f = np.add.reduce(a * r[:, None] ** e, axis=1) - g
    scale = tol * (1.0 + g)
    busy = np.abs(f) > scale
    if not np.logical_or.reduce(busy):
        return r.reshape(target.shape)
    idx = np.flatnonzero(busy)
    for _ in range(max_iter):
        ri = r[idx]
        r[idx] = ri = ri - f[busy] / np.add.reduce(a * e * ri[:, None] ** (e - 1.0), axis=1)
        f = np.add.reduce(a * ri[:, None] ** e, axis=1) - g[idx]
        busy = np.abs(f) > scale[idx]
        if not np.logical_or.reduce(busy):
            return r.reshape(target.shape)
        idx = idx[busy]
    raise InnerSolveError("radial scale equation unsolved after %d Newton steps" % max_iter)


def _cubic_root(a1, a3, g):
    """Root of a1 r + a3 r^3 = g (a1, a3 > 0, g >= 0, entrywise) in the
    hyperbolic form 2 sqrt(P/3) sinh(asinh(1.5 sqrt(3/P) g/a1) / 3),
    P = a1/a3, which has no cancellation for small g."""
    x = 1.5 * (3.0 * a3 / a1) ** 0.5 * g / a1
    return 2.0 * (a1 / (3.0 * a3)) ** 0.5 * np.sinh(np.arcsinh(x) / 3.0)


def _radial_root(power, g):
    """The root r >= 0 of s(r) = g >= 0 entrywise for the power_terms power:
    _cubic_root for the powers {2, 4}, else solve_monotone_power."""
    return (_cubic_root(power.a1, power.a3, g) if power.closed
            else solve_monotone_power(power, g))


def _radial_solver(power, radius, V, Z, eta):
    """argmin <v_i, x> + (1/eta) D(x, z_i) (+ ball indicator) per row, radial
    phi, and the minimizers' mirror coordinates (None if a row is clipped).

    Writes the optimality condition grad phi(x) = W = grad phi(z) - eta v,
    which forces x = s * u along u = W / |W|; the scalar s is the root of
    s(r) = |W| for the power_terms power (_radial_root), clipped at the ball
    radius unless it is None (valid because the radial objective is
    increasing in s beyond the unconstrained root).  grad phi at Z is its
    mirror coordinates, and W is the minimizer's where no row is clipped.  A
    row whose square underflows (norm below _NORM_UNDERFLOW) takes its norm
    scaled by its largest entry.
    """
    W = Z.mirror - eta * V
    g = norm_rows(W)
    if np.minimum.reduce(g, initial=np.inf) < _NORM_UNDERFLOW:
        tiny = np.flatnonzero(g < _NORM_UNDERFLOW)
        m = np.abs(W[tiny]).max(axis=1, keepdims=True)
        U = np.divide(W[tiny], m, out=np.zeros((tiny.size, W.shape[1])), where=m > 0.0)
        g[tiny] = m[:, 0] * norm_rows(U)
    s, M = _radial_root(power, g), W
    if radius is not None and np.logical_or.reduce(s > radius):
        s, M = np.minimum(s, radius), None
    return np.divide(s, g, out=np.zeros(g.shape), where=g > 0.0)[:, None] * W, M


def _log_softmax(logits):
    """(exp(L), L) for L the log-softmax of each row (last axis) of logits."""
    L = logits - logits.max(axis=-1, keepdims=True)
    L = L - np.log(np.exp(L).sum(axis=-1, keepdims=True))
    return np.exp(L), L


def _check_entropic_range(log_y, Z, v, eta):
    """Refuse zero-r entropic steps z -> y = exp(log y) whose record could
    overflow, before anything is computed from y.

    The record of a row (its states' sums y log y, both divergences
    sum y (log y - log z) - sum y + sum z and its mirror image, the models
    <v, y> and <v, z> and eta times them in the certificate) sums terms of
    magnitude at most (y_i + z_i) w_i, w_i = 1 + |log y_i| + |log z_i|
    + (1 + eta) |v_i|.  Their total is bounded in log space, by
    max_i (log(y_i + z_i) + log w_i) + log d, and a row above
    _LOG_RECORD_MAX raises InnerSolveError.
    """
    w = 1.0 + np.abs(log_y) + np.abs(Z.mirror) + (1.0 + eta) * np.abs(v)
    bound = (np.logaddexp(log_y, Z.mirror) + np.log(w)).max(axis=-1) + np.log(log_y.shape[-1])
    if not (bound <= _LOG_RECORD_MAX).all():
        raise InnerSolveError(
            "entropic prox step leaves the float range: its record sums terms up "
            "to e^%.6g > e^%.6g (largest log y %.6g)"
            % (np.max(bound), _LOG_RECORD_MAX, np.max(log_y)))


def _scan_logits(V, M0, etas, mu):
    """The (K, S, d) logits whose log-softmax is log y after each of K
    entropic steps from log z = M0 (S, d) under the simplex (mu None) or
    the tilt of weight mu, or None when a cumulative factor leaves the
    floats.

    Under the simplex a step's log-softmax ignores a shift of its row, so
    after k steps the logits are M0 - sum_{j<k} eta_j v_j.  Under the tilt a
    step maps U to (U - eta v)/(1 + eta mu), up to such a shift, and with
    D_k = prod_{j<k} (1 + eta_j mu) the recurrence in cumulative form is
    U_k = (M0 - sum_{j<k} eta_j D_j v_j) / D_k.  For K = 1 both are the
    one-step formulas of _affine_solver, bit for bit."""
    if mu is None:
        return M0 - np.cumsum(etas[:, None, None] * V, axis=0)
    D = np.cumprod(1.0 + etas * mu)
    if not np.isfinite(D[-1]):
        return None
    D_prev = np.concatenate(([1.0], D[:-1]))
    return (M0 - np.cumsum((etas * D_prev)[:, None, None] * V, axis=0)) / D[:, None, None]


def _affine_scan(reg, phi):
    """(V, Z, etas) -> K consecutive affine prox steps in one pass, the
    minimizers (K, S, d) and their log y, for ShannonEntropy under the
    simplex or the entropy-like tilt; None for every other (r, phi).

    Z is the RowState of the first (S, d) centres, V the (K, S, d) slopes of
    the K steps and etas their (K,) step sizes, each step starting from the
    minimizers of the one before.  The slopes do not depend on the centres
    (LinearMirrorOracle's slope_table), so the steps are one cumulative sum
    in mirror coordinates (_scan_logits) along the steps only: a row's bits
    do not depend on the other rows.  A step with eta < ETA_FLOOR keeps its
    centre (the plan's degenerate_eta); a chunk with such a step, or whose
    sums leave the floats, is scanned as two halves, and one step is
    _affine_solver's step bit for bit.
    """
    if (not isinstance(phi, ShannonEntropy)
            or reg.kind not in ("indicator_simplex", "entropy_like")):
        return None
    mu = reg.weight if reg.kind == "entropy_like" else None

    def scan(V, Z, etas):
        K = len(etas)
        if K == 1:
            if etas[0] < ETA_FLOOR:
                return Z.points[None], Z.mirror[None]
            return _log_softmax(_scan_logits(V, Z.mirror, etas, mu))
        if etas.min() >= ETA_FLOOR:
            with np.errstate(over="ignore", invalid="ignore"):
                out = _scan_logits(V, Z.mirror, etas, mu)
            if out is not None and np.isfinite(out).all():
                return _log_softmax(out)
        h = K // 2
        Y, L = scan(V[:h], Z, etas[:h])
        Y2, L2 = scan(V[h:], RowState(Y[-1], L[-1], None, None), etas[h:])
        return np.concatenate((Y, Y2)), np.concatenate((L, L2))

    return scan


# ---------------------------------------------------------------------------
# closed-form dispatch for affine models
# ---------------------------------------------------------------------------

def _affine_solver(reg, phi):
    """(V, Z, eta) -> (argmin <v_i, x> + r(x) + (1/eta) D(x, z_i), its mirror
    coordinates or None) in closed form, chosen once for (r, phi), or None.

    Z is the RowState of (S, d) centers and V an (S, d) array of slopes, one
    subproblem per row.  The entropic steps are taken in log space from
    log z, Z's mirror coordinates, and return log y with y = exp(log y):
    log z - eta v (r = 0), its log-softmax (simplex), and the log-softmax of
    (log z - eta v)/(1 + eta mu) (entropy-like tilt).
    """
    euclid = isinstance(phi, Euclidean)
    entropy = isinstance(phi, ShannonEntropy)
    terms = phi.radial_terms()

    if reg.kind == "zero":
        if euclid:
            return lambda v, Z, eta: (Z.points - eta * v, None)
        if entropy:
            def entropic(v, Z, eta):
                log_y = Z.mirror - eta * v
                _check_entropic_range(log_y, Z, v, eta)
                return np.exp(log_y), log_y

            return entropic
        if isinstance(phi, Burg):
            def burg(v, Z, eta):
                # grad phi(z) = -1/z
                w = eta * v - Z.mirror
                if np.any(w <= 0):
                    raise InnerSolveError("Burg prox subproblem is unbounded below")
                return 1.0 / w, None

            return burg
        if terms is not None:
            return partial(_radial_solver, power_terms(*terms), None)
    elif reg.kind == "indicator_simplex" and entropy:
        return lambda v, Z, eta: _log_softmax(Z.mirror - eta * v)
    elif reg.kind == "entropy_like" and entropy:
        return lambda v, Z, eta: _log_softmax((Z.mirror - eta * v) / (1.0 + eta * reg.weight))
    elif reg.kind == "indicator_ball":
        if euclid:
            radius = reg.radius

            def ball(v, Z, eta):
                # the points are their own mirror coordinates
                u = Z.points - eta * v
                n = norm_rows(u)[..., None]
                y = np.divide(radius, n, out=np.ones(n.shape), where=n > radius) * u
                return y, y

            return ball
        if terms is not None:
            return partial(_radial_solver, power_terms(*terms), reg.radius)
    elif reg.kind == "l1" and euclid:
        def l1(v, Z, eta):
            u = Z.points - eta * v
            return np.sign(u) * np.maximum(np.abs(u) - eta * reg.weight, 0.0), None

        return l1
    elif reg.kind == "quadratic" and euclid:
        return lambda v, Z, eta: ((Z.points - eta * v) / (1.0 + eta * reg.weight), None)
    return None


def _norm_term_rows(reg, rows, Z, eta):
    """The path of NormTermRows <v_i, x> + c||x||: Euclidean phi, r zero or a ball."""
    U = Z.points - eta * np.asarray(rows.slopes, dtype=float)
    n = norm_rows(U)
    s = np.maximum(n - eta * rows.weight, 0.0)
    if reg.kind == "indicator_ball":
        s = np.minimum(s, reg.radius)
    Y = np.divide(s, n, out=np.zeros(n.shape), where=n > 0.0)[:, None] * U
    return Y, None, 1, "closed_form_norm"


class AffineRows(namedtuple("AffineRows", "slopes offsets absolute")):
    """Sampled models over rows: row i's model is offsets[i] + <slopes[i], y>,
    or its absolute value when absolute is True (the prox-linear model of an
    absolute outer function)."""

    __slots__ = ()

    def values(self, Y):
        """Each row's model at the matching row of Y."""
        v = self.offsets + dot_rows(self.slopes, Y)
        return np.abs(v) if self.absolute else v

    def gradients(self, Y):
        """Each row's slope at the matching row of Y, times the sign of the
        level for |affine| (the zero slope at the kink)."""
        G = np.broadcast_to(self.slopes, np.broadcast_shapes(np.shape(Y), self.slopes.shape))
        if self.absolute:
            return np.sign(self.offsets + dot_rows(self.slopes, Y))[..., None] * G
        return G

    def affine(self, X):
        """The slopes and offsets of the rows at the centres X."""
        return self.slopes, self.offsets


def linear_model(v, offset=0.0):
    """The one-row AffineRows of offset + <v, y>."""
    v = np.asarray(v, dtype=float)
    return AffineRows(v[None, :], np.array([float(offset)]), False)


def absolute_affine_model(g, s):
    """The one-row AffineRows of |<g, y> + s|."""
    return AffineRows(np.asarray(g, dtype=float)[None, :], np.array([float(s)]), True)


class ProxLinearRows(namedtuple("ProxLinearRows", "a2 b")):
    """The atoms of 1-d prox-linear models |c + c'(y - x)|, c = a2 x^2 - b,
    over rows; affine gives them at the centres X as |affine| AffineRows."""

    __slots__ = ()
    absolute = True

    def affine(self, X):
        a2, x = self.a2, X[..., 0]
        g = 2.0 * a2 * x
        return g[..., None], a2 * x * x - self.b - g * x


class NormTermRows(namedtuple("NormTermRows", "slopes weight")):
    """Models <slopes[i], y> + weight ||y|| over rows; one slope row stands
    for every row."""

    __slots__ = ()

    def values(self, Y):
        return dot_rows(self.slopes, Y) + self.weight * norm_rows(Y)

    def gradients(self, Y):
        """slopes + weight y / ||y|| at each row of Y, the slopes at y = 0."""
        return self.slopes + self.weight_slopes(Y)

    def weight_slopes(self, Y):
        """weight y / ||y|| at each row of Y (0 at y = 0): the norm term's part."""
        n = norm_rows(Y)[..., None]
        return np.divide(self.weight, n, out=np.zeros(n.shape), where=n > 0.0) * Y


class TangentRows(namedtuple("TangentRows", "slope_fn shift")):
    """Linear models over rows whose slopes at the centres x_i are
    slope_fn(x_i) + shift[i], given without their offsets: what a step reads
    of models that its centres anchor (P2's gradient plus noise, P5's inner
    argmax plus atom)."""

    __slots__ = ()
    absolute = False

    def gradients(self, X):
        return self.slope_fn(X) + self.shift


class SmoothRows(namedtuple("SmoothRows", "values gradients hessians")):
    """Smooth models over rows: values, gradients and hessians map an (N, d)
    array Y to the N values, the (N, d) gradients and the (N, d, d) Hessians
    of row i's model at row i of Y."""

    __slots__ = ()


class QuadraticRows(namedtuple("QuadraticRows", "Q centers offsets eigvals eigvecs")):
    """Convex quadratic models over rows: row i's model is
    offsets[i] + (1/2) (y - centers[i])' Q[i] (y - centers[i]), with the
    eigenpairs Q[i] = eigvecs[i] diag(eigvals[i]) eigvecs[i]' of its
    symmetric positive definite Q[i].  Every field acts on the last axes
    (one point and one atom give the one-row case), and one row stands for
    every row of a batch.  values, gradients and hessians are the
    SmoothRows callbacks, for a phi that has no secular step."""

    __slots__ = ()

    @classmethod
    def of(cls, Q, centers, offsets):
        """The rows of the given quadratics, with their eigenpairs."""
        Q = np.asarray(Q, dtype=float)
        lam, U = np.linalg.eigh(Q)
        return cls(Q, np.asarray(centers, dtype=float), np.asarray(offsets, dtype=float),
                   lam, U)

    def gradients(self, Y):
        # elementwise products summed over the last axis: one row's
        # arithmetic whatever the batch
        return (self.Q * (Y - self.centers)[..., None, :]).sum(axis=-1)

    def values(self, Y):
        D = Y - self.centers
        QD = (self.Q * D[..., None, :]).sum(axis=-1)
        return self.offsets + 0.5 * (D * QD).sum(axis=-1)

    def hessians(self, Y):
        shape = np.broadcast_shapes(np.shape(Y), self.centers.shape)
        return np.broadcast_to(self.Q, shape + shape[-1:])


class AbsQuadraticRows(namedtuple("AbsQuadraticRows", "kinks curvatures offsets")):
    """The 1-d model f(y) = sum_i w_i |a_i^2 y^2 - b_i| (robust phase
    retrieval) as its pieces: kinks is the sorted array K of its n distinct
    kinks +-sqrt(b_i)/|a_i|, and on piece j (K_{j-1} < y <= K_j, with
    K_{-1} = -inf and K_n = +inf) f(y) = curvatures[j] y^2 + offsets[j].
    f' jumps up at every kink.  One form stands for every row of a batch;
    problems.abs_quadratic_rows builds it from the atoms."""

    __slots__ = ()

    def values(self, Y):
        y = Y[:, 0]
        j = np.searchsorted(self.kinks, y)
        return self.curvatures[j] * y * y + self.offsets[j]

    def gradients(self, Y):
        """f' = 2 C_j y on each row's piece: at a kink, from its left."""
        y = Y[:, 0]
        return (2.0 * self.curvatures[np.searchsorted(self.kinks, y)] * y)[:, None]


def _abs_quadratic_rows(a0, a3, phi, rows, Z, eta):
    """The path of AbsQuadraticRows: r = 0, phi = c2 y^2 + c4 y^4, a0 = 2 c2, a3 = 4 c4.

    The minimizer y of eta f + D(., z) solves h(y) = c = phi'(z) for the
    monotone subdifferential h = eta f' + phi'.  On piece j,
    h(y) = (2 c2 + 2 eta C_j) y + 4 c4 y^3, odd and increasing when
    2 c2 + 2 eta C_j > 0; at a kink K, h jumps up from h_-(K) = 2 eta C_j K +
    phi'(K) to h_+(K) = 2 eta C_{j+1} K + phi'(K) (crossing +-k_i into
    |y| > k_i raises the slope of |a_i^2 y^2 - b_i| by 2 w_i a_i^2 |y|).  So
    with j = searchsorted(h_+(K), c) the point is K_j when h_-(K_j) <= c,
    else the root sign(c) _cubic_root(2 c2 + 2 eta C_j, 4 c4, |c|) on piece
    j: one search and one root per row, whatever the batch.  The condition
    2 c2 + 2 eta min C > 0 is checked here (None when it fails); for P1
    (c2 = 7/2, tau = (4/3) sum w a^2, min C >= -sum w a^2) it holds at every
    envelope step, as eta (tau + rho) < 1 gives eta sum w a^2 < 3/4 < c2.
    """
    K, C = rows.kinks, rows.curvatures
    a1 = a0 + 2.0 * eta * C
    if not a1.min() > 0.0:
        return None
    c = Z.mirror[:, 0]
    gk = phi.gradient_rows(K[:, None])[:, 0]
    j = np.searchsorted(2.0 * eta * C[1:] * K + gk, c)
    # h_-(K_j), +inf past the last kink
    low = np.append(2.0 * eta * C[:-1] * K + gk, np.inf)[j]
    y = np.where(low <= c, np.append(K, 0.0)[j],
                 np.sign(c) * _cubic_root(a1[j], a3, np.abs(c)))
    return y[:, None], None, 1, "closed_form_abs_quadratic"


def _abs_affine_rows(solve, power, phi, by_kink, rows, Z, eta):
    """The path of |affine| rows (AffineRows, or ProxLinearRows at the
    centres) by the affine solver of (r, phi): (minimizers, their mirror
    coordinates or None, the most affine solves of a row, method).

    Row i's minimizer is the affine prox y(theta) of the slope theta g_i for
    some theta in [-1, 1], whose level <g_i, y(theta)> + s_i is
    nonincreasing in theta.  In 1-d with r = 0 (by_kink) _abs_affine_1d
    picks each row's theta at the kink.  Otherwise the rows probe theta = +1
    (stopping at a level >= 0), then -1 (stopping at a level <= 0), and the
    rest bisect theta on the sign of the level (_bisection) inside the open
    interval where the step exists (Burg, _theta_bounds: the level tends to
    +-inf at its ends, which are never probed).  Each row then takes one
    affine solve at its theta: the minimizers and, for the entropy, their
    logs (finite where y underflows to 0.0).  A row's solves read only its
    own data, so a batch steps each row bit for bit as a one-row call.
    """
    G, s = rows.affine(Z.points)
    shape = Z.points.shape
    if G.shape[0] != shape[0]:
        # a one-row form stands for every row
        G, s = np.broadcast_to(G, shape), np.broadcast_to(s, shape[:1])
    if by_kink:
        return _abs_affine_1d(solve, power, phi, G[:, 0], s, Z, eta)
    lo, hi = _theta_bounds(phi, Z.points, G, eta)

    def level(theta, idx):
        y = solve(theta[:, None] * G[idx], Z.take(idx), eta)[0]
        return dot_rows(G[idx], y) + s[idx]

    theta = np.ones(shape[0])
    stop = np.zeros(shape[0], dtype=bool)
    up = np.flatnonzero(hi > 1.0)
    stop[up] = level(theta[up], up) >= 0.0
    down = np.flatnonzero(~stop & (lo < -1.0))
    theta[down] = -1.0
    stop[down] = level(theta[down], down) <= 0.0
    left = np.flatnonzero(~stop)
    theta[left], halvings = _bisection(np.maximum(-1.0, lo[left]), np.minimum(1.0, hi[left]),
                                       lambda mid, idx: level(mid, left[idx]) <= 0.0)
    its = 1 + (up.size > 0) + (down.size > 0) + halvings.max(initial=0)
    return (*solve(theta[:, None] * G, Z, eta), its, "closed_form_abs_affine")


def _theta_bounds(phi, Z, G, eta):
    """The open theta-interval of each row on which the affine prox step of
    the slope theta g_i exists, r = 0: all of R, except for Burg, whose step
    1/(1/z + eta theta g) needs 1/z_j + eta theta g_j > 0 in every entry."""
    if not isinstance(phi, Burg):
        inf = np.full(len(Z), np.inf)
        return -inf, inf
    # the entry j bounds theta below at t_j when g_j > 0, above when g_j < 0
    t = np.divide(-1.0, eta * Z * G, out=np.zeros(Z.shape), where=G != 0.0)
    return (np.where(G > 0.0, t, -np.inf).max(axis=1),
            np.where(G < 0.0, t, np.inf).min(axis=1))


def _abs_affine_1d(solve, power, phi, g, s, Z, eta):
    """The path of |g_i y + s_i| + (1/eta) D(y, z_i) over 1-d rows, r = 0,
    with the minimizers' mirror coordinates under a radial phi (else None).

    With w = phi'(z), the kink y0 = -s/g and k = phi'(y0), the level of the
    affine step of the slope theta g has the sign of g (w - eta theta g - k),
    phi' being increasing: a row stops at theta = +-1 where w -+ eta g
    passes k, else at y0.  So its point in the coordinates w - eta theta g
    is W, k clipped to w -+ eta |g|, and y0 where W = k; a row with g = 0
    keeps y = z.  Under a radial phi (power its power_terms) y = sign(W)
    rho(|W|) (_radial_root) and k = A(|y0|) y0, A(r) = s(r)/r, at
    |y0| <= power.cap, past which k would pass every w -+ eta g: nothing
    overflows.  Under any other phi each row takes one affine solve (solve)
    at its theta, and a kink outside int dom phi (y0 <= 0 on a positive
    domain) has k = -inf.
    """
    z, w = Z.points[:, 0], phi.gradient_from_mirror(Z.mirror)[:, 0]
    flat = g == 0.0
    if power is not None:
        y0 = -s / np.copysign(np.maximum(np.abs(g) + flat, np.abs(s) / power.cap), g)
        k = _power_sum(power.const, power.terms, np.abs(y0)) * y0
    else:
        y0 = -s / (g + flat)
        inside = ~flat if phi.domain == "all_space" else ~flat & phi.interior_rows(y0[:, None])
        # 1.0 stands in for the kinks outside: it is interior to every domain
        k = np.where(inside, phi.gradient_rows(np.where(inside, y0, 1.0)[:, None])[:, 0],
                     -np.inf)
    step = eta * g
    W = np.minimum(np.maximum(k, w - np.abs(step)), w + np.abs(step))
    kink = W == k
    if power is None:
        theta = np.where(kink, 0.0, np.where(W == w - step, 1.0, -1.0))
        Y = solve((theta * g)[:, None], Z, eta)[0]
        Y[kink, 0] = y0[kink]
        Y[flat] = Z.points[flat]
        return Y, None, 1, "closed_form_abs_affine"
    y = np.where(kink, y0, np.copysign(_radial_root(power, np.abs(W)), W))
    y[flat] = z[flat]
    return y[:, None], W[:, None], 1, "closed_form_abs_affine"


# ---------------------------------------------------------------------------
# iterative solvers: 1-d bisection and lockstep Newton
# ---------------------------------------------------------------------------

def _bracket_open(lo, hi):
    return hi - lo > 1e-15 * (1.0 + np.abs(lo) + np.abs(hi))


def _bisection(lo, hi, below, max_iter=200):
    """The one lockstep bisection of the library, over the brackets
    [lo_i, hi_i] of N scalar roots (updated in place).

    below(mid, idx) says, for the midpoints mid of the brackets idx still
    open, where the root lies at or below the midpoint.  Each bracket halves
    until it is no wider than 1e-15 (1 + |lo| + |hi|), one test per halving
    for all open rows at once.  Returns the final midpoints and each row's
    halvings; raises InnerSolveError if a bracket is still open after
    max_iter halvings.
    """
    its = np.zeros(lo.size, dtype=int)
    for _ in range(max_iter):
        idx = np.flatnonzero(_bracket_open(lo, hi))
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        down = below(mid, idx)
        hi[idx[down]] = mid[down]
        lo[idx[~down]] = mid[~down]
        its[idx] += 1
    if np.any(_bracket_open(lo, hi)):
        raise InnerSolveError("bisection bracket still open after %d halvings" % max_iter)
    return 0.5 * (lo + hi), its


def _solve_1d(model, reg, phi, Z, eta, max_iter=220):
    """Lockstep sign bisection from the RowState Z of (N, 1) centers.

    Minimizes model + r + (1/eta) D(., z_i) for every center z_i at once by
    bisection on a subgradient selection (model.gradients of an (N, 1)
    array; grad phi at the centres is Z's mirror coordinates).  Each element
    brackets its own minimizer, moving left from
    a positive slope (halving toward 0 on positive domains, else by doubling
    steps) and right from a negative one by doubling steps, and the brackets
    close by _bisection; a move stops at an end of dom r (reg.bounds), where
    a slope of unchanged sign closes the bracket on that end.  Returns the
    minimizers and each one's bisection count; raises InnerSolveError if an
    element finds no bracket, or if a bracket is still open after max_iter
    halvings.
    """
    z = Z.points[:, 0]
    gz = phi.gradient_from_mirror(Z.mirror)[:, 0]
    lo_r, hi_r = reg.bounds

    def slope(y, idx):
        s = model.gradients(y[:, None])[:, 0] + reg.subgradient(y)
        return s + (phi.gradient_rows(y[:, None])[:, 0] - gz[idx]) / eta

    positive_dom = phi.domain != "all_space"
    s0 = slope(z, slice(None))
    lo, hi = z.copy(), z.copy()
    right = ~(s0 > 0)
    pending = s0 != 0.0
    step = np.maximum(1.0, np.abs(z))
    for _ in range(200):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            break
        r = right[idx]
        left_cand = hi[idx] / 2.0 if positive_dom else hi[idx] - step[idx]
        cand = np.minimum(np.maximum(np.where(r, lo[idx] + step[idx], left_cand), lo_r), hi_r)
        s = slope(cand, idx)
        found = np.where(r, s >= 0, s <= 0)
        end = ~found & (cand == np.where(r, hi_r, lo_r))
        # a found bracket closes on the far side, one at an end of dom r on
        # it; otherwise the near end moves
        to_hi = (r == found) | end
        hi[idx[to_hi]] = cand[to_hi]
        lo[idx[~to_hi | end]] = cand[~to_hi | end]
        step[idx] *= 2.0
        pending[idx[found | end]] = False
    if np.any(pending):
        raise InnerSolveError("failed to bracket the 1-d minimizer")
    return _bisection(lo, hi, lambda mid, idx: slope(mid, idx) > 0, max_iter)


def prox_points_1d(model, reg, phi, centers, eta, rho=0.0, tol=1e-10):
    """Certified argmin model(y) + r(y) + (1/eta) D(y, z) for each 1-d center.

    centers is an (N,) array of 1-d points, and the model any object with
    values and gradients (a subgradient selection) on (N, 1) arrays, as the
    row forms have.  All N problems are bisected in lockstep and certified
    together; one element
    that fails raises InnerSolveError for the whole batch.  rho is the
    relative weak-convexity modulus of model + r, with eta * rho < 1.
    """
    return _bisection_1d(model, reg, phi, centers, eta, rho, tol).minimizer[:, 0]


def _bisection_1d(model, reg, phi, centers, eta, rho, tol):
    """The certified steps of prox_points_1d, as a ProxStepResult over the
    centers."""
    _check_step(eta, rho)
    Z = phi.state_rows(np.asarray(centers, dtype=float)[:, None], reg)
    y, its = _solve_1d(model, reg, phi, Z, eta)
    return _recorded(model.values, reg, phi, Z, (y[:, None], None, its.max(), "bisection_1d"),
                     eta, rho, tol)


def _newton_directions(H, G):
    """Solve H_i p_i = -g_i for each row, with -g_i where H_i is singular;
    a row's direction does not depend on the other rows."""
    try:
        return np.linalg.solve(H, -G[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return -G
        return np.concatenate([_newton_directions(H[i:i + 1], G[i:i + 1])
                               for i in range(len(G))])


def _newton(rows, phi, state, eta, tol, max_iter=120):
    """argmin model_i(y) + (1/eta) D(y, z_i) for each row z_i of the centres'
    RowState (phi at the centres is derived when the state carries none).

    rows is a SmoothRows (r = 0).  One damped Newton runs over all rows in
    lockstep (batched gradients, one np.linalg.solve over the (S, d, d)
    Hessian stack, a backtracking Armijo search per row as masks over the
    rows still searching), each row stopping on its own half Newton
    decrement: below tol (1 + |psi_i(z_i)|) it is polished by up to two more
    full steps (until below 1e-30, or a full step fails the Armijo test), so
    every row takes the iterates of its own one-row call.  A row whose line
    search fails after 60 halvings, or still above the tolerance after
    max_iter iterations, raises InnerSolveError for the batch.  Returns
    solve_rows' (minimizers, None, iterations, "newton").
    """
    Z, gz = state.points, phi.gradient_from_mirror(state.mirror)
    vz = phi.value_rows(Z) if state.values is None else state.values
    S = len(Z)

    def psi(Y):
        return rows.values(Y) + (phi.value_rows(Y) - vz - dot_rows(gz, Y - Z)) / eta

    Y = Z.copy()
    fy = psi(Y)
    tol_obj = tol * (1.0 + np.abs(fy))
    its = np.full(S, max_iter)
    polish = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    dec = np.zeros(S)
    for it in range(1, max_iter + 1):
        G = rows.gradients(Y) + (phi.gradient_rows(Y) - gz) / eta
        P = _newton_directions(rows.hessians(Y) + phi.hessian_rows(Y) / eta, G)
        dec = np.where(active, -dot_rows(G, P), dec)
        ascent = active & ~(dec > 0)
        if ascent.any():
            P[ascent] = -G[ascent]
            dec[ascent] = dot_rows(G[ascent], G[ascent])
        small = active & (0.5 * dec <= tol_obj)
        polish += small
        done = small & ((polish > 2) | (0.5 * dec <= 1e-30))
        its[done] = it
        active &= ~done
        if not active.any():
            break
        t = np.ones(S)
        searching = active.copy()
        failed = np.zeros(S, dtype=bool)
        floor = fy - 1e-16 * (1 + np.abs(fy))
        for trial in range(60):
            cand = Y + t[:, None] * P
            ok = searching & phi.interior_rows(cand)
            # the model is evaluated at interior candidates only
            fc = psi(np.where(ok[:, None], cand, Y))
            take = ok & ((fc <= fy - 1e-4 * t * dec) | (fc < floor))
            Y = np.where(take[:, None], cand, Y)
            fy = np.where(take, fc, fy)
            searching &= ~take
            if trial == 0:
                # a row already within tolerance polishes with the full step
                # only: shorter steps move it by rounding noise
                failed |= searching & small
                searching &= ~small
            if not searching.any():
                break
            t[searching] *= 0.5
        failed |= searching
        if failed.any():
            bad = np.flatnonzero(failed & (0.5 * dec > tol_obj))
            if bad.size:
                i = bad[0]
                raise InnerSolveError(
                    "Newton line search of row %d failed with half decrement "
                    "%.3e > %.3e" % (i, 0.5 * dec[i], tol_obj[i]))
            its[failed] = it
            active &= ~failed
            if not active.any():
                break
    failed = np.flatnonzero(active & (0.5 * dec > tol_obj))
    if failed.size:
        i = failed[0]
        raise InnerSolveError(
            "Newton solve of row %d used %d iterations with half decrement "
            "%.3e > %.3e" % (i, max_iter, 0.5 * dec[i], tol_obj[i]))
    return Y, None, its.max(), "newton"


SECULAR_TOL = 1e-14  # relative KKT residual at which a secular row stops
# what _secular reads of QuadraticRows under step sizes eta: eta lam, eta Q c, U
SecularRows = namedtuple("SecularRows", "eigvals weights eigvecs")


def _isotropic_roots(const, terms, kappa, g):
    """Roots r of (kappa + const) r + sum_k a_k r^(e_k + 1) = g, entrywise
    over kappa >= 0 and g >= 0 (terms holds the (a_k, e_k), e_k > 0), and
    whether they are exact: with every e_k = 2 the equation is linear or a
    depressed cubic (_cubic_root); otherwise the term-wise upper bound
    min(g / (kappa + const), (g / a_k)^(1/(e_k + 1))) of the root."""
    a1 = kappa + const
    if all(e == 2.0 for _, e in terms):
        if not terms:
            return g / a1, True
        return _cubic_root(a1, sum(a for a, _ in terms), g), True
    bound = g / a1
    for a, e in terms:
        bound = np.minimum(bound, (g / a) ** (1.0 / (e + 1.0)))
    return bound, False


def _power_sum(const, terms, s):
    """const + sum_k a_k s^e_k over the (a_k, e_k) of terms, entrywise."""
    out = const if terms else np.full(s.shape, const)
    for a, e in terms:
        out = out + a * s ** e
    return out


def _secular_rows(rows, eta):
    """The SecularRows of QuadraticRows under step sizes eta (one, or one per
    row), row by row: a block of steps prepares bit for bit as each step."""
    eta = np.asarray(eta, dtype=float)[..., None]
    return SecularRows(eta * rows.eigvals,
                       eta * (rows.Q * rows.centers[..., None, :]).sum(axis=-1), rows.eigvecs)


def _secular(power, rows, state, _eta=None, max_iter=50):
    """argmin q_i(y) + (1/eta) D(y, z_i) for each row z_i of the centres'
    RowState, for quadratics q under a radial phi = sum_k c_k ||y||^p_k
    (r = 0, power its power_terms); rows are their SecularRows
    (_secular_rows), which hold eta (the plan's _eta is not read).

    grad phi(y) = A(||y||) y with A(r) = sum_k c_k p_k r^(p_k - 2), so with
    Q_i = U diag(lam) U' the optimality condition
    eta Q_i (y - c_i) + A(||y||) y = grad phi(z_i) gives
    y = U (b / (eta lam + A(r))), b = U' (eta Q_i c_i + grad phi(z_i)), where
    r = ||y|| is the root of F(r) = r - ||b / (eta lam + A(r))||, strictly
    increasing as A is nondecreasing.  Newton on F runs in lockstep over the
    rows from the isotropic root (lam replaced by its b^2-weighted mean),
    each step clipped to the bracket of the isotropic roots with lam_max and
    lam_min.  The KKT residual of y at r, U ((A(||y||) - A(r)) v), v = U' y,
    has norm at most |A(||y||) - A(r)| ||b|| / (eta lam_min + A(r)); a row
    stops on its own once that ratio is at most SECULAR_TOL, so its bits do
    not depend on the batch (with A constant, Euclidean, the first pass is
    exact).  Non-finite data, or a row above the tolerance after max_iter
    Newton steps, raises InnerSolveError.  Returns solve_rows' (minimizers,
    their mirror coordinates A(||v||) y from the last pass, the passes
    (Newton steps + 1), "secular").
    """
    const, terms, slopes = power.const, power.terms, power.slopes
    lam, W, U = rows
    Z = state.points
    # eigh sorts each row's eigenvalues in ascending order; a one-row form
    # stands for every row
    lam = lam if lam.shape == Z.shape else np.broadcast_to(lam, Z.shape)
    B = ((W + state.mirror)[:, None, :] @ U)[:, 0, :]
    if not np.logical_and.reduce(np.isfinite(B), axis=None):
        raise InnerSolveError("secular equation needs finite data")
    BB = B * B
    g2 = np.add.reduce(BB, axis=1)
    # the isotropic roots with lam_max, the b^2-weighted mean and lam_min
    kappa = lam[:, [-1, 0, 0]]
    np.divide(np.add.reduce(BB * lam, axis=1), g2, out=kappa[:, 1], where=g2 > 0.0)
    roots, exact = _isotropic_roots(const, terms, kappa, np.sqrt(g2)[:, None])
    lo, r, hi = roots[:, 0], roots[:, 1], roots[:, 2]
    # margins for the rounding of the closed forms; 0 is below every root
    lo = lo * (1.0 - 1e-12) if exact else np.zeros(len(Z))
    hi = hi * (1.0 + 1e-12)
    floor = SECULAR_TOL * lam[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iter + 1):
            a = _power_sum(const, terms, r)
            den = lam + a[:, None]
            V = B / den
            vv = V * V
            nv = np.sqrt(np.add.reduce(vv, axis=1))
            a_v = _power_sum(const, terms, nv)
            ok = np.abs(a_v - a) <= floor + SECULAR_TOL * a
            if np.logical_and.reduce(ok):
                break
            if it == max_iter:
                raise InnerSolveError(
                    "secular equation of row %d unsolved after %d Newton steps"
                    % (np.flatnonzero(~ok)[0], max_iter))
            slope = _power_sum(0.0, slopes, r)
            step = r - (r - nv) / (1.0 + slope * np.add.reduce(vv / den, axis=1) / nv)
            # a stopped row keeps its r, and so recomputes its V bit for bit
            # (a row with b = 0 divides 0 by 0 here, and stops at r = 0)
            r = np.where(ok, r, np.minimum(np.maximum(step, lo), hi))
    Y = (U @ V[:, :, None])[:, :, 0]
    return Y, a_v[:, None] * Y, it + 1, "secular"


def inner_solve(model, reg, phi, center, eta, tol=1e-10, rho=0.0):
    """Certified 1-d bisection of min model(x) + r(x) + (1/eta) D(x, center):
    the one-row case of prox_points_1d (model any object with values and
    gradients on (N, 1) arrays), as a one-point ProxStepResult.

    center is one 1-d point; a d > 1 center raises InnerSolveError (its
    steps go through the row forms, prox_step).  rho is the relative
    weak-convexity modulus of model + r (0 for convex).  The minimizer is
    certified by center_certificate, which raises InnerSolveError below
    -tol times the magnitudes of the terms its residual sums.
    """
    center = np.asarray(center, dtype=float)
    if center.size != 1:
        raise InnerSolveError("inner_solve bisects 1-d subproblems only, not d = %d"
                              % center.size)
    return _bisection_1d(model, reg, phi, center, eta, rho, tol).row(0)


# ---------------------------------------------------------------------------
# the outer-facing prox steps
# ---------------------------------------------------------------------------

def step_plan(rows, d, reg, phi, tol=1e-10):
    """The solve of all batches of steps on models of the row form of rows
    (its type, and AffineRows' absolute flag) in dimension d under r and
    phi, chosen once with its constants (power_terms), or None when the form
    has no batched path.  The plan maps (rows, Z, eta), Z the centres'
    RowState, to (minimizers, their mirror coordinates or None, inner
    iterations, method), the centres when eta < ETA_FLOOR, or None when
    AbsQuadraticRows fail their coefficient condition.  It reads its rows as
    plan.prepare(rows, eta) gives them (eta one, or one per row), so many
    steps prepare in one pass: SecularRows for the secular step, else rows."""
    terms = phi.radial_terms()
    power = None if terms is None else power_terms(*terms)
    path, prepare = None, lambda rows, eta: rows
    if isinstance(rows, (SmoothRows, QuadraticRows)) and reg.kind == "zero":
        if isinstance(rows, QuadraticRows) and power is not None:
            path, prepare = partial(_secular, power), _secular_rows
        else:
            path = lambda rows, Z, eta: _newton(rows, phi, Z, eta, tol)
    elif (isinstance(rows, NormTermRows) and isinstance(phi, Euclidean)
          and reg.kind in ("zero", "indicator_ball")):
        path = partial(_norm_term_rows, reg)
    elif isinstance(rows, (AffineRows, ProxLinearRows, TangentRows)):
        solve = _affine_solver(reg, phi)
        if solve is not None and rows.absolute:
            path = partial(_abs_affine_rows, solve, power, phi, reg.kind == "zero" and d == 1)
        elif solve is not None:
            # an affine model's slope at the centre is its gradient there
            path = lambda rows, Z, eta: (*solve(rows.gradients(Z.points), Z, eta), 1,
                                         "closed_form_affine")
    elif (isinstance(rows, AbsQuadraticRows) and reg.kind == "zero"
          and power is not None and power.closed):
        path = partial(_abs_quadratic_rows, power.a1, power.a3, phi)

    def plan(rows, Z, eta):
        if eta < ETA_FLOOR:
            return Z.points, Z.mirror, 0, "degenerate_eta"
        return path(rows, Z, eta)

    plan.prepare = prepare
    return path and plan


def solve_rows(rows, reg, phi, Z, eta, rho=0.0, tol=1e-10):
    """A one-use step_plan from the centres' RowState Z, after checking eta and rho."""
    _check_step(eta, rho)
    plan = step_plan(rows, Z.points.shape[1], reg, phi, tol)
    return plan and plan(plan.prepare(rows, eta), Z, eta)


def _missing_path(rows, reg, phi):
    """The InnerSolveError of a d > 1 model whose step has no path."""
    return InnerSolveError("%s has no batched prox step for r = %s and phi = %s"
                           % (type(rows).__name__, reg.kind, phi.kind))


def prox_step(rows, reg, phi, center, eta, rho=0.0, inner_tol=1e-10):
    """One Bregman proximal step from the given center: the one-row case of
    prox_step_rows on the model's row form rows (one row).

    A 1-d form with no batched path takes inner_solve's bisection on its
    values and gradients.  Requires eta * rho < 1 so the composite
    subproblem is convex.  Every step is certified by center_certificate at
    tolerance inner_tol: a residual below it raises InnerSolveError, never a
    quiet return.  So does a d > 1 form with no batched path for (r, phi).
    """
    center = np.asarray(center, dtype=float)
    res = prox_step_rows(rows, reg, phi, center[None, :], eta, rho, inner_tol)
    if res is not None:
        return res.row(0)
    if center.size == 1:
        return inner_solve(rows, reg, phi, center, eta, tol=inner_tol, rho=rho)
    raise _missing_path(rows, reg, phi)


def prox_step_rows(rows, reg, phi, centers, eta, rho=0.0, inner_tol=1e-10):
    """One Bregman proximal step from each row of an (S, d) array of centers.

    Row i has the model of row i of rows (a one-row form stands for every
    row).  A step is its solve (solve_rows, the path step_plan picks) and
    its record (record_rows: the minimizers' state, the models at both ends,
    both divergences and the center_certificate, which raises
    InnerSolveError for the batch when one row is below inner_tol).
    centers may be the RowState of the minimizers of the step before (its
    result's state), which is taken as it is; fresh centres' state is
    derived once (phi.state_rows).  Returns a ProxStepResult over the rows
    with its minimizers' state, or None when (rows, r, phi) has no batched
    path.  The lockstep loop (driver) takes the same solve per step and the
    same record per block of steps.
    """
    Z = phi.state_rows(centers, reg)
    found = solve_rows(rows, reg, phi, Z, eta, rho, inner_tol)
    return (None if found is None
            else _recorded(rows.values, reg, phi, Z, found, eta, rho, inner_tol))
