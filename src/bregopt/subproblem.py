"""Bregman proximal subproblems.

Each outer iteration solves

    argmin_x  model(x) + r(x) + (1/eta) D(x, z)

for a convex (or relatively weakly convex) sampled model, a simple closed
regularizer r, and the run's Legendre function phi.  A structured model is
described by its row form (AffineRows, NormTermRows, QuadraticRows,
AbsQuadraticRows or SmoothRows), and every step goes through one dispatch
on that form: the affine or |affine| closed form, the norm shrinkage, the
scalar secular equation of a quadratic under a radial phi, one kink search
and one cubic root for a 1-d sum of |quadratic| terms, or one lockstep
Newton; a 1-d model with none of these takes the certified bisection.
Every returned step carries a three-point optimality residual, the runtime
contract

    g(x) + D(x, z) >= g(z+) + D(z+, z) + D(x, z+)   for all feasible x,

which holds with residual >= 0 exactly when z+ is the true minimizer.
"""

from collections import namedtuple

import numpy as np

from .legendre import (Burg, DomainError, Euclidean, ShannonEntropy, dot_rows,
                       finite_difference_step, norm_rows)


class InnerSolveError(RuntimeError):
    """Inner solver failed to certify the requested tolerance."""


ETA_FLOOR = 1e-14  # below this the prox step is a numerical no-op
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class Regularizer:
    """Closed convex regularizer r with a simple prox structure.

    value_rows gives r at each row of an (N, d) array; value is its one-row
    case.  mu_relative is the relative strong convexity modulus: r - mu*phi
    is convex for the phi the regularizer is paired with (0 for all kinds
    except the entropy-like tilt).
    """

    kind = "abstract"
    convex = True
    mu_relative = 0.0

    def value_rows(self, X):
        raise NotImplementedError

    def value(self, x):
        return float(self.value_rows(np.asarray(x, dtype=float)[None, :])[0])

    def subgradient(self, x):
        """A subgradient selection at an interior point of dom r."""
        return np.zeros(np.asarray(x, dtype=float).shape)

    def inf_value(self):
        """inf r, used by the theoretical rate bounds."""
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

    def __init__(self, weight, tol=1e-9):
        if weight < 0:
            raise ValueError("entropy tilt weight must be nonnegative")
        self.weight = float(weight)
        self.mu_relative = float(weight)
        self.tol = tol
        self._entropy = ShannonEntropy()

    def value_rows(self, X, entropy=None):
        """r at the rows of X; entropy, when given, is their sum x log x."""
        X = np.asarray(X, dtype=float)
        if entropy is None:
            entropy = self._entropy.value_rows(np.maximum(X, 0.0))
        return np.where(_on_simplex(X, self.tol), self.weight * entropy, np.inf)

    def inf_value(self):
        # entropy over the simplex is minimized at the uniform distribution
        return None  # depends on dimension; resolved by inf_value_dim

    def inf_value_dim(self, dim):
        return -self.weight * np.log(dim)


# ---------------------------------------------------------------------------
# sampled models, partially applied at the current iterate
# ---------------------------------------------------------------------------

class PointModel:
    """One sampled model, already anchored at the base point.

    value/subgradient act on the trial point y.  row_form is the model's
    structure as a one-row AffineRows (affine, or |affine|), NormTermRows
    (<v, y> + c ||y||), QuadraticRows or AbsQuadraticRows (1-d pieces of
    sum_i w_i |a_i^2 y^2 - b_i|); smooth says value/gradient (and
    optionally hessian) are exact, which gives the model the row form
    SmoothRows.  prox_step dispatches on rows(); a 1-d model with none, or
    whose form has no path for (r, phi), is solved by bisection.

    For a 1-d variable, value and subgradient functions that act elementwise
    on an (N,) array let prox_points_1d solve N subproblems in one batch.
    With on_rows the functions act on the last axis instead: at an (N, d)
    array they give N values, an (N, d) array and an (N, d, d) stack, so a
    batch of prox points can share the smooth row form without a call per
    row.
    """

    def __init__(self, value_fn, subgrad_fn, row_form=None, smooth=False,
                 hessian_fn=None, on_rows=False):
        self._value_fn = value_fn
        self._subgrad_fn = subgrad_fn
        self.row_form = row_form
        self.smooth = smooth
        self.hessian_fn = hessian_fn
        self.on_rows = on_rows

    def value(self, y):
        v = self._value_fn(np.asarray(y, dtype=float))
        # an elementwise value function returns a 1-element array here
        return float(v.reshape(()) if isinstance(v, np.ndarray) and v.ndim else v)

    def subgradient(self, y):
        return np.asarray(self._subgrad_fn(np.asarray(y, dtype=float)), dtype=float)

    def hessian(self, y):
        if self.hessian_fn is None:
            raise InnerSolveError("model does not expose a Hessian")
        return np.asarray(self.hessian_fn(np.asarray(y, dtype=float)), dtype=float)

    def value_rows(self, Y):
        """The model at each row of an (N, d) array."""
        if self.on_rows:
            return np.asarray(self._value_fn(Y), dtype=float)
        return np.array([self.value(y) for y in Y])

    def rows(self):
        """This model on every row of a batch, or None: its row_form, else
        SmoothRows of a smooth model (its own functions when they act on
        rows, else one call per row)."""
        if self.row_form is not None:
            return self.row_form
        if not self.smooth:
            return None
        if self.on_rows:
            return SmoothRows(self._value_fn, self._subgrad_fn, self.hessian_fn)

        def each(fn):
            return lambda Y: np.array([fn(y) for y in Y])

        return SmoothRows(self.value_rows, each(self.subgradient),
                          None if self.hessian_fn is None else each(self.hessian))


def linear_model(v, offset=0.0):
    v = np.asarray(v, dtype=float)
    return PointModel(lambda y: offset + float(np.dot(v, y)), lambda y: v.copy(),
                      row_form=AffineRows(v[None, :], np.array([float(offset)]), False))


def absolute_affine_model(g, s):
    """model(y) = |<g, y> + s| with the zero-slope selection at the kink."""
    g = np.asarray(g, dtype=float)
    s = float(s)

    def sub(y):
        u = float(np.dot(g, y)) + s
        return np.sign(u) * g

    return PointModel(lambda y: abs(float(np.dot(g, y)) + s), sub,
                      row_form=AffineRows(g[None, :], np.array([s]), True))


class ProxStepResult:
    """Outcome of one Bregman proximal step z -> y.

    divergence is D(y, z); model_value and r_value are the model and r at y.
    method names the path: closed_form_affine, closed_form_abs_affine,
    closed_form_norm, closed_form_abs_quadratic, bisection_1d, secular,
    newton or degenerate_eta.  For a batch of steps (prox_step_rows) every
    field but method and inner_iterations (the most any row used) holds one
    entry per row, and state is the minimizers' RowState, from which the
    next step starts.
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
    best = np.inf
    worst = None
    used = 0
    for x in probe_points:
        gx = g_value(x)
        if not np.isfinite(gx):
            continue
        res = gx + phi.bregman(x, z) - base - phi.bregman(x, z_plus)
        used += 1
        if res < best:
            best = res
            worst = np.asarray(x, dtype=float)
    if used == 0:
        raise ValueError("no feasible probe points supplied")
    return ThreePointReport(best, worst, used)


def center_certificate(psi_z, psi_y, d_yz, d_zy, eta, rho, tol):
    """Certified three-point residual of prox steps z -> y at the probe x = z.

    psi = model + r.  A rho-weakly convex objective is certified through the
    convexified split g = eta (psi + rho D(., z)) against the remaining
    (1 - eta rho) fraction of the divergence, which is exactly the inequality
    the convergence analysis uses (rho = 0 gives the plain inequality); at
    x = z check_three_point's residual then reads

        eta (psi(z) - psi(y)) - D(y, z) - (1 - eta rho) D(z, y).

    The residual sums the four terms eta psi(z), eta psi(y), D(y, z) and
    (1 - eta rho) D(z, y).  Each is evaluated to within a few units u of
    roundoff of its own magnitude, or of 1 for a difference of values of
    order one (a divergence or a model value near 0), and the sum adds at
    most 3 u times their total magnitude.  So a correct step misses 0 by a
    small multiple of u times

        scale = 1 + eta |psi(z)| + eta |psi(y)| + D(y, z) + (1 - eta rho) D(z, y),

    and tol, far above u, bounds the residual below by -tol * scale.  A
    step with large divergences (an entropic step of D(y, z) = 4e13) is
    then held to the same relative accuracy as a small one.  The arguments
    may be arrays of a batch of steps.  Raises DomainError if a center is
    infeasible and InnerSolveError below -tol * scale; returns the
    residuals.
    """
    if not np.isfinite(psi_z).all():
        raise DomainError("prox centers must be feasible for the objective")
    d_zy = (1.0 - eta * rho) * d_zy
    res = eta * (psi_z - psi_y) - d_yz - d_zy
    scale = tol * (1.0 + eta * (np.abs(psi_z) + np.abs(psi_y)) + np.abs(d_yz)
                   + np.abs(d_zy))
    bad = np.flatnonzero(np.logical_not(res >= -scale))
    if bad.size:
        i = bad[0]
        raise InnerSolveError(
            "prox step %d of %d missed tolerance: three-point residual "
            "%.3e < -%.3e" % (i, np.size(res), np.ravel(res)[i], np.ravel(scale)[i]))
    return res


def _certify(psi_z, model_y, d_yz, d_zy, state, eta, rho, tol, its, method):
    """ProxStepResult of the step(s) to the points of state, certified by
    center_certificate."""
    psi_y = model_y + state.r
    res = center_certificate(psi_z, psi_y, d_yz, d_zy, eta, rho, tol)
    return ProxStepResult(state.points, its, res, psi_z - (psi_y + d_yz / eta), d_yz,
                          method, model_y, state.r, state)


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

def solve_monotone_power(coefs, powers, target, tol=1e-14, max_iter=200):
    """Root of s(r) = sum_k a_k r^e_k = target over r >= 0 (a_k = c_k p_k,
    e_k = p_k - 1), unique since s is increasing and convex.

    Each entry g starts from a closed form: for powers {2, 4} (the registry's
    kernels) the root of a_1 r + a_3 r^3 = g in the hyperbolic form
    2 sqrt(P/3) sinh(asinh(1.5 sqrt(3/P) g/a_1) / 3), P = a_1/a_3, which has no
    cancellation for small g; else the upper bound min_k (g/a_k)^(1/e_k),
    exact for one term, from which Newton descends monotonically.  Entries
    with |s(r) - g| > tol (1 + g) take Newton steps in lockstep.  target may
    be an array of any shape; entries <= 0 give 0.  A non-finite target, or
    an entry unsolved after max_iter steps, raises InnerSolveError.
    """
    c, p = np.asarray(coefs, dtype=float), np.asarray(powers, dtype=float)
    a, e = (c * p)[c > 0.0], (p - 1.0)[c > 0.0]
    target = np.asarray(target, dtype=float)
    if not np.isfinite(target).all():
        raise InnerSolveError("radial scale equation needs a finite target")
    out = np.zeros(target.size)
    pos = np.flatnonzero(target.reshape(-1) > 0.0)
    g = target.reshape(-1)[pos]
    if set(e) == {1.0, 3.0}:
        r = _cubic_root(a[e == 1.0].sum(), a[e == 3.0].sum(), g)
    else:
        r = np.min((g[:, None] / a) ** (1.0 / e), axis=1)
    scale = tol * (1.0 + g)
    idx = np.arange(g.size)
    for it in range(max_iter + 1):
        ri = r[idx]
        f = np.sum(a * ri[:, None] ** e, axis=1) - g[idx]
        busy = np.abs(f) > scale[idx]
        if not busy.any():
            break
        if it == max_iter:
            raise InnerSolveError("radial scale equation unsolved after %d "
                                  "Newton steps" % max_iter)
        idx, ri = idx[busy], ri[busy]
        r[idx] = ri - f[busy] / np.sum(a * e * ri[:, None] ** (e - 1.0), axis=1)
    out[pos] = r
    return out.reshape(target.shape)


def _cubic_root(a1, a3, g):
    """Root of a1 r + a3 r^3 = g (a1, a3 > 0, g >= 0, entrywise) in the
    hyperbolic form 2 sqrt(P/3) sinh(asinh(1.5 sqrt(3/P) g/a1) / 3),
    P = a1/a3, which has no cancellation for small g."""
    x = 1.5 * (3.0 * a3 / a1) ** 0.5 * g / a1
    return 2.0 * (a1 / (3.0 * a3)) ** 0.5 * np.sinh(np.arcsinh(x) / 3.0)


def _radial_solver(terms, gz, eta, radius=None):
    """V -> argmin <v_i, x> + (1/eta) D(x, z_i) (+ ball indicator) per row, radial phi.

    Writes the optimality condition grad phi(x) = grad phi(z) - eta v, which
    forces x = s * u along u = normalize(rhs); the scalar s solves the
    monotone power equation (closed-form start, residual-checked), clipped at
    the ball radius when present (valid because the radial objective is
    increasing in s beyond the unconstrained root).  gz is grad phi at the
    rows of Z, the centres' mirror coordinates.
    """
    coefs, powers = terms

    def radial(V):
        W = gz - eta * np.asarray(V, dtype=float)
        g = norm_rows(W)
        s = solve_monotone_power(coefs, powers, g)
        if radius is not None:
            s = np.minimum(s, radius)
        return np.divide(s, g, out=np.zeros(g.shape), where=g > 0.0)[:, None] * W, None

    return radial


def _log_softmax(logits):
    """(exp(L), L) for L the log-softmax of each row of logits."""
    L = logits - np.max(logits, axis=-1, keepdims=True)
    L = L - np.log(np.sum(np.exp(L), axis=-1, keepdims=True))
    return np.exp(L), L


# ---------------------------------------------------------------------------
# closed-form dispatch for affine models
# ---------------------------------------------------------------------------

def _affine_solver(reg, phi, Z, eta):
    """V -> (argmin <v_i, x> + r(x) + (1/eta) D(x, z_i), its mirror coordinates
    or None) in closed form, or None.

    Z is the RowState of (S, d) centers and V an (S, d) array of slopes, one
    subproblem per row.  What depends on Z alone is computed once, so a slope
    search can call the solver many times per step.  The entropic steps are
    taken in log space from log z, Z's mirror coordinates, and return log y
    with y = exp(log y): log z - eta v (r = 0), its log-softmax (simplex),
    and the log-softmax of (log z - eta v)/(1 + eta mu) (entropy-like tilt).
    """
    z, gz = Z.points, Z.mirror
    euclid = isinstance(phi, Euclidean)
    entropy = isinstance(phi, ShannonEntropy)
    terms = phi.radial_terms()

    if reg.kind == "zero":
        if euclid:
            return lambda v: (z - eta * v, None)
        if entropy:
            def entropic(v):
                # refuse a step that leaves the floats before exp overflows
                log_y = gz - eta * v
                if np.any(log_y > _LOG_FLOAT_MAX):
                    raise InnerSolveError(
                        "entropic prox step leaves the float range: log y = %.6g "
                        "> log(float max) = %.6g" % (np.max(log_y), _LOG_FLOAT_MAX))
                return np.exp(log_y), log_y

            return entropic
        if isinstance(phi, Burg):
            def burg(v):
                # grad phi(z) = -1/z
                w = eta * v - gz
                if np.any(w <= 0):
                    raise InnerSolveError("Burg prox subproblem is unbounded below")
                return 1.0 / w, None

            return burg
        if terms is not None:
            return _radial_solver(terms, gz, eta)
    elif reg.kind == "indicator_simplex" and entropy:
        return lambda v: _log_softmax(gz - eta * v)
    elif reg.kind == "entropy_like" and entropy:
        return lambda v: _log_softmax((gz - eta * v) / (1.0 + eta * reg.weight))
    elif reg.kind == "indicator_ball":
        if euclid:
            radius = reg.radius

            def ball(v):
                u = z - eta * v
                n = norm_rows(u)[..., None]
                return (np.divide(radius, n, out=np.ones(n.shape), where=n > radius) * u,
                        None)

            return ball
        if terms is not None:
            return _radial_solver(terms, gz, eta, radius=reg.radius)
    elif reg.kind == "l1" and euclid:
        def l1(v):
            u = z - eta * v
            return np.sign(u) * np.maximum(np.abs(u) - eta * reg.weight, 0.0), None

        return l1
    elif reg.kind == "quadratic" and euclid:
        return lambda v: ((z - eta * v) / (1.0 + eta * reg.weight), None)
    return None


def _norm_term_rows(V, c, reg, phi, Z, eta):
    """_closed_form_rows for <v_i, x> + c||x||, the Euclidean phi and r zero or a ball."""
    if not isinstance(phi, Euclidean) or reg.kind not in ("zero", "indicator_ball"):
        return None
    U = Z.points - eta * np.asarray(V, dtype=float)
    n = norm_rows(U)
    s = np.maximum(n - eta * c, 0.0)
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


class NormTermRows(namedtuple("NormTermRows", "slopes weight")):
    """Models <slopes[i], y> + weight ||y|| over rows; one slope row stands
    for every row."""

    __slots__ = ()

    def values(self, Y):
        return dot_rows(self.slopes, Y) + self.weight * norm_rows(Y)


class SmoothRows(namedtuple("SmoothRows", "values gradients hessians")):
    """Smooth models over rows: values, gradients and hessians map an (N, d)
    array Y to the N values, the (N, d) gradients and the (N, d, d) Hessians
    of row i's model at row i of Y.  hessians None means the models expose
    none, and Newton differences the gradients."""

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


def _abs_quadratic_rows(rows, reg, phi, Z, eta):
    """_closed_form_rows for AbsQuadraticRows: r = 0 and phi = c2 y^2 + c4 y^4.

    The minimizer y of eta f + D(., z) solves h(y) = c, c = phi'(z), for the
    monotone subdifferential h = eta f' + phi'.  On piece j,
    h(y) = (2 c2 + 2 eta C_j) y + 4 c4 y^3, odd and increasing when
    2 c2 + 2 eta C_j > 0; at a kink K h jumps up from h_-(K) = 2 eta C_j K +
    phi'(K) to h_+(K) = 2 eta C_{j+1} K + phi'(K) (crossing +-k_i into
    |y| > k_i raises the slope of |a_i^2 y^2 - b_i| by 2 w_i a_i^2 |y|).  So
    with j = searchsorted(h_+(K), c) the point is K_j when h_-(K_j) <= c, and
    otherwise the root sign(c) _cubic_root(2 c2 + 2 eta C_j, 4 c4, |c|) on
    piece j.  Each row takes one search and one root, independent of the
    batch.

    The coefficient condition 2 c2 + 2 eta min C > 0 is checked here; None
    when it fails, for another r or phi, or when phi is not radial with
    powers {2, 4}.  For P1 (c2 = 7/2, tau = (4/3) sum w a^2, min C >=
    -sum w a^2) it holds at every envelope step: eta (tau + rho) < 1 gives
    eta sum w a^2 < 3/4 < c2.
    """
    terms = phi.radial_terms()
    if reg.kind != "zero" or terms is None or set(terms[1].tolist()) != {2.0, 4.0}:
        return None
    c2, c4 = (terms[0][terms[1] == p].sum() for p in (2.0, 4.0))
    K, C = rows.kinks, rows.curvatures
    a1 = 2.0 * c2 + 2.0 * eta * C
    if not a1.min() > 0.0:
        return None
    c = Z.mirror[:, 0]
    gk = phi.gradient_rows(K[:, None])[:, 0]
    j = np.searchsorted(2.0 * eta * C[1:] * K + gk, c)
    # h_-(K_j), +inf past the last kink
    low = np.append(2.0 * eta * C[:-1] * K + gk, np.inf)[j]
    y = np.where(low <= c, np.append(K, 0.0)[j],
                 np.sign(c) * _cubic_root(a1[j], 4.0 * c4, np.abs(c)))
    return y[:, None], None, 1, "closed_form_abs_quadratic"


def _closed_form_rows(rows, reg, phi, Z, eta):
    """(minimizers, their mirror coordinates or None, the most affine solves
    of a row, method) of AffineRows from the centres' RowState Z, or None.

    None when (r, phi) has no affine closed form.  An |affine| row
    |<g_i, x> + s_i| is minimized by the affine prox y(theta) of the slope
    theta g_i for some theta in [-1, 1], and the level <g_i, y(theta)> + s_i
    is nonincreasing in theta.  In 1-d with r = 0, _abs_affine_1d picks each
    row's case from grad phi at the kink, and every row takes one affine
    solve.  Otherwise all rows probe theta = +1 (the affine step) and stop
    there when the level is >= 0; the rows left probe theta = -1 together
    and stop there when it is <= 0; only the rows left after that find the
    level's root by brentq, each on a one-row solver.  A row thus takes 1, 2,
    or 2 + brentq's iterations affine solves.  Where the affine step of the
    slope theta g_i exists only for theta in an open interval (Burg,
    _theta_bounds), a row skips a probe outside it, and the level tends to
    +inf or -inf at the interval's ends: the search bisects toward such an
    end until the level changes sign there, one more solve per halving.
    """
    solve = _affine_solver(reg, phi, Z, eta)
    if solve is None:
        return None
    G, s = rows.slopes, rows.offsets
    if not rows.absolute:
        return (*solve(G), 1, "closed_form_affine")
    shape = Z.points.shape
    if len(G) != shape[0]:
        # a one-row form stands for every row
        G, s = np.broadcast_to(G, shape), np.broadcast_to(s, shape[:1])
    if reg.kind == "zero" and shape[1] == 1:
        return _abs_affine_1d(solve, G, s, phi, Z, eta), None, 1, "closed_form_abs_affine"
    lo, hi = _theta_bounds(phi, Z.points, G, eta)
    feasible = hi > 1.0
    if feasible.all():
        Y = solve(G)[0]
    else:
        Y = np.empty(shape)
        Y[feasible] = _affine_solver(reg, phi, Z.take(feasible), eta)(G[feasible])[0]
    its = 1
    stop = np.zeros(shape[0], dtype=bool)
    stop[feasible] = dot_rows(G[feasible], Y[feasible]) + s[feasible] >= 0.0
    left = np.flatnonzero(~stop)
    if left.size:
        down = left[lo[left] < -1.0]
        Y[down] = _affine_solver(reg, phi, Z.take(down), eta)(-G[down])[0]
        its = 2
        stop[down] = dot_rows(G[down], Y[down]) + s[down] <= 0.0
        left = left[~stop[left]]
    for i in left:
        # imported here: scipy.optimize takes about 0.5 s and 50 MB to import,
        # and no other path of the package needs it
        from scipy.optimize import brentq
        one = _affine_solver(reg, phi, Z.take(slice(i, i + 1)), eta)
        g = G[i:i + 1]

        def level(theta):
            return float(dot_rows(g, one(theta * g)[0])[0]) + s[i]

        a, b, halvings = max(-1.0, lo[i]), min(1.0, hi[i]), 0
        open_a, open_b = lo[i] >= -1.0, hi[i] <= 1.0
        while open_a or open_b:
            if halvings == 200:
                raise InnerSolveError("|affine| slope search found no bracket")
            m = 0.5 * (a + b)
            halvings += 1
            v = level(m)
            if v > 0.0:
                a, open_a = m, False
            elif v < 0.0:
                b, open_b = m, False
            else:
                a = b = m
                break
        if a == b:
            theta, brent_its = a, 0
        else:
            theta, info = brentq(level, a, b, xtol=1e-15, rtol=8.9e-16,
                                 maxiter=200, full_output=True)
            brent_its = info.iterations
        Y[i] = one(theta * g)[0][0]
        its = max(its, brent_its + halvings + 2)
    return Y, None, its, "closed_form_abs_affine"


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


def _abs_affine_1d(solve, G, s, phi, Z, eta):
    """Minimizers of |g_i y + s_i| + (1/eta) D(y, z_i) over 1-d rows, r = 0.

    solve is the affine solver at the RowState Z.  phi' is strictly
    increasing, so with w = phi'(z) and the kink y0 = -s/g, k = phi'(y0),
    the level g y(theta) + s has the sign of g (w - eta theta g - k): a row
    stops at theta = +1 iff g (w - eta g - k) >= 0, at theta = -1 iff
    g (w + eta g - k) <= 0, and its minimizer is y0 otherwise.  A kink
    outside int dom phi (y0 <= 0 on a positive domain) has k = -inf there:
    the level keeps the sign of g, and so does theta.  Each row takes one
    solve, all rows in one call with slopes theta g; a row with g = 0 keeps
    y = z.
    """
    g = G[:, 0]
    flat = g == 0.0
    y0 = -s / np.where(flat, 1.0, g)
    inside = ~flat & phi.interior_rows(y0[:, None])
    # 1.0 stands in for the kinks outside: it is interior to every domain
    k = np.where(inside, phi.gradient_rows(np.where(inside, y0, 1.0)[:, None])[:, 0],
                 -np.inf)
    w = phi.gradient_from_mirror(Z.mirror)[:, 0]
    pos = g > 0.0
    lo, hi = w - eta * g, w + eta * g
    up = np.where(pos, lo >= k, lo <= k)
    down = ~up & np.where(pos, hi <= k, hi >= k)
    Y = solve(np.where(up, 1.0, np.where(down, -1.0, 0.0))[:, None] * G)[0]
    kink = ~(up | down | flat)
    Y[kink, 0] = y0[kink]
    Y[flat] = Z.points[flat]
    return Y


# ---------------------------------------------------------------------------
# iterative solvers: 1-d bisection and lockstep Newton
# ---------------------------------------------------------------------------

def _elementwise(fn, ys):
    """fn at each entry of an (N,) array of 1-d points, as N values; fn sees
    512 points per call, so a finite-support model's (points, atoms) arrays
    stay small (80 KB for P1's 20 atoms) however large the batch."""
    n = 512
    out = np.concatenate([np.asarray(fn(ys[i:i + n]), dtype=float).ravel()
                          for i in range(0, ys.size, n)] or [ys[:0]])
    if out.size != ys.size:
        raise InnerSolveError("a batch of 1-d points needs elementwise model functions")
    return out.reshape(ys.shape)


def _bracket_open(lo, hi):
    return hi - lo > 1e-15 * (1.0 + np.abs(lo) + np.abs(hi))


def _solve_1d(model, reg, phi, z, eta, max_iter=220):
    """Lockstep sign bisection for an (N,) array of 1-d centers.

    Minimizes model + r + (1/eta) D(., z_i) for every entry z_i at once by
    bisection on a subgradient selection; the model's subgradient function
    acts elementwise on the (N,) array.  Each element brackets its
    own minimizer: from a positive slope it moves left (halving toward 0 on
    positive domains, else by doubling steps), from a negative slope right by
    doubling steps.  Returns the minimizers and the bisection count of each;
    raises InnerSolveError if an element finds no bracket, or if a bracket
    is still wider than 1e-15 (1 + |lo| + |hi|) after max_iter halvings.
    """
    z = np.asarray(z, dtype=float)
    gz = phi.gradient_rows(z[:, None])[:, 0]

    def slope(y, idx):
        s = _elementwise(model._subgrad_fn, y) + reg.subgradient(y)
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
        cand = np.where(r, lo[idx] + step[idx], left_cand)
        s = slope(cand, idx)
        found = np.where(r, s >= 0, s <= 0)
        # a found bracket closes on the far side; otherwise the near end moves
        to_hi = r == found
        hi[idx[to_hi]] = cand[to_hi]
        lo[idx[~to_hi]] = cand[~to_hi]
        step[idx] *= 2.0
        pending[idx[found]] = False
    if np.any(pending):
        raise InnerSolveError("failed to bracket the 1-d minimizer")
    its = np.zeros(z.size, dtype=int)
    for _ in range(max_iter):
        idx = np.flatnonzero(_bracket_open(lo, hi))
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        up = slope(mid, idx) > 0
        hi[idx[up]] = mid[up]
        lo[idx[~up]] = mid[~up]
        its[idx] += 1
    if np.any(_bracket_open(lo, hi)):
        raise InnerSolveError("1-d bisection bracket still open after %d halvings"
                              % max_iter)
    return 0.5 * (lo + hi), its


def prox_points_1d(model, reg, phi, centers, eta, rho=0.0, tol=1e-10):
    """Certified argmin model(y) + r(y) + (1/eta) D(y, z) for each 1-d center.

    centers is an (N,) array of 1-d points, and the model's value and
    subgradient functions must act elementwise on such arrays.  All N
    problems are bisected in lockstep and certified together; one element
    that fails raises InnerSolveError for the whole batch.  rho is the
    relative weak-convexity modulus of model + r, with eta * rho < 1.
    """
    _check_step(eta, rho)
    z = np.asarray(centers, dtype=float)
    Z = phi.state_rows(z[:, None], reg)
    y, its = _solve_1d(model, reg, phi, z, eta)
    return _certify(_elementwise(model._value_fn, z) + Z.r,
                    _elementwise(model._value_fn, y),
                    *phi.bregman_pair_rows(y[:, None], Z, reg), eta, rho, tol, its.max(),
                    "bisection_1d").minimizer[:, 0]


def _difference_hessian(gradients):
    """Hessians of smooth rows by central differences of their gradients."""
    def hessians(Y):
        h = np.array([finite_difference_step(y) for y in Y])[:, None]
        H = np.empty(Y.shape + Y.shape[-1:])
        for i in range(Y.shape[1]):
            E = np.zeros(Y.shape)
            E[:, i:i + 1] = h
            H[:, :, i] = (gradients(Y + E) - gradients(Y - E)) / (2 * h)
        return H

    return hessians


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


def newton_rows(rows, phi, Z, eta, rho=0.0, tol=1e-10, max_iter=120):
    """Certified argmin model_i(y) + (1/eta) D(y, z_i) for each row z_i of Z.

    rows is a SmoothRows (r = 0).  One damped Newton runs over all rows in
    lockstep: batched gradients, one np.linalg.solve over the (S, d, d)
    Hessian stack, and a backtracking Armijo search per row, as masks over
    the rows still searching.  Each row stops on its own half Newton
    decrement: once it is below tol (1 + |psi_i(z_i)|) the row is polished
    by up to two more full Newton steps (until it is below 1e-30, or a full
    step fails the Armijo test).  Every row takes the iterates of its own
    one-row call.  A row whose line search fails after 60 halvings, or that
    is still above the tolerance after max_iter iterations, raises
    InnerSolveError for the batch.  Z is the centres' RowState or their
    points.  The steps are certified together by center_certificate; returns
    a ProxStepResult over the rows.
    """
    _check_step(eta, rho)
    state = phi.state_rows(Z)
    Z, gz = state.points, phi.gradient_from_mirror(state.mirror)
    S = len(Z)
    hessians = rows.hessians or _difference_hessian(rows.gradients)

    def psi(Y):
        return rows.values(Y) + (phi.value_rows(Y) - state.values
                                 - dot_rows(gz, Y - Z)) / eta

    Y = Z.copy()
    fy = psi(Y)
    tol_obj = tol * (1.0 + np.abs(fy))
    its = np.full(S, max_iter)
    polish = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    dec = np.zeros(S)
    for it in range(1, max_iter + 1):
        G = rows.gradients(Y) + (phi.gradient_rows(Y) - gz) / eta
        P = _newton_directions(hessians(Y) + phi.hessian_rows(Y) / eta, G)
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
    return _certify(rows.values(Z), rows.values(Y), *phi.bregman_pair_rows(Y, state),
                    eta, rho, tol, its.max(), "newton")


SECULAR_TOL = 1e-14  # relative KKT residual at which a secular row stops


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


def secular_rows(rows, phi, Z, eta, rho=0.0, tol=1e-10, max_iter=50):
    """Certified argmin q_i(y) + (1/eta) D(y, z_i) for each row z_i of Z,
    for QuadraticRows q under a radial phi = sum_k c_k ||y||^p_k (r = 0).

    grad phi(y) = A(||y||) y with A(r) = sum_k c_k p_k r^(p_k - 2), so with
    Q_i = U diag(lam) U' the optimality condition
    eta Q_i (y - c_i) + A(||y||) y = grad phi(z_i) gives
    y = U (b / (eta lam + A(r))), b = U' (eta Q_i c_i + grad phi(z_i)), where
    r = ||y|| is the root of the secular equation
    F(r) = r - ||b / (eta lam + A(r))|| = 0, unique since F is strictly
    increasing (A is nondecreasing).  Newton on F runs in lockstep over the
    rows from the isotropic root (every lam replaced by their
    b^2-weighted mean), each step clipped to the bracket of the isotropic
    roots with lam_max and lam_min.  The KKT residual of y at r is
    U ((A(||y||) - A(r)) v), v = U' y, of norm at most
    |A(||y||) - A(r)| ||b|| / (eta lam_min + A(r)); a row stops on its own
    once that ratio is at most SECULAR_TOL, so its bits do not depend on the
    batch, and with A constant (Euclidean) the first pass is exact.  Non-finite
    data, or a row still above the tolerance after max_iter Newton steps,
    raises InnerSolveError.  The steps are certified together by
    center_certificate; returns a ProxStepResult over the rows whose
    inner_iterations counts the passes (Newton steps + 1).  Z is the
    centres' RowState or their points.
    """
    _check_step(eta, rho)
    # A(s) = const + sum_k a_k s^e_k over the terms with e_k = p_k - 2 > 0
    coefs, powers = phi.radial_terms()
    terms = [(c * p, p - 2.0) for c, p in zip(coefs.tolist(), powers.tolist())]
    const = sum((a for a, e in terms if e == 0.0), 0.0)
    terms = [(a, e) for a, e in terms if e > 0.0]
    slopes = [(a * e, e - 1.0) for a, e in terms]   # A'(s)

    state = phi.state_rows(Z)
    Z = state.points
    U = rows.eigvecs
    # eigh sorts each row's eigenvalues in ascending order
    lam = eta * np.broadcast_to(rows.eigvals, Z.shape)
    W = eta * (rows.Q * rows.centers[..., None, :]).sum(axis=-1) + state.mirror
    B = (W[:, None, :] @ U)[:, 0, :]
    if not np.isfinite(B).all():
        raise InnerSolveError("secular equation needs finite data")
    BB = B * B
    g2 = BB.sum(axis=1)
    mean = np.divide((BB * lam).sum(axis=1), g2, out=lam[:, 0].copy(), where=g2 > 0.0)
    roots, exact = _isotropic_roots(const, terms,
                                    np.stack([lam[:, -1], mean, lam[:, 0]], axis=1),
                                    np.sqrt(g2)[:, None])
    lo, r, hi = roots.T.copy()
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
            nv = np.sqrt(vv.sum(axis=1))
            ok = np.abs(_power_sum(const, terms, nv) - a) <= floor + SECULAR_TOL * a
            if ok.all():
                break
            if it == max_iter:
                raise InnerSolveError(
                    "secular equation of row %d unsolved after %d Newton steps"
                    % (np.flatnonzero(~ok)[0], max_iter))
            slope = _power_sum(0.0, slopes, r)
            step = r - (r - nv) / (1.0 + slope * (vv / den).sum(axis=1) / nv)
            # a stopped row keeps its r, and so recomputes its V bit for bit
            # (a row with b = 0 divides 0 by 0 here, and stops at r = 0)
            r = np.where(ok, r, np.minimum(np.maximum(step, lo), hi))
    Y = (U @ V[:, :, None])[:, :, 0]
    return _certify(rows.values(Z), rows.values(Y), *phi.bregman_pair_rows(Y, state),
                    eta, rho, tol, it + 1, "secular")


def inner_solve(model, reg, phi, center, eta, tol=1e-10, rho=0.0):
    """Certified 1-d bisection of min model(x) + r(x) + (1/eta) D(x, center).

    center is one 1-d point; a d > 1 center raises InnerSolveError (its
    steps go through the row forms, prox_step).  rho is the relative
    weak-convexity modulus of model + r (0 for convex).  The minimizer is
    certified by center_certificate, which raises InnerSolveError below
    -tol * (1 + |model(center) + r(center)|).
    """
    _check_step(eta, rho)
    center = np.asarray(center, dtype=float)
    if center.size != 1:
        raise InnerSolveError("inner_solve bisects 1-d subproblems only, not d = %d"
                              % center.size)
    y, its = _solve_1d(model, reg, phi, center, eta)
    return _certify(model.value(center) + reg.value(center), model.value_rows(y[None]),
                    *phi.bregman_pair_rows(y[None], center[None], reg), eta, rho, tol,
                    its[0], "bisection_1d").row(0)


# ---------------------------------------------------------------------------
# the outer-facing prox steps
# ---------------------------------------------------------------------------

def _step_rows(rows, values, reg, phi, Z, eta, rho, tol):
    """The certified steps from the rows of Z for the row form rows, or None.

    The one dispatch of prox_step and prox_step_rows: AffineRows take the
    closed form, NormTermRows the shrinkage, AbsQuadraticRows (r = 0, phi =
    c2 y^2 + c4 y^4) one kink search and cubic root, QuadraticRows (r = 0)
    under a radial phi the secular equation (secular_rows), and SmoothRows
    and any other QuadraticRows (r = 0) one lockstep newton_rows.  values
    gives the models at the rows of an (N, d) array for the certificate.  Z
    is the centres' RowState, or their points, whose state is derived once
    (phi.state_rows).  None when rows is None or (rows, r, phi) has no
    batched path.
    """
    _check_step(eta, rho)
    Z = phi.state_rows(Z, reg)
    if eta < ETA_FLOOR:
        zero = np.zeros(len(Z.r))
        return ProxStepResult(Z.points, 0, zero, zero, zero, "degenerate_eta",
                              values(Z.points), Z.r, Z)
    if isinstance(rows, (SmoothRows, QuadraticRows)):
        if reg.kind != "zero":
            return None
        if isinstance(rows, QuadraticRows) and phi.radial_terms() is not None:
            return secular_rows(rows, phi, Z, eta, rho=rho, tol=tol)
        return newton_rows(rows, phi, Z, eta, rho=rho, tol=tol)
    if isinstance(rows, NormTermRows):
        found = _norm_term_rows(rows.slopes, rows.weight, reg, phi, Z, eta)
    elif isinstance(rows, AffineRows):
        found = _closed_form_rows(rows, reg, phi, Z, eta)
    elif isinstance(rows, AbsQuadraticRows):
        found = _abs_quadratic_rows(rows, reg, phi, Z, eta)
    else:
        return None
    if found is None:
        return None
    Y, mirror, its, method = found
    return _certify(values(Z.points) + Z.r, values(Y),
                    *phi.bregman_pair_rows(Y, Z, reg, mirror), eta, rho, tol, its, method)


def _missing_path(rows, reg, phi):
    """The InnerSolveError of a d > 1 model whose step has no path."""
    if rows is None:
        return InnerSolveError(
            "a d > 1 model needs a row form (affine, |affine|, norm term, "
            "quadratic or smooth) for its prox step; this model has none")
    return InnerSolveError("%s has no batched prox step for r = %s and phi = %s"
                           % (type(rows).__name__, reg.kind, phi.kind))


def prox_step(model, reg, phi, center, eta, rho=0.0, inner_tol=1e-10):
    """One Bregman proximal step from the given center.

    The one-row case of prox_step_rows on the model's row form
    (model.rows()), certified with the model's own value; a 1-d model with
    no batched path takes inner_solve's bisection.  Requires eta * rho < 1
    so the composite subproblem is convex.  Every step is certified by
    center_certificate at tolerance inner_tol: a residual below it raises
    InnerSolveError, never a quiet return.  So does a d > 1 model with no
    row form, or whose row form has no batched path for (r, phi).
    """
    center = np.asarray(center, dtype=float)
    rows = model.rows()
    res = _step_rows(rows, model.value_rows, reg, phi, center[None, :], eta, rho,
                     inner_tol)
    if res is not None:
        return res.row(0)
    if center.size == 1:
        return inner_solve(model, reg, phi, center, eta, tol=inner_tol, rho=rho)
    raise _missing_path(rows, reg, phi)


def prox_step_rows(rows, reg, phi, centers, eta, rho=0.0, inner_tol=1e-10):
    """One Bregman proximal step from each row of an (S, d) array of centers.

    Row i has the model of row i of rows (a one-row form stands for every
    row): AffineRows (affine, or the absolute value of an affine function)
    take the closed form, NormTermRows the shrinkage, AbsQuadraticRows one
    kink search and cubic root, QuadraticRows (r = 0) under a radial phi the
    secular equation, and SmoothRows (r = 0) one lockstep newton_rows.  The
    rows are certified together by center_certificate: one row below
    inner_tol raises InnerSolveError for the batch.  centers is an (S, d)
    array, or the RowState of the minimizers of the step before (its
    result's state), which the step takes as it is instead of deriving
    phi, grad phi and r at the centres again.  Returns a ProxStepResult
    over the rows, whose state is that of its minimizers, or None when
    (model, r, phi) has no batched path.
    """
    return _step_rows(rows, rows.values, reg, phi, centers, eta, rho, inner_tol)
