"""Bregman proximal subproblems.

Each outer iteration solves

    argmin_x  model(x) + r(x) + (1/eta) D(x, z)

for a convex (or relatively weakly convex) sampled model, a simple closed
regularizer r, and the run's Legendre function phi.  Closed forms are
dispatched where the (model, r, phi) triple matches a registered pattern;
everything else goes to a certified iterative inner solver.  Every returned
step carries a three-point optimality residual, the runtime contract

    g(x) + D(x, z) >= g(z+) + D(z+, z) + D(x, z+)   for all feasible x,

which holds with residual >= 0 exactly when z+ is the true minimizer.
"""

import numpy as np
from scipy.optimize import brentq

from .legendre import (Burg, DomainError, Euclidean, ShannonEntropy,
                       WeightedSum, finite_difference_step)


class InnerSolveError(RuntimeError):
    """Inner solver failed to certify the requested tolerance."""


ETA_FLOOR = 1e-14  # below this the prox step is a numerical no-op


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class Regularizer:
    """Closed convex regularizer r with a simple prox structure.

    mu_relative is the relative strong convexity modulus: r - mu*phi is
    convex for the phi the regularizer is paired with (0 for all kinds except
    the entropy-like tilt).
    """

    kind = "abstract"
    convex = True
    mu_relative = 0.0

    def value(self, x):
        raise NotImplementedError

    def in_domain(self, x):
        return np.isfinite(self.value(x))

    def subgradient(self, x):
        """A subgradient selection at an interior point of dom r."""
        return np.zeros(np.asarray(x, dtype=float).shape)

    def inf_value(self):
        """inf r, used by the theoretical rate bounds."""
        return 0.0


class ZeroRegularizer(Regularizer):
    kind = "zero"

    def value(self, x):
        return 0.0


class SimplexIndicator(Regularizer):
    """Indicator of the probability simplex {x >= 0, sum x = 1}."""

    kind = "indicator_simplex"

    def __init__(self, tol=1e-9):
        self.tol = tol

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= -self.tol) and abs(float(np.sum(x)) - 1.0) <= self.tol:
            return 0.0
        return np.inf


class BallIndicator(Regularizer):
    """Indicator of the centered Euclidean ball of the given radius."""

    kind = "indicator_ball"

    def __init__(self, radius, tol=1e-9):
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)
        self.tol = tol

    def value(self, x):
        if float(np.linalg.norm(x)) <= self.radius * (1 + self.tol):
            return 0.0
        return np.inf


class L1Regularizer(Regularizer):
    kind = "l1"

    def __init__(self, weight):
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def subgradient(self, x):
        return self.weight * np.sign(np.asarray(x, dtype=float))


class QuadraticRegularizer(Regularizer):
    kind = "quadratic"

    def __init__(self, weight):
        if weight < 0:
            raise ValueError("quadratic weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.weight * float(np.dot(x, x))

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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < -self.tol) or abs(float(np.sum(x)) - 1.0) > self.tol:
            return np.inf
        return self.weight * self._entropy.value(np.maximum(x, 0.0))

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

    value/subgradient act on the trial point y.  The structure fields tell
    prox_step which closed form (if any) applies:

      linear      v: model(y) = offset + <v, y>
      scalar_abs  (g, s): model(y) = |<g, y> + s|
      norm_term   (v, c): model(y) = <v, y> + c ||y||
      smooth      value/gradient (and optionally hessian) are exact

    For a 1-d variable, value and subgradient functions that act elementwise
    on an (N,) array let prox_points_1d solve N subproblems in one batch.
    """

    def __init__(self, value_fn, subgrad_fn, linear=None, scalar_abs=None,
                 norm_term=None, smooth=False, hessian_fn=None):
        self._value_fn = value_fn
        self._subgrad_fn = subgrad_fn
        self.linear = None if linear is None else np.asarray(linear, dtype=float)
        self.scalar_abs = scalar_abs
        self.norm_term = norm_term
        self.smooth = smooth
        self.hessian_fn = hessian_fn

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


def linear_model(v, offset=0.0):
    v = np.asarray(v, dtype=float)
    return PointModel(lambda y: offset + float(np.dot(v, y)),
                      lambda y: v.copy(), linear=v, smooth=True,
                      hessian_fn=lambda y: np.zeros((v.size, v.size)))


def absolute_affine_model(g, s):
    """model(y) = |<g, y> + s| with the zero-slope selection at the kink."""
    g = np.asarray(g, dtype=float)
    s = float(s)

    def sub(y):
        u = float(np.dot(g, y)) + s
        return np.sign(u) * g

    return PointModel(lambda y: abs(float(np.dot(g, y)) + s), sub,
                      scalar_abs=(g, s))


class ProxStepResult:
    """Outcome of one Bregman proximal step."""

    def __init__(self, minimizer, inner_iterations, three_point_residual,
                 objective_decrease, method):
        self.minimizer = np.asarray(minimizer, dtype=float)
        self.inner_iterations = int(inner_iterations)
        self.three_point_residual = float(three_point_residual)
        self.objective_decrease = float(objective_decrease)
        self.method = method


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


# ---------------------------------------------------------------------------
# scalar machinery for radial phi
# ---------------------------------------------------------------------------

def solve_monotone_power(coefs, powers, target, tol=1e-14, max_iter=200):
    """Root of sum_k c_k p_k r^(p_k - 1) = target over r >= 0.

    The left-hand side is strictly increasing (and convex) for nonnegative
    coefficients, so the root is unique; safeguarded Newton with a bisection
    fallback keeps every iterate inside a sign-changing bracket.
    """
    coefs = np.asarray(coefs, dtype=float) * np.asarray(powers, dtype=float)
    expos = np.asarray(powers, dtype=float) - 1.0

    def s(r):
        return float(np.sum(coefs * r ** expos))

    def dsdr(r):
        # d/dr c r^e = c e r^(e-1); exponents are >= 1 so this is finite at 0
        out = 0.0
        for c, e in zip(coefs, expos):
            out += c if e == 1.0 else c * e * r ** (e - 1.0)
        return out

    if target <= 0.0:
        return 0.0
    hi = 1.0
    it = 0
    while s(hi) < target:
        hi *= 2.0
        it += 1
        if hi > 1e154:
            raise InnerSolveError("radial scale equation has no finite root bracket")
    lo = 0.0
    r = hi
    for _ in range(max_iter):
        f = s(r) - target
        if abs(f) <= tol * (1.0 + target):
            return r
        if f > 0:
            hi = r
        else:
            lo = r
        d = dsdr(r)
        step_ok = d > 0
        if step_ok:
            r_new = r - f / d
            step_ok = lo < r_new < hi
        if not step_ok:
            r_new = 0.5 * (lo + hi)
        if abs(r_new - r) <= 1e-17 * (1.0 + r):
            return r_new
        r = r_new
    return r


def _radial_prox(phi, z, eta, v, radius=None):
    """argmin <v, x> + (1/eta) D(x, z) (+ ball indicator) for radial phi.

    Writes the optimality condition grad phi(x) = grad phi(z) - eta v, which
    forces x = s * u along u = normalize(rhs); the scalar s solves the
    monotone power equation, clipped at the ball radius when present (valid
    because the radial objective is increasing in s beyond the unconstrained
    root).
    """
    terms = phi.radial_terms()
    if terms is None:
        raise InnerSolveError("phi is not radial")
    coefs, powers = terms
    w = phi.gradient(z) - eta * np.asarray(v, dtype=float)
    g = float(np.linalg.norm(w))
    if g == 0.0:
        return np.zeros_like(w)
    s = solve_monotone_power(coefs, powers, g)
    if radius is not None and s > radius:
        s = radius
    return (s / g) * w


# ---------------------------------------------------------------------------
# closed-form dispatch for affine models
# ---------------------------------------------------------------------------

def _affine_closed_form(v, reg, phi, z, eta):
    """Closed-form minimizer of <v, x> + r(x) + (1/eta) D(x, z), or None."""
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    euclid = isinstance(phi, Euclidean)
    entropy = isinstance(phi, ShannonEntropy)
    radial = phi.radial_terms() is not None

    if reg.kind == "zero":
        if euclid:
            return z - eta * v
        if entropy:
            return z * np.exp(-eta * v)
        if isinstance(phi, Burg):
            w = 1.0 / z + eta * v
            if np.any(w <= 0):
                raise InnerSolveError("Burg prox subproblem is unbounded below")
            return 1.0 / w
        if radial:
            return _radial_prox(phi, z, eta, v)
    elif reg.kind == "indicator_simplex" and entropy:
        logits = np.log(z) - eta * v
        logits -= np.max(logits)
        w = np.exp(logits)
        return w / np.sum(w)
    elif reg.kind == "entropy_like" and entropy:
        logits = (np.log(z) - eta * v) / (1.0 + eta * reg.weight)
        logits -= np.max(logits)
        w = np.exp(logits)
        return w / np.sum(w)
    elif reg.kind == "indicator_ball":
        if euclid:
            u = z - eta * v
            n = float(np.linalg.norm(u))
            if n > reg.radius:
                u = (reg.radius / n) * u
            return u
        if radial:
            return _radial_prox(phi, z, eta, v, radius=reg.radius)
    elif reg.kind == "l1" and euclid:
        u = z - eta * v
        return np.sign(u) * np.maximum(np.abs(u) - eta * reg.weight, 0.0)
    elif reg.kind == "quadratic" and euclid:
        return (z - eta * v) / (1.0 + eta * reg.weight)
    return None


def _norm_term_closed_form(v, c, reg, phi, z, eta):
    """Minimizer of <v,x> + c||x|| + r(x) + (1/(2 eta))||x - z||^2 (Euclidean)."""
    if not isinstance(phi, Euclidean) or reg.kind not in ("zero", "indicator_ball"):
        return None
    u = z - eta * np.asarray(v, dtype=float)
    n = float(np.linalg.norm(u))
    if n == 0.0:
        return np.zeros_like(u)
    s = max(n - eta * c, 0.0)
    if reg.kind == "indicator_ball":
        s = min(s, reg.radius)
    return (s / n) * u


def _abs_model_prox(g, s, reg, phi, z, eta):
    """Exact prox for model(y) = |<g, y> + s| by a monotone slope search.

    The minimizer coincides with the affine prox for some slope theta*g with
    theta in [-1, 1]; phi(theta) = <g, y(theta)> + s is nonincreasing, so the
    interior case reduces to a bracketed scalar root.
    """
    def y_of(theta):
        return _affine_closed_form(theta * g, reg, phi, z, eta)

    probe = y_of(1.0)
    if probe is None:
        return None, 0
    def lvl(theta, y=None):
        y = y_of(theta) if y is None else y
        return float(np.dot(g, y)) + s

    if lvl(1.0, probe) >= 0.0:
        return probe, 1
    y_lo = y_of(-1.0)
    if lvl(-1.0, y_lo) <= 0.0:
        return y_lo, 2
    theta, info = brentq(lvl, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16,
                         maxiter=200, full_output=True)
    return y_of(theta), info.iterations + 2


# ---------------------------------------------------------------------------
# iterative inner solver
# ---------------------------------------------------------------------------

def _total_objective(model, reg, phi, z, eta):
    def psi(y):
        rv = reg.value(y)
        if not np.isfinite(rv) or not phi.in_domain(y):
            return np.inf
        return model.value(y) + rv + phi.bregman(y, z) / eta
    return psi


def _elementwise(fn, ys):
    """fn at each entry of an (N,) array of 1-d points, as N values."""
    out = np.asarray(fn(ys), dtype=float)
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


def _certify_1d(model, reg, phi, z, y, eta, rho, tol):
    """Center-probe three-point certificate of a batch of 1-d prox steps.

    With the convexified split of _certify (rho = 0 gives the plain
    inequality) the residual at the probe x = z is

        eta (psi(z) - psi(y)) - D(y, z) - (1 - eta rho) D(z, y),

    psi = model + r.  Raises InnerSolveError if any residual is below
    -tol (1 + |psi(z)|), and DomainError if any center is infeasible.
    """
    Z, Y = z[:, None], y[:, None]
    psi_z = _elementwise(model._value_fn, z) + np.array([reg.value(c) for c in Z])
    if not np.all(np.isfinite(psi_z)):
        raise DomainError("prox centers must be feasible for the objective")
    psi_y = _elementwise(model._value_fn, y) + np.array([reg.value(c) for c in Y])
    res = (eta * (psi_z - psi_y) - phi.bregman_rows(Y, Z)
           - (1.0 - eta * rho) * phi.bregman_rows(Z, Y))
    scale = tol * (1.0 + np.abs(psi_z))
    bad = np.flatnonzero(~(res >= -scale))
    if bad.size:
        i = bad[0]
        raise InnerSolveError(
            "1-d prox point %d of %d missed tolerance: three-point residual "
            "%.3e < -%.3e" % (i, z.size, res[i], scale[i]))


def prox_points_1d(model, reg, phi, centers, eta, rho=0.0, tol=1e-10):
    """Certified argmin model(y) + r(y) + (1/eta) D(y, z) for each 1-d center.

    centers is an (N,) array of 1-d points, and the model's value and
    subgradient functions must act elementwise on such arrays.  All N
    problems are bisected in lockstep and certified together; one element
    that fails raises InnerSolveError for the whole batch.  rho is the
    relative weak-convexity modulus of model + r, with eta * rho < 1.
    """
    z = np.asarray(centers, dtype=float)
    phi.check_interior(z)
    y, _ = _solve_1d(model, reg, phi, z, eta)
    _certify_1d(model, reg, phi, z, y, eta, rho, tol)
    return y


def _solve_newton(model, reg, phi, z, eta, tol, max_iter=120):
    """Damped Newton for smooth models with r = 0, polished past the tolerance.

    Raises InnerSolveError when the line search fails, or max_iter runs out,
    while half the Newton decrement is still above tol (1 + |psi(z)|).
    """
    if reg.kind != "zero":
        raise InnerSolveError("Newton inner path requires a zero regularizer")
    z = np.asarray(z, dtype=float)
    d = z.size
    psi = _total_objective(model, reg, phi, z, eta)
    gz = phi.gradient(z)

    def grad(y):
        return model.subgradient(y) + (phi.gradient(y) - gz) / eta

    def hess(y):
        Hm = model.hessian(y) if model.hessian_fn is not None else None
        if Hm is None:
            # finite differences of the analytic gradient
            h = finite_difference_step(y)
            Hm = np.zeros((d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                Hm[:, i] = (model.subgradient(y + e) - model.subgradient(y - e)) / (2 * h)
        Hphi = np.column_stack([phi.hessian_apply(y, e) for e in np.eye(d)])
        return Hm + Hphi / eta

    y = z.copy()
    fy = psi(y)
    tol_obj = tol * (1.0 + abs(fy))
    polish = 0
    for it in range(1, max_iter + 1):
        g = grad(y)
        H = hess(y)
        try:
            p = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            p = -g
        dec = -float(np.dot(g, p))
        if dec <= 0:
            p = -g
            dec = float(np.dot(g, g))
        if 0.5 * dec <= tol_obj:
            polish += 1
            if polish > 2 or 0.5 * dec <= 1e-30:
                return y, it
        t = 1.0
        for _ in range(60):
            cand = y + t * p
            if phi.in_interior(cand):
                fc = psi(cand)
                if fc <= fy - 1e-4 * t * dec or fc < fy - 1e-16 * (1 + abs(fy)):
                    y = cand
                    fy = fc
                    break
            t *= 0.5
        else:
            if 0.5 * dec > tol_obj:
                raise InnerSolveError(
                    "Newton line search failed after 60 halvings with half "
                    "decrement %.3e > %.3e" % (0.5 * dec, tol_obj))
            return y, it
    if 0.5 * dec > tol_obj:
        raise InnerSolveError(
            "Newton solve used %d iterations with half decrement %.3e > %.3e"
            % (max_iter, 0.5 * dec, tol_obj))
    return y, max_iter


def _solve_mirror(model, reg, phi, z, eta, max_iter=20000):
    """Diminishing-step linearized descent, the nonsmooth fallback.

    Linearizes both the model and the (1/eta) D(., z) term at the current
    point and applies the affine closed form with a small inner step; tracks
    the best objective value seen.  Low accuracy by nature; the certificate
    in inner_solve decides whether the result is accepted.
    """
    z = np.asarray(z, dtype=float)
    psi = _total_objective(model, reg, phi, z, eta)
    gz = phi.gradient(z)
    y = z.copy()
    best, best_y = psi(y), y.copy()
    beta0 = eta
    stalls = 0
    for k in range(1, max_iter + 1):
        u = model.subgradient(y) + (phi.gradient(y) - gz) / eta
        beta = beta0 / np.sqrt(k)
        y_next = _affine_closed_form(u, reg, phi, y, beta)
        if y_next is None:
            raise InnerSolveError("no affine prox available for the fallback solver")
        moved = float(np.max(np.abs(y_next - y)))
        y = y_next
        f = psi(y)
        if f < best - 1e-18 * (1.0 + abs(best)):
            best, best_y = f, y.copy()
        stalls = stalls + 1 if moved <= 1e-16 * (1.0 + np.max(np.abs(y))) else 0
        if stalls >= 3:
            return best_y, k
    return best_y, max_iter


class CompositeObjective:
    """model + regularizer bundle accepted by inner_solve."""

    def __init__(self, model, reg):
        self.model = model
        self.reg = reg

    def value(self, y):
        return self.model.value(y) + self.reg.value(y)


def _certify(model, reg, phi, center, minimizer, eta, rho, probes):
    """Three-point certificate of a prox step.

    For a convex model (rho = 0) this is the plain inequality with
    g = eta (model + r).  A rho-weakly convex objective is certified through
    the convexified split g = eta (model + r + rho D(., center)) against the
    remaining (1 - eta rho) fraction of the divergence, which is exactly the
    inequality the convergence analysis uses.
    """
    if rho > 0.0:
        cert_phi = WeightedSum([phi], [1.0 - eta * rho])

        def g_val(x):
            return eta * (model.value(x) + reg.value(x)
                          + rho * phi.bregman(x, center))
    else:
        cert_phi = phi

        def g_val(x):
            return eta * (model.value(x) + reg.value(x))

    return check_three_point(g_val, cert_phi, center, minimizer, probes)


def inner_solve(objective, phi, center, eta, tol=1e-10, probes=None, rho=0.0):
    """Certified solve of min model(x) + r(x) + (1/eta) D(x, center).

    objective is a CompositeObjective (or anything with .model/.reg); rho is
    the relative weak-convexity modulus of model + r (0 for convex).  The
    returned ProxStepResult carries a three-point residual over the probe
    set (the center plus any caller-supplied points); a residual below
    -tol * (1 + |objective(center)|) raises InnerSolveError.
    """
    model, reg = objective.model, objective.reg
    center = np.asarray(center, dtype=float)
    if eta <= 0:
        raise ValueError("eta must be positive")
    psi = _total_objective(model, reg, phi, center, eta)
    f0 = psi(center)
    if center.size == 1:
        y, its = _solve_1d(model, reg, phi, center, eta)
        its = int(its[0])
        method = "bisection_1d"
    elif model.smooth and reg.kind == "zero":
        y, its = _solve_newton(model, reg, phi, center, eta, tol)
        method = "newton"
    else:
        y, its = _solve_mirror(model, reg, phi, center, eta)
        method = "mirror_fallback"

    probe_list = [center] + ([] if probes is None else list(probes))
    report = _certify(model, reg, phi, center, y, eta, rho, probe_list)
    scale = tol * (1.0 + abs(f0))
    if report.min_residual < -scale:
        raise InnerSolveError(
            "inner solve missed tolerance: three-point residual %.3e < -%.3e"
            % (report.min_residual, scale))
    return ProxStepResult(y, its, report.min_residual, f0 - psi(y), method)


# ---------------------------------------------------------------------------
# the outer-facing prox step
# ---------------------------------------------------------------------------

def prox_step(model, reg, phi, center, eta, rho=0.0, inner_tol=1e-10):
    """One Bregman proximal step from the given center.

    Requires eta * rho < 1 so the composite subproblem is convex.  Dispatches
    to a registered closed form when the (model, r, phi) triple matches one,
    otherwise to inner_solve; non-convergence of the inner solver is raised,
    never silently accepted.
    """
    center = np.asarray(center, dtype=float)
    if eta <= 0:
        raise ValueError("step size eta must be positive")
    if rho < 0:
        raise ValueError("weak convexity constant rho must be nonnegative")
    if eta * rho >= 1.0:
        raise ValueError("need eta * rho < 1 for a convex subproblem")
    phi.check_interior(center)
    if not reg.in_domain(center):
        raise DomainError("prox center must be feasible for the regularizer")

    psi = _total_objective(model, reg, phi, center, eta)

    if eta < ETA_FLOOR:
        return ProxStepResult(center, 0, 0.0, 0.0, "degenerate_eta")

    minimizer = None
    method = None
    its = 0
    if model.linear is not None:
        minimizer = _affine_closed_form(model.linear, reg, phi, center, eta)
        method = "closed_form_affine"
        its = 1
    if minimizer is None and model.scalar_abs is not None:
        g, s = model.scalar_abs
        minimizer, its = _abs_model_prox(g, s, reg, phi, center, eta)
        method = "closed_form_abs_affine"
    if minimizer is None and model.norm_term is not None:
        v, c = model.norm_term
        minimizer = _norm_term_closed_form(v, c, reg, phi, center, eta)
        method = "closed_form_norm"
        its = 1
    if minimizer is None:
        obj = CompositeObjective(model, reg)
        return inner_solve(obj, phi, center, eta, tol=inner_tol, rho=rho)

    report = _certify(model, reg, phi, center, minimizer, eta, rho, [center])
    return ProxStepResult(minimizer, its, report.min_residual,
                          psi(center) - psi(minimizer), method)


def prox_step_radial(v, reg, phi, center, eta):
    """Radial-structure prox for an affine model with slope v.

    Exposed separately so the scalar-equation path can be exercised and
    cross-checked directly against prox_step's generic dispatch.
    """
    if reg.kind not in ("zero", "indicator_ball"):
        raise ValueError("radial prox supports only zero or ball regularizers")
    radius = reg.radius if reg.kind == "indicator_ball" else None
    center = np.asarray(center, dtype=float)
    x = _radial_prox(phi, center, eta, v, radius=radius)
    model = linear_model(np.asarray(v, dtype=float))

    def g_val(y):
        return eta * (model.value(y) + reg.value(y))

    psi = _total_objective(model, reg, phi, center, eta)
    report = check_three_point(g_val, phi, center, x, [center])
    return ProxStepResult(x, 1, report.min_residual, psi(center) - psi(x),
                          "radial_scalar_equation")
