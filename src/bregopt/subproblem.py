"""Bregman proximal subproblems.

Each outer iteration solves

    argmin_x  model(x) + r(x) + (1/eta) D(x, z)

for a convex (or relatively weakly convex) sampled model, a simple closed
regularizer r (regularizers), and the run's Legendre function phi.  A model
is its row form (rowforms: AffineRows, ProxLinearRows, NormTermRows,
QuadraticRows, AbsQuadraticRows or SmoothRows): values and gradients (a
subgradient selection) over the rows of an (N, d) array; the atoms of
linear models that move with their centres (ProxLinearRows, TangentRows)
give their slopes there.  Both modules' names are imported here too.  Every step
goes through one dispatch on that form, made once per loop or batch
(step_plan), as a block of steps (a batch is a block of one step): the
affine or |affine| closed form, the radial solve with the norm-term weight,
the scalar secular equation of a quadratic under a radial phi, one kink
search and one radial root for a 1-d sum of |quadratic| terms, or one
lockstep Newton; a 1-d form with none of these takes the certified
bisection on its values and gradients.  Every returned step carries a
three-point optimality residual, the runtime contract

    g(x) + D(x, z) >= g(z+) + D(z+, z) + D(x, z+)   for all feasible x,

which holds with residual >= 0 exactly when z+ is the true minimizer.
"""

from collections import namedtuple
from contextlib import nullcontext
from functools import partial

import numpy as np

from .legendre import (Burg, DomainError, Euclidean, RowState, ShannonEntropy, dot_rows,
                       norm_rows, take_rows)
from .rowforms import (AbsQuadraticRows, AffineRows, NormTermRows,  # noqa: F401
                       ProxLinearRows, QuadraticRows, SmoothRows, TangentRows,
                       _kink_slopes, absolute_affine_model, linear_model)
from .regularizers import (BallIndicator, EntropyLike, L1Regularizer,  # noqa: F401
                           QuadraticRegularizer, Regularizer, SimplexIndicator,
                           ZeroRegularizer)


class InnerSolveError(RuntimeError):
    """Inner solver failed to certify the requested tolerance."""


ETA_FLOOR = 1e-14  # below this the prox step is a numerical no-op
SCAN_STEPS = 16    # the steps of one scanned chunk, whatever the number of runs
# the library's one step tolerance, relative: center_certificate's scale and
# the half Newton decrement at which _newton stops
INNER_TOL = 1e-10
RADIAL_TOL = 1e-14  # the relative residual at which solve_monotone_power stops
# the log of the largest total magnitude an entropic step's record may sum
# (float max over e^4, room for the certificate's handful of such sums)
_FLOAT_MAX = np.finfo(float).max
_LOG_RECORD_MAX = float(np.log(_FLOAT_MAX)) - 4.0
# below this norm the squares of a row's entries lose digits in the subnormals
_NORM_UNDERFLOW = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))
PowerTerms = namedtuple("PowerTerms", "a e closed a3 const terms cap")
# the division and invalid-value flags that the secular solve may raise
_quiet = partial(np.errstate, divide="ignore", invalid="ignore")


class ProxStepResult:
    """Outcome of one Bregman proximal step z -> y.

    divergence is D(y, z); model_value and r_value are the model and r at y.
    method names the path: closed_form_affine, closed_form_abs_affine,
    closed_form_norm (the radial solve with the norm-term weight),
    closed_form_abs_quadratic, bisection_1d, secular, newton or degenerate_eta.
    For a batch of steps (prox_step_rows) every field but method and
    inner_iterations (the most any row used) holds one entry per row, and
    state is the minimizers' RowState (the next centres).
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


def center_certificate(psi_z, psi_y, d_yz, d_zy, eta, rho):
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

    and INNER_TOL, far above u, bounds the residual below by -INNER_TOL *
    scale: a step with large divergences (an entropic D(y, z) = 4e13) is held
    to the same relative accuracy as a small one.  The arguments may be arrays
    of a batch.  Raises InnerSolveError below -INNER_TOL * scale, or at a
    residual that is not a finite number from a feasible center (a minimizer
    outside dom r reads -inf against an infinite scale), with the first such
    row as its attribute row, and then DomainError if a center is
    infeasible; returns the residuals.
    """
    d_zy = (1.0 - eta * rho) * d_zy
    res = eta * (psi_z - psi_y) - d_yz - d_zy
    scale = INNER_TOL * (1.0 + eta * (np.abs(psi_z) + np.abs(psi_y)) + np.abs(d_yz)
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


def record_rows(values, phi, Z, Y, eta, rho=0.0):
    """The record of prox steps from the centres' RowState Z to the
    minimizers' RowState Y: (the models at Y, psi = model + r at Z,
    D(y, z), the center_certificate residuals).  values maps an (N, d) array
    to the models at its rows, row i's model at row i.  Every pass is row by
    row, so several steps' rows record in one call bit for bit as each step
    would alone, and eta may hold one step size per row.  Raises as
    center_certificate, at INNER_TOL.
    """
    d_yz, d_zy = phi.bregman_pair(Y, Z)
    model_y = values(Y.points)
    psi_z = values(Z.points) + Z.r
    return (model_y, psi_z, d_yz,
            center_certificate(psi_z, model_y + Y.r, d_yz, d_zy, eta, rho))


def _recorded(values, reg, phi, Z, found, eta, rho):
    """The ProxStepResult of a solve's found = (minimizers, their mirror
    coordinates or None, inner iterations, method) from the centres'
    RowState Z: the minimizers' state (phi.state_at) and record_rows."""
    Y, mirror, its, method = found
    Y = phi.state_at(Y, phi.mirror_rows(Y) if mirror is None else mirror, reg)
    model_y, psi_z, d_yz, res = record_rows(values, phi, Z, Y, eta, rho)
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
    equations read, prepared once.  With a_k = c_k p_k and e_k = p_k - 1,
    phi'(r) = s(r) = sum_k a_k r^e_k = A(r) r, A(r) = const + sum_k a_k
    r^(e_k - 1) over the terms e_k > 1 and const = A(0) the sum of the
    other a_k: those terms as the arrays a, e (solve_monotone_power) and as
    the pairs (a_k, e_k - 1) of terms (_power_sum); whether the powers are
    {2, 4}, and a3, the a_k of e_k = 3 (_cubic_root); cap, up to which s
    does not overflow, with s(cap) >= min(1, a) M / (4 n) (n terms, M the
    largest float)."""
    c, p = np.asarray(coefs, dtype=float), np.asarray(powers, dtype=float)
    a, e = (c * p)[c > 0.0], (p - 1.0)[c > 0.0]
    cap = np.minimum.reduce((_FLOAT_MAX / (4.0 * a.size * np.maximum(a, 1.0))) ** (1.0 / e))
    high = e > 1.0
    return PowerTerms(a[high], e[high], set(e.tolist()) == {1.0, 3.0}, a[e == 3.0].sum(),
                      sum(a[~high].tolist(), 0.0),
                      list(zip(a[high].tolist(), (e[high] - 1.0).tolist())), cap)


def _kernel_power(phi):
    """phi's power_terms, or None when phi is not radial, prepared once per
    kernel and kept with it (a Legendre function is immutable)."""
    if "_power_terms" not in phi.__dict__:
        terms = phi.radial_terms()
        phi._power_terms = None if terms is None else power_terms(*terms)
    return phi._power_terms


def solve_monotone_power(power, target, shift=0.0, *, max_iter=200):
    """Root of f(r) = (shift + A(r)) r = (shift + const) r + sum_k a_k r^e_k
    = target over r >= 0 (the power_terms power's terms e_k > 1), unique
    where shift + A(0) >= 0 (> 0 for a kernel of power 2 alone), as f is
    then increasing and convex.

    Each entry g starts from the upper bound min(g / (shift + A(0)),
    (g/a_k)^(1/e_k) over the terms), exact for one term, from which Newton
    descends monotonically, so every root lies at or above the true one.
    The start is returned when every entry has |f(r) - g| <= RADIAL_TOL
    (1 + g); the entries above take Newton steps in lockstep.  target and
    shift broadcast to the roots' shape; entries g <= 0 give 0.  A
    non-finite target or shift, shift + A(0) < 0, or an entry unsolved after
    max_iter steps raises InnerSolveError.  (The radial steps take the
    closed form of the powers {2, 4} instead, _radial_root.)
    """
    a, e = power[:2]
    target, lin = np.broadcast_arrays(np.asarray(target, dtype=float), power.const + shift)
    g, lin = target.reshape(-1), lin.reshape(-1)
    if not np.logical_and.reduce(np.isfinite(g) & (lin >= 0.0) & (lin < np.inf)):
        raise InnerSolveError("radial scale equation needs finite g and shift + A(0) >= 0")
    g = np.where(g > 0.0, g, 0.0)
    r = np.minimum(np.minimum.reduce((g[:, None] / a) ** (1.0 / e), axis=1, initial=np.inf),
                   np.divide(g, lin, out=np.full(g.shape, np.inf), where=lin > 0.0))
    f = lin * r + np.add.reduce(a * r[:, None] ** e, axis=1) - g
    scale = RADIAL_TOL * (1.0 + g)
    busy = np.abs(f) > scale
    if not np.logical_or.reduce(busy):
        return r.reshape(target.shape)
    idx = np.flatnonzero(busy)
    for _ in range(max_iter):
        ri, li = r[idx], lin[idx]
        r[idx] = ri = ri - f[busy] / (li + np.add.reduce(a * e * ri[:, None] ** (e - 1.0), axis=1))
        f = li * ri + np.add.reduce(a * ri[:, None] ** e, axis=1) - g[idx]
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


def _radial_root(power, g, shift=0.0):
    """The root r >= 0 of (shift + A(r)) r = g >= 0 entrywise for the
    power_terms power, where shift + A(0) > 0: the library's one solver of
    a radial scalar equation (the steps of _radial_solver and _abs_affine_1d
    at shift 0, the pieces of _abs_quadratic_rows, _secular's start): for a
    kernel of power 2 alone g / (const + shift), solve_monotone_power's exact
    start, for the powers {2, 4} _cubic_root(const + shift, a3, g), else
    solve_monotone_power."""
    if not power.terms:
        return g / (power.const + shift)
    return (_cubic_root(power.const + shift, power.a3, g) if power.closed
            else solve_monotone_power(power, g, shift=shift))


def _radial_solver(power, radius, weight, V, Z, M, eta):
    """argmin <v_i, x> + weight ||x|| + (1/eta) D(x, z_i) (+ ball indicator)
    per row, radial phi, and the minimizers' mirror coordinates (None if
    the weight is nonzero or a row is clipped).

    Writes the optimality condition grad phi(x) = W - eta weight x / |x|,
    W = grad phi(z) - eta v, which forces x = s * u along u = W / |W|; the
    scalar s is the root of s(r) = max(|W| - eta weight, 0) for the
    power_terms power (_radial_root), clipped at the ball radius unless it
    is None (valid because the radial objective is increasing in s beyond
    the unconstrained root).  grad phi at the centres Z is their mirror
    coordinates M, and W is the minimizer's where the weight is 0 and no
    row is clipped.  A row whose square underflows (norm below
    _NORM_UNDERFLOW) takes its norm scaled by its largest entry.
    """
    W = M - eta * V
    g = norm_rows(W)
    if np.minimum.reduce(g, initial=np.inf) < _NORM_UNDERFLOW:
        tiny = np.flatnonzero(g < _NORM_UNDERFLOW)
        m = np.abs(W[tiny]).max(axis=1, keepdims=True)
        U = np.divide(W[tiny], m, out=np.zeros((tiny.size, W.shape[1])), where=m > 0.0)
        g[tiny] = m[:, 0] * norm_rows(U)
    s = _radial_root(power, np.maximum(g - eta * weight, 0.0) if weight else g)
    M = None if weight else W
    if radius is not None and np.logical_or.reduce(s > radius):
        s, M = np.minimum(s, radius), None
    return np.divide(s, g, out=np.zeros(g.shape), where=g > 0.0)[:, None] * W, M


def _log_softmax(logits):
    """(exp(L), L) for L the log-softmax of each row (last axis) of logits."""
    L = logits - logits.max(axis=-1, keepdims=True)
    L = L - np.log(np.exp(L).sum(axis=-1, keepdims=True))
    return np.exp(L), L


def _check_entropic_range(log_y, log_z, v, eta):
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
    w = 1.0 + np.abs(log_y) + np.abs(log_z) + (1.0 + eta) * np.abs(v)
    bound = (np.logaddexp(log_y, log_z) + np.log(w)).max(axis=-1) + np.log(log_y.shape[-1])
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
    """(V, Z, M, eta) -> (argmin <v_i, x> + r(x) + (1/eta) D(x, z_i), its
    mirror coordinates or None) in closed form, chosen once for (r, phi), or
    None.

    Z is an (S, d) array of centers, M their mirror coordinates and V an
    (S, d) array of slopes, one subproblem per row.  The entropic steps are
    taken in log space from log z = M and return log y with y = exp(log y):
    log z - eta v (r = 0), its log-softmax (simplex), and the log-softmax of
    (log z - eta v)/(1 + eta mu) (entropy-like tilt).
    """
    euclid = isinstance(phi, Euclidean)
    entropy = isinstance(phi, ShannonEntropy)
    power = _kernel_power(phi)

    if reg.kind == "zero":
        if entropy:
            def entropic(v, Z, M, eta):
                log_y = M - eta * v
                _check_entropic_range(log_y, M, v, eta)
                return np.exp(log_y), log_y

            return entropic
        if isinstance(phi, Burg):
            def burg(v, Z, M, eta):
                # grad phi(z) = -1/z
                w = eta * v - M
                if np.any(w <= 0):
                    raise InnerSolveError("Burg prox subproblem is unbounded below")
                return 1.0 / w, None

            return burg
        if power is not None:
            return partial(_radial_solver, power, None, 0.0)
    elif reg.kind == "indicator_simplex" and entropy:
        return lambda v, Z, M, eta: _log_softmax(M - eta * v)
    elif reg.kind == "entropy_like" and entropy:
        return lambda v, Z, M, eta: _log_softmax((M - eta * v) / (1.0 + eta * reg.weight))
    elif reg.kind == "indicator_ball":
        if euclid:
            radius = reg.radius

            def ball(v, Z, M, eta):
                # the points are their own mirror coordinates
                u = Z - eta * v
                # radius / n past the radius, radius / radius = 1 inside
                y = radius / np.maximum(norm_rows(u)[..., None], radius) * u
                return y, y

            return ball
        if power is not None:
            return partial(_radial_solver, power, reg.radius, 0.0)
    elif reg.kind == "l1" and euclid:
        def l1(v, Z, M, eta):
            u = Z - eta * v
            return np.sign(u) * np.maximum(np.abs(u) - eta * reg.weight, 0.0), None

        return l1
    elif reg.kind == "quadratic" and euclid:
        return lambda v, Z, M, eta: ((Z - eta * v) / (1.0 + eta * reg.weight), None)
    return None


def _abs_quadratic_rows(reg, power, phi, rows, Z, eta):
    """The path of AbsQuadraticRows: r = 0, phi radial of power_terms power.

    The minimizer y of eta f + D(., z) solves h(y) = c = phi'(z) for the
    monotone subdifferential h = eta f' + phi'.  On piece j,
    h(y) = (2 eta C_j + A(|y|)) y, odd and increasing when
    2 eta C_j + A(0) > 0; at a kink K, h jumps up from h_-(K) = 2 eta C_j K +
    phi'(K) to h_+(K) = 2 eta C_{j+1} K + phi'(K) (crossing +-k_i into
    |y| > k_i raises the slope of |a_i^2 y^2 - b_i| by 2 w_i a_i^2 |y|).  So
    with j = searchsorted(h_+(K), c) the point is K_j when h_-(K_j) <= c,
    else the root sign(c) _radial_root(power, |c|, 2 eta C_j) on piece j:
    one search and one root per row, whatever the batch.  The condition
    2 eta min C + A(0) > 0 is checked here (else _bisection_rows); for P1
    (A(0) = 2 c2 = 7, tau = (4/3) sum w a^2, min C >= -sum w a^2) it holds at
    every envelope step, as eta (tau + rho) < 1 gives eta sum w a^2 < 3/4.
    """
    K, C = rows.kinks, rows.curvatures
    shift = 2.0 * eta * C
    if not power.const + shift.min() > 0.0:
        return _bisection_rows(reg, phi, rows, Z, eta)
    c = Z.mirror[:, 0]
    gk = phi.gradient_rows(K[:, None])[:, 0]
    j = np.searchsorted(shift[1:] * K + gk, c)
    # h_-(K_j), +inf past the last kink
    low = np.append(shift[:-1] * K + gk, np.inf)[j]
    y = np.where(low <= c, np.append(K, 0.0)[j],
                 np.sign(c) * _radial_root(power, np.abs(c), shift[j]))
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
        y, W = _abs_affine_1d(solve, power, phi, G[:, 0], s, Z.points[:, 0], Z.mirror[:, 0], eta)
        return y[:, None], None if W is None else W[:, None], 1, "closed_form_abs_affine"
    lo, hi = _theta_bounds(phi, Z.points, G, eta)

    def level(theta, idx):
        y = solve(theta[:, None] * G[idx], Z.points[idx], Z.mirror[idx], eta)[0]
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
    return (*solve(theta[:, None] * G, Z.points, Z.mirror, eta), its, "closed_form_abs_affine")


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


def _abs_affine_1d(solve, power, phi, g, s, z, m, eta):
    """The path of |g_i y + s_i| + (1/eta) D(y, z_i) over 1-d rows, r = 0,
    from the centres z and their mirror coordinates m, (S,) arrays: the
    minimizers y and, under a radial phi, their mirror coordinates (else
    None), (S,) arrays.

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
    w = phi.gradient_from_mirror(m)
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
        y = solve((theta * g)[:, None], z[:, None], m[:, None], eta)[0][:, 0]
        y[kink] = y0[kink]
        y[flat] = z[flat]
        return y, None
    y = np.where(kink, y0, np.copysign(_radial_root(power, np.abs(W)), W))
    y[flat] = z[flat]
    return y, W


def _step_views(rows, n):
    """The row form rows of n S rows (step-major) with each array field
    viewed as (n, S, ...), row k of a field step k's (one step views any
    form as (1, ...)): the steps that the block kernels below read.
    kernel(steps, P, M, etas, k, V) takes step k of a record block (or the
    chunk from it) from P[k] and M[k] to P[k + 1] and M[k + 1] and returns
    its (inner iterations, method) (plan.block)."""
    return type(rows)(*[f.reshape((n, -1) + f.shape[1:]) if f.__class__ is np.ndarray else f
                        for f in rows])


def _kink_step(solve, power, phi, steps, P, M, etas, k, V):
    """1-d prox-linear models (ProxLinearRows, r = 0): _abs_affine_1d on
    step k's atoms (a2, b)."""
    z = P[k, :, 0]
    y, W = _abs_affine_1d(solve, power, phi, *_kink_slopes(steps.a2[k], steps.b[k], z), z,
                          M[k, :, 0], etas[k])
    P[k + 1, :, 0] = y
    M[k + 1] = phi.mirror_rows(P[k + 1]) if W is None else W[:, None]
    return 1, "closed_form_abs_affine"


def _tangent_step(solve, phi, steps, P, M, etas, k, V):
    """Linear models (TangentRows): their slopes at P[k], kept in V[k] for
    the record, and the affine solve; a step with eta < ETA_FLOOR keeps its
    centres (degenerate_eta)."""
    V[k] = steps.slopes(steps.slope_fn, P[k], steps.shift[k])
    if etas[k] < ETA_FLOOR:
        P[k + 1], M[k + 1] = P[k], M[k]
        return 0, "degenerate_eta"
    P[k + 1], mirror = solve(V[k], P[k], M[k], etas[k])
    M[k + 1] = phi.mirror_rows(P[k + 1]) if mirror is None else mirror
    return 1, "closed_form_affine"


def _secular_step(power, growth, steps, P, M, etas, k, V):
    """Quadratic models under a radial phi: _secular on step k's
    SecularRows (the block enters its np.errstate)."""
    lam, W, U = steps
    P[k + 1], M[k + 1], its, method = _secular(power, growth, lam[k], W[k], U[k], M[k])
    return its, method


def _scan_chunk(scan, steps, P, M, etas, k, V):
    """Linear models whose slopes steps.shift depend on the sample only:
    steps k .. k + SCAN_STEPS - 1 in one _affine_scan call (affine steps)."""
    k1 = min(k + SCAN_STEPS, len(etas))
    P[k + 1:k1 + 1], M[k + 1:k1 + 1] = scan(steps.shift[k:k1], RowState(P[k], M[k], None, None),
                                            etas[k:k1])
    if k1 - k == 1 and etas[k] < ETA_FLOOR:
        return 0, "degenerate_eta"
    return 1, "closed_form_affine"


def _form_step(path, phi, steps, P, M, etas, k, V):
    """A path whose solve evaluates its models' row form (the lockstep
    Newton, the norm term, |affine| rows off the kink path): the path on
    step k's form of the views."""
    found = path(take_rows(steps, k), RowState(P[k], M[k], None, None), etas[k])
    P[k + 1] = found[0]
    M[k + 1] = phi.mirror_rows(found[0]) if found[1] is None else found[1]
    return found[2:]


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


def prox_points_1d(model, reg, phi, centers, eta, rho=0.0):
    """Certified argmin model(y) + r(y) + (1/eta) D(y, z) for each 1-d center.

    centers is an (N,) array of 1-d points, and the model any object with
    values and gradients (a subgradient selection) on (N, 1) arrays, as the
    row forms have.  All N problems are bisected in lockstep and certified
    together; one element
    that fails raises InnerSolveError for the whole batch.  rho is the
    relative weak-convexity modulus of model + r, with eta * rho < 1.
    """
    return _bisection_1d(model, reg, phi, centers, eta, rho).minimizer[:, 0]


def _bisection_1d(model, reg, phi, centers, eta, rho):
    """The certified steps of prox_points_1d, as a ProxStepResult over the
    centers."""
    _check_step(eta, rho)
    Z = phi.state_rows(np.asarray(centers, dtype=float)[:, None], reg)
    return _recorded(model.values, reg, phi, Z, _bisection_rows(reg, phi, model, Z, eta),
                     eta, rho)


def _bisection_rows(reg, phi, rows, Z, eta):
    """The last path, of a 1-d form with no other: _solve_1d's bisection on
    the form's values and gradients, as solve_rows' (minimizers, None, the
    most halvings of a row, "bisection_1d")."""
    y, its = _solve_1d(rows, reg, phi, Z, eta)
    return y[:, None], None, its.max(), "bisection_1d"


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


def _newton(rows, phi, state, eta, max_iter=120):
    """argmin model_i(y) + (1/eta) D(y, z_i) for each row z_i of the centres'
    RowState (phi at the centres is evaluated once here).

    rows is a SmoothRows (r = 0).  One damped Newton runs over all rows in
    lockstep (batched gradients, one np.linalg.solve over the (S, d, d)
    Hessian stack, a backtracking Armijo search per row as masks over the
    rows still searching), each row stopping on its own half Newton
    decrement: below INNER_TOL (1 + |psi_i(z_i)|) it is polished by up to
    two more full steps (until below 1e-30, or a full step fails the Armijo
    test), so every row takes the iterates of its own one-row call.  A row whose line
    search fails after 60 halvings, or still above the tolerance after
    max_iter iterations, raises InnerSolveError for the batch.  Returns
    solve_rows' (minimizers, None, iterations, "newton").
    """
    Z, gz = state.points, phi.gradient_from_mirror(state.mirror)
    vz = phi.value_rows(Z)
    S = len(Z)

    def psi(Y):
        return rows.values(Y) + (phi.value_rows(Y) - vz - dot_rows(gz, Y - Z)) / eta

    Y = Z.copy()
    fy = psi(Y)
    tol_obj = INNER_TOL * (1.0 + np.abs(fy))
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
_HOUSEHOLDER_POWERS = np.arange(2.0, 6.0)[:, None]  # the k of _secular's sums b^2 / D^k
# what _secular reads of QuadraticRows under step sizes eta: eta lam, eta Q c, U
SecularRows = namedtuple("SecularRows", "eigvals weights eigvecs")


def _power_sum(const, terms, s):
    """const + sum_k a_k s^e_k over the (a_k, e_k) of terms, entrywise."""
    out = const if terms else np.full(s.shape, const)
    for a, e in terms:
        out = out + a * s ** e
    return out


def _secular_rows(rows, eta):
    """The SecularRows of QuadraticRows under the array eta of step sizes,
    one per row, row by row: a block of steps prepares bit for bit as each
    step."""
    eta = eta[:, None]
    return SecularRows(eta * rows.eigvals,
                       eta * (rows.Q * rows.centers[..., None, :]).sum(axis=-1), rows.eigvecs)


def _growth(power):
    """t -> (A, 2 dA/dt) at t = r^2 >= 0, entrywise, for the power_terms
    power: A = const + sum_k a_k t^(e_k / 2) over its terms (a_k, e_k), with
    one number for the slope where A is affine in t (every e_k = 2)."""
    const, terms = power.const, power.terms
    if all(e == 2.0 for _, e in terms):
        a3 = sum(a for a, _ in terms)
        return lambda t: (const + a3 * t, 2.0 * a3)
    half, slopes = [(a, e / 2.0) for a, e in terms], [(a * e, e / 2.0 - 1.0) for a, e in terms]
    return lambda t: (_power_sum(const, half, t), _power_sum(0.0, slopes, t))


def _secular(power, growth, lam, W, U, mirror, max_iter=50):
    """argmin q_i(y) + (1/eta) D(y, z_i) for each centre z_i, of mirror
    coordinates mirror, for quadratics q under a radial phi = sum_k c_k
    ||y||^p_k (r = 0, power its power_terms, growth its _growth); lam, W and
    U are their SecularRows (_secular_rows), which hold eta.  The caller
    enters np.errstate(divide="ignore", invalid="ignore") (_quiet): a plan
    once per call or per record block.

    grad phi(y) = A(||y||) y with A(r) = sum_k c_k p_k r^(p_k - 2), so with
    Q_i = U diag(lam) U' the optimality condition
    eta Q_i (y - c_i) + A(||y||) y = grad phi(z_i) gives y = U v,
    v = b / (eta lam + u), b = U' (eta Q_i c_i + grad phi(z_i)), where
    u = A(||y||) is the root of H(u) = u - A(||v||), increasing as A is
    nondecreasing; A(||v||) is const + a3 sum v^2 for the powers {2, 4}, with
    no square root.  The start, A at the isotropic root (lam replaced by its
    b^2-weighted mean: _radial_root with shift eta lam), takes one
    Householder step of order 3 in u from the sums of b^2 / (eta lam + u)^k,
    k = 2..5 (with A's tangent in ||v||^2 where A is not affine in it).
    Newton steps in u follow in lockstep, clipped below at A(0)
    (H(A(0)) <= 0): for the powers {2, 4} H is concave, so a step lands at
    or below the root and the steps climb to it; other kernels clip above
    at A of the isotropic root with lam_min, which bounds u from above, as
    does solve_monotone_power's root of it.  The KKT residual of y at u,
    U ((A(||v||) - u) v), has norm at most |A(||v||) - u| ||b|| /
    (eta lam_min + u); a row stops on its own once that ratio is at most
    SECULAR_TOL, so its bits do not depend on the batch (with A constant,
    Euclidean, the first pass is exact).  Non-finite data, or a row above
    the tolerance after max_iter Newton steps, raises InnerSolveError.
    Returns solve_rows' (minimizers, their mirror coordinates A(||v||) y
    from the last pass, the passes (Newton steps + 1), "secular").
    """
    # eigh sorts each row's eigenvalues in ascending order; a one-row form
    # stands for every row
    lam = lam if lam.shape == mirror.shape else np.broadcast_to(lam, mirror.shape)
    B = ((W + mirror)[:, None, :] @ U)[:, 0, :]
    if not np.logical_and.reduce(np.isfinite(B), axis=None):
        raise InnerSolveError("secular equation needs finite data")
    BB = B * B
    g2 = np.add.reduce(BB, axis=1)
    # A at the isotropic roots of the b^2-weighted mean of lam (and of lam_min)
    kappa = lam[:, :1].copy() if power.closed else lam[:, [0, 0]]
    np.divide(np.add.reduce(BB * lam, axis=1), g2, out=kappa[:, 0], where=g2 > 0.0)
    u = _power_sum(power.const, power.terms, _radial_root(power, np.sqrt(g2)[:, None], kappa))
    # A(0) is below every root; the margin is for the rounding
    lo, hi = power.const, np.inf if power.closed else u[:, 1] * (1.0 + 1e-12)
    u, floor = u[:, 0], SECULAR_TOL * lam[:, 0]
    S2, S3, S4, S5 = np.add.reduce(BB[:, None, :] / (lam + u[:, None])[:, None, :]
                                   ** _HOUSEHOLDER_POWERS, axis=2).T
    # H = h, H' = h1, H'' = -3 w S4, H''' = 12 w S5 in Householder's step
    # (6 H H'^2 - 3 H^2 H'') / (6 H'^3 - 6 H H' H'' + H^2 H'''); at b = 0
    # the step is 0, or NaN (A'(0) infinite) that fmax turns into lo = A(0)
    a, w = growth(S2)
    h, h1 = u - a, 1.0 + w * S3
    wh, h2 = w * h, h1 * h1
    p, q = 1.5 * wh * S4, 2.0 * wh * h * S5
    u = np.fmin(np.fmax(u - h * (h2 + p) / (h1 * (h2 + p + p) + q), lo), hi)
    for it in range(max_iter + 1):
        D = lam + u[:, None]
        V = B / D
        VV = V * V
        a, w = growth(np.add.reduce(VV, axis=1))
        ok = np.abs(a - u) <= floor + SECULAR_TOL * u
        if np.logical_and.reduce(ok):
            break
        if it == max_iter:
            raise InnerSolveError(
                "secular equation of row %d unsolved after %d Newton steps"
                % (np.flatnonzero(~ok)[0], max_iter))
        step = u - (u - a) / (1.0 + w * np.add.reduce(VV / D, axis=1))
        # a stopped row keeps its u, and so recomputes its V bit for bit
        u = np.where(ok, u, np.fmin(np.fmax(step, lo), hi))
    Y = (U @ V[:, :, None])[:, :, 0]
    return Y, a[:, None] * Y, it + 1, "secular"


def inner_solve(model, reg, phi, center, eta, *, rho=0.0):
    """Certified 1-d bisection of min model(x) + r(x) + (1/eta) D(x, center):
    the one-row case of prox_points_1d (model any object with values and
    gradients on (N, 1) arrays), as a one-point ProxStepResult.

    center is one 1-d point; a d > 1 center raises InnerSolveError (its
    steps go through the row forms, prox_step).  rho is the relative
    weak-convexity modulus of model + r (0 for convex).  The minimizer is
    certified by center_certificate, which raises InnerSolveError below
    -INNER_TOL times the magnitudes of the terms its residual sums.
    """
    center = np.asarray(center, dtype=float)
    if center.size != 1:
        raise InnerSolveError("inner_solve bisects 1-d subproblems only, not d = %d"
                              % center.size)
    return _bisection_1d(model, reg, phi, center, eta, rho).row(0)


# ---------------------------------------------------------------------------
# the outer-facing prox steps
# ---------------------------------------------------------------------------

StepPlan = namedtuple("StepPlan", "block chunk slopes")


def step_plan(rows, d, reg, phi):
    """The path of all steps on models of the row form of rows (its type,
    and AffineRows' absolute flag) in dimension d under r and phi, chosen
    once with its constants (power_terms): the only code that chooses one.
    SmoothRows with r = 0 take the lockstep Newton (_newton, which stops at
    INNER_TOL), and QuadraticRows too unless phi is radial.  AbsQuadraticRows
    take their path under every radial phi with r = 0, and NormTermRows the
    radial solve with the norm-term weight (_radial_solver, closed_form_norm)
    under every radial phi with r zero or a ball.  A 1-d form with no other
    path, or AbsQuadraticRows with a piece of 2 eta C_j + A(0) <= 0, bisect
    (_bisection_rows); in d > 1 such a form raises InnerSolveError.

    The plan's one entry, plan.block(rows, P, M, etas, V), takes the n =
    len(etas) steps of a record block and returns its last step's (inner
    iterations, method): rows are their n S gathered rows, step-major, and
    P and M (n + 1, S, d) arrays whose first entries hold the first centres'
    points and mirror coordinates; step k writes its minimizers' to P[k + 1]
    and M[k + 1], its centres' when eta < ETA_FLOOR (degenerate_eta).  The
    block prepares its rows once (SecularRows; an affine model's slopes as
    TangentRows) and views them as (n, S, ...) (_step_views); its path's
    kernel reads step k's row of the views: 1-d prox-linear models step
    from their atoms (_kink_step), linear models from their slopes at the
    centres (_tangent_step, which keeps them in V, an (n, S, d) array, for
    the record: plan.slopes), quadratics under a radial phi by the secular
    equation (_secular_step, in one np.errstate per block), and slopes that
    depend on the sample only under the entropy and the simplex or its tilt
    are scanned plan.chunk = SCAN_STEPS steps per call (_scan_chunk).  The
    other paths evaluate step k's form of the views (_form_step).  When a
    step raises, the exception's block_steps counts the block's steps
    written before it.
    """
    power = _kernel_power(phi)
    path, prepare, kernel, chunk, quiet, slopes = None, None, None, 1, nullcontext, False
    if isinstance(rows, (SmoothRows, QuadraticRows)) and reg.kind == "zero":
        if isinstance(rows, QuadraticRows) and power is not None:
            prepare, kernel, quiet = (_secular_rows, partial(_secular_step, power, _growth(power)),
                                      _quiet)
        else:
            path = lambda rows, Z, eta: _newton(rows, phi, Z, eta)
    elif (isinstance(rows, NormTermRows) and power is not None
          and reg.kind in ("zero", "indicator_ball")):
        radius = reg.radius if reg.kind == "indicator_ball" else None
        path = lambda rows, Z, eta: (*_radial_solver(power, radius, rows.weight, rows.slopes,
                                                     Z.points, Z.mirror, eta),
                                     1, "closed_form_norm")
    elif isinstance(rows, (AffineRows, ProxLinearRows, TangentRows)):
        solve = _affine_solver(reg, phi)
        by_kink = reg.kind == "zero" and d == 1
        if solve is not None and rows.absolute:
            path = partial(_abs_affine_rows, solve, power, phi, by_kink)
            if by_kink and isinstance(rows, ProxLinearRows):
                kernel = partial(_kink_step, solve, power, phi)
        elif solve is not None:
            scan = (isinstance(rows, TangentRows) and rows.slope_fn is None
                    and _affine_scan(reg, phi))
            if scan:
                kernel, chunk = partial(_scan_chunk, scan), SCAN_STEPS
            else:
                kernel, slopes = partial(_tangent_step, solve, phi), True
            if isinstance(rows, AffineRows):
                # an affine model's step reads its slopes only
                prepare = lambda rows, eta: TangentRows(None, rows.slopes)
    elif isinstance(rows, AbsQuadraticRows) and reg.kind == "zero" and power is not None:
        path = partial(_abs_quadratic_rows, reg, power, phi)
    if kernel is None and path is None:
        if d > 1:
            raise InnerSolveError("%s has no batched prox step for r = %s and phi = %s"
                                  % (type(rows).__name__, reg.kind, phi.kind))
        path = partial(_bisection_rows, reg, phi)
    kernel = kernel or partial(_form_step, path, phi)
    # the block keeps the centres of degenerate steps (eta < ETA_FLOOR) but
    # those of a scanned chunk or of a tangent step, which keeps its slopes
    keeps = chunk == 1 and not slopes

    def block(rows, P, M, etas, V=None):
        n, k = len(etas), 0
        if prepare is not None:
            rows = prepare(rows, etas.repeat(P.shape[1]))
        steps = _step_views(rows, n)
        try:
            with quiet():
                for k in range(0, n, chunk):
                    if keeps and etas[k] < ETA_FLOOR:
                        P[k + 1], M[k + 1] = P[k], M[k]
                        found = 0, "degenerate_eta"
                    else:
                        found = kernel(steps, P, M, etas, k, V)
        except Exception as err:
            err.block_steps = k
            raise
        return found

    return StepPlan(block, chunk, slopes)


def solve_rows(rows, reg, phi, Z, eta, rho=0.0):
    """The step from the centres' RowState Z as a block of one step of a
    one-use step_plan, after checking eta and rho: (minimizers, their mirror
    coordinates, inner iterations, method)."""
    _check_step(eta, rho)
    plan = step_plan(rows, Z.points.shape[1], reg, phi)
    P, M = np.stack((Z.points, Z.points)), np.stack((Z.mirror, Z.mirror))
    V = np.empty(P[1:].shape) if plan.slopes else None
    return (P[1], M[1]) + plan.block(rows, P, M, np.array([eta], dtype=float), V)


def prox_step(rows, reg, phi, center, eta, rho=0.0):
    """One Bregman proximal step from the given center: the one-row case of
    prox_step_rows on the model's row form rows (one row).

    Requires eta * rho < 1 so the composite subproblem is convex.  Every
    step is certified by center_certificate at INNER_TOL: a residual below
    it raises InnerSolveError, never a quiet return.  A 1-d form with no
    closed form is bisected, and a d > 1 form with no path raises
    InnerSolveError (step_plan).
    """
    center = np.asarray(center, dtype=float)
    return prox_step_rows(rows, reg, phi, center[None, :], eta, rho).row(0)


def prox_step_rows(rows, reg, phi, centers, eta, rho=0.0):
    """One Bregman proximal step from each row of an (S, d) array of centers.

    Row i has the model of row i of rows (a one-row form stands for every
    row).  A step is its solve (solve_rows, the path step_plan picks, which
    raises InnerSolveError for a d > 1 form with no path) and its record
    (record_rows: the minimizers' state, the models at both ends, both
    divergences and the center_certificate, which raises InnerSolveError
    for the batch when one row is below INNER_TOL).  centers may be the
    RowState of the minimizers of the step before (its result's state),
    which is taken as it is; fresh centres' state is derived once
    (phi.state_rows).  Returns a ProxStepResult over the rows with its
    minimizers' state.  The lockstep loop (driver) takes the same plan per
    horizon and the same record per block of steps.
    """
    Z = phi.state_rows(centers, reg)
    return _recorded(rows.values, reg, phi, Z, solve_rows(rows, reg, phi, Z, eta, rho),
                     eta, rho)
