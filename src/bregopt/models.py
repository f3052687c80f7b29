"""Stochastic one-sided model oracles.

An oracle represents a family of sampled models f_x(., xi) of an objective
f: at the base point the model agrees with f in expectation, and away from
it the expected overshoot above f is controlled by tau times the Bregman
divergence.  Four families are implemented:

  proximal_point  f_x(y, xi) = f(y, xi), a full sampled function
  linear_mirror   f_x(y, xi) = f(x) + <G(x, xi), y - x>
  prox_linear     f_x(y, xi) = h(c(x, xi) + <grad c(x, xi), y - x>), h = |.|
  saddle          f_x(y, xi) = g_x(y, w_hat(x, xi), xi), w_hat the inner
                  argmax and g_x affine in y, of slope s(x, xi)

Every family forms its sampled models over rows of points (model_rows),
the one model form the prox steps and the lockstep loop take.

Constants (tau, rho, mu, L, M, sigma) are declared by the problem builder
and validated statistically by the verify_* checks below, never estimated
implicitly: the step-size rules need them a priori.
"""

import numpy as np

from .legendre import dot_rows
from .subproblem import (AffineRows, PointModel, QuadraticRows,
                         absolute_affine_model, linear_model)


class OracleConstants:
    """Declared constants of the assumption regime the oracle claims."""

    def __init__(self, tau=0.0, rho=0.0, mu=0.0, lip_bound_L=0.0,
                 smooth_M=0.0, variance_sigma=0.0):
        if min(tau, rho, mu, lip_bound_L, smooth_M, variance_sigma) < 0:
            raise ValueError("oracle constants must be nonnegative")
        self.tau = float(tau)
        self.rho = float(rho)
        self.mu = float(mu)
        self.lip_bound_L = float(lip_bound_L)
        self.smooth_M = float(smooth_M)
        self.variance_sigma = float(variance_sigma)


class ModelOracle:
    """Base class: immutable family of sampled one-sided models.

    Randomness enters only through the generator passed to sample(), so
    concurrent runs with distinct generator states are race-free and
    bit-reproducible under a fixed seed.
    """

    family = "abstract"
    # the (m, d) slopes of linear models whose slopes depend on the sample
    # only (LinearMirrorOracle), else None
    slope_table = None

    def __init__(self, regime, constants, test_point_sampler=None):
        if regime not in ("A", "B", "C"):
            raise ValueError("regime must be one of A, B, C")
        self.regime = regime
        self.constants = constants
        self.test_point_sampler = test_point_sampler

    # -- sampling -----------------------------------------------------------
    def sample(self, rng):
        raise NotImplementedError

    def sample_rows(self, rng, n):
        """n draws at once, the same stream (and generator state) as n sample calls."""
        raise NotImplementedError

    def draw_test_point(self, rng):
        if self.test_point_sampler is None:
            raise ValueError("oracle has no test point sampler configured")
        return np.asarray(self.test_point_sampler(rng), dtype=float)

    # -- models -------------------------------------------------------------
    def model_rows(self, X, xi):
        """The sampled models anchored at the rows of X (sample xi[i] at row
        i).

        AffineRows hold affine models offsets[i] + <slopes[i], y>, or their
        absolute values; QuadraticRows hold the full sampled quadratics of
        proximal_point.  The fields act on the last axis, so one point and
        one sample give the one-row case.
        """
        raise NotImplementedError

    def model_at(self, x, xi):
        """The sampled model anchored at x, as a PointModel: the one-row case
        of model_rows."""
        rows = self.model_rows(np.asarray(x, dtype=float), xi)
        if isinstance(rows, AffineRows):
            make = absolute_affine_model if rows.absolute else linear_model
            return make(rows.slopes, float(rows.offsets))
        return quadratic_model(rows)

    def model_value(self, x, y, xi):
        return self.model_at(x, xi).value(y)

    def lip_L(self, xi):
        """Per-sample Lipschitz-type constant L(xi)."""
        raise NotImplementedError

    # -- exact expectations ---------------------------------------------------
    def f_exact(self, x):
        """The true objective component f (exact or frozen-empirical)."""
        raise NotImplementedError

    def expected_model_value(self, x, y):
        """E_xi f_x(y, xi), exact for finite support."""
        raise NotImplementedError

    def expected_lip_sq(self):
        """E[L(xi)^2], exact for finite support."""
        raise NotImplementedError


class FiniteSupportOracle(ModelOracle):
    """Mixin for oracles whose sample space is {0..m-1} with given weights."""

    def __init__(self, weights, **kw):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        self.weights = weights
        self.n_atoms = weights.size
        super().__init__(**kw)

    def sample(self, rng):
        return int(rng.choice(self.n_atoms, p=self.weights))

    def sample_rows(self, rng, n):
        return rng.choice(self.n_atoms, p=self.weights, size=n)

    def expected_model_value(self, x, y):
        x = np.asarray(x, dtype=float)
        X = np.broadcast_to(x, (self.n_atoms,) + x.shape)
        rows = self.model_rows(X, np.arange(self.n_atoms))
        return float(self.weights @ rows.values(
            np.broadcast_to(np.asarray(y, dtype=float), X.shape)))

    def expected_lip_sq(self):
        return float(sum(w * self.lip_L(i) ** 2 for i, w in enumerate(self.weights)))


# ---------------------------------------------------------------------------
# linear models from a stochastic (sub)gradient map
# ---------------------------------------------------------------------------

def _tangent_rows(X, slopes, values):
    """AffineRows of the affine models values + <slopes, y - X>.

    X is one point or an (S, d) array of points, and values must hold one
    entry per point; points and slopes broadcast against each other, so one
    point with an (S, d) array of slopes gives S rows.
    """
    X = np.asarray(X, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != X.shape[:-1]:
        raise ValueError("model callbacks must act on the last axis of the points")
    slopes = np.asarray(slopes, dtype=float)
    if slopes.shape != X.shape:
        X = np.broadcast_to(X, np.broadcast_shapes(X.shape, slopes.shape))
        slopes = np.broadcast_to(slopes, X.shape)
        values = np.broadcast_to(values, X.shape[:-1])
    return AffineRows(slopes, values - dot_rows(slopes, X), False)


class LinearMirrorOracle(FiniteSupportOracle):
    """f_x(y, xi) = f(x) + <G(x, xi), y - x> over a finite sample space.

    f_fn and grad_map act on the last axis: at an (S, d) array of points
    (and S atom indices) they return S values and an (S, d) array.  When
    the slopes depend on the sample only, pass them instead as the (m, d)
    slope_table, row xi the slope of atom xi, and no grad_map: the model of
    sample xi is then f(x) + <slope_table[xi], y - x>, and a run's steps
    under the entropy are one cumulative sum in mirror coordinates, which
    the lockstep loop scans (subproblem._affine_scan).
    """

    family = "linear_mirror"

    def __init__(self, f_fn, grad_map=None, weights=None, lip_fn=None, regime=None,
                 constants=None, grad_f_fn=None, hess_f_fn=None,
                 test_point_sampler=None, slope_table=None):
        if (grad_map is None) == (slope_table is None):
            raise ValueError("give the slopes as exactly one of grad_map and slope_table")
        self._f = f_fn
        self._G = grad_map           # (x, atom index) -> vector
        self._lip = lip_fn           # atom index -> L(xi)
        if slope_table is not None:
            self.slope_table = np.asarray(slope_table, dtype=float)
        self.grad_f = grad_f_fn
        self.hess_f = hess_f_fn
        super().__init__(weights=weights, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def model_rows(self, X, xi):
        X = np.asarray(X, dtype=float)
        G = self._G(X, xi) if self.slope_table is None else self.slope_table[xi]
        return _tangent_rows(X, G, self._f(X))

    def lip_L(self, xi):
        return float(self._lip(xi))

    def f_exact(self, x):
        return float(self._f(np.asarray(x, dtype=float)))


class NoisyGradientOracle(ModelOracle):
    """Linear models built from an exact gradient plus additive noise.

    The smooth-minimization regime: xi is the noise vector itself, drawn from
    a seedable parametric generator with E[noise] = 0 and
    E||noise||^2 <= sigma^2 / 2.  noise_sampler maps (rng, n) to an (n, d)
    array of n draws, which must be the stream of n one-row draws.  f_fn and
    grad_f_fn act on the last axis: at an (S, d) array of points they return
    S values and an (S, d) array.
    """

    family = "linear_mirror"

    def __init__(self, f_fn, grad_f_fn, noise_sampler, regime, constants,
                 hess_f_fn=None, test_point_sampler=None):
        self._f = f_fn
        self.grad_f = grad_f_fn
        self.hess_f = hess_f_fn
        self._noise = noise_sampler  # (rng, n) -> (n, d) array
        super().__init__(regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def sample(self, rng):
        return self.sample_rows(rng, 1)[0]

    def sample_rows(self, rng, n):
        return np.asarray(self._noise(rng, n), dtype=float)

    def model_rows(self, X, xi):
        X = np.asarray(X, dtype=float)
        return _tangent_rows(X, self.grad_f(X) + np.asarray(xi, dtype=float),
                             self._f(X))

    def lip_L(self, xi):
        raise NotImplementedError(
            "noisy-gradient oracles claim a variance bound, not a Lipschitz one")

    def f_exact(self, x):
        return float(self._f(np.asarray(x, dtype=float)))

    def expected_model_value(self, x, y):
        # the noise is mean-zero, so the expected model is the exact tangent
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.f_exact(x) + float(np.dot(self.grad_f(x), y - x))


# ---------------------------------------------------------------------------
# partial linearization (Gauss-Newton / prox-linear) models
# ---------------------------------------------------------------------------

class CompositeData:
    """Data of a composite objective f(x) = E[|c(x, xi)|].

    The outer function h = |.| of the one inner output is convex and
    L1(xi)-Lipschitz; the inner map c(., xi) is smooth with Jacobian J.  Two
    growth polynomials describe the inner map: p bounds the Jacobian's
    Lipschitz modulus via L2_accuracy(xi)(p(||x||)+p(||y||)), and q bounds
    its operator norm via L2_growth(xi) sqrt(q(||x||)).  The polynomials
    themselves shape phi (build_composite_legendre), not the data.
    """

    def __init__(self, outer_lip, inner_value, inner_jacobian, l2_accuracy,
                 l2_growth):
        self.outer_lip = outer_lip            # xi -> L1(xi)
        self.inner_value = inner_value        # (x, xi) -> (..., 1) array
        self.inner_jacobian = inner_jacobian  # (x, xi) -> (..., 1, d) array
        self.l2_accuracy = l2_accuracy        # xi -> L2(xi) for the p bound
        self.l2_growth = l2_growth            # xi -> L2(xi) for the q bound


class ProxLinearOracle(FiniteSupportOracle):
    """Models |c(x, xi) + J(x, xi)(y - x)|: convex in y, rho = 0.

    The models are |affine| rows (model_rows); inner_value and
    inner_jacobian act on the last axis: (S, 1) values and an (S, 1, d)
    Jacobian at S points.
    """

    family = "prox_linear"

    def __init__(self, composite, weights, regime, constants, test_point_sampler=None):
        self.composite = composite
        super().__init__(weights=weights, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def model_rows(self, X, xi):
        comp = self.composite
        X = np.asarray(X, dtype=float)
        c = np.asarray(comp.inner_value(X, xi), dtype=float)
        if c.shape != X.shape[:-1] + (1,):
            raise ValueError("an absolute outer function takes one inner output, "
                             "and the inner callbacks must act on the last axis")
        G = np.asarray(comp.inner_jacobian(X, xi), dtype=float)[..., 0, :]
        return AffineRows(G, c[..., 0] - dot_rows(G, X), True)

    def lip_L(self, xi):
        comp = self.composite
        return float(np.sqrt(2.0) * comp.outer_lip(xi) * comp.l2_growth(xi))

    def f_exact(self, x):
        comp = self.composite
        x = np.asarray(x, dtype=float)
        X = np.broadcast_to(x, (self.n_atoms,) + x.shape)
        c = np.asarray(comp.inner_value(X, np.arange(self.n_atoms)), dtype=float)
        return float(self.weights @ np.abs(c[..., 0]))

    def tau_from_accuracy(self):
        """tau = (4/3) E[L1 L2] for the accuracy-adapted Legendre function."""
        comp = self.composite
        return float(4.0 / 3.0 * sum(
            w * comp.outer_lip(i) * comp.l2_accuracy(i)
            for i, w in enumerate(self.weights)))


# ---------------------------------------------------------------------------
# saddle / robust models
# ---------------------------------------------------------------------------

class SaddleData:
    """Data of a robust objective f(x) = E[sup_{w in W} g(x, w, xi)].

    argmax_solver returns w_hat(x, xi) attaining the inner sup of the model
    g_x(x, ., xi); for an l2-ball uncertainty set with g affine in w this is
    the closed-form radius * normalize(coefficient) selection.
    """

    def __init__(self, g_value, model_value, argmax_solver, w_radius=None):
        self.g_value = g_value            # (x, w, xi) -> float
        self.model_value = model_value    # (base x, y, w, xi) -> float
        self.argmax_solver = argmax_solver  # (x, xi) -> w_hat
        self.w_radius = w_radius


class SaddleOracle(FiniteSupportOracle):
    """f_x(y, xi) = g_x(y, w_hat, xi) with w_hat = w_hat(x, xi) the inner
    argmax, computed once, and g_x affine in y, of slope linear_slope(x, w_hat, xi).

    linear_slope, the argmax solver and the saddle's model_value act on the
    last axis of an (S, d) array of points, as the linear families'
    callbacks do; f_sup_exact is the exact f = E[sup_w g].
    """

    family = "saddle"

    def __init__(self, saddle, weights, lip_fn, regime, constants, f_sup_exact,
                 linear_slope, test_point_sampler=None):
        self.saddle = saddle
        self._lip = lip_fn
        self._f_sup = f_sup_exact
        self._linear_slope = linear_slope  # (x, w_hat, xi) -> the slope of g_x in y
        super().__init__(weights=weights, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def model_rows(self, X, xi):
        X = np.asarray(X, dtype=float)
        w_hat = self.saddle.argmax_solver(X, xi)
        return _tangent_rows(X, self._linear_slope(X, w_hat, xi),
                             self.saddle.model_value(X, X, w_hat, xi))

    def lip_L(self, xi):
        return float(self._lip(xi))

    def f_exact(self, x):
        return float(self._f_sup(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# full sampled functions (stochastic Bregman-proximal point)
# ---------------------------------------------------------------------------

def quadratic_model(rows):
    """The PointModel of one-row QuadraticRows (its functions act on rows)."""
    return PointModel(rows.values, rows.gradients, row_form=rows,
                      hessian_fn=rows.hessians, on_rows=True)


class ProximalPointOracle(FiniteSupportOracle):
    """f_x(y, xi) = f(y, xi) for sampled convex quadratics
    f(y, xi) = (1/2) (y - centers[xi])' Q[xi] (y - centers[xi]).

    atoms is the QuadraticRows of the m atoms (QuadraticRows.of(Q, centers,
    zero offsets)): their (m, d, d) symmetric positive definite matrices,
    (m, d) centers and eigenpairs, computed once at assembly.  model_rows
    gathers the sampled atoms' rows.  The exact f, its gradient and its
    Hessian are weighted sums over the atom axis and act on the last axis of
    the points.
    """

    family = "proximal_point"

    def __init__(self, atoms, weights, lip_fn, regime, constants, test_point_sampler=None):
        self.atoms = atoms
        self._lip = lip_fn
        super().__init__(weights=weights, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def model_rows(self, X, xi):
        xi = np.asarray(xi)
        a = self.atoms
        return QuadraticRows(a.Q[xi], a.centers[xi], a.offsets[xi], a.eigvals[xi],
                             a.eigvecs[xi])

    def lip_L(self, xi):
        return float(self._lip(xi))

    def f_rows(self, X):
        """f at each point of X (the last axis)."""
        return self.atoms.values(np.asarray(X, dtype=float)[..., None, :]) @ self.weights

    def f_exact(self, x):
        return float(self.f_rows(x))

    def grad_f(self, x):
        x = np.asarray(x, dtype=float)
        return np.matmul(self.weights, self.atoms.gradients(x[..., None, :]))

    def hess_f(self, x):
        H = np.tensordot(self.weights, self.atoms.Q, axes=1)
        return np.broadcast_to(H, np.shape(x) + H.shape[-1:])


# ---------------------------------------------------------------------------
# statistical verification of the declared constants
# ---------------------------------------------------------------------------

class VerifyReport:
    def __init__(self, passed, **fields):
        self.passed = bool(passed)
        for k, v in fields.items():
            setattr(self, k, v)

    def __repr__(self):
        keys = {k: v for k, v in self.__dict__.items() if k != "passed"}
        return "VerifyReport(passed=%s, %s)" % (self.passed, keys)


REL_TOL = 1e-9


def _mc_overshoot(oracle, x, y, n_samples, rng):
    """Monte-Carlo estimate of E[f_x(y, xi)] with common random numbers."""
    vals = np.empty(n_samples)
    for k in range(n_samples):
        xi = oracle.sample(rng)
        vals[k] = oracle.model_value(x, y, xi)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def verify_one_sided(oracle, phi, x, y, n_samples=10000, rng=None):
    """Check the one-sided accuracy contract at a single pair (x, y).

    mean_gap_at_x = E[f_x(x, xi)] - f(x) should vanish; mean_overshoot =
    E[f_x(y, xi) - f(y)] must stay below bound_rhs = tau * D(y, x) (zero tau
    in the convex regime, where the models globally under-estimate), up to
    three standard errors on the Monte-Carlo path.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = 0.0 if oracle.regime == "C" else oracle.constants.tau
    D = phi.bregman(y, x)
    bound_rhs = tau * D
    try:
        m_at_x = oracle.expected_model_value(x, x)
        m_at_y = oracle.expected_model_value(x, y)
        se_x = se_y = 0.0
    except NotImplementedError:
        rng = np.random.default_rng(0) if rng is None else rng
        m_at_x, se_x = _mc_overshoot(oracle, x, x, n_samples, rng)
        m_at_y, se_y = _mc_overshoot(oracle, x, y, n_samples, rng)
    fx = oracle.f_exact(x)
    fy = oracle.f_exact(y)
    scale = 1.0 + abs(fx) + abs(bound_rhs)
    gap_at_x = m_at_x - fx
    overshoot = m_at_y - fy
    ok = (abs(gap_at_x) <= 3.0 * se_x + REL_TOL * scale
          and overshoot - bound_rhs <= 3.0 * se_y + REL_TOL * scale)
    return VerifyReport(ok, mean_gap_at_x=gap_at_x, mean_overshoot=overshoot,
                        bound_rhs=bound_rhs, std_err=max(se_x, se_y))


def verify_lipschitz(oracle, phi, n_pairs, rng):
    """Check f_x(x, xi) - f_x(y, xi) <= L(xi) sqrt(D(y, x)) on random pairs.

    Also confirms the declared aggregate sqrt(E[L(xi)^2]) <= L.  Pairs with
    x = y are skipped (the ratio is 0/0 there).
    """
    max_ratio = 0.0
    max_normalized = 0.0
    used = 0
    ok = True
    for _ in range(n_pairs):
        x = oracle.draw_test_point(rng)
        y = oracle.draw_test_point(rng)
        D = phi.bregman(y, x)
        if D <= 1e-18:
            continue
        xi = oracle.sample(rng)
        gap = oracle.model_value(x, x, xi) - oracle.model_value(x, y, xi)
        ratio = gap / np.sqrt(D)
        L = oracle.lip_L(xi)
        max_ratio = max(max_ratio, ratio)
        if L > 0:
            max_normalized = max(max_normalized, ratio / L)
        elif ratio > REL_TOL:
            ok = False
        used += 1
    if max_normalized > 1.0 + REL_TOL:
        ok = False
    claimed = oracle.constants.lip_bound_L
    second_moment = oracle.expected_lip_sq()
    if np.sqrt(second_moment) > claimed * (1.0 + REL_TOL):
        ok = False
    return VerifyReport(ok, max_ratio=max_ratio, claimed_L=claimed,
                        max_normalized=max_normalized,
                        second_moment=second_moment, n_used=used)


def verify_relative_smoothness(oracle, phi, n_pairs, rng):
    """Check -tau D(y,x) <= f(y) - f(x) - <grad f(x), y-x> <= M D(y,x)."""
    if getattr(oracle, "grad_f", None) is None:
        raise ValueError("relative smoothness check needs an exact gradient")
    tau = oracle.constants.tau
    M = oracle.constants.smooth_M
    worst_lower = np.inf
    worst_upper = np.inf
    ok = True
    for _ in range(n_pairs):
        x = oracle.draw_test_point(rng)
        y = oracle.draw_test_point(rng)
        D = phi.bregman(y, x)
        lin_err = (oracle.f_exact(y) - oracle.f_exact(x)
                   - float(np.dot(oracle.grad_f(x), y - x)))
        scale = REL_TOL * (1.0 + abs(lin_err) + D)
        lower_slack = lin_err + tau * D
        upper_slack = M * D - lin_err
        worst_lower = min(worst_lower, lower_slack)
        worst_upper = min(worst_upper, upper_slack)
        if lower_slack < -scale or upper_slack < -scale:
            ok = False
    return VerifyReport(ok, worst_lower_slack=worst_lower,
                        worst_upper_slack=worst_upper, tau=tau, M=M)


def verify_variance(oracle, n_samples, x, rng):
    """Check E||G(x, xi) - grad f(x)||^2 <= sigma^2 / 2 + 3 s.e.

    The deviation is measured in the Euclidean norm, the dual of the norm
    every registered finite-variance oracle declares its strong convexity in.
    """
    x = np.asarray(x, dtype=float)
    g_exact = oracle.grad_f(x)
    G = oracle.model_rows(x, oracle.sample_rows(rng, n_samples)).slopes
    sq = np.sum((G - g_exact) ** 2, axis=1)
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(n_samples))
    bound = oracle.constants.variance_sigma ** 2 / 2.0
    ok = mean <= bound + 3.0 * se + REL_TOL * (1.0 + bound)
    return VerifyReport(ok, empirical_second_moment=mean, bound=bound, std_err=se)
