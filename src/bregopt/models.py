"""Stochastic one-sided model oracles.

An oracle represents a family of sampled models f_x(., xi) of an objective
f: at the base point the model agrees with f in expectation, and away from
it the expected overshoot above f is controlled by tau times the Bregman
divergence.  Four families are implemented:

  proximal_point  f_x(y, xi) = f(y, xi), a full sampled function
  linear_mirror   f_x(y, xi) = f(x) + <G(x, xi), y - x>
  prox_linear     f_x(y, xi) = |c(x, xi) + c'(x, xi)(y - x)|, c(x, xi) =
                  a2[xi] x^2 - b[xi] (1-d robust phase retrieval)
  saddle          f_x(y, xi) = <atoms[xi] + w_hat(x), y>, w_hat(x) =
                  R x / |x| the inner argmax over the l2 ball of radius R

Every family forms its sampled models over rows of points (model_rows),
the one model form the prox steps and the lockstep loop take (model_value
reads its one-point case).  The finite-support families hold their atoms
as arrays, with the (m,) array lip of the per-atom constants L(xi).

Constants (tau, rho, mu, L, M, sigma) are declared by the problem builder
and validated statistically by the verify_* checks (validation), never estimated
implicitly: the step-size rules need them a priori.
"""

import numpy as np

from .legendre import dot_rows, take_rows
from .subproblem import AffineRows, NormTermRows, ProxLinearRows, TangentRows


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
    # the models' row form when they depend on the sample only, else None
    model_table = None

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
        one sample give the one-row case.  By default: the model_table's rows xi.
        """
        if self.model_table is None:
            raise NotImplementedError
        return take_rows(self.model_table, np.asarray(xi))

    def atom_rows(self, xi):
        """What the steps of a record block read of their samples xi,
        gathered once per block: the model_table's rows xi by default, or
        the atoms that anchor the models at each step's centres."""
        return take_rows(self.model_table, xi)

    def model_value(self, x, y, xi):
        """f_x(y, xi): the one-point case of model_rows."""
        return float(self.model_rows(np.asarray(x, dtype=float), xi).values(
            np.asarray(y, dtype=float)))

    def lip_L(self, xi):
        """Per-sample Lipschitz-type constant L(xi)."""
        raise NotImplementedError

    # -- exact expectations ---------------------------------------------------
    def f_exact(self, x):
        """The true objective component f (exact or frozen-empirical)."""
        return float(self.f_rows(x))

    def f_rows(self, X):
        """f at each point of X (the last axis), bit for bit f_exact of each."""
        raise NotImplementedError

    def expected_model_value(self, x, y):
        """E_xi f_x(y, xi), exact for finite support."""
        raise NotImplementedError

    def expected_lip_sq(self):
        """E[L(xi)^2], exact for finite support."""
        raise NotImplementedError


class FiniteSupportOracle(ModelOracle):
    """Mixin for oracles whose sample space is {0..m-1} with given weights;
    lip holds the per-atom constants L(xi)."""

    def __init__(self, weights, lip, **kw):
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a probability vector")
        self.weights = weights
        self.n_atoms = weights.size
        self.lip = np.asarray(lip, dtype=float)
        super().__init__(**kw)

    def sample(self, rng):
        return int(rng.choice(self.n_atoms, p=self.weights))

    def sample_rows(self, rng, n):
        return rng.choice(self.n_atoms, p=self.weights, size=n)

    def lip_L(self, xi):
        return float(self.lip[xi])

    def expected_model_value(self, x, y):
        x = np.asarray(x, dtype=float)
        X = np.broadcast_to(x, (self.n_atoms,) + x.shape)
        rows = self.model_rows(X, np.arange(self.n_atoms))
        return float(self.weights @ rows.values(
            np.broadcast_to(np.asarray(y, dtype=float), X.shape)))

    def expected_lip_sq(self):
        return float(sum(self.weights * self.lip ** 2))


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


class _MappedSlopes(TangentRows):
    """TangentRows whose slopes at the centres X are slope_fn(X, shift): a
    grad_map's at the samples shift."""

    __slots__ = ()

    def gradients(self, X):
        return self.slope_fn(X, self.shift)


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

    def __init__(self, f_fn, grad_map=None, weights=None, lip=None, regime=None,
                 constants=None, grad_f_fn=None, hess_f_fn=None,
                 test_point_sampler=None, slope_table=None):
        if (grad_map is None) == (slope_table is None):
            raise ValueError("give the slopes as exactly one of grad_map and slope_table")
        self._f = f_fn
        self._G = grad_map           # (x, atom index) -> vector
        if slope_table is not None:
            self.slope_table = np.asarray(slope_table, dtype=float)
        self.grad_f = grad_f_fn
        self.hess_f = hess_f_fn
        super().__init__(weights=weights, lip=lip, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def atom_rows(self, xi):
        """The slopes: TangentRows of the slope_table's rows xi, or the
        grad_map's slopes at the samples xi (_MappedSlopes)."""
        if self.slope_table is None:
            return _MappedSlopes(self._G, xi)
        return TangentRows(None, self.slope_table[xi])

    def model_rows(self, X, xi):
        X = np.asarray(X, dtype=float)
        return _tangent_rows(X, self.atom_rows(xi).gradients(X), self._f(X))

    def f_rows(self, X):
        return self._f(np.asarray(X, dtype=float))


class NoisyGradientOracle(ModelOracle):
    """Linear models built from an exact gradient plus additive noise.

    The smooth-minimization regime: xi is the noise vector itself, drawn from
    a seedable parametric generator with E[noise] = 0 and
    E||noise||^2 <= sigma^2 / 2.  noise_sampler maps (rng, n) to an (n, d)
    array of n draws, which must be the stream of n one-row draws.  f_fn and
    grad_f_fn act on the last axis: at an (S, d) array of points they return
    S values and an (S, d) array.  A step reads only the slopes grad f(x) +
    xi (atom_rows: TangentRows, neither f nor the offsets).
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

    def atom_rows(self, xi):
        return TangentRows(self.grad_f, xi)

    def sample(self, rng):
        return self.sample_rows(rng, 1)[0]

    def sample_rows(self, rng, n):
        return np.asarray(self._noise(rng, n), dtype=float)

    def model_rows(self, X, xi):
        X = np.asarray(X, dtype=float)
        return _tangent_rows(X, self.atom_rows(np.asarray(xi, dtype=float)).gradients(X),
                             self._f(X))

    def lip_L(self, xi):
        raise NotImplementedError(
            "noisy-gradient oracles claim a variance bound, not a Lipschitz one")

    def f_rows(self, X):
        return self._f(np.asarray(X, dtype=float))

    def expected_model_value(self, x, y):
        # the noise is mean-zero, so the expected model is the exact tangent
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self.f_exact(x) + float(np.dot(self.grad_f(x), y - x))


# ---------------------------------------------------------------------------
# partial linearization (Gauss-Newton / prox-linear) models
# ---------------------------------------------------------------------------

class ProxLinearOracle(FiniteSupportOracle):
    """The 1-d robust phase retrieval models |c + c'(y - x)|, c = c(x, xi) =
    a2[xi] x^2 - b[xi]: convex in y, rho = 0.

    The models are |affine| rows (model_rows) of slope c' = 2 a2[xi] x, the
    atoms' rows (a2, b) at x.  The outer |.| is 1-Lipschitz, c' is
    a2[xi] (p(|x|) + p(|y|))-Lipschitz for p = 1, and |c'| = a2[xi]
    sqrt(q(|x|)) for q(u) = 4 u^2, the growth polynomials that shape phi
    (build_composite_legendre); so an atom's constant is L(xi) = sqrt(2) a2[xi].
    """

    family = "prox_linear"

    def __init__(self, a2, b, weights, regime, constants, test_point_sampler=None):
        self.atoms = ProxLinearRows(np.asarray(a2, dtype=float), np.asarray(b, dtype=float))
        self.a2, self.b = self.atoms
        super().__init__(weights=weights, lip=np.sqrt(2.0) * self.a2, regime=regime,
                         constants=constants, test_point_sampler=test_point_sampler)

    def atom_rows(self, xi):
        return take_rows(self.atoms, xi)

    def model_rows(self, X, xi):
        return AffineRows(*self.atom_rows(xi).affine(np.asarray(X, dtype=float)), True)

    def f_rows(self, X):
        X = np.asarray(X, dtype=float)
        return dot_rows(np.abs(self.a2 * X * X - self.b), self.weights)

    def tau_from_accuracy(self):
        """tau = (4/3) E[a2[xi]] for the accuracy-adapted Legendre function."""
        return float(4.0 / 3.0 * sum(self.weights * self.a2))


# ---------------------------------------------------------------------------
# saddle / robust models
# ---------------------------------------------------------------------------

class SaddleOracle(FiniteSupportOracle):
    """The robust objective f(x) = E[sup_{|w| <= R} <atoms[xi] + w, x>]
    = <abar, x> + R |x|, abar = E[atoms[xi]], the NormTermRows objective.

    The model of sample xi freezes the inner argmax w_hat(x) = R x / |x|
    (0 at x = 0) at the base point: f_x(y, xi) = <atoms[xi] + w_hat(x), y>,
    linear in y, the tangent at x of <atoms[xi], y> + R |y|, whose slopes a
    step reads (atom_rows: TangentRows, the objective's norm term plus the
    atoms).  An atom's constant is L(xi) = sqrt(2) (|atoms[xi]| + R).
    """

    family = "saddle"

    def __init__(self, atoms, w_radius, weights, regime, constants,
                 test_point_sampler=None):
        self.atoms = np.asarray(atoms, dtype=float)
        self.w_radius = float(w_radius)
        lip = np.sqrt(2.0) * (np.linalg.norm(self.atoms, axis=1) + self.w_radius)
        super().__init__(weights=weights, lip=lip, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)
        self.abar = self.weights @ self.atoms
        self.objective = NormTermRows(self.abar, self.w_radius)

    def atom_rows(self, xi):
        return TangentRows(self.objective.weight_slopes, self.atoms[xi])

    def model_rows(self, X, xi):
        G = self.atom_rows(xi).gradients(np.asarray(X, dtype=float))
        return AffineRows(G, np.zeros(G.shape[:-1]), False)

    def f_rows(self, X):
        return self.objective.values(np.asarray(X, dtype=float))


# ---------------------------------------------------------------------------
# full sampled functions (stochastic Bregman-proximal point)
# ---------------------------------------------------------------------------

class ProximalPointOracle(FiniteSupportOracle):
    """f_x(y, xi) = f(y, xi) for sampled convex quadratics
    f(y, xi) = (1/2) (y - centers[xi])' Q[xi] (y - centers[xi]).

    atoms is the QuadraticRows of the m atoms (QuadraticRows.of(Q, centers,
    zero offsets)): their (m, d, d) symmetric positive definite matrices,
    (m, d) centers and eigenpairs, computed once at assembly.  The models
    depend on the sample only, so the atoms are the oracle's model_table,
    whose sampled rows model_rows gathers.  The exact f, its gradient and
    its Hessian are weighted sums over the atom axis and act on the last
    axis of the points.
    """

    family = "proximal_point"

    def __init__(self, atoms, weights, lip, regime, constants, test_point_sampler=None):
        self.model_table = atoms
        super().__init__(weights=weights, lip=lip, regime=regime, constants=constants,
                         test_point_sampler=test_point_sampler)

    def f_rows(self, X):
        return dot_rows(self.model_table.values(np.asarray(X, dtype=float)[..., None, :]),
                        self.weights)

    def grad_f(self, x):
        x = np.asarray(x, dtype=float)
        return np.matmul(self.weights, self.model_table.gradients(x[..., None, :]))

    def hess_f(self, x):
        H = np.tensordot(self.weights, self.model_table.Q, axes=1)
        return np.broadcast_to(H, np.shape(x) + H.shape[-1:])
