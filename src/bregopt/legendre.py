"""Legendre functions, Bregman divergences, and local norms.

Every solver in this package measures proximity with a Bregman divergence

    D(y, x) = phi(y) - phi(x) - <grad phi(x), y - x>

generated by a Legendre function phi (proper, closed, strictly convex,
essentially smooth).  This module provides the supported phi zoo -- squared
Euclidean norm, Shannon entropy, Burg entropy, and radial norm-power sums --
together with gradients, Hessian actions, local dual norms, the two
builders that turn polynomial growth data into a compatible phi, and the
state a prox step carries from its minimizers to the next step's centres
(RowState: mirror coordinates, phi and r per row).
"""

import copy
from collections import namedtuple

import numpy as np


class DomainError(ValueError):
    """Point lies outside the (interior of the) domain of phi."""


class SingularHessianError(ValueError):
    """Hessian of phi is not invertible at the requested point."""


ALL_SPACE = "all_space"
POSITIVE_ORTHANT = "positive_orthant"
OPEN_POSITIVE_ORTHANT = "open_positive_orthant"


def primal_norm(v, kind):
    """The l1 or l2 norm over the last axis: of one vector, or row by row."""
    return np.abs(v).sum(axis=-1) if kind == "l1" else norm_rows(v)


def dot_rows(a, b):
    """np.dot of the last axes of a and b, row by row (broadcasting).

    np.vecdot takes each row pair through the same BLAS dot as np.dot on one
    pair, so a row of the result is bit-identical to np.dot of that row.
    """
    return np.vecdot(a, b)


def norm_rows(x):
    """Euclidean norm over the last axis, bit-identical to np.linalg.norm of a row."""
    return np.sqrt(dot_rows(x, x))


def take_rows(rows, idx):
    """The rows idx of every array field of a row form (a field that is no
    array, None, a scalar or a function, stays as it is)."""
    # a list, not a generator: unpacking a generator leaves one 4-tuple
    # on the interpreter's free list per call (about 0.1 MB once full)
    return type(rows)(*[f[idx] if f.__class__ is np.ndarray else f for f in rows])


class RowState(namedtuple("RowState", "points mirror values r")):
    """What a prox step needs of its (N, d) centres, carried from the step
    that produced them to the step that starts from them: the points, their
    mirror coordinates (grad phi, and log x for ShannonEntropy), and phi and
    r at each row."""

    __slots__ = ()

    take = take_rows  # the state of the rows idx


def _r_rows(reg, X, entropy=None):
    """r at the rows of X, zero when reg is None; an entropy-like r is read
    from the rows' entropy sum x log x when it is given."""
    if reg is None:
        return np.zeros(len(X))
    if entropy is not None and reg.kind == "entropy_like":
        return reg.value_rows(X, entropy)
    return reg.value_rows(X)


def _one_row(x):
    """A point as a (1, d) array: the one-row case of the row forms."""
    return np.asarray(x, dtype=float).reshape(1, -1)


def _diagonal_rows(D):
    """The (N, d, d) stack of diagonal matrices whose diagonals are the rows of D."""
    N, d = D.shape
    H = np.zeros((N, d, d))
    H.reshape(N, -1)[:, ::d + 1] = D
    return H


def _solve_hessian(H, v):
    """H^-1 v, raising SingularHessianError where H is singular."""
    try:
        return np.linalg.solve(H, np.asarray(v, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError(str(exc)) from exc


class LocalNormContext:
    """Local norm data at an interior base point.

    Carries the symmetric positive definite factor H = hessian of phi at the
    base point.  The local dual norm of v is ||H^-1 v|| in the primal norm
    declared by phi.
    """

    def __init__(self, base_point, hessian_factor, norm="l2"):
        self.base_point = np.asarray(base_point, dtype=float)
        self.hessian_factor = np.asarray(hessian_factor, dtype=float)
        self.norm = norm

    def local_dual_norm(self, v):
        return float(primal_norm(_solve_hessian(self.hessian_factor, v), self.norm))


class LegendreFunction:
    """Base class for the phi zoo.

    Subclasses write each formula once, as a row form over an (N, d) array of
    points -- value_rows, gradient_rows and hessian_rows -- with
    hessian_apply / hessian_solve in closed form over the last axis (one
    point, or the rows of (N, d) arrays), and declare their domain, primal
    norm, and (when known) a strong convexity modulus with respect to that
    norm.  The pointwise value, gradient, bregman, hessian_matrix,
    local_dual_norm and in_interior are the one-row case of the row forms,
    so a point and a row give the same bits.  Instances are immutable after construction and all
    operations are pure, so they are safe to share across concurrent
    workers.
    """

    kind = "abstract"
    domain = ALL_SPACE
    norm = "l2"
    strong_convexity_modulus = None

    def value_rows(self, X):
        """phi at each row of an (N, d) array (+inf outside dom phi)."""
        raise NotImplementedError

    def gradient_rows(self, X):
        """The (N, d) gradients at the rows of an (N, d) array."""
        raise NotImplementedError

    def hessian_rows(self, X):
        """The (N, d, d) stack of Hessians at the rows of an (N, d) array."""
        raise NotImplementedError

    def hessian_apply(self, x, v):
        """hessian(x) v over the last axis: at one point, or row by row at
        the rows of two (N, d) arrays."""
        raise NotImplementedError

    def hessian_solve(self, x, v):
        """hessian(x)^-1 v over the last axis, as hessian_apply."""
        raise NotImplementedError

    def value(self, x):
        return float(self.value_rows(_one_row(x))[0])

    def gradient(self, x):
        return self.gradient_rows(_one_row(x))[0]

    def bregman(self, y, x):
        """D(y, x) = phi(y) - phi(x) - <grad phi(x), y - x>.

        Requires x interior and y in the domain; nonnegative, and zero only
        for y = x (strict convexity).
        """
        return float(self.bregman_rows(_one_row(y), _one_row(x))[0])

    def hessian_matrix(self, x):
        return self.hessian_rows(_one_row(x))[0]

    def in_interior(self, x):
        return bool(self.interior_rows(_one_row(x))[0])

    def interior_rows(self, X):
        """Whether each row of an (N, d) array is interior to dom phi."""
        if self.domain == ALL_SPACE:
            return np.ones(len(X), dtype=bool)
        return (np.asarray(X) > 0).all(axis=-1)

    def check_interior(self, X):
        """Raise DomainError unless the point, or every row of X, is interior."""
        if self.domain != ALL_SPACE and not self.interior_rows(X).all():
            raise DomainError("%r is not interior to dom(phi) for kind=%s"
                              % (np.asarray(X), self.kind))

    def bregman_rows(self, Y, X):
        """D(y_i, x_i) for the rows of two (N, d) arrays; raises DomainError
        when a y_i lies outside dom phi."""
        vy = self.value_rows(Y)
        if not np.isfinite(vy).all():
            raise DomainError("second argument of the divergence must lie in dom(phi)")
        return vy - self.value_rows(X) - dot_rows(self.gradient_rows(X), Y - X)

    def mirror_rows(self, X):
        """The mirror coordinates of interior rows: grad phi here."""
        return self.gradient_rows(X)

    def gradient_from_mirror(self, M):
        """grad phi at the points whose mirror coordinates are M."""
        return M

    def state_rows(self, Z, reg=None):
        """The RowState of prox centres Z under the regularizer reg (r = 0
        when None).  A RowState is returned as it is: the state a step
        carries.  An (N, d) array of points is a fresh centre, whose state is
        derived here once; it raises DomainError outside int dom phi or dom r.
        """
        if isinstance(Z, RowState):
            return Z
        Z = np.asarray(Z, dtype=float)
        self.check_interior(Z)
        state = self.state_at(Z, self.mirror_rows(Z), reg)
        if not np.isfinite(state.r).all():
            raise DomainError("prox centers must be feasible for the regularizer")
        return state

    def state_at(self, Y, mirror, reg=None):
        """The RowState of the rows of an (N, d) array Y whose mirror
        coordinates are mirror: one value pass and r under reg (0 when None),
        with no domain check, so that a prox step's record meets an r
        outside dom r in its certificate."""
        return RowState(Y, mirror, self.value_rows(Y), _r_rows(reg, Y))

    def bregman_pair(self, Y, Z):
        """(D(y_i, z_i), D(z_i, y_i)) for the rows of two RowStates, from
        their points, mirror coordinates and phi values, with no further pass
        over phi: bit-identical to two bregman_rows calls."""
        return (Y.values - Z.values - dot_rows(Z.mirror, Y.points - Z.points),
                Z.values - Y.values - dot_rows(Y.mirror, Z.points - Y.points))

    def local_dual_norm(self, x, v):
        """||hessian(x)^-1 v|| in the declared primal norm."""
        return float(self.local_dual_norm_rows(_one_row(x), _one_row(v))[0])

    def local_dual_norm_rows(self, X, V):
        """local_dual_norm at the rows of two (N, d) arrays."""
        return primal_norm(self.hessian_solve(X, V), self.norm)

    def local_norm_context(self, x):
        self.check_interior(x)
        return LocalNormContext(x, self.hessian_matrix(x), norm=self.norm)

    def radial_terms(self):
        """(coefs, powers) arrays when phi(x) = sum_k c_k ||x||^p_k, else None."""
        return None

    def to_config(self):
        raise NotImplementedError


class Euclidean(LegendreFunction):
    """phi(x) = (1/2)||x||^2, the classical proximal geometry."""

    kind = "euclidean"
    strong_convexity_modulus = 1.0

    def value_rows(self, X):
        return 0.5 * dot_rows(X, X)

    def gradient_rows(self, X):
        return np.array(X, dtype=float)

    def hessian_rows(self, X):
        return _diagonal_rows(np.ones(np.shape(X)))

    def hessian_apply(self, x, v):
        return np.array(v, dtype=float)

    def hessian_solve(self, x, v):
        return np.array(v, dtype=float)

    def radial_terms(self):
        return np.array([0.5]), np.array([2.0])

    def to_config(self):
        return {"kind": "euclidean"}


class ShannonEntropy(LegendreFunction):
    """phi(x) = sum_i x_i log x_i on the nonnegative orthant (0 log 0 = 0).

    Restricted to the probability simplex the divergence is the KL
    divergence, which is 1-strongly convex in the l1 norm (Pinsker); the
    ``on_simplex`` flag declares that modulus.
    """

    kind = "shannon_entropy"
    domain = POSITIVE_ORTHANT

    def __init__(self, on_simplex=False):
        self.on_simplex = bool(on_simplex)
        if on_simplex:
            self.norm = "l1"
            self.strong_convexity_modulus = 1.0

    def value_rows(self, X):
        X = np.asarray(X, dtype=float)
        pos = X > 0
        out = np.where(pos, X * np.log(np.where(pos, X, 1.0)), 0.0).sum(axis=1)
        out[(X < 0).any(axis=1)] = np.inf
        return out

    def gradient_rows(self, X):
        self.check_interior(X)
        return 1.0 + np.log(np.asarray(X, dtype=float))

    def hessian_rows(self, X):
        self.check_interior(X)
        return _diagonal_rows(1.0 / np.asarray(X, dtype=float))

    # The mirror coordinates are log x, in which the entropic prox steps are
    # taken (entropic mirror descent in its dual coordinates): an entry that
    # underflows to 0.0 keeps a finite log, and so a finite divergence.
    def mirror_rows(self, X):
        self.check_interior(X)
        return np.log(X)

    def gradient_from_mirror(self, M):
        return 1.0 + M

    def state_at(self, Y, log_y, reg=None):
        """As LegendreFunction.state_at, with phi(y) and an entropy-like
        r(y) from sum y log y."""
        entropy = (Y * log_y).sum(axis=1)
        return RowState(Y, log_y, entropy, _r_rows(reg, Y, entropy))

    def bregman_pair(self, Y, Z):
        """As LegendreFunction.bregman_pair, from the logs:
        D(y, z) = sum y (log y - log z) - sum y + sum z."""
        sy, sz = Y.points.sum(axis=1), Z.points.sum(axis=1)
        return ((Y.points * (Y.mirror - Z.mirror)).sum(axis=1) - sy + sz,
                (Z.points * (Z.mirror - Y.mirror)).sum(axis=1) - sz + sy)

    def hessian_apply(self, x, v):
        self.check_interior(x)
        return np.asarray(v, dtype=float) / np.asarray(x, dtype=float)

    def hessian_solve(self, x, v):
        self.check_interior(x)
        return np.asarray(v, dtype=float) * np.asarray(x, dtype=float)

    def to_config(self):
        return {"kind": "shannon_entropy", "on_simplex": self.on_simplex}


class Burg(LegendreFunction):
    """phi(x) = -sum_i log x_i on the open positive orthant."""

    kind = "burg"
    domain = OPEN_POSITIVE_ORTHANT

    def value_rows(self, X):
        X = np.asarray(X, dtype=float)
        pos = X > 0
        out = -np.log(np.where(pos, X, 1.0)).sum(axis=1)
        out[~pos.all(axis=1)] = np.inf
        return out

    def gradient_rows(self, X):
        self.check_interior(X)
        return -1.0 / np.asarray(X, dtype=float)

    def hessian_rows(self, X):
        self.check_interior(X)
        X = np.asarray(X, dtype=float)
        return _diagonal_rows(1.0 / (X * X))

    def hessian_apply(self, x, v):
        self.check_interior(x)
        x = np.asarray(x, dtype=float)
        return np.asarray(v, dtype=float) / (x * x)

    def hessian_solve(self, x, v):
        self.check_interior(x)
        x = np.asarray(x, dtype=float)
        return np.asarray(v, dtype=float) * (x * x)

    def to_config(self):
        return {"kind": "burg"}


class RadialPowerSum(LegendreFunction):
    """phi(x) = sum_k c_k ||x||^p_k with c_k >= 0 and powers p_k >= 2.

    The gradient of each term c ||x||^p is c p ||x||^(p-2) x, defined as 0 at
    the origin for p > 2 (the analytic limit), and the Hessian has the
    scaled-identity-plus-rank-one form

        c p ||x||^(p-2) I + c p (p-2) ||x||^(p-4) x x^T.

    A power-2 term with coefficient c contributes 2c to the strong convexity
    modulus in the Euclidean norm.  config is the dict to_config returns (its
    "kind" names the instance); a sum built from raw coefficients has none.
    """

    kind = "norm_power_sum"

    def __init__(self, coefs, powers, config=None):
        coefs = np.asarray(coefs, dtype=float)
        powers = np.asarray(powers, dtype=float)
        if np.any(coefs < 0):
            raise ValueError("radial power coefficients must be nonnegative")
        if not np.any(coefs > 0):
            raise ValueError("at least one radial power coefficient must be positive")
        if np.any(powers < 2):
            raise ValueError("radial powers below 2 are not Legendre on all space")
        keep = coefs > 0
        self.coefs = coefs[keep]
        self.powers = powers[keep]
        # the gradient's and Hessian's constants, in the order a call took them
        self._scale_coefs, self._scale_powers = self.coefs * self.powers, self.powers - 2.0
        high = self.powers > 2.0
        self._rank_coefs = self._scale_coefs[high] * (self.powers[high] - 2.0)
        self._rank_powers = self.powers[high] - 4.0
        self.config = config
        if config is not None:
            self.kind = config["kind"]
        quad = self.coefs[self.powers == 2.0]
        if quad.size:
            self.strong_convexity_modulus = 2.0 * float(np.sum(quad))

    def value_rows(self, X):
        r = norm_rows(X)
        return (self.coefs * r[:, None] ** self.powers).sum(axis=1)

    def gradient_rows(self, X):
        X = np.asarray(X, dtype=float)
        r = norm_rows(X)
        # scale is finite at r = 0, so a row whose r underflows keeps its gradient
        return (self._scale_coefs * r[:, None] ** self._scale_powers).sum(axis=1)[:, None] * X

    def _hessian_coefs(self, r):
        """(a, b) of the Hessian a I + b x x^T at points of norm r (an array
        whose last axis has length 1).

        At r = 0 the power-2 terms give a (0^0 = 1) and b is taken at r = 1,
        where the rank-one term vanishes with x; the p = 2 terms add nothing
        to b.
        """
        a = (self._scale_coefs * r ** self._scale_powers).sum(axis=-1)
        r = np.where(r > 0.0, r, 1.0)
        return a, (self._rank_coefs * r ** self._rank_powers).sum(axis=-1)

    def hessian_rows(self, X):
        X = np.asarray(X, dtype=float)
        a, b = self._hessian_coefs(norm_rows(X)[:, None])
        H = (b[:, None] * X)[:, None, :] * X[:, :, None]
        H.reshape(len(X), -1)[:, ::X.shape[1] + 1] += a[:, None]
        return H

    def hessian_apply(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        a, b = self._hessian_coefs(norm_rows(x)[..., None])
        return a[..., None] * v + (b * dot_rows(x, v))[..., None] * x

    def hessian_solve(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        r = norm_rows(x)
        a, b = self._hessian_coefs(r[..., None])
        if not np.all(a):
            raise SingularHessianError(
                "hessian of a pure high-order radial phi is singular at 0")
        # Sherman-Morrison on a*I + b*x*x^T
        return v / a[..., None] - (b * dot_rows(x, v) / (a * (a + b * r * r)))[..., None] * x

    def radial_terms(self):
        return self.coefs.copy(), self.powers.copy()

    def to_config(self):
        if self.config is None:
            raise ValueError("a radial power sum built from raw coefficients has "
                             "no config; use build_poly_legendre or "
                             "build_norm_power_legendre")
        return copy.deepcopy(self.config)


class WeightedSum(LegendreFunction):
    """Weighted sum of Legendre functions sharing a common domain."""

    kind = "weighted_sum"

    def __init__(self, children, weights):
        if len(children) != len(weights) or not children:
            raise ValueError("need matching nonempty children and weights")
        weights = [float(w) for w in weights]
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        domains = {c.domain for c in children}
        if OPEN_POSITIVE_ORTHANT in domains:
            self.domain = OPEN_POSITIVE_ORTHANT
        elif POSITIVE_ORTHANT in domains:
            self.domain = POSITIVE_ORTHANT
        else:
            self.domain = ALL_SPACE
        self.children = list(children)
        self.weights = weights
        norms = {c.norm for c in children}
        if len(norms) == 1:
            self.norm = norms.pop()
            moduli = [c.strong_convexity_modulus for c in children]
            if any(m is not None for m in moduli):
                self.strong_convexity_modulus = float(
                    sum(w * (m or 0.0) for w, m in zip(weights, moduli)))

    def _sum(self, terms):
        """sum_k w_k t_k over the children's terms t_k."""
        return sum(w * t for w, t in zip(self.weights, terms))

    def value_rows(self, X):
        return self._sum(c.value_rows(X) for c in self.children)

    def gradient_rows(self, X):
        self.check_interior(X)
        return self._sum(c.gradient_rows(X) for c in self.children)

    def hessian_rows(self, X):
        return self._sum(c.hessian_rows(X) for c in self.children)

    def hessian_apply(self, x, v):
        return self._sum(c.hessian_apply(x, v) for c in self.children)

    def hessian_solve(self, x, v):
        x = np.asarray(x, dtype=float)
        H = self.hessian_rows(x.reshape(-1, x.shape[-1])).reshape(x.shape + x.shape[-1:])
        return _solve_hessian(H, np.asarray(v, dtype=float)[..., None])[..., 0]

    def to_config(self):
        return {
            "kind": "weighted_sum",
            "weights": list(self.weights),
            "children": [c.to_config() for c in self.children],
        }


def build_poly_legendre(p_coeffs):
    """Legendre function adapted to the growth polynomial p(u) = sum_i a_i u^i.

    Returns phi(x) = sum_i a_i (3i+7)/(i+2) ||x||^(i+2), whose divergence
    dominates ((p(||x||)+p(||y||))/2) ||x-y||^2.  Coefficients must be
    nonnegative with at least one strictly positive.
    """
    p_coeffs = [float(a) for a in p_coeffs]
    if any(a < 0 for a in p_coeffs):
        raise ValueError("growth polynomial coefficients must be nonnegative")
    if not any(a > 0 for a in p_coeffs):
        raise ValueError("growth polynomial must have a positive coefficient")
    coefs = [a * (3 * i + 7) / (i + 2) for i, a in enumerate(p_coeffs)]
    powers = [i + 2 for i in range(len(p_coeffs))]
    return RadialPowerSum(coefs, powers,
                          config={"kind": "poly_growth", "coeffs": p_coeffs})


def build_norm_power_legendre(q_coeffs):
    """phi(x) = sum_i b_i/(i+2) ||x||^(i+2) for q(u) = sum_i b_i u^i."""
    q_coeffs = [float(b) for b in q_coeffs]
    if any(b < 0 for b in q_coeffs):
        raise ValueError("norm-power coefficients must be nonnegative")
    if not any(b > 0 for b in q_coeffs):
        raise ValueError("norm-power polynomial must have a positive coefficient")
    coefs = [b / (i + 2) for i, b in enumerate(q_coeffs)]
    powers = [i + 2 for i in range(len(q_coeffs))]
    return RadialPowerSum(coefs, powers,
                          config={"kind": "norm_power_sum", "coeffs": q_coeffs})


def build_composite_legendre(p_coeffs, q_coeffs):
    """Sum of the accuracy-adapted and Lipschitz-adapted radial functions.

    p_coeffs control the model-accuracy polynomial (the (3i+7)/(i+2)
    weights), q_coeffs the Jacobian-growth polynomial (b_i/(i+2) weights).
    Either list may be all zeros, but not both.
    """
    children = []
    if any(float(a) > 0 for a in p_coeffs):
        children.append(build_poly_legendre(p_coeffs))
    if any(float(b) > 0 for b in q_coeffs):
        children.append(build_norm_power_legendre(q_coeffs))
    if not children:
        raise ValueError("composite phi needs a positive coefficient on some side")
    return weighted_sum(children, [1.0] * len(children))


def weighted_sum(children, weights):
    """sum_k w_k phi_k, as one RadialPowerSum when every child is radial.

    The flat sum keeps kind "weighted_sum" and the children's weighted_sum
    config, so its config round trip is that of a WeightedSum.
    """
    ws = WeightedSum(children, weights)
    terms = [c.radial_terms() for c in ws.children]
    if any(t is None for t in terms):
        return ws
    coefs = np.concatenate([w * t[0] for w, t in zip(ws.weights, terms)])
    powers = np.concatenate([t[1] for t in terms])
    return RadialPowerSum(coefs, powers, config=ws.to_config())


def legendre_from_config(cfg):
    """Rebuild a LegendreFunction from its JSON-style config."""
    kind = cfg["kind"]
    if kind == "euclidean":
        return Euclidean()
    if kind == "shannon_entropy":
        return ShannonEntropy(on_simplex=bool(cfg.get("on_simplex", False)))
    if kind == "burg":
        return Burg()
    if kind == "poly_growth":
        return build_poly_legendre([float(a) for a in cfg["coeffs"]])
    if kind == "norm_power_sum":
        return build_norm_power_legendre([float(b) for b in cfg["coeffs"]])
    if kind == "weighted_sum":
        children = [legendre_from_config(c) for c in cfg["children"]]
        return weighted_sum(children, [float(w) for w in cfg["weights"]])
    raise ValueError("unknown Legendre kind %r" % (kind,))


def finite_difference_step(x):
    """Central-difference step h = eps^(1/3) (1 + ||x||)."""
    return float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(x)))


def gradient_by_differences(fun, x, h=None):
    """Central finite differences of a scalar function, the validation oracle."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = finite_difference_step(x)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g
