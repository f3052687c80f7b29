"""Row forms of sampled models: values and gradients (a subgradient
selection) over the rows of an (N, d) array, the form every prox step reads
(subproblem)."""

from collections import namedtuple

import numpy as np

from .legendre import dot_rows, norm_rows


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
        g, s = _kink_slopes(self.a2, self.b, X[..., 0])
        return g[..., None], s


def _kink_slopes(a2, b, x):
    """The slopes c' = 2 a2 x and offsets c - c' x of the models
    |c + c'(y - x)|, c = a2 x^2 - b, at the 1-d centres x, entrywise."""
    g = 2.0 * a2 * x
    return g, a2 * x * x - b - g * x


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
    slope_fn(x_i) + shift[i], or shift[i] when slope_fn is None, given
    without their offsets: what a step reads of models that its centres
    anchor (P2's gradient plus noise, P5's inner argmax plus atom), or of
    linear models whose slopes depend on the sample only (P3's and P4's)."""

    __slots__ = ()
    absolute = False

    def gradients(self, X):
        return self.slopes(self.slope_fn, X, self.shift)

    @staticmethod
    def slopes(slope_fn, X, shift):
        """The slopes at the centres X of the models of slope_fn and shift,
        field by field, so that a block's step reads its view of the shift."""
        return shift if slope_fn is None else slope_fn(X) + shift


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
