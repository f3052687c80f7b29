"""Closed convex regularizers r with a simple prox structure: their values
over rows and a subgradient selection (the prox steps are in subproblem)."""

import numpy as np

from .legendre import ShannonEntropy, dot_rows, norm_rows


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
