"""Desk-scale problem library (its brute-force ground truth is in validation).

Each registered instance bundles an oracle, a regularizer, a compatible
Legendre function, declared constants, a feasible start and the row form of
its exact objective, and claims one assumption regime:

  P1  A  robust 1-d composite |(a x)^2 - b| with partial-linearization
         models and the composite growth-adapted phi
  P2  B  smooth quartic mean((<a, x>^2 - b)^2) with Gaussian gradient noise
         and the quartic-plus-quadratic phi
  P3  C  linear loss on the simplex with entropy phi (mirror descent)
  P4  C  P3 plus an entropy tilt on r (relatively strongly convex, mu = 1)
  P5  A  robust saddle <a + w, x> over an l2 uncertainty ball, Euclidean phi
  P6  A  stochastic proximal point on sampled convex quadratics with a
         growth-adapted radial phi

Every instance, dimension, and data distribution here is a desk-scale
choice frozen by the seeds below and published in the JSON configs (numeric
arrays as decimal strings so parsing is bit-exact across platforms).
"""

import json

import numpy as np

from .legendre import (build_composite_legendre, build_norm_power_legendre,
                       build_poly_legendre, dot_rows, legendre_from_config)
from .models import (LinearMirrorOracle, NoisyGradientOracle, OracleConstants,
                     ProxLinearOracle, ProximalPointOracle, SaddleOracle)
from .subproblem import (AbsQuadraticRows, BallIndicator, EntropyLike, L1Regularizer,
                         QuadraticRegularizer, QuadraticRows, SimplexIndicator,
                         SmoothRows, ZeroRegularizer, linear_model)


class ProblemInstance:
    """One optimization problem min F = f + r.

    Its regime is its oracle's (oracle.regime), its dimension that of its
    start x0, and its test points are the oracle's (oracle.draw_test_point),
    as is the exact f (oracle.f_exact).  objective is the exact f's row
    form, which the envelope's prox points and the brute-force ground truth
    take.
    """

    def __init__(self, id, oracle, regularizer, phi, x0, optimum=None, objective=None,
                 config=None):
        self.id = id
        self.oracle = oracle
        self.regularizer = regularizer
        self.phi = phi
        self.regime = oracle.regime
        self.x0 = np.asarray(x0, dtype=float)
        self.dimension = self.x0.size
        self.optimum = optimum
        self.objective = objective
        self.config = config
        if not phi.in_interior(self.x0) or not np.isfinite(regularizer.value(self.x0)):
            raise ValueError("x0 must lie in int(dom phi) and dom r")

    def exact_F(self, x):
        return float(self.exact_F_rows(np.asarray(x, dtype=float)[None, :])[0])

    def exact_F_rows(self, X):
        """F at each row of an (N, d) array, +inf outside dom r; exact_F is
        its one-row case."""
        r = self.regularizer.value_rows(X)
        return np.where(np.isfinite(r), self.oracle.f_rows(X) + r, np.inf)

    def r_initial_gap(self):
        """r(x0) - inf r, the regularizer term of the rate bounds."""
        return self.regularizer.value(self.x0) - self.regularizer.inf_value(self.dimension)


# ---------------------------------------------------------------------------
# samplers and regularizers
# ---------------------------------------------------------------------------

def _make_sampler(spec, dimension):
    kind = spec["kind"]
    if kind == "box":
        lo, hi = float(spec["lo"]), float(spec["hi"])
        return lambda rng: rng.uniform(lo, hi, dimension)
    if kind == "dirichlet":
        alpha = float(spec["alpha"])
        return lambda rng: rng.dirichlet(np.full(dimension, alpha))
    if kind == "ball":
        radius = float(spec["radius"])

        def draw(rng):
            u = rng.normal(size=dimension)
            u /= np.linalg.norm(u)
            return radius * rng.uniform() ** (1.0 / dimension) * u

        return draw
    raise ValueError("unknown sampler kind %r" % (kind,))


def _make_regularizer(spec):
    kind = spec["kind"]
    if kind == "zero":
        return ZeroRegularizer()
    if kind == "indicator_simplex":
        return SimplexIndicator()
    if kind == "indicator_ball":
        return BallIndicator(float(spec["radius"]))
    if kind == "l1":
        return L1Regularizer(float(spec["weight"]))
    if kind == "quadratic":
        return QuadraticRegularizer(float(spec["weight"]))
    if kind == "entropy_like":
        return EntropyLike(float(spec["weight"]))
    raise ValueError("unknown regularizer kind %r" % (kind,))


# ---------------------------------------------------------------------------
# instance assembly from configs
# ---------------------------------------------------------------------------

def abs_quadratic_rows(a, b, weights):
    """The pieces (AbsQuadraticRows) of f(y) = sum_i w_i |a_i^2 y^2 - b_i|.

    The atom's term is b_i - a_i^2 y^2 on [-k_i, k_i], k_i = sqrt(b_i)/|a_i|,
    and its negative outside: an atom with b_i <= 0 has no kink, and one with
    a_i = 0 < b_i is the constant w_i b_i.
    """
    a, b, w = (np.asarray(v, dtype=float) for v in (a, b, weights))
    # k = -inf where b <= 0 (never inside), +inf where a = 0 < b (always)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(b > 0.0, np.sqrt(np.maximum(b, 0.0)) / np.abs(a), -np.inf)
    # sorted() over Python floats: np.unique would import numpy.ma, and
    # np.sort page in its sort kernels, for at most a few dozen kinks
    K = np.array(sorted({x for v in k[np.isfinite(k)].tolist() for x in (v, -v)}),
                 dtype=float)
    ends = np.concatenate([[-np.inf], K, [np.inf]])[:, None]
    s = np.where((-k <= ends[:-1]) & (ends[1:] <= k), -1.0, 1.0)
    return AbsQuadraticRows(K, s @ (w * a * a), -(s @ (w * b)))


def _assemble_p1(cfg):
    # tau below bounds the models' error in the divergence of this kernel only
    if cfg["phi"] != build_composite_legendre(cfg["p"], cfg["q"]).to_config():
        raise ValueError("P1's tau holds for the composite kernel of its p and q, not phi = %r"
                         % (cfg["phi"],))
    a = np.asarray(cfg["a"], dtype=float)
    b = np.asarray(cfg["b"], dtype=float)
    weights = np.asarray(cfg["weights"], dtype=float)
    a2 = a * a
    tau = float(4.0 / 3.0 * np.dot(weights, a2))
    lip = float(np.sqrt(2.0 * np.dot(weights, a2 * a2)))
    constants = OracleConstants(tau=tau, rho=0.0, lip_bound_L=lip)
    oracle = ProxLinearOracle(a2, b, weights, regime="A", constants=constants,
                              test_point_sampler=_make_sampler(cfg["sampler"], 1))
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])
    return ProblemInstance("P1", oracle, reg, phi, cfg["x0"],
                           objective=abs_quadratic_rows(a, b, weights), config=cfg)


def _assemble_p2(cfg):
    A = np.asarray(cfg["a"], dtype=float)          # (m, d) feature rows
    b = np.asarray(cfg["b"], dtype=float)
    weights = np.asarray(cfg["weights"], dtype=float)
    sigma = float(cfg["sigma"])
    d = A.shape[1]

    # f, grad and hess act on the last axis (the oracle's linear models and
    # the envelope's prox points of many points at once); a row's matrix
    # products are the BLAS calls of one point
    def f(x):
        # (z z - b)^2 in place: the record evaluates f at a block's centres
        z = (A @ x[..., None])[..., 0]
        z *= z
        z -= b
        z *= z
        return dot_rows(weights, z)

    def grad(x):
        # (z z - b) z, not z ** 3 - b z: numpy's pow on negative bases is
        # about ten times slower than two products
        z = (A @ x[..., None])[..., 0]
        return (A.T @ (weights * 4.0 * ((z * z - b) * z))[..., None])[..., 0]

    def hess(x):
        z = (A @ x[..., None])[..., 0]
        return np.swapaxes(A * (weights * 4.0 * (3.0 * z * z - b))[..., None],
                           -1, -2) @ A

    scale = sigma / np.sqrt(2.0 * d)

    def noise(rng, n):
        return scale * rng.standard_normal((n, d))

    amax = float(np.max(np.linalg.norm(A, axis=1)))
    bmax = float(np.max(np.abs(b)))
    tau = 4.0 * amax * amax * bmax
    M = 4.0 * amax * amax * max(3.0 * amax * amax, bmax)
    constants = OracleConstants(tau=tau, rho=0.0, smooth_M=M,
                                variance_sigma=sigma)
    oracle = NoisyGradientOracle(f, grad, noise, regime="B",
                                 constants=constants, hess_f_fn=hess,
                                 test_point_sampler=_make_sampler(cfg["sampler"], d))
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])
    return ProblemInstance("P2", oracle, reg, phi, cfg["x0"],
                           objective=SmoothRows(f, grad, hess), config=cfg)


def _assemble_simplex_linear(cfg):
    atoms = np.asarray(cfg["atoms"], dtype=float)  # (m, d) cost rows
    weights = np.asarray(cfg["weights"], dtype=float)
    abar = weights @ atoms
    d = atoms.shape[1]

    lip = np.sqrt(2.0) * np.max(np.abs(atoms), axis=1)
    constants = OracleConstants(
        mu=float(cfg.get("mu", 0.0)),
        lip_bound_L=float(np.sqrt(np.dot(weights, lip * lip))))
    oracle = LinearMirrorOracle(
        f_fn=lambda x: dot_rows(abar, x),
        slope_table=atoms, weights=weights, lip=lip, regime="C",
        constants=constants, grad_f_fn=lambda x: abar.copy(),
        test_point_sampler=_make_sampler(cfg["sampler"], d))
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])

    mu = float(cfg.get("mu", 0.0))
    if mu > 0:
        x_star = np.exp(-abar / mu - np.max(-abar / mu))
        x_star = x_star / x_star.sum()
        lse = float(np.log(np.sum(np.exp(-abar / mu - np.max(-abar / mu))))
                    + np.max(-abar / mu))
        optimum = {"F_star": -mu * lse, "x_star": x_star}
    else:
        k = int(np.argmin(abar))
        x_star = np.zeros(d)
        x_star[k] = 1.0
        optimum = {"F_star": float(abar[k]), "x_star": x_star}
    return ProblemInstance(cfg["id"], oracle, reg, phi, cfg["x0"],
                           optimum=optimum, objective=linear_model(abar), config=cfg)


def _assemble_p5(cfg):
    atoms = np.asarray(cfg["atoms"], dtype=float)
    weights = np.asarray(cfg["weights"], dtype=float)
    w_radius = float(cfg["w_radius"])
    d = atoms.shape[1]

    # the declared L is sqrt(E[L(xi)^2]) of the oracle's per-atom constants
    constants = OracleConstants(tau=0.0, rho=0.0)
    oracle = SaddleOracle(atoms, w_radius, weights, regime="A",
                          constants=constants, test_point_sampler=_make_sampler(cfg["sampler"], d))
    constants.lip_bound_L = float(np.sqrt(np.dot(weights, oracle.lip * oracle.lip)))
    abar = oracle.abar
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])

    radius = reg.radius
    nbar = float(np.linalg.norm(abar))
    if nbar >= w_radius:
        x_star = -radius * abar / nbar if nbar > 0 else np.zeros(d)
        F_star = radius * (w_radius - nbar)
    else:
        x_star = np.zeros(d)
        F_star = 0.0
    optimum = {"F_star": F_star, "x_star": x_star}
    return ProblemInstance("P5", oracle, reg, phi, cfg["x0"],
                           optimum=optimum, objective=oracle.objective, config=cfg)


def _assemble_p6(cfg):
    Q = np.asarray(cfg["Q"], dtype=float)          # (m, d, d) SPD atoms
    centers = np.asarray(cfg["m"], dtype=float)    # (m, d)
    weights = np.asarray(cfg["weights"], dtype=float)
    d = Q.shape[1]
    atoms = QuadraticRows.of(Q, centers, np.zeros(len(Q)))

    # valid modulus for the quarter-scale growth polynomial 0.25 (1 + u^2);
    # an SPD atom's operator norm is its largest eigenvalue
    lip = 4.0 * atoms.eigvals[:, -1]
    constants = OracleConstants(
        tau=0.0, rho=0.0,
        lip_bound_L=float(np.sqrt(np.dot(weights, lip * lip))))
    oracle = ProximalPointOracle(atoms, weights, lip=lip, regime="A", constants=constants,
                                 test_point_sampler=_make_sampler(cfg["sampler"], d))
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])

    # f = F* + (1/2) (y - x*)' Qbar (y - x*), x* = Qbar^-1 qbar by Qbar's eigenpairs
    Qbar = np.tensordot(weights, Q, axes=1)
    qbar = np.einsum("i,ijk,ik->j", weights, Q, centers)
    lam, U = np.linalg.eigh(Qbar)
    x_star = U @ ((U.T @ qbar) / lam)
    optimum = {"F_star": oracle.f_exact(x_star), "x_star": x_star}
    exact = QuadraticRows(Qbar[None], x_star[None], np.array([optimum["F_star"]]),
                          lam[None], U[None])
    return ProblemInstance("P6", oracle, reg, phi, cfg["x0"],
                           optimum=optimum, objective=exact, config=cfg)


_ASSEMBLERS = {
    "prox_linear": _assemble_p1,
    "noisy_gradient": _assemble_p2,
    "linear_mirror": _assemble_simplex_linear,
    "saddle": _assemble_p5,
    "proximal_point": _assemble_p6,
}


def instance_from_config(cfg):
    return _ASSEMBLERS[cfg["family"]](cfg)


# ---------------------------------------------------------------------------
# the frozen default registry
# ---------------------------------------------------------------------------

def _uniform_weights(m):
    return list(np.full(m, 1.0 / m))


def default_configs():
    """The frozen problem configs (data drawn once from fixed seeds)."""
    m = 20

    rng = np.random.default_rng(101)
    p1 = {
        "id": "P1", "family": "prox_linear", "regime": "A", "dimension": 1,
        "weights": _uniform_weights(m),
        "a": list(rng.uniform(0.5, 1.5, m)),
        "b": list(rng.uniform(0.3, 1.2, m)),
        "p": [1.0], "q": [0.0, 0.0, 4.0],
        "phi": build_composite_legendre([1.0], [0.0, 0.0, 4.0]).to_config(),
        "regularizer": {"kind": "zero"},
        "x0": [1.7],
        "sampler": {"kind": "box", "lo": -2.5, "hi": 2.5},
    }

    rng = np.random.default_rng(202)
    # planted interpolation: b_j = <a_j, x_plant>^2, so min f = 0 with
    # healthy curvature at the planted point; x0 sits in a high-gradient
    # region so short runs are genuinely non-stationary
    feats = rng.uniform(-1.0, 1.0, (m, 2))
    plant = np.array([0.9, -0.6])
    p2 = {
        "id": "P2", "family": "noisy_gradient", "regime": "B", "dimension": 2,
        "weights": _uniform_weights(m),
        "a": [list(row) for row in feats],
        "b": list((feats @ plant) ** 2),
        "sigma": 0.3,
        "phi": build_norm_power_legendre([1.0, 0.0, 1.0]).to_config(),
        "regularizer": {"kind": "zero"},
        "x0": [1.8, 0.9],
        "sampler": {"kind": "box", "lo": -1.5, "hi": 1.5},
    }

    rng = np.random.default_rng(303)
    # spread the mean costs so the best coordinate is well separated
    atoms = rng.uniform(0.0, 1.0, (m, 10)) + np.linspace(0.0, 1.8, 10)
    p3 = {
        "id": "P3", "family": "linear_mirror", "regime": "C", "dimension": 10,
        "weights": _uniform_weights(m),
        "atoms": [list(row) for row in atoms],
        "mu": 0.0,
        "phi": {"kind": "shannon_entropy", "on_simplex": True},
        "regularizer": {"kind": "indicator_simplex"},
        "x0": list(np.full(10, 0.1)),
        "sampler": {"kind": "dirichlet", "alpha": 1.5},
    }
    p4 = dict(p3, id="P4", mu=1.0,
              regularizer={"kind": "entropy_like", "weight": 1.0})

    rng = np.random.default_rng(505)
    p5 = {
        "id": "P5", "family": "saddle", "regime": "A", "dimension": 2,
        "weights": _uniform_weights(m),
        "atoms": [list(row) for row in rng.normal(0.0, 1.0, (m, 2))],
        "w_radius": 0.1,
        "phi": {"kind": "euclidean"},
        "regularizer": {"kind": "indicator_ball", "radius": 2.0},
        "x0": [1.0, 1.0],
        "sampler": {"kind": "ball", "radius": 2.0},
    }

    rng = np.random.default_rng(606)
    B = rng.normal(0.0, 0.5, (m, 2, 2))
    Q = np.einsum("mij,mik->mjk", B, B) + 0.1 * np.eye(2)
    p6 = {
        "id": "P6", "family": "proximal_point", "regime": "A", "dimension": 2,
        "weights": _uniform_weights(m),
        "Q": [[list(r) for r in Qi] for Qi in Q],
        "m": [list(row) for row in rng.uniform(-0.8, 0.8, (m, 2))],
        "phi": build_poly_legendre([0.25, 0.0, 0.25]).to_config(),
        "regularizer": {"kind": "zero"},
        "x0": [1.2, 1.0],
        "sampler": {"kind": "box", "lo": -2.0, "hi": 2.0},
    }
    return [p1, p2, p3, p4, p5, p6]


def registry():
    """All registered problem instances."""
    return [instance_from_config(cfg) for cfg in default_configs()]


def get_problem(problem_id):
    for cfg in default_configs():
        if cfg["id"] == problem_id:
            return instance_from_config(cfg)
    raise KeyError("unknown problem id %r" % (problem_id,))


# ---------------------------------------------------------------------------
# decimal-string config serialization (bit-exact round trips)
# ---------------------------------------------------------------------------

def _encode_numbers(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _encode_numbers(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_encode_numbers(v) for v in obj]
    return obj


def _decode_numbers(obj):
    if isinstance(obj, str):
        try:
            return float(obj)
        except ValueError:
            return obj
    if isinstance(obj, dict):
        return {k: _decode_numbers(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_numbers(v) for v in obj]
    return obj


_TEXT_FIELDS = {"id", "family", "regime", "kind"}


def _decode_config(obj):
    if isinstance(obj, dict):
        return {k: (v if k in _TEXT_FIELDS else _decode_config(v))
                for k, v in obj.items()}
    return _decode_numbers(obj)


def dump_config(cfg):
    """JSON text with every float rendered as its shortest exact repr."""
    return json.dumps(_encode_numbers(cfg), indent=2, sort_keys=True)


def load_config(text):
    return _decode_config(json.loads(text))
