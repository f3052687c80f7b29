"""Desk-scale problem library and ground-truth oracles.

Each registered instance bundles an oracle, a regularizer, a compatible
Legendre function, declared constants, and a feasible start, and claims one
assumption regime:

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
                     ProxLinearOracle, ProximalPointOracle, SaddleOracle,
                     quadratic_model)
from .subproblem import (AbsQuadraticRows, AffineRows, BallIndicator, EntropyLike,
                         L1Regularizer, NormTermRows, PointModel, QuadraticRegularizer,
                         QuadraticRows, SimplexIndicator, ZeroRegularizer,
                         linear_model, _affine_solver)


class ProblemInstance:
    """One optimization problem min F = f + r with its assumption regime."""

    def __init__(self, id, oracle, regularizer, phi, regime, dimension, x0,
                 optimum=None, exact_objective_builder=None, sampler=None,
                 config=None):
        self.id = id
        self.oracle = oracle
        self.regularizer = regularizer
        self.phi = phi
        self.regime = regime
        self.dimension = int(dimension)
        self.x0 = np.asarray(x0, dtype=float)
        self.optimum = optimum
        self._objective_builder = exact_objective_builder
        self._sampler = sampler
        self.config = config
        if not phi.in_interior(self.x0) or not np.isfinite(regularizer.value(self.x0)):
            raise ValueError("x0 must lie in int(dom phi) and dom r")

    # f is evaluated exactly (finite support or frozen empirical measure)
    def exact_f(self, x):
        return self.oracle.f_exact(x)

    def exact_F(self, x):
        r = self.regularizer.value(x)
        if not np.isfinite(r):
            return np.inf
        return self.exact_f(x) + r

    def exact_objective(self):
        """Structured PointModel of the exact f, for envelope subproblems."""
        return self._objective_builder()

    def sample_domain_point(self, rng):
        return np.asarray(self._sampler(rng), dtype=float)

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
    a = np.asarray(cfg["a"], dtype=float)
    b = np.asarray(cfg["b"], dtype=float)
    weights = np.asarray(cfg["weights"], dtype=float)
    a2 = a * a
    tau = float(4.0 / 3.0 * np.dot(weights, a2))
    lip = float(np.sqrt(2.0 * np.dot(weights, a2 * a2)))
    constants = OracleConstants(tau=tau, rho=0.0, lip_bound_L=lip)
    sampler = _make_sampler(cfg["sampler"], 1)
    oracle = ProxLinearOracle(a2, b, weights, regime="A",
                              constants=constants, test_point_sampler=sampler)
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])

    # the envelope's prox points take the pieces; val and sub act elementwise
    # over an (N,) array of points, the bisection's reference
    pieces = abs_quadratic_rows(a, b, weights)

    def objective():
        def val(y):
            y = y[:, None]
            return np.abs(a2 * y * y - b) @ weights

        def sub(y):
            y = y[:, None]
            return (np.sign(a2 * y * y - b) * 2.0 * a2 * y) @ weights

        return PointModel(val, sub, row_form=pieces)

    return ProblemInstance("P1", oracle, reg, phi, "A", 1, cfg["x0"],
                           exact_objective_builder=objective, sampler=sampler,
                           config=cfg)


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
        z = (A @ x[..., None])[..., 0]
        return dot_rows(weights, (z * z - b) ** 2)

    def grad(x):
        z = (A @ x[..., None])[..., 0]
        return (A.T @ (weights * 4.0 * (z ** 3 - b * z))[..., None])[..., 0]

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
    sampler = _make_sampler(cfg["sampler"], d)
    oracle = NoisyGradientOracle(f, grad, noise, regime="B",
                                 constants=constants, hess_f_fn=hess,
                                 test_point_sampler=sampler)
    phi = legendre_from_config(cfg["phi"])
    reg = _make_regularizer(cfg["regularizer"])

    def objective():
        return PointModel(f, grad, hessian_fn=hess, on_rows=True)

    return ProblemInstance("P2", oracle, reg, phi, "B", d, cfg["x0"],
                           exact_objective_builder=objective, sampler=sampler,
                           config=cfg)


def _assemble_simplex_linear(cfg):
    atoms = np.asarray(cfg["atoms"], dtype=float)  # (m, d) cost rows
    weights = np.asarray(cfg["weights"], dtype=float)
    abar = weights @ atoms
    d = atoms.shape[1]

    lip = np.sqrt(2.0) * np.max(np.abs(atoms), axis=1)
    constants = OracleConstants(
        mu=float(cfg.get("mu", 0.0)),
        lip_bound_L=float(np.sqrt(np.dot(weights, lip * lip))))
    sampler = _make_sampler(cfg["sampler"], d)
    oracle = LinearMirrorOracle(
        f_fn=lambda x: dot_rows(abar, x),
        slope_table=atoms, weights=weights, lip=lip, regime="C",
        constants=constants, grad_f_fn=lambda x: abar.copy(),
        test_point_sampler=sampler)
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

    def objective():
        return linear_model(abar)

    return ProblemInstance(cfg["id"], oracle, reg, phi, "C", d, cfg["x0"],
                           optimum=optimum, exact_objective_builder=objective,
                           sampler=sampler, config=cfg)


def _assemble_p5(cfg):
    atoms = np.asarray(cfg["atoms"], dtype=float)
    weights = np.asarray(cfg["weights"], dtype=float)
    w_radius = float(cfg["w_radius"])
    d = atoms.shape[1]

    # the declared L is sqrt(E[L(xi)^2]) of the oracle's per-atom constants
    constants = OracleConstants(tau=0.0, rho=0.0)
    sampler = _make_sampler(cfg["sampler"], d)
    oracle = SaddleOracle(atoms, w_radius, weights, regime="A",
                          constants=constants, test_point_sampler=sampler)
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

    def objective():
        return PointModel(oracle.f_rows, lambda y: abar + oracle.w_hat(y),
                          row_form=NormTermRows(abar, w_radius), on_rows=True)

    return ProblemInstance("P5", oracle, reg, phi, "A", d, cfg["x0"],
                           optimum=optimum, exact_objective_builder=objective,
                           sampler=sampler, config=cfg)


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
    sampler = _make_sampler(cfg["sampler"], d)
    oracle = ProximalPointOracle(atoms, weights, lip=lip, regime="A",
                                 constants=constants, test_point_sampler=sampler)
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

    def objective():
        return quadratic_model(exact)

    return ProblemInstance("P6", oracle, reg, phi, "A", d, cfg["x0"],
                           optimum=optimum, exact_objective_builder=objective,
                           sampler=sampler, config=cfg)


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


# ---------------------------------------------------------------------------
# brute-force ground truth
# ---------------------------------------------------------------------------

class OracleResult:
    """Ground-truth value from an independent brute-force method."""

    def __init__(self, value, argmin, method, resolution):
        self.value = float(value)
        self.argmin = np.asarray(argmin, dtype=float)
        self.method = method
        self.resolution = float(resolution)


GRID_POINT_CAP = 40_000_000
# grid points per row call of the exact objective; a finite-support
# objective's row form holds (points, atoms, d, d) temporaries
GRID_CHUNK = 50_000


def _golden_polish(f, lo, hi, tol=1e-12, max_iter=300):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > tol * (1.0 + abs(a) + abs(b)) and it < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _simplex_vertex_min(problem):
    d = problem.dimension
    best_v, best_x = np.inf, None
    for k in range(d):
        x = np.zeros(d)
        x[k] = 1.0
        v = problem.exact_F(x)
        if v < best_v:
            best_v, best_x = v, x
    return OracleResult(best_v, best_x, "grid", 0.0)


def _projected_descent_long(problem, iterations=1_000_000, step0=0.5):
    """Deterministic long subgradient descent on the exact objective."""
    model = problem.exact_objective()
    reg = problem.regularizer
    phi = problem.phi
    x = problem.x0.copy()
    best_v, best_x = problem.exact_F(x), x.copy()
    solve = _affine_solver(reg, phi)
    if solve is None:
        raise ValueError("no affine prox available for projected descent")
    for k in range(1, iterations + 1):
        g = model.subgradient(x)
        step = step0 / np.sqrt(k)
        x = solve(g[None, :], phi.state_rows(x[None, :], reg), step)[0][0]
        v = problem.exact_F(x)
        if v < best_v:
            best_v, best_x = v, x.copy()
    return OracleResult(best_v, best_x, "projected_descent_long", step0 / np.sqrt(iterations))


def brute_force_min(problem, domain_box=None, resolution=1e-3, method=None,
                    descent_iterations=1_000_000):
    """Certified-resolution minimizer of the exact objective F.

    Grid search (d <= 2) and bracketed golden-section polish (d = 1); for
    linear objectives on the simplex the grid degenerates to exact vertex
    enumeration; any other dimension falls back to a long projected
    subgradient descent with diminishing steps.  A grid that cannot honor
    the requested resolution raises instead of silently degrading.
    """
    d = problem.dimension
    if method is None:
        rows = problem.exact_objective().rows()
        if problem.regularizer.kind == "indicator_simplex" and \
                isinstance(rows, AffineRows) and not rows.absolute:
            method = "vertex"
        elif d == 1:
            method = "golden_section"
        elif d == 2:
            method = "grid"
        else:
            method = "projected_descent_long"

    if method == "vertex":
        return _simplex_vertex_min(problem)
    if method == "projected_descent_long":
        return _projected_descent_long(problem, iterations=descent_iterations)

    if domain_box is None:
        domain_box = (-2.5, 2.5)
    lo, hi = float(domain_box[0]), float(domain_box[1])
    n = int(np.ceil((hi - lo) / resolution)) + 1
    if n ** d > GRID_POINT_CAP:
        raise ValueError(
            "resolution %.3g needs %d grid points (cap %d); refusing to degrade"
            % (resolution, n ** d, GRID_POINT_CAP))
    axis = np.linspace(lo, hi, n)

    if method == "golden_section":
        vals = np.array([problem.exact_F(np.array([t])) for t in axis])
        k = int(np.argmin(vals))
        a = axis[max(k - 1, 0)]
        b = axis[min(k + 1, n - 1)]
        t, v = _golden_polish(lambda s: problem.exact_F(np.array([s])), a, b)
        return OracleResult(v, np.array([t]), "golden_section", resolution)

    if method == "grid":
        model = problem.exact_objective()
        best_v, best_x = np.inf, None
        chunk = max(1, GRID_CHUNK // n)
        for start in range(0, n, chunk):
            rows = axis[start:start + chunk]
            X, Y = np.meshgrid(rows, axis, indexing="ij")
            pts = np.stack([X.ravel(), Y.ravel()], axis=1)
            vals = model.value_rows(pts) + problem.regularizer.value_rows(pts)
            k = int(np.argmin(vals))
            if vals[k] < best_v:
                best_v, best_x = vals[k], pts[k]
        return OracleResult(best_v, best_x, "grid", resolution)

    raise ValueError("unknown brute force method %r" % (method,))
