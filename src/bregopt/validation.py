"""Independent checks of the library's claims, imported on first use: the
statistical verify_* checks of an oracle's declared constants (one-sided
accuracy, Lipschitz bound, relative smoothness, gradient variance) and the
brute-force ground truth of a problem's minimum (brute_force_min).  The
solvers never call them, so bregopt exports these names lazily and a process
that only takes steps and sweeps does not compile this module."""

import numpy as np

from .subproblem import AffineRows, _affine_solver


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
    vertices = np.eye(problem.dimension)
    values = problem.exact_F_rows(vertices)
    k = int(np.argmin(values))
    return OracleResult(float(values[k]), vertices[k], "grid", 0.0)


def _projected_descent_long(problem, iterations=1_000_000, step0=0.5):
    """Deterministic long subgradient descent on the exact objective."""
    model = problem.objective
    reg = problem.regularizer
    phi = problem.phi
    x = problem.x0.copy()
    best_v, best_x = problem.exact_F(x), x.copy()
    solve = _affine_solver(reg, phi)
    if solve is None:
        raise ValueError("no affine prox available for projected descent")
    for k in range(1, iterations + 1):
        g = model.gradients(x[None, :])[0]
        step = step0 / np.sqrt(k)
        Z = phi.state_rows(x[None, :], reg)
        x = solve(g[None, :], Z.points, Z.mirror, step)[0][0]
        v = problem.exact_F(x)
        if v < best_v:
            best_v, best_x = v, x.copy()
    return OracleResult(best_v, best_x, "projected_descent_long", step0 / np.sqrt(iterations))


def brute_force_min(problem, domain_box=None, resolution=1e-3, descent_iterations=1_000_000):
    """Certified-resolution minimizer of the exact objective F, by the
    method that the problem alone decides: exact vertex enumeration for a
    linear objective on the simplex; otherwise a grid search in d <= 2 (in
    d = 1 polished by a bracketed golden section) and a long projected
    subgradient descent with diminishing steps in higher dimensions.  A
    grid that cannot honor the requested resolution raises instead of
    silently degrading, as does a descent_iterations below 1.
    """
    if descent_iterations < 1:
        raise ValueError("descent_iterations must be at least 1, got %r"
                         % (descent_iterations,))
    d = problem.dimension
    rows = problem.objective
    if problem.regularizer.kind == "indicator_simplex" and \
            isinstance(rows, AffineRows) and not rows.absolute:
        return _simplex_vertex_min(problem)
    if d > 2:
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

    if d == 1:
        vals = problem.exact_F_rows(axis[:, None])
        k = int(np.argmin(vals))
        a = axis[max(k - 1, 0)]
        b = axis[min(k + 1, n - 1)]
        t, v = _golden_polish(lambda s: problem.exact_F(np.array([s])), a, b)
        return OracleResult(v, np.array([t]), "golden_section", resolution)

    best_v, best_x = np.inf, None
    chunk = max(1, GRID_CHUNK // n)
    for start in range(0, n, chunk):
        X, Y = np.meshgrid(axis[start:start + chunk], axis, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = rows.values(pts) + problem.regularizer.value_rows(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v, best_x = vals[k], pts[k]
    return OracleResult(best_v, best_x, "grid", resolution)
