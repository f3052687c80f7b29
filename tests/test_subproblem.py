import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bregopt.problems import (abs_quadratic_rows, default_configs, get_problem,
                              instance_from_config, registry)
from util_problems import RowModel, euclidean_p1, root_mirror_excess, secular_mirror_excess

from bregopt.legendre import (Burg, DomainError, Euclidean, RadialPowerSum,
                              ShannonEntropy, WeightedSum, build_composite_legendre,
                              build_norm_power_legendre, build_poly_legendre,
                              norm_rows)
from bregopt.subproblem import (AffineRows, BallIndicator, EntropyLike,
                                InnerSolveError, L1Regularizer, NormTermRows,
                                ProxLinearRows, QuadraticRegularizer,
                                QuadraticRows, RADIAL_TOL,
                                SimplexIndicator, SmoothRows, ZeroRegularizer,
                                absolute_affine_model, center_certificate,
                                check_three_point, inner_solve, linear_model,
                                power_terms, prox_points_1d, prox_step, prox_step_rows,
                                record_rows, solve_monotone_power, solve_rows,
                                _affine_solver, _growth, _newton, _newton_directions,
                                _secular, _secular_rows, _solve_1d)


def _value(model, x):
    # a one-row form's model at the point x
    return float(model.values(np.asarray(x, dtype=float)[None, :])[0])


def scaled_g(model, reg, eta):
    return lambda x: eta * (_value(model, x) + reg.value(x))


def test_euclidean_gradient_step_is_exact():
    z = np.array([1.0, 2.0])
    v = np.array([0.5, -1.0])
    res = prox_step(linear_model(v), ZeroRegularizer(), Euclidean(), z, 0.3)
    assert np.array_equal(res.minimizer, z - 0.3 * v)
    assert res.three_point_residual >= -1e-12


def test_poly_quadratic_closed_form():
    # grad phi = 7x for the p = 1 builder, so the step is z - (eta/7) v
    z = np.array([1.0, 2.0])
    v = np.array([0.5, -1.0])
    res = prox_step(linear_model(v), ZeroRegularizer(), build_poly_legendre([1.0]),
                    z, 0.3)
    assert np.allclose(res.minimizer, z - (0.3 / 7.0) * v, rtol=1e-14)


def test_entropy_simplex_multiplicative_update():
    z = np.array([0.2, 0.3, 0.5])
    v = np.array([1.0, -0.5, 0.2])
    res = prox_step(linear_model(v), SimplexIndicator(), ShannonEntropy(on_simplex=True),
                    z, 0.7)
    w = z * np.exp(-0.7 * v)
    assert np.allclose(res.minimizer, w / w.sum(), rtol=1e-13)
    assert np.all(res.minimizer > 0)


def test_radial_scalar_equation():
    # 13 s^3 = g for the (13/4)||x||^4 kernel; g = 13 gives s = 1
    phi = build_poly_legendre([0.0, 0.0, 1.0])
    coefs, powers = phi.radial_terms()
    assert abs(solve_monotone_power(power_terms(coefs, powers), 13.0) - 1.0) <= 1e-12
    # consistency with the generic dispatch on a pure quadratic kernel
    phi2 = build_poly_legendre([1.0])
    z = np.array([0.4, -1.1])
    v = np.array([2.0, 1.0])
    a = prox_step(linear_model(v), ZeroRegularizer(), phi2, z, 0.25).minimizer
    assert np.allclose(a, z - (0.25 / 7.0) * v, atol=1e-12)
    # v = 0 keeps the center fixed
    fix = prox_step(linear_model(np.zeros(2)), ZeroRegularizer(), phi2, z, 0.25).minimizer
    assert np.allclose(fix, z, atol=1e-12)


def test_monotone_power_map_is_increasing():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        coefs = rng.uniform(0.1, 3.0, k)
        powers = rng.integers(2, 7, k).astype(float)
        rs = np.sort(rng.uniform(0.0, 5.0, 10))
        s = [float(np.sum(coefs * powers * r ** (powers - 1))) for r in rs]
        assert all(a < b or (a == b == 0.0) for a, b in zip(s, s[1:]))
        target = rng.uniform(0.0, 50.0)
        root = solve_monotone_power(power_terms(coefs, powers), target)
        val = float(np.sum(coefs * powers * root ** (powers - 1)))
        assert abs(val - target) <= 1e-10 * (1.0 + target)


# the radial kernels of the registry (P1, P2, P6): quadratic + quartic
_REGISTRY_KERNELS = [([3.5, 1.0], [2.0, 4.0]), ([0.5, 0.25], [2.0, 4.0]),
                     ([0.875, 0.8125], [2.0, 4.0])]
_random_kernel = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)), st.integers(2, 8)),
    min_size=1, max_size=3).filter(lambda terms: any(c > 0 for c, _ in terms)).map(
        lambda terms: ([c for c, _ in terms], [float(p) for _, p in terms]))


def _bisected_root(lin, terms, g):
    """Root of lin r + sum_k a_k r^e_k = g over the (a_k, e_k) of terms by
    plain float bisection, and the slope of the left side there."""
    def s(r):
        return lin * r + sum(a * r ** e for a, e in terms)

    lo, hi = 0.0, 1.0
    while s(hi) < g:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi, lin + sum(a * e * hi ** (e - 1.0) for a, e in terms)
        lo, hi = (mid, hi) if s(mid) < g else (lo, mid)


@settings(max_examples=200, deadline=None)
@given(kernel=st.one_of(st.sampled_from(_REGISTRY_KERNELS), _random_kernel),
       targets=st.lists(st.one_of(st.just(0.0),
                                  st.floats(-200.0, 200.0).map(lambda u: 10.0 ** u)),
                        min_size=1, max_size=8),
       shift=st.sampled_from(["zero", "positive", "negative"]),
       fracs=st.lists(st.floats(0.0, 0.999), min_size=8, max_size=8))
def test_monotone_power_root_matches_bisection(kernel, targets, shift, fracs):
    # the root of (shift + A(r)) r = g, with shift 0, a positive array
    # (1e-3 to 1e3) or a negative array (down to -0.999 A(0)): every entry
    # meets the stopping contract |lin r + sum_k a_k r^e_k - g| <= tol (1 + g)
    # over the terms e_k > 1, lin = shift + A(0), tol = RADIAL_TOL, and so
    # lies within tol (1 + g) / slope(r_ref) (plus rounding) of the root,
    # with no overflow in the powers
    coefs, powers = kernel
    tol = RADIAL_TOL
    terms = [(c * p, p - 1.0) for c, p in zip(coefs, powers) if c > 0 and p > 2.0]
    a0 = sum(c * p for c, p in zip(coefs, powers) if c > 0 and p == 2.0)
    fracs = np.array(fracs[:len(targets)])
    shifts = {"zero": 0.0, "positive": 10.0 ** (6.0 * fracs - 3.0),
              "negative": -fracs * a0}[shift]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = solve_monotone_power(power_terms(coefs, powers), np.array(targets),
                                 shift=shifts)
    assert r.shape == (len(targets),)
    for ri, g, lin in zip(r, targets, a0 + np.broadcast_to(shifts, r.shape)):
        if g == 0.0:
            assert ri == 0.0
            continue
        residual = lin * ri + sum(ak * ri ** ek for ak, ek in terms) - g
        assert abs(residual) <= tol * (1.0 + g) + 1e-15 * g, (ri, g, lin)
        ref, slope = _bisected_root(lin, terms, g)
        assert abs(ri - ref) <= tol * (1.0 + g) / slope + 1e-14 * ref, (ri, ref, g, lin)


def test_monotone_power_raises_when_unsolved():
    # one Newton step from the term-wise bound does not reach the tolerance
    with pytest.raises(InnerSolveError, match="Newton"):
        solve_monotone_power(power_terms([1.0, 1.0, 1.0], [2.0, 3.0, 6.0]),
                             np.array([5.0]), max_iter=1)
    with pytest.raises(InnerSolveError, match="finite"):
        solve_monotone_power(power_terms([3.5, 1.0], [2.0, 4.0]), np.inf)
    # A(0) = 7: a shift below -7 leaves no increasing equation
    with pytest.raises(InnerSolveError, match="A\\(0\\) >= 0"):
        solve_monotone_power(power_terms([3.5, 1.0], [2.0, 4.0]), 1.0, shift=np.array([0.0, -8.0]))


def test_ball_and_l1_and_quadratic_closed_forms():
    z = np.array([1.5, -0.5])
    v = np.array([-2.0, 0.0])
    res = prox_step(linear_model(v), BallIndicator(1.0), Euclidean(), np.array([0.5, 0.0]), 1.0)
    assert np.linalg.norm(res.minimizer) <= 1.0 + 1e-12
    res = prox_step(linear_model(v), L1Regularizer(0.3), Euclidean(), z, 0.5)
    u = z - 0.5 * v
    assert np.allclose(res.minimizer, np.sign(u) * np.maximum(np.abs(u) - 0.15, 0.0))
    res = prox_step(linear_model(v), QuadraticRegularizer(2.0), Euclidean(), z, 0.5)
    assert np.allclose(res.minimizer, u / 2.0)


def test_burg_closed_form_and_unboundedness():
    z = np.array([1.0, 2.0])
    res = prox_step(linear_model(np.array([0.5, 0.5])), ZeroRegularizer(), Burg(), z, 1.0)
    assert np.allclose(res.minimizer, 1.0 / (1.0 / z + np.array([0.5, 0.5])))
    assert np.all(res.minimizer > 0)
    with pytest.raises(InnerSolveError):
        prox_step(linear_model(np.array([-2.0, 0.0])), ZeroRegularizer(), Burg(), z, 1.0)


def test_eta_floor_guard():
    z = np.array([1.0, 2.0])
    res = prox_step(linear_model(np.array([5.0, 5.0])), ZeroRegularizer(),
                    Euclidean(), z, 1e-15)
    assert res.method == "degenerate_eta"
    assert np.array_equal(res.minimizer, z)


def test_prox_step_precondition_errors():
    z = np.array([0.5])
    with pytest.raises(ValueError):
        prox_step(linear_model(np.array([1.0])), ZeroRegularizer(), Euclidean(), z, 0.5, rho=2.5)
    with pytest.raises(ValueError):
        prox_step(linear_model(np.array([1.0])), ZeroRegularizer(), Euclidean(), z, -0.1)
    # the batched 1-d solve and inner_solve share prox_step's preconditions
    model = RowModel(lambda Y: 0.5 * Y[:, 0] ** 2, lambda Y: Y)
    for eta, rho in [(0.0, 0.0), (1.0, 2.0), (0.5, -1.0)]:
        with pytest.raises(ValueError):
            prox_points_1d(model, ZeroRegularizer(), Euclidean(), z, eta, rho=rho)
        with pytest.raises(ValueError):
            inner_solve(model, ZeroRegularizer(), Euclidean(), z, eta, rho=rho)


def _linear_smooth_rows(v):
    # the linear model <v, y> as smooth rows, for the lockstep Newton
    d = v.size
    return SmoothRows(lambda Y: Y @ v, lambda Y: np.broadcast_to(v, Y.shape),
                      lambda Y: np.zeros((len(Y), d, d)))


def _kkt_violation(reg, phi, z, v, y, eta):
    # the optimality conditions of argmin <v, y> + r(y) + D(y, z) / eta under
    # a constraint or a nonzero r, written without the closed forms
    g = phi.gradient(y) - phi.gradient(z) + eta * v
    if reg.kind == "l1":
        # 0 in g_i + eta w d|y_i|: g_i + eta w sign y_i = 0 where y_i != 0,
        # |g_i| <= eta w where y_i = 0
        w = eta * reg.weight
        return np.where(y != 0.0, np.abs(g + w * np.sign(y)),
                        np.maximum(np.abs(g) - w, 0.0)).max()
    if reg.kind == "quadratic":
        return np.abs(g + eta * reg.weight * y).max()
    if reg.kind == "indicator_ball":
        # |y| < R and y = z - eta v, or |y| = R and z - eta v - y = t y, t >= 0
        u = z - eta * v
        n = np.linalg.norm(y)
        if n < reg.radius - 1e-12:
            return np.abs(y - u).max()
        t = float(np.dot(u - y, y)) / (n * n)
        return max(abs(n - reg.radius), np.abs(u - y - t * y).max(), -t)
    # on the simplex, y > 0 and grad phi(y) - grad phi(z) + eta (v + r'(y))
    # is a constant vector (the normal cone of sum y = 1)
    assert np.all(y > 0) and abs(y.sum() - 1.0) <= 1e-12
    tilt = reg.weight * (1.0 + np.log(y)) if reg.kind == "entropy_like" else 0.0
    return np.ptp(g + eta * tilt)


def test_closed_form_agrees_with_iterative_solver():
    # wherever a closed form is registered it must land on the point an
    # independent reference gives: the 1-d bisection, the lockstep Newton on
    # the linear model's smooth rows, or the KKT conditions of a constraint
    # or of a nonzero r
    rng = np.random.default_rng(4)
    eta = 0.4
    cases = []
    for d, phi, reg in [
        (1, Euclidean(), ZeroRegularizer()),
        (1, build_composite_legendre([1.0], [0.0, 0.0, 4.0]), ZeroRegularizer()),
        (1, Burg(), ZeroRegularizer()),
        (1, ShannonEntropy(), ZeroRegularizer()),
        (2, Euclidean(), ZeroRegularizer()),
        (2, build_poly_legendre([1.0, 0.0, 1.0]), ZeroRegularizer()),
        (3, ShannonEntropy(on_simplex=True), SimplexIndicator()),
        (3, ShannonEntropy(on_simplex=True), EntropyLike(1.3)),
        (2, Euclidean(), BallIndicator(1.0)),
        (2, Euclidean(), L1Regularizer(0.3)),
        (2, Euclidean(), QuadraticRegularizer(2.0)),
    ]:
        for k in range(5):
            if phi.domain != "all_space":
                z = rng.dirichlet(np.full(d, 3.0))
            elif reg.kind == "indicator_ball":
                z = rng.uniform(-0.5, 0.5, d)
            else:
                z = rng.uniform(-1.5, 1.5, d)
            v = rng.uniform(-1.0, 1.0, d)
            if reg.kind == "l1" and k < 3:
                # the coordinate k % 2 in the thresholded case: |z - eta v| is
                # below eta w, so its minimizer entry is 0
                v[k % 2] = (z[k % 2] - rng.uniform(-0.9, 0.9) * eta * reg.weight) / eta
            cases.append((phi, reg, z, v))
    zeros = 0
    for phi, reg, z, v in cases:
        model = linear_model(v)
        closed = prox_step(model, reg, phi, z, eta)
        assert "closed_form" in closed.method
        if z.size == 1:
            ref = inner_solve(model, reg, phi, z, eta).minimizer
        elif reg.kind == "zero":
            ref = prox_step_rows(_linear_smooth_rows(v), reg, phi, z[None, :],
                                 eta).minimizer[0]
        else:
            assert _kkt_violation(reg, phi, z, v, closed.minimizer, eta) <= 1e-8, reg.kind
            zeros += int(np.sum(closed.minimizer == 0.0)) if reg.kind == "l1" else 0
            continue
        gap = phi.bregman(closed.minimizer, np.maximum(ref, 1e-300)
                          if phi.domain != "all_space" else ref)
        assert gap <= 1e-8
    # both of the l1 conditions were checked
    assert 3 <= zeros < 10


def test_three_point_contract_and_negative_control():
    rng = np.random.default_rng(5)
    phi = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    reg = ZeroRegularizer()
    model = absolute_affine_model(np.array([1.3, -0.4]), 0.2)
    z = np.array([0.8, -0.3])
    eta = 0.35
    res = prox_step(model, reg, phi, z, eta)
    probes = [rng.uniform(-2.0, 2.0, 2) for _ in range(100)]
    rep = check_three_point(scaled_g(model, reg, eta), phi, z, res.minimizer, probes)
    assert rep.min_residual >= -1e-10
    # probe at the minimizer contributes a zero residual term
    rep_self = check_three_point(scaled_g(model, reg, eta), phi, z,
                                 res.minimizer, [res.minimizer])
    assert abs(rep_self.min_residual) <= 1e-12
    # a deliberately perturbed step must be detected
    rep_bad = check_three_point(scaled_g(model, reg, eta), phi, z,
                                res.minimizer + 0.1, probes)
    assert rep_bad.min_residual < 0


def _three_point_by_probe(g_value, phi, z, z_plus, probes):
    # check_three_point's report by one probe at a time, the reference its
    # row passes must equal bit for bit
    base = g_value(z_plus) + phi.bregman(z_plus, z)
    best, worst, used = np.inf, None, 0
    for x in probes:
        gx = g_value(x)
        if not np.isfinite(gx):
            continue
        res = gx + phi.bregman(x, z) - base - phi.bregman(x, z_plus)
        used += 1
        if res < best:
            best, worst = res, x
    return best, worst, used


def test_three_point_report_equals_the_probe_by_probe_report():
    # the same minimum, the first of equal worst probes (every probe comes
    # twice), the same count, and probes where g is infinite or NaN skipped,
    # on the registry's kernels, the entropy and Burg
    rng = np.random.default_rng(11)
    phis = [p.phi for p in registry()] + [ShannonEntropy(), Burg()]
    for phi in phis:
        for d in (1, 2, 5):
            positive = phi.domain != "all_space"
            draw = (lambda: rng.uniform(0.05, 3.0, d)) if positive else \
                (lambda: rng.uniform(-3.0, 3.0, d))
            v = rng.normal(size=d)
            z, z_plus = draw(), draw()
            probes = [draw() for _ in range(15)]
            probes += [x.copy() for x in probes]

            def g_val(x):
                return np.inf if x[0] > 2.5 else np.nan if x[0] < 0.1 else float(v @ x)

            rep = check_three_point(g_val, phi, z, z_plus, probes)
            best, worst, used = _three_point_by_probe(g_val, phi, z, z_plus, probes)
            assert rep.min_residual == best and rep.n_probes == used, (phi.kind, d)
            assert rep.worst_probe is worst, (phi.kind, d)


def test_abs_model_prox_matches_grid():
    g = np.array([1.0, -2.0])
    s = 0.3
    z = np.array([0.5, 0.5])
    eta = 0.8
    res = prox_step(absolute_affine_model(g, s), ZeroRegularizer(), Euclidean(), z, eta)
    xs = np.linspace(-2, 2, 1601)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    V = np.abs(g[0] * X + g[1] * Y + s) + ((X - z[0]) ** 2 + (Y - z[1]) ** 2) / (2 * eta)
    k = np.unravel_index(np.argmin(V), V.shape)
    assert np.linalg.norm(res.minimizer - np.array([X[k], Y[k]])) <= 5e-3


def test_inner_solve_1d_smooth_matches_golden_section():
    # smooth strongly convex instance: model exp(y) with a Euclidean kernel
    model = RowModel(lambda Y: np.exp(Y[:, 0]), np.exp)
    z = np.array([0.8])
    eta = 0.7
    res = inner_solve(model, ZeroRegularizer(), Euclidean(), z, eta)

    def total(y):
        return np.exp(y) + (y - z[0]) ** 2 / (2 * eta)

    invphi = (np.sqrt(5) - 1) / 2
    a, b = -2.0, 1.0
    while b - a > 1e-13:
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        if total(c) < total(d):
            b = d
        else:
            a = c
    # value-based search localizes a quadratic minimum to ~sqrt(eps) only
    assert abs(res.minimizer[0] - 0.5 * (a + b)) <= 1e-7


def test_inner_solve_1d_matches_golden_section():
    # strongly convex piece plus kink, certified by bisection
    model = RowModel(lambda Y: np.abs(Y[:, 0] ** 2 - 1.0),
                     lambda Y: np.sign(Y ** 2 - 1.0) * 2 * Y)
    phi = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    z = np.array([1.6])
    eta = 0.4
    res = inner_solve(model, ZeroRegularizer(), phi, z, eta)

    def total(y):
        return abs(y ** 2 - 1.0) + phi.bregman(np.array([y]), z) / eta

    invphi = (np.sqrt(5) - 1) / 2
    a, b = 0.5, 1.6
    while b - a > 1e-12:
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        if total(c) < total(d):
            b = d
        else:
            a = c
    assert abs(res.minimizer[0] - 0.5 * (a + b)) <= 1e-8


def test_inner_solve_simplex_matches_grid():
    # 2-d simplex instance against a dense grid oracle
    phi = ShannonEntropy(on_simplex=True)
    reg = SimplexIndicator()
    v = np.array([0.9, -0.4])
    z = np.array([0.3, 0.7])
    eta = 0.6
    res = prox_step(linear_model(v), reg, phi, z, eta)
    ts = np.linspace(1e-9, 1 - 1e-9, 1000001)
    x0, x1 = ts, 1.0 - ts
    ent = x0 * np.log(x0) + x1 * np.log(x1)
    entz = float(np.sum(z * np.log(z)))
    gz = 1.0 + np.log(z)
    breg = ent - entz - gz[0] * (x0 - z[0]) - gz[1] * (x1 - z[1])
    vals = v[0] * x0 + v[1] * x1 + breg / eta
    t_best = ts[np.argmin(vals)]
    assert abs(res.minimizer[0] - t_best) <= 1e-3


def test_objective_already_minimized_at_center():
    z = np.array([[0.3, -0.2]])
    res = prox_step_rows(_linear_smooth_rows(np.zeros(2)), ZeroRegularizer(),
                         Euclidean(), z, 0.5)
    assert np.allclose(res.minimizer, z, atol=1e-12)
    res = prox_step(linear_model(np.zeros(2)), ZeroRegularizer(), Euclidean(), z[0], 0.5)
    assert np.allclose(res.minimizer, z[0], atol=1e-12)


def test_interior_preservation_entropy_and_burg():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.dirichlet(np.ones(4))
        z = np.maximum(z, 1e-12)
        z /= z.sum()
        v = rng.uniform(-3.0, 3.0, 4)
        out = prox_step(linear_model(v), SimplexIndicator(),
                        ShannonEntropy(on_simplex=True), z, 0.5).minimizer
        assert np.all(out > 0)
        zb = rng.uniform(0.5, 2.0, 4)
        vb = rng.uniform(0.1, 1.0, 4)
        out = prox_step(linear_model(vb), ZeroRegularizer(), Burg(), zb, 0.5).minimizer
        assert np.all(out > 0)


def test_norm_term_closed_form():
    # <v, y> + c|y| with the Euclidean kernel is a shrinkage step
    v = np.array([0.3, 0.1])
    model = NormTermRows(v, 0.5)
    z = np.array([1.0, 0.5])
    eta = 0.8
    res = prox_step(model, ZeroRegularizer(), Euclidean(), z, eta)
    u = z - eta * v
    expected = (max(np.linalg.norm(u) - eta * 0.5, 0.0) / np.linalg.norm(u)) * u
    assert np.allclose(res.minimizer, expected, atol=1e-12)
    assert res.three_point_residual >= -1e-10
    # its subgradient selection: v + c y / |y|, and v at y = 0
    Y = np.array([[3.0, -4.0], [0.0, 0.0]])
    assert np.allclose(model.gradients(Y), [v + 0.5 * np.array([0.6, -0.8]), v], rtol=1e-15)


def _polar_prox(u, scale, radius):
    # an independent reference in d = 2 for argmin 0.5 |x|^2 - <u, x> + scale |x|
    # over |x| <= radius (inf: no ball), which is eta times <v, x> + c |x|
    # + D(x, z) / eta less a constant, for u = z - eta v and scale = eta c.
    # Along the direction e(theta) the radial problem is the 1-d quadratic
    # 0.5 rho^2 - rho k, k = <e, u> - scale, whose minimizer over
    # [0, radius] is k clipped to it; the direction comes from a 3600-point
    # grid over the circle, refined by bounded Brent in the offset from the
    # best grid angle.  Returns the point and its objective.
    from scipy.optimize import minimize_scalar

    def point(theta):
        e = np.array([np.cos(theta), np.sin(theta)])
        return np.clip(e @ u - scale, 0.0, radius) * e

    def objective(x):
        return 0.5 * x @ x - u @ x + scale * np.linalg.norm(x)

    grid = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    k = np.cos(grid) * u[0] + np.sin(grid) * u[1] - scale
    rho = np.clip(k, 0.0, radius)
    best, step = grid[np.argmin(0.5 * rho * rho - rho * k)], grid[1]
    tau = minimize_scalar(lambda tau: objective(point(best + tau)), bounds=(-step, step),
                          method="bounded", options={"xatol": 1e-15}).x
    x = point(best + tau)
    return x, objective(x)


@pytest.mark.parametrize("case", ["ball", "norm", "norm_ball"])
def test_ball_and_norm_term_steps_match_a_polar_search(case):
    # P5's outer step (the Euclidean ball step of a linear model) and its
    # envelope's step (the norm term <v, x> + c |x|, with and without the
    # ball) against _polar_prox, from centres on and near the sphere of the
    # ball and step sizes up to 1e6.  Tolerances: the points agree to
    # 1e-6 (1 + |x_ref|) (the reference's angle is good to about
    # sqrt(eps)); the closed form's objective is at most the reference's
    # plus 1e-13 (|u| |x_ref| + |x_ref|^2 + eta c |x_ref| + 1), the rounding
    # of the terms; a ball step lies in the ball to 8 eps
    rng = np.random.default_rng({"ball": 31, "norm": 32, "norm_ball": 33}[case])
    eps = np.finfo(float).eps
    radius = 2.0
    reg = ZeroRegularizer() if case == "norm" else BallIndicator(radius)
    for eta in 10.0 ** np.array([-3.0, -1.0, 0.0, 2.0, 4.0, 6.0]):
        n = 12
        gap = 10.0 ** rng.uniform(-14.0, -1.0, n)
        gap[:3] = 0.0
        angle = rng.uniform(0.0, 2.0 * np.pi, (2, n))
        Z = (radius * (1.0 - gap) * [np.cos(angle[0]), np.sin(angle[0])]).T
        V = (10.0 ** rng.uniform(-7.0, 1.0, n) * [np.cos(angle[1]), np.sin(angle[1])]).T
        c = 0.0 if case == "ball" else float(rng.uniform(0.0, 1.0))
        rows = AffineRows(V, np.zeros(n), False) if case == "ball" else NormTermRows(V, c)
        res = prox_step_rows(rows, reg, Euclidean(), Z, eta)
        assert res.method == ("closed_form_affine" if case == "ball" else "closed_form_norm")
        Y = res.minimizer
        if case != "norm":
            assert np.all(norm_rows(Y) <= radius * (1.0 + 8.0 * eps)), eta
        for i in range(n):
            u = Z[i] - eta * V[i]
            ref, ref_value = _polar_prox(u, eta * c, radius if case != "norm" else np.inf)
            size = np.linalg.norm(ref)
            assert np.linalg.norm(Y[i] - ref) <= 1e-6 * (1.0 + size), (eta, i)
            value = 0.5 * Y[i] @ Y[i] - u @ Y[i] + eta * c * np.linalg.norm(Y[i])
            slack = 1e-13 * (np.linalg.norm(u) * size + size * size + eta * c * size + 1.0)
            assert value <= ref_value + slack, (eta, i)


def _radial_polar_prox(w, scale, radius, coefs, powers):
    # _polar_prox for the radial kernel Phi(|x|), Phi(rho) = sum_k c_k rho^p_k
    # (p_k >= 2): argmin Phi(|x|) - <w, x> + scale |x| over |x| <= radius in
    # d = 2, which is eta times <v, x> + c |x| + D(x, z) / eta less a
    # constant, for w = grad phi(z) - eta v and scale = eta c.  Along e(theta)
    # the radial problem Phi(rho) - rho k, k = <e, w> - scale, is convex, and
    # its minimizer over [0, radius] is the root of Phi'(rho) = k (0 for
    # k <= 0) clipped to it, below min_k (k / (c_k p_k))^(1/(p_k - 1)): by
    # lockstep bisection on the 3600-point grid over the circle, and by brentq
    # in the bounded Brent refinement of the best grid angle.  Returns the
    # point and its objective.
    from scipy.optimize import brentq, minimize_scalar

    def Phi(rho):
        return (coefs * np.asarray(rho)[..., None] ** powers).sum(axis=-1)

    def dPhi(rho):
        return (coefs * powers * np.asarray(rho)[..., None] ** (powers - 1.0)).sum(axis=-1)

    def upper(k):
        top = ((np.maximum(k, 0.0)[..., None] / (coefs * powers)) ** (1.0 / (powers - 1.0)))
        return np.minimum(top.min(axis=-1), radius)

    def size(theta):
        k = np.cos(theta) * w[0] + np.sin(theta) * w[1] - scale
        hi = float(upper(k))
        if k <= 0.0 or dPhi(hi) <= k:
            return max(hi, 0.0)
        return brentq(lambda rho: dPhi(rho) - k, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)

    def point(theta):
        return size(theta) * np.array([np.cos(theta), np.sin(theta)])

    def objective(x):
        n = np.linalg.norm(x)
        return float(Phi(n)) - w @ x + scale * n

    grid = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    k = np.cos(grid) * w[0] + np.sin(grid) * w[1] - scale
    lo, hi = np.zeros(grid.size), upper(k)
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        below = dPhi(mid) < k
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.all((hi - lo) <= 4 * np.finfo(float).eps * hi):
            break
    rho = 0.5 * (lo + hi)
    best, step = grid[np.argmin(Phi(rho) - rho * k)], grid[1]
    tau = minimize_scalar(lambda tau: objective(point(best + tau)), bounds=(-step, step),
                          method="bounded", options={"xatol": 1e-15}).x
    x = point(best + tau)
    return x, objective(x)


@pytest.mark.parametrize("pid", ["P1", "P6"])
@pytest.mark.parametrize("case", ["norm", "norm_ball"])
def test_norm_term_steps_under_radial_kernels_match_a_polar_search(pid, case):
    # the norm term <v, x> + c |x| under P1's composite kernel and P6's poly
    # kernel (2-d here), with and without the ball, is the radial solve with
    # the norm-term weight: against _radial_polar_prox, from centres on and
    # near the sphere of the ball and step sizes up to 1e6.  Tolerances as in
    # the Euclidean test above, with Phi(|x_ref|) for |x_ref|^2
    phi = get_problem(pid).phi
    coefs, powers = phi.radial_terms()
    rng = np.random.default_rng({"norm": 41, "norm_ball": 43}[case] + (pid == "P6"))
    eps = np.finfo(float).eps
    radius = 2.0
    reg = ZeroRegularizer() if case == "norm" else BallIndicator(radius)
    for eta in 10.0 ** np.array([-3.0, -1.0, 0.0, 2.0, 4.0, 6.0]):
        n = 8
        gap = 10.0 ** rng.uniform(-14.0, -1.0, n)
        gap[:2] = 0.0
        angle = rng.uniform(0.0, 2.0 * np.pi, (2, n))
        Z = (radius * (1.0 - gap) * [np.cos(angle[0]), np.sin(angle[0])]).T
        V = (10.0 ** rng.uniform(-7.0, 1.0, n) * [np.cos(angle[1]), np.sin(angle[1])]).T
        c = float(rng.uniform(0.0, 1.0))
        res = prox_step_rows(NormTermRows(V, c), reg, phi, Z, eta)
        assert res.method == "closed_form_norm"
        Y = res.minimizer
        if case == "norm_ball":
            assert np.all(norm_rows(Y) <= radius * (1.0 + 8.0 * eps)), eta
        # grad phi(z) = Phi'(|z|) z / |z|, written out here
        r = np.linalg.norm(Z, axis=1)
        W = (coefs * powers * r[:, None] ** (powers - 2.0)).sum(axis=1)[:, None] * Z - eta * V
        for i in range(n):
            ref, ref_value = _radial_polar_prox(W[i], eta * c,
                                                radius if case == "norm_ball" else np.inf,
                                                coefs, powers)
            size = np.linalg.norm(ref)
            assert np.linalg.norm(Y[i] - ref) <= 1e-6 * (1.0 + size), (eta, i)
            m = np.linalg.norm(Y[i])
            value = (coefs * m ** powers).sum() - W[i] @ Y[i] + eta * c * m
            slack = 1e-13 * (np.linalg.norm(W[i]) * size + (coefs * size ** powers).sum()
                             + eta * c * size + 1.0)
            assert value <= ref_value + slack, (eta, i)


def test_1d_abs_affine_step_matches_bisection():
    # one batch of |g y + s| rows that stop at theta = +1, at theta = -1 and
    # at the kink; the certified bisection is the reference
    phi = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    reg = ZeroRegularizer()
    eta = 0.3
    g, s, z = np.array([(2.1, -1.3, 1.7), (1.0, -5.0, 0.5), (3.0, -3.0, 1.0 + 1e-3),
                        (0.5, 4.0, 0.9), (-2.0, -4.0, 0.3), (-0.8, 0.2, -0.4)]).T
    G, Z = g[:, None], z[:, None]
    rows = AffineRows(G, s, True)
    res = prox_step_rows(rows, reg, phi, Z, eta)
    assert res.method == "closed_form_abs_affine"
    its = []
    for i in range(len(g)):
        model = absolute_affine_model(G[i], s[i])
        ref = inner_solve(model, reg, phi, Z[i], eta)
        assert ref.method == "bisection_1d"
        y = res.minimizer[i, 0]
        assert abs(y - ref.minimizer[0]) <= 1e-12 * (1.0 + abs(ref.minimizer[0]))
        one = prox_step(model, reg, phi, Z[i], eta)
        assert one.method == "closed_form_abs_affine"
        assert np.array_equal(one.minimizer, res.minimizer[i])
        its.append(one.inner_iterations)
    # each row's case comes from phi' at the kink: one affine solve per row
    assert its == [1] * len(g)
    assert res.inner_iterations == 1


# the 1-d kernels of the |affine| kink test; the positive domains get
# centers near 0 and steps that keep y(theta) inside for |theta| <= 3
_KINK_PHIS = {
    "composite": build_composite_legendre([1.0], [0.0, 0.0, 4.0]),
    "euclidean": Euclidean(),
    "poly_single_term": build_poly_legendre([1.0]),
    "burg": Burg(),
    "entropy": ShannonEntropy(),
}


@settings(max_examples=100, deadline=None)
@given(phi_kind=st.sampled_from(sorted(_KINK_PHIS)), seed=st.integers(0, 2 ** 32 - 1),
       log_eta=st.floats(-3.0, 6.0))
def test_1d_abs_affine_kink_cases_match_bisection(phi_kind, seed, log_eta):
    # every row's case is built in: its kink y0 = y(t) is the affine step of
    # the slope t g with t > 1 (the row stops at theta = +1), t < -1 (at
    # theta = -1) or |t| < 1 (at the kink); g = 0 rows keep z, and on a
    # positive domain a kink y0 <= 0 leaves theta = sign(g)
    phi, reg = _KINK_PHIS[phi_kind], ZeroRegularizer()
    rng = np.random.default_rng(seed)
    eta = 10.0 ** log_eta
    positive = phi.domain != "all_space"
    cases = ["plus", "minus", "kink", "flat"] + (["outside"] if positive else [])
    cases = cases * 2
    n = len(cases)
    if positive:
        z = 10.0 ** rng.uniform(-3.0, 0.3, n)
    else:
        z = rng.uniform(-3.0, 3.0, n)
    # eta |g| (times z for Burg, whose steps need 1/z > 3 eta |g|), kept
    # moderate: the certificates are absolute, so a step that moves y by
    # orders of magnitude fails them on rounding alone
    step = 10.0 ** rng.uniform(-6.0, np.log10({"burg": 0.3, "entropy": 3.0}
                                              .get(phi_kind, 10.0)), n)
    g = rng.choice([-1.0, 1.0], n) * step / eta / (z if phi_kind == "burg" else 1.0)
    t = np.array([{"plus": rng.uniform(1.1, 3.0), "minus": rng.uniform(-3.0, -1.1),
                   "kink": rng.uniform(-0.9, 0.9)}.get(c, 0.0) for c in cases])
    y0 = prox_step_rows(AffineRows((t * g)[:, None], np.zeros(n), False), reg, phi,
                        z[:, None], eta).minimizer[:, 0]
    outside = np.array([c == "outside" for c in cases])
    y0[outside] = -rng.uniform(0.0, 1.0, outside.sum())
    flat = np.array([c == "flat" for c in cases])
    g[flat] = 0.0
    s = -g * y0
    s[flat] = rng.uniform(-2.0, 2.0, flat.sum())
    G, Z = g[:, None], z[:, None]

    res = prox_step_rows(AffineRows(G, s, True), reg, phi, Z, eta)
    assert res.method == "closed_form_abs_affine" and res.inner_iterations == 1
    Y = res.minimizer[:, 0]
    for i, case in enumerate(cases):
        ref = inner_solve(absolute_affine_model(G[i], s[i]), reg, phi, Z[i], eta)
        assert abs(Y[i] - ref.minimizer[0]) <= 1e-12 * (1.0 + abs(ref.minimizer[0])), case
        one = solve_rows(AffineRows(G[i:i + 1], s[i:i + 1], True), reg, phi,
                         phi.state_rows(Z[i:i + 1]), eta)
        assert np.array_equal(one[0][0], res.minimizer[i]) and one[2] == 1, case
        level = g[i] * Y[i] + s[i]
        if case == "flat":
            assert Y[i] == z[i]
        elif case == "kink":
            assert Y[i] == -s[i] / g[i]
        elif case in ("plus", "minus"):
            assert level * {"plus": 1.0, "minus": -1.0}[case] > 0.0, case
        else:
            assert level * g[i] > 0.0
    # one |affine| row stands for every row of the batch
    i = cases.index("kink")
    state = phi.state_rows(Z)
    wide = solve_rows(AffineRows(G[i:i + 1], s[i:i + 1], True), reg, phi, state, eta)
    each = solve_rows(AffineRows(np.repeat(G[i:i + 1], n, axis=0),
                                 np.repeat(s[i:i + 1], n), True), reg, phi, state, eta)
    assert np.array_equal(wide[0], each[0])


@pytest.mark.parametrize("kernel", ["registry", "euclidean"])
def test_prox_linear_steps_match_the_bisection(kernel):
    # P1's steps from its gathered atoms (ProxLinearRows, the loop's plan)
    # and from its |affine| model rows (prox_step_rows) take one kernel, so
    # they agree bit for bit, minimizers and mirror coordinates W, and are
    # certified; they lie within 1e-12 (1 + |y|) of inner_solve's bisection
    # (_solve_1d, whose certificate fails on rounding at eta = 1e6 on a
    # kink) for step sizes up to 1e6, at centres on the kinks +-sqrt(b)/|a|
    # of their own atom (where the kink case returns y0), at x = 0 (g = 0:
    # y = z and W = w exactly) and in between; W is within
    # root_mirror_excess's bound of phi'(y).  The Euclidean kernel has no
    # closed-form root
    cfg = next(c for c in default_configs() if c["id"] == "P1")
    p1 = euclidean_p1() if kernel == "euclidean" else instance_from_config(cfg)
    oracle, reg, phi = p1.oracle, p1.regularizer, p1.phi
    a, b = np.asarray(cfg["a"]), np.asarray(cfg["b"])
    m = a.size
    rng = np.random.default_rng(7)
    kinks = np.sqrt(b) / np.abs(a)
    X = np.concatenate([kinks, -kinks, [0.0], rng.uniform(-2.5, 2.5, 9)])[:, None]
    xi = np.concatenate([np.arange(m), np.arange(m), rng.integers(0, m, 10)])
    atoms = ProxLinearRows(oracle.a2[xi], oracle.b[xi])
    for eta in (1e-3, 0.3, 10.0, 1e3, 1e6):
        Z = phi.state_rows(X, reg)
        Y, W, its, method = solve_rows(atoms, reg, phi, Z, eta)
        assert (its, method) == (1, "closed_form_abs_affine")
        res = prox_step_rows(oracle.model_rows(X, xi), reg, phi, Z, eta)
        assert np.array_equal(res.minimizer, Y) and np.array_equal(res.state.mirror, W)
        assert (root_mirror_excess(W, phi, Y) <= 0.0).all(), eta
        assert Y[2 * m, 0] == 0.0 and W[2 * m, 0] == Z.mirror[2 * m, 0]
        # a centre on its atom's kink steps to the model's kink -s/g
        rows = oracle.model_rows(X[:2 * m], xi[:2 * m])
        assert np.array_equal(Y[:2 * m, 0], -rows.offsets / rows.slopes[:, 0]), eta
        for i in range(len(X)):
            model = oracle.model_rows(X[i:i + 1], xi[i:i + 1])
            centre = phi.state_rows(X[i:i + 1], reg)
            ref = _solve_1d(model, reg, phi, centre, eta)[0][0]
            assert abs(Y[i, 0] - ref) <= 1e-12 * (1.0 + abs(ref)), (eta, i)


@pytest.mark.parametrize("x", [1e-120, 1e-160, 1e-200, 1e-300, -1e-300, 5e-324])
def test_a_p1_step_from_a_tiny_centre_keeps_its_scale(x):
    # with RuntimeWarnings as errors (the suite's setting): the step from
    # x = 1e-300 returned 0.0, as the square of W and of x (the centre's
    # phi') underflowed; from 1e-120 the kink gradient cubed y0 = -s/g
    # ~ 1e120 and overflowed, and from 5e-324 -s/g itself overflowed.  A
    # step from a tiny x scales with x (in the subnormals to a few units)
    p1 = get_problem("P1")
    eta = 0.5 / p1.oracle.constants.tau

    def step(x):
        model = p1.oracle.model_rows(np.array([[x]]), [3])
        return prox_step(model, p1.regularizer, p1.phi, np.array([x]), eta).minimizer[0]

    ratio = step(1e-100) / 1e-100
    assert 1.0 < ratio < 1.5
    if abs(x) >= np.finfo(float).tiny:
        assert abs(step(x) / x - ratio) <= 1e-12 * ratio
    else:
        assert 0.0 < step(x) <= 4.0 * x


def test_a_minimizer_outside_dom_r_fails_its_certificate():
    # the step of 0.5 (y - 5)^2 under the unit ball from 0.5 (eta = 1) to
    # 2.75, the unconstrained minimizer, where r = inf: its residual -inf
    # met the infinite scale (-inf >= -inf) and passed
    model = QuadraticRows.of(np.ones((1, 1, 1)), np.array([[5.0]]), np.zeros(1))
    reg, phi = BallIndicator(1.0), Euclidean()
    Z = phi.state_rows(np.array([[0.5]]), reg)
    Y = phi.state_rows(np.array([[2.75]]))._replace(r=reg.value_rows(np.array([[2.75]])))
    with pytest.raises(InnerSolveError, match="prox step 0 of 1"):
        record_rows(model.values, phi, Z, Y, 1.0)
    # in a batch the error names the first such row; an infeasible centre
    # (psi(z) = inf, residual +inf) still raises DomainError
    zero = np.zeros(3)
    with pytest.raises(InnerSolveError) as err:
        center_certificate(zero, np.array([0.0, np.inf, 0.0]), zero, zero, 1.0, 0.0)
    assert err.value.row == 1
    with pytest.raises(DomainError):
        center_certificate(np.array([0.0, np.inf, 0.0]), zero, zero, zero, 1.0, 0.0)


def test_a_constrained_1d_bisection_stops_at_the_end_of_dom_r():
    # the 1-d bisection brackets inside dom r (reg.bounds): 0.5 (y -+ 5)^2
    # under the unit ball from 0.5 (eta = 1) steps to the ends +-1 exactly,
    # where the normal cone takes up the slope, and an interior minimizer
    # is bisected as before; under the simplex in 1-d the step stays at 1
    phi = Euclidean()
    for c, y in ((5.0, 1.0), (-5.0, -1.0), (0.3, 0.4)):
        model = QuadraticRows.of(np.ones((1, 1, 1)), np.array([[c]]), np.zeros(1))
        step = prox_step(model, BallIndicator(1.0), phi, np.array([0.5]), 1.0)
        assert step.method == "bisection_1d"
        if abs(y) == 1.0:
            assert step.minimizer[0] == y and step.three_point_residual >= 0.0, c
        else:
            assert abs(step.minimizer[0] - y) <= 1e-14, c
    model = QuadraticRows.of(np.ones((1, 1, 1)), np.array([[3.0]]), np.zeros(1))
    assert prox_step(model, SimplexIndicator(), phi, np.array([1.0]), 1.0).minimizer[0] == 1.0


def test_a_p2_zero_slope_step_from_a_tiny_centre_keeps_it():
    # with RuntimeWarnings as errors (the suite's setting): the radial step
    # took the norm of W = grad phi(z) by its square, which underflows, so
    # from (1e-200, 1e-200) it returned (0, 0); a zero slope keeps the
    # centre, to a few units (in the subnormals, to a few units of 5e-324)
    p2 = get_problem("P2")
    for x in (1e-160, 1e-200, 1e-250, 1e-300, 1e-310, 5e-324):
        z = np.array([x, -x])
        step = prox_step(linear_model(np.zeros(2)), p2.regularizer, p2.phi, z, 0.5)
        assert step.method == "closed_form_affine"
        if x >= np.finfo(float).tiny:
            assert np.all(np.abs(step.minimizer - z) <= 1e-15 * x), x
        else:
            assert np.all(np.abs(step.minimizer - z) <= 4.0 * 5e-324), x
            assert np.array_equal(np.sign(step.minimizer), np.sign(z)), x


def test_monotone_power_roots_of_empty_zero_and_negative_targets():
    # the closed-form start returns at once when every entry passes, which
    # takes empty and all-zero targets as they are; entries <= 0 give 0
    for coefs, powers in (([3.5, 1.0], [2.0, 4.0]), ([1.0, 1.0], [2.0, 3.0]),
                          ([0.5], [2.0])):
        power = power_terms(coefs, powers)
        assert solve_monotone_power(power, np.zeros((0, 3))).shape == (0, 3)
        assert np.array_equal(solve_monotone_power(power, np.zeros((2, 3))), np.zeros((2, 3)))
        r = solve_monotone_power(power, np.array([-2.0, 0.0, -0.0, 3.0]))
        assert np.array_equal(r[:3], np.zeros(3)) and r[3] > 0.0
        assert solve_monotone_power(power, 3.0) == r[3]


def test_1d_bisection_brackets_far_minimizers():
    # several bracket-expansion rounds: halving toward 0 on a positive domain,
    # doubling steps on all of R, against the closed forms
    for phi, z, v in [(Burg(), 1.0, 20.0), (Euclidean(), 0.5, 300.0),
                      (Euclidean(), 0.5, -300.0)]:
        model = linear_model(np.array([v]))
        center = np.array([z])
        closed = prox_step(model, ZeroRegularizer(), phi, center, 1.0)
        assert closed.method == "closed_form_affine"
        res = inner_solve(model, ZeroRegularizer(), phi, center, 1.0)
        assert res.method == "bisection_1d"
        assert abs(res.minimizer[0] - closed.minimizer[0]) <= 1e-13 * abs(closed.minimizer[0])


def test_a_large_1d_batch_steps_each_point_as_its_own_batch():
    # P1's pieces, bisected as a plain (values, gradients) model over a
    # batch of 1100 prox points: each point gets the minimizer of its own
    # one-point batch on the pieces themselves
    prob = get_problem("P1")
    exact = prob.objective
    model = RowModel(exact.values, exact.gradients)
    rho = prob.oracle.constants.tau + prob.oracle.constants.rho
    z = np.linspace(-2.0, 2.0, 1100)
    args = prob.regularizer, prob.phi
    y = prox_points_1d(model, *args, z, 0.5 / rho, rho=rho)
    for i in (0, 511, 512, 1099):
        assert y[i] == prox_points_1d(exact, *args, z[i:i + 1], 0.5 / rho, rho=rho)[0]


def _lying_model():
    # value 0.5 y^2 + 10 on |y| < 0.5, but the subgradient of 0.5 y^2 alone
    return RowModel(lambda Y: 0.5 * Y[:, 0] ** 2 + 10.0 * (np.abs(Y[:, 0]) < 0.5),
                    lambda Y: Y)


def test_one_failing_element_fails_the_batch():
    phi, reg = Euclidean(), ZeroRegularizer()
    ok = prox_points_1d(_lying_model(), reg, phi, np.array([3.0, -2.0]), 1.0)
    assert np.allclose(ok, [1.5, -1.0], rtol=1e-15)
    # the step from 0.6 lands at 0.3, where the value jumps by 10
    with pytest.raises(InnerSolveError):
        prox_points_1d(_lying_model(), reg, phi, np.array([3.0, 0.6, -2.0]), 1.0)
    # an element whose bracket is still open at max_iter fails the batch too;
    # the center 0 is its own minimizer and needs no halving at all
    model = RowModel(lambda Y: 0.5 * Y[:, 0] ** 2, lambda Y: Y)
    Z = phi.state_rows(np.array([[0.0], [1e6]]))
    y, its = _solve_1d(model, reg, phi, Z, 1.0)
    assert y[0] == 0.0 and its[0] == 0 and its[1] > 10
    with pytest.raises(InnerSolveError):
        _solve_1d(model, reg, phi, Z, 1.0, max_iter=10)


def test_newton_raises_when_line_search_fails():
    z = np.array([0.5, -0.5])
    model = SmoothRows(lambda Y: np.where((Y == z).all(axis=-1), 0.0, np.inf), np.ones_like,
                       lambda Y: np.zeros(Y.shape + (2,)))
    with pytest.raises(InnerSolveError):
        prox_step(model, ZeroRegularizer(), Euclidean(), z, 0.5)
    # one such row fails a batch whose other rows converge: 0.5 |y|^2, but
    # infinite away from the center on the rows flagged bad
    def rows(Z, bad):
        def value(Y):
            off = bad & (Y != Z).any(axis=1)
            return np.where(off, np.inf, 0.5 * np.sum(Y * Y, axis=1))

        return SmoothRows(value, lambda Y: Y.copy(),
                          lambda Y: np.broadcast_to(np.eye(2), (len(Y), 2, 2)))

    Z = np.array([[1.0, 2.0], [0.5, -0.5], [-1.0, 0.3]])
    bad = np.array([False, True, False])
    reg = ZeroRegularizer()
    ok = prox_step_rows(rows(Z[~bad], bad[~bad]), reg, Euclidean(), Z[~bad], 0.5)
    assert np.allclose(ok.minimizer, Z[~bad] / 1.5, rtol=1e-14)
    with pytest.raises(InnerSolveError):
        prox_step_rows(rows(Z, bad), reg, Euclidean(), Z, 0.5)


def _exp_rows():
    return SmoothRows(lambda Y: np.sum(np.exp(Y), axis=1), np.exp,
                      lambda Y: np.exp(Y)[:, :, None] * np.eye(Y.shape[1]))


def _smooth(rows):
    # QuadraticRows as SmoothRows, which take the lockstep Newton
    return SmoothRows(rows.values, rows.gradients, rows.hessians)


def _exp_steps(Z, max_iter=None):
    # the steps of _exp_rows from the rows of Z, Euclidean phi and eta = 0.5;
    # with max_iter, the Newton solve alone under that iteration cap
    phi = Euclidean()
    if max_iter is None:
        return prox_step_rows(_exp_rows(), ZeroRegularizer(), phi, Z, 0.5)
    return _newton(_exp_rows(), phi, phi.state_rows(Z), 0.5, max_iter)


def test_newton_raises_when_iterations_run_out():
    z = np.array([2.0, -1.0])
    res = _exp_steps(z[None, :])
    assert res.method == "newton" and res.inner_iterations > 1
    with pytest.raises(InnerSolveError):
        _exp_steps(z[None, :], max_iter=1)
    # a batch takes as many iterations as its slowest row, and fails as a
    # whole when one row runs out
    Z = np.array([[2.0, -1.0], [0.1, 0.0]])
    its = [_exp_steps(Z[i:i + 1]).inner_iterations for i in range(2)]
    assert _exp_steps(Z).inner_iterations == max(its)
    with pytest.raises(InnerSolveError):
        _exp_steps(Z, max_iter=min(its) - 1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 8),
       log_eta=st.floats(-3.0, 2.0), lam_frac=st.floats(0.02, 0.98))
def test_newton_batch_equals_one_row_calls(seed, n_rows, log_eta, lam_frac):
    # P6's sampled quadratics (as smooth rows, which take the Newton under
    # the radial kernel too), and P2's exact quartic with the envelope's
    # weakly convex split (lam tau < 1), both on rows under their registry
    # kernels: every field of a row is its one-row call's
    rng = np.random.default_rng(seed)
    p6, p2 = get_problem("P6"), get_problem("P2")
    tau = p2.oracle.constants.tau
    Z = rng.uniform(-2.0, 2.0, (n_rows, 2))
    xi = rng.integers(0, p6.oracle.n_atoms, n_rows)
    cases = [(_smooth(p6.oracle.model_rows(Z, xi)), p6.phi, 10.0 ** log_eta, 0.0,
              lambda i: _smooth(p6.oracle.model_rows(Z[i:i + 1], xi[i:i + 1]))),
             (p2.objective, p2.phi, lam_frac / tau, tau, lambda i: p2.objective)]
    fields = ("minimizer", "three_point_residual", "objective_decrease",
              "divergence", "model_value", "r_value")
    reg = ZeroRegularizer()
    for rows, phi, eta, rho, one_row in cases:
        batch = prox_step_rows(rows, reg, phi, Z, eta, rho=rho)
        ones = [prox_step_rows(one_row(i), reg, phi, Z[i:i + 1], eta, rho=rho)
                for i in range(n_rows)]
        assert batch.method == "newton"
        assert batch.inner_iterations == max(o.inner_iterations for o in ones)
        for field in fields:
            assert np.array_equal(getattr(batch, field),
                                  np.concatenate([getattr(o, field) for o in ones])), field


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       n_rows=st.integers(1, 6), log_eta=st.floats(-3.0, 6.0))
def test_newton_solves_quadratic_prox_exactly(seed, d, n_rows, log_eta):
    # with the Euclidean kernel, the prox of 0.5 (y - c)' Q (y - c) from z is
    # the linear solve (Q + I/eta) y = Q c + z/eta
    rng = np.random.default_rng(seed)
    eta = 10.0 ** log_eta
    B = rng.uniform(-1.0, 1.0, (n_rows, d, d))
    Q = B @ np.swapaxes(B, 1, 2) + 0.1 * np.eye(d)
    C = rng.uniform(-3.0, 3.0, (n_rows, d))
    Z = rng.uniform(-3.0, 3.0, (n_rows, d))

    def grad(Y):
        return (Q @ (Y - C)[:, :, None])[:, :, 0]

    rows = SmoothRows(lambda Y: 0.5 * np.sum((Y - C) * grad(Y), axis=1), grad,
                      lambda Y: Q)
    rhs = (Q @ C[:, :, None])[:, :, 0] + Z / eta
    ref = np.linalg.solve(Q + np.eye(d) / eta, rhs[:, :, None])[:, :, 0]
    res = prox_step_rows(rows, ZeroRegularizer(), Euclidean(), Z, eta)
    assert res.method == "newton"
    assert np.abs(res.minimizer - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())


# the registry's P6 kernel, the Euclidean one, a one-term quartic and a
# three-term kernel (powers 2, 3 and 4)
_SECULAR_PHIS = {
    "p6": build_poly_legendre([0.25, 0.0, 0.25]),
    "euclidean": Euclidean(),
    "quartic": build_norm_power_legendre([0.0, 0.0, 1.0]),
    "three_terms": build_poly_legendre([0.25, 0.5, 0.25]),
}


def _random_quadratic_rows(rng, n_rows, d):
    B = rng.uniform(-1.0, 1.0, (n_rows, d, d))
    Q = B @ np.swapaxes(B, 1, 2) + 0.1 * np.eye(d)
    return QuadraticRows.of(Q, rng.uniform(-3.0, 3.0, (n_rows, d)),
                            rng.uniform(-1.0, 1.0, n_rows))


@settings(max_examples=200, deadline=None)
@given(phi_kind=st.sampled_from(sorted(_SECULAR_PHIS)), seed=st.integers(0, 2 ** 32 - 1),
       d=st.integers(1, 4), n_rows=st.integers(1, 6), log_eta=st.floats(-3.0, 6.0))
def test_secular_steps_solve_the_kkt_system(phi_kind, seed, d, n_rows, log_eta):
    # quadratic rows under a radial kernel take the secular equation; each
    # step solves eta Q (y - c) + grad phi(y) = grad phi(z) to rounding,
    # agrees with the lockstep Newton on the same rows, returns mirror
    # coordinates within secular_mirror_excess's bound of grad phi(y), and
    # each row of a batch is its one-row call bit for bit.  The last row has
    # c = z = 0, so b = 0: its minimizer is the origin, whose mirror
    # coordinates are exactly 0
    phi = _SECULAR_PHIS[phi_kind]
    rng = np.random.default_rng(seed)
    eta = 10.0 ** log_eta
    rows = _random_quadratic_rows(rng, n_rows + 1, d)
    rows.centers[-1] = 0.0
    Z = rng.uniform(-3.0, 3.0, (n_rows + 1, d))
    Z[-1] = 0.0
    res = prox_step_rows(rows, ZeroRegularizer(), phi, Z, eta)
    assert res.method == "secular"
    if phi_kind == "euclidean":
        assert res.inner_iterations == 1
    Y, M = res.minimizer, res.state.mirror
    assert (secular_mirror_excess(M, phi, Y) <= 0.0).all()
    assert not np.any(M[-1]) and not np.any(Y[-1])
    # the bound rejects a mirror scaled by 1 + 1e-10
    assert (secular_mirror_excess(M * (1.0 + 1e-10), phi, Y) > 0.0).any()
    gy, gz = phi.gradient_rows(Y), phi.gradient_rows(Z)
    kkt = norm_rows(eta * rows.gradients(Y) + gy - gz)
    # the size of the terms: eta Q y and eta Q c cancel near y = c
    scale = (eta * rows.eigvals[:, -1] * (norm_rows(Y) + norm_rows(rows.centers))
             + norm_rows(gy) + norm_rows(gz))
    assert np.all(kkt <= 1e-13 * (1.0 + scale))
    ref = prox_step_rows(_smooth(rows), ZeroRegularizer(), phi, Z, eta).minimizer
    assert np.all(norm_rows(Y - ref) <= 1e-6 * (1.0 + norm_rows(ref)))
    fields = ("minimizer", "three_point_residual", "objective_decrease",
              "divergence", "model_value", "r_value")
    ones = [prox_step_rows(QuadraticRows(*(f[i:i + 1] for f in rows)), ZeroRegularizer(),
                           phi, Z[i:i + 1], eta) for i in range(n_rows + 1)]
    assert res.inner_iterations == max(o.inner_iterations for o in ones)
    for field in fields:
        assert np.array_equal(getattr(res, field),
                              np.concatenate([getattr(o, field) for o in ones])), field
    assert np.array_equal(M, np.concatenate([o.state.mirror for o in ones]))


def _secular_solve(phi, rows, Z, eta, max_iter):
    # _secular as the step plan calls it (in its np.errstate), with a bound
    # on its Newton steps
    power = power_terms(*phi.radial_terms())
    with np.errstate(divide="ignore", invalid="ignore"):
        return _secular(power, _growth(power), *_secular_rows(rows, np.full(len(Z), eta)),
                        phi.state_rows(Z).mirror, max_iter=max_iter)


def test_secular_step_raises_when_unsolved():
    # the three-term kernel (powers 2, 3 and 4) is not affine in r^2, so its
    # Householder start is not exact and these rows take Newton steps after it
    rng = np.random.default_rng(5)
    rows = _random_quadratic_rows(rng, 3, 2)
    Z = rng.uniform(-3.0, 3.0, (3, 2))
    phi, reg = _SECULAR_PHIS["three_terms"], ZeroRegularizer()
    res = prox_step_rows(rows, reg, phi, Z, 0.5)
    assert res.inner_iterations >= 2
    assert _secular_solve(phi, rows, Z, 0.5, res.inner_iterations - 1)[2] == res.inner_iterations
    with pytest.raises(InnerSolveError, match="unsolved"):
        _secular_solve(phi, rows, Z, 0.5, res.inner_iterations - 2)
    # the Euclidean step needs no Newton step at all
    assert _secular_solve(Euclidean(), rows, Z, 0.5, 0)[2] == 1
    phi = _SECULAR_PHIS["p6"]
    Z[1, 0] = np.nan
    with pytest.raises(InnerSolveError, match="finite"):
        prox_step_rows(rows, reg, phi, Z, 0.5)


_ABS_PHIS = {"euclidean": Euclidean(), "poly": build_poly_legendre([0.25, 0.0, 0.25]),
             "entropy": ShannonEntropy(), "burg": Burg()}
_ABS_REGS = {"zero": ZeroRegularizer(), "ball": BallIndicator(1.0),
             "simplex": SimplexIndicator()}


@st.composite
def _abs_affine_data(draw):
    # (G, s, Z) of 1-5 rows in d = 2-4, Z's entries in [0.05, 1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    scale = draw(st.floats(0.1, 10.0))
    return (scale * rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-1.0, 1.0, n),
            rng.uniform(0.05, 1.0, (n, d)))


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from([("zero", p) for p in _ABS_PHIS]
                            + [("ball", "euclidean"), ("ball", "poly"),
                               ("simplex", "entropy")]),
       data=_abs_affine_data(), log_eta=st.floats(-2.0, 1.5))
# Burg: the affine step of the slope theta g exists only while
# 1/z + eta theta g > 0, which excludes theta = +1 in the first row and
# theta = -1 in the second, and both minimizers lie strictly between
@example(case=("zero", "burg"), log_eta=0.0,
         data=(np.array([[-3.0, 0.1], [3.0, -0.1]]), np.array([2.0, -2.0]),
               np.ones((2, 2))))
def test_abs_affine_steps_in_d_above_1_satisfy_their_kkt_conditions(case, data,
                                                                   log_eta):
    # argmin |<g, y> + s| + r(y) + D(y, z) / eta satisfies
    # grad phi(z) - grad phi(y) = eta theta g + n for one theta in [-1, 1] and
    # a normal n of r at y (0; c 1 on the simplex; t y, t >= 0, on the
    # sphere of the ball), with the level <g, y> + s = 0 when |theta| < 1 and
    # of the sign of theta when theta = +-1
    reg_kind, phi_kind = case
    reg, phi = _ABS_REGS[reg_kind], _ABS_PHIS[phi_kind]
    G, s, Z = data
    if reg_kind == "simplex":
        Z = Z / Z.sum(axis=1, keepdims=True)
    elif reg_kind == "ball":
        Z = Z - 0.5
    elif phi.domain == "all_space":
        Z = 4.0 * Z - 2.0
    eta = 10.0 ** log_eta
    res = prox_step_rows(AffineRows(G, s, True), reg, phi, Z, eta)
    assert res.method == "closed_form_abs_affine"
    Y = res.minimizer
    assert np.all(res.r_value == 0.0)
    gap = phi.gradient_rows(Z) - phi.gradient_rows(Y)
    level = (G * Y).sum(axis=1) + s
    for i in range(len(Y)):
        cols = [eta * G[i]]
        if reg_kind == "simplex":
            cols.append(np.ones(len(Y[i])))
        sphere = reg_kind == "ball" and np.linalg.norm(Y[i]) >= 1.0 - 1e-9
        if sphere:
            cols.append(Y[i])
        A = np.column_stack(cols)
        coef = np.linalg.lstsq(A, gap[i], rcond=None)[0]
        scale = 1.0 + np.abs(phi.gradient(Z[i])).max() + np.abs(phi.gradient(Y[i])).max()
        assert np.abs(A @ coef - gap[i]).max() <= 1e-9 * scale
        assert not sphere or coef[-1] >= -1e-9 * scale
        theta, tol = coef[0], 1e-9 * (1.0 + abs(s[i]) + np.abs(G[i] * Y[i]).sum())
        assert abs(theta) <= 1.0 + 1e-9
        if theta >= 1.0 - 1e-9:
            assert level[i] >= -tol
        elif theta <= -1.0 + 1e-9:
            assert level[i] <= tol
        else:
            assert abs(level[i]) <= tol


def _reference_residual(model, reg, phi, z, y, eta, rho):
    # the probe-set audit at the center, with the convexified split for rho > 0
    cert_phi = WeightedSum([phi], [1.0 - eta * rho]) if rho > 0 else phi

    def g_val(x):
        return eta * (_value(model, x) + reg.value(x) + rho * phi.bregman(x, z))

    return check_three_point(g_val, cert_phi, z, y, [z]).min_residual


def test_center_certificate_matches_the_probe_audit():
    composite = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    kink = RowModel(lambda Y: np.abs(Y[:, 0] ** 2 - 1.0),
                    lambda Y: np.sign(Y ** 2 - 1.0) * 2 * Y)
    smooth = _exp_rows()
    cases = [
        ("closed_form_affine", linear_model(np.array([0.7, -1.2])), composite,
         np.array([0.4, 0.9])),
        ("closed_form_abs_affine", absolute_affine_model(np.array([1.3, -0.4]), 0.2),
         composite, np.array([0.8, -0.3])),
        ("bisection_1d", kink, composite, np.array([1.6])),
        ("newton", smooth, build_poly_legendre([0.25, 0.0, 0.25]), np.array([0.5, -1.0])),
    ]
    eta = 0.4
    reg = ZeroRegularizer()
    for method, model, phi, z in cases:
        for rho in (0.0, 1.5):
            res = prox_step(model, reg, phi, z, eta, rho=rho)
            assert res.method == method
            ref = _reference_residual(model, reg, phi, z, res.minimizer, eta, rho)
            psi_z = _value(model, z) + reg.value(z)
            assert abs(res.three_point_residual - ref) <= 1e-12 * (1.0 + abs(psi_z))
            assert res.divergence == phi.bregman(res.minimizer, z)


class _LyingAffine(AffineRows):
    # affine (or |affine|) rows to the closed form, their negation to the
    # certificate
    __slots__ = ()

    def values(self, Y):
        return -super().values(Y)


def test_closed_form_with_a_lying_model_value_raises():
    # the declared structure picks the closed form; the values the
    # certificate evaluates disagree with it, so the step must not pass
    z = np.array([0.4, -0.3])
    v = np.array([0.9, 0.5])
    liar = _LyingAffine(v[None, :], np.zeros(1), False)
    with pytest.raises(InnerSolveError):
        prox_step(liar, ZeroRegularizer(), Euclidean(), z, 0.5)
    g, s = np.array([1.0, -2.0]), 0.3
    liar = _LyingAffine(g[None, :], np.array([s]), True)
    with pytest.raises(InnerSolveError):
        prox_step(liar, ZeroRegularizer(), Euclidean(), z, 0.5)


def test_a_large_entropic_step_passes_its_certificate_on_rounding():
    # a correct zero-r entropic step with y = 8.4e11 and D(y, z) = 3.1e13:
    # the residual sums terms of size 1e13, so rounding moves it by about
    # 1e-3 either way.  With divergences by the generic formula it reads
    # -3.9e-3, below the former scale tol (1 + |psi(z)|) = 1e-10, which
    # refused the step; the scale of the summed terms is 6.3e3
    phi, eta = ShannonEntropy(), 1e5
    z, v = np.array([3.907349154370918e-05]), np.array([-37.60102874298665 / eta])
    res = prox_step(linear_model(v), ZeroRegularizer(), phi, z, eta)
    y = res.minimizer
    assert np.log(y) == pytest.approx(np.log(z) - eta * v, rel=1e-15)
    assert res.divergence > 3e13
    Y, Z = y[None], z[None]
    psi_z, psi_y = Z @ v, Y @ v
    d_yz, d_zy = phi.bregman_rows(Y, Z), phi.bregman_rows(Z, Y)
    resid = center_certificate(psi_z, psi_y, d_yz, d_zy, eta, 0.0)
    assert resid[0] < -1e-10 * (1.0 + abs(psi_z[0]))
    # a step off the minimizer by a relative 1e-8 still fails: its residual
    # is -8.4e3
    Y = Y * (1.0 + 1e-8)
    with pytest.raises(InnerSolveError):
        center_certificate(psi_z, Y @ v, phi.bregman_rows(Y, Z), phi.bregman_rows(Z, Y),
                           eta, 0.0)


def test_offset_and_mutated_steps_fail_the_certificate():
    # criterion 2's negative control, P1's first step offset by +-0.1,
    # reads about -0.4 at the centre
    from bregopt.driver import SolverConfig, run_for_regime
    p1 = get_problem("P1")
    trace = run_for_regime(p1, SolverConfig(5, seed=3))
    model = p1.oracle.model_rows(trace.iterates[0], trace.sampled_xi_ids[0])
    eta, rho = float(trace.etas[0]), p1.oracle.constants.rho
    z = trace.iterates[0]
    for off in (0.1, -0.1):
        y = trace.iterates[1] + off
        with pytest.raises(InnerSolveError):
            center_certificate(model.values(z), model.values(y), p1.phi.bregman(y, z),
                               p1.phi.bregman(z, y), eta, rho)
    # a mutated P3 step: the simplex steps taken with step size
    # 0.5 (1 + 1e-6) and certified as steps of 0.5 read -1.1e-7, against a
    # scale of 2.4e-10
    prob = get_problem("P3")
    phi, reg = prob.phi, prob.regularizer
    Z = np.tile(prob.x0, (4, 1))
    rows = prob.oracle.model_rows(Z, np.arange(4))
    step = prox_step_rows(rows, reg, phi, Z, 0.5 * (1.0 + 1e-6))
    with pytest.raises(InnerSolveError):
        record_rows(rows.values, phi, phi.state_rows(Z, reg), step.state, 0.5)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the centre probe cannot see a mutated P4 step: the tilt's "
                          "strong convexity leaves a slack of about 0.011")
def test_a_mutated_p4_step_fails_the_certificate():
    # P4's four steps from x0 taken with step size 0.5 (1 + 1e-4) and
    # certified as steps of 0.5 read +0.0108 to +0.0130 at the centre, where
    # the same mutation of P3 reads -9.8e-6 against a scale of 2.4e-10.  A
    # bound per path would catch it; then this test passes and turns plain.
    prob = get_problem("P4")
    phi, reg = prob.phi, prob.regularizer
    Z = np.tile(prob.x0, (4, 1))
    rows = prob.oracle.model_rows(Z, np.arange(4))
    step = prox_step_rows(rows, reg, phi, Z, 0.5 * (1.0 + 1e-4))
    with pytest.raises(InnerSolveError):
        record_rows(rows.values, phi, phi.state_rows(Z, reg), step.state, 0.5)


@pytest.mark.xfail(strict=True, raises=InnerSolveError,
                   reason="the lockstep Newton stops on its half-decrement, not on the "
                          "residual its certificate bounds, so larger steps miss the bound")
def test_the_lockstep_newton_meets_its_certificate_at_large_steps():
    # P2's kernel on the path of P2's envelope (a smooth objective under a
    # radial kernel takes the lockstep Newton).  This valid convex step
    # passes at eta = 0.4 and 1 but fails its certificate at eta = 3
    # (residual -4.066e-09 < -3.003e-10) and at eta = 10 (-1.385e-09 <
    # -1.206e-09), as do 20 of 200 uniform draws of (z, v) at eta = 10.  A
    # stop on the KKT residual would let every step pass; then this test
    # passes and turns plain.
    phi = build_norm_power_legendre([1.0, 0.0, 1.0])
    z = np.array([0.45710733476396315, -0.7964693949905282])
    v = np.array([-0.3874534875045337, -0.027296288232877775])
    for eta in (0.4, 1.0, 3.0, 10.0):
        res = prox_step_rows(_linear_smooth_rows(v), ZeroRegularizer(), phi, z[None], eta)
        y = res.minimizer[0]
        # grad phi(y) = grad phi(z) - eta v at the minimizer
        assert np.abs(phi.gradient(y) - phi.gradient(z) + eta * v).max() <= 1e-8, eta


# (regularizer, phi) pairs with an affine closed form; the radial kernels are
# the registry's (P1, P2, P6) and one single-term kernel
_ROW_PHIS = {
    "euclidean": Euclidean(),
    "entropy": ShannonEntropy(on_simplex=True),
    "burg": Burg(),
    "composite": build_composite_legendre([1.0], [0.0, 0.0, 4.0]),
    "norm_power": build_norm_power_legendre([1.0, 0.0, 1.0]),
    "poly": build_poly_legendre([0.25, 0.0, 0.25]),
    "poly_single_term": build_poly_legendre([1.0]),
}
_ROW_REGS = {
    "zero": ZeroRegularizer(),
    "simplex": SimplexIndicator(),
    "entropy_like": EntropyLike(1.3),
    "ball": BallIndicator(1.0),
    "l1": L1Regularizer(0.3),
    "quadratic": QuadraticRegularizer(2.0),
}
_ROW_CASES = ([("zero", p) for p in _ROW_PHIS]
              + [("simplex", "entropy"), ("entropy_like", "entropy"),
                 ("ball", "euclidean"), ("ball", "composite"), ("ball", "poly"),
                 ("l1", "euclidean"), ("quadratic", "euclidean")])


def _outcome(fn):
    try:
        return fn()
    except (InnerSolveError, DomainError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_ROW_CASES), seed=st.integers(0, 2 ** 32 - 1),
       n_rows=st.integers(1, 6), log_eta=st.floats(-3.0, 6.0),
       slope_scale=st.floats(0.01, 100.0), absolute=st.booleans(),
       d=st.just(3), layout=st.just("random"))
# an entropic step that overflows: the batch raised InnerSolveError on a NaN
# divergence where one row's phi.bregman raised DomainError
@example(case=("zero", "entropy"), seed=2, n_rows=1, log_eta=3.0,
         slope_scale=1.0, absolute=False, d=3, layout="random")
# a step whose exp is finite but whose entropy y log y overflowed in the
# record of prox_step_rows and prox_step alike (log y = 703.8)
@example(case=("zero", "entropy"), seed=524287, n_rows=1, log_eta=1.16015625,
         slope_scale=53.0, absolute=False, d=3, layout="random")
# 40 entries at log y = 700: each y log y is a float, their sum overflowed
# (RuntimeWarnings, then "residual nan < -inf")
@example(case=("zero", "entropy"), seed=0, n_rows=1, log_eta=0.0,
         slope_scale=700.0 + np.log(40.0), absolute=False, d=40, layout="level")
# a centre entry at 1e-300 stepped to log y = 703: y log y is a float, the
# divergence's y (log y - log z) overflowed
@example(case=("zero", "entropy"), seed=0, n_rows=1, log_eta=0.0,
         slope_scale=703.0 - np.log(1e-300), absolute=False, d=3, layout="tiny")
def test_row_closed_forms_equal_one_row_calls(case, seed, n_rows, log_eta,
                                              slope_scale, absolute, d, layout):
    # huge eta drives entropy steps to the boundary and radial/ball steps far
    # out (clipped at the radius); both sides must then fail or agree alike.
    # The fixed layouts of the entropic examples: "level" puts every centre
    # entry at 1/d and every slope at -slope_scale, "tiny" the first centre
    # entry at 1e-300 with slope -slope_scale and the other slopes at 0
    reg_kind, phi_kind = case
    reg, phi = _ROW_REGS[reg_kind], _ROW_PHIS[phi_kind]
    rng = np.random.default_rng(seed)
    if phi.domain != "all_space":
        Z = rng.dirichlet(np.ones(d), n_rows)
    elif reg_kind == "ball":
        Z = rng.uniform(-0.5, 0.5, (n_rows, d))
    else:
        Z = rng.uniform(-2.0, 2.0, (n_rows, d))
    V = slope_scale * rng.uniform(-1.0, 1.0, (n_rows, d))
    if layout == "level":
        Z, V = np.full((n_rows, d), 1.0 / d), np.full((n_rows, d), -slope_scale)
    elif layout == "tiny":
        Z[:, 0], V[:, 0], V[:, 1:] = 1e-300, -slope_scale, 0.0
    offsets = rng.uniform(-1.0, 1.0, n_rows)
    eta = 10.0 ** log_eta
    rows = AffineRows(V, offsets, absolute)
    make = absolute_affine_model if absolute else linear_model

    batch = _outcome(lambda: solve_rows(rows, reg, phi, phi.state_rows(Z, reg), eta)[0])
    ones = [_outcome(lambda i=i: solve_rows(
                AffineRows(V[i:i + 1], offsets[i:i + 1], absolute), reg, phi,
                phi.state_rows(Z[i:i + 1], reg), eta)[0][0])
            for i in range(n_rows)]
    step = _outcome(lambda: prox_step_rows(rows, reg, phi, Z, eta))
    steps = [_outcome(lambda z=z, v=v, c=c: prox_step(make(v, c), reg, phi, z, eta))
             for z, v, c in zip(Z, V, offsets)]
    fields = ("minimizer", "three_point_residual", "objective_decrease",
              "divergence", "model_value", "r_value")
    if phi_kind == "poly_single_term":
        # both sides solve one-row or many-row batches, so the points agree
        # to the last bit; numpy evaluates r ** p over a one-term kernel with
        # another loop in the row layout than for one point, which can move
        # the last bit of phi, so the divergence and certificate fields (from
        # phi.bregman on prox_step's side) are not compared
        fields = ("minimizer",)
    if isinstance(batch, type):
        assert batch in {o for o in ones if isinstance(o, type)}
    else:
        assert not any(isinstance(o, type) for o in ones)
        assert np.array_equal(batch, np.array(ones))
    if isinstance(step, type):
        assert step in {o for o in steps if isinstance(o, type)}
        return
    assert not any(isinstance(o, type) for o in steps)
    assert step.method == ("closed_form_abs_affine" if absolute else "closed_form_affine")
    for field in fields:
        assert np.array_equal(getattr(step, field),
                              np.array([getattr(o, field) for o in steps])), field


def test_an_entropic_step_out_of_the_floats_raises_without_overflow():
    # the @example above: log z - eta v reaches 814 > log(float max) = 709.8
    # in one coordinate, where z * exp(-eta v) overflowed to inf
    rng = np.random.default_rng(2)
    Z = rng.dirichlet(np.ones(3), 1)
    V = rng.uniform(-1.0, 1.0, (1, 3))
    phi, reg, eta = _ROW_PHIS["entropy"], _ROW_REGS["zero"], 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InnerSolveError, match="float range"):
            prox_step_rows(AffineRows(V, np.zeros(1), False), reg, phi, Z, eta)
        with pytest.raises(InnerSolveError, match="float range"):
            prox_step(linear_model(V[0]), reg, phi, Z[0], eta)


def test_an_entropic_step_from_tiny_centres_stays_in_the_floats():
    # the @example data with the centres times 1e-200: log y = log z - eta v
    # is in range, where z * exp(-eta v) overflowed inside exp
    rng = np.random.default_rng(2)
    Z = rng.dirichlet(np.ones(3), 1) * 1e-200
    V = rng.uniform(-1.0, 1.0, (1, 3))
    eta = 1e3
    with np.errstate(over="raise"):
        phi = _ROW_PHIS["entropy"]
        Y = _affine_solver(_ROW_REGS["zero"], phi)(V, Z, phi.mirror_rows(Z), eta)[0]
    assert np.isfinite(Y).all()
    assert np.array_equal(Y, np.exp(np.log(Z) - eta * V))


def test_an_entropic_abs_affine_search_keeps_the_log_of_an_underflowed_entry():
    # the slope search stops at theta = 0.9, where y_1 = 1e-300 e^-90
    # underflows to 0.0; the step keeps log y_1 = log(1e-300) - 90 from its
    # last affine solve, so its divergences stay finite and it certifies
    G = np.array([[100.0, -1.0, 0.0]])
    Z = np.array([[1e-300, 0.5, 0.5]])
    s = np.array([0.5 * np.exp(0.9)])
    res = prox_step_rows(AffineRows(G, s, True), ZeroRegularizer(), ShannonEntropy(),
                         Z, 1.0)
    assert res.method == "closed_form_abs_affine"
    assert res.minimizer[0, 0] == 0.0
    assert res.state.mirror[0, 0] == pytest.approx(np.log(1e-300) - 90.0, rel=1e-12)
    assert np.isfinite(res.divergence).all() and res.three_point_residual[0] >= 0.0


def _step_by_step(V, reg, phi, Z, etas):
    # the (K + 1, S, d) points and logs of K prox_step_rows calls, each from
    # the state the step before returned
    state, X, L = phi.state_rows(Z, reg), [Z], [np.log(Z)]
    for v, eta in zip(V, etas):
        state = prox_step_rows(AffineRows(v, np.zeros(len(v)), False), reg, phi,
                               state, float(eta)).state
        X.append(state.points)
        L.append(state.mirror)
    return np.array(X), np.array(L)


def _boundary_centres(rng, S, d):
    # rows on the simplex with entries down to 1e-300
    Z = rng.dirichlet(np.ones(d), S)
    Z[1:, :3] = [1e-300, 1e-200, 1e-30]
    return Z / Z.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("K", [3, 16])
@pytest.mark.parametrize("reg_kind, mu", [("simplex", 0.0), ("tilt", 1.0), ("tilt", 1e3)])
@pytest.mark.parametrize("alpha", [1.0, 100.0, 1000.0])
def test_scanned_entropic_steps_match_step_by_step_steps(K, reg_kind, mu, alpha):
    # one scan of K steps from centres near the simplex boundary against K
    # prox_step_rows calls, with step sizes alpha / sqrt(k + 1) (eta mu up
    # to 1e6): the logs within util_problems.scan_tolerance (written before
    # the test first ran), the points their exp bit for bit.  The chunk's
    # record in one record_rows pass, as the loop takes it, is bit for bit
    # the step-by-step record of the scan's own iterates, and certifies
    from bregopt.legendre import RowState
    from bregopt.subproblem import _affine_scan
    from util_problems import scan_tolerance
    rng = np.random.default_rng(int(alpha) + K)
    S, d = 4, 10
    phi = ShannonEntropy(on_simplex=True)
    reg = SimplexIndicator() if reg_kind == "simplex" else EntropyLike(mu)
    Z = _boundary_centres(rng, S, d)
    V = rng.normal(0.0, 1.0, (K, S, d))
    etas = alpha / np.sqrt(np.arange(K) + 1.0)
    Z0 = phi.state_rows(Z, reg)
    Y, L = _affine_scan(reg, phi)(V, Z0, etas)
    X_ref, L_ref = _step_by_step(V, reg, phi, Z, etas)
    tol = scan_tolerance(L_ref, etas, V, mu)
    assert (np.abs(L - L_ref[1:]) <= tol[..., None]).all()
    assert np.array_equal(Y, np.exp(L))

    rows = AffineRows(V.reshape(-1, d), np.zeros(K * S), False)
    states = phi.state_at(np.concatenate((Z[None], Y)).reshape(-1, d),
                          np.concatenate((Z0.mirror[None], L)).reshape(-1, d), reg)
    n = K * S
    together = record_rows(rows.values, phi, states.take(slice(None, n)),
                           states.take(slice(S, None)), np.repeat(etas, S))
    centre = Z0
    for k in range(K):
        step = RowState(Y[k], L[k], None, None)
        Zk, Yk = centre, phi.state_at(step.points, step.mirror, reg)
        alone = record_rows(AffineRows(V[k], np.zeros(S), False).values, phi,
                            phi.state_at(Zk.points, Zk.mirror, reg), Yk, float(etas[k]))
        for a, b in zip(together, alone):
            assert np.array_equal(a[k * S:(k + 1) * S], b), k
        centre = step


@pytest.mark.parametrize("eta_mu", [1e30, 1e200])
def test_a_scan_whose_cumulative_factors_leave_the_floats_is_split(eta_mu):
    # under the tilt (mu = 1) the factors prod (1 + eta mu) of 16 steps
    # overflow, so the scan splits its chunk until they are floats (one step
    # at eta mu = 1e200, which is _affine_solver's step bit for bit): no
    # overflow warning, and the steps match the step-by-step ones
    from bregopt.subproblem import _affine_scan
    from util_problems import scan_tolerance
    rng = np.random.default_rng(7)
    K, S, d = 16, 3, 10
    phi, reg = ShannonEntropy(on_simplex=True), EntropyLike(1.0)
    Z = _boundary_centres(rng, S, d)
    V = rng.normal(0.0, 1.0, (K, S, d))
    etas = np.full(K, eta_mu)
    Y, L = _affine_scan(reg, phi)(V, phi.state_rows(Z, reg), etas)
    X_ref, L_ref = _step_by_step(V, reg, phi, Z, etas)
    if eta_mu == 1e200:
        assert np.array_equal(L, L_ref[1:]) and np.array_equal(Y, X_ref[1:])
    tol = scan_tolerance(L_ref, etas, V, 1.0)
    assert (np.abs(L - L_ref[1:]) <= tol[..., None]).all()


def test_a_scanned_step_below_the_eta_floor_keeps_its_centre():
    # as the plan's degenerate_eta: the steps with eta < ETA_FLOOR (the last
    # of a nonincreasing schedule) leave the point and log y of their centre
    # as they are, and a chunk of such steps returns its first centre's
    from bregopt.subproblem import ETA_FLOOR, _affine_scan
    rng = np.random.default_rng(8)
    S, d = 3, 10
    phi = ShannonEntropy(on_simplex=True)
    for reg in (SimplexIndicator(), EntropyLike(1.0)):
        scan = _affine_scan(reg, phi)
        Z0 = phi.state_rows(_boundary_centres(rng, S, d), reg)
        V = rng.normal(0.0, 1.0, (16, S, d))
        etas = np.concatenate((np.full(9, 0.5), np.full(7, 0.1 * ETA_FLOOR)))
        Y, L = scan(V, Z0, etas)
        assert np.array_equal(Y[:9], np.exp(L[:9]))
        assert np.array_equal(Y[9:], np.broadcast_to(Y[8], Y[9:].shape))
        assert np.array_equal(L[9:], np.broadcast_to(L[8], L[9:].shape))
        Y, L = scan(V[:4], Z0, np.full(4, 0.1 * ETA_FLOOR))
        assert np.array_equal(Y, np.broadcast_to(Z0.points, Y.shape))
        assert np.array_equal(L, np.broadcast_to(Z0.mirror, L.shape))


def test_only_the_entropy_under_the_simplex_or_its_tilt_scans():
    from bregopt.subproblem import _affine_scan
    entropy = ShannonEntropy(on_simplex=True)
    assert _affine_scan(SimplexIndicator(), entropy) is not None
    assert _affine_scan(EntropyLike(1.0), entropy) is not None
    for reg, phi in ((ZeroRegularizer(), entropy), (SimplexIndicator(), Euclidean()),
                     (EntropyLike(1.0), Burg()), (BallIndicator(1.0), Euclidean())):
        assert _affine_scan(reg, phi) is None


def _abs_quadratic_model(a, b, w):
    # sum_i w_i |a_i^2 y^2 - b_i| by its atoms, as values and a subgradient
    # selection over (N, 1) arrays: the bisection's reference for its pieces
    a2 = a * a

    def values(Y):
        return np.abs(a2 * Y ** 2 - b) @ w

    def gradients(Y):
        return ((np.sign(a2 * Y ** 2 - b) * 2.0 * a2 * Y) @ w)[:, None]

    return RowModel(values, gradients)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8),
       lam_unit=st.floats(0.0, 1.0),
       kernel=st.sampled_from([None, ([0.5], [2.0]), ([1.0, 1.0], [2.0, 3.0]),
                               ([1.0, 0.5], [2.0, 6.0])]))
@example(seed=0, m=8, lam_unit=1.0, kernel=None)
def test_abs_quadratic_steps_match_bisection(seed, m, lam_unit, kernel):
    # atoms with a = 0 (a constant), b <= 0 (no kink) and duplicate kinks
    # (a repeated atom, and one with -a); centres on the kinks, within 1e-12
    # of them, and at random; lam from 1e-3 up to 0.999 / tau, with P1's
    # kernel (None) and weak-convexity modulus tau = (4/3) sum w a^2, or a
    # radial kernel c_2 y^2 + ... of other powers and
    # tau = 2 sum w a^2 / A(0) (f'' >= -2 sum w a^2, phi'' >= A(0) = 2 c_2),
    # under which every piece has 2 lam C_j + A(0) > 0
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], m) * rng.uniform(0.3, 2.0, m)
    b = rng.uniform(-0.5, 2.0, m)
    w = rng.uniform(0.1, 1.0, m)
    a[rng.uniform(size=m) < 0.2] = 0.0
    b[rng.uniform(size=m) < 0.1] = 0.0
    if m > 2:
        a[1], b[1] = -a[0], b[0]
        a[2], b[2] = a[0], b[0]
    model, rows = _abs_quadratic_model(a, b, w), abs_quadratic_rows(a, b, w)
    kinks = np.sqrt(b[(b > 0) & (a != 0)]) / np.abs(a[(b > 0) & (a != 0)])
    assert np.array_equal(rows.kinks, np.unique(np.concatenate([kinks, -kinks])))
    reg = ZeroRegularizer()
    if kernel is None:
        phi, tau = build_composite_legendre([1.0], [0.0, 0.0, 4.0]), 4.0 / 3.0 * float(w @ (a * a))
    else:
        phi, tau = RadialPowerSum(*kernel), float(w @ (a * a)) / kernel[0][0]
    top = np.log10(0.999 / tau) if tau > 0 else 3.0
    lam = 10.0 ** (-3.0 + lam_unit * (top + 3.0))
    K = rows.kinks
    near = 1e-12 * np.maximum(1.0, np.abs(K))
    z = np.concatenate([K, K + near, K - near, rng.uniform(-3.0, 3.0, 6), [0.0]])
    Z = z[:, None]

    scale = float(w @ (a * a)) * z * z + float(w @ np.abs(b))
    assert np.all(np.abs(rows.values(Z) - model.values(Z)) <= 1e-14 * (1 + scale))
    res = prox_step_rows(rows, reg, phi, Z, lam, rho=tau)
    assert res.method == "closed_form_abs_quadratic"
    y = res.minimizer[:, 0]
    ref = prox_points_1d(model, reg, phi, z, lam, rho=tau)
    assert np.all(np.abs(y - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    for i in range(z.size):
        one = prox_step_rows(rows, reg, phi, Z[i:i + 1], lam, rho=tau)
        assert np.array_equal(one.minimizer[0], res.minimizer[i])


def test_abs_quadratic_rows_decline_a_nonconvex_piece():
    # |y^2 - 1| under phi = 0.05 y^2 + y^4 at eta = 0.1 leaves
    # 2 c2 + 2 eta C_j = 0.1 - 0.2 < 0 on the piece |y| < 1: the form
    # declines, and prox_step_rows and prox_step bisect its pieces bit for
    # bit as prox_points_1d does, to within 1e-15 (1 + |y|) of the bisection
    # on the atoms; at eta = 0.01 the same kernel closes in form, within
    # 1e-13 (1 + |y|) of it
    a = b = w = np.array([1.0])
    model, rows = _abs_quadratic_model(a, b, w), abs_quadratic_rows(a, b, w)
    assert np.array_equal(rows.kinks, [-1.0, 1.0])
    assert np.array_equal(rows.curvatures, [1.0, -1.0, 1.0])
    phi, reg = RadialPowerSum([0.05, 1.0], [2.0, 4.0]), ZeroRegularizer()
    Z = np.array([[1.5], [2.0], [-1.8]])
    res = prox_step_rows(rows, reg, phi, Z, 0.1)
    ref = prox_points_1d(model, reg, phi, Z[:, 0], 0.1)
    own = prox_points_1d(rows, reg, phi, Z[:, 0], 0.1)
    assert res.method == "bisection_1d" and np.array_equal(res.minimizer[:, 0], own)
    for z, y, y_own in zip(Z, ref, own):
        step = prox_step(rows, reg, phi, z, 0.1)
        assert step.method == "bisection_1d"
        assert step.minimizer[0] == y_own
        assert abs(y_own - y) <= 1e-15 * (1.0 + abs(y))
    res = prox_step_rows(rows, reg, phi, Z, 0.01)
    assert res.method == "closed_form_abs_quadratic"
    ref = prox_points_1d(model, reg, phi, Z[:, 0], 0.01)
    assert np.all(np.abs(res.minimizer[:, 0] - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    # the Euclidean kernel closes at eta = 0.1 (2 eta C_j + A(0) >= 0.8 on
    # every piece), within the same bound
    res = prox_step_rows(rows, reg, Euclidean(), Z, 0.1)
    assert res.method == "closed_form_abs_quadratic"
    ref = prox_points_1d(model, reg, Euclidean(), Z[:, 0], 0.1)
    assert np.all(np.abs(res.minimizer[:, 0] - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    # the pure quartic has A(0) = 0, so the piece |y| < 1 (C = -1) declines
    quartic = RadialPowerSum([1.0], [4.0])
    res = prox_step_rows(rows, reg, quartic, Z, 0.1)
    assert res.method == "bisection_1d"
    assert np.array_equal(res.minimizer[:, 0], prox_points_1d(rows, reg, quartic, Z[:, 0], 0.1))


class _LyingZero(ZeroRegularizer):
    # zero to the closed form, but its value jumps by 10 near x_0 = 0.3
    def value_rows(self, X):
        return np.where(np.abs(X[:, 0] - 0.3) < 0.05, 10.0, 0.0)


def test_one_bad_row_fails_the_batched_step():
    phi, reg = Euclidean(), _LyingZero()
    V = np.array([[1.0, 0.0], [0.6, 0.0], [-1.0, 0.0]])
    Z = np.array([[3.0, 1.0], [0.9, 0.0], [-2.0, 0.5]])
    good = [0, 2]
    ok = prox_step_rows(AffineRows(V[good], np.zeros(2), False), reg, phi, Z[good], 1.0)
    assert np.array_equal(ok.minimizer, Z[good] - V[good])
    # the step from (0.9, 0) lands at (0.3, 0), where r jumps by 10
    with pytest.raises(InnerSolveError):
        prox_step_rows(AffineRows(V, np.zeros(3), False), reg, phi, Z, 1.0)
    # the same for |affine| rows: |<v, y> + 10| keeps the level positive on
    # these steps, so each row stops at theta = +1 with the affine step
    ok = prox_step_rows(AffineRows(V[good], np.full(2, 10.0), True), reg, phi,
                        Z[good], 1.0)
    assert ok.method == "closed_form_abs_affine"
    assert np.array_equal(ok.minimizer, Z[good] - V[good])
    with pytest.raises(InnerSolveError):
        prox_step_rows(AffineRows(V, np.full(3, 10.0), True), reg, phi, Z, 1.0)
    # an infeasible center fails the batch before any step
    for absolute in (False, True):
        with pytest.raises(DomainError):
            prox_step_rows(AffineRows(V, np.zeros(3), absolute), BallIndicator(1.0),
                           phi, Z, 1.0)


def test_a_singular_newton_row_takes_the_negative_gradient():
    # one singular Hessian in the stack: that row's direction is -g, and
    # every other row is its own one-row solve
    H = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 4.0]], [[3.0, 0.0], [0.0, 0.5]]])
    G = np.array([[1.0, -2.0], [0.3, 0.7], [-1.5, 0.25]])
    P = _newton_directions(H, G)
    assert np.array_equal(P[1], -G[1])
    for i in (0, 2):
        assert np.array_equal(P[i], np.linalg.solve(H[i:i + 1], -G[i:i + 1, :, None])[0, :, 0])


def test_inner_solve_refuses_a_center_of_more_than_one_coordinate():
    with pytest.raises(InnerSolveError, match="1-d subproblems only, not d = 2"):
        inner_solve(linear_model(np.array([0.5, -1.0])), ZeroRegularizer(), Euclidean(),
                    np.array([1.0, 2.0]), 0.5)


def test_three_point_check_needs_a_feasible_probe():
    # probes where g is infinite are skipped; none left, or none given, is an error
    def g(x):
        return 0.0 if x[0] <= 0.0 else np.inf

    z = np.array([0.0])
    for probes in ([np.array([1.0]), np.array([2.0])], []):
        with pytest.raises(ValueError, match="no feasible probe points supplied"):
            check_three_point(g, Euclidean(), z, z, probes)


@pytest.mark.parametrize("reg", [L1Regularizer(0.7), QuadraticRegularizer(0.7)],
                         ids=["l1", "quadratic"])
def test_1d_quadratic_rows_under_a_regularizer_bisect_to_the_closed_form(reg):
    # a 1-d quadratic model under a nonzero r has no closed-form path, so
    # the plan's last path, the bisection, takes it; under phi = y^2 / 2 the
    # model (a/2) (y - c)^2 has the closed forms sign(B) max(|B| - w, 0) / A
    # (l1) and B / (A + w) (quadratic), A = a + 1/eta, B = a c + z/eta
    a, c, eta, w = 1.3, 0.4, 0.6, reg.weight
    Z = np.linspace(-3.0, 3.0, 50)[:, None]
    res = prox_step_rows(QuadraticRows.of([[a]], [c], 0.0), reg, Euclidean(), Z, eta)
    assert res.method == "bisection_1d"
    A, B = a + 1.0 / eta, a * c + Z[:, 0] / eta
    if isinstance(reg, L1Regularizer):
        y = np.sign(B) * np.maximum(np.abs(B) - w, 0.0) / A
        assert (y == 0.0).any() and (y != 0.0).any()
    else:
        y = B / (A + w)
    assert (np.abs(res.minimizer[:, 0] - y) <= 1e-13 * (1.0 + np.abs(y))).all()
