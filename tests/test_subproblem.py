import numpy as np
import pytest

from bregopt.legendre import (Burg, Euclidean, ShannonEntropy,
                              build_composite_legendre, build_poly_legendre)
from bregopt.subproblem import (BallIndicator, CompositeObjective, EntropyLike,
                                InnerSolveError, L1Regularizer, PointModel,
                                QuadraticRegularizer, SimplexIndicator,
                                ZeroRegularizer, absolute_affine_model,
                                check_three_point, inner_solve, linear_model,
                                prox_points_1d, prox_step, prox_step_radial,
                                solve_monotone_power, _solve_1d, _solve_newton)


def scaled_g(model, reg, eta):
    return lambda x: eta * (model.value(x) + reg.value(x))


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
    assert abs(solve_monotone_power(coefs, powers, 13.0) - 1.0) <= 1e-12
    # consistency with the generic dispatch on a pure quadratic kernel
    phi2 = build_poly_legendre([1.0])
    z = np.array([0.4, -1.1])
    v = np.array([2.0, 1.0])
    a = prox_step(linear_model(v), ZeroRegularizer(), phi2, z, 0.25).minimizer
    b = prox_step_radial(v, ZeroRegularizer(), phi2, z, 0.25).minimizer
    assert np.allclose(a, b, atol=1e-12)
    # v = 0 keeps the center fixed
    fix = prox_step_radial(np.zeros(2), ZeroRegularizer(), phi2, z, 0.25).minimizer
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
        root = solve_monotone_power(coefs, powers, target)
        val = float(np.sum(coefs * powers * root ** (powers - 1)))
        assert abs(val - target) <= 1e-10 * (1.0 + target)


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


def test_closed_form_agrees_with_iterative_solver():
    # wherever a closed form is registered the certified iterative path must
    # land on the same point, measured by the divergence between the two
    rng = np.random.default_rng(4)
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
    ]:
        for _ in range(5):
            if phi.domain != "all_space":
                z = rng.dirichlet(np.full(d, 3.0))
            elif reg.kind == "indicator_ball":
                z = rng.uniform(-0.5, 0.5, d)
            else:
                z = rng.uniform(-1.5, 1.5, d)
            v = rng.uniform(-1.0, 1.0, d)
            cases.append((phi, reg, z, v))
    for phi, reg, z, v in cases:
        model = linear_model(v)
        closed = prox_step(model, reg, phi, z, 0.4)
        assert "closed_form" in closed.method
        iterative = inner_solve(CompositeObjective(model, reg), phi, z, 0.4,
                                tol=1e-9)
        gap = phi.bregman(closed.minimizer, np.maximum(iterative.minimizer, 1e-300)
                          if phi.domain != "all_space" else iterative.minimizer)
        assert gap <= 1e-8


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
    model = PointModel(lambda y: float(np.exp(y[0])),
                       lambda y: np.array([np.exp(y[0])]), smooth=True)
    z = np.array([0.8])
    eta = 0.7
    res = inner_solve(CompositeObjective(model, ZeroRegularizer()),
                      Euclidean(), z, eta)

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
    model = PointModel(lambda y: abs(y[0] ** 2 - 1.0),
                       lambda y: np.array([np.sign(y[0] ** 2 - 1.0) * 2 * y[0]]))
    phi = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    z = np.array([1.6])
    eta = 0.4
    res = inner_solve(CompositeObjective(model, ZeroRegularizer()), phi, z, eta)

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
    res = inner_solve(CompositeObjective(linear_model(v), reg), phi, z, eta,
                      tol=1e-8)
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
    model = linear_model(np.zeros(2))
    res = inner_solve(CompositeObjective(model, ZeroRegularizer()), Euclidean(),
                      np.array([0.3, -0.2]), 0.5)
    assert np.allclose(res.minimizer, [0.3, -0.2], atol=1e-12)


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
    model = PointModel(lambda y: float(v @ y) + 0.5 * np.linalg.norm(y),
                       lambda y: v + 0.5 * y / max(np.linalg.norm(y), 1e-300),
                       norm_term=(v, 0.5))
    z = np.array([1.0, 0.5])
    eta = 0.8
    res = prox_step(model, ZeroRegularizer(), Euclidean(), z, eta)
    u = z - eta * v
    expected = (max(np.linalg.norm(u) - eta * 0.5, 0.0) / np.linalg.norm(u)) * u
    assert np.allclose(res.minimizer, expected, atol=1e-12)
    assert res.three_point_residual >= -1e-10


def test_1d_abs_affine_step_matches_bisection():
    # |g y + s| in one dimension takes the slope-search closed form, as in
    # every other dimension; the certified bisection is the reference
    phi = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
    reg = ZeroRegularizer()
    for g, s, z, eta in [(2.1, -1.3, 1.7, 0.3), (-0.8, 0.2, -0.4, 0.05),
                         (3.0, -3.0, 1.0 + 1e-3, 0.2), (0.5, 4.0, 0.9, 0.4)]:
        model = absolute_affine_model(np.array([g]), s)
        center = np.array([z])
        res = prox_step(model, reg, phi, center, eta)
        assert res.method == "closed_form_abs_affine"
        ref = inner_solve(CompositeObjective(model, reg), phi, center, eta)
        assert ref.method == "bisection_1d"
        assert abs(res.minimizer[0] - ref.minimizer[0]) <= 1e-12 * (1.0 + abs(ref.minimizer[0]))


def test_1d_bisection_brackets_far_minimizers():
    # several bracket-expansion rounds: halving toward 0 on a positive domain,
    # doubling steps on all of R, against the closed forms
    for phi, z, v in [(Burg(), 1.0, 20.0), (Euclidean(), 0.5, 300.0),
                      (Euclidean(), 0.5, -300.0)]:
        model = linear_model(np.array([v]))
        center = np.array([z])
        closed = prox_step(model, ZeroRegularizer(), phi, center, 1.0)
        assert closed.method == "closed_form_affine"
        res = inner_solve(CompositeObjective(model, ZeroRegularizer()), phi,
                          center, 1.0)
        assert res.method == "bisection_1d"
        assert abs(res.minimizer[0] - closed.minimizer[0]) <= 1e-13 * abs(closed.minimizer[0])


def _lying_model():
    # value 0.5 y^2 + 10 on |y| < 0.5, but the subgradient of 0.5 y^2 alone
    return PointModel(lambda y: 0.5 * y * y + 10.0 * (np.abs(y) < 0.5),
                      lambda y: y)


def test_one_failing_element_fails_the_batch():
    phi, reg = Euclidean(), ZeroRegularizer()
    ok = prox_points_1d(_lying_model(), reg, phi, np.array([3.0, -2.0]), 1.0)
    assert np.allclose(ok, [1.5, -1.0], rtol=1e-15)
    # the step from 0.6 lands at 0.3, where the value jumps by 10
    with pytest.raises(InnerSolveError):
        prox_points_1d(_lying_model(), reg, phi, np.array([3.0, 0.6, -2.0]), 1.0)
    # an element whose bracket is still open at max_iter fails the batch too;
    # the center 0 is its own minimizer and needs no halving at all
    model = PointModel(lambda y: 0.5 * y * y, lambda y: y)
    y, its = _solve_1d(model, reg, phi, np.array([0.0, 1e6]), 1.0)
    assert y[0] == 0.0 and its[0] == 0 and its[1] > 10
    with pytest.raises(InnerSolveError):
        _solve_1d(model, reg, phi, np.array([0.0, 1e6]), 1.0, max_iter=10)


def test_newton_raises_when_line_search_fails():
    z = np.array([0.5, -0.5])
    model = PointModel(lambda y: 0.0 if np.array_equal(y, z) else np.inf,
                       lambda y: np.ones(2), smooth=True,
                       hessian_fn=lambda y: np.zeros((2, 2)))
    with pytest.raises(InnerSolveError):
        inner_solve(CompositeObjective(model, ZeroRegularizer()), Euclidean(), z, 0.5)


def test_newton_raises_when_iterations_run_out():
    model = PointModel(lambda y: float(np.sum(np.exp(y))), np.exp, smooth=True,
                       hessian_fn=lambda y: np.diag(np.exp(y)))
    z = np.array([2.0, -1.0])
    y, its = _solve_newton(model, ZeroRegularizer(), Euclidean(), z, 0.5, 1e-10)
    assert its > 1
    with pytest.raises(InnerSolveError):
        _solve_newton(model, ZeroRegularizer(), Euclidean(), z, 0.5, 1e-10, max_iter=1)
