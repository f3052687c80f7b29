import numpy as np
import pytest

from bregopt.legendre import (Burg, DiagonalLegendre, DomainError, Euclidean,
                              LegendreFunction, RadialPowerSum, ShannonEntropy,
                              SingularHessianError, WeightedSum,
                              build_composite_legendre,
                              build_norm_power_legendre, build_poly_legendre,
                              dot_rows, finite_difference_step,
                              gradient_by_differences, legendre_from_config,
                              primal_norm)


def zoo():
    return [
        ("euclidean", Euclidean(), 2),
        ("entropy", ShannonEntropy(), 3),
        ("burg", Burg(), 3),
        ("poly_const", build_poly_legendre([1.0]), 2),
        ("poly_quadratic", build_poly_legendre([0.0, 0.0, 1.0]), 2),
        ("norm_power", build_norm_power_legendre([0.5, 1.0, 2.0]), 3),
        ("composite", build_composite_legendre([1.0, 0.5], [0.0, 0.0, 4.0]), 2),
        ("mix_entropy_euclidean", WeightedSum([ShannonEntropy(), Euclidean()], [1, 2]), 3),
        ("mix_burg_entropy", WeightedSum([Burg(), ShannonEntropy()], [0.5, 1]), 3),
    ]


def interior_point(rng, phi, d):
    x = rng.uniform(-3.0, 3.0, d)
    if phi.domain != "all_space":
        x = rng.uniform(0.2, 3.0, d)
    return x


# ----------------------------------------------------------------------------
# frozen example values
# ----------------------------------------------------------------------------

def test_value_examples():
    assert Euclidean().value([3.0, 4.0]) == 12.5
    assert build_poly_legendre([1.0]).value([1.0, 0.0]) == 3.5
    assert ShannonEntropy().value([1.0, 1.0]) == 0.0
    # +inf outside the domain, no exception
    assert ShannonEntropy().value([-1.0, 1.0]) == np.inf
    assert Burg().value([0.0, 1.0]) == np.inf


def test_gradient_examples():
    assert np.allclose(Euclidean().gradient([3.0, 4.0]), [3.0, 4.0])
    g = ShannonEntropy().gradient([np.e, np.e])
    assert np.allclose(g, [2.0, 2.0], atol=1e-12)
    # 13/4 ||x||^4 has gradient 13 ||x||^2 x
    g = build_poly_legendre([0.0, 0.0, 1.0]).gradient([1.0, 0.0])
    assert np.allclose(g, [13.0, 0.0], atol=1e-12)
    with pytest.raises(DomainError):
        ShannonEntropy().gradient([0.0, 1.0])


def test_bregman_examples():
    assert Euclidean().bregman([3.0, 4.0], [0.0, 0.0]) == 12.5
    for _, phi, d in zoo():
        x = np.full(d, 0.7)
        assert abs(phi.bregman(x, x)) <= 1e-14
    phi = build_poly_legendre([0.0, 0.0, 1.0])
    assert abs(phi.bregman([1.0, 0.0], [0.0, 0.0]) - 3.25) <= 1e-14


def test_poly_builder_coefficients():
    # p = 1 gives (7/2)||x||^2
    assert build_poly_legendre([1.0]).value([2.0]) == 3.5 * 4.0
    # p(u) = u^2 gives (13/4)||x||^4
    assert build_poly_legendre([0.0, 0.0, 1.0]).value([1.0, 0.0]) == 3.25
    # p(u) = 1 + u gives (7/2)||x||^2 + (10/3)||x||^3
    v = build_poly_legendre([1.0, 1.0]).value([2.0])
    assert abs(v - (3.5 * 4.0 + 10.0 / 3.0 * 8.0)) <= 1e-12
    with pytest.raises(ValueError):
        build_poly_legendre([1.0, -0.1])
    with pytest.raises(ValueError):
        build_poly_legendre([0.0, 0.0])


def test_composite_builder():
    phi = build_composite_legendre([1.0], [1.0])
    assert phi.kind == "weighted_sum"
    # (7/2 + 1/2)||x||^2
    assert phi.value([1.0, 0.0]) == 4.0
    # all-zero accuracy side leaves only b_2/(2+2) ||x||^4
    phi = build_composite_legendre([0.0], [0.0, 0.0, 1.0])
    assert phi.value([1.0, 0.0]) == 0.25
    phi = build_composite_legendre([0.0, 1.0], [0.0])
    assert abs(phi.value([1.0, 0.0]) - 10.0 / 3.0) <= 1e-14
    with pytest.raises(ValueError):
        build_composite_legendre([0.0], [0.0])


def test_hessian_examples():
    v = np.array([0.3, -0.7])
    assert np.array_equal(Euclidean().hessian_apply([1.0, 2.0], v), v)
    h = ShannonEntropy().hessian_apply([2.0, 4.0], [1.0, 1.0])
    assert np.allclose(h, [0.5, 0.25])
    h = build_poly_legendre([0.0, 0.0, 1.0]).hessian_apply([1.0, 0.0], [0.0, 1.0])
    assert np.allclose(h, [0.0, 13.0])


def test_local_dual_norm_examples():
    assert Euclidean().local_dual_norm([1.0, 1.0], [3.0, 4.0]) == 5.0
    assert ShannonEntropy().local_dual_norm([2.0, 2.0], [1.0, 0.0]) == 2.0
    assert build_poly_legendre([1.0]).local_dual_norm([1.0, 1.0], [0.0, 0.0]) == 0.0
    # pure high-order radial term has a singular Hessian at the origin, on
    # every path to its inverse
    phi, origin, v = build_poly_legendre([0.0, 0.0, 1.0]), [0.0, 0.0], [1.0, 0.0]
    with pytest.raises(SingularHessianError):
        phi.hessian_solve(origin, v)
    with pytest.raises(SingularHessianError):
        phi.local_dual_norm(origin, v)


def test_origin_gradients_are_the_analytic_limit():
    phi = build_poly_legendre([1.0, 1.0, 1.0])
    z = np.zeros(2)
    assert np.array_equal(phi.gradient(z), z)
    # quadratic term survives at the origin, higher orders vanish
    h = phi.hessian_apply(z, np.array([1.0, 0.0]))
    assert np.allclose(h, [7.0, 0.0])


# ----------------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------------

def test_divergence_nonnegative_and_identifiable():
    rng = np.random.default_rng(11)
    for name, phi, d in zoo():
        for _ in range(1000):
            x = interior_point(rng, phi, d)
            y = interior_point(rng, phi, d)
            D = phi.bregman(y, x)
            assert D >= -1e-12, name
            if np.linalg.norm(x - y) > 1e-6:
                assert D > 0.0, name
            assert abs(phi.bregman(x, x)) <= 1e-12, name


def test_row_forms_match_the_pointwise_methods():
    # the pointwise methods are the one-row case of the row forms, so a point
    # and a row of a batch give the same bits
    rng = np.random.default_rng(12)
    for name, phi, d in zoo():
        X = np.array([interior_point(rng, phi, d) for _ in range(200)])
        Y = np.array([interior_point(rng, phi, d) for _ in range(200)])
        if phi.domain == "all_space":
            X[0] = 0.0          # radial gradients take their limit at 0
        assert np.array_equal(phi.value_rows(X), [phi.value(x) for x in X]), name
        assert np.array_equal(phi.gradient_rows(X), [phi.gradient(x) for x in X]), name
        assert np.array_equal(phi.bregman_rows(Y, X),
                              [phi.bregman(y, x) for y, x in zip(Y, X)]), name
        assert np.array_equal(phi.hessian_rows(X),
                              [phi.hessian_matrix(x) for x in X]), name
        assert np.array_equal(phi.interior_rows(X), [phi.in_interior(x) for x in X])


def test_each_kind_writes_its_formulas_once_as_row_forms():
    # a kind implements the row forms; the pointwise operations are the base
    # class's one-row case, so a second formula cannot come back unnoticed.
    # A diagonal kind writes its inverse curvature only, from which
    # DiagonalLegendre derives its Hessian's row form, action and solve
    for cls in (Euclidean, ShannonEntropy, Burg, RadialPowerSum, WeightedSum):
        for op in ("value_rows", "gradient_rows"):
            assert op in cls.__dict__, (cls.__name__, op)
        for op in ("value", "gradient", "bregman", "hessian_matrix", "in_interior"):
            assert op not in cls.__dict__, (cls.__name__, op)
    for cls in (Euclidean, ShannonEntropy, Burg):
        assert issubclass(cls, DiagonalLegendre) and "inverse_curvature" in cls.__dict__
        for op in ("hessian_rows", "hessian_apply", "hessian_solve"):
            assert op not in cls.__dict__, (cls.__name__, op)
    for cls in (RadialPowerSum, WeightedSum):
        assert "hessian_rows" in cls.__dict__, cls.__name__
    X = np.ones((2, 3))
    for op in ("value_rows", "gradient_rows", "hessian_rows"):
        with pytest.raises(NotImplementedError):
            getattr(LegendreFunction(), op)(X)
    with pytest.raises(NotImplementedError):
        DiagonalLegendre().hessian_rows(X)


def test_bregman_pair_equals_two_bregman_rows_calls():
    # both divergences from the two rows' states, bit for bit the two
    # bregman_rows calls, including a row at the origin; the entropy's come
    # from the logs, within rounding
    rng = np.random.default_rng(13)
    for name, phi, d in zoo():
        X = np.array([interior_point(rng, phi, d) for _ in range(7)])
        Y = np.array([interior_point(rng, phi, d) for _ in range(7)])
        if phi.domain == "all_space":
            Y[1] = 0.0
        state = phi.state_at(Y, phi.mirror_rows(Y))
        d_yx, d_xy = phi.bregman_pair(state, phi.state_rows(X))
        pairs = [(d_yx, phi.bregman_rows(Y, X)), (d_xy, phi.bregman_rows(X, Y))]
        for got, ref in pairs:
            if name == "entropy":
                assert np.allclose(got, ref, rtol=1e-12, atol=1e-13), name
            else:
                assert np.array_equal(got, ref), name
        # Y's state is that of a fresh centre at Y, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(state, phi.state_rows(Y))), name
        mirror = np.log(Y) if name == "entropy" else phi.gradient_rows(Y)
        assert np.array_equal(state.mirror, mirror), name
        assert np.array_equal(state.values, phi.value_rows(Y)), name
        if phi.domain != "all_space":
            Y[2, 0] = -1.0
            with pytest.raises(DomainError):
                phi.mirror_rows(Y)
            with pytest.raises(DomainError):
                phi.state_rows(Y)


def test_poly_growth_divergence_bound():
    # D(y, x) >= ((p(|x|) + p(|y|)) / 2) |x - y|^2 for the adapted phi
    rng = np.random.default_rng(12)
    polyval = np.polynomial.polynomial.polyval
    for _ in range(8):
        n = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.0, 2.0, n + 1)
        coeffs[int(rng.integers(0, n + 1))] += 0.1
        phi = build_poly_legendre(coeffs)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-10.0, 10.0, d)
            y = rng.uniform(-10.0, 10.0, d)
            D = phi.bregman(y, x)
            bound = 0.5 * (polyval(np.linalg.norm(x), coeffs)
                           + polyval(np.linalg.norm(y), coeffs)) \
                * np.linalg.norm(x - y) ** 2
            assert D - bound >= -1e-9 * (1.0 + abs(D))


def test_norm_power_divergence_bound():
    # D(y, x) >= (1/2) q(|x|) |x - y|^2 for the b_i/(i+2) weights
    rng = np.random.default_rng(13)
    polyval = np.polynomial.polynomial.polyval
    for _ in range(8):
        n = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.0, 2.0, n + 1)
        coeffs[0] += 0.1
        phi = build_norm_power_legendre(coeffs)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-10.0, 10.0, d)
            y = rng.uniform(-10.0, 10.0, d)
            D = phi.bregman(y, x)
            bound = 0.5 * polyval(np.linalg.norm(x), coeffs) \
                * np.linalg.norm(x - y) ** 2
            assert D - bound >= -1e-9 * (1.0 + abs(D))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for name, phi, d in zoo():
        for _ in range(25):
            x = interior_point(rng, phi, d)
            fd = gradient_by_differences(phi.value, x)
            err = np.linalg.norm(fd - phi.gradient(x)) / (1.0 + np.linalg.norm(fd))
            assert err <= 1e-6, name


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(15)
    for name, phi, d in zoo():
        for _ in range(25):
            x = interior_point(rng, phi, d)
            v = rng.uniform(-1.0, 1.0, d)
            h = finite_difference_step(x)
            fd = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd += v[i] * (phi.gradient(x + e) - phi.gradient(x - e)) / (2 * h)
            err = np.linalg.norm(fd - phi.hessian_apply(x, v)) / (1.0 + np.linalg.norm(fd))
            assert err <= 1e-5, name


def test_hessian_solve_inverts_apply():
    rng = np.random.default_rng(16)
    for name, phi, d in zoo():
        for _ in range(20):
            x = interior_point(rng, phi, d)
            v = rng.uniform(-1.0, 1.0, d)
            back = phi.hessian_apply(x, phi.hessian_solve(x, v))
            assert np.allclose(back, v, atol=1e-9), name


def test_local_norm_context_is_spd():
    # the Hessian matrix is SPD, and the closed-form local dual norm is that
    # of a dense solve against it
    rng = np.random.default_rng(17)
    for name, phi, d in zoo():
        for _ in range(20):
            x = interior_point(rng, phi, d)
            H = phi.hessian_matrix(x)
            assert np.allclose(H, H.T, atol=1e-10), name
            np.linalg.cholesky(H)  # fails if not positive definite
            v = rng.uniform(-1.0, 1.0, d)
            dense = primal_norm(np.linalg.solve(H, v), phi.norm)
            assert abs(dense - phi.local_dual_norm(x, v)) <= 1e-9


def test_strong_convexity_where_declared():
    # D >= (1/2)|y - x|^2 for the Euclidean norm, and the KL divergence on
    # the simplex dominates (1/2)|y - x|_1^2 (the entropy declaration)
    rng = np.random.default_rng(18)
    eu = Euclidean()
    ent = ShannonEntropy(on_simplex=True)
    assert eu.strong_convexity_modulus == 1.0
    assert ent.strong_convexity_modulus == 1.0 and ent.norm == "l1"
    for _ in range(1000):
        x = rng.uniform(-3, 3, 3)
        y = rng.uniform(-3, 3, 3)
        assert eu.bregman(y, x) >= 0.5 * np.sum((y - x) ** 2) - 1e-12
        p = rng.dirichlet(np.ones(4)) + 1e-9
        q = rng.dirichlet(np.ones(4)) + 1e-9
        p, q = p / p.sum(), q / q.sum()
        assert ent.bregman(q, p) >= 0.5 * np.sum(np.abs(q - p)) ** 2 - 1e-12


def test_second_order_weak_convexity_characterization():
    # for the twice differentiable registered objectives the declared
    # modulus satisfies hess f + c * hess phi >= 0 at random interior points
    from bregopt.problems import get_problem
    rng = np.random.default_rng(19)
    for pid, const_name in [("P2", "tau"), ("P6", "rho")]:
        p = get_problem(pid)
        c = getattr(p.oracle.constants, const_name)
        for _ in range(1000):
            x = p.oracle.draw_test_point(rng)
            Hf = p.oracle.hess_f(x)
            Hphi = p.phi.hessian_matrix(x)
            w = np.linalg.eigvalsh(Hf + c * Hphi)
            scale = 1.0 + abs(w).max()
            assert w.min() >= -1e-9 * scale, pid


def test_weighted_sum_domain_and_serialization():
    mix = WeightedSum([ShannonEntropy(), Euclidean()], [1.0, 2.0])
    assert mix.domain == "positive_orthant"
    assert not mix.in_interior([0.0, 1.0])
    x = np.array([0.5, 1.5])
    assert abs(mix.value(x) - (ShannonEntropy().value(x) + 2 * Euclidean().value(x))) <= 1e-14
    for _, phi, d in zoo():
        clone = legendre_from_config(phi.to_config())
        pt = np.full(d, 0.8)
        assert clone.value(pt) == phi.value(pt)
        assert np.array_equal(clone.gradient(pt), phi.gradient(pt))


def test_radial_weighted_sum_is_one_power_sum():
    p_side, q_side = build_poly_legendre([1.0]), build_norm_power_legendre([0.0, 0.0, 4.0])
    nested = WeightedSum([p_side, q_side], [1.0, 1.0])
    cfg = nested.to_config()
    for flat in (build_composite_legendre([1.0], [0.0, 0.0, 4.0]),
                 legendre_from_config(cfg)):
        assert isinstance(flat, RadialPowerSum) and flat.kind == "weighted_sum"
        assert flat.to_config() == cfg
        assert flat.strong_convexity_modulus == nested.strong_convexity_modulus
        for x in ([0.3], [-1.7], [0.4, -2.2]):
            assert flat.value(x) == nested.value(x)
            assert np.allclose(flat.gradient(x), nested.gradient(x), rtol=1e-15)
    # a sum with a non-radial child stays a WeightedSum
    mix = legendre_from_config({"kind": "weighted_sum", "weights": [1.0, 1.0],
                                "children": [{"kind": "burg"}, {"kind": "euclidean"}]})
    assert isinstance(mix, WeightedSum)


def test_raw_radial_power_sum_has_no_config():
    # raw coefficients do not say which growth polynomial they came from
    raw = RadialPowerSum([1.0], [3.0])
    assert raw.value([2.0]) == 8.0
    with pytest.raises(ValueError):
        raw.to_config()


def test_dot_rows_is_np_dot_row_by_row_over_layouts():
    # np.vecdot takes each row pair through np.dot's inner loop: bit for bit
    # np.dot of every row pair, over C, strided, Fortran, broadcast and 3-d
    # operands, at dimensions where the BLAS dot unrolls differently
    rng = np.random.default_rng(4)
    for d in list(range(1, 40)) + [64, 100, 257]:
        a, b = rng.standard_normal((7, d)), rng.standard_normal((7, d))
        layouts = [(a, b), (rng.standard_normal((7, 2 * d))[:, ::2], b),
                   (np.asfortranarray(a), b), (a[0], b),
                   (rng.standard_normal((3, 7, d)), b),
                   (a, np.asfortranarray(rng.standard_normal((d, 7))).T)]
        for x, y in layouts:
            X, Y = np.broadcast_arrays(x, y)
            ref = np.array([np.dot(u, v) for u, v in zip(X.reshape(-1, d), Y.reshape(-1, d))])
            got = dot_rows(x, y)
            assert got.shape == X.shape[:-1], d
            assert got.reshape(-1).tobytes() == ref.tobytes(), d
