import numpy as np
import pytest

from bregopt.legendre import Euclidean, finite_difference_step, gradient_by_differences
from bregopt.models import OracleConstants, NoisyGradientOracle
from bregopt.problems import (ProblemInstance, default_configs, dump_config, get_problem,
                              instance_from_config, load_config, registry)
from bregopt.subproblem import BallIndicator, SmoothRows, ZeroRegularizer
from bregopt.validation import brute_force_min, verify_lipschitz, verify_one_sided
from util_problems import RowModel


def test_registry_contents():
    probs = {p.id: p for p in registry()}
    assert set(probs) == {"P1", "P2", "P3", "P4", "P5", "P6"}
    assert probs["P1"].regime == "A" and probs["P1"].dimension == 1
    assert probs["P2"].regime == "B" and probs["P2"].dimension == 2
    assert probs["P3"].regime == "C" and probs["P3"].dimension == 10
    assert probs["P4"].oracle.constants.mu == 1.0
    assert probs["P5"].oracle.family == "saddle"
    assert probs["P6"].oracle.family == "proximal_point"
    for p in probs.values():
        assert p.phi.in_interior(p.x0)
        assert np.isfinite(p.regularizer.value(p.x0))
    with pytest.raises(KeyError):
        get_problem("P99")


def test_p1_constants_follow_the_composite_formulas():
    p1 = get_problem("P1")
    cfg = p1.config
    a2 = np.asarray(cfg["a"]) ** 2
    w = np.asarray(cfg["weights"])
    assert p1.oracle.constants.tau == pytest.approx(4.0 / 3.0 * float(w @ a2))
    # per-sample L is sqrt(2) L1 L2 and the aggregate is its second moment
    for xi in range(5):
        assert p1.oracle.lip_L(xi) == pytest.approx(np.sqrt(2.0) * a2[xi])
    assert p1.oracle.constants.lip_bound_L == pytest.approx(
        np.sqrt(float(w @ (2.0 * a2 ** 2))))


def test_p1_refuses_a_kernel_other_than_its_composite_one():
    # tau = (4/3) E[a^2] bounds P1's model error in the divergence of the
    # composite kernel of its p and q only: under phi = y^2 / 2 (whose tau
    # is 2 E[a^2]) the envelope's certificates at lam = 1/(2 tau) failed
    # near 0.  The registry's config passes, also after a round trip
    cfg = next(c for c in default_configs() if c["id"] == "P1")
    for bad in (dict(cfg, phi={"kind": "euclidean"}), dict(cfg, q=[0.0, 0.0, 2.0])):
        with pytest.raises(ValueError, match="composite kernel"):
            instance_from_config(bad)
    assert instance_from_config(load_config(dump_config(cfg))).phi.to_config() == cfg["phi"]


def test_a_config_whose_regime_or_dimension_disagrees_is_refused():
    # a config's regime and dimension restate the built instance's (the
    # oracle's regime, the size of x0): one that disagrees raises naming
    # the field, and every registry config agrees
    cfg = next(c for c in default_configs() if c["id"] == "P1")
    for field, value in (("regime", "C"), ("dimension", 7)):
        with pytest.raises(ValueError, match="config field %s = %r" % (field, value)):
            instance_from_config(dict(cfg, **{field: value}))
    for cfg in default_configs():
        problem = instance_from_config(cfg)
        assert (problem.regime, problem.dimension) == (cfg["regime"], cfg["dimension"])


def test_every_instance_passes_its_verify_suite():
    rng = np.random.default_rng(0)
    for p in registry():
        for _ in range(40):
            x = p.oracle.draw_test_point(rng)
            y = p.oracle.draw_test_point(rng)
            assert verify_one_sided(p.oracle, p.phi, x, y, rng=rng,
                                    n_samples=1000).passed, p.id
        if p.id != "P2":
            assert verify_lipschitz(p.oracle, p.phi, 200, rng).passed, p.id


def test_p3_optimum_is_the_cheapest_vertex():
    p3 = get_problem("P3")
    abar = np.asarray(p3.config["weights"]) @ np.asarray(p3.config["atoms"])
    k = int(np.argmin(abar))
    assert p3.optimum["F_star"] == pytest.approx(abar[k])
    assert p3.optimum["x_star"][k] == 1.0
    res = brute_force_min(p3)
    assert res.method == "grid" and res.resolution == 0.0
    assert res.value == pytest.approx(p3.optimum["F_star"])
    assert np.array_equal(res.argmin, p3.optimum["x_star"])


def test_p4_optimum_satisfies_stationarity():
    p4 = get_problem("P4")
    x_star = p4.optimum["x_star"]
    abar = np.asarray(p4.config["weights"]) @ np.asarray(p4.config["atoms"])
    mu = p4.oracle.constants.mu
    # KKT on the simplex: abar + mu (1 + log x) is a constant vector
    kkt = abar + mu * (1.0 + np.log(x_star))
    assert np.ptp(kkt) <= 1e-10
    assert p4.exact_F(x_star) == pytest.approx(p4.optimum["F_star"], abs=1e-12)
    # independent check by a long deterministic mirror descent
    res = brute_force_min(p4, descent_iterations=20000)
    assert res.method == "projected_descent_long"
    assert res.value <= p4.optimum["F_star"] + 1e-6


def test_brute_force_min_refuses_a_descent_of_no_iterations():
    # with no iteration the descent would return x0, at resolution inf
    for pid in ("P4", "P1"):
        with pytest.raises(ValueError, match="descent_iterations must be at least 1"):
            brute_force_min(get_problem(pid), descent_iterations=0)


def test_p5_p6_optima_against_grid():
    p5 = get_problem("P5")
    res = brute_force_min(p5, domain_box=(-2.0, 2.0), resolution=4e-3)
    assert res.value >= p5.optimum["F_star"] - 1e-12
    assert res.value - p5.optimum["F_star"] <= 2e-2
    p6 = get_problem("P6")
    assert np.linalg.norm(p6.oracle.grad_f(p6.optimum["x_star"])) <= 1e-10
    res = brute_force_min(p6, domain_box=(-2.0, 2.0), resolution=4e-3)
    assert 0 <= res.value - p6.optimum["F_star"] <= 1e-4


def test_grid_oracle_on_synthetic_quadratic():
    # the exact objectives are row forms, so the grid evaluates each chunk
    # of points in one call
    d = 2
    f = lambda y: 0.5 * np.sum(y * y, axis=-1)
    oracle = NoisyGradientOracle(
        f, lambda y: y.copy(), lambda rng, n: np.zeros((n, d)), regime="B",
        constants=OracleConstants(),
        test_point_sampler=lambda rng: rng.uniform(-1, 1, d))
    prob = ProblemInstance("HALFSQ", oracle, ZeroRegularizer(), Euclidean(),
                           np.array([0.5, 0.5]))
    prob.objective = SmoothRows(f, lambda y: y.copy(),
                                lambda y: np.broadcast_to(np.eye(d), y.shape + (d,)))
    res = brute_force_min(prob, domain_box=(-1.0, 1.0), resolution=1e-3)
    assert res.method == "grid"
    assert res.value <= res.resolution ** 2
    # refusing to degrade: a cap-busting resolution raises
    with pytest.raises(ValueError):
        brute_force_min(prob, domain_box=(-1.0, 1.0), resolution=1e-5)
    # the grid minimizes F = f + r: over the unit ball, 0.5 |y - (2, 2)|^2
    # is least at (1, 1)/sqrt(2), not at the box corner (1, 1)
    c = np.array([2.0, 2.0])
    ball = ProblemInstance(
        "BALL", oracle, BallIndicator(1.0), Euclidean(), np.zeros(d),
        objective=RowModel(lambda y: 0.5 * np.sum((y - c) ** 2, axis=-1), lambda y: y - c))
    res = brute_force_min(ball, domain_box=(-1.0, 1.0), resolution=1e-3)
    assert np.linalg.norm(res.argmin) <= 1.0 + 1e-9
    exact = 0.5 * 2.0 * (2.0 - 1.0 / np.sqrt(2.0)) ** 2
    assert exact <= res.value <= exact + 5e-3


def test_each_exact_objective_is_f_with_a_subgradient_selection():
    # the row form each registry problem holds as its objective: its values
    # are the oracle's f_exact, its gradients are f's central differences
    # away from P1's kinks, and at each kink they lie between the one-sided
    # difference quotients of f_exact (which straddle f's jump there)
    rng = np.random.default_rng(31)
    for prob in registry():
        f, form = prob.oracle.f_exact, prob.objective
        X = np.array([prob.oracle.draw_test_point(rng) for _ in range(25)])
        values, G = form.values(X), form.gradients(X)
        assert values.shape == X.shape[:1] and G.shape == X.shape, prob.id
        for x, v, g in zip(X, values, G):
            assert abs(v - f(x)) <= 1e-13 * (1.0 + abs(v)), prob.id
            h = finite_difference_step(x)
            if prob.id == "P1" and np.abs(form.kinks - x[0]).min() <= 10.0 * h:
                continue
            fd = gradient_by_differences(f, x, h)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-6 * (1.0 + abs(v))), prob.id
    p1 = get_problem("P1")
    f, form, h = p1.oracle.f_exact, p1.objective, 1e-7
    assert form.kinks.size == 2 * len(p1.config["a"])
    for k in form.kinks:
        g = form.gradients(np.array([[k]]))[0, 0]
        left = (f(np.array([k])) - f(np.array([k - h]))) / h
        right = (f(np.array([k + h])) - f(np.array([k]))) / h
        tol = 1e-6 * (1.0 + abs(g))
        assert right - left > 100.0 * tol, k
        assert left - tol <= g <= right + tol, (k, left, g, right)


def test_p2_gradient_takes_products_within_rounding_of_the_power_form():
    # grad f = A' (4 w (z^2 - b) z), z = A x, evaluates (z z - b) z where
    # the power form evaluated z ** 3 - b z.  Per atom both are within 3 u
    # c_i of the exact (z^2 - b) z, c_i = |z_i|^3 + |b_i z_i| (u = eps / 2;
    # the pow within one unit), the factor 4 w adds u to each and each
    # product with A' rounds its sum by at most m u sum_i |A_ij| |term_i|:
    # the two gradients differ by at most (2 m + 9) u sum_i |A_ij| 4 w_i c_i.
    # Points near the plant, where z^2 ~ b cancels, and far out; each row
    # is bit for bit its one-point call
    p2 = get_problem("P2")
    A, b, w = (np.asarray(p2.config[k], dtype=float) for k in ("a", "b", "weights"))
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.uniform(-1.5, 1.5, (200, 2)),
                        np.array([0.9, -0.6]) + 1e-9 * rng.normal(size=(50, 2)),
                        rng.uniform(-1e3, 1e3, (50, 2)), np.zeros((1, 2))])
    grad = p2.oracle.grad_f(X)
    z = (A @ X[..., None])[..., 0]
    power_form = (A.T @ (w * 4.0 * (z ** 3 - b * z))[..., None])[..., 0]
    u = np.finfo(float).eps / 2.0
    bound = (2 * len(b) + 9) * u * (np.abs(z) ** 3 + np.abs(b * z)) * 4.0 * w @ np.abs(A)
    assert (np.abs(grad - power_form) <= bound).all()
    assert (grad != power_form).any()
    for i in range(0, len(X), 37):
        assert np.array_equal(p2.oracle.grad_f(X[i]), grad[i])


def test_p1_golden_section_beats_fine_grid():
    p1 = get_problem("P1")
    res = brute_force_min(p1, domain_box=(-2.5, 2.5), resolution=1e-3)
    assert res.method == "golden_section"
    a2 = np.asarray(p1.config["a"]) ** 2
    b = np.asarray(p1.config["b"])
    w = np.asarray(p1.config["weights"])
    ts = np.linspace(-2.5, 2.5, 500001)
    vals = np.abs(np.outer(a2, ts * ts) - b[:, None]).T @ w
    assert res.value <= vals.min() + 1e-9


def test_config_round_trip_is_bit_exact():
    for cfg in default_configs():
        text = dump_config(cfg)
        back = load_config(text)
        assert back == cfg  # floats compare exactly after the repr round trip
        p = instance_from_config(cfg)
        q = instance_from_config(back)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = p.oracle.draw_test_point(rng)
            assert p.exact_F(x) == q.exact_F(x)


def test_r_initial_gap():
    assert get_problem("P3").r_initial_gap() == 0.0
    # uniform start minimizes the entropy tilt over the simplex
    assert get_problem("P4").r_initial_gap() == pytest.approx(0.0, abs=1e-12)
    assert get_problem("P1").r_initial_gap() == 0.0
