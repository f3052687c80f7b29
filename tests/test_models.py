import numpy as np
import pytest

from bregopt.legendre import Euclidean, build_poly_legendre, dot_rows, norm_rows
from bregopt.models import (LinearMirrorOracle, NoisyGradientOracle,
                            OracleConstants, ProxLinearOracle)
from bregopt.problems import get_problem, registry
from bregopt.subproblem import AffineRows, absolute_affine_model, linear_model
from bregopt.validation import (verify_lipschitz, verify_one_sided,
                                verify_relative_smoothness, verify_variance)


def one_d_robust_oracle():
    """Single-atom |x^2 - 1| composite, the worked 1-d example."""
    constants = OracleConstants(tau=4.0 / 3.0, lip_bound_L=np.sqrt(2.0))
    return ProxLinearOracle(
        [1.0], [1.0], [1.0], regime="A", constants=constants,
        test_point_sampler=lambda rng: rng.uniform(-2.0, 2.0, 1))


def test_prox_linear_model_values():
    oracle = one_d_robust_oracle()
    x1 = np.array([1.0])
    # the model agrees with f at the base point
    assert oracle.model_value(x1, x1, 0) == 0.0
    # linearizing x^2 - 1 at x = 1 and evaluating at 0 gives |0 + 2 (0-1)| = 2
    assert oracle.model_value(x1, np.array([0.0]), 0) == 2.0
    assert oracle.f_exact(np.array([0.0])) == 1.0
    # the overshoot 2 - 1 is below tau * D for the p = 1 adapted kernel
    phi = build_poly_legendre([1.0])
    gap = oracle.model_value(x1, np.array([0.0]), 0) - oracle.f_exact(np.array([0.0]))
    assert gap == 1.0
    assert gap <= (4.0 / 3.0) * phi.bregman(np.array([0.0]), x1)
    assert abs((4.0 / 3.0) * phi.bregman(np.array([0.0]), x1) - 14.0 / 3.0) <= 1e-12


def test_prox_linear_subgradient_chain_rule_and_kink():
    oracle = one_d_robust_oracle()
    x1 = np.array([1.0])
    # chain rule away from the kink: sign(-2) * 2 = -2
    g = oracle.model_rows(x1, 0).gradients(np.array([0.0]))
    assert np.allclose(g, [-2.0])
    # at the kink the zero-slope selection is returned
    g = oracle.model_rows(x1, 0).gradients(x1)
    assert np.allclose(g, [0.0])
    # the same on rows: the one-row form at several points
    g = oracle.model_rows(x1[None], [0]).gradients(np.array([[0.0], [1.0], [2.0]]))
    assert np.array_equal(g, [[-2.0], [0.0], [2.0]])


def test_linear_mirror_model_is_affine():
    p3 = get_problem("P3")
    rng = np.random.default_rng(0)
    x = p3.sample_domain_point(rng)
    y1 = p3.sample_domain_point(rng)
    y2 = p3.sample_domain_point(rng)
    m = p3.oracle.model_rows(x, 3)
    for a in (0.0, 0.25, 0.7, 1.0):
        mix = a * y1 + (1 - a) * y2
        assert abs(m.values(mix) - (a * m.values(y1) + (1 - a) * m.values(y2))) <= 1e-12
    # at the base point the model returns f(x)
    assert abs(m.values(x) - p3.exact_f(x)) <= 1e-12
    # the subgradient is the sampled slope, independent of y
    assert np.array_equal(m.gradients(y1), m.gradients(y2))
    assert np.array_equal(m.gradients(y1), p3.oracle.slope_table[3])


def test_base_point_consistency_all_families():
    rng = np.random.default_rng(1)
    for p in registry():
        for _ in range(20):
            x = p.sample_domain_point(rng)
            gap = p.oracle.expected_model_value(x, x) - p.exact_f(x)
            assert abs(gap) <= 1e-9 * (1.0 + abs(p.exact_f(x))), p.id


def test_midpoint_convexity_of_models():
    rng = np.random.default_rng(2)
    for pid in ("P1", "P5", "P6"):
        p = get_problem(pid)
        for _ in range(200):
            x = p.sample_domain_point(rng)
            y1 = p.sample_domain_point(rng)
            y2 = p.sample_domain_point(rng)
            xi = p.oracle.sample(rng)
            m = p.oracle.model_rows(x, xi)
            mid = m.values(0.5 * (y1 + y2))
            assert mid <= 0.5 * (m.values(y1) + m.values(y2)) + 1e-10, pid


def test_sampling_reproducibility():
    for p in registry():
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        xs = [p.oracle.sample(a) for _ in range(20)]
        ys = [p.oracle.sample(b) for _ in range(20)]
        for u, v in zip(xs, ys):
            assert np.array_equal(u, v), p.id
    # parametric draws are distinct across calls
    p2 = get_problem("P2")
    rng = np.random.default_rng(5)
    assert not np.array_equal(p2.oracle.sample(rng), p2.oracle.sample(rng))


def test_up_front_draws_match_per_step_draws():
    # a lockstep run draws each run's T+1 samples at once: the stream, and the
    # generator state the t* draw starts from, are those of one draw per step
    for pid in ("P3", "P2"):        # finite support, Gaussian noise
        oracle = get_problem(pid).oracle
        for seed in range(4):
            for n in (1, 65, 257):
                a = np.random.default_rng([seed, n])
                b = np.random.default_rng([seed, n])
                rows = oracle.sample_rows(a, n)
                steps = np.array([oracle.sample(b) for _ in range(n)])
                assert rows.shape == steps.shape and np.array_equal(rows, steps), pid
                assert a.bit_generator.state == b.bit_generator.state, pid


def test_verify_one_sided_exact_and_example():
    oracle = one_d_robust_oracle()
    phi = build_poly_legendre([1.0])
    rep = verify_one_sided(oracle, phi, np.array([1.0]), np.array([0.0]))
    assert rep.passed
    assert abs(rep.mean_gap_at_x) <= 1e-15
    assert abs(rep.mean_overshoot - 1.0) <= 1e-12
    assert abs(rep.bound_rhs - 14.0 / 3.0) <= 1e-12


def test_verify_one_sided_detects_understated_tau():
    oracle = one_d_robust_oracle()
    oracle.constants.tau = 1e-4  # far below the honest 4/3 E[L1 L2]
    phi = build_poly_legendre([1.0])
    rep = verify_one_sided(oracle, phi, np.array([1.0]), np.array([0.0]))
    assert not rep.passed


def test_verify_one_sided_regime_c():
    # convex-regime models must globally under-estimate in expectation
    rng = np.random.default_rng(3)
    p3 = get_problem("P3")
    for _ in range(50):
        x = p3.sample_domain_point(rng)
        y = p3.sample_domain_point(rng)
        rep = verify_one_sided(p3.oracle, p3.phi, x, y)
        assert rep.passed
        assert rep.bound_rhs == 0.0
        assert rep.mean_overshoot <= 1e-12


def test_verify_lipschitz_linear_bound():
    # |<G, x - y>| <= sqrt(2) |G| sqrt(D) for the Euclidean kernel
    rng = np.random.default_rng(4)
    G = np.array([0.6, -0.8])
    oracle = LinearMirrorOracle(
        f_fn=lambda x: float(G @ x), grad_map=lambda x, xi: G,
        weights=[1.0], lip=[np.sqrt(2.0)],
        regime="C", constants=OracleConstants(lip_bound_L=np.sqrt(2.0)),
        grad_f_fn=lambda x: G.copy(),
        test_point_sampler=lambda r: r.uniform(-2, 2, 2))
    rep = verify_lipschitz(oracle, Euclidean(), 500, rng)
    assert rep.passed
    assert rep.max_ratio <= np.sqrt(2.0) + 1e-9
    assert rep.n_used <= 500


def test_verify_lipschitz_detects_understated_L():
    rng = np.random.default_rng(5)
    p1 = get_problem("P1")
    rep = verify_lipschitz(p1.oracle, p1.phi, 2000, rng)
    assert rep.passed and rep.max_normalized <= 1.0 + 1e-9
    lied = get_problem("P1")
    lied.oracle.constants.lip_bound_L *= 0.5
    rep = verify_lipschitz(lied.oracle, lied.phi, 200, np.random.default_rng(5))
    assert not rep.passed


def test_verify_relative_smoothness_quadratic_is_exact():
    # for a quadratic, M is the largest eigenvalue and tau the negative part
    # of the smallest one
    Q = np.diag([2.0, -0.5])
    f = lambda x: 0.5 * float(x @ Q @ x)
    grad = lambda x: Q @ x
    noise = lambda rng, n: np.zeros((n, 2))
    good = NoisyGradientOracle(
        f, grad, noise, regime="B",
        constants=OracleConstants(tau=0.5, smooth_M=2.0, variance_sigma=0.0),
        test_point_sampler=lambda r: r.uniform(-2, 2, 2))
    rng = np.random.default_rng(6)
    assert verify_relative_smoothness(good, Euclidean(), 400, rng).passed
    bad = NoisyGradientOracle(
        f, grad, noise, regime="B",
        constants=OracleConstants(tau=0.4, smooth_M=2.0, variance_sigma=0.0),
        test_point_sampler=lambda r: r.uniform(-2, 2, 2))
    assert not verify_relative_smoothness(bad, Euclidean(), 400,
                                          np.random.default_rng(6)).passed
    # y = x contributes zero on every side
    x = np.array([0.3, 0.4])
    assert abs(f(x) - f(x) - float(grad(x) @ (x - x))) == 0.0


def test_verify_variance_cases():
    rng = np.random.default_rng(7)
    f = lambda x: 0.5 * float(x @ x)
    grad = lambda x: x.copy()
    # deterministic oracle has zero deviation
    det = NoisyGradientOracle(f, grad, lambda r, n: np.zeros((n, 2)), regime="B",
                              constants=OracleConstants(variance_sigma=0.0))
    rep = verify_variance(det, 200, np.array([1.0, 2.0]), rng)
    assert rep.passed and rep.empirical_second_moment == 0.0
    # two-point noise {+u, -u} has second moment exactly |u|^2
    u = np.array([0.3, -0.4])
    pm = NoisyGradientOracle(
        f, grad, lambda r, n: u * np.where(r.uniform(size=(n, 1)) < 0.5, 1.0, -1.0),
        regime="B", constants=OracleConstants(variance_sigma=np.sqrt(2) * 0.5))
    rep = verify_variance(pm, 500, np.array([0.5, 0.5]), rng)
    assert rep.passed
    assert abs(rep.empirical_second_moment - 0.25) <= 1e-12
    # isotropic Gaussian with covariance sigma^2/(2 d) I matches sigma^2/2
    sig = 0.8
    gauss = NoisyGradientOracle(
        f, grad, lambda r, n: (sig / 2.0) * r.standard_normal((n, 2)),
        regime="B", constants=OracleConstants(variance_sigma=sig))
    rep = verify_variance(gauss, 30000, np.array([0.0, 0.0]), rng)
    assert rep.passed
    assert abs(rep.empirical_second_moment - sig ** 2 / 2) <= 4 * rep.std_err


def test_prop2_accuracy_constant_matches_declaration():
    p1 = get_problem("P1")
    assert abs(p1.oracle.tau_from_accuracy() - p1.oracle.constants.tau) <= 1e-12
    # the declared tau certifies the one-sided bound on many sampled pairs,
    # both against the run kernel and against the accuracy-adapted kernel
    # alone (whose divergence is smaller, so this is the stronger claim)
    accuracy_phi = build_poly_legendre(p1.config["p"])
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = p1.sample_domain_point(rng)
        y = p1.sample_domain_point(rng)
        assert verify_one_sided(p1.oracle, p1.phi, x, y).passed
        assert verify_one_sided(p1.oracle, accuracy_phi, x, y).passed


def test_verify_one_sided_monte_carlo_path():
    # oracles without exact expectations fall back to common-random-number
    # Monte Carlo with a three-standard-error acceptance band
    class MCOracle(LinearMirrorOracle):
        def expected_model_value(self, x, y):
            raise NotImplementedError

    G = np.array([1.0, -0.5])
    oracle = MCOracle(
        f_fn=lambda x: float(G @ x),
        grad_map=lambda x, xi: G + 0.3 * np.array([1.0, -1.0]) * (2 * xi - 1),
        weights=[0.5, 0.5], lip=[2.0, 2.0], regime="C",
        constants=OracleConstants(lip_bound_L=2.0),
        grad_f_fn=lambda x: G.copy(),
        test_point_sampler=lambda r: r.uniform(-1, 1, 2))
    rng = np.random.default_rng(10)
    rep = verify_one_sided(oracle, Euclidean(), np.array([0.5, 0.5]),
                           np.array([-0.5, 1.0]), n_samples=4000, rng=rng)
    assert rep.passed
    assert rep.std_err > 0.0


def test_saddle_model_dominance_and_argmax():
    p5 = get_problem("P5")
    oracle = p5.oracle
    atoms = np.asarray(p5.config["atoms"], dtype=float)
    radius = oracle.w_radius

    def g(x, w, xi):
        return float(np.dot(atoms[xi] + w, x))

    def argmax(x, xi):
        # the inner argmax the model froze: its slope less the atom
        return oracle.model_rows(x, xi).slopes - atoms[xi]

    rng = np.random.default_rng(9)
    for _ in range(200):
        x = p5.sample_domain_point(rng)
        y = p5.sample_domain_point(rng)
        xi = oracle.sample(rng)
        w_hat = argmax(x, xi)
        assert np.linalg.norm(w_hat) <= radius + 1e-12
        # the selection attains the inner sup at the base point
        for _ in range(20):
            w = rng.normal(size=2)
            w = radius * rng.uniform() * w / np.linalg.norm(w)
            assert g(x, w_hat, xi) >= g(x, w, xi) - 1e-9
        # the model value is g at the frozen w_hat, below the full sup
        assert abs(oracle.model_value(x, y, xi) - g(y, w_hat, xi)) <= 1e-12
        w_best_y = argmax(y, xi)
        assert g(y, w_hat, xi) <= g(y, w_best_y, xi) + 1e-9


# Reference forms of the P1 and P5 oracles, written as per-atom callbacks:
# the oracles' array forms must reproduce them bit for bit.

def _reference_p1(cfg):
    a = np.asarray(cfg["a"], dtype=float)
    b = np.asarray(cfg["b"], dtype=float)
    w = np.asarray(cfg["weights"], dtype=float)
    a2 = a * a
    inner_value = lambda x, xi: (a2[xi] * x[..., 0] * x[..., 0] - b[xi])[..., None]
    inner_jacobian = lambda x, xi: (2.0 * a2[xi] * x[..., 0])[..., None, None]

    def model_rows(X, xi):
        c = inner_value(X, xi)
        G = inner_jacobian(X, xi)[..., 0, :]
        return AffineRows(G, c[..., 0] - dot_rows(G, X), True)

    def f_exact(x):
        X = np.broadcast_to(x, (w.size,) + x.shape)
        return float(w @ np.abs(inner_value(X, np.arange(w.size))[..., 0]))

    lip_L = lambda xi: float(np.sqrt(2.0) * 1.0 * a2[xi])
    expected_lip_sq = float(sum(wi * lip_L(i) ** 2 for i, wi in enumerate(w)))
    tau = float(4.0 / 3.0 * sum(wi * 1.0 * a2[i] for i, wi in enumerate(w)))
    return model_rows, f_exact, lip_L, expected_lip_sq, tau


def _reference_p5(cfg):
    atoms = np.asarray(cfg["atoms"], dtype=float)
    w = np.asarray(cfg["weights"], dtype=float)
    R = float(cfg["w_radius"])
    abar = w @ atoms

    def argmax_w(x):
        n = norm_rows(x)[..., None]
        return np.divide(R, n, out=np.zeros(n.shape), where=n > 0.0) * x

    def model_rows(X, xi):
        w_hat = argmax_w(X)
        slopes = atoms[xi] + w_hat
        values = dot_rows(atoms[xi] + w_hat, X)
        return AffineRows(slopes, values - dot_rows(slopes, X), False)

    f_exact = lambda y: float(dot_rows(abar, y) + R * norm_rows(y))
    lip = np.sqrt(2.0) * (np.linalg.norm(atoms, axis=1) + R)
    lip_L = lambda xi: float(lip[xi])
    expected_lip_sq = float(sum(wi * lip_L(i) ** 2 for i, wi in enumerate(w)))
    return model_rows, f_exact, lip_L, expected_lip_sq, float(np.sqrt(np.dot(w, lip * lip)))


def _same_rows(rows, ref):
    return (rows.absolute == ref.absolute
            and rows.slopes.shape == ref.slopes.shape
            and np.array_equal(rows.slopes, ref.slopes)
            and np.shape(rows.offsets) == np.shape(ref.offsets)
            and np.array_equal(rows.offsets, ref.offsets))


@pytest.mark.parametrize("pid", ["P1", "P5"])
def test_array_oracles_equal_the_callback_formulas_bit_for_bit(pid):
    p = get_problem(pid)
    oracle = p.oracle
    reference = _reference_p1 if pid == "P1" else _reference_p5
    model_rows, f_exact, lip_L, expected_lip_sq, extra = reference(p.config)
    rng = np.random.default_rng(21)
    d = p.dimension
    for S in (1, 7, 64):
        X = np.stack([p.sample_domain_point(rng) for _ in range(S)])
        xi = oracle.sample_rows(rng, S)
        if pid == "P5":
            X[0] = 0.0                  # w_hat's zero branch
        else:
            # exactly at the sampled atom's kinks +-sqrt(b)/|a|
            a = np.asarray(p.config["a"])[xi[0]]
            b = np.asarray(p.config["b"])[xi[0]]
            X[0] = np.sqrt(b) / abs(a) * (1.0 if S % 2 else -1.0)
        assert X.shape == (S, d)
        assert _same_rows(oracle.model_rows(X, xi), model_rows(X, xi))
        # the one-point case, and the one-row model of its slope and offset
        for s in range(S):
            one = oracle.model_rows(X[s], int(xi[s]))
            ref = model_rows(X[s], int(xi[s]))
            assert _same_rows(one, ref)
            make = absolute_affine_model if ref.absolute else linear_model
            ref_model = make(ref.slopes, float(ref.offsets))
            y = p.sample_domain_point(rng)
            assert oracle.model_value(X[s], y, int(xi[s])) == ref_model.values(y[None])[0]
            assert oracle.f_exact(X[s]) == f_exact(X[s])
            assert p.exact_f(X[s]) == f_exact(X[s])
    for i in range(oracle.n_atoms):
        assert oracle.lip_L(i) == lip_L(i)
    assert oracle.expected_lip_sq() == expected_lip_sq
    if pid == "P1":
        assert oracle.tau_from_accuracy() == extra
    else:
        assert oracle.constants.lip_bound_L == extra
