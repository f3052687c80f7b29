import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from util_problems import halfsq_problem, smooth_problem

from bregopt import envelope
from bregopt.envelope import (bregman_prox_point, bregman_prox_points,
                              envelope_gradient, envelope_value, stationarity)
from bregopt.legendre import (Euclidean, ShannonEntropy,
                              build_norm_power_legendre, finite_difference_step)
from bregopt.driver import default_lambda, sweep
from bregopt.models import NoisyGradientOracle, OracleConstants
from bregopt.problems import (ProblemInstance, default_configs, get_problem,
                              instance_from_config)
from bregopt.subproblem import (InnerSolveError, PointModel, ZeroRegularizer,
                                absolute_affine_model, prox_step)
from bregopt.validation import _golden_polish


def test_halfsq_closed_forms():
    prob = halfsq_problem()
    x = np.array([2.0, 0.0])
    x_hat = bregman_prox_point(prob, prob.phi, x, 1.0)
    assert np.allclose(x_hat, [1.0, 0.0], atol=1e-10)
    assert envelope_value(prob, prob.phi, x, 1.0) == pytest.approx(1.0, abs=1e-10)
    g = envelope_gradient(prob, prob.phi, x, 1.0)
    assert np.allclose(g, [1.0, 0.0], atol=1e-10)
    rep = stationarity(prob, prob.phi, x, 1.0)
    assert rep.divergence == pytest.approx(0.5, abs=1e-10)
    # the local-norm estimate is tight in the Euclidean case
    assert abs(rep.lower_bound_check) <= 1e-9


def test_stationary_at_minimizer():
    prob = halfsq_problem()
    rep = stationarity(prob, prob.phi, np.zeros(2), 0.7)
    assert rep.divergence <= 1e-18
    assert np.linalg.norm(rep.envelope_gradient) <= 1e-9


def test_constant_objective_both_paths():
    d = 2
    f = lambda y: 3.25
    oracle = NoisyGradientOracle(
        f, lambda y: np.zeros(d), lambda rng, n: np.zeros((n, d)), regime="B",
        constants=OracleConstants(),
        test_point_sampler=lambda rng: rng.uniform(-2, 2, d))
    prob = ProblemInstance("CONST", oracle, ZeroRegularizer(), Euclidean(),
                           "B", d, np.zeros(d), sampler=oracle.test_point_sampler)
    prob._objective_builder = lambda: PointModel(
        f, lambda y: np.zeros(d), hessian_fn=lambda y: np.zeros((d, d)))
    for x in (np.zeros(2), np.array([1.3, -0.2])):
        assert envelope_value(prob, prob.phi, x, 0.9, path="direct") == pytest.approx(3.25, abs=1e-10)
        assert envelope_value(prob, prob.phi, x, 0.9, path="conjugate") == pytest.approx(3.25, abs=1e-10)


def phi_cases():
    return [
        smooth_problem(Euclidean()),
        smooth_problem(build_norm_power_legendre([1.0, 0.0, 1.0])),
        smooth_problem(ShannonEntropy(), center=np.array([1.2, 0.8])),
    ]


def test_envelope_is_a_minorant():
    rng = np.random.default_rng(0)
    for prob in phi_cases():
        for _ in range(20):
            x = prob.sample_domain_point(rng)
            env = envelope_value(prob, prob.phi, x, 0.5)
            assert env <= prob.exact_F(x) + 1e-10


def test_direct_and_conjugate_paths_agree():
    rng = np.random.default_rng(1)
    for prob in phi_cases():
        for _ in range(15):
            x = prob.sample_domain_point(rng)
            a = envelope_value(prob, prob.phi, x, 0.5, path="direct")
            b = envelope_value(prob, prob.phi, x, 0.5, path="conjugate")
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a)), prob.id


def test_gradient_formula_matches_finite_differences():
    rng = np.random.default_rng(2)
    lam = 0.5
    for prob in phi_cases():
        for _ in range(8):
            x = prob.sample_domain_point(rng)
            g = envelope_gradient(prob, prob.phi, x, lam, tol=1e-12)
            h = finite_difference_step(x)
            fd = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (envelope_value(prob, prob.phi, x + e, lam, tol=1e-12)
                         - envelope_value(prob, prob.phi, x - e, lam, tol=1e-12)) / (2 * h)
            err = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(fd))
            assert err <= 1e-5, prob.id


def test_local_norm_lower_bound():
    rng = np.random.default_rng(3)
    lam = 0.5
    for prob in phi_cases():
        if prob.phi.strong_convexity_modulus is None:
            continue
        for _ in range(20):
            x = prob.sample_domain_point(rng)
            rep = stationarity(prob, prob.phi, x, lam)
            assert rep.lower_bound_check is not None
            assert rep.lower_bound_check >= -1e-9
    # entropy off the simplex declares no modulus: the bound is not claimed
    ent_prob = phi_cases()[2]
    rep = stationarity(ent_prob, ent_prob.phi, np.array([1.0, 1.0]), lam)
    assert rep.lower_bound_check is None


def test_monotone_in_lambda():
    rng = np.random.default_rng(4)
    for prob in phi_cases():
        x = prob.sample_domain_point(rng)
        lams = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [envelope_value(prob, prob.phi, x, lam) for lam in lams]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10


def test_lambda_admissibility_enforced():
    p1 = get_problem("P1")
    tau = p1.oracle.constants.tau
    with pytest.raises(ValueError):
        bregman_prox_point(p1, p1.phi, p1.x0, 1.0 / tau)
    with pytest.raises(ValueError):
        envelope_value(p1, p1.phi, p1.x0, -0.1)


def _golden_prox_1d(problem, x, lam):
    """Golden-section minimizer of F(y) + D(y, x) / lam inside a grid bracket."""
    def total(y):
        return problem.exact_F(np.array([y])) + problem.phi.bregman(np.array([y]), x) / lam

    ts = np.linspace(-2.5, 2.5, 2001)
    vals = np.array([total(t) for t in ts])
    k = int(np.argmin(vals))
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    invphi = (np.sqrt(5) - 1) / 2
    while b - a > 1e-12:
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        if total(c) < total(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def test_piecewise_1d_prox_matches_golden_oracle():
    p1 = get_problem("P1")
    lam = 0.25
    x = np.array([1.4])
    x_hat = bregman_prox_point(p1, p1.phi, x, lam, tol=1e-12)
    assert abs(x_hat[0] - _golden_prox_1d(p1, x, lam)) <= 1e-8

    # one batch through P1's pieces: centers within 1e-9 of the kinks
    # +-sqrt(b_i)/a_i of F, and at the ends of the sampling box
    a = np.asarray(p1.config["a"], dtype=float)
    b = np.asarray(p1.config["b"], dtype=float)
    kinks = np.sqrt(b[:4]) / a[:4]
    centers = np.concatenate([kinks + 3e-10, -kinks - 7e-10, [2.5, -2.5, 1.4]])
    X = centers[:, None]
    X_hat = bregman_prox_points(p1, p1.phi, X, lam, tol=1e-12)
    assert X_hat.shape == X.shape
    for x, y in zip(X, X_hat):
        assert abs(y[0] - _golden_prox_1d(p1, x, lam)) <= 1e-8, x
        one = bregman_prox_point(p1, p1.phi, x, lam, tol=1e-12)
        assert abs(y[0] - one[0]) <= 1e-14 * (1.0 + abs(one[0])), x


@settings(max_examples=60, deadline=None)
@given(centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=24),
       lam_frac=st.floats(0.02, 0.98))
def test_batched_1d_prox_agrees_with_single_solves(centers, lam_frac):
    # relative to 1 + |y|, the scale of the bisection's stopping width
    p1 = get_problem("P1")
    lam = lam_frac / p1.oracle.constants.tau
    X = np.array(centers)[:, None]
    X_hat = bregman_prox_points(p1, p1.phi, X, lam)
    for x, y in zip(X, X_hat):
        one = bregman_prox_point(p1, p1.phi, x, lam)
        assert abs(y[0] - one[0]) <= 1e-14 * (1.0 + abs(one[0]))


def test_euclidean_p1_envelope_takes_the_1d_bisection(monkeypatch):
    # P1's pieces have a closed form only under phi = c2 y^2 + c4 y^4, so
    # with phi = y^2 / 2 the envelope's prox points take the 1-d bisection
    cfg = next(c for c in default_configs() if c["id"] == "P1")
    p1 = instance_from_config(dict(cfg, phi={"kind": "euclidean"}))
    lam = default_lambda(p1)
    batches = []
    bisection = envelope.prox_points_1d

    def counted(model, reg, phi, centers, *args, **kwargs):
        batches.append(len(centers))
        return bisection(model, reg, phi, centers, *args, **kwargs)

    monkeypatch.setattr(envelope, "prox_points_1d", counted)
    xs = np.array([-2.4, -0.9, 0.0, 0.35, 1.7, 2.5])
    ys = bregman_prox_points(p1, p1.phi, xs[:, None], lam)[:, 0]
    assert batches == [xs.size]

    # each point minimizes F(y) + (y - x)^2 / (2 lam): a 60001-point grid of
    # F from the atoms, then a golden-section polish around its best point
    a2, b = np.asarray(cfg["a"]) ** 2, np.asarray(cfg["b"])
    w = np.asarray(cfg["weights"])
    grid = np.linspace(-3.0, 3.0, 60001)
    F_grid = np.abs(np.outer(grid * grid, a2) - b) @ w
    for x, y in zip(xs, ys):
        def total(t, x=x):
            return p1.exact_F(np.array([t])) + (t - x) ** 2 / (2.0 * lam)

        k = int(np.argmin(F_grid + (grid - x) ** 2 / (2.0 * lam)))
        assert 0 < k < grid.size - 1, x
        t, g = _golden_polish(total, grid[k - 1], grid[k + 1])
        assert total(y) - g <= 1e-12 * (1.0 + abs(g)), x
        assert abs(y - t) <= 1e-6, x

    # a sweep whose metric averages over the whole t* law completes
    res = sweep(p1, [4, 8], 2, metric_mode="tstar_full")
    assert len(batches) > 1 and np.isfinite(res.values).all()


def test_batched_prox_points_in_2d_equal_single_solves():
    # P2 (one lockstep Newton over the rows of its smooth exact objective),
    # P6 (one secular solve over the rows of its quadratic exact objective)
    # and P5 (one batched shrinkage): each row of a batch is the
    # point's own solve, bit for bit, and the per-point prox step agrees
    rng = np.random.default_rng(11)
    for pid in ("P2", "P5", "P6"):
        prob = get_problem(pid)
        c = prob.oracle.constants
        lam = 0.5 / (c.tau + c.rho) if c.tau + c.rho > 0 else 0.7
        X = np.array([prob.sample_domain_point(rng) for _ in range(6)])
        X_hat = bregman_prox_points(prob, prob.phi, X, lam)
        for x, y in zip(X, X_hat):
            assert np.array_equal(y, bregman_prox_point(prob, prob.phi, x, lam)), pid
            step = prox_step(prob.exact_objective(), prob.regularizer, prob.phi, x,
                             lam, rho=c.tau + c.rho)
            assert np.allclose(y, step.minimizer, rtol=1e-9, atol=1e-12), pid


def test_a_d2_model_with_no_row_form_raises():
    # |y_1| + |y_2| is neither affine, |affine|, a norm term nor smooth: in
    # d > 1 no prox path solves it, so the step and the envelope raise
    model = PointModel(lambda y: float(np.abs(y).sum()), np.sign)
    with pytest.raises(InnerSolveError, match="row form"):
        prox_step(model, ZeroRegularizer(), Euclidean(), np.array([0.5, -0.3]), 0.5)
    prob = halfsq_problem()
    prob._objective_builder = lambda: model
    with pytest.raises(InnerSolveError, match="row form"):
        bregman_prox_points(prob, prob.phi, np.array([[0.5, -0.3], [1.0, 2.0]]), 0.5)


def test_a_one_row_form_stands_for_every_row_of_a_batch():
    # an |affine| objective's row form has one row; the d > 1 batch applies
    # it to every prox point (theta = +1, theta = -1 and bisected rows alike),
    # each row bit for bit its own prox step
    prob = halfsq_problem()
    prob._objective_builder = lambda: absolute_affine_model(np.array([1.0, -2.0]), 0.3)
    X = np.array([[0.5, 0.5], [2.0, -1.0], [-1.0, 0.2], [-2.0, 1.5]])
    X_hat = bregman_prox_points(prob, prob.phi, X, 0.8)
    for x, y in zip(X, X_hat):
        step = prox_step(prob.exact_objective(), ZeroRegularizer(), prob.phi, x, 0.8)
        assert np.array_equal(y, step.minimizer)
