import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from util_problems import (RowModel, euclidean_p1, halfsq_problem, row_model_problem,
                           smooth_problem)

from bregopt import envelope
from bregopt.envelope import (bregman_prox_point, bregman_prox_points, stationarity,
                              stationarity_rows)
from bregopt.legendre import (Euclidean, ShannonEntropy,
                              build_norm_power_legendre, finite_difference_step)
from bregopt.driver import SolverConfig, _run_loop, default_lambda, run_for_regime, sweep
from bregopt.models import NoisyGradientOracle, OracleConstants
from bregopt.problems import (ProblemInstance, default_configs, get_problem,
                              instance_from_config)
from bregopt.subproblem import (InnerSolveError, SmoothRows, ZeroRegularizer,
                                absolute_affine_model, inner_solve, linear_model,
                                prox_points_1d, prox_step, prox_step_rows)
from bregopt.validation import _golden_polish


def test_halfsq_closed_forms():
    prob = halfsq_problem()
    x = np.array([2.0, 0.0])
    x_hat = bregman_prox_point(prob, prob.phi, x, 1.0)
    assert np.allclose(x_hat, [1.0, 0.0], atol=1e-10)
    rep = stationarity(prob, prob.phi, x, 1.0)
    assert rep.envelope_value_direct == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rep.envelope_gradient, [1.0, 0.0], atol=1e-10)
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
    prob = ProblemInstance("CONST", oracle, ZeroRegularizer(), Euclidean(), np.zeros(d))
    prob.objective = SmoothRows(lambda Y: np.full(len(Y), 3.25), np.zeros_like,
                                lambda Y: np.zeros(Y.shape + (d,)))
    for x in (np.zeros(2), np.array([1.3, -0.2])):
        rep = stationarity(prob, prob.phi, x, 0.9)
        assert rep.envelope_value_direct == pytest.approx(3.25, abs=1e-10)
        assert rep.envelope_value_conjugate == pytest.approx(3.25, abs=1e-10)


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
            x = prob.oracle.draw_test_point(rng)
            env = stationarity(prob, prob.phi, x, 0.5).envelope_value_direct
            assert env <= prob.exact_F(x) + 1e-10


def test_direct_and_conjugate_paths_agree():
    rng = np.random.default_rng(1)
    for prob in phi_cases():
        for _ in range(15):
            x = prob.oracle.draw_test_point(rng)
            rep = stationarity(prob, prob.phi, x, 0.5)
            a, b = rep.envelope_value_direct, rep.envelope_value_conjugate
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a)), prob.id


def test_gradient_formula_matches_finite_differences():
    rng = np.random.default_rng(2)
    lam = 0.5
    for prob in phi_cases():
        for _ in range(8):
            x = prob.oracle.draw_test_point(rng)
            g = stationarity(prob, prob.phi, x, lam).envelope_gradient
            h = finite_difference_step(x)
            fd = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (stationarity(prob, prob.phi, x + e, lam).envelope_value_direct
                         - stationarity(prob, prob.phi, x - e, lam).envelope_value_direct
                         ) / (2 * h)
            err = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(fd))
            assert err <= 1e-5, prob.id


def test_local_norm_lower_bound():
    rng = np.random.default_rng(3)
    lam = 0.5
    for prob in phi_cases():
        if prob.phi.strong_convexity_modulus is None:
            continue
        for _ in range(20):
            x = prob.oracle.draw_test_point(rng)
            rep = stationarity(prob, prob.phi, x, lam)
            assert rep.lower_bound_check is not None
            assert rep.lower_bound_check >= -1e-9
    # entropy off the simplex declares no modulus: the bound is not claimed
    ent_prob = phi_cases()[2]
    rep = stationarity(ent_prob, ent_prob.phi, np.array([1.0, 1.0]), lam)
    assert rep.lower_bound_check is None


@pytest.mark.parametrize("pid", ["P1", "P2", "P5", "P6"])
def test_row_reports_equal_the_reports_at_each_point(pid):
    # the S points' reports in one row pass, bit for bit the report at each
    # point and the pointwise divergence and local dual norm of
    # (1/lam) hessian(x) (x - prox(x)), with the prox points solved here or
    # given
    prob = get_problem(pid)
    tr = run_for_regime(prob, SolverConfig(20, seed=3))
    X, lam, phi = tr.iterates[::3], tr.lam, prob.phi
    rows = stationarity_rows(prob, phi, X, lam)
    given = stationarity_rows(prob, phi, X, lam, X_hat=rows.prox_point)
    for i, x in enumerate(X):
        one = stationarity(prob, phi, x, lam)
        x_hat = one.prox_point
        assert np.array_equal(rows.prox_point[i], x_hat), (pid, i)
        dual = phi.local_dual_norm(x, phi.hessian_apply(x, x - x_hat) / lam)
        for rep in (rows, given):
            assert rep.divergence[i] == one.divergence == phi.bregman(x_hat, x), (pid, i)
            assert rep.local_dual_norm_of_gradient[i] == one.local_dual_norm_of_gradient \
                == dual, (pid, i)
            assert rep.envelope_value_direct[i] == one.envelope_value_direct, (pid, i)
            assert np.array_equal(rep.envelope_gradient[i], one.envelope_gradient), (pid, i)


def test_a_row_whose_envelope_paths_disagree_raises(monkeypatch):
    # the direct/conjugate cross-check holds for every row of a batch
    prob = get_problem("P6")
    values = envelope._envelope_values

    def skewed(*args):
        div, direct, conjugate = values(*args)
        conjugate = conjugate.copy()
        conjugate[2] += 1e-3 * (1.0 + abs(direct[2]))
        return div, direct, conjugate

    X = prob.x0 * np.linspace(0.5, 1.5, 4)[:, None]
    stationarity_rows(prob, prob.phi, X, 0.5)
    monkeypatch.setattr(envelope, "_envelope_values", skewed)
    with pytest.raises(RuntimeError, match=r"disagree: .* \(row 2\)"):
        stationarity_rows(prob, prob.phi, X, 0.5)


def test_monotone_in_lambda():
    rng = np.random.default_rng(4)
    for prob in phi_cases():
        x = prob.oracle.draw_test_point(rng)
        lams = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [stationarity(prob, prob.phi, x, lam).envelope_value_direct for lam in lams]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10


def test_lambda_admissibility_enforced():
    p1 = get_problem("P1")
    tau = p1.oracle.constants.tau
    with pytest.raises(ValueError, match=r"lam violates lam \* \(tau \+ rho\) < 1"):
        bregman_prox_point(p1, p1.phi, p1.x0, 1.0 / tau)
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        stationarity(p1, p1.phi, p1.x0, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_step_size_or_lambda_that_is_not_finite_raises(bad):
    # NaN fails every comparison, so range checks alone let it through: a
    # prox step of eta = NaN or inf ended in its certificate ("three-point
    # residual nan < -nan"), P1's envelope at lam = NaN in "failed to bracket
    # the 1-d minimizer", and P5's at lam = inf in a RuntimeWarning
    model, reg, phi = linear_model([1.0]), ZeroRegularizer(), Euclidean()
    steps = (lambda eta, rho: prox_step(model, reg, phi, [0.5], eta, rho),
             lambda eta, rho: prox_step_rows(model, reg, phi, [[0.5], [1.0]], eta, rho),
             lambda eta, rho: inner_solve(model, reg, phi, [0.5], eta, rho=rho),
             lambda eta, rho: prox_points_1d(model, reg, phi, np.array([0.5]), eta, rho))
    for step in steps:
        with pytest.raises(ValueError, match="step size eta must be finite and positive"):
            step(bad, 0.0)
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            step(0.5, abs(bad))
    for pid in ("P1", "P5"):
        prob = get_problem(pid)
        for report in (stationarity, bregman_prox_point):
            with pytest.raises(ValueError, match="lam must be finite and positive"):
                report(prob, prob.phi, prob.x0, bad)


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
    x_hat = bregman_prox_point(p1, p1.phi, x, lam)
    assert abs(x_hat[0] - _golden_prox_1d(p1, x, lam)) <= 1e-8

    # one batch through P1's pieces: centers within 1e-9 of the kinks
    # +-sqrt(b_i)/a_i of F, and at the ends of the sampling box
    a = np.asarray(p1.config["a"], dtype=float)
    b = np.asarray(p1.config["b"], dtype=float)
    kinks = np.sqrt(b[:4]) / a[:4]
    centers = np.concatenate([kinks + 3e-10, -kinks - 7e-10, [2.5, -2.5, 1.4]])
    X = centers[:, None]
    X_hat = bregman_prox_points(p1, p1.phi, X, lam)
    assert X_hat.shape == X.shape
    for x, y in zip(X, X_hat):
        assert abs(y[0] - _golden_prox_1d(p1, x, lam)) <= 1e-8, x
        one = bregman_prox_point(p1, p1.phi, x, lam)
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


def test_euclidean_p1_envelope_closes_in_form(monkeypatch):
    # under phi = y^2 / 2 (and that kernel's tau, euclidean_p1) each of
    # P1's pieces is the linear (2 eta C_j + 1) y = c with 2 eta C_j + 1 > 0,
    # so the envelope's prox points close in form and no batch bisects;
    # each lies within 1e-13 (1 + |y|) of prox_points_1d on the same rows
    from bregopt import subproblem
    cfg = next(c for c in default_configs() if c["id"] == "P1")
    p1 = euclidean_p1()
    lam = default_lambda(p1)
    batches = []
    bisection = subproblem._bisection_rows

    def counted(reg, phi, rows, Z, eta):
        batches.append(len(Z.points))
        return bisection(reg, phi, rows, Z, eta)

    monkeypatch.setattr(subproblem, "_bisection_rows", counted)
    xs = np.array([-2.4, -0.9, 0.0, 0.35, 1.7, 2.5])
    ys = bregman_prox_points(p1, p1.phi, xs[:, None], lam)[:, 0]
    # one certified batch over the sampler's box, the centres near 0 too
    grid = np.linspace(-2.5, 2.5, 2001)
    res = envelope.prox_records(p1, p1.phi, grid[:, None], lam)
    assert res.method == "closed_form_abs_quadratic"
    assert (res.three_point_residual >= -1e-10).all()
    # a sweep whose metric averages over the whole t* law completes
    swept = sweep(p1, [4, 8], 2, metric_mode="tstar_full")
    assert batches == [] and np.isfinite(swept.values).all()
    c = p1.oracle.constants
    ref = prox_points_1d(p1.objective, p1.regularizer, p1.phi, np.concatenate([xs, grid]), lam,
                         rho=c.tau + c.rho)
    y = np.concatenate([ys, res.minimizer[:, 0]])
    assert np.all(np.abs(y - ref) <= 1e-13 * (1.0 + np.abs(ref)))

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


def test_batched_prox_points_in_2d_equal_single_solves():
    # P2 (one lockstep Newton over the rows of its smooth exact objective),
    # P6 (one secular solve over the rows of its quadratic exact objective)
    # and P5 (one radial solve with the norm-term weight): each row of a batch is the
    # point's own solve, bit for bit, and the per-point prox step agrees
    rng = np.random.default_rng(11)
    for pid in ("P2", "P5", "P6"):
        prob = get_problem(pid)
        c = prob.oracle.constants
        lam = 0.5 / (c.tau + c.rho) if c.tau + c.rho > 0 else 0.7
        X = np.array([prob.oracle.draw_test_point(rng) for _ in range(6)])
        X_hat = bregman_prox_points(prob, prob.phi, X, lam)
        for x, y in zip(X, X_hat):
            assert np.array_equal(y, bregman_prox_point(prob, prob.phi, x, lam)), pid
            step = prox_step(prob.objective, prob.regularizer, prob.phi, x,
                             lam, rho=c.tau + c.rho)
            assert np.allclose(y, step.minimizer, rtol=1e-9, atol=1e-12), pid


def test_a_d2_model_with_no_row_form_raises():
    # |y_1| + |y_2| is neither affine, |affine|, a norm term nor smooth: in
    # d > 1 no prox path solves it, so the step, the batch, the envelope and
    # the lockstep loop raise the one error of step_plan
    model = RowModel(lambda Y: np.abs(Y).sum(axis=-1), np.sign)
    prob = row_model_problem(model, [0.5, -0.3])
    X, reg, phi = np.array([[0.5, -0.3], [1.0, 2.0]]), prob.regularizer, prob.phi
    entries = [lambda: prox_step(model, reg, phi, X[0], 0.5),
               lambda: prox_step_rows(model, reg, phi, X, 0.5),
               lambda: envelope.prox_records(prob, phi, X, 0.5),
               lambda: _run_loop(prob, SolverConfig(3, seed=None), [0, 1])]
    for entry in entries:
        with pytest.raises(InnerSolveError) as info:
            entry()
        assert str(info.value) == ("RowModel has no batched prox step for r = zero and "
                                   "phi = euclidean")


def test_a_1d_model_with_no_closed_form_bisects_from_every_entry():
    # |y - 1/2| + y^4 under phi = y^2 / 2 has no closed form: the step, the
    # batch, the envelope and the lockstep loop take the 1-d bisection, bit
    # for bit prox_points_1d's; the loop's trace is checked step by step
    model = RowModel(lambda Y: np.abs(Y[:, 0] - 0.5) + Y[:, 0] ** 4,
                     lambda Y: (np.sign(Y[:, 0] - 0.5) + 4.0 * Y[:, 0] ** 3)[:, None])
    prob = row_model_problem(model, [1.3])
    reg, phi = prob.regularizer, prob.phi
    X = np.array([[-1.2], [0.0], [0.5], [0.9], [2.0]])
    ref = prox_points_1d(model, reg, phi, X[:, 0], 0.3)
    step = prox_step(model, reg, phi, X[3], 0.3)
    assert step.method == "bisection_1d" and step.minimizer[0] == ref[3]
    res = prox_step_rows(model, reg, phi, X, 0.3)
    assert res.method == "bisection_1d" and np.array_equal(res.minimizer[:, 0], ref)
    res = envelope.prox_records(prob, phi, X, 0.3)
    assert res.method == "bisection_1d" and np.array_equal(res.minimizer[:, 0], ref)
    traces = _run_loop(prob, SolverConfig(20, seed=None), [0, 1, 2])
    for tr in traces:
        for t, eta in enumerate(tr.etas):
            x = tr.iterates[t]
            assert tr.iterates[t + 1][0] == prox_points_1d(model, reg, phi, x, eta)[0], t
            assert tr.model_values[t] == model.values(tr.iterates[t + 1][None, :])[0], t


def test_a_one_row_form_stands_for_every_row_of_a_batch():
    # an |affine| objective's row form has one row; the d > 1 batch applies
    # it to every prox point (theta = +1, theta = -1 and bisected rows alike),
    # each row bit for bit its own prox step
    prob = halfsq_problem()
    prob.objective = absolute_affine_model(np.array([1.0, -2.0]), 0.3)
    X = np.array([[0.5, 0.5], [2.0, -1.0], [-1.0, 0.2], [-2.0, 1.5]])
    X_hat = bregman_prox_points(prob, prob.phi, X, 0.8)
    for x, y in zip(X, X_hat):
        step = prox_step(prob.objective, ZeroRegularizer(), prob.phi, x, 0.8)
        assert np.array_equal(y, step.minimizer)
