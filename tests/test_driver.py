import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from util_problems import quadratic_problem

from bregopt import envelope
from bregopt.driver import (SolverConfig, convex_gap, default_lambda, fit_loglog,
                            format_csv_rows, parse_csv_rows, run_convex,
                            run_for_regime, run_mirror_descent_smooth,
                            run_model_based, sample_tstar, stepsize_constant,
                            stationarity_over_tstar_law, sweep, _resolve_etas,
                            _run_loop)
from bregopt.envelope import bregman_prox_point, stationarity
from bregopt.problems import get_problem, registry
from bregopt.subproblem import prox_step_rows

ROOT = Path(__file__).resolve().parent.parent


def test_stepsize_formulas():
    assert stepsize_constant(1.0, 1.0, 3, "A") == pytest.approx(1.0 / 3.0)
    assert stepsize_constant(1.0, 1.0, 3, "B", M=2.0) == pytest.approx(0.2)
    assert stepsize_constant(1.0, 2.0, 99, "C") == pytest.approx(0.2)
    with pytest.raises(ValueError):
        stepsize_constant(-1.0, 1.0, 3, "A")
    with pytest.raises(ValueError):
        stepsize_constant(1.0, 0.0, 3, "A")


def test_sample_tstar_weights():
    rng = np.random.default_rng(0)
    # eta = (1/2, 1/4) with rho = 0 gives probabilities (2/3, 1/3)
    draws = sample_tstar([0.5, 0.25], 0.0, rng, size=200000)
    freq = np.bincount(draws, minlength=2) / draws.size
    assert abs(freq[0] - 2.0 / 3.0) <= 3 * np.sqrt((2 / 3) * (1 / 3) / draws.size)
    # a single step index is returned with probability one
    assert sample_tstar([0.5], 0.9, rng) == 0
    with pytest.raises(ValueError):
        sample_tstar([0.5, 0.5], 2.0, rng)


def test_tstar_chi_square_against_weights():
    rng = np.random.default_rng(1)
    etas = 1.0 / (np.arange(8) + 2.0)
    rho = 0.5
    w = etas / (1.0 - etas * rho)
    p = w / w.sum()
    draws = sample_tstar(etas, rho, rng, size=20000)
    obs = np.bincount(draws, minlength=etas.size)
    assert stats.chisquare(obs, p * draws.size).pvalue >= 1e-3


def test_reduction_to_explicit_gradient_descent():
    # with deterministic gradients, Euclidean phi, and r = 0 the loop is
    # bitwise the recursion x_{t+1} = x_t - eta_t grad f(x_t)
    x0 = np.array([1.7, -0.4])
    prob = quadratic_problem(x0)
    etas = [0.5, 0.4, 0.3, 0.3, 0.2, 0.1]
    config = SolverConfig(5, seed=0, lam=1.0, schedule=("explicit", etas))
    trace = run_model_based(prob, config)
    x = x0.copy()
    for t, eta in enumerate(etas):
        assert np.array_equal(trace.iterates[t], x)
        x = x - eta * x  # grad f(x) = x for x_star = 0
    assert np.array_equal(trace.iterates[-1], x)


def test_seed_determinism():
    p1 = get_problem("P1")
    a = run_model_based(p1, SolverConfig(30, seed=42))
    b = run_model_based(p1, SolverConfig(30, seed=42))
    assert np.array_equal(a.iterates, b.iterates)
    assert a.sampled_xi_ids == b.sampled_xi_ids
    assert a.t_star == b.t_star
    c = run_model_based(p1, SolverConfig(30, seed=43))
    assert not np.array_equal(a.iterates, c.iterates)


def test_p6_steps_take_the_secular_equation_and_p2_newton(monkeypatch):
    # P6's quadratic models and exact objective take the secular equation in
    # the outer steps and the t*-law batch; P2's smooth quartic objective
    # still takes the lockstep Newton in its envelope batch
    from bregopt import subproblem
    calls = []

    def counted(*args, **kwargs):
        # the centres arrive as their RowState
        calls.append(len(args[2].points))
        return newton_rows(*args, **kwargs)

    newton_rows = subproblem.newton_rows
    monkeypatch.setattr(subproblem, "newton_rows", counted)
    res = sweep(get_problem("P6"), [4, 8], 2, metric_mode="tstar_full")
    assert calls == [] and len(res.rows) == 8
    sweep(get_problem("P2"), [4], 2, metric_mode="tstar_full")
    assert calls == [10]


def test_p1_envelope_takes_its_pieces_not_the_bisection(monkeypatch):
    # P1's exact objective carries its pieces (AbsQuadraticRows): the t*-law
    # batches and a prox step on it close in form, with no 1-d bisection
    from bregopt import subproblem
    calls = []
    solve_1d = subproblem._solve_1d
    monkeypatch.setattr(subproblem, "_solve_1d",
                        lambda *a, **k: calls.append(1) or solve_1d(*a, **k))
    prob = get_problem("P1")
    res = sweep(prob, [4, 8], 2, metric_mode="tstar_full")
    assert calls == [] and len(res.rows) == 8
    c = prob.oracle.constants
    step = subproblem.prox_step(prob.exact_objective(), prob.regularizer, prob.phi,
                                np.array([1.2]), 0.5 / (c.tau + c.rho),
                                rho=c.tau + c.rho)
    assert step.method == "closed_form_abs_quadratic" and calls == []


def test_tstar_law_metric_matches_a_loop_over_iterates():
    # P1 solves its prox points from its pieces, P6 in one secular solve
    for pid in ("P1", "P6"):
        prob = get_problem(pid)
        tr = run_model_based(prob, SolverConfig(20, seed=5))
        w = tr.etas / (1.0 - tr.etas * prob.oracle.constants.rho)
        w = w / w.sum()
        ref = 0.0
        for weight, x in zip(w, tr.iterates):
            x_hat = bregman_prox_point(prob, prob.phi, x, tr.lam)
            ref += weight * prob.phi.bregman(x_hat, x)
        got = stationarity_over_tstar_law(prob, tr)
        assert abs(got - ref) <= 1e-12 * abs(ref), pid


def test_feasibility_of_iterates():
    p3 = get_problem("P3")
    tr = run_convex(p3, SolverConfig(60, seed=7))
    assert np.all(tr.iterates > 0)
    assert np.allclose(tr.iterates.sum(axis=1), 1.0, atol=1e-9)
    p5 = get_problem("P5")
    tr = run_model_based(p5, SolverConfig(60, seed=7))
    assert np.all(np.linalg.norm(tr.iterates, axis=1) <= 2.0 + 1e-9)


def test_trace_shapes_and_t0():
    p1 = get_problem("P1")
    tr = run_model_based(p1, SolverConfig(0, seed=1))
    assert tr.iterates.shape == (2, 1)          # x_0 and x_1
    assert len(tr.etas) == 1 and len(tr.sampled_xi_ids) == 1
    assert tr.t_star == 0
    assert np.array_equal(tr.returned_point, tr.iterates[0])


def test_run_convex_averages():
    p3 = get_problem("P3")
    tr = run_convex(p3, SolverConfig(40, seed=2))
    # constant steps make the weighted average the plain average
    assert np.allclose(tr.weighted_average, tr.plain_average, atol=1e-12)
    assert np.allclose(tr.weighted_average, tr.iterates[:-1].mean(axis=0))
    tr0 = run_convex(p3, SolverConfig(0, seed=2))
    assert np.allclose(tr0.weighted_average, p3.x0)
    # the strongly convex schedule is eta_t = 1/(mu (t+1))
    p4 = get_problem("P4")
    tr4 = run_convex(p4, SolverConfig(2, seed=2, schedule=("strongly_convex",)))
    assert np.allclose(tr4.etas, [1.0, 0.5, 1.0 / 3.0])


def test_config_validation():
    p1 = get_problem("P1")
    c = p1.oracle.constants
    bad_lam = 1.0 / (c.tau + c.rho) * 1.01
    with pytest.raises(ValueError):
        run_model_based(p1, SolverConfig(3, seed=0, lam=bad_lam))
    with pytest.raises(ValueError):
        run_model_based(p1, SolverConfig(2, seed=0,
                                         schedule=("explicit", [0.1, 0.2, 0.1])))
    p3 = get_problem("P3")
    with pytest.raises(ValueError):
        run_convex(p3, SolverConfig(3, seed=0, schedule=("strongly_convex",)))
    p2 = get_problem("P2")
    lam = default_lambda(p2)
    cap = lam / (1.0 + lam * p2.oracle.constants.smooth_M)
    with pytest.raises(ValueError):
        run_mirror_descent_smooth(
            p2, SolverConfig(2, seed=0, lam=lam,
                             schedule=("explicit", [cap, cap, cap])))
    with pytest.raises(ValueError):
        run_model_based(p3, SolverConfig(3, seed=0))  # wrong regime for loop


def test_nonincreasing_sequence_lemma():
    # sum a_t (b_t - b_{t+1}) <= a_0 (b_0 - min_t b_t) for nonincreasing a > 0
    rng = np.random.default_rng(3)
    for _ in range(300):
        T = int(rng.integers(1, 40))
        a = np.sort(rng.uniform(0.01, 3.0, T + 1))[::-1]
        b = rng.uniform(-5.0, 5.0, T + 2)
        lhs = float(np.sum(a * (b[:-1] - b[1:])))
        rhs = a[0] * (b[0] - b.min())
        assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


def test_fit_loglog_converged_and_slope():
    fit = fit_loglog([8, 16, 32], [0.0, 0.0, 0.0])
    assert fit["converged"] and fit["slope"] is None
    ts = np.array([8, 16, 32, 64])
    fit = fit_loglog(ts, 3.0 / (ts + 1.0))
    assert fit["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0)


def test_one_horizon_fits_no_line():
    # a line through one point has no slope (np.polyfit would warn RankWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep(get_problem("P1"), [64], 2)
    assert res.fit == {"slope": None, "intercept": None, "r2": None,
                       "converged": False}
    assert res.slope_json()["slope"] is None


def test_a_p1_sweep_never_imports_scipy_optimize():
    # P1's |affine| steps take no slope search, so scipy.optimize (about
    # 0.5 s and 50 MB to import) stays out of the process; these horizons
    # put some steps at a kink
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from bregopt import driver, problems\n"
            "driver.sweep(problems.get_problem('P1'), [64, 256], 2,\n"
            "             metric_mode='tstar_full')\n"
            "print('scipy.optimize' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_a_p1_sweep_never_imports_numpy_ma():
    # numpy.ma (about 0.5 MB of resident memory) comes in lazily with
    # np.unique; building P1's kinks must not pull it into a sweep
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from bregopt.driver import sweep\n"
            "from bregopt.problems import get_problem\n"
            "sweep(get_problem('P1'), [8], 2, metric_mode='tstar_full')\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"


def test_sweep_zero_metric_reports_converged():
    # starting exactly at the minimizer of a deterministic problem keeps
    # every iterate and its proximal point there
    prob = quadratic_problem(np.zeros(2))
    res = sweep(prob, [4, 8], n_seeds=2, alpha=1.0)
    assert all(m == 0.0 for m in res.means)
    assert res.fit["converged"]
    assert res.slope_json()["slope"] is None


def test_sweep_rows_roundtrip_and_threads():
    p3 = get_problem("P3")
    res = sweep(p3, [8, 16], n_seeds=2)
    text = format_csv_rows(res.rows)
    back = parse_csv_rows(text)
    assert len(back) == len(res.rows)
    for row, orig in zip(back, res.rows):
        assert row["metric_value"] == orig["metric_value"]  # bit-exact
        assert row["eta0"] == orig["eta0"]
    js = res.slope_json()
    assert set(js) == {"slope", "intercept", "r2", "horizons", "n_seeds"}
    # the horizon means and standard errors are those of the target rows
    for T, mean, se in zip(res.horizons, res.means, res.std_errs):
        vals = np.array([r["metric_value"] for r in res.rows
                         if r["T"] == T and r["metric_name"] == res.metric_name])
        assert mean == float(vals.mean()) and se == float(vals.std(ddof=1) / np.sqrt(2))
    # concurrent execution assembles the same rows (modulo wall time)
    res2 = sweep(p3, [8, 16], n_seeds=2, threads=3)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                          for r in rows]
    assert strip(res2.rows) == strip(res.rows)


def test_sweep_horizons_must_increase():
    with pytest.raises(ValueError):
        sweep(get_problem("P3"), [16, 8], n_seeds=1)


def test_smooth_loop_on_simplex_is_exponentiated_gradient():
    # a linear objective is 0-relatively-smooth, so the regime-B loop on the
    # simplex must reproduce the multiplicative update with positive iterates
    from bregopt.legendre import ShannonEntropy
    from bregopt.models import LinearMirrorOracle, OracleConstants
    from bregopt.problems import ProblemInstance
    from bregopt.subproblem import SimplexIndicator, linear_model

    d = 4
    cost = np.array([0.9, 0.1, 0.5, 0.3])
    steps = np.array([[0.2, -0.1, 0.0, 0.1], [0.0, 0.2, -0.2, 0.0]])
    oracle = LinearMirrorOracle(
        f_fn=lambda x: x @ cost,
        grad_map=lambda x, xi: cost + steps[xi],
        weights=[0.5, 0.5], lip_fn=lambda xi: 2.0, regime="B",
        constants=OracleConstants(tau=0.0, smooth_M=0.0, lip_bound_L=2.0,
                                  variance_sigma=1.0),
        grad_f_fn=lambda x: cost.copy(),
        test_point_sampler=lambda rng: rng.dirichlet(np.ones(d)))
    prob = ProblemInstance("EG", oracle, SimplexIndicator(),
                           ShannonEntropy(on_simplex=True), "B", d,
                           np.full(d, 0.25), sampler=oracle.test_point_sampler)
    prob._objective_builder = lambda: linear_model(cost)
    trace = run_mirror_descent_smooth(prob, SolverConfig(10, seed=4))
    assert np.all(trace.iterates > 0)
    x = prob.x0.copy()
    for t in range(11):
        g = cost + steps[trace.sampled_xi_ids[t]]
        w = x * np.exp(-trace.etas[t] * g)
        x = w / w.sum()
        assert np.allclose(trace.iterates[t + 1], x, rtol=1e-12)


def test_deterministic_strongly_convex_descent_is_monotone():
    # sigma = 0 sanity check: after the first few steps the objective is
    # nonincreasing along the iterates
    prob = quadratic_problem(np.array([2.0, -1.5]))
    trace = run_model_based(prob, SolverConfig(30, seed=0, lam=1.0,
                                               schedule=("constant", 1.0)))
    vals = [prob.exact_F(x) for x in trace.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(vals[2:], vals[3:]))


TRACE_FIELDS = ("iterates", "model_values", "r_values", "step_divergences",
                "step_residuals", "weighted_average", "plain_average")


def test_lockstep_runs_equal_separate_runs():
    # one (S, d) loop over the seeds of a horizon against S one-config runs:
    # bit-identical where the step is elementwise or per row (P1 abs-affine,
    # P3/P4 entropic, P6 secular); P2's radial and P5's ball steps take row
    # norms and dot products, bit-identical here but only promised to 1e-13
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        prob = get_problem(pid)
        configs = [SolverConfig(12, seed=[s, 12]) for s in range(3)]
        together = _run_loop(prob, configs)
        for config, tr in zip(configs, together):
            alone = run_for_regime(prob, config)
            assert tr.t_star == alone.t_star, pid
            assert np.array_equal(np.asarray(tr.sampled_xi_ids),
                                  np.asarray(alone.sampled_xi_ids)), pid
            for field in TRACE_FIELDS:
                a, b = getattr(tr, field), getattr(alone, field)
                if a is None:
                    assert b is None, (pid, field)
                elif pid in ("P2", "P5"):
                    assert np.allclose(a, b, rtol=1e-13, atol=1e-13), (pid, field)
                else:
                    assert np.array_equal(a, b), (pid, field)


def test_sweep_rows_equal_metrics_of_separate_runs():
    for pid, mode in (("P3", "tstar_draw"), ("P5", "tstar_draw"),
                      ("P1", "tstar_full")):
        prob = get_problem(pid)
        res = sweep(prob, [6, 10], 2, metric_mode=mode)
        rows = {(r["T"], r["seed"], r["metric_name"]): r["metric_value"]
                for r in res.rows}
        for T in (6, 10):
            for s in range(2):
                tr = run_for_regime(prob, SolverConfig(T, seed=[s, T]))
                if prob.regime == "C":
                    assert rows[T, s, "fgap_avg"] == convex_gap(prob, tr)
                    continue
                rep = stationarity(prob, prob.phi, tr.returned_point, tr.lam)
                metric = (stationarity_over_tstar_law(prob, tr)
                          if mode == "tstar_full" else rep.divergence)
                assert rows[T, s, "breg_div_to_prox"] == metric, (pid, T, s)
                # tstar_full takes the report's prox point from the t* batch
                assert abs(rows[T, s, "env_grad_local_norm"]
                           - rep.local_dual_norm_of_gradient) <= \
                    1e-12 * rep.local_dual_norm_of_gradient, (pid, T, s)


def test_tstar_full_solves_the_returned_point_once(monkeypatch):
    # no cell solves its returned point alone: tstar_full takes it from the
    # horizon's t*-law batch (S (T + 1) rows), tstar_draw from one batch of
    # the S returned points per horizon
    calls, batches = [], []
    single = envelope.bregman_prox_point
    batch = envelope.bregman_prox_points
    monkeypatch.setattr(envelope, "bregman_prox_point",
                        lambda *a, **k: calls.append(1) or single(*a, **k))
    monkeypatch.setattr(envelope, "bregman_prox_points",
                        lambda *a, **k: batches.append(len(a[2])) or batch(*a, **k))
    sweep(get_problem("P1"), [4, 8], 2, metric_mode="tstar_full")
    assert calls == [] and batches == [10, 18]
    del batches[:]
    sweep(get_problem("P1"), [4, 8], 2, metric_mode="tstar_draw")
    assert calls == [] and batches == [2, 2]


def test_lockstep_loop_needs_a_batched_step():
    # an l1 term under a radial kernel has no affine closed form, so the
    # loop, which steps every row at once, refuses the problem
    from bregopt.legendre import build_poly_legendre
    from bregopt.subproblem import L1Regularizer

    prob = quadratic_problem(np.array([1.0, -0.5]))
    prob.regularizer = L1Regularizer(0.1)
    prob.phi = build_poly_legendre([1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="no batched prox step"):
        run_model_based(prob, SolverConfig(3, seed=0))


def test_lockstep_configs_must_share_their_steps():
    p3 = get_problem("P3")
    with pytest.raises(ValueError):
        _run_loop(p3, [SolverConfig(8, seed=0), SolverConfig(9, seed=1)])
    with pytest.raises(ValueError):
        _run_loop(p3, [SolverConfig(8, seed=0),
                       SolverConfig(8, seed=1, schedule=("constant", 0.5))])


@pytest.mark.parametrize("pid", ["P3", "P4"])
@pytest.mark.parametrize("alpha", [100.0, 1000.0])
def test_large_entropic_steps_complete(pid, alpha):
    # simplex coordinates fall to 1e-177 and then to exactly 0.0; their
    # carried logs stay finite, so no step leaves int dom phi
    res = sweep(get_problem(pid), [64], 4, alpha=alpha)
    assert np.isfinite(res.values).all() and (res.values >= 0.0).all()


def _reference_loop(problem, configs):
    # _run_loop's iterates by prox_step_rows calls that re-derive every
    # centre's state from its points, with the same samples and step sizes
    _, etas = _resolve_etas(problem, configs[0], problem.regime)
    oracle, reg, phi = problem.oracle, problem.regularizer, problem.phi
    T = configs[0].horizon_T
    xis = np.stack([oracle.sample_rows(np.random.default_rng(c.seed), T + 1)
                    for c in configs], axis=1)
    X = np.tile(problem.x0, (len(configs), 1))
    out = [X]
    for t in range(T + 1):
        res = prox_step_rows(oracle.model_rows(X, xis[t]), reg, phi, X, float(etas[t]),
                             rho=oracle.constants.rho)
        X = res.minimizer.copy()
        out.append(X)
        if phi.radial_terms() is not None:
            # the state a step returns is that of a fresh centre at its minimizer
            state = res.state
            assert np.array_equal(state.points, X)
            assert np.array_equal(state.values, phi.value_rows(X))
            assert np.array_equal(state.mirror, phi.gradient_rows(X))
            assert np.array_equal(state.r, reg.value_rows(X))
    return np.stack(out, axis=1)


def test_carried_state_reproduces_a_loop_that_rederives_it():
    # bit for bit on the radial kernels (P1, P2, P5, P6); the entropic steps
    # (P3, P4) carry log x, which a re-derived log(exp(log x)) matches to
    # float64 rounding, so their tolerance comes from the dtype, not the data
    for problem in registry():
        configs = [SolverConfig(40, seed=[s, 40]) for s in range(3)]
        carried = np.array([tr.iterates for tr in _run_loop(problem, configs)])
        ref = _reference_loop(problem, configs)
        if problem.phi.radial_terms() is not None:
            assert np.array_equal(carried, ref), problem.id
        else:
            np.testing.assert_allclose(carried, ref, rtol=1e-12, atol=0.0,
                                       err_msg=problem.id)
