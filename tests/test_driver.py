import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from util_problems import quadratic_problem, root_mirror_excess, secular_mirror_excess

from bregopt import envelope
from bregopt.driver import (SolverConfig, convex_gap, default_lambda, fit_loglog,
                            format_csv_rows, parse_csv_rows, run_for_regime,
                            sample_tstar, stepsize_constant,
                            stationarity_over_tstar_law, sweep, tstar_weights,
                            _resolve_etas, _run_loop)
from bregopt.envelope import bregman_prox_point, stationarity
from bregopt.legendre import Euclidean, dot_rows, norm_rows
from bregopt.models import LinearMirrorOracle, choice_cdf
from bregopt.problems import get_problem, registry
from bregopt.subproblem import (RADIAL_TOL, InnerSolveError, power_terms, prox_step_rows,
                                record_rows)

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
    trace = run_for_regime(prob, config)
    x = x0.copy()
    for t, eta in enumerate(etas):
        assert np.array_equal(trace.iterates[t], x)
        x = x - eta * x  # grad f(x) = x for x_star = 0
    assert np.array_equal(trace.iterates[-1], x)


def test_seed_determinism():
    p1 = get_problem("P1")
    a = run_for_regime(p1, SolverConfig(30, seed=42))
    b = run_for_regime(p1, SolverConfig(30, seed=42))
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.sampled_xi_ids, b.sampled_xi_ids)
    assert a.t_star == b.t_star
    c = run_for_regime(p1, SolverConfig(30, seed=43))
    assert not np.array_equal(a.iterates, c.iterates)


def test_p6_steps_take_the_secular_equation_and_p2_newton(monkeypatch):
    # P6's quadratic models and exact objective take the secular equation in
    # the outer steps and the t*-law batch; P2's smooth quartic objective
    # still takes the lockstep Newton in its envelope batch
    from bregopt import subproblem
    calls = []

    def counted(*args, **kwargs):
        # the lockstep Newton of solve_rows; the centres arrive as their RowState
        calls.append(len(args[2].points))
        return newton(*args, **kwargs)

    newton = subproblem._newton
    monkeypatch.setattr(subproblem, "_newton", counted)
    res = sweep(get_problem("P6"), [4, 8], 2, metric_mode="tstar_full")
    assert calls == [] and len(res.rows) == 8
    sweep(get_problem("P2"), [4], 2, metric_mode="tstar_full")
    assert calls == [10]


def _secular_reference(power, rows, mirror, steps=60):
    # the root of s = sum b^2 / (eta lam + A(sqrt s))^2 in s = r^2, where
    # A(sqrt s) = const + a3 s for the powers {2, 4}, by Newton steps from
    # s = 0: s minus that sum is concave and increasing in s and negative at
    # 0, so the steps climb to the root; returns the minimizers U (b / D),
    # eta lam_min and A at the root, row by row
    lam, W, U = rows
    lam = np.broadcast_to(lam, mirror.shape)
    B = ((W + mirror)[:, None, :] @ U)[:, 0, :]
    BB, s = B * B, np.zeros(len(B))
    for _ in range(steps):
        D = lam + (power.const + power.a3 * s)[:, None]
        f = s - (BB / (D * D)).sum(axis=1)
        s = s - f / (1.0 + 2.0 * power.a3 * (BB / D ** 3).sum(axis=1))
    u = power.const + power.a3 * s
    return (U @ (B / (lam + u[:, None]))[:, :, None])[:, :, 0], lam[:, 0], u


def test_registry_p6_secular_steps_take_one_pass(monkeypatch):
    """Every secular solve of the registry's P6 sweeps (T = 64 and 256, 8
    seeds: the outer steps and the envelope's t*-law batches) stops after
    one pass: the Householder-corrected start meets the stop at once.  Each
    minimizer y lies within

        ||y - y_ref|| <= (RADIAL_TOL (eta lam_min + A(r_ref))
                          / (eta lam_min + A(0)) + 32 eps) ||y_ref||

    of the reference root y_ref of 60 Newton steps in s = r^2
    (_secular_reference): the stop bounds the KKT residual by
    RADIAL_TOL (eta lam_min + u) ||y||, the KKT map
    y -> eta Q y + grad phi(y) is strongly monotone with modulus
    eta lam_min + A(0), and each of the two solves rounds y by a few ulps
    in d = 2."""
    from bregopt import subproblem
    calls = []
    secular = subproblem._secular

    def recorded(power, growth, lam, W, U, mirror, *args):
        out = secular(power, growth, lam, W, U, mirror, *args)
        # the loop's buffers and the block's views are written again at each
        # record block
        calls.append(((np.array(lam), np.array(W), np.array(U)), mirror.copy(), out))
        return out

    # the plans and the block's secular steps call the solve
    monkeypatch.setattr(subproblem, "_secular", recorded)
    prob = get_problem("P6")
    sweep(prob, [64, 256], 8)
    power = power_terms(*prob.phi.radial_terms())
    assert power.closed
    # 65 + 257 outer steps and one envelope batch per horizon
    assert len(calls) == 65 + 257 + 2
    eps = np.finfo(float).eps
    for rows, mirror, (Y, M, passes, method) in calls:
        assert passes == 1
        ref, lam_min, u = _secular_reference(power, rows, mirror)
        bound = (RADIAL_TOL * (lam_min + u) / (lam_min + power.const) + 32 * eps) * norm_rows(ref)
        assert np.all(norm_rows(Y - ref) <= bound)


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
    step = subproblem.prox_step(prob.objective, prob.regularizer, prob.phi,
                                np.array([1.2]), 0.5 / (c.tau + c.rho),
                                rho=c.tau + c.rho)
    assert step.method == "closed_form_abs_quadratic" and calls == []


def test_tstar_law_metric_matches_a_loop_over_iterates():
    # P1 solves its prox points from its pieces, P6 in one secular solve
    for pid in ("P1", "P6"):
        prob = get_problem(pid)
        tr = run_for_regime(prob, SolverConfig(20, seed=5))
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
    tr = run_for_regime(p3, SolverConfig(60, seed=7))
    assert np.all(tr.iterates > 0)
    assert np.allclose(tr.iterates.sum(axis=1), 1.0, atol=1e-9)
    p5 = get_problem("P5")
    tr = run_for_regime(p5, SolverConfig(60, seed=7))
    assert np.all(np.linalg.norm(tr.iterates, axis=1) <= 2.0 + 1e-9)


def test_trace_shapes_and_t0():
    p1 = get_problem("P1")
    tr = run_for_regime(p1, SolverConfig(0, seed=1))
    assert tr.iterates.shape == (2, 1)          # x_0 and x_1
    assert len(tr.etas) == 1 and len(tr.sampled_xi_ids) == 1
    assert tr.t_star == 0
    assert np.array_equal(tr.returned_point, tr.iterates[0])


def test_run_convex_averages():
    p3 = get_problem("P3")
    tr = run_for_regime(p3, SolverConfig(40, seed=2))
    # constant steps make the weighted average the plain average
    assert np.allclose(tr.weighted_average, tr.plain_average, atol=1e-12)
    assert np.allclose(tr.weighted_average, tr.iterates[:-1].mean(axis=0))
    tr0 = run_for_regime(p3, SolverConfig(0, seed=2))
    assert np.allclose(tr0.weighted_average, p3.x0)
    # the strongly convex schedule is eta_t = 1/(mu (t+1))
    p4 = get_problem("P4")
    tr4 = run_for_regime(p4, SolverConfig(2, seed=2, schedule=("strongly_convex",)))
    assert np.allclose(tr4.etas, [1.0, 0.5, 1.0 / 3.0])


def test_config_validation():
    p1 = get_problem("P1")
    c = p1.oracle.constants
    bad_lam = 1.0 / (c.tau + c.rho) * 1.01
    with pytest.raises(ValueError, match=r"lam violates lam \* \(tau \+ rho\) < 1"):
        run_for_regime(p1, SolverConfig(3, seed=0, lam=bad_lam))
    # an increasing schedule whose steps all lie in (0, lam)
    lam = default_lambda(p1)
    with pytest.raises(ValueError, match="step sizes must be nonincreasing"):
        run_for_regime(p1, SolverConfig(2, seed=0, lam=lam,
                                        schedule=("explicit", [0.4 * lam, 0.6 * lam, 0.4 * lam])))
    p3 = get_problem("P3")
    with pytest.raises(ValueError, match="strongly convex schedule requires mu > 0"):
        run_for_regime(p3, SolverConfig(3, seed=0, schedule=("strongly_convex",)))
    p2 = get_problem("P2")
    lam = default_lambda(p2)
    cap = lam / (1.0 + lam * p2.oracle.constants.smooth_M)
    with pytest.raises(ValueError, match="smooth regime requires eta < lam"):
        run_for_regime(p2, SolverConfig(2, seed=0, lam=lam,
                                        schedule=("explicit", [cap, cap, cap])))


@pytest.mark.parametrize("lam, schedule", [
    (np.nan, ("constant", 1.0)),
    (None, ("constant", np.nan)),
    (None, ("explicit", [0.1, np.nan, 0.05])),
])
def test_a_step_size_that_is_not_finite_raises_before_the_loop(monkeypatch, lam, schedule):
    # every comparison with NaN is False, so the range checks alone let a NaN
    # lam, alpha or step size through to the loop's certificate
    from bregopt import driver

    def no_plan(*args):
        raise AssertionError("the loop started")

    monkeypatch.setattr(driver, "step_plan", no_plan)
    with pytest.raises(ValueError, match="finite"):
        run_for_regime(get_problem("P1"), SolverConfig(2, seed=0, lam=lam, schedule=schedule))


@pytest.mark.parametrize("schedule, message", [
    (("strongly_convex",), "convex-regime rule"),
    (("explicit", [0.1, 0.1, 0.1]), r"T\+1 entries"),
    (("explicit", [0.1, 0.05, 0.08, 0.02]), "nonincreasing"),
])
def test_a_schedule_outside_its_rule_raises(schedule, message):
    # the 1/(mu (t+1)) schedule outside regime C, an explicit schedule of
    # the wrong length and an increasing one (P1 is regime A, T = 3)
    with pytest.raises(ValueError, match=message):
        _resolve_etas(get_problem("P1"), SolverConfig(3, seed=0, schedule=schedule))


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
    # the closed-form line is numpy's least-squares one
    means = 3.0 / (ts + 1.0) ** 0.5 * np.array([1.3, 0.8, 1.1, 0.9])
    fit = fit_loglog(ts, means)
    slope, intercept = np.polyfit(np.log(ts + 1.0), np.log(means), 1)
    assert fit["slope"] == pytest.approx(slope, rel=1e-12)
    assert fit["intercept"] == pytest.approx(intercept, rel=1e-12)
    assert 0.0 < fit["r2"] < 1.0


def test_one_horizon_fits_no_line():
    # a line through one point has no slope (and raises no warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sweep(get_problem("P1"), [64], 2)
    assert res.fit == {"slope": None, "intercept": None, "r2": None,
                       "converged": False}
    assert res.slope_json()["slope"] is None


def test_the_library_runs_with_scipy_blocked():
    # scipy is a test dependency only: with every scipy import refused, each
    # registry problem sweeps (P1's horizons put some steps at a kink) and
    # validates, and a d > 1 |affine| step bisects its slope
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy is blocked: ' + name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import numpy as np\n"
            "from bregopt import cli, driver, legendre, problems, subproblem\n"
            "for prob in problems.registry():\n"
            "    driver.sweep(prob, [64, 256] if prob.id == 'P1' else [16, 64], 2,\n"
            "                 metric_mode='tstar_full')\n"
            "    assert cli.cli_main(['validate', prob.id, '--n-pairs', '10']) == 0\n"
            "step = subproblem.prox_step_rows(\n"
            "    subproblem.AffineRows(np.array([[1.0, -2.0, 0.5]]), np.array([0.1]), True),\n"
            "    subproblem.ZeroRegularizer(), legendre.ShannonEntropy(),\n"
            "    np.array([[0.2, 0.3, 0.5]]), 1.0)\n"
            "assert step.inner_iterations > 3, step.inner_iterations\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]


def test_a_p1_sweep_never_imports_numpy_ma():
    # numpy.ma (about 0.5 MB of resident memory) comes in lazily with
    # np.unique; building P1's kinks must not pull it into a sweep.  Nor
    # does importing bregopt compile its validation module: the package
    # exports those names on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "import bregopt\n"
            "from bregopt.driver import sweep\n"
            "from bregopt.problems import get_problem\n"
            "sweep(get_problem('P1'), [8], 2, metric_mode='tstar_full')\n"
            "print('numpy.ma' in sys.modules, 'bregopt.validation' in sys.modules)\n"
            "print(bregopt.brute_force_min.__module__)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split("\n")[:2] == ["False False", "bregopt.validation"]


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
    # horizons run one after another: any other thread count is refused
    with pytest.raises(ValueError, match="threads"):
        sweep(p3, [8, 16], n_seeds=2, threads=3)


def test_sweep_horizons_must_increase():
    with pytest.raises(ValueError):
        sweep(get_problem("P3"), [16, 8], n_seeds=1)


def test_sweep_rejects_an_empty_grid():
    p1 = get_problem("P1")
    with pytest.raises(ValueError, match="horizons"):
        sweep(p1, [], 2)
    for n_seeds in (0, -1):
        with pytest.raises(ValueError, match="n_seeds"):
            sweep(p1, [4], n_seeds)


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
        weights=[0.5, 0.5], lip=[2.0, 2.0], regime="B",
        constants=OracleConstants(tau=0.0, smooth_M=0.0, lip_bound_L=2.0,
                                  variance_sigma=1.0),
        grad_f_fn=lambda x: cost.copy(),
        test_point_sampler=lambda rng: rng.dirichlet(np.ones(d)))
    prob = ProblemInstance("EG", oracle, SimplexIndicator(),
                           ShannonEntropy(on_simplex=True), np.full(d, 0.25))
    prob.objective = linear_model(cost)
    trace = run_for_regime(prob, SolverConfig(10, seed=4))
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
    trace = run_for_regime(prob, SolverConfig(30, seed=0, lam=1.0,
                                              schedule=("constant", 1.0)))
    vals = [prob.exact_F(x) for x in trace.iterates]
    assert all(b <= a + 1e-12 for a, b in zip(vals[2:], vals[3:]))


TRACE_FIELDS = ("iterates", "model_values", "r_values", "step_divergences",
                "step_residuals", "weighted_average", "plain_average")
RECORD_FIELDS = ("model_values", "r_values", "step_divergences", "step_residuals")


def test_lockstep_runs_equal_separate_runs():
    # one (S, d) loop over the seeds of a horizon against S one-config runs:
    # bit-identical where the step is elementwise or per row (P1 abs-affine,
    # P3/P4 entropic, P6 secular); P2's radial and P5's ball steps take row
    # norms and dot products, bit-identical here but only promised to 1e-13.
    # At T = 130 P3/P4 scan 9 chunks of SCAN_STEPS steps, recorded in 5
    # blocks of 32 steps at S = 3 and in 2 blocks of 128 steps at S = 1:
    # bit-identical because the chunks start at fixed steps, whatever S
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        prob = get_problem(pid)
        for T in (12, 130):
            seeds = [[s, T] for s in range(3)]
            together = _run_loop(prob, SolverConfig(T, seed=None), seeds)
            for seed, tr in zip(seeds, together):
                alone = run_for_regime(prob, SolverConfig(T, seed=seed))
                assert tr.t_star == alone.t_star, (pid, T)
                assert np.array_equal(np.asarray(tr.sampled_xi_ids),
                                      np.asarray(alone.sampled_xi_ids)), (pid, T)
                for field in TRACE_FIELDS:
                    a, b = getattr(tr, field), getattr(alone, field)
                    if a is None:
                        assert b is None, (pid, T, field)
                    elif pid in ("P2", "P5"):
                        assert np.allclose(a, b, rtol=1e-13, atol=1e-13), (pid, T, field)
                    else:
                        assert np.array_equal(a, b), (pid, T, field)


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
    # the S returned points per horizon (bregman_prox_points, whose batch is
    # prox_records')
    calls, batches = [], []
    single = envelope.bregman_prox_point
    batch = envelope.prox_records
    monkeypatch.setattr(envelope, "bregman_prox_point",
                        lambda *a, **k: calls.append(1) or single(*a, **k))
    monkeypatch.setattr(envelope, "prox_records",
                        lambda *a, **k: batches.append(len(a[2])) or batch(*a, **k))
    sweep(get_problem("P1"), [4, 8], 2, metric_mode="tstar_full")
    assert calls == [] and batches == [10, 18]
    del batches[:]
    sweep(get_problem("P1"), [4, 8], 2, metric_mode="tstar_draw")
    assert calls == [] and batches == [2, 2]


def test_lockstep_loop_needs_a_batched_step():
    # an l1 term under a radial kernel has no affine closed form, so in
    # d = 2 the loop's plan (step_plan) refuses the problem
    from bregopt.legendre import build_poly_legendre
    from bregopt.subproblem import L1Regularizer

    prob = quadratic_problem(np.array([1.0, -0.5]))
    prob.regularizer = L1Regularizer(0.1)
    prob.phi = build_poly_legendre([1.0, 0.0, 1.0])
    with pytest.raises(InnerSolveError, match="no batched prox step"):
        run_for_regime(prob, SolverConfig(3, seed=0))


@pytest.mark.parametrize("pid", ["P3", "P4"])
@pytest.mark.parametrize("alpha", [100.0, 1000.0])
def test_large_entropic_steps_complete(pid, alpha):
    # simplex coordinates fall to 1e-177 and then to exactly 0.0; their
    # carried logs stay finite, so no step leaves int dom phi
    res = sweep(get_problem(pid), [64], 4, alpha=alpha)
    assert np.isfinite(res.values).all() and (res.values >= 0.0).all()


def _reference_loop(problem, config, seeds, carry=False):
    # _run_loop's iterates and records by step-by-step prox_step_rows calls,
    # with the same samples and step sizes; each centre's state is
    # re-derived from its points, or with carry is the state the step before
    # returned, as the loop carries it
    _, etas = _resolve_etas(problem, config)
    oracle, reg, phi = problem.oracle, problem.regularizer, problem.phi
    T = config.horizon_T
    xis = np.stack([oracle.sample_rows(np.random.default_rng(seed), T + 1)
                    for seed in seeds], axis=1)
    X = np.tile(problem.x0, (len(seeds), 1))
    centres = X
    out, logs, records = [X], [phi.state_rows(X, reg).mirror], []
    for t in range(T + 1):
        res = prox_step_rows(oracle.model_rows(X, xis[t]), reg, phi, centres,
                             float(etas[t]), rho=oracle.constants.rho)
        X = res.minimizer.copy()
        centres = res.state if carry else X
        out.append(X)
        logs.append(res.state.mirror)
        records.append((res.model_value, res.r_value, res.divergence,
                        res.three_point_residual))
        if phi.radial_terms() is not None:
            # the state a step returns is that of a fresh centre at its
            # minimizer; the secular step (P6) returns its own mirror
            # coordinates, within RADIAL_TOL of grad phi (secular_mirror_excess),
            # and so do the radial root steps, P1's 1-d |affine| and P2's
            # affine steps, within root_mirror_excess's bound of grad phi(y);
            # the Euclidean steps' points are their mirror coordinates
            state = res.state
            assert np.array_equal(state.points, X)
            assert np.array_equal(state.values, phi.value_rows(X))
            if res.method == "secular":
                assert (secular_mirror_excess(state.mirror, phi, X) <= 0.0).all()
            elif res.method.startswith("closed_form") and not isinstance(phi, Euclidean):
                assert (root_mirror_excess(state.mirror, phi, X) <= 0.0).all()
            else:
                assert np.array_equal(state.mirror, phi.gradient_rows(X))
            assert np.array_equal(state.r, reg.value_rows(X))
    return (np.stack(out, axis=1), [np.stack(f, axis=1) for f in zip(*records)],
            np.array(logs))


def _records_of(problem, config, seeds, iterates, logs):
    # record_rows of each step alone from the states of the given (S, T + 2,
    # d) iterates and (T + 2, S, d) mirror coordinates, with the loop's
    # samples and step sizes
    _, etas = _resolve_etas(problem, config)
    oracle, reg, phi = problem.oracle, problem.regularizer, problem.phi
    xis = np.stack([oracle.sample_rows(np.random.default_rng(seed), len(etas))
                    for seed in seeds], axis=1)
    states = [phi.state_at(np.ascontiguousarray(iterates[:, t]), logs[t], reg)
              for t in range(len(logs))]
    records = []
    for t, eta in enumerate(etas):
        Z, Y = states[t], states[t + 1]
        model_y, _, d_yz, res = record_rows(oracle.model_rows(Z.points, xis[t]).values,
                                            phi, Z, Y, float(eta), oracle.constants.rho)
        records.append((model_y, Y.r, d_yz, res))
    return [np.stack(f, axis=1) for f in zip(*records)]


def test_carried_state_reproduces_a_loop_that_rederives_it():
    # bit for bit on P5's Euclidean kernel, whose points are their mirror
    # coordinates.  P1 and P2 carry the mirror coordinates W of their radial
    # root steps (1-d |affine| and d = 2 affine), which lie within
    # root_mirror_excess's bound of a re-derived grad phi(y), at every step
    # of the loop's iterates (those of step-by-step steps from the carried
    # state).  The entropic steps
    # (P3, P4) carry log x, which a re-derived log(exp(log x)) matches to
    # float64 rounding, so their tolerance comes from the dtype, not the
    # data.  P6 carries the secular solve's mirror coordinates, which differ
    # from a re-derived grad phi by rounding (bounded by RADIAL_TOL
    # relative, secular_mirror_excess); that rounding moves its 41 steps'
    # iterates by at most 2.8e-15 relative here, within the same bound.  It
    # builds up over longer horizons (4.4e-14 at T = 1024)
    for problem in registry():
        config, seeds = SolverConfig(40, seed=None), [[s, 40] for s in range(3)]
        carried = np.array([tr.iterates for tr in _run_loop(problem, config, seeds)])
        ref = _reference_loop(problem, config, seeds)[0]
        if problem.id == "P6":
            assert (norm_rows(carried - ref) <= RADIAL_TOL * norm_rows(ref)).all()
        elif problem.id in ("P1", "P2"):
            iterates, _, mirrors = _reference_loop(problem, config, seeds, carry=True)
            assert np.array_equal(carried, iterates), problem.id
            d = problem.dimension
            Y = iterates.transpose(1, 0, 2).reshape(-1, d)
            assert (root_mirror_excess(mirrors.reshape(-1, d), problem.phi, Y) <= 0.0).all()
        elif problem.phi.radial_terms() is not None:
            assert np.array_equal(carried, ref), problem.id
        else:
            np.testing.assert_allclose(carried, ref, rtol=1e-12, atol=0.0,
                                       err_msg=problem.id)


@pytest.mark.parametrize("S, T", [(1, 130), (8, 40), (20, 40)])
def test_block_records_equal_the_step_by_step_records(S, T, monkeypatch):
    # the loop records its steps per block of BLOCK_ROWS rows (128 steps of
    # one run, 16 of 8 runs, 6 of 20; T + 1 is no multiple of them, and one
    # run's tail of 3 steps joins the block before it), bit for bit what
    # prox_step_rows records step by step from the carried state;
    # the step sizes decrease, so each row must take its own step's; P6's
    # quadratic models under Burg take the lockstep Newton, which derives
    # phi at the centres the loop carries without it.  P3 and P4 scan their
    # steps (SCAN_STEPS per call, blocks of whole chunks: 128 steps of one
    # run, 16 of 8 and of 20 runs): their iterates match the step-by-step
    # ones within the scan's rounding (util_problems.scan_tolerance), and
    # their records are bit for bit the step-by-step records of the scan's
    # own iterates and logs
    from bregopt import subproblem
    from bregopt.legendre import Burg
    from util_problems import scan_tolerance
    build, scanned = subproblem._affine_scan, []

    def kept(reg, phi):
        scan = build(reg, phi)
        return scan and (lambda *args: scanned.append(scan(*args)) or scanned[-1])

    monkeypatch.setattr(subproblem, "_affine_scan", kept)
    newton = get_problem("P6")
    newton.phi, newton.x0 = Burg(), np.array([1.5, 2.0])
    for problem in registry() + [newton]:
        lam, etas = _resolve_etas(problem, SolverConfig(T, seed=0))
        schedule = ("explicit", etas * np.linspace(1.0, 0.5, T + 1))
        config = SolverConfig(T, seed=None, lam=lam, schedule=schedule)
        seeds = [[s, T] for s in range(S)]
        del scanned[:]
        traces = _run_loop(problem, config, seeds)
        iterates, records, ref_logs = _reference_loop(problem, config, seeds, carry=True)
        got = np.array([tr.iterates for tr in traces])
        if problem.id in ("P3", "P4"):
            assert len(scanned) == -(-(T + 1) // subproblem.SCAN_STEPS), problem.id
            logs = np.concatenate([ref_logs[:1]] + [L for _, L in scanned])
            assert np.array_equal(got.transpose(1, 0, 2)[1:], np.exp(logs[1:])), problem.id
            slopes = problem.oracle.slope_table[np.array([tr.sampled_xi_ids for tr in traces]).T]
            tol = scan_tolerance(ref_logs, schedule[1], slopes,
                                 getattr(problem.regularizer, "weight", 0.0))
            assert (np.abs(logs[1:] - ref_logs[1:]) <= tol[..., None]).all(), problem.id
            records = _records_of(problem, config, seeds, got, logs)
        else:
            assert not scanned, problem.id
            assert np.array_equal(got, iterates), problem.id
        r0 = problem.regularizer.value_rows(np.tile(problem.x0, (S, 1)))
        assert np.array_equal([tr.r_values[0] for tr in traces], r0), problem.id
        for field, ref in zip(RECORD_FIELDS, records):
            got = [getattr(tr, field) for tr in traces]
            if field == "r_values":
                got = [r[1:] for r in got]
            assert np.array_equal(got, ref), (problem.id, field)


@pytest.mark.parametrize("pid, S, T, blocks", [
    ("P1", 8, 64, [16, 16, 16, 17]), ("P1", 20, 40, [6] * 6 + [5]), ("P1", 1, 130, [131]),
    ("P3", 8, 64, [16, 16, 16, 17])])
def test_a_short_tail_joins_the_block_before_it(monkeypatch, pid, S, T, blocks):
    # a horizon's record blocks hold BLOCK_ROWS rows each, and a tail of
    # fewer than half a block's steps joins the block before it: T + 1 =
    # 2^k + 1 steps take no block of one step.  A tail of 5 of 6 steps
    # stays a block, and P3's scanned blocks start at multiples of its chunk
    from bregopt import driver
    build, sizes = driver.step_plan, []

    def counted(*args):
        plan = build(*args)

        def block(rows, P, M, etas, V=None):
            sizes.append(len(etas))
            return plan.block(rows, P, M, etas, V)

        return plan._replace(block=block)

    monkeypatch.setattr(driver, "step_plan", counted)
    _run_loop(get_problem(pid), SolverConfig(T, seed=None), [[s, T] for s in range(S)])
    assert sizes == blocks


@pytest.mark.parametrize("later", [None, 16])
def test_a_step_that_fails_its_certificate_raises_from_the_loop(monkeypatch, later):
    # row 2 of step 5 of a P3 sweep (4 runs: one record block of two scanned
    # chunks of 16 steps) is taken with step size eta (1 + 1e-4) and
    # certified as eta, which fails at the centre probe; the row's later
    # steps start from the mutated point, so no other step fails.  With the
    # block's second chunk (from step 16) raising first, the completed chunk
    # is recorded and the certificate's failure is still the one reported.
    # The mutation is in the horizon's one scan.
    from bregopt import subproblem
    build, builds, calls = subproblem._affine_scan, [], []

    def mutated_scan(*args):
        scan = build(*args)
        builds.append(scan)

        def mutated(V, Z, etas):
            c = len(calls)
            calls.append(c)
            if later is not None and c * subproblem.SCAN_STEPS == later:
                raise InnerSolveError("a later chunk failed")
            Y, L = scan(V, Z, etas)
            if c == 0:
                off = scan(V, Z, etas * np.where(np.arange(len(etas)) == 5, 1.0 + 1e-4, 1.0))
                Y[5:, 2], L[5:, 2] = off[0][5:, 2], off[1][5:, 2]
            return Y, L

        return mutated

    monkeypatch.setattr(subproblem, "_affine_scan", mutated_scan)
    failed = "lockstep step 5, row 2 missed tolerance: "
    with pytest.raises(InnerSolveError, match=failed) as info:
        sweep(get_problem("P3"), [64], 4)
    assert len(builds) == 1
    assert len(calls) == 2
    if later is not None:
        assert str(info.value.__context__) == "a later chunk failed"


def test_each_horizon_and_each_batch_builds_one_plan(monkeypatch):
    # the loop picks its path and constants once per horizon, from step 0's
    # models (with its scan, when the oracle's slopes are a slope table), and
    # each envelope batch (prox_step_rows) once
    from bregopt import driver, subproblem
    builds = []

    def counted(where, build):
        return lambda *args: builds.append(where) or build(*args)

    monkeypatch.setattr(driver, "step_plan", counted("loop", driver.step_plan))
    monkeypatch.setattr(subproblem, "step_plan", counted("batch", subproblem.step_plan))
    monkeypatch.setattr(subproblem, "_affine_scan", counted("scan", subproblem._affine_scan))
    for pid in ("P1", "P2", "P6"):
        builds.clear()
        sweep(get_problem(pid), [4, 8, 16], 3, metric_mode="tstar_full")
        assert builds == ["loop", "batch"] * 3, pid
    # P3's slopes depend on the sample only: each horizon's plan builds its
    # scan
    builds.clear()
    sweep(get_problem("P3"), [4, 8], 3)
    assert builds == ["loop", "scan"] * 2


def _one_step(plan, rows, points, mirror, eta):
    # a step from the centres' points and mirror coordinates as the plan's
    # block of one step: (minimizers, their mirror coordinates, inner
    # iterations, method)
    P, M = np.empty((2,) + points.shape), np.empty((2,) + points.shape)
    P[0], M[0] = points, mirror
    V = np.empty(P[1:].shape) if plan.slopes else None
    return (P[1], M[1]) + plan.block(rows, P, M, np.array([eta]), V)


def test_a_reused_plan_steps_as_one_use_solves():
    # the first steps of P1-P6 by one plan's blocks of one step, bit for bit
    # those of solve_rows, which builds a plan per call, (its, method)
    # included; the last step, below ETA_FLOOR, keeps its centres
    from bregopt.subproblem import solve_rows, step_plan
    for problem in registry():
        oracle, reg, phi = problem.oracle, problem.regularizer, problem.phi
        _, etas = _resolve_etas(problem, SolverConfig(6, seed=0))
        rho, rng = oracle.constants.rho, np.random.default_rng(3)
        Z = phi.state_rows(np.tile(problem.x0, (4, 1)), reg)
        plan = None
        for t, eta in enumerate(np.append(etas, 1e-15)):
            rows = oracle.model_rows(Z.points, oracle.sample_rows(rng, 4))
            plan = plan or step_plan(rows, Z.points.shape[1], reg, phi)
            Y, M, its, method = _one_step(plan, rows, Z.points, Z.mirror, eta)
            ref = solve_rows(rows, reg, phi, Z, float(eta), rho)
            assert np.array_equal(Y, ref[0]) and (its, method) == ref[2:], (problem.id, t)
            assert np.array_equal(M, ref[1]), (problem.id, t)
            if t == len(etas):
                assert np.array_equal(Y, Z.points) and np.array_equal(M, Z.mirror), problem.id
                assert (its, method) == (0, "degenerate_eta"), problem.id
            Z = phi.state_at(Y, M, reg)


def _block_and_steps(problem, S, etas):
    # plan.block over one record block of S runs and len(etas) steps from
    # x_0, the (its, method) it returns, and the same steps by the plan's
    # blocks of one step from the carried points and mirror coordinates,
    # with each step's (its, method)
    from bregopt.subproblem import step_plan
    oracle, reg, phi = problem.oracle, problem.regularizer, problem.phi
    n = len(etas)
    xi = oracle.sample_rows(np.random.default_rng(5), n * S)
    rows = oracle.atom_rows(xi)
    Z = phi.state_rows(np.tile(problem.x0, (S, 1)), reg)
    plan = step_plan(rows, Z.points.shape[1], reg, phi)
    P, M = np.empty((n + 1,) + Z.points.shape), np.empty((n + 1,) + Z.points.shape)
    P[0], M[0] = Z.points, Z.mirror
    V = np.empty(P[1:].shape) if plan.slopes else None
    last = plan.block(rows, P, M, etas, V)
    steps, found = [(Z.points, Z.mirror)], []
    for k, eta in enumerate(etas):
        Y, mirror, *its_method = _one_step(plan, oracle.atom_rows(xi[k * S:k * S + S]),
                                           *steps[-1], eta)
        steps.append((Y, mirror))
        found.append(tuple(its_method))
    return plan, P, M, (steps, last, found), (xi, rows, V)


def test_a_block_records_the_models_of_its_steps_slopes(monkeypatch):
    # the models that a record block builds (block_models) from the slopes
    # its steps took (P2, P5 and a grad_map oracle: V) or from its gathered
    # atoms (P3's scanned shift) are model_rows at its centres bit for bit;
    # a registry loop's record never calls model_rows
    for problem in [get_problem(pid) for pid in ("P2", "P3", "P5")] + [_grad_map_problem()]:
        _, etas = _resolve_etas(problem, SolverConfig(15, seed=0))
        plan, P, M, _, (xi, atoms, V) = _block_and_steps(problem, 4, etas)
        assert plan.slopes == (problem.oracle.slope_table is None), problem.id
        d = P.shape[-1]
        Z = P[:-1].reshape(-1, d)
        got = problem.oracle.block_models(Z, atoms, None if V is None else V.reshape(-1, d))
        ref = problem.oracle.model_rows(Z, xi)
        assert got.absolute == ref.absolute, problem.id
        assert np.array_equal(got.slopes, ref.slopes), problem.id
        assert np.array_equal(got.offsets, ref.offsets), problem.id

    def refused(*args):
        raise AssertionError("the record called model_rows")

    for problem in registry():
        monkeypatch.setattr(problem.oracle, "model_rows", refused)
        _run_loop(problem, SolverConfig(40, seed=None), [[s, 40] for s in range(3)])


def test_the_tstar_draw_is_generator_choice_from_one_cdf():
    # the loop draws t* from the horizon's one CDF (choice_cdf, searchsorted
    # of one uniform): the index and the generator state after are those of
    # rng.choice(T + 1, p=the t* law); a loop's draws replay as rng.choice
    # calls, its samples first
    rng = np.random.default_rng(12)
    for _ in range(300):
        T = int(rng.integers(0, 300))
        etas = np.sort(rng.uniform(0.01, 0.5, T + 1))[::-1]
        law = tstar_weights(etas, rng.uniform(0.0, 1.9))
        seed = int(rng.integers(1 << 30))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert int(choice_cdf(law).searchsorted(a.random(), side="right")) == b.choice(
            law.size, p=law)
        assert a.bit_generator.state == b.bit_generator.state
    problem = get_problem("P1")
    oracle = problem.oracle
    seeds = [[s, 40] for s in range(4)]
    for seed, tr in zip(seeds, _run_loop(problem, SolverConfig(40, seed=None), seeds)):
        law = tstar_weights(tr.etas, oracle.constants.rho)
        replay = np.random.default_rng(seed)
        xi = replay.choice(oracle.n_atoms, p=oracle.weights, size=41)
        assert np.array_equal(tr.sampled_xi_ids, xi) and tr.sampled_xi_ids.dtype == xi.dtype
        assert tr.t_star == replay.choice(law.size, p=law)


def _grad_map_problem():
    # P3's data with slopes that move with their centres: a grad_map
    # LinearMirrorOracle, whose atom rows are _MappedSlopes (the tangent
    # block, not the scan)
    import copy
    problem = copy.copy(get_problem("P3"))
    p3 = problem.oracle
    atoms = p3.slope_table
    problem.oracle = LinearMirrorOracle(
        f_fn=lambda X: dot_rows(X, X) + dot_rows(p3.weights @ atoms, X),
        grad_map=lambda X, xi: atoms[xi] + 2.0 * X, weights=p3.weights, lip=p3.lip,
        regime="C", constants=p3.constants)
    return problem


def test_a_block_steps_as_its_one_step_plan():
    # plan.block, bit for bit the plan's blocks of one step, step by step, on
    # every path of the registry that is not scanned (P1's kink block from
    # its atoms' views, P2's radial root, P5's ball, P6's secular solve) and
    # on a grad_map oracle's slopes, step 3 with a step size below ETA_FLOOR
    # (degenerate_eta: the step keeps its centres), and the block returns
    # its last step's (its, method); P3's and P4's blocks scan SCAN_STEPS
    # steps per chunk from the block's first step, bit for bit their chunks'
    # scans
    from bregopt.legendre import RowState
    from bregopt.subproblem import ETA_FLOOR, SCAN_STEPS, _affine_scan
    for problem in registry() + [_grad_map_problem()]:
        _, etas = _resolve_etas(problem, SolverConfig(39, seed=0))
        etas = etas * np.linspace(1.0, 0.5, 40)
        etas[3] = ETA_FLOOR / 2.0
        plan, P, M, (steps, last, found), _ = _block_and_steps(problem, 4, etas)
        assert np.array_equal(P[4], P[3]) and np.array_equal(M[4], M[3]), problem.id
        assert found[3] == (0, "degenerate_eta"), problem.id
        if plan.chunk == 1:
            for k, (Y, mirror) in enumerate(steps):
                assert np.array_equal(P[k], Y) and np.array_equal(M[k], mirror), (problem.id, k)
            assert last == found[-1] and last[1] != "degenerate_eta", problem.id
            continue
        assert plan.chunk == SCAN_STEPS and problem.id in ("P3", "P4")
        scan = _affine_scan(problem.regularizer, problem.phi)
        xi = problem.oracle.sample_rows(np.random.default_rng(5), 40 * 4)
        V = problem.oracle.slope_table[xi].reshape(40, 4, -1)
        for k in range(0, 40, SCAN_STEPS):
            Y, L = scan(V[k:k + SCAN_STEPS], RowState(P[k], M[k], None, None),
                        etas[k:k + SCAN_STEPS])
            assert np.array_equal(P[k + 1:k + 1 + len(Y)], Y), (problem.id, k)
            assert np.array_equal(M[k + 1:k + 1 + len(L)], L), (problem.id, k)


@pytest.mark.parametrize("later", [None, 9])
def test_a_step_that_fails_its_certificate_in_a_block_raises_from_the_loop(
        monkeypatch, later):
    # row 2 of step 5 of a P1 sweep (4 runs: steps 0-31 are one record block
    # of the kink block) is taken with step size eta (1 + 1e-3) and
    # certified as eta, which fails at the centre probe: the loop names the
    # step and the row.  With step 9 of the same block raising first, the
    # block's 9 completed steps are recorded before that error propagates,
    # so the certificate's failure is still the one reported
    from bregopt import subproblem
    solve, calls = subproblem._abs_affine_1d, []

    def mutated(solve_, power, phi, g, s, z, m, eta):
        k = len(calls)
        calls.append(k)
        if k == later:
            raise InnerSolveError("a later step failed")
        y, W = solve(solve_, power, phi, g, s, z, m, eta)
        if k == 5:
            off = solve(solve_, power, phi, g, s, z, m, eta * (1.0 + 1e-3))
            y[2], W[2] = off[0][2], off[1][2]
        return y, W

    monkeypatch.setattr(subproblem, "_abs_affine_1d", mutated)
    failed = "lockstep step 5, row 2 missed tolerance: "
    with pytest.raises(InnerSolveError, match=failed) as info:
        sweep(get_problem("P1"), [64], 4)
    assert len(calls) == (32 if later is None else later + 1)
    if later is not None:
        assert str(info.value.__context__) == "a later step failed"


# the Python and C function calls per lockstep step of one _run_loop
# (T = 64, 8 runs; sys.setprofile call and c_call events) with one plan per
# horizon: 99.05 (P1), 84.40 (P2) and 112.55 (P6), where the dispatch
# rebuilt at every step took 126.25, 106.60 and 129.17; P3 and P4 scan 16
# steps per call: 25.92 and 26.38, where a plan step per step took 51.97.
# P6 gathers its models and prepares its secular steps once per record
# block, and its solve returns the minimizers' mirror coordinates: 83.57,
# where a model_rows and a phi.mirror_rows call per step took 111.34 (P1
# and P2 read 98.83 and 84.18 with the plan's prepare call per step).
# P1 and P5 form their models from their atom arrays: 94.52 and 44.31,
# where the per-atom callbacks took 98.83 and 56.15.  P1 steps from its
# gathered atoms in one pass in mirror coordinates: 34.54, where model_rows,
# the AffineRows path and phi.mirror_rows per step took 94.52; the radial
# root's closed-form start returns at once and _secular reduces through
# ufuncs, not ndarray methods: P2 65.20 and P6 61.57, where 84.18 and 83.57.
# P2 and P5 step from their gathered slopes (TangentRows: grad f + noise,
# and the inner argmax plus the atoms), and P2's radial root and P5's ball
# step return the minimizers' mirror coordinates: 36.66 and 40.78, where
# model_rows and phi.mirror_rows per step took 65.20 and 44.31 (the block's
# step sizes repeat by the array method: P1 33.08, P6 61.03).  P6's
# secular solve takes one pass in A(r) from its Householder-corrected start:
# 44.12, where three passes in r from the bracket of three isotropic roots
# took 61.03.  A plan call per record block (plan.block), P1's steps from
# their gathered atoms and one check of the configs per horizon: P1 21.65,
# P2 31.48, P3 22.77, P4 23.23, P5 36.55 and P6 39.95, where a plan call per
# step (a scan call per chunk for P3 and P4) took 33.05, 36.63, 25.60,
# 26.06, 40.77 and 44.12.  Block kernels that read step k from (n, S, ...)
# views (no row form, RowState or errstate per step), a record that reads
# the slopes its steps took, draws from stored CDFs, and the convex
# averages by one np.dot each: P1 18.15, P2 20.60, P3 15.31, P4 15.77, P5
# 18.46 and P6 25.40.  A radial root odd in its target, with the closed
# form's factors prepared once per kernel (no _cubic_root call), no
# one-step tail block, one ETA_FLOOR test per block and a certificate that
# reduces one mask: P1 16.03, P2 17.38, P3 12.88, P4 13.34, P5 16.40 and
# P6 23.09, where 18.03, 20.49, 15.20, 15.66, 18.35 and 25.35
CALLS_PER_STEP = {"P1": 16.1, "P2": 17.4, "P3": 12.9, "P4": 13.4, "P5": 16.4,
                  "P6": 23.1}


@pytest.mark.parametrize("pid", sorted(CALLS_PER_STEP))
def test_a_lockstep_step_stays_within_its_call_budget(pid):
    # counts calls, not time: a change that brings back per-step dispatch,
    # or any other per-step call, fails here
    import gc
    problem = get_problem(pid)
    config, seeds = SolverConfig(64, seed=None), [[s, 64] for s in range(8)]
    _run_loop(problem, config, seeds)
    calls = []

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(1)

    # no collection runs the finalizers of other tests' garbage in the count
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        _run_loop(problem, config, seeds)
    finally:
        sys.setprofile(previous)
        gc.enable()
    per_step = len(calls) / 65
    assert per_step <= CALLS_PER_STEP[pid], per_step


def test_a_horizon_peaks_little_above_what_its_traces_keep():
    # the records are taken per block of at most BLOCK_ROWS rows, so the
    # loop's temporaries stay small beside the (T + 2, S, d) iterates and
    # the records its traces keep: 1.31x them for one P3 horizon, where a
    # record pass over the whole horizon would reach 3.7x and 512-row blocks
    # 1.46x (tracemalloc, numpy 2.4).  P6 gathers its models and prepares
    # its secular steps per block too: 1.34x, where gathering them once per
    # horizon fails this bound.  With a plan call per block: P1 1.26x, P3
    # 1.24x, P5 1.24x and P6 1.29x (P3 and P6 read 1.43x and 1.51x with
    # 256-row blocks).  With the draws kept once (the traces view them), the
    # record reading the steps' slopes and P2's f in place: P1 1.15x, P2
    # 1.26x, P3 1.18x, P4 1.18x, P5 1.17x and P6 1.17x (P2 read 1.71x when
    # its record evaluated grad f again through (rows, 20) temporaries).
    # With a tail of under half a block joined to the block before it (the
    # 257 steps of 8 runs take 15 blocks of 16 steps and one of 17): P1
    # 1.17x, P2 1.28x, P3 1.22x, P4 1.22x, P5 1.18x and P6 1.25x
    import tracemalloc
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        prob = get_problem(pid)
        config, seeds = SolverConfig(256, seed=None), [[s, 256] for s in range(8)]
        _run_loop(prob, config, seeds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traces = _run_loop(prob, config, seeds)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept, peak = kept - base, peak - base
        assert len(traces) == 8 and kept > 0, pid
        assert peak - kept <= 0.4 * kept, (pid, peak, kept)
