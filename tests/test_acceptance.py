"""Acceptance gate: every claimed inequality and rate at desk scale.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line.  The rate criteria run the full 20-seed
horizon grids, so this module carries most of the suite's runtime.
"""

import time

import numpy as np
import pytest
from scipy import stats

from util_problems import quadratic_problem, smooth_problem

from bregopt.driver import SolverConfig, run_for_regime, sample_tstar, sweep
from bregopt.envelope import stationarity
from bregopt.legendre import (Euclidean, ShannonEntropy,
                              build_norm_power_legendre, build_poly_legendre,
                              finite_difference_step)
from bregopt.problems import get_problem, registry
from bregopt.subproblem import check_three_point
from bregopt.validation import (verify_lipschitz, verify_one_sided,
                                verify_relative_smoothness, verify_variance)

HORIZONS = [64, 256, 1024, 4096]
N_SEEDS = 20


def report(num, name, ok, detail=""):
    print("criterion %2d [%s] %s%s" % (num, "PASS" if ok else "FAIL", name,
                                       " -- " + detail if detail else ""))
    assert ok, "criterion %d failed: %s (%s)" % (num, name, detail)


def test_criterion_1_polynomial_growth_divergence_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    polyval = np.polynomial.polynomial.polyval
    worst = np.inf
    for _ in range(20):
        n = int(rng.integers(0, 5))
        coeffs = rng.uniform(0.0, 2.0, n + 1)
        coeffs[int(rng.integers(0, n + 1))] += 0.1
        phi = build_poly_legendre(coeffs)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            x = rng.uniform(-10.0, 10.0, d)
            y = rng.uniform(-10.0, 10.0, d)
            D = phi.bregman(y, x)
            bound = 0.5 * (polyval(np.linalg.norm(x), coeffs)
                           + polyval(np.linalg.norm(y), coeffs)) \
                * np.linalg.norm(x - y) ** 2
            worst = min(worst, (D - bound) / (1.0 + abs(D)))
    elapsed = time.perf_counter() - t0
    report(1, "divergence dominates the growth polynomial",
           worst >= -1e-9 and elapsed < 5.0,
           "worst rel slack %.2e, %.2fs" % (worst, elapsed))


def test_criterion_2_three_point_contract_everywhere():
    rng = np.random.default_rng(1002)
    worst = np.inf
    for prob in registry():
        trace = run_for_regime(prob, SolverConfig(40, seed=12))
        probes = [prob.oracle.draw_test_point(rng) for _ in range(100)]
        for t in range(len(trace.etas)):
            model = prob.oracle.model_rows(trace.iterates[t], trace.sampled_xi_ids[t])
            eta = float(trace.etas[t])

            def g_val(p):
                return eta * (model.values(p) + prob.regularizer.value(p))

            rep = check_three_point(g_val, prob.phi, trace.iterates[t],
                                    trace.iterates[t + 1], probes)
            worst = min(worst, rep.min_residual)
    # negative control: an offset step on the unconstrained 1-d problem
    p1 = get_problem("P1")
    trace = run_for_regime(p1, SolverConfig(5, seed=3))
    model = p1.oracle.model_rows(trace.iterates[0], trace.sampled_xi_ids[0])
    eta = float(trace.etas[0])
    bad = check_three_point(lambda p: eta * model.values(p), p1.phi,
                            trace.iterates[0], trace.iterates[1] + 0.1,
                            [np.array([u]) for u in rng.uniform(-2, 2, 100)])
    report(2, "three-point residual on every recorded step",
           worst >= -1e-8 and bad.min_residual < 0,
           "worst %.2e, control %.2e" % (worst, bad.min_residual))


def test_criterion_3_envelope_gradient_and_dual_path():
    rng = np.random.default_rng(1003)
    cases = [
        smooth_problem(Euclidean()),
        smooth_problem(build_norm_power_legendre([1.0, 0.0, 1.0])),
        smooth_problem(ShannonEntropy(), center=np.array([1.2, 0.8])),
    ]
    lam = 0.5
    worst_grad = 0.0
    worst_pair = 0.0
    n_points = 0
    for prob in cases:
        for _ in range(34):
            if n_points >= 100:
                break
            x = prob.oracle.draw_test_point(rng)
            rep = stationarity(prob, prob.phi, x, lam)
            g = rep.envelope_gradient
            h = finite_difference_step(x)
            fd = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                fd[i] = (stationarity(prob, prob.phi, x + e, lam).envelope_value_direct
                         - stationarity(prob, prob.phi, x - e, lam).envelope_value_direct
                         ) / (2 * h)
            worst_grad = max(worst_grad, np.linalg.norm(fd - g)
                             / (1.0 + np.linalg.norm(fd)))
            a, b = rep.envelope_value_direct, rep.envelope_value_conjugate
            worst_pair = max(worst_pair, abs(a - b) / (1.0 + abs(a)))
            n_points += 1
    report(3, "envelope gradient formula and conjugate identity",
           worst_grad <= 1e-5 and worst_pair <= 1e-6 and n_points >= 100,
           "grad err %.2e, path gap %.2e on %d points"
           % (worst_grad, worst_pair, n_points))


def test_criterion_4_weakly_convex_rate():
    # metric averaged over the full t* law: the variance-reduced estimator
    # of the same expectation (a single draw is heavy-tailed at 20 seeds)
    t0 = time.perf_counter()
    res = sweep(get_problem("P1"), HORIZONS, N_SEEDS, alpha=1.0,
                metric_mode="tstar_full")
    elapsed = time.perf_counter() - t0
    slope = res.fit["slope"]
    report(4, "weakly convex stationarity rate on P1",
           slope is not None and slope <= -0.40 and elapsed < 600.0,
           "slope %.3f (r2 %.2f), %.0fs" % (slope, res.fit["r2"], elapsed))


def test_criterion_5_convex_rate_and_theorem_bound():
    prob = get_problem("P3")
    res = sweep(prob, HORIZONS, N_SEEDS, alpha=1.0)
    slope = res.fit["slope"]
    L = prob.oracle.constants.lip_bound_L
    D0 = prob.phi.bregman(prob.optimum["x_star"], prob.x0)
    r_gap = prob.r_initial_gap()
    bounds_ok = True
    detail = []
    for T, mean, se in zip(res.horizons, res.means, res.std_errs):
        etas = np.full(T + 1, 1.0 / np.sqrt(T + 1.0))
        bound = (D0 + float(np.sum((etas * L) ** 2)) / 4.0
                 + etas[0] * r_gap) / float(np.sum(etas))
        bounds_ok &= mean <= bound + 3.0 * se
        detail.append("T=%d gap %.3g <= %.3g" % (T, mean, bound))
    report(5, "convex rate and explicit bound on P3",
           slope is not None and slope <= -0.35 and bounds_ok,
           "slope %.3f; %s" % (slope, "; ".join(detail)))


def test_criterion_6_strongly_convex_rate_and_bound():
    prob = get_problem("P4")
    res = sweep(prob, HORIZONS, N_SEEDS, schedule_kind="strongly_convex")
    slope = res.fit["slope"]
    c = prob.oracle.constants
    D0 = prob.phi.bregman(prob.optimum["x_star"], prob.x0)
    r_gap = prob.r_initial_gap()
    bounds_ok = True
    detail = []
    for T, mean, se in zip(res.horizons, res.means, res.std_errs):
        bound = (c.lip_bound_L ** 2 * (1.0 + np.log(T + 1.0)) / (4.0 * c.mu)
                 + r_gap + c.mu * D0) / (T + 1.0)
        bounds_ok &= mean <= bound + 3.0 * se
        detail.append("T=%d gap %.3g <= %.3g" % (T, mean, bound))
    report(6, "relatively strongly convex rate and bound on P4",
           slope is not None and slope <= -0.80 and bounds_ok,
           "slope %.3f; %s" % (slope, "; ".join(detail)))


def test_criterion_7_smooth_mirror_descent_rate():
    res = sweep(get_problem("P2"), HORIZONS, N_SEEDS, alpha=0.5)
    slope = res.fit["slope"]
    report(7, "finite-variance mirror descent rate on P2",
           slope is not None and slope <= -0.40,
           "slope %.3f (r2 %.2f)" % (slope, res.fit["r2"]))


def test_criterion_8_model_constant_verification():
    rng = np.random.default_rng(1008)
    p1 = get_problem("P1")
    n_pairs = 10000
    one_ok = True
    for _ in range(n_pairs):
        x = p1.oracle.draw_test_point(rng)
        y = p1.oracle.draw_test_point(rng)
        one_ok &= verify_one_sided(p1.oracle, p1.phi, x, y).passed
    lip = verify_lipschitz(p1.oracle, p1.phi, n_pairs, rng)
    tau_formula = abs(p1.oracle.tau_from_accuracy()
                      - p1.oracle.constants.tau) <= 1e-12
    p2 = get_problem("P2")
    smooth = verify_relative_smoothness(p2.oracle, p2.phi, 2000, rng)
    var = verify_variance(p2.oracle, 100000, p2.x0, rng)
    report(8, "declared model constants verified",
           one_ok and lip.passed and tau_formula and smooth.passed and var.passed,
           "lip ratio %.3g vs %.3g, variance %.4g vs %.4g"
           % (lip.max_ratio, lip.claimed_L, var.empirical_second_moment,
              var.bound))


def test_criterion_9_tstar_sampling_law():
    rng = np.random.default_rng(1009)
    etas = np.concatenate([np.full(6, 0.5), np.full(6, 0.25),
                           1.0 / (np.arange(8) + 4.0)])
    rho = 0.5
    draws = sample_tstar(etas, rho, rng, size=100000)
    w = etas / (1.0 - etas * rho)
    p = w / w.sum()
    obs = np.bincount(draws, minlength=etas.size)
    pvalue = stats.chisquare(obs, p * draws.size).pvalue
    report(9, "returned-index law matches eta/(1 - eta rho)",
           pvalue >= 1e-3, "chi-square p = %.4f" % pvalue)


def test_criterion_10_reduction_to_gradient_descent():
    x0 = np.array([1.7, -0.4, 0.9])
    prob = quadratic_problem(x0, x_star=np.array([0.2, 0.0, -0.3]))
    etas = [0.5, 0.4, 0.4, 0.25, 0.2, 0.1, 0.05, 0.05]
    trace = run_for_regime(prob, SolverConfig(7, seed=0, lam=1.0,
                                              schedule=("explicit", etas)))
    x = x0.copy()
    exact = True
    for t, eta in enumerate(etas):
        exact &= bool(np.array_equal(trace.iterates[t], x))
        x = x - eta * (x - prob.optimum["x_star"])
    exact &= bool(np.array_equal(trace.iterates[-1], x))
    report(10, "bitwise reduction to the explicit gradient recursion", exact)
