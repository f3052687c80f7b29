"""Weakly convex rate study on the robust 1-d composite problem.

P1 minimizes mean_i |(a_i x)^2 - b_i| through sampled partial-linearization
models.  Stationarity is measured by the divergence to the Bregman proximal
point of the exact objective, which the theory drives to zero like 1/sqrt(T)
for the constant step size 1/(1/lam + sqrt(T+1)/alpha).
"""

import numpy as np

from bregopt import SolverConfig, get_problem, run_for_regime, stationarity, sweep

problem = get_problem("P1")
c = problem.oracle.constants
print("constants: tau = %.4f (= 4/3 E[L1 L2]), L = %.4f" % (c.tau, c.lip_bound_L))
print("phi(x) = 3.5 x^2 + x^4 (accuracy + growth adapted), x0 =", problem.x0)

# one run, watching the step sizes and the returned iterate
trace = run_for_regime(problem, SolverConfig(200, seed=7))
report = stationarity(problem, problem.phi, trace.returned_point, trace.lam)
print("\nT = 200, eta = %.4f: returned x_{t*} = %.5f (t* = %d)"
      % (trace.etas[0], trace.returned_point[0], trace.t_star))
print("  D(prox, x_{t*})        = %.3e" % report.divergence)
print("  envelope (two paths)   = %.10f / %.10f"
      % (report.envelope_value_direct, report.envelope_value_conjugate))
print("  local norm of gradient = %.3e" % report.local_dual_norm_of_gradient)

# a small horizon sweep; the full 20-seed version lives in the acceptance
# suite and fits slope about -0.5
res = sweep(problem, [32, 128, 512], n_seeds=5, metric_mode="tstar_full")
print("\nhorizon sweep (5 seeds, full t* law):")
for T, m in zip(res.horizons, res.means):
    print("  T = %4d   E[D(prox, x_t*)] = %.4e" % (T, m))
print("fitted log-log slope: %.3f (theory: -0.5)" % res.fit["slope"])
