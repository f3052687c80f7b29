"""The remaining model families: robust saddle and stochastic proximal point.

P5 minimizes E[sup_{|w| <= 0.1} <a + w, x>] over a ball: the model freezes
the inner maximizer w_hat(x) = 0.1 x / |x| and is affine in the trial point,
giving closed-form steps.  P6 samples full convex quadratics as models (the
stochastic Bregman-proximal point method); each step solves a smooth
subproblem against the growth-adapted radial kernel by a certified Newton
solve.
"""

import numpy as np

from bregopt import SolverConfig, get_problem, run_for_regime, stationarity

p5 = get_problem("P5")
print("P5 saddle: F* = %.5f at x* =" % p5.optimum["F_star"],
      np.round(p5.optimum["x_star"], 4))
trace = run_for_regime(p5, SolverConfig(400, seed=2))
xT = trace.iterates[-1]
print("  after 401 steps: x = %s, F(x) - F* = %.4e"
      % (np.round(xT, 4), p5.exact_F(xT) - p5.optimum["F_star"]))
rep = stationarity(p5, p5.phi, trace.returned_point, trace.lam)
print("  D(prox, x_t*) = %.3e at the returned iterate" % rep.divergence)

p6 = get_problem("P6")
print("\nP6 proximal point: F* = %.5f at x* =" % p6.optimum["F_star"],
      np.round(p6.optimum["x_star"], 4))
print("  F(x0) = %.4f; each step solves a smooth Newton subproblem" % p6.exact_F(p6.x0))
for T in [100, 400, 1600]:
    trace = run_for_regime(p6, SolverConfig(T, seed=2))
    xT = trace.iterates[-1]
    rep = stationarity(p6, p6.phi, trace.returned_point, trace.lam)
    print("  T = %4d  F(x_T) - F* = %.4e   D(prox, x_t*) = %.3e"
          % (T, p6.exact_F(xT) - p6.optimum["F_star"], rep.divergence))
trace = run_for_regime(p6, SolverConfig(400, seed=2))
print("  every step carries a three-point certificate; worst at T=400: %.2e"
      % trace.step_residuals.min())
rep = stationarity(p6, p6.phi, trace.returned_point, trace.lam)
print("  envelope paths agree to %.1e"
      % abs(rep.envelope_value_direct - rep.envelope_value_conjugate))
