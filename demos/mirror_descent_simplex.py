"""Stochastic mirror descent on the simplex, plain and strongly convex.

P3 minimizes a sampled linear cost over the probability simplex with the
entropy kernel; each step is the exponentiated-gradient closed form and all
iterates stay strictly positive.  P4 adds an entropy tilt mu * sum x log x
to the regularizer, making the objective relatively strongly convex, and the
1/(mu (t+1)) schedule upgrades the rate from 1/sqrt(T) to log(T)/T.
"""

import numpy as np

from bregopt import SolverConfig, get_problem, run_for_regime

p3 = get_problem("P3")
print("P3: dim %d, F* = %.5f at vertex %d"
      % (p3.dimension, p3.optimum["F_star"],
         int(np.argmax(p3.optimum["x_star"]))))
for T in [50, 200, 800]:
    trace = run_for_regime(p3, SolverConfig(T, seed=1))
    gap = p3.exact_F(trace.weighted_average) - p3.optimum["F_star"]
    print("  T = %4d  eta = %.4f  gap F(avg) - F* = %.4e"
          % (T, trace.etas[0], gap))
print("  last iterate is strictly positive:",
      bool(np.all(trace.iterates[-1] > 0)),
      " min coordinate %.2e" % trace.iterates[-1].min())

p4 = get_problem("P4")
mu = p4.oracle.constants.mu
print("\nP4 (mu = %.1f): F* = %.5f at the softmax point" % (mu, p4.optimum["F_star"]))
L = p4.oracle.constants.lip_bound_L
D0 = p4.phi.bregman(p4.optimum["x_star"], p4.x0)
for T in [50, 200, 800]:
    trace = run_for_regime(p4, SolverConfig(T, seed=1, schedule=("strongly_convex",)))
    gap = p4.exact_F(trace.plain_average) - p4.optimum["F_star"]
    bound = (L ** 2 * (1 + np.log(T + 1.0)) / (4 * mu) + mu * D0) / (T + 1.0)
    print("  T = %4d  gap = %.4e   <=   theorem bound %.4e" % (T, gap, bound))
