"""The Bregman-Moreau envelope as a stationarity certificate.

For F = f + r and a compatible Legendre kernel, the envelope
env(x) = inf_y F(y) + D(y, x)/lam is a smooth minorant of F whose gradient
is (1/lam) hess_phi(x) (x - prox(x)).  The demo evaluates it by the
direct infimum and by the convex-conjugate identity, checks the gradient
against central finite differences, and shows it saturating at a minimizer.
"""

import numpy as np

from bregopt import get_problem, stationarity
from bregopt.legendre import finite_difference_step

p2 = get_problem("P2")
# any lam below 1/(tau + rho) keeps the prox subproblem convex
lam = 0.5 / p2.oracle.constants.tau
x = np.array([1.1, -0.3])
print("lam = %.4f (tau = %.3f)" % (lam, p2.oracle.constants.tau))

# one report holds the prox point, both envelope paths and the gradient
rep = stationarity(p2, p2.phi, x, lam)
direct, conj = rep.envelope_value_direct, rep.envelope_value_conjugate
print("prox point            :", rep.prox_point)
print("envelope, direct path :", direct)
print("envelope, conjugate   :", conj)
print("agreement             : %.2e" % abs(direct - conj))
print("minorant check        : env = %.6f <= F = %.6f" % (direct, p2.exact_F(x)))

g = rep.envelope_gradient
h = finite_difference_step(x)
fd = np.array([
    (stationarity(p2, p2.phi, x + np.eye(2)[i] * h, lam).envelope_value_direct
     - stationarity(p2, p2.phi, x - np.eye(2)[i] * h, lam).envelope_value_direct) / (2 * h)
    for i in range(2)])
print("\ngradient formula      :", g)
print("central differences   :", fd)
print("relative error        : %.2e" % (np.linalg.norm(g - fd) / np.linalg.norm(fd)))

# at (a neighborhood of) the planted minimizer the diagnostic collapses
x_star = np.array([0.9, -0.6])
rep = stationarity(p2, p2.phi, x_star, lam)
print("\nat the planted point  : D(prox, x) = %.3e, |grad env|_x* = %.3e"
      % (rep.divergence, rep.local_dual_norm_of_gradient))
print("local-norm lower bound: sqrt(D) - (lam/sqrt 2)|grad|_x* = %.3e  (>= 0)"
      % rep.lower_bound_check)
