"""A tour of the Legendre geometry layer.

Shows the phi zoo, Bregman divergences, the polynomial-growth construction
and the divergence bound it guarantees, and local dual norms.
"""

import numpy as np

from bregopt import (Burg, Euclidean, ShannonEntropy, build_composite_legendre,
                     build_poly_legendre)

rng = np.random.default_rng(0)

# --- the basic zoo ----------------------------------------------------------
x = np.array([3.0, 4.0])
y = np.array([1.0, 1.0])
print("euclidean phi(3,4)      =", Euclidean().value(x))          # 12.5
print("entropy  phi(1,1)       =", ShannonEntropy().value(y))     # 0
print("burg     phi(1,1)       =", Burg().value(y))               # 0
print("euclidean D(y, x)       =", Euclidean().bregman(y, x))
print("entropy   D(y, 2y)      =", ShannonEntropy().bregman(y, 2 * y))

# --- phi adapted to polynomial growth ---------------------------------------
# For Lipschitz moduli growing like p(u) = 1 + u^2, the adapted function is
# (7/2)|x|^2 + (13/4)|x|^4 and its divergence dominates
# ((p(|x|) + p(|y|)) / 2) |x - y|^2 everywhere.
p = [1.0, 0.0, 1.0]
phi = build_poly_legendre(p)
print("\nadapted phi(1,0)        =", phi.value([1.0, 0.0]))       # 3.5 + 3.25
polyval = np.polynomial.polynomial.polyval
worst = np.inf
for _ in range(2000):
    a = rng.uniform(-10, 10, 3)
    b = rng.uniform(-10, 10, 3)
    bound = 0.5 * (polyval(np.linalg.norm(a), p) + polyval(np.linalg.norm(b), p)) \
        * np.linalg.norm(a - b) ** 2
    worst = min(worst, phi.bregman(b, a) - bound)
print("growth bound slack over 2000 random pairs: min(D - bound) =", worst)

# --- composite phi for partial-linearization models -------------------------
# accuracy polynomial p = 1 and Jacobian growth q(u) = 4u^2 give the kernel
# used by the robust curve-fitting problem P1
comp = build_composite_legendre([1.0], [0.0, 0.0, 4.0])
print("\ncomposite phi(x) = 3.5 x^2 + x^4;  phi(1) =", comp.value([1.0]))

# --- local dual norms --------------------------------------------------------
# the local norm at x is induced by the Hessian of phi there
ent = ShannonEntropy()
print("\nentropy local dual norm at (2,2) of (1,0):",
      ent.local_dual_norm([2.0, 2.0], [1.0, 0.0]))  # diag(x) v -> 2
print("composite Hessian at 0.5: H =", comp.hessian_matrix([0.5]))
