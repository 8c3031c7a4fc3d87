"""The symplectic form on the space of compatible metrics.

Tangent vectors at g are g-trace-free symmetric 2-tensors; the pairing is
Omega_g(h1, h2) = -1/2 int tr((g^-1 h1)(g^-1 mu)(g^-1 h2)) mu.  This script
walks through antisymmetry, nondegeneracy, the determinant-preserving path
g exp(t g^-1 h), and the finite-difference closedness probe.
"""

import numpy as np

import torusgeom as tg
from torusgeom import sampling
from torusgeom.riemann import l2_norm_sym2
from torusgeom.symplectic import path_derivative

grid = tg.Grid(64)
g = sampling.random_compatible_metric(grid, seed=5)
h1 = sampling.random_tangent(g, seed=8)
h2 = sampling.random_tangent(g, seed=9)

print("Omega(h1, h2) =", tg.omega(g, h1, h2))
print("Omega(h2, h1) =", tg.omega(g, h2, h1))
print("Omega(h1, h1) =", tg.omega(g, h1, h1), "(antisymmetry)")

# Nondegeneracy: rotating h by the complex structure pairs positively,
# with Omega(h, h') equal to half the squared L2 norm of h exactly
partner, value = tg.nondegeneracy_witness(g, h1)
print("witness value:", value, " vs half L2 norm:", 0.5 * l2_norm_sym2(h1.h, g) ** 2)

# The path g exp(t g^-1 h) keeps det g = f^2 exactly for trace-free h
for t in (0.1, 0.3):
    gt = tg.metric_path(g, h1, t)
    print(f"t={t}: compatibility along the path {gt.compatibility_residual():.2e}")

# The velocity at t = 0 is h; path_derivative differentiates any function of
# g_t along the path (a central step with one Richardson step, error O(eps^4))
vel = path_derivative(lambda gt: gt.stack(), g, h1, 1e-4)
print("path velocity error:", np.max(np.abs(vel - h1.h.stack())))

# d(Omega) evaluated with central differences on constant test directions:
# for this pairing the discrete defect sits at the roundoff floor
h3 = sampling.random_tangent(g, seed=10)
for e in (1e-3, 5e-4):
    print(f"closedness defect at eps={e}: {tg.closedness_defect(g, h1, h2, h3, e):.3e}")
