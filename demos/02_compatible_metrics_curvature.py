"""Metrics compatible with a volume form, and their curvature.

A metric g is compatible with the area form mu = f dx^dy when
sqrt(det g) = f.  The projection g -> (f / sqrt(det g)) g enforces this
exactly, and all of Riemannian calculus (Christoffel symbols, scalar
curvature, the complex structure) is then spectrally accurate.
"""

import numpy as np

import torusgeom as tg
from torusgeom import sampling

grid = tg.Grid(64)

# A random area form and a compatible random metric
vol = sampling.random_volume_form(grid, seed=4)
g = sampling.random_compatible_metric(grid, seed=3, volume=vol)
print("compatibility residual sup|sqrt(det g) - f|:", g.compatibility_residual())

# The Levi-Civita connection is metric: nabla g = 0
print("metricity residual:", tg.metricity_residual(g))

# Scalar curvature via the single 2D curvature component
s = tg.scalar_curvature(g)
print("scalar curvature range: [%.3f, %.3f]" % (s.values.min(), s.values.max()))

# Gauss-Bonnet on the torus: the total curvature vanishes (chi = 0)
total = np.mean(s.values * vol.density.values)
print("int S mu =", total)

# In 2D the Ricci tensor is pure trace: R_ij = (S/2) g_ij
print("Ricci relation residual:", tg.ricci_relation_residual(g))

# The induced complex structure squares to -identity and preserves g
i = tg.complex_structure(g)
i2 = np.einsum("ikab,kjab->ijab", i, i)
i2[0, 0] += 1
i2[1, 1] += 1
print("|I^2 + id|:", np.max(np.abs(i2)))

# A one-variable family with hand-computed curvature, as a cross-check:
# g = diag(e^{2 phi}, e^{-2 phi}), phi = a sin(2 pi x)  =>
# S = 2 e^{-2 phi} (phi'' - 2 phi'^2)
a = 0.3
X, _ = grid.meshes()
phi = a * np.sin(2 * np.pi * X)
gd = tg.Metric(
    tg.ScalarField(grid, np.exp(2 * phi)),
    tg.constant_field(grid, 0.0),
    tg.ScalarField(grid, np.exp(-2 * phi)),
    sampling.flat_volume_form(grid),
)
dphi = a * 2 * np.pi * np.cos(2 * np.pi * X)
ddphi = -a * (2 * np.pi) ** 2 * np.sin(2 * np.pi * X)
s_exact = 2 * np.exp(-2 * phi) * (ddphi - 2 * dphi**2)
print("closed-form curvature check:",
      np.max(np.abs(tg.scalar_curvature(gd).values - s_exact)))
