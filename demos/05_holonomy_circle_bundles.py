"""Parallel transport, holonomy, and the torus model of bundle classes.

Parallel transport around a positively oriented contractible loop rotates a
frame by the enclosed integral of the Gauss curvature S/2 (a discrete Stokes
theorem).  The canonical circle bundle of (g, mu) twists at -2 times the
frame rate and carries curvature -S mu; its gauge class is modeled by
(curvature, two generator holonomies, Chern integer), which add under the
Kobayashi sum.
"""

import numpy as np

import torusgeom as tg
from torusgeom import sampling
from torusgeom.bundles import (
    Loop,
    canonical_class,
    constant_curvature_class,
    frame_transport,
    kobayashi_add,
    kobayashi_neg,
)

grid = tg.Grid(64)
g = sampling.random_compatible_metric(grid, seed=3,
                                      volume=sampling.random_volume_form(grid, seed=4))
s = tg.scalar_curvature(g)

# Stokes: transported angle vs enclosed curvature integral
center, side = (0.37, 0.52), 0.4
theta = frame_transport(g, Loop.square(center, side))
half_s_mu = tg.ScalarField(grid, 0.5 * s.values * g.volume.coefficient())  # mu_12 = +-f
ref = tg.region_integral(half_s_mu, (center[0] - side / 2, center[0] + side / 2,
                                     center[1] - side / 2, center[1] + side / 2), order=40)
print(f"transport angle {theta:+.10f}  enclosed int of S/2 {ref:+.10f}")

# Shrinking loops recover the pointwise curvature at second order
p = (0.3, 0.6)
kp = 0.5 * tg.interpolate(s, p)
print(f"K({p}) = {kp:+.6f}")
for side in (0.1, 0.05, 0.025):
    th = frame_transport(g, Loop.square(p, side))
    rect = (p[0] - side / 2, p[0] + side / 2, p[1] - side / 2, p[1] + side / 2)
    area = tg.region_integral(tg.ScalarField(grid, g.volume.coefficient()), rect, order=24)
    print(f"  side {side:6.3f}: theta/area = {th / area:+.6f}")

# The canonical class: curvature -S mu, generator holonomies, Chern number
c = canonical_class(g)
print("canonical class: chern =", c.chern,
      " holA = %.6f" % c.holA, " holB = %.6f" % c.holB,
      " int curvature = %.2e" % tg.integrate(c.curvature.stack()))

# The flat metric gives the trivial class
print("flat class:", canonical_class(tg.flat_metric(grid)).holA)

# Kobayashi group: curvatures add, holonomies add mod 2 pi, cherns add
vol = sampling.flat_volume_form(grid)
a = constant_curvature_class(vol, chern=2, holA=1.0, holB=5.0)
b = constant_curvature_class(vol, chern=-1, holA=2.5, holB=0.4)
sum_ab = kobayashi_add(a, b)
print("sum: chern", sum_ab.chern, "holA", sum_ab.holA, "holB", sum_ab.holB)
cancel = kobayashi_add(a, kobayashi_neg(a))
print("a + (-a) equals the trivial class:",
      np.max(np.abs(cancel.curvature.c12.values)) == 0.0
      and cancel.holA == 0.0 and cancel.chern == 0)

# Differentiating holonomy in the metric reproduces the line integral of alpha
h = sampling.random_tangent(g, seed=7)
fd, line = tg.holonomy_derivative_check(g, h, Loop.square((0.35, 0.55), 0.3), 1e-4)
print(f"d/dt holonomy angle {fd:+.8e}  vs  loop integral of alpha {line:+.8e}")
