"""The group-valued momentum identity, term by term.

Volume-preserving flows act on compatible metrics by pushforward.  The
infinitesimal action of a divergence-free field X is -L_X g, and the
identity verified here is

    Omega_g(-L_X g, h) + kappa(X, alpha_h) = 0,

where alpha_h = mu . (double divergence of h) is a 1-form representative of
the logarithmic derivative of the canonical-bundle assignment g -> K_g M.
The two terms are computed by completely separate code paths; their sum is
the laboratory's headline residual.  Fields with nonzero harmonic part are
the directions a stream-function-only (exact) momentum map cannot see.
"""

import numpy as np

import torusgeom as tg
from torusgeom import sampling
from torusgeom.riemann import l2_norm_sym2, l2_norm_vector

grid = tg.Grid(64)
vol = sampling.random_volume_form(grid, seed=2)
g = sampling.random_compatible_metric(grid, seed=1, volume=vol)
h = sampling.random_tangent(g, seed=11)

for label, harmonic in (("exact (stream only)", (0.0, 0.0)),
                        ("with harmonic part", sampling.random_harmonic(31))):
    X = tg.div_free_from_stream(sampling.random_stream(grid, 21), harmonic, vol)
    scale = l2_norm_vector(X.vector, g) * l2_norm_sym2(h.h, g)

    fund = tg.fundamental_vector(X, g)          # -L_X g, trace-free by theory
    lhs = tg.omega(g, fund, h)                  # symplectic side
    alpha = tg.connection_alpha(g, h)           # log-derivative representative
    rhs = tg.pairing_kappa(X, alpha)            # duality side

    print(f"{label}:")
    print(f"  Omega(X.g, h)      = {lhs:+.12e}")
    print(f"  kappa(X, alpha_h)  = {rhs:+.12e}")
    print(f"  residual / scale   = {abs(lhs + rhs) / scale:.3e}")

# Lemma 1 in isolation: the same symplectic pairing equals the divergence form
X = tg.div_free_from_stream(sampling.random_stream(grid, 41), (0.2, -0.1), vol)
lhs = tg.omega(g, tg.fundamental_vector(X, g), h)
rhs = tg.lemma1_rhs(g, X, h)
print("Lemma 1 two-sided gap:", abs(lhs - rhs))

# kappa descends to classes modulo exact forms
phi = tg.random_band_limited(grid, 51, 4, 0.5)
dphi = np.stack([tg.partial(phi, 1).values, tg.partial(phi, 2).values])  # 1-form components
print("kappa against an exact form:", tg.pairing_kappa(X, dphi))
