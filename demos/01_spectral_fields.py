"""Periodic fields on the torus: spectral derivatives, quadrature, interpolation.

Everything in the laboratory lives on a flat chart of the torus [0,1)^2
sampled on an N x N lattice.  Differentiation is FFT-based, so band-limited
fields are differentiated exactly and analytic fields converge spectrally.
"""

import numpy as np

import torusgeom as tg

grid = tg.Grid(64)
print(f"grid: {grid.n} x {grid.n}, spacing {grid.spacing}")

# Exact derivative of a single Fourier mode
f = tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
df = tg.partial(f, 1)
exact = tg.field_from_function(grid, lambda X, Y: 2 * np.pi * np.cos(2 * np.pi * X))
print("d/dx sin(2 pi x) error:", np.max(np.abs(df.values - exact.values)))

# Spectral convergence on an analytic (not band-limited) field
fn = lambda X, Y: np.exp(np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
for n in (16, 32, 64):
    coarse = tg.partial(tg.field_from_function(tg.Grid(n), fn), 2)
    fine = tg.partial(tg.field_from_function(tg.Grid(256), fn), 2)
    step = 256 // n
    err = np.max(np.abs(coarse.values - fine.values[::step, ::step]))
    print(f"  N={n:3d}: derivative error vs N=256 reference {err:.3e}")

# Quadrature = lattice mean; exact for resolved trig polynomials.  A 2-form
# w dx^dy is integrated from its (n, n) coefficient w
print("integral of 0.25 dx^dy:", tg.integrate(tg.constant_field(grid, 0.25).values))

# Seeded band-limited fields are the standard random test inputs
u = tg.random_band_limited(grid, seed=7, kmax=4, decay=0.5)
spec = np.fft.fft2(u.values)
print("random field: max |coefficient| beyond kmax:",
      np.max(np.abs(spec[10:-10, :])))

# Trigonometric interpolation agrees with the series off the lattice
p = (0.237, 0.681)
print("interpolated value at", p, "->", tg.interpolate(u, p))
print("lattice reproduction error:",
      abs(tg.interpolate(u, (5 / 64, 9 / 64)) - u.values[5, 9]))
