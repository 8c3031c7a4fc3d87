"""Seeded random inputs for tests and verification sweeps.

Everything is deterministic in (seed, kmax) at the module constant DECAY and
independent of the grid size, so the same seed names the same continuum
object at every resolution (needed by the convergence suites).
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, OneForm, ScalarField, SymTensor2, random_band_limited
from .riemann import Metric, VolumeForm, project_compatible
from .symplectic import TangentVector, tracefree_project

DECAY = 0.5  # coefficient magnitudes scale like DECAY^|k| (random_band_limited)


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _expm_sym2(arr: np.ndarray) -> np.ndarray:
    """Pointwise exponential of a symmetric 2x2 field (always SPD)."""
    a, b, c = arr[0, 0], arr[0, 1], arr[1, 1]
    m = 0.5 * (a + c)
    beta = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    ch = np.cosh(beta)
    sc = np.where(beta > 1e-300, np.sinh(beta) / np.where(beta > 1e-300, beta, 1.0), 1.0)
    em = np.exp(m)
    e = np.empty_like(arr)
    e[0, 0] = em * (ch + sc * 0.5 * (a - c))
    e[1, 1] = em * (ch - sc * 0.5 * (a - c))
    e[0, 1] = e[1, 0] = em * sc * b
    return e


def random_volume_form(grid: Grid, seed: int, kmax: int = 4) -> VolumeForm:
    """Positive density f = exp(0.08 u) with band-limited u."""
    u = random_band_limited(grid, _child_seed(seed, 90), kmax, DECAY, zero_mean=True)
    return VolumeForm(ScalarField(grid, np.exp(0.08 * u.values)))


def flat_volume_form(grid: Grid) -> VolumeForm:
    return VolumeForm(ScalarField(grid, np.ones((grid.n, grid.n))))


def random_sym_tensor(grid: Grid, seed: int, kmax: int = 4, amp: float = 0.5) -> SymTensor2:
    return SymTensor2(
        *(amp * random_band_limited(grid, _child_seed(seed, t), kmax, DECAY) for t in (11, 12, 22))
    )


def random_compatible_metric(
    grid: Grid, seed: int, kmax: int = 4, volume: VolumeForm | None = None
) -> Metric:
    """Compatible metric exp(A) rescaled to det = f^2, A random symmetric."""
    if volume is None:
        volume = flat_volume_form(grid)
    a = random_sym_tensor(grid, _child_seed(seed, 7), kmax, 0.1)
    return project_compatible(SymTensor2.from_stack(grid, _expm_sym2(a.stack())), volume)


def random_tangent(g: Metric, seed: int, kmax: int = 4) -> TangentVector:
    """Random g-trace-free direction at g."""
    h_raw = random_sym_tensor(g.grid, _child_seed(seed, 21), kmax, 0.4)
    return tracefree_project(h_raw, g)


def random_oneform(grid: Grid, seed: int, kmax: int = 4) -> OneForm:
    return OneForm(
        *(0.5 * random_band_limited(grid, _child_seed(seed, t), kmax, DECAY) for t in (31, 32))
    )


def random_stream(grid: Grid, seed: int, kmax: int = 4) -> ScalarField:
    """Zero-mean stream function; its amplitude 0.015 keeps the induced
    velocities O(1) and the t = 0.1 flows resolvable on desk-scale grids."""
    psi = random_band_limited(grid, _child_seed(seed, 41), kmax, DECAY, zero_mean=True)
    return ScalarField(grid, 0.015 * psi.values)


def random_harmonic(seed: int) -> tuple[float, float]:
    rng = np.random.default_rng([seed, 55])
    a, b = rng.normal(scale=0.5, size=2)
    return float(a), float(b)
