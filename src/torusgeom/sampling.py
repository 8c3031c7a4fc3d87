"""Seeded random inputs for tests and verification sweeps.

Everything is deterministic in (seed, kmax) at the module constant DECAY and
independent of the grid size, so the same seed names the same continuum
object at every resolution (needed by the convergence suites).
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, ScalarField, _read_only, random_band_limited
from .riemann import Metric, VolumeForm, _expm_traceless, flat_volume_form, project_compatible
from .symplectic import TangentVector, tracefree_project

DECAY = 0.5  # coefficient magnitudes scale like DECAY^|k| (random_band_limited)


def _child_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def random_volume_form(grid: Grid, seed: int, kmax: int = 4) -> VolumeForm:
    """Positive density f = exp(0.08 u) with band-limited u."""
    u = random_band_limited(grid, _child_seed(seed, 90), kmax, DECAY, zero_mean=True)
    return VolumeForm(ScalarField(grid, np.exp(0.08 * u.values)))


def random_sym_tensor(grid: Grid, seed: int, kmax: int = 4, amp: float = 0.5) -> np.ndarray:
    """Components h_ij of a random symmetric 2-tensor, a read-only (2, 2, n, n) array."""
    c11, c12, c22 = (amp * random_band_limited(grid, _child_seed(seed, t), kmax, DECAY).values
                     for t in (11, 12, 22))
    return _read_only(np.array([[c11, c12], [c12, c22]]))


def random_compatible_metric(
    grid: Grid, seed: int, kmax: int = 4, volume: VolumeForm | None = None
) -> Metric:
    """Compatible metric f exp(A0), A0 the trace-free part of a random symmetric A
    (det exp(A0) = 1, so project_compatible only rescales by f)."""
    if volume is None:
        volume = flat_volume_form(grid)
    a = random_sym_tensor(grid, _child_seed(seed, 7), kmax, 0.1)
    x = 0.5 * (a[0, 0] - a[1, 1])
    a0 = np.array([[x, a[0, 1]], [a[0, 1], -x]])
    return project_compatible(_expm_traceless(a0, 1.0), volume)


def random_tangent(g: Metric, seed: int, kmax: int = 4) -> TangentVector:
    """Random g-trace-free direction at g."""
    h_raw = random_sym_tensor(g.grid, _child_seed(seed, 21), kmax, 0.4)
    return tracefree_project(h_raw, g)


def random_oneform(grid: Grid, seed: int, kmax: int = 4) -> np.ndarray:
    """Components a_i of a random 1-form, a read-only (2, n, n) array."""
    c = [random_band_limited(grid, _child_seed(seed, t), kmax, DECAY).values for t in (31, 32)]
    return _read_only(0.5 * np.array(c))


def random_stream(grid: Grid, seed: int, kmax: int = 4) -> ScalarField:
    """Zero-mean stream function; its amplitude 0.015 keeps the induced
    velocities O(1) and the t = 0.1 flows resolvable on desk-scale grids."""
    psi = random_band_limited(grid, _child_seed(seed, 41), kmax, DECAY, zero_mean=True)
    return ScalarField(grid, 0.015 * psi.values)


def random_harmonic(seed: int) -> tuple[float, float]:
    rng = np.random.default_rng([seed, 55])
    a, b = rng.normal(scale=0.5, size=2)
    return float(a), float(b)
