"""Divergence-free fields, flows of volume-preserving maps, and Lemma-1 data.

A divergence-free field is encoded by its flux 1-form X . mu = d(psi) +
a dx + b dy (stream function plus harmonic part); its components
X^1 = (d2 psi + b)/mu_12 and X^2 = -(d1 psi + a)/mu_12 follow the oriented
coefficient of the volume form.  Group elements near the identity are
realized as RK4 flows of such fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    Grid,
    Interpolator,
    ScalarField,
    SymTensor2,
    VectorField,
    _as_float_array,
    _derivatives,
    _read_only,
)
from .riemann import (
    Metric,
    VolumeForm,
    _check_finite,
    _det,
    complex_structure,
    cov_deriv_vector,
    divergence_sym2,
    metric_lie_derivative,
    raise_sym2,
)
from .symplectic import TangentVector, tracefree_project

FLOW_MAX_DT = 1e-2
FLOW_VOLUME_LIMIT = 1e-4
PUSHFORWARD_COMPAT_TOL = 1e-5  # RK4-limited, not the spectral floor of exact metrics
CLOSED_FLUX_TOL = 1e-11  # DivFreeField: sup |d(X . mu)| over max(|psi|, |a|, |b|, 1)
ZERO_MEAN_TOL = 1e-12  # DivFreeField: |mean psi| over max(|psi|, 1)
FUNDAMENTAL_TRACE_TOL = 1e-9  # fundamental_vector's default trace gate, for N >= 64


@dataclass(frozen=True, eq=False)
class DivFreeField:
    """mu-divergence-free vector field with stream and harmonic data; the
    closed-flux gate sup |d(X . mu)| <= CLOSED_FLUX_TOL max(|psi|, |a|, |b|, 1)
    runs when it is built."""

    stream: ScalarField
    harmonic: tuple[float, float]
    volume: VolumeForm

    def __post_init__(self):
        scale = self.stream.max_abs()
        if not np.isfinite(scale):
            _check_finite("stream function", self.stream.values)
        if not np.isfinite(self.harmonic).all():
            raise ValueError(f"harmonic part is not finite: {self.harmonic}")
        if abs(self.stream.mean()) > ZERO_MEAN_TOL * max(scale, 1.0):
            raise ValueError("stream function must have zero mean")
        flux = _derivatives(self.stream.values) + np.array(self.harmonic)[:, None, None]
        vec = VectorField.from_stack(  # X^i mu_ik = flux_k, k != i
            self.grid, flux[::-1] / self.volume.matrix()[[0, 1], [1, 0]])
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "_flux", flux)
        res = self.closedness_residual()
        if not res <= CLOSED_FLUX_TOL * max(scale, *map(abs, self.harmonic), 1.0):
            raise ValueError(f"divergence-free reconstruction failed: d(X.mu) = {res:.3e}")

    @property
    def grid(self) -> Grid:
        return self.stream.grid

    def closedness_residual(self) -> float:
        """sup |d(X . mu)|; zero up to the spectral commutator."""
        d = _derivatives(np.stack([self._flux[1], -self._flux[0]]), summed=True)
        return float(np.max(np.abs(d)))


def div_free_from_stream(
    psi: ScalarField, harmonic: tuple[float, float], mu: VolumeForm
) -> DivFreeField:
    """Build the unique X with X . mu = d(psi) + harmonic_1 dx + harmonic_2 dy."""
    return DivFreeField(psi, (float(harmonic[0]), float(harmonic[1])), mu)


def fundamental_vector(
    X: DivFreeField, g: Metric, trace_tol: float = FUNDAMENTAL_TRACE_TOL
) -> TangentVector:
    """Infinitesimal action X.g = -L_X g; g-trace-free for compatible g.

    The trace is asserted, not projected, by the TangentVector gate at
    trace_tol * max|L_X g|: a residual above it means the compatibility
    precondition is broken.  The default tolerance is for desk-scale grids
    (N >= 64); coarse grids alias harder and may pass a looser bound
    explicitly.
    """
    lie = metric_lie_derivative(X.vector, g)
    h = SymTensor2.from_stack(g.grid, -lie.stack())
    try:
        return TangentVector(g, h, trace_tol)
    except ValueError as err:
        raise ValueError(
            f"-L_X g has g-trace above its limit ({err}); metric is not "
            "volume-compatible or X is not divergence-free"
        ) from err


def pairing_kappa(X: DivFreeField, alpha: np.ndarray) -> float:
    """Duality pairing int (X . alpha) mu of the 1-form with (2, n, n)
    components alpha_i; descends to classes mod exact forms."""
    f = X.volume.density.values
    xs = X.vector.stack()
    return float(np.mean((xs[0] * alpha[0] + xs[1] * alpha[1]) * f))


def lemma1_rhs(g: Metric, X: DivFreeField, h: TangentVector) -> float:
    """- int X^i mu_ik (nabla_j h^{kj}) mu  (h raised twice by g)."""
    y = divergence_sym2(h.h, g)
    xs = X.vector.stack()
    f = g.volume.density.values
    return float(-np.mean(f * g.volume.coefficient() * (xs[0] * y[1] - xs[1] * y[0])))


def skew_defect_mu_h(g: Metric, h: TangentVector) -> float:
    """sup of the antisymmetric part of mu_ik h^k_j = (I^T h)_ij, I the
    complex_structure (zero for trace-free h)."""
    mixed = np.einsum("kiab,kjab->ijab", complex_structure(g), h.h.stack())
    return float(np.max(np.abs(mixed[0, 1] - mixed[1, 0])))


def integration_by_parts_residual(g: Metric, X: DivFreeField, h: TangentVector) -> float:
    """| int (nabla_j X^i) mu_ik h^{kj} mu + int X^i mu_ik nabla_j h^{kj} mu |."""
    nab = cov_deriv_vector(X.vector, g)  # [j, i] = nabla_j X^i
    hup = raise_sym2(h.h, g)
    mu = g.volume.matrix()
    f = g.volume.density.values
    lhs = float(np.mean(np.einsum("jiab,ikab,kjab->ab", nab, mu, hup) * f))
    return abs(lhs - lemma1_rhs(g, X, h))


@dataclass(frozen=True, eq=False)
class DiscreteDiffeo:
    """Volume-preserving map sampled on the lattice, with its inverse.

    forward/inverse hold the images of the lattice points in lifted
    coordinates, shape (2, n, n).  The inverse is computed by reverse-time
    flow, not by map inversion.  det_forward, which flow sets, is det DPhi at
    the lattice from the variational (tangent-map) flow, which is RK4-limited
    rather than limited by re-differentiating the sampled map; volume_defect
    needs it.  The arrays are read-only copies, so what is built from them
    when first read and cached cannot go stale: the lattice points (2, n, n),
    the attribute inverse_jacobian, D(phi^-1), which every pushforward along
    the map reads, and the volume defect.
    """

    grid: Grid
    forward: np.ndarray
    inverse: np.ndarray
    volume: VolumeForm
    det_forward: np.ndarray | None = None

    def __post_init__(self):
        for name in ("forward", "inverse", "det_forward"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_float_array(getattr(self, name)))

    @cached_property
    def _mesh(self) -> np.ndarray:
        return _read_only(np.stack(self.grid.meshes()))

    @cached_property
    def inverse_jacobian(self) -> np.ndarray:
        """D(phi^-1) at the lattice, [k, i] = d_i (phi^-1)^k, read-only, from
        spectral derivatives of the inverse's displacement."""
        grad = _derivatives(self.inverse - self._mesh)  # [i, k]
        return _read_only(grad.transpose(1, 0, 2, 3) + np.eye(2)[:, :, None, None])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """The forward map at points (m, 2), by interpolating its displacement."""
        d = _read_only(self.forward - self._mesh)
        return np.asarray(points) + Interpolator([ScalarField(self.grid, c) for c in d])(points).T

    @cached_property
    def _volume_defect(self) -> float:
        if self.det_forward is None:
            raise ValueError("volume_defect needs det_forward, the variational-flow determinant")
        f = self.volume.density
        f_phi = Interpolator([f])(self.forward.reshape(2, -1).T)[0].reshape(f.values.shape)
        return float(np.max(np.abs(f_phi * self.det_forward - f.values)) / np.max(np.abs(f.values)))

    def volume_defect(self) -> float:
        """sup |f(Phi(x)) det DPhi(x) - f(x)| / sup f with det DPhi = det_forward;
        a map without det_forward is rejected.  Computed once."""
        return self._volume_defect

    def roundtrip_residual(self) -> float:
        """sup distance of Phi(Phi^-1(x)) from x."""
        pts = self.apply(self.inverse.reshape(2, -1).T)
        mesh = self._mesh.reshape(2, -1).T
        diff = pts - mesh
        diff -= np.round(diff)
        return float(np.max(np.abs(diff)))


def _rk4_flow(
    interp: Interpolator,
    points: np.ndarray,
    at_points: np.ndarray,
    t: float,
    nsteps: int,
    tangent: bool = False,
):
    """RK4 trajectories of the interpolated velocity; optionally carries the
    tangent map J along each trajectory (variational equation J' = DX J).
    at_points is interp(points, derivatives=tangent), the velocity where the
    trajectories start, which the first stage takes.

    J is component-first, a (2, 2, m) array with J[k, i] = d_i phi^k, and
    each stage's DX J is formed in closed form from the interpolator's
    (3, 2, m) output, whose row 1 + l holds d_l X^k: (DX J)[k, i] =
    d_1 X^k J[0, i] + d_2 X^k J[1, i], four (m,)-vector sums."""
    h = t / nsteps
    p = points.copy()
    jac = np.eye(2)[:, :, None] if tangent else None  # broadcasts to (2, 2, m)

    def speed(vals):  # the velocity [point, k]
        return (vals[0] if tangent else vals).T

    def dxj(vals, jac):
        return vals[1][:, None] * jac[0] + vals[2][:, None] * jac[1]

    for step in range(nsteps):
        v1 = interp(p, derivatives=tangent) if step else at_points
        v2 = interp(p + 0.5 * h * speed(v1), derivatives=tangent)
        v3 = interp(p + 0.5 * h * speed(v2), derivatives=tangent)
        v4 = interp(p + h * speed(v3), derivatives=tangent)
        if tangent:
            j1 = dxj(v1, jac)
            j2 = dxj(v2, jac + 0.5 * h * j1)
            j3 = dxj(v3, jac + 0.5 * h * j2)
            j4 = dxj(v4, jac + h * j3)
            jac = jac + (h / 6.0) * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        p = p + (h / 6.0) * (speed(v1) + 2.0 * speed(v2) + 2.0 * speed(v3) + speed(v4))
    return p, jac


def flow(X: DivFreeField, t: float, dt: float) -> DiscreteDiffeo:
    """The flow of X for time t with RK4 steps of size <= dt (_flow_map),
    certified volume-preserving within FLOW_VOLUME_LIMIT."""
    phi = _flow_map(X, t, dt)
    defect = phi.volume_defect()
    if defect > FLOW_VOLUME_LIMIT:
        raise ValueError(f"flow volume defect {defect:.3e} exceeds {FLOW_VOLUME_LIMIT}; reduce dt")
    return phi


def _flow_map(X: DivFreeField, t: float, dt: float) -> DiscreteDiffeo:
    """Integrate the lattice along X for time t with RK4 steps of size <= dt,
    before flow's volume gate.

    The forward flow carries the tangent map, so each of its stages evaluates
    the velocity and its first derivatives; the reverse-time flow that gives
    the inverse evaluates the velocity alone, from the same interpolator,
    whose chop is guarded for both.  Both flows start at the lattice, so the
    velocity and its derivatives are evaluated there once: the forward flow's
    first stage takes all of it and the reverse flow's first stage the values,
    bit for bit a value-only call.  A stage at all n^2 lattice points costs
    O(M^2 n^2) with M = max(8, 2K + 2) < n for the velocity's band K, or the
    full n when the band does not fit (see fields.Interpolator).
    """
    for name, value in (("t", t), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"flow {name} must be finite, got {value}")
    if dt > FLOW_MAX_DT + 1e-15:
        raise ValueError(f"flow step dt={dt} exceeds the limit {FLOW_MAX_DT}")
    if dt <= 0.0:
        raise ValueError("flow step dt must be positive")
    grid = X.grid
    velocity = Interpolator([X.vector.x1, X.vector.x2], derivatives=True)
    Xm, Ym = grid.meshes()
    pts = np.column_stack([Xm.ravel(), Ym.ravel()])
    nsteps = max(1, math.ceil(abs(t) / dt))
    at_lattice = velocity(pts, derivatives=True)
    fwd, jac = _rk4_flow(velocity, pts, at_lattice, t, nsteps, tangent=True)
    inv, _ = _rk4_flow(velocity, pts, at_lattice[0], -t, nsteps)
    det = _det(jac).reshape(grid.n, grid.n)
    return DiscreteDiffeo(
        grid,
        fwd.T.reshape(2, grid.n, grid.n),
        inv.T.reshape(2, grid.n, grid.n),
        X.volume,
        det_forward=det,
    )


def _pushforward_sym2_stack(phi: DiscreteDiffeo, comps: list[ScalarField]) -> np.ndarray:
    """Common kernel: (phi_* T)_ij = J^k_i J^l_j T_kl(phi^-1), J = D(phi^-1),
    symmetrized to cancel roundoff."""
    grid = phi.grid
    jac = phi.inverse_jacobian
    pulled = Interpolator(comps)(phi.inverse.reshape(2, -1).T).reshape(3, grid.n, grid.n)
    tpull = pulled[[[0, 1], [1, 2]]]  # (c11, c12, c22) -> T[k, l]
    out = np.einsum("kiab,ljab,klab->ijab", jac, jac, tpull)
    return 0.5 * (out + out.transpose(1, 0, 2, 3))


def _push_metric(phi: DiscreteDiffeo, g: Metric) -> Metric:
    """phi_* g, before pushforward_metric's compatibility gate."""
    arr = _pushforward_sym2_stack(phi, [g.g11, g.g12, g.g22])
    return Metric.from_stack(phi.grid, arr, volume=g.volume)


def pushforward_metric(phi: DiscreteDiffeo, g: Metric) -> Metric:
    """Push g forward along phi; the result is re-certified compatible
    within PUSHFORWARD_COMPAT_TOL."""
    pushed = _push_metric(phi, g)
    res = pushed.compatibility_residual()
    if res > PUSHFORWARD_COMPAT_TOL:
        raise ValueError(f"pushforward lost compatibility: residual {res:.3e} > "
                         f"{PUSHFORWARD_COMPAT_TOL}")
    return pushed


def pushforward_tangent(
    phi: DiscreteDiffeo, h: TangentVector, g_push: Metric
) -> TangentVector:
    """Push a tangent tensor forward and re-project trace-free at phi_* g."""
    arr = _pushforward_sym2_stack(phi, [h.h.c11, h.h.c12, h.h.c22])
    return tracefree_project(arr, g_push)
