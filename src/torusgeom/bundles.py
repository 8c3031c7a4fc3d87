"""Circle-bundle classes on the torus, frame holonomy, and the momentum identity.

A gauge class of circle bundles with connection is modeled by its curvature
2-form together with the holonomy angles along the two generator loops based
at the origin; this triple (plus the Chern integer) is a complete invariant
on the torus.  The group law adds curvatures and holonomy angles.

Convention: frame transport of the tangent bundle around a positively
oriented contractible loop rotates by + int_Sigma K mu with the Gauss
curvature K = S/2 (the angle is -int omega for the Levi-Civita connection
1-form omega, whose exterior derivative is the curvature form -K mu; the
shrinking-loop check pins the sign).  The canonical bundle twists at
-KAPPA_CONV = -2 times that rate: its curvature is -KAPPA_CONV K mu = -S mu
and its holonomy angle is -KAPPA_CONV times the transported frame angle.  All
convention-free identities (d alpha, the divergence identity, the momentum
residual) are independent of KAPPA_CONV.

Frame transport forms omega only at a loop's quadrature nodes, from the
interpolated metric and its derivatives: no lattice connection form is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    Interpolator,
    ScalarField,
    TwoForm,
    _check_finite_points,
    _check_same_grid,
    _derivatives,
    _gauss_legendre,
    _read_only,
    constant_field,
    integrate,
)
from .riemann import (
    Metric,
    VolumeForm,
    _det,
    _inverse,
    _levi_civita,
    cov_deriv_oneform,
    divergence_sym2,
    divergence_vector,
    double_divergence,
    scalar_curvature,
)
from .symplectic import TangentVector, omega, path_derivative
from .diffeo import FUNDAMENTAL_TRACE_TOL, DivFreeField, fundamental_vector, pairing_kappa

KAPPA_CONV = 2.0
QUANTIZATION_TOL = 1e-8
TWO_PI = 2.0 * math.pi
PANEL_NODES = 24
PANEL_LENGTH = 0.25


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed polyline on the torus in lifted coordinates.

    points has shape (m+1, 2), finite, with points[-1] = points[0] + winding
    for an integer winding pair; the loop is contractible iff the winding is
    (0, 0).
    All loops used by the verification suites (squares, generators) are exact
    polylines, so no resampling error enters the line integrals.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("loop needs an (m+1, 2) array of vertices")
        _check_finite_points("loop vertex", pts)
        gap = pts[-1] - pts[0]
        if np.max(np.abs(gap - np.round(gap))) > 1e-9:
            raise ValueError("loop is not closed modulo Z^2")
        object.__setattr__(self, "points", pts)

    @property
    def winding(self) -> tuple[int, int]:
        gap = self.points[-1] - self.points[0]
        return int(round(gap[0])), int(round(gap[1]))

    @property
    def contractible(self) -> bool:
        return self.winding == (0, 0)

    @classmethod
    def square(cls, center: tuple[float, float], side: float) -> "Loop":
        """Counterclockwise square loop (positively oriented for dx^dy)."""
        cx, cy = center
        s = side / 2.0
        return cls(
            np.array(
                [
                    [cx - s, cy - s],
                    [cx + s, cy - s],
                    [cx + s, cy + s],
                    [cx - s, cy + s],
                    [cx - s, cy - s],
                ]
            )
        )

    @classmethod
    def generator(cls, axis: int, basepoint: tuple[float, float] = (0.0, 0.0)) -> "Loop":
        """Straight generator loop winding once along axis 1 (x) or 2 (y)."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        p = np.asarray(basepoint, dtype=np.float64)
        step = np.array([1.0, 0.0]) if axis == 1 else np.array([0.0, 1.0])
        return cls(np.stack([p, p + step]))


@dataclass(frozen=True, eq=False)
class CircleBundleClass:
    """Torus model of a circle bundle with connection, up to gauge."""

    curvature: TwoForm
    holA: float
    holB: float
    chern: int

    def __post_init__(self):
        object.__setattr__(self, "holA", float(self.holA % TWO_PI))
        object.__setattr__(self, "holB", float(self.holB % TWO_PI))
        total = integrate(self.curvature.stack())
        if abs(total - TWO_PI * self.chern) > QUANTIZATION_TOL:
            raise ValueError(
                f"curvature integral {total:.3e} is not 2*pi*{self.chern} "
                f"within {QUANTIZATION_TOL}"
            )

    @property
    def grid(self) -> Grid:
        return self.curvature.grid


def identity_class(grid: Grid) -> CircleBundleClass:
    """The trivial bundle with the flat connection."""
    return CircleBundleClass(TwoForm(constant_field(grid, 0.0)), 0.0, 0.0, 0)


def constant_curvature_class(
    mu: VolumeForm, chern: int, holA: float = 0.0, holB: float = 0.0
) -> CircleBundleClass:
    """Class with curvature 2*pi*chern * mu / vol(mu); handy test input."""
    scale = TWO_PI * chern / integrate(mu.stack())
    return CircleBundleClass(TwoForm.from_stack(mu.grid, scale * mu.stack()), holA, holB, chern)


def kobayashi_add(c1: CircleBundleClass, c2: CircleBundleClass) -> CircleBundleClass:
    """Group law: curvatures add, holonomies multiply (angles add), cherns add."""
    curv = TwoForm.from_stack(_check_same_grid(c1, c2), c1.curvature.stack() + c2.curvature.stack())
    return CircleBundleClass(curv, c1.holA + c2.holA, c1.holB + c2.holB, c1.chern + c2.chern)


def kobayashi_neg(c: CircleBundleClass) -> CircleBundleClass:
    """Inverse class (same bundle with the opposite circle action)."""
    curv = TwoForm.from_stack(c.grid, -c.curvature.stack())
    return CircleBundleClass(curv, -c.holA, -c.holB, -c.chern)


def connection_alpha(g: Metric, h: TangentVector) -> np.ndarray:
    """Representative alpha_i = mu_ik nabla_j h^{kj} of the log-derivative
    class, as a read-only (2, n, n) array."""
    return _read_only(g.volume.contract(divergence_sym2(h.h, g)))


def dalpha_defect(g: Metric, h: TangentVector) -> ScalarField:
    """Pointwise defect (d alpha)_12 + mu_12 nabla_k nabla_l h^{kl}; ~0 always."""
    y = divergence_sym2(h.h, g)  # nabla_j h^{kj}
    m = g.volume.coefficient()
    # alpha = (mu_12 y^2, -mu_12 y^1), so d alpha = d_1 alpha_2 - d_2 alpha_1 = -div(mu_12 y)
    dalpha = -_derivatives(m * y, summed=True)
    return ScalarField(g.grid, dalpha + m * double_divergence(h.h, g))


def divergence_identity_defect(g: Metric, Y: np.ndarray) -> np.ndarray:
    """Defect of nabla_i(Y^k mu_kj) - nabla_j(Y^k mu_ki) = (nabla_k Y^k) mu_ij for
    a (2, n, n) array Y^k, as the read-only (n, n) coefficient of dx^dy."""
    nab = cov_deriv_oneform(-g.volume.contract(Y), g)  # of beta_j = Y^k mu_kj
    div = divergence_vector(Y, g).values
    return _read_only(nab[0, 1] - nab[1, 0] - div * g.volume.coefficient())


def _transport(interp: Interpolator, sign: float, loop: Loop) -> float:
    """-int_loop omega, the Levi-Civita connection 1-form omega_i =
    g(nabla_i E1, E2) formed at the loop's nodes from interp, the (g11, g12,
    g22) interpolant with derivatives.  E1 = d/dx / sqrt(g11) and E2 = I E1
    form a global g-orthonormal frame, so along a parallel vector the angle
    against E1 obeys theta' = -omega(c').  With I = -g^-1 mu and mu = sign
    sqrt(det g) eps (sign: the volume form's), g(V, E2) = -mu(V, E1) =
    sign sqrt(det g) E1^1 V^2, so only nabla_i E1^2 = Gamma^2_i1 E1^1 enters:
    omega_i = sign sqrt(det g) Gamma^2_i1 / g11."""
    pts, wvec = _loop_nodes(loop)
    vals = interp(pts, derivatives=True)[:, [[0, 1], [1, 2]]]  # (g11, g12, g22) -> g[p, q]
    gs, dg = vals[0], vals[1:]  # g_pq and d_i g_pq
    gamma = _levi_civita(_inverse(gs), dg)[1, :, 0]  # Gamma^2_i1
    omega = sign * np.sqrt(_det(gs)) / gs[0, 0] * gamma
    return -float(np.sum(omega.T * wvec))


def frame_transport(g: Metric, loop: Loop) -> float:
    """Net rotation angle of parallel transport around a closed loop.

    The angle is measured continuously against the g-orthonormal frame
    (E1, E2), so it equals -int_loop omega and is not reduced mod 2*pi.  By
    Cartan's structure equation d(omega) = -(S/2) mu, so for a positively
    oriented contractible loop it is the enclosed integral of S/2.
    """
    return _transport(Interpolator([g.g11, g.g12, g.g22], derivatives=True), g.volume.sign, loop)


def canonical_class(g: Metric) -> CircleBundleClass:
    """The canonical circle bundle of (g, mu) as a gauge class.

    Curvature is -KAPPA_CONV * K * mu = -S mu with K = S/2; the generator
    holonomies come from frame transport along the two straight generators
    through the origin.  On the torus the Chern integer is forced to 0 by
    Gauss-Bonnet; the class's quantization check doubles as a transport sanity check.
    """
    s = scalar_curvature(g)
    curv = TwoForm.from_stack(g.grid, -KAPPA_CONV * (0.5 * s.values) * g.volume.coefficient())
    interp = Interpolator([g.g11, g.g12, g.g22], derivatives=True)  # both generators
    theta_a, theta_b = (_transport(interp, g.volume.sign, Loop.generator(axis)) for axis in (1, 2))
    chern = int(round(integrate(curv.stack()) / TWO_PI))
    return CircleBundleClass(curv, -KAPPA_CONV * theta_a, -KAPPA_CONV * theta_b, chern)


def momentum_residual(
    g: Metric, X: DivFreeField, h: TangentVector, trace_tol: float = FUNDAMENTAL_TRACE_TOL
) -> float:
    """Omega_g(X.g, h) + kappa(X, alpha_h); zero is the momentum-map identity.
    X.g is fundamental_vector's, behind its trace gate at trace_tol."""
    lhs = omega(g, fundamental_vector(X, g, trace_tol), h)
    return lhs + pairing_kappa(X, connection_alpha(g, h))


def _loop_nodes(loop: Loop) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (m, 2) of a polyline loop and weights times the edge tangent (m, 2):
    each edge is cut into ceil(length / PANEL_LENGTH) Gauss-Legendre panels of
    PANEL_NODES nodes; one such panel on a unit generator edge leaves errors near 1e-6."""
    nodes, weights = _gauss_legendre(PANEL_NODES)
    pts, wvec = [], []
    for a, b in zip(loop.points[:-1], loop.points[1:]):
        tang = b - a
        length = float(np.hypot(*tang))
        if length == 0.0:
            continue
        m = math.ceil(length / PANEL_LENGTH)
        u = (np.arange(m)[:, None] + 0.5 * (nodes + 1.0)).ravel() / m
        pts.append(a + u[:, None] * tang)
        wvec.append(np.tile(0.5 * weights / m, m)[:, None] * tang)
    if not pts:
        raise ValueError("loop has no extent")
    return np.concatenate(pts), np.concatenate(wvec)


def loop_integral_oneform(alpha: np.ndarray, loop: Loop) -> float:
    """Line integral of the 1-form with (2, n, n) components alpha_i along a
    polyline loop (nodes: _loop_nodes)."""
    pts, wvec = _loop_nodes(loop)
    grid = Grid(alpha.shape[-1])
    return float(np.sum(Interpolator([ScalarField(grid, a) for a in alpha])(pts).T * wvec))


def holonomy_derivative_check(
    g: Metric, h: TangentVector, loop: Loop, eps: float
) -> tuple[float, float]:
    """(d/dt of the canonical holonomy angle along metric_path, int_gamma alpha).

    Only contractible loops are accepted.  The derivative is path_derivative's
    Richardson value on central steps of eps and eps/2, so it costs four
    frame transports.  The two values agree by the log-derivative identity
    for the canonical bundle.
    """
    if not loop.contractible:
        raise ValueError(f"loop winds {loop.winding}; the check needs a contractible loop")
    fd = path_derivative(lambda gt: -KAPPA_CONV * frame_transport(gt, loop), g, h, eps)
    line = loop_integral_oneform(connection_alpha(g, h), loop)
    return float(fd), float(line)
