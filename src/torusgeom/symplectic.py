"""The symplectic form on volume-compatible metrics and its tangent space.

Tangent vectors at g are g-trace-free symmetric covariant 2-tensors; the
pairing is Omega_g(h1, h2) = -1/2 int tr((g^-1 h1)(g^-1 mu)(g^-1 h2)) mu.
Curves through g use the determinant-preserving path g_t = g exp(t g^-1 h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SymTensor2, _check_same_grid
from .riemann import Metric, _check_finite, trace_sym2

TRACEFREE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A g-trace-free symmetric 2-tensor attached to its base metric.

    tol is the relative trace residual accepted at construction; it is only
    loosened for tensors produced by coarse-grid or flow-mediated operations.
    """

    base: Metric
    h: SymTensor2
    tol: float = TRACEFREE_TOL

    def __post_init__(self):
        _check_same_grid(self.h, self.base)
        scale = self.h.max_abs()
        if not np.isfinite(scale):
            for name in ("c11", "c12", "c22"):
                _check_finite(f"tangent vector {name}", getattr(self.h, name).values)
        if scale > 0.0:
            tr = trace_sym2(self.h, self.base).max_abs()
            if tr > self.tol * scale:
                raise ValueError(
                    f"tensor is not g-trace-free: sup|tr| = {tr:.3e} "
                    f"(limit {self.tol * scale:.3e})"
                )

    @property
    def grid(self):
        return self.h.grid

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _require_same_base(self.base, other)
        return TangentVector(
            self.base,
            SymTensor2.from_stack(self.grid, self.h.stack() + other.h.stack()),
            max(self.tol, other.tol),
        )

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(
            self.base, SymTensor2.from_stack(self.grid, float(scalar) * self.h.stack()), self.tol
        )

    __rmul__ = __mul__


def _require_same_base(g: Metric, tv: TangentVector):
    if tv.base is not g and not np.array_equal(tv.base.stack(), g.stack()):
        raise ValueError("tangent vector is based at a different metric")


def tracefree_project(h_raw: SymTensor2, g: Metric) -> TangentVector:
    """Remove the g-trace part: h = h_raw - (tr_g h_raw / 2) g; idempotent."""
    ginv = g.inverse_stack()
    gs = g.stack()
    proj = h_raw.stack()
    # applied twice: the second pass removes the roundoff trace left when the
    # input is dominated by its pure-trace part
    for _ in range(2):
        tr = np.einsum("ijab,ijab->ab", ginv, proj)
        proj = proj - 0.5 * tr * gs
    return TangentVector(g, SymTensor2.from_stack(g.grid, proj))


def omega(g: Metric, h1: TangentVector, h2: TangentVector) -> float:
    """Symplectic pairing -1/2 int (h1)^i_j mu^j_k (h2)^k_i mu, raising by g."""
    _require_same_base(g, h1)
    _require_same_base(g, h2)
    ginv = g.inverse_stack()
    mu = g.volume.matrix()
    a1 = np.einsum("ikab,kjab->ijab", ginv, h1.h.stack())
    m = np.einsum("ikab,kjab->ijab", ginv, mu)
    a2 = np.einsum("ikab,kjab->ijab", ginv, h2.h.stack())
    integrand = np.einsum("ijab,jkab,kiab->ab", a1, m, a2)
    f = g.volume.density.values
    return float(-0.5 * np.mean(integrand * f))


def metric_path(g: Metric, h: TangentVector, t: float) -> Metric:
    """Compatible curve g_t = g exp(t g^-1 h) with velocity h at t = 0.

    Since g^-1 h is trace-free, det g_t = det g exactly, so the path never
    leaves the compatible class; positive-definiteness is checked and loss
    is reported with the offending t and lattice location.
    """
    _require_same_base(g, h)
    ginv = g.inverse_stack()
    a = np.einsum("ikab,kjab->ijab", ginv, h.h.stack())
    # traceless 2x2: a^2 = -det(a) id with det(a) <= 0 (a is g-self-adjoint)
    lam2 = np.maximum(-(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]), 0.0)
    lam = np.sqrt(lam2)
    lt = lam * t
    ch = np.cosh(lt)
    sinhc = np.where(lam > 1e-300, np.sinh(lt) / np.where(lam > 1e-300, lam, 1.0), t)
    expo = sinhc * a
    expo[0, 0] += ch
    expo[1, 1] += ch
    gt = np.einsum("ikab,kjab->ijab", g.stack(), expo)
    try:
        return Metric.from_stack(g.grid, 0.5 * (gt + gt.transpose(1, 0, 2, 3)), volume=g.volume)
    except ValueError as err:
        raise ValueError(f"metric path left the positive cone at t={t}: {err}") from err


def path_central(fn, g: Metric, h: TangentVector, eps: float):
    """d/dt fn(g_t) at t = 0 along metric_path by the central step
    (fn(g_eps) - fn(g_-eps)) / (2 eps), error O(eps^2); fn returns a float, an
    array, or an object array of both.  The package's one difference quotient."""
    return (fn(metric_path(g, h, eps)) - fn(metric_path(g, h, -eps))) / (2.0 * eps)


def path_derivative(fn, g: Metric, h: TangentVector, eps: float):
    """d/dt fn(g_t) at t = 0 by one Richardson step on path_central,
    (4 D(eps/2) - D(eps)) / 3, error O(eps^4) (Richardson 1911; Fornberg 1988)."""
    return (4.0 * path_central(fn, g, h, eps / 2.0) - path_central(fn, g, h, eps)) / 3.0


def closedness_defect(
    g: Metric, h1: TangentVector, h2: TangentVector, h3: TangentVector, eps: float,
    form=omega,
) -> float:
    """Finite-difference exterior derivative of a 2-form (Omega by default).

    form(gp, a, b) is evaluated on constant-coefficient test directions: each
    argument is extended near g by freezing its covariant components and
    re-projecting trace-free along metric_path; the full six-term formula
    (three cyclic derivatives minus three bracket terms) is evaluated with
    path_central's plain step, so for Omega it vanishes as O(eps^2).  One
    (g_eps, g_-eps) pair per direction serves its form and bracket terms.
    """
    fields = [h1, h2, h3]

    def extend(i: int, gp: Metric) -> TangentVector:
        return tracefree_project(fields[i].h, gp)

    # along h_i: rate[i] is d/dt form(h_j, h_k), push[i, j] the raw components
    # of d/dt of the extension of h_j
    rate, push = {}, {}
    for i in range(3):
        j, k = (m for m in range(3) if m != i)

        def at(gp: Metric) -> np.ndarray:
            ej, ek = extend(j, gp), extend(k, gp)
            return np.array([form(gp, ej, ek), ej.h.stack(), ek.h.stack()], dtype=object)

        rate[i], push[i, j], push[i, k] = path_central(at, g, extend(i, g), eps)

    def bracket(i: int, j: int) -> TangentVector:
        return tracefree_project(SymTensor2.from_stack(g.grid, push[i, j] - push[j, i]), g)

    d = (
        rate[0]
        - rate[1]
        + rate[2]
        - form(g, bracket(0, 1), extend(2, g))
        + form(g, bracket(0, 2), extend(1, g))
        - form(g, bracket(1, 2), extend(0, g))
    )
    return float(d)


def nondegeneracy_witness(g: Metric, h: TangentVector) -> tuple[TangentVector, float]:
    """Partner h' = sym(mu_ik g^{kl} h_lj) and the strictly positive Omega(h, h').

    Pointwise 2x2 algebra gives Omega(h, h') = 1/2 int |h|_g^2 mu exactly, so
    the witness is bounded below by half the squared L2 norm.
    """
    _require_same_base(g, h)
    if h.h.max_abs() == 0.0:
        raise ValueError("nondegeneracy witness needs a nonzero tangent vector")
    mu = g.volume.matrix()
    rot = np.einsum("ikab,klab,ljab->ijab", mu, g.inverse_stack(), h.h.stack())
    sym = 0.5 * (rot + rot.transpose(1, 0, 2, 3))
    partner = TangentVector(g, SymTensor2.from_stack(g.grid, sym))
    return partner, omega(g, h, partner)
