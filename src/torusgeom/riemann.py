"""Metrics compatible with a volume form, Levi-Civita data and curvature.

Orientation convention used throughout: the area 2-form is mu = eps_12 f dx^dy
with density f > 0 and eps_12 = +-1, the module constant read when a
VolumeForm is built; every orientation-dependent sign comes from the VolumeForm.
A metric is compatible when sqrt(det g) = f pointwise; then nabla mu = 0.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    Component,
    Grid,
    MixedTensor,
    OneForm,
    ScalarField,
    SymTensor2,
    ContraSymTensor2,
    Tensor,
    TwoForm,
    VectorField,
    _check_same_grid,
    _derivatives,
    constant_field,
    integrate,
)

EPS_12 = 1.0  # orientation of mu against dx^dy; read only when a VolumeForm is built


def _check_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN or infinite samples, naming the first lattice location."""
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{name} is not finite at lattice ({i}, {j}): {values[i, j]}")


def _det(gs: np.ndarray) -> np.ndarray:
    """g11 g22 - g12^2 of a (2, 2, ...) stack of symmetric values, pointwise."""
    return gs[0, 0] * gs[1, 1] - gs[0, 1] ** 2


def _check_positive_definite(name: str, gs: np.ndarray) -> np.ndarray:
    """det of a (2, 2, n, n) stack; a non-positive-definite one is rejected at a lattice site."""
    a = gs[0, 0]
    det = _det(gs)
    if np.min(a) <= 0.0 or np.min(det) <= 0.0:
        bad = np.argmin(np.where(a <= 0, a, det))
        i, j = np.unravel_index(bad, a.shape)
        raise ValueError(
            f"{name} not positive-definite at lattice ({i}, {j}): "
            f"g11={a[i, j]:.6g}, det={det[i, j]:.6g}"
        )
    return det


class VolumeForm(Tensor):
    """Area form mu = sign * f dx^dy, stored by its density f > 0 (the measure of
    integrals, checked finite and positive) as an (n, n) array; sign is eps_12,
    read when the form is built: the orientation of everything built on it."""

    density = Component(())

    def __post_init__(self):
        f = self.density.values
        _check_finite("volume density", f)
        fmin = float(np.min(f))
        if fmin <= 0.0:
            a, b = np.unravel_index(np.argmin(f), f.shape)
            raise ValueError(f"volume density must be positive; min {fmin} at lattice ({a}, {b})")
        sign = EPS_12
        mu = sign * np.array([[0.0, 1.0], [-1.0, 0.0]])[:, :, None, None] * f  # f eps_ij
        mu.setflags(write=False)
        vars(self).update(sign=sign, _matrix=mu)

    def total(self) -> float:
        return integrate(TwoForm(self.density))

    def matrix(self) -> np.ndarray:
        """mu_ij as a read-only (2, 2, n, n) array, built once."""
        return self._matrix

    def coefficient(self) -> np.ndarray:
        """The oriented coefficient mu_12 = sign * f, a read-only (n, n) view."""
        return self._matrix[0, 1]

    def contract(self, v: np.ndarray) -> np.ndarray:
        """mu_ik v^k = (mu_12 v^2, mu_21 v^1) of a (2, n, n) stack v^k."""
        return self._matrix[[0, 1], [1, 0]] * v[::-1]


class Metric(Tensor):
    """Riemannian metric with sqrt(det g) pinned to the volume density.

    Stored like SymTensor2, as one (2, 2, n, n) array.  Finiteness and
    positive-definiteness are enforced by both constructors (components and
    Metric.from_stack(grid, arr, volume=mu)); compatibility is guaranteed by
    the factories (project_compatible, metric_path) and can be re-checked
    through compatibility_residual().  Derived data is computed on first use
    and cached read-only: inverse_stack (g^ij), gradient_stack (d_m g_pq),
    christoffel, scalar_curvature and ricci_stack.
    """

    g11 = Component((0, 0))
    g12 = Component((0, 1), (1, 0))
    g22 = Component((1, 1))

    def __init__(self, g11: ScalarField, g12: ScalarField, g22: ScalarField, volume: VolumeForm):
        vars(self)["volume"] = volume
        super().__init__(g11, g12, g22)

    def __post_init__(self):
        _check_same_grid(self, self.volume)
        for name in ("g11", "g12", "g22"):
            _check_finite(f"metric {name}", getattr(self, name).values)
        _check_positive_definite("metric", self._arr)
        vars(self)["_cache"] = {}

    def det_values(self) -> np.ndarray:
        return _det(self._arr)

    def _cached(self, key: str, build):
        """build(self), computed on first use; an array result is made read-only."""
        if key not in self._cache:
            value = build(self)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def inverse_stack(self) -> np.ndarray:
        """g^{ij} as a read-only (2, 2, n, n) array."""
        return self._cached("inv", lambda g: _inverse(g.stack()))

    def gradient_stack(self) -> np.ndarray:
        """d_m g_pq as a read-only (2, 2, 2, n, n) array, derivative index first."""
        return self._cached("grad", lambda g: _derivatives(g.stack()))

    def compatibility_residual(self) -> float:
        """sup |sqrt(det g) - f| / sup |f|."""
        f = self.volume.density.values
        return float(np.max(np.abs(np.sqrt(self.det_values()) - f)) / np.max(np.abs(f)))

    def christoffel(self) -> "Christoffel":
        return self._cached("gamma", lambda g: Christoffel.from_stack(
            g.grid, _levi_civita(g.inverse_stack(), g.gradient_stack())))

    def scalar_curvature(self) -> ScalarField:
        return self._cached("scal", _scalar_curvature_impl)

    def ricci_stack(self) -> np.ndarray:
        """R_ij as a read-only (2, 2, n, n) array."""
        return self._cached("ricci", _ricci_impl)


class Christoffel(Tensor):
    """Levi-Civita symbols Gamma^k_ij, symmetric in (i, j), stored as
    Gamma[k, i, j] of shape (2, 2, 2, n, n)."""

    c111 = Component((0, 0, 0))
    c112 = Component((0, 0, 1), (0, 1, 0))
    c122 = Component((0, 1, 1))
    c211 = Component((1, 0, 0))
    c212 = Component((1, 0, 1), (1, 1, 0))
    c222 = Component((1, 1, 1))


def project_compatible(g_raw: SymTensor2, mu: VolumeForm) -> Metric:
    """Conformally rescale a positive-definite tensor so sqrt(det g) = f.

    Returns (f / sqrt(det g_raw)) * g_raw, which has determinant f^2 exactly;
    idempotent on already compatible metrics.
    """
    grid = _check_same_grid(g_raw, mu)
    raw = g_raw.stack()
    det = _check_positive_definite("input tensor", raw)
    scale = mu.density.values / np.sqrt(det)
    return Metric.from_stack(grid, scale * raw, volume=mu)


def flat_metric(grid: Grid) -> Metric:
    """Euclidean metric with unit volume density."""
    one = constant_field(grid, 1.0)
    return Metric(one, constant_field(grid, 0.0), one, VolumeForm(constant_field(grid, 1.0)))


def _inverse(gs: np.ndarray) -> np.ndarray:
    """g^ij of a (2, 2, ...) stack of metric values, pointwise."""
    inv = gs[::-1, ::-1] / _det(gs)  # [[g22, g12], [g12, g11]]
    inv[0, 1] *= -1.0
    inv[1, 0] *= -1.0
    return inv


def _levi_civita(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij as [k, i, j, ...] from g^kl and dg[m, p, q] = d_m g_pq, pointwise."""
    # Gamma^k_ij = g^kl T[l, i, j] / 2, T[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    a = dg.swapaxes(0, 1)  # a[l, i, j] = d_i g_lj
    gamma = np.einsum("kl...,lij...->kij...", ginv, a + a.swapaxes(1, 2) - dg)
    gamma *= 0.5
    return gamma


def christoffel(g: Metric) -> Christoffel:
    """Levi-Civita connection coefficients of g (cached on the metric)."""
    return g.christoffel()


def metricity_residual(g: Metric) -> float:
    """sup |nabla_k g_ij| over all components; ~0 certifies Levi-Civita."""
    gs = g.stack()
    G = g.christoffel().stack()
    dg = g.gradient_stack()
    corr = np.einsum("lkiab,ljab->kijab", G, gs) + np.einsum("lkjab,ilab->kijab", G, gs)
    return float(np.max(np.abs(dg - corr)))


def _scalar_curvature_impl(g: Metric) -> ScalarField:
    G = g.christoffel().stack()
    # R^l_{212} = d_1 Gamma^l_22 - d_2 Gamma^l_12 + Gamma^l_1m Gamma^m_22
    #             - Gamma^l_2m Gamma^m_12; the two derivatives are one curl
    curl = _derivatives(np.stack([G[:, 1, 1], -G[:, 0, 1]]), summed=True)
    quad = np.einsum("lmab,mab->lab", G[:, 0], G[:, 1, 1]) - np.einsum(
        "lmab,mab->lab", G[:, 1], G[:, 0, 1]
    )
    r_up = curl + quad
    r1212 = g.g11.values * r_up[0] + g.g12.values * r_up[1]
    return ScalarField(g.grid, 2.0 * r1212 / g.det_values())


def scalar_curvature(g: Metric) -> ScalarField:
    """Scalar curvature S (twice the Gauss curvature), from R_1212."""
    return g.scalar_curvature()


def _ricci_impl(g: Metric) -> np.ndarray:
    G = g.christoffel().stack()
    # R_kj = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_im Gamma^m_jk
    #        - Gamma^i_jm Gamma^m_ik   (every term symmetric in j, k)
    term1 = _derivatives(G, summed=True)  # d_i Gamma^i_jk
    trG = np.einsum("iimab->mab", G)  # Gamma^i_im
    term2 = _derivatives(trG)  # d_j Gamma^i_ik at [j, k]
    term3 = np.einsum("mab,mjkab->jkab", trG, G)
    term4 = np.einsum("ijmab,mikab->kjab", G, G)
    return term1 - term2 + term3 - term4


def ricci_relation_residual(g: Metric) -> float:
    """sup |R_ij - (S/2) g_ij| / sup |S| (the 2D Ricci identity)."""
    ric = g.ricci_stack()
    s = g.scalar_curvature().values
    defect = ric - 0.5 * s * g.stack()
    return float(np.max(np.abs(defect)) / max(np.max(np.abs(s)), 1e-30))


def cov_deriv_vector(X: VectorField, g: Metric) -> np.ndarray:
    """nabla_i X^k as array [i, k]."""
    Xs = X.stack()
    G = g.christoffel().stack()
    dX = _derivatives(Xs)  # [i, k]
    return dX + np.einsum("kilab,lab->ikab", G, Xs)


def cov_deriv_oneform(b: OneForm, g: Metric) -> np.ndarray:
    """nabla_i b_j as array [i, j]."""
    bs = b.stack()
    G = g.christoffel().stack()
    db = _derivatives(bs)  # [i, j]
    return db - np.einsum("lijab,lab->ijab", G, bs)


def covariant_divergence(h: ContraSymTensor2, g: Metric) -> VectorField:
    """nabla_j h^{kj} for a symmetric contravariant 2-tensor."""
    hs = h.stack()
    G = g.christoffel().stack()
    d1 = _derivatives(hs.swapaxes(0, 1), summed=True)  # d_j h^{kj}
    d2 = np.einsum("kjlab,ljab->kab", G, hs)
    d3 = np.einsum("jjlab,klab->kab", G, hs)
    return VectorField.from_stack(g.grid, d1 + d2 + d3)


def divergence_vector(Y: VectorField, g: Metric) -> ScalarField:
    """Covariant divergence nabla_k Y^k."""
    Ys = Y.stack()
    G = g.christoffel().stack()
    div = _derivatives(Ys, summed=True) + np.einsum("kklab,lab->ab", G, Ys)
    return ScalarField(g.grid, div)


def trace_sym2(h: SymTensor2, g: Metric) -> ScalarField:
    """g^{ij} h_ij."""
    tr = np.einsum("ijab,ijab->ab", g.inverse_stack(), h.stack())
    return ScalarField(g.grid, tr)


def raise_sym2(h: SymTensor2, g: Metric) -> ContraSymTensor2:
    """h^{ij} = g^{ik} g^{jl} h_kl."""
    ginv = g.inverse_stack()
    up = np.einsum("ikab,jlab,klab->ijab", ginv, ginv, h.stack())
    return ContraSymTensor2.from_stack(g.grid, up)


def lower_vector(X: VectorField, g: Metric) -> OneForm:
    low = np.einsum("ijab,jab->iab", g.stack(), X.stack())
    return OneForm.from_stack(g.grid, low)


def l2_norm_vector(X: VectorField, g: Metric) -> float:
    """sqrt( int g(X, X) mu )."""
    xs = X.stack()
    f = g.volume.density.values
    return float(np.sqrt(np.mean(np.einsum("ijab,iab,jab->ab", g.stack(), xs, xs) * f)))


def l2_norm_sym2(h: SymTensor2, g: Metric) -> float:
    """sqrt( int |h|_g^2 mu ) with both indices raised by g."""
    hup = raise_sym2(h, g).stack()
    f = g.volume.density.values
    return float(np.sqrt(np.mean(np.einsum("ijab,ijab->ab", hup, h.stack()) * f)))


def complex_structure(g: Metric) -> MixedTensor:
    """Almost complex structure I with mu(X, IX) > 0; I = -(g^{-1} mu).

    For the flat metric with unit density this is rotation by sign * pi/2,
    the matrix sign * [[0, -1], [1, 0]] (sign: the volume form's).
    """
    I = -np.einsum("ikab,kjab->ijab", g.inverse_stack(), g.volume.matrix())
    return MixedTensor.from_stack(g.grid, I)


def laplace_beltrami(u: ScalarField, g: Metric) -> ScalarField:
    """Analyst's Laplace-Beltrami operator (negative spectrum on the torus)."""
    f = g.volume.density.values
    w = np.einsum("ijab,jab->iab", g.inverse_stack(), _derivatives(u.values))
    div = _derivatives(f * w, summed=True)
    return ScalarField(g.grid, div / f)


def metric_lie_derivative(X: VectorField, g: Metric) -> SymTensor2:
    """(L_X g)_ij by the coordinate formula (no connection used)."""
    gs = g.stack()
    Xs = X.stack()
    dg = g.gradient_stack()
    dX = _derivatives(Xs)  # [i, k] = d_i X^k
    lie = np.einsum("kab,kijab->ijab", Xs, dg)
    lie += np.einsum("kjab,ikab->ijab", gs, dX)
    lie += np.einsum("ikab,jkab->ijab", gs, dX)
    return SymTensor2.from_stack(g.grid, lie)


def metric_lie_derivative_nabla(X: VectorField, g: Metric) -> SymTensor2:
    """(L_X g)_ij = nabla_i X_j + nabla_j X_i (uses that g is parallel)."""
    nab = cov_deriv_oneform(lower_vector(X, g), g)
    return SymTensor2.from_stack(g.grid, nab + nab.transpose(1, 0, 2, 3))


def linearized_scalar_curvature(g: Metric, h: SymTensor2) -> ScalarField:
    """Derivative of g -> S_g in the direction h (full three-term formula).

    Equals -Lap(tr_g h) + nabla_i nabla_j h^{ij} - R_ij h^{ij} with the
    analyst's Laplacian; for g-trace-free h it reduces to the double
    divergence alone (the Ricci term is pure trace in 2D).
    """
    tr = trace_sym2(h, g)
    lap_tr = laplace_beltrami(tr, g)
    hup = raise_sym2(h, g)
    divdiv = divergence_vector(covariant_divergence(hup, g), g)
    ric_h = np.einsum("ijab,ijab->ab", g.ricci_stack(), hup.stack())
    return ScalarField(g.grid, -lap_tr.values + divdiv.values - ric_h)
