import gc
import weakref

import numpy as np
import pytest

import torusgeom as tg
from torusgeom import riemann, sampling
from torusgeom.fields import ScalarField, SymTensor2, VectorField
from torusgeom.riemann import VolumeForm

from conftest import sup

PHI_AMP = 0.3


def one_dim_metric(grid, amp=PHI_AMP):
    """diag(e^{2 phi}, e^{-2 phi}) with phi = amp sin(2 pi x); det = 1."""
    X, _ = grid.meshes()
    phi = amp * np.sin(2 * np.pi * X)
    mu = sampling.flat_volume_form(grid)
    return (
        tg.Metric(
            ScalarField(grid, np.exp(2 * phi)),
            tg.constant_field(grid, 0.0),
            ScalarField(grid, np.exp(-2 * phi)),
            mu,
        ),
        phi,
    )


def test_volume_form_rejects_nonpositive(grid):
    with pytest.raises(ValueError, match="positive"):
        VolumeForm(tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X)))


def test_volume_form_rejects_nan_with_location(grid):
    vals = np.ones((grid.n, grid.n))
    vals[5, 2] = np.nan
    with pytest.raises(ValueError, match=r"not finite at lattice \(5, 2\)"):
        VolumeForm(ScalarField(grid, vals))


def test_metric_rejects_non_finite_with_location(grid, flat):
    vals = np.zeros((grid.n, grid.n))
    vals[9, 4] = np.inf
    one = tg.constant_field(grid, 1.0)
    with pytest.raises(ValueError, match=r"g12 is not finite at lattice \(9, 4\)"):
        tg.Metric(one, ScalarField(grid, vals), one, flat.volume)


def test_project_compatible_keeps_flat_identity(grid, flat):
    raw = SymTensor2(tg.constant_field(grid, 1.0), tg.constant_field(grid, 0.0), tg.constant_field(grid, 1.0))
    g = tg.project_compatible(raw.stack(), flat.volume)
    assert sup(g.stack() - flat.stack()) == 0.0


def test_project_compatible_rescales_uniform(grid, flat):
    raw = SymTensor2(tg.constant_field(grid, 4.0), tg.constant_field(grid, 0.0), tg.constant_field(grid, 4.0))
    g = tg.project_compatible(raw.stack(), flat.volume)
    assert sup(g.stack() - flat.stack()) <= 1e-15


def test_project_compatible_kills_conformal_factor(grid, flat):
    X, _ = grid.meshes()
    conf = np.exp(2 * 0.3 * np.sin(2 * np.pi * X))
    raw = SymTensor2(ScalarField(grid, conf), tg.constant_field(grid, 0.0), ScalarField(grid, conf))
    g = tg.project_compatible(raw.stack(), flat.volume)
    assert sup(g.stack() - flat.stack()) <= 1e-14


def test_project_compatible_rejects_indefinite_with_location(grid, flat):
    vals = np.ones((grid.n, grid.n))
    vals[3, 7] = -2.0
    raw = SymTensor2(ScalarField(grid, vals), tg.constant_field(grid, 0.0), tg.constant_field(grid, 1.0))
    with pytest.raises(ValueError, match=r"\(3, 7\)"):
        tg.project_compatible(raw.stack(), flat.volume)


def test_project_compatible_keeps_the_first_of_a_symmetric_pair(grid, flat):
    # as Metric.from_stack does: the determinant is the kept metric's, so a
    # raw array with raw[1, 0] != raw[0, 1] still comes out compatible
    raw = np.zeros((2, 2, grid.n, grid.n))
    raw[0, 0], raw[0, 1], raw[1, 0], raw[1, 1] = 2.0, 0.5, -0.5, 1.0
    g = tg.project_compatible(raw, flat.volume)
    assert g.compatibility_residual() <= 1e-15
    assert np.array_equal(g.g12.values, np.full((grid.n, grid.n), 0.5 / np.sqrt(1.75)))


def test_project_compatible_idempotent(grid):
    g = sampling.random_compatible_metric(grid, 0)
    again = tg.project_compatible(g.stack(), g.volume)
    assert sup(again.stack() - g.stack()) <= 1e-13


def _diagonal(lam, t):
    z = np.zeros_like(lam)
    return np.array([[lam, z], [z, -lam]]), np.array([[np.exp(lam * t), z], [z, np.exp(-lam * t)]])


def _off_diagonal(b, t):
    z = np.zeros_like(b)
    c, s = np.cosh(b * t), np.sinh(b * t)
    return np.array([[z, b], [b, z]]), np.array([[c, s], [s, c]])


def _zero(x, t):
    z, one = np.zeros_like(x), np.ones_like(x)
    return np.array([[z, z], [z, z]]), np.array([[one, z], [z, one]])


# trace-free a and its exponential exp(t a) in closed form; a = 0 takes the lam <= 1e-300 branch
EXPM_CLOSED_FORMS = {"diagonal": _diagonal, "off_diagonal": _off_diagonal, "zero": _zero}


@pytest.mark.parametrize("t", [1.0, -0.3, 1e-4])
@pytest.mark.parametrize("form", EXPM_CLOSED_FORMS)
def test_expm_traceless_closed_forms(form, t):
    a, want = EXPM_CLOSED_FORMS[form](np.array([-2.5, -0.7, 1e-3, 0.4, 1.5]), t)
    got = riemann._expm_traceless(a, t)
    scale = np.max(np.abs(want), axis=(0, 1))  # roundoff is relative to each point's largest entry
    assert np.all(np.abs(got - want) <= 1e-15 * scale)
    assert np.all(np.abs(riemann._det(got) - 1.0) <= 1e-15 * scale ** 2)


def _expm_sym2(arr):
    """exp(A) of a symmetric 2x2 stack with the factor exp(tr A / 2) kept."""
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


@pytest.mark.parametrize("density", ["flat", "random"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_seeded_metric_is_the_rescaled_full_exponential(n, density):
    # project_compatible divides exp(tr A / 2) out of exp(A), so f exp(A0) is the
    # same metric up to roundoff
    grid = tg.Grid(n)
    vol = sampling.random_volume_form(grid, 5) if density == "random" else sampling.flat_volume_form(grid)
    for seed in range(3):
        a = sampling.random_sym_tensor(grid, sampling._child_seed(seed, 7), 4, 0.1)
        want = tg.project_compatible(_expm_sym2(a), vol).stack()
        got = sampling.random_compatible_metric(grid, seed, volume=vol).stack()
        assert sup(got - want) <= 1e-15 * sup(want)


def test_christoffel_flat_vanishes(flat):
    gam = tg.christoffel(flat)
    assert sup(gam) == 0.0


def test_christoffel_closed_form_one_dim(grid):
    # hand-reduced symbols for diag(e^{2phi}, e^{-2phi}), phi = phi(x):
    #   Gamma^1_11 = phi', Gamma^1_22 = e^{-4phi} phi', Gamma^2_12 = -phi'
    g, phi = one_dim_metric(grid)
    X, _ = grid.meshes()
    dphi = PHI_AMP * 2 * np.pi * np.cos(2 * np.pi * X)
    gam = tg.christoffel(g)
    assert sup(gam[0, 0, 0] - dphi) <= 1e-10
    assert sup(gam[0, 1, 1] - np.exp(-4 * phi) * dphi) <= 1e-10
    assert sup(gam[1, 0, 1] + dphi) <= 1e-10
    for other in (gam[0, 0, 1], gam[1, 0, 0], gam[1, 1, 1]):
        assert sup(other) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_metricity(grid, seed):
    g = sampling.random_compatible_metric(grid, seed)
    scale = sup(g.stack())
    assert tg.metricity_residual(g) <= 1e-10 * scale


def test_scalar_curvature_flat_zero(flat):
    assert sup(tg.scalar_curvature(flat).values) == 0.0


def test_scalar_curvature_closed_form_one_dim(grid):
    # hand-reduced: S = 2 e^{-2phi} (phi'' - 2 phi'^2) for the 1-variable family
    g, phi = one_dim_metric(grid)
    X, _ = grid.meshes()
    dphi = PHI_AMP * 2 * np.pi * np.cos(2 * np.pi * X)
    ddphi = -PHI_AMP * (2 * np.pi) ** 2 * np.sin(2 * np.pi * X)
    want = 2 * np.exp(-2 * phi) * (ddphi - 2 * dphi**2)
    assert sup(tg.scalar_curvature(g).values - want) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_gauss_bonnet_torus(grid, seed):
    vol = sampling.random_volume_form(grid, seed + 300) if seed % 2 else sampling.flat_volume_form(grid)
    g = sampling.random_compatible_metric(grid, seed, volume=vol)
    assert np.array_equal(g.det_values(), g.g11.values * g.g22.values - g.g12.values**2)
    s = tg.scalar_curvature(g).values
    f = vol.density.values
    total = abs(np.mean(s * f))
    l1 = np.mean(np.abs(s) * f)
    assert total <= 1e-9 * l1


@pytest.mark.parametrize("seed", range(10))
def test_ricci_relation(grid, seed):
    g = sampling.random_compatible_metric(grid, seed)
    assert tg.ricci_relation_residual(g) <= 1e-9


def test_linearized_scalar_curvature_zero(grid):
    g = sampling.random_compatible_metric(grid, 1)
    zero = SymTensor2(tg.constant_field(grid, 0.0), tg.constant_field(grid, 0.0), tg.constant_field(grid, 0.0))
    assert sup(tg.linearized_scalar_curvature(g, zero).values) == 0.0


def test_linearized_scalar_curvature_constant_trace_flat(grid, flat):
    c = 0.37
    h = SymTensor2(tg.constant_field(grid, c), tg.constant_field(grid, 0.0), tg.constant_field(grid, c))
    assert sup(tg.linearized_scalar_curvature(flat, h).values) <= 1e-12


def _fd_lin_curvature_compatible(g, h, eps=1e-4):
    def s_at(t):
        return tg.scalar_curvature(tg.metric_path(g, h, t)).values

    d1 = (s_at(eps) - s_at(-eps)) / (2 * eps)
    d2 = (s_at(eps / 2) - s_at(-eps / 2)) / eps
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("seed", range(5))
def test_linearized_matches_finite_differences(grid, seed):
    g = sampling.random_compatible_metric(grid, seed)
    h = sampling.random_tangent(g, seed + 1)
    fd = _fd_lin_curvature_compatible(g, h)
    lin = tg.linearized_scalar_curvature(g, h.h).values
    assert sup(lin - fd) <= 1e-6 * sup(fd)


def test_linearized_general_direction_finite_differences(grid):
    # non-trace-free direction exercises the Laplacian and Ricci terms; the
    # perturbed metrics carry their own volume forms
    g = sampling.random_compatible_metric(grid, 5)
    h = SymTensor2.from_stack(grid, sampling.random_sym_tensor(grid, 77, amp=0.2))

    def metric_own_volume(stack):
        det = stack[0, 0] * stack[1, 1] - stack[0, 1] ** 2
        vol = VolumeForm(ScalarField(g.grid, np.sqrt(det)))
        return tg.Metric(
            ScalarField(g.grid, stack[0, 0]),
            ScalarField(g.grid, stack[0, 1]),
            ScalarField(g.grid, stack[1, 1]),
            vol,
        )

    def s_at(t):
        return tg.scalar_curvature(metric_own_volume(g.stack() + t * h.stack())).values

    eps = 1e-4
    d1 = (s_at(eps) - s_at(-eps)) / (2 * eps)
    d2 = (s_at(eps / 2) - s_at(-eps / 2)) / eps
    fd = (4 * d2 - d1) / 3
    lin = tg.linearized_scalar_curvature(g, h).values
    assert sup(lin - fd) <= 1e-6 * sup(fd)


def test_linearized_tracefree_reduction(grid):
    g = sampling.random_compatible_metric(grid, 3)
    h = sampling.random_tangent(g, 4)
    lin = tg.linearized_scalar_curvature(g, h.h)
    divdiv = tg.divergence_vector(tg.covariant_divergence(tg.raise_sym2(h.h, g), g), g)
    assert sup(lin.values - divdiv.values) <= 1e-9


def test_covariant_divergence_flat_constants(grid, flat):
    h = np.array([[1.2, -0.4], [-0.4, 0.7]])[:, :, None, None] * np.ones((grid.n, grid.n))
    y = tg.covariant_divergence(h, flat)
    assert sup(y) == 0.0


def test_covariant_divergence_total_divergence_vanishes(grid):
    g = sampling.random_compatible_metric(grid, 6, volume=sampling.random_volume_form(grid, 7))
    h = tg.raise_sym2(SymTensor2.from_stack(grid, sampling.random_sym_tensor(grid, 8)), g)
    y = tg.covariant_divergence(h, g)
    div = tg.divergence_vector(y, g)
    f = g.volume.density.values
    assert abs(np.mean(div.values * f)) <= 1e-12 * max(sup(div.values), 1.0)


def test_covariant_divergence_flat_equals_plain_derivative(grid, flat):
    c11, c12, c22 = (tg.random_band_limited(grid, s, 6, 0.5) for s in (21, 22, 23))
    h = np.array([[c11.values, c12.values], [c12.values, c22.values]])
    got = tg.covariant_divergence(h, flat)
    plain = np.stack(
        [
            tg.partial(c11, 1).values + tg.partial(c12, 2).values,
            tg.partial(c12, 1).values + tg.partial(c22, 2).values,
        ]
    )
    assert sup(got - plain) <= 1e-12


def test_complex_structure_flat_is_quarter_turn(grid, flat):
    i = tg.complex_structure(flat)
    want = np.zeros_like(i)
    want[0, 1] = -1.0
    want[1, 0] = 1.0
    assert sup(i - want) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_complex_structure_squares_to_minus_id(grid, seed):
    g = sampling.random_compatible_metric(grid, seed, volume=sampling.random_volume_form(grid, seed + 50))
    i = tg.complex_structure(g)
    i2 = np.einsum("ikab,kjab->ijab", i, i)
    i2[0, 0] += 1.0
    i2[1, 1] += 1.0
    assert sup(i2) <= 1e-11


def test_complex_structure_preserves_metric(grid):
    # oracle: pointwise 2x2 contraction I^k_i I^l_j g_kl = g_ij
    g = sampling.random_compatible_metric(grid, 12)
    i = tg.complex_structure(g)
    gi = np.einsum("kiab,ljab,klab->ijab", i, i, g.stack())
    assert sup(gi - g.stack()) <= 1e-11


def test_complex_structure_orientation(grid):
    # mu(X, IX) > 0 for X = d/dx
    g = sampling.random_compatible_metric(grid, 13, volume=sampling.random_volume_form(grid, 14))
    i = tg.complex_structure(g)
    f = g.volume.density.values
    # X = e1: (IX)^k = I^k_1; mu(X, IX) = mu_12 (IX)^2 = f * I^2_1
    assert np.min(f * i[1, 0]) > 0.0


@pytest.mark.parametrize("seed", range(5))
def test_lie_derivative_coordinate_vs_nabla(grid, seed):
    g = sampling.random_compatible_metric(grid, seed, volume=sampling.random_volume_form(grid, seed + 90))
    u = tg.random_band_limited(grid, seed + 60, 4, 0.5)
    v = tg.random_band_limited(grid, seed + 61, 4, 0.5)
    x = VectorField(u, v)
    lie_c = tg.metric_lie_derivative(x, g).stack()
    lie_n = tg.metric_lie_derivative_nabla(x, g).stack()
    assert sup(lie_c - lie_n) <= 1e-10


def test_christoffel_is_the_cached_read_only_array(grid):
    g = sampling.random_compatible_metric(grid, 6)
    gam = g.christoffel()
    assert isinstance(gam, np.ndarray) and gam.shape == (2, 2, 2, grid.n, grid.n)
    assert g.christoffel() is gam and tg.christoffel(g) is gam
    with pytest.raises(ValueError, match="read-only"):
        gam[0, 0, 0] += 1.0


def _operand_setup(n, seed=11):
    """A metric on a random density, a tangent h and a divergence-free X at N = n."""
    grid = tg.Grid(n)
    g = sampling.random_compatible_metric(grid, seed, volume=sampling.random_volume_form(grid, seed + 1))
    h = sampling.random_tangent(g, seed + 2)
    X = tg.div_free_from_stream(sampling.random_stream(grid, seed + 3), (0.2, -0.1), g.volume)
    return g, h.h, X.vector


OPERAND_BUILDS = {
    "raise_sym2": lambda g, h, x: tg.raise_sym2(h, g),
    "divergence_sym2": lambda g, h, x: tg.divergence_sym2(h, g),
    "double_divergence": lambda g, h, x: tg.double_divergence(h, g),
    "metric_lie_derivative": lambda g, h, x: tg.metric_lie_derivative(x, g).stack(),
}


@pytest.mark.parametrize("name", OPERAND_BUILDS)
def test_operand_cache_hit_is_the_same_read_only_object(name):
    g, h, x = _operand_setup(32)
    build = OPERAND_BUILDS[name]
    first = build(g, h, x)
    assert build(g, h, x) is first
    with pytest.raises(ValueError, match="read-only"):
        first[0] += 1.0


@pytest.mark.parametrize("name", OPERAND_BUILDS)
def test_operand_cache_misses_on_an_equal_but_different_operand(name):
    g, h, x = _operand_setup(32)
    build = OPERAND_BUILDS[name]
    first = build(g, h, x)
    h2, x2 = SymTensor2.from_stack(g.grid, h.stack()), VectorField.from_stack(g.grid, x.stack())
    again = build(g, h2, x2)
    assert again is not first and np.array_equal(again, first)


def test_operand_cache_key_holds_its_operand():
    g, h, x = _operand_setup(32)
    tg.divergence_sym2(h, g)
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is not None  # so its id cannot be reused while g lives


def test_metric_from_stack_starts_with_an_empty_cache():
    g, h, x = _operand_setup(32)
    tg.linearized_scalar_curvature(g, h)
    tg.metric_lie_derivative(x, g)
    assert g._cache
    fresh = tg.Metric.from_stack(g.grid, g.stack(), volume=g.volume)
    assert fresh._cache == {}


@pytest.mark.parametrize("n", [32, 64])
def test_cached_builds_equal_the_uncached_composition(n):
    g, h, x = _operand_setup(n, seed=n)
    lin = tg.linearized_scalar_curvature(g, h).values
    up = riemann._raise_sym2(h, g)
    div = tg.covariant_divergence(up, g)
    divdiv = tg.divergence_vector(div, g).values
    assert np.array_equal(tg.raise_sym2(h, g), up)
    assert np.array_equal(tg.divergence_sym2(h, g), div)
    assert np.array_equal(tg.double_divergence(h, g), divdiv)
    assert np.array_equal(tg.metric_lie_derivative(x, g).stack(), riemann._metric_lie_derivative(x, g).stack())
    ric_h = np.einsum("ijab,ijab->ab", g.ricci_stack(), up)
    lap_tr = tg.laplace_beltrami(tg.trace_sym2(h.stack(), g), g)
    assert np.array_equal(lin, -lap_tr + divdiv - ric_h)


def test_complex_structure_is_a_read_only_array(grid):
    g = sampling.random_compatible_metric(grid, 7)
    i = tg.complex_structure(g)
    assert isinstance(i, np.ndarray) and i.shape == (2, 2, grid.n, grid.n)
    with pytest.raises(ValueError, match="read-only"):
        i[0, 1] += 1.0
