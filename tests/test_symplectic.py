import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgeom as tg
from torusgeom import riemann, sampling, symplectic
from torusgeom.fields import SymTensor2
from torusgeom.riemann import Metric, VolumeForm, l2_norm_sym2
from torusgeom.symplectic import TangentVector

from conftest import make_setup, sup


def const_tensor(grid, c11, c12, c22):
    return SymTensor2(
        tg.constant_field(grid, c11), tg.constant_field(grid, c12), tg.constant_field(grid, c22)
    )


def test_tracefree_project_annihilates_pure_trace(grid):
    g = sampling.random_compatible_metric(grid, 0)
    got = tg.tracefree_project(g.stack(), g)
    assert sup(got.h.stack()) <= 1e-14


def test_tracefree_project_fixes_tracefree_input(grid):
    g = sampling.random_compatible_metric(grid, 1)
    h = sampling.random_tangent(g, 2)
    again = tg.tracefree_project(h.h.stack(), g)
    assert sup(again.h.stack() - h.h.stack()) <= 1e-13 * h.h.max_abs()


def test_tracefree_project_flat_diagonal(grid, flat):
    got = tg.tracefree_project(const_tensor(grid, 3.0, 0.0, 1.0).stack(), flat)
    want = const_tensor(grid, 1.0, 0.0, -1.0)
    assert sup(got.h.stack() - want.stack()) <= 1e-14


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tangent_vector_rejects_non_finite_sample_with_location(value):
    g = tg.flat_metric(tg.Grid(16))
    arr = np.zeros((2, 2, 16, 16))
    arr[0, 1, 3, 8] = arr[1, 0, 3, 8] = value
    with pytest.raises(ValueError, match=r"tangent vector c12 is not finite at lattice \(3, 8\)"):
        TangentVector(g, SymTensor2.from_stack(g.grid, arr))


def test_tangent_vector_rejects_trace(grid, flat):
    with pytest.raises(ValueError, match="trace"):
        TangentVector(flat, const_tensor(grid, 1.0, 0.0, 1.0))


def test_omega_constant_example(grid, flat):
    # frozen from the pointwise 2x2 oracle with eps_12 = +1:
    # tr(diag(1,-1) . [[0,1],[-1,0]] . offdiag(1)) = 2, Omega = -1/2 * 2 = -1
    h1 = TangentVector(flat, const_tensor(grid, 1.0, 0.0, -1.0))
    h2 = TangentVector(flat, const_tensor(grid, 0.0, 1.0, 0.0))
    assert tg.omega(flat, h1, h2) == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_omega_vanishes_on_diagonal(grid, seed):
    g, _, h = make_setup(grid, seed)
    scale = max(l2_norm_sym2(h.h, g) ** 2, 1e-30)
    assert abs(tg.omega(g, h, h)) <= 1e-12 * scale


def test_omega_bilinear(grid):
    g = sampling.random_compatible_metric(grid, 3)
    h1 = sampling.random_tangent(g, 4)
    h1p = sampling.random_tangent(g, 5)
    h2 = sampling.random_tangent(g, 6)
    a, b = 0.7, -1.3
    combo = TangentVector(g, SymTensor2.from_stack(grid, a * h1.h.stack() + b * h1p.h.stack()))
    lhs = tg.omega(g, combo, h2)
    rhs = a * tg.omega(g, h1, h2) + b * tg.omega(g, h1p, h2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def rescaled(g, hs, c):
    """(c g, [c h]) on the density c f; c g is compatible with it and each c h
    is (c g)-trace-free, which the constructors check."""
    vol = VolumeForm(tg.ScalarField(g.grid, c * g.volume.density.values))
    gc = Metric.from_stack(g.grid, c * g.stack(), volume=vol)
    return gc, [TangentVector(gc, SymTensor2.from_stack(g.grid, c * h.h.stack())) for h in hs]


@given(seed=st.integers(min_value=0, max_value=30), c=st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_omega_scales_with_a_constant_rescaling_of_the_density(grid, seed, c):
    g, _, h1 = make_setup(grid, seed)
    h2 = sampling.random_tangent(g, seed + 9)
    gc, (h1c, h2c) = rescaled(g, (h1, h2), c)
    assert gc.compatibility_residual() <= 1e-10  # the riemannian suite's compatibility gate
    want = c * tg.omega(g, h1, h2)
    assert abs(tg.omega(gc, h1c, h2c) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("seed", [1, 4])
def test_omega_doubles_exactly_with_the_density(grid, seed):
    g, _, h1 = make_setup(grid, seed)
    h2 = sampling.random_tangent(g, seed + 9)
    g2, (h1d, h2d) = rescaled(g, (h1, h2), 2.0)
    assert tg.omega(g2, h1d, h2d) == 2.0 * tg.omega(g, h1, h2)


def test_omega_rejects_foreign_base(grid):
    g1 = sampling.random_compatible_metric(grid, 7)
    g2 = sampling.random_compatible_metric(grid, 8)
    h1 = sampling.random_tangent(g1, 9)
    h2 = sampling.random_tangent(g2, 10)
    with pytest.raises(ValueError, match="base"):
        tg.omega(g1, h1, h2)


def test_metric_path_identity_at_zero(grid):
    g = sampling.random_compatible_metric(grid, 11)
    h = sampling.random_tangent(g, 12)
    assert sup(tg.metric_path(g, h, 0.0).stack() - g.stack()) == 0.0


def test_metric_path_velocity(grid):
    # oracle: central finite difference of the path
    g = sampling.random_compatible_metric(grid, 13)
    h = sampling.random_tangent(g, 14)
    eps = 1e-4
    vel = (tg.metric_path(g, h, eps).stack() - tg.metric_path(g, h, -eps).stack()) / (2 * eps)
    assert sup(vel - h.h.stack()) <= 1e-8 * max(h.h.max_abs(), 1.0)


def test_path_steps_converge_at_their_orders(grid):
    # metric_path is closed-form in t with velocity h at t = 0, so each step's
    # error is pure truncation: halving eps divides it by 4 for the central
    # step and by 16 for its Richardson value
    g = sampling.random_compatible_metric(grid, 13)
    h = sampling.random_tangent(g, 14)
    for step, ratio in ((symplectic.path_central, 4.0), (symplectic.path_derivative, 16.0)):
        e1, e2 = (sup(step(lambda gt: gt.stack(), g, h, eps) - h.h.stack()) for eps in (0.1, 0.05))
        assert abs(e1 / e2 - ratio) <= 0.02 * ratio


@pytest.mark.parametrize("t", [0.1, -0.1, 0.3, -0.3])
def test_metric_path_stays_compatible(grid, t):
    g = sampling.random_compatible_metric(grid, 15, volume=sampling.random_volume_form(grid, 16))
    h = sampling.random_tangent(g, 17)
    assert tg.metric_path(g, h, t).compatibility_residual() <= 1e-11


def _inline_path_stack(g, h, t):
    """g exp(t g^-1 h) with the traceless exponential written out in place."""
    a = np.einsum("ikab,kjab->ijab", g.inverse_stack(), h.h.stack())
    lam = np.sqrt(np.maximum(-(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]), 0.0))
    lt = lam * t
    ch = np.cosh(lt)
    sinhc = np.where(lam > 1e-300, np.sinh(lt) / np.where(lam > 1e-300, lam, 1.0), t)
    expo = sinhc * a
    expo[0, 0] += ch
    expo[1, 1] += ch
    gt = np.einsum("ikab,kjab->ijab", g.stack(), expo)
    return 0.5 * (gt + gt.transpose(1, 0, 2, 3))


@pytest.mark.parametrize("t", [0.1, -0.3, 1e-4])
@pytest.mark.parametrize("n", [32, 64])
def test_metric_path_is_the_inline_exponential_bit_for_bit(n, t):
    grid = tg.Grid(n)
    g = sampling.random_compatible_metric(grid, 15, volume=sampling.random_volume_form(grid, 16))
    h = sampling.random_tangent(g, 17)
    assert np.array_equal(tg.metric_path(g, h, t).stack(), _inline_path_stack(g, h, t))


def test_metric_path_reports_positivity_loss(grid, flat):
    h = TangentVector(flat, const_tensor(grid, 5.0, 0.0, -5.0))
    with pytest.raises(ValueError, match="t="):
        tg.metric_path(flat, h, 50.0)


def test_closedness_defect_alternating(grid):
    g = sampling.random_compatible_metric(grid, 18)
    h1 = sampling.random_tangent(g, 19)
    h2 = sampling.random_tangent(g, 20)
    assert abs(tg.closedness_defect(g, h1, h1, h2, 1e-3)) <= 1e-10


def test_closedness_defect_flat_constant_directions(grid, flat):
    h1 = TangentVector(flat, const_tensor(grid, 1.0, 0.0, -1.0))
    h2 = TangentVector(flat, const_tensor(grid, 0.0, 1.0, 0.0))
    h3 = TangentVector(flat, const_tensor(grid, 1.0, 0.5, -1.0))
    assert abs(tg.closedness_defect(flat, h1, h2, h3, 1e-3)) <= 1e-6


def test_closedness_defect_random_base_small_with_order(grid):
    g = sampling.random_compatible_metric(grid, 21)
    hs = [sampling.random_tangent(g, 22 + i) for i in range(3)]
    d1 = abs(tg.closedness_defect(g, *hs, 1e-3))
    d2 = abs(tg.closedness_defect(g, *hs, 5e-4))
    # the discrete defect sits at the roundoff floor here; O(eps^2) decay is
    # then trivially satisfied, otherwise the halving ratio must show it
    if d1 > 1e-10 or d2 > 1e-10:
        assert 2.5 <= d1 / d2 <= 6.0
    else:
        assert d1 <= 1e-10 and d2 <= 1e-10


def _non_closed(gp, a, b):
    return float(np.mean(gp.g11.values ** 2)) * tg.omega(gp, a, b)


def test_closedness_defect_converges_at_second_order():
    # Omega's defect sits at roundoff, so this non-closed form (the one
    # closedness_sensitivity uses) is what shows the central step's O(eps^2)
    # error: halving eps divides D(eps) - D(eps/2) by 4, where a one-sided
    # step would give about 2 and a Richardson step about 16
    g = sampling.random_compatible_metric(tg.Grid(32), 3)
    hs = [sampling.random_tangent(g, k) for k in (4, 5, 6)]
    d = [tg.closedness_defect(g, *hs, eps, _non_closed) for eps in (4e-3, 2e-3, 1e-3)]
    assert abs(d[2]) > 1e-2
    assert 3.5 <= (d[0] - d[1]) / (d[1] - d[2]) <= 4.5


def _closedness_reference(g, hs, eps, form):
    """The six-term defect with its own (g_eps, g_-eps) pair for each of its
    nine difference quotients: 18 metric_path calls."""
    def extend(i, gp):
        return tg.tracefree_project(hs[i].h.stack(), gp)

    def pair(i):
        return tg.metric_path(g, extend(i, g), eps), tg.metric_path(g, extend(i, g), -eps)

    def form_at(gp, j, k):
        return form(gp, extend(j, gp), extend(k, gp))

    def deriv(i, j, k):
        gp, gm = pair(i)
        return (form_at(gp, j, k) - form_at(gm, j, k)) / (2.0 * eps)

    def push(i, j):
        gp, gm = pair(i)
        return (extend(j, gp).h.stack() - extend(j, gm).h.stack()) / (2.0 * eps)

    def bracket(i, j):
        return tg.tracefree_project(push(i, j) - push(j, i), g)

    return float(
        deriv(0, 1, 2) - deriv(1, 0, 2) + deriv(2, 0, 1)
        - form(g, bracket(0, 1), extend(2, g))
        + form(g, bracket(0, 2), extend(1, g))
        - form(g, bracket(1, 2), extend(0, g))
    )


@pytest.mark.parametrize("form", [tg.omega, _non_closed], ids=["omega", "non_closed"])
def test_closedness_defect_reuses_one_path_pair_per_direction(grid, monkeypatch, form):
    g = sampling.random_compatible_metric(grid, 21)
    hs = [sampling.random_tangent(g, 22 + i) for i in range(3)]
    want = _closedness_reference(g, hs, 1e-3, form)
    steps = []
    path = symplectic.metric_path
    monkeypatch.setattr(symplectic, "metric_path", lambda g, h, t: steps.append(t) or path(g, h, t))
    assert tg.closedness_defect(g, *hs, 1e-3, form) == want
    assert sorted(steps) == [-1e-3] * 3 + [1e-3] * 3


def test_closedness_machinery_detects_non_closed_form(grid):
    # sensitivity oracle: scaling Omega by a g-dependent functional breaks
    # closedness; the same finite-difference evaluator must see it
    g = sampling.random_compatible_metric(grid, 25)
    hs = [sampling.random_tangent(g, 26 + i) for i in range(3)]

    def scaled(gp, a, b):
        return float(np.mean(gp.g11.values ** 2)) * tg.omega(gp, a, b)

    assert abs(tg.closedness_defect(g, *hs, 1e-3, scaled)) > 1e-3


def test_witness_flat_frozen_example(grid, flat):
    # frozen 2x2 oracle: partner = offdiag(-1), Omega(h, h') = 1
    h = TangentVector(flat, const_tensor(grid, 1.0, 0.0, -1.0))
    partner, value = tg.nondegeneracy_witness(flat, h)
    want = const_tensor(grid, 0.0, -1.0, 0.0)
    assert sup(partner.h.stack() - want.stack()) <= 1e-14
    assert value == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_witness_positive_and_equals_half_norm(grid, seed):
    g, _, h = make_setup(grid, seed)
    _, value = tg.nondegeneracy_witness(g, h)
    half = 0.5 * l2_norm_sym2(h.h, g) ** 2
    assert value > 0.0
    assert abs(value - half) <= 1e-10 * half


def test_witness_scales_quadratically(grid):
    g = sampling.random_compatible_metric(grid, 30)
    h = sampling.random_tangent(g, 31)
    _, v1 = tg.nondegeneracy_witness(g, h)
    _, v2 = tg.nondegeneracy_witness(g, TangentVector(g, SymTensor2.from_stack(grid, 2.0 * h.h.stack())))
    assert abs(v2 - 4.0 * v1) <= 1e-10 * abs(v1)


def test_witness_rejects_zero(grid, flat):
    zero = TangentVector(flat, const_tensor(grid, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonzero"):
        tg.nondegeneracy_witness(flat, zero)


def _three_operand_omega(g, h1, h2):
    """Omega as -1/2 int tr(a1 m a2) mu with m = g^-1 mu formed from the volume matrix."""
    ginv = g.inverse_stack()
    a1 = np.einsum("ikab,kjab->ijab", ginv, h1.h.stack())
    m = np.einsum("ikab,kjab->ijab", ginv, g.volume.matrix())
    a2 = np.einsum("ikab,kjab->ijab", ginv, h2.h.stack())
    integrand = np.einsum("ijab,jkab,kiab->ab", a1, m, a2)
    return float(-0.5 * np.mean(integrand * g.volume.density.values))


def _three_operand_mu_h(g, h):
    """mu_ik g^kl h_lj from the volume matrix."""
    return np.einsum("ikab,klab,ljab->ijab", g.volume.matrix(), g.inverse_stack(), h.h.stack())


@pytest.mark.parametrize("eps_12", [1.0, -1.0])
@pytest.mark.parametrize("density", ["flat", "random"])
@pytest.mark.parametrize("n", [32, 64])
def test_complex_structure_forms_equal_the_volume_matrix_forms(monkeypatch, n, density, eps_12):
    # g^-1 mu is read as -complex_structure(g): bit for bit the product with mu itself
    monkeypatch.setattr(riemann, "EPS_12", eps_12)
    grid = tg.Grid(n)
    vol = sampling.random_volume_form(grid, 5) if density == "random" else sampling.flat_volume_form(grid)
    g = sampling.random_compatible_metric(grid, 3, volume=vol)
    h1, h2 = sampling.random_tangent(g, 4), sampling.random_tangent(g, 6)
    assert tg.omega(g, h1, h2) == _three_operand_omega(g, h1, h2)

    partner, value = tg.nondegeneracy_witness(g, h1)
    rot = _three_operand_mu_h(g, h1)
    want = SymTensor2.from_stack(grid, 0.5 * (rot + rot.transpose(1, 0, 2, 3))).stack()
    assert np.array_equal(partner.h.stack(), want)
    assert value == _three_operand_omega(g, h1, partner)

    mixed = _three_operand_mu_h(g, h2)
    assert tg.skew_defect_mu_h(g, h2) == float(np.max(np.abs(mixed[0, 1] - mixed[1, 0])))
