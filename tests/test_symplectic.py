import numpy as np
import pytest

import torusgeom as tg
from torusgeom import sampling, symplectic
from torusgeom.fields import SymTensor2
from torusgeom.riemann import l2_norm_sym2
from torusgeom.symplectic import TangentVector

from conftest import make_setup, sup


def const_tensor(grid, c11, c12, c22):
    return SymTensor2(
        tg.constant_field(grid, c11), tg.constant_field(grid, c12), tg.constant_field(grid, c22)
    )


def test_tracefree_project_annihilates_pure_trace(grid):
    g = sampling.random_compatible_metric(grid, 0)
    got = tg.tracefree_project(SymTensor2(g.g11, g.g12, g.g22), g)
    assert sup(got.h.stack()) <= 1e-14


def test_tracefree_project_fixes_tracefree_input(grid):
    g = sampling.random_compatible_metric(grid, 1)
    h = sampling.random_tangent(g, 2)
    again = tg.tracefree_project(h.h, g)
    assert sup(again.h.stack() - h.h.stack()) <= 1e-13 * h.h.max_abs()


def test_tracefree_project_flat_diagonal(grid, flat):
    got = tg.tracefree_project(const_tensor(grid, 3.0, 0.0, 1.0), flat)
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
    lhs = tg.omega(g, a * h1 + b * h1p, h2)
    rhs = a * tg.omega(g, h1, h2) + b * tg.omega(g, h1p, h2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


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
        return tg.tracefree_project(hs[i].h, gp)

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
        return tg.tracefree_project(SymTensor2.from_stack(g.grid, push(i, j) - push(j, i)), g)

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
    _, v2 = tg.nondegeneracy_witness(g, 2.0 * h)
    assert abs(v2 - 4.0 * v1) <= 1e-10 * abs(v1)


def test_witness_rejects_zero(grid, flat):
    zero = TangentVector(flat, const_tensor(grid, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonzero"):
        tg.nondegeneracy_witness(flat, zero)
