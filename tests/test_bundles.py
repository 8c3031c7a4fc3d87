import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgeom as tg
from torusgeom import bundles, sampling
from torusgeom.bundles import (
    KAPPA_CONV,
    CircleBundleClass,
    Loop,
    canonical_class,
    constant_curvature_class,
    frame_transport,
    holonomy_derivative_check,
    identity_class,
    kobayashi_add,
    kobayashi_neg,
    loop_integral_oneform,
)
from torusgeom.fields import Interpolator, ScalarField, SymTensor2, TwoForm, VectorField

from conftest import make_setup, pair_scale, sup

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------ loops


def test_loop_requires_closure():
    with pytest.raises(ValueError, match="closed"):
        Loop(np.array([[0.0, 0.0], [0.4, 0.3]]))


def test_loop_winding_and_contractibility():
    assert Loop.square((0.5, 0.5), 0.2).contractible
    gen = Loop.generator(1, (0.2, 0.7))
    assert gen.winding == (1, 0)
    assert not gen.contractible


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Loop(np.zeros(4)), r"needs an \(m\+1, 2\) array"),
        (lambda: Loop(np.zeros((3, 3))), r"needs an \(m\+1, 2\) array"),
        (lambda: Loop(np.zeros((1, 2))), r"needs an \(m\+1, 2\) array"),
        (lambda: Loop.generator(axis=3), "axis must be 1 or 2"),
        (lambda: loop_integral_oneform(tg.OneForm.from_stack(tg.Grid(16), np.zeros((2, 16, 16))),
                                       Loop(np.array([[0.2, 0.3], [0.2, 0.3]]))),
         "loop has no extent"),
    ],
    ids=["flat-array", "three-columns", "one-vertex", "axis-3", "no-extent"],
)
def test_malformed_loops_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_repeated_vertex_adds_nothing_to_the_transport(grid):
    g = sampling.random_compatible_metric(grid, 4, volume=sampling.random_volume_form(grid, 3))
    square = Loop.square((0.37, 0.52), 0.4)
    repeated = Loop(np.insert(square.points, 2, square.points[2], axis=0))
    assert len(repeated.points) == len(square.points) + 1
    assert frame_transport(g, repeated) == frame_transport(g, square)


# ------------------------------------------------- connection representative


def test_alpha_of_zero_direction(grid):
    g = sampling.random_compatible_metric(grid, 0)
    zero = tg.tracefree_project(
        SymTensor2(*(tg.constant_field(grid, 0.0) for _ in range(3))), g
    )
    alpha = tg.connection_alpha(g, zero)
    assert sup(alpha.stack()) == 0.0


def test_alpha_of_covariantly_constant_direction(grid, flat):
    h = tg.tracefree_project(
        SymTensor2(
            tg.constant_field(grid, 1.0),
            tg.constant_field(grid, 0.3),
            tg.constant_field(grid, -1.0),
        ),
        flat,
    )
    assert sup(tg.connection_alpha(flat, h).stack()) <= 1e-13


def test_dalpha_flat_band_limited(grid, flat):
    h = sampling.random_tangent(flat, 1)
    assert tg.dalpha_defect(flat, h).max_abs() <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_dalpha_identity_random(grid, seed):
    g, _, h = make_setup(grid, seed)
    assert tg.dalpha_defect(g, h).max_abs() <= 1e-8 * max(h.h.max_abs(), 1.0)


def test_dalpha_decays_spectrally():
    res = {}
    for n in (32, 64):
        grid_n = tg.Grid(n)
        g = sampling.random_compatible_metric(grid_n, 0)
        h = sampling.random_tangent(g, 1)
        res[n] = tg.dalpha_defect(g, h).max_abs() / max(h.h.max_abs(), 1e-30)
    assert res[64] / res[32] <= 1e-2


def test_divergence_identity_zero_field(grid):
    g = sampling.random_compatible_metric(grid, 2)
    zero = VectorField(tg.constant_field(grid, 0.0), tg.constant_field(grid, 0.0))
    assert tg.divergence_identity_defect(g, zero).c12.max_abs() == 0.0


def test_divergence_identity_constant_flat_exact(grid, flat):
    y = VectorField(tg.constant_field(grid, 0.8), tg.constant_field(grid, -0.2))
    assert tg.divergence_identity_defect(flat, y).c12.max_abs() == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_divergence_identity_random(grid, seed):
    vol = sampling.random_volume_form(grid, seed + 300) if seed % 3 == 1 else sampling.flat_volume_form(grid)
    g = sampling.random_compatible_metric(grid, seed, volume=vol)
    y = VectorField(
        tg.random_band_limited(grid, seed + 7, 4, 0.5),
        tg.random_band_limited(grid, seed + 8, 4, 0.5),
    )
    scale = max(y.x1.max_abs(), y.x2.max_abs())
    assert tg.divergence_identity_defect(g, y).c12.max_abs() <= 1e-9 * scale


# -------------------------------------------------------------- transport


def test_frame_transport_flat_loops(grid, flat):
    for loop in (Loop.square((0.3, 0.4), 0.25), Loop.generator(1), Loop.generator(2)):
        assert abs(frame_transport(flat, loop)) <= 1e-10


def test_frame_transport_one_dim_closed_form(grid):
    # transport along the y-generator at fixed x rotates at constant rate
    # e^{-2 phi(x)} phi'(x) (reduced 1D ODE, solved by hand)
    amp = 0.25
    X, _ = grid.meshes()
    phi = amp * np.sin(2 * np.pi * X)
    mu = sampling.flat_volume_form(grid)
    g = tg.Metric(
        ScalarField(grid, np.exp(2 * phi)),
        tg.constant_field(grid, 0.0),
        ScalarField(grid, np.exp(-2 * phi)),
        mu,
    )
    for x0 in (0.0, 0.21):
        got = frame_transport(g, Loop.generator(2, (x0, 0.13)))
        want = math.exp(-2 * amp * math.sin(2 * math.pi * x0)) * amp * 2 * math.pi * math.cos(
            2 * math.pi * x0
        )
        assert abs(got - want) <= 1e-10


def test_frame_transport_rectangle_relation_one_dim(grid):
    # ccw rectangle: only the two y-edges rotate, by +/- the local rate
    amp = 0.25
    X, _ = grid.meshes()
    phi_f = lambda x: amp * np.sin(2 * np.pi * x)
    rate = lambda x: np.exp(-2 * phi_f(x)) * amp * 2 * np.pi * np.cos(2 * np.pi * x)
    mu = sampling.flat_volume_form(grid)
    g = tg.Metric(
        ScalarField(grid, np.exp(2 * phi_f(X))),
        tg.constant_field(grid, 0.0),
        ScalarField(grid, np.exp(-2 * phi_f(X))),
        mu,
    )
    x0, y0, lx, ly = 0.15, 0.3, 0.31, 0.5
    loop = Loop(
        np.array([[x0, y0], [x0 + lx, y0], [x0 + lx, y0 + ly], [x0, y0 + ly], [x0, y0]])
    )
    want = ly * (rate(x0 + lx) - rate(x0))
    assert abs(frame_transport(g, loop) - want) <= 1e-9


def _rk4_transport(g, loop, dt):
    """Reference transport: RK4 on v' = -Gamma(c', v) with trig-interpolated
    Christoffels, then the angle of v against the g-orthonormal frame
    (E1 along d/dx).  The frame is periodic, so the end frame is the start
    frame; the angle is only read mod 2 pi, which the test loops never reach.
    """
    gam = g.christoffel().stack()  # [k, i, j]
    interp_gam = Interpolator([ScalarField(g.grid, gam[k, i, j])
                               for k in range(2) for i in range(2) for j in range(2)])
    g11, g12, g22 = Interpolator([g.g11, g.g12, g.g22])(loop.points[:1])[:, 0]
    v = np.array([1.0 / math.sqrt(g11), 0.0])
    for a, b in zip(loop.points[:-1], loop.points[1:]):
        tang = b - a
        ne = math.ceil(np.hypot(*tang) / dt)
        u = np.arange(2 * ne + 1) / (2 * ne)
        gam_path = interp_gam(a + u[:, None] * tang).reshape(2, 2, 2, -1)
        m = -np.einsum("kijs,i->skj", gam_path, tang)  # v' = m v at each stage point
        h = 1.0 / ne
        for s in range(ne):
            k1 = m[2 * s] @ v
            k2 = m[2 * s + 1] @ (v + 0.5 * h * k1)
            k3 = m[2 * s + 1] @ (v + 0.5 * h * k2)
            k4 = m[2 * s + 2] @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return math.atan2(math.sqrt(g11 * g22 - g12 * g12) * v[1], g11 * v[0] + g12 * v[1])


@pytest.mark.parametrize("seed", range(3))
def test_frame_transport_matches_rk4_oracle(grid, seed):
    vol = sampling.random_volume_form(grid, seed + 300)
    g = sampling.random_compatible_metric(grid, seed, volume=vol)
    loops = (
        Loop.square((0.37, 0.52), 0.4),
        Loop.generator(1),
        Loop.generator(2),
        Loop.generator(2, (0.21, 0.13)),
    )
    for loop in loops:
        assert abs(frame_transport(g, loop) - _rk4_transport(g, loop, 1e-3)) <= 1e-9


def _lattice_connection_form(g):
    """The lattice connection 1-form omega_i = g(nabla_i E1, E2) with E1 =
    d/dx / sqrt(g11) and E2 = I E1, as frame transport built it on the whole
    lattice before it formed omega at its quadrature nodes."""
    grid = g.grid
    e1 = VectorField(ScalarField(grid, 1.0 / np.sqrt(g.g11.values)), tg.constant_field(grid, 0.0))
    e2 = np.einsum("ijab,jab->iab", tg.complex_structure(g).stack(), e1.stack())
    nab = tg.riemann.cov_deriv_vector(e1, g)  # [i, k] = nabla_i E1^k
    return tg.OneForm.from_stack(grid, np.einsum("ikab,klab,lab->iab", nab, g.stack(), e2))


@pytest.mark.parametrize("seed", range(3))
def test_transport_matches_the_lattice_connection_oracle(grid, seed):
    vol = sampling.random_volume_form(grid, seed + 310)
    g = sampling.random_compatible_metric(grid, seed + 20, volume=vol)
    conn = _lattice_connection_form(g)
    loops = (
        Loop.square((0.37, 0.52), 0.4),
        Loop.square((0.8, 0.15), 0.3),
        Loop.generator(1),
        Loop.generator(2),
        Loop.generator(1, (0.31, 0.72)),
    )
    for loop in loops:
        assert abs(frame_transport(g, loop) + loop_integral_oneform(conn, loop)) <= 1e-12
    c = canonical_class(g)
    for hol, axis in ((c.holA, 1), (c.holB, 2)):
        want = KAPPA_CONV * loop_integral_oneform(conn, Loop.generator(axis))
        assert abs(np.exp(1j * hol) - np.exp(1j * want)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_stokes_contractible_loop(grid, seed):
    g, _, _ = make_setup(grid, seed)
    s = tg.scalar_curvature(g)
    f = g.volume.density.values
    integrand = ScalarField(grid, 0.5 * s.values * f)
    center, side = (0.37, 0.52), 0.4
    theta = frame_transport(g, Loop.square(center, side))
    ref = tg.region_integral(
        integrand,
        (center[0] - side / 2, center[0] + side / 2, center[1] - side / 2, center[1] + side / 2),
        order=40,
    )
    assert abs(theta - ref) <= 1e-5 * abs(ref)


def test_shrinking_loops_converge_to_curvature(grid):
    g, _, _ = make_setup(grid, 1)
    s = tg.scalar_curvature(g)
    p = (0.3, 0.6)
    kp = 0.5 * tg.interpolate(s, p)
    errs = []
    for side in (0.1, 0.05, 0.025, 0.0125):
        theta = frame_transport(g, Loop.square(p, side))
        rect = (p[0] - side / 2, p[0] + side / 2, p[1] - side / 2, p[1] + side / 2)
        mu_area = tg.region_integral(g.volume.density, rect, order=24)
        errs.append(abs(theta / mu_area - kp))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    asymptotic = 2 * orders[-1] - orders[-2]
    assert asymptotic >= 2.0


# -------------------------------------------------------- canonical bundle


def test_canonical_class_flat_trivial(grid, flat):
    c = canonical_class(flat)
    assert sup(c.curvature.c12.values) == 0.0
    assert c.holA == 0.0 and c.holB == 0.0 and c.chern == 0


@pytest.mark.parametrize("seed", range(10))
def test_canonical_curvature_integral_vanishes(grid, seed):
    g, _, _ = make_setup(grid, seed)
    c = canonical_class(g)
    assert abs(tg.integrate(c.curvature)) <= 1e-8
    assert c.chern == 0


def test_canonical_curvature_conformal_closed_form(grid):
    # g = exp(2u) delta with density exp(2u) has S = -2 exp(-2u) Lap u, so the
    # canonical curvature -S mu is the 2-form 2 Lap u dx^dy
    X, Y = grid.meshes()
    k = 2 * np.pi
    u = 0.1 * np.sin(k * X) + 0.05 * np.cos(k * (X + 2 * Y))
    lap = -0.1 * k**2 * np.sin(k * X) - 0.05 * 5 * k**2 * np.cos(k * (X + 2 * Y))
    e2u = ScalarField(grid, np.exp(2 * u))
    g = tg.Metric(e2u, tg.constant_field(grid, 0.0), e2u, tg.VolumeForm(e2u))
    curv = canonical_class(g).curvature.c12.values
    assert sup(curv - 2 * lap) <= 1e-9 * sup(2 * lap)


def test_canonical_one_dim_holonomy_oracle(grid):
    # oracle: 1D quadrature of the reduced transport rate along the
    # y-generator; the bundle angle is -KAPPA_CONV times the frame angle
    amp = 0.25
    X, _ = grid.meshes()
    mu = sampling.flat_volume_form(grid)
    g = tg.Metric(
        ScalarField(grid, np.exp(2 * amp * np.sin(2 * np.pi * X))),
        tg.constant_field(grid, 0.0),
        ScalarField(grid, np.exp(-2 * amp * np.sin(2 * np.pi * X))),
        mu,
    )
    c = canonical_class(g)
    rate = math.exp(-2 * amp * math.sin(0.0)) * amp * 2 * math.pi * math.cos(0.0)
    want = (-KAPPA_CONV * rate) % TWO_PI
    assert abs(c.holB - want) <= 1e-10
    assert abs(c.holA) <= 1e-10  # x-generator at y=0 does not rotate the frame


# ------------------------------------------------------------ group law


def _angle_gap(x, y):
    return abs((x - y + math.pi) % TWO_PI - math.pi)


def _class_gap(c1, c2):
    return max(
        sup(c1.curvature.c12.values - c2.curvature.c12.values),
        _angle_gap(c1.holA, c2.holA),
        _angle_gap(c1.holB, c2.holB),
        float(abs(c1.chern - c2.chern)),
    )


@given(
    chern=st.integers(min_value=-5, max_value=5),
    hol_a=st.floats(0.0, TWO_PI, exclude_max=True),
    hol_b=st.floats(0.0, TWO_PI, exclude_max=True),
)
@settings(max_examples=25, deadline=None)
def test_kobayashi_identity_and_inverse(chern, hol_a, hol_b):
    grid = tg.Grid(16)
    vol = sampling.flat_volume_form(grid)
    c = constant_curvature_class(vol, chern, hol_a, hol_b)
    e = identity_class(grid)
    assert _class_gap(kobayashi_add(c, e), c) <= 1e-12
    assert _class_gap(kobayashi_add(c, kobayashi_neg(c)), e) <= 1e-12


@given(
    angles=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=6, max_size=6),
    cherns=st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_kobayashi_associative_commutative(angles, cherns):
    grid = tg.Grid(16)
    vol = sampling.flat_volume_form(grid)
    cs = [
        constant_curvature_class(vol, cherns[i], angles[2 * i], angles[2 * i + 1])
        for i in range(3)
    ]
    left = kobayashi_add(kobayashi_add(cs[0], cs[1]), cs[2])
    right = kobayashi_add(cs[0], kobayashi_add(cs[1], cs[2]))
    assert _class_gap(left, right) <= 1e-12
    assert _class_gap(kobayashi_add(cs[0], cs[1]), kobayashi_add(cs[1], cs[0])) <= 1e-12


def test_kobayashi_rejects_grid_mismatch():
    va = sampling.flat_volume_form(tg.Grid(16))
    vb = sampling.flat_volume_form(tg.Grid(32))
    with pytest.raises(ValueError, match="grid"):
        kobayashi_add(constant_curvature_class(va, 1), constant_curvature_class(vb, 1))


def test_circle_bundle_class_quantization_enforced(grid, flat):
    bad = TwoForm(tg.constant_field(grid, 1.0))  # integral 1, not in 2 pi Z
    with pytest.raises(ValueError, match="2\\*pi"):
        CircleBundleClass(bad, 0.0, 0.0, 0)


# ----------------------------------------------------------- momentum map


def test_momentum_residual_zero_inputs(grid):
    g = sampling.random_compatible_metric(grid, 3)
    zero_x = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.0, 0.0), g.volume)
    h = sampling.random_tangent(g, 4)
    assert tg.momentum_residual(g, zero_x, h) == 0.0
    zero_h = tg.tracefree_project(
        SymTensor2(*(tg.constant_field(grid, 0.0) for _ in range(3))), g
    )
    x = tg.div_free_from_stream(sampling.random_stream(grid, 5), (0.1, 0.2), g.volume)
    assert tg.momentum_residual(g, x, zero_h) == 0.0


def test_momentum_residual_flat_killing(grid, flat):
    x = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.5, -0.2), flat.volume)
    h = sampling.random_tangent(flat, 6)
    assert abs(tg.momentum_residual(flat, x, h)) <= 1e-10


def test_momentum_identity_coarse_grid_with_explicit_trace_tol():
    # at N=32 (kmax 4) the g-trace of -L_X g aliases to ~1e-6, above
    # fundamental_vector's default; with a looser bound the identity still holds
    g, X, h = make_setup(tg.Grid(32), 0)
    fv = tg.fundamental_vector(X, g, trace_tol=1e-4)
    res = tg.omega(g, fv, h) + tg.pairing_kappa(X, tg.connection_alpha(g, h))
    assert abs(res) <= 1e-8 * pair_scale(g, X, h)


@pytest.mark.parametrize("seed", range(10))
def test_momentum_residual_random(grid, seed):
    g, X, h = make_setup(grid, seed, harmonic=seed >= 7)
    assert abs(tg.momentum_residual(g, X, h)) <= 1e-8 * pair_scale(g, X, h)


# ------------------------------------------------------ holonomy derivative


def test_holonomy_derivative_zero_direction(grid):
    g = sampling.random_compatible_metric(grid, 7)
    zero_h = tg.tracefree_project(
        SymTensor2(*(tg.constant_field(grid, 0.0) for _ in range(3))), g
    )
    fd, line = holonomy_derivative_check(g, zero_h, Loop.square((0.4, 0.4), 0.3), 1e-4)
    assert abs(fd) <= 1e-12
    assert abs(line) <= 1e-12


def test_holonomy_derivative_flat_constant_direction(grid, flat):
    h = tg.tracefree_project(
        SymTensor2(
            tg.constant_field(grid, 0.6),
            tg.constant_field(grid, 0.2),
            tg.constant_field(grid, -0.6),
        ),
        flat,
    )
    fd, line = holonomy_derivative_check(flat, h, Loop.square((0.4, 0.4), 0.3), 1e-4)
    assert abs(fd) <= 1e-9
    assert abs(line) <= 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_holonomy_derivative_matches_line_integral(grid, seed):
    g, _, h = make_setup(grid, seed)
    fd, line = holonomy_derivative_check(g, h, Loop.square((0.35, 0.55), 0.3), 1e-4)
    assert abs(fd - line) <= 1e-4 * abs(line)


def test_holonomy_derivative_costs_four_transports(grid, monkeypatch):
    # one Richardson value on central steps of eps and eps/2
    g, _, h = make_setup(grid, 0)
    steps = []
    transport = bundles.frame_transport
    monkeypatch.setattr(bundles, "frame_transport", lambda gt, loop: steps.append(gt) or transport(gt, loop))
    holonomy_derivative_check(g, h, Loop.square((0.35, 0.55), 0.3), 1e-4)
    assert len(steps) == 4


def test_holonomy_derivative_rejects_winding_loop(grid):
    g = sampling.random_compatible_metric(grid, 8)
    h = sampling.random_tangent(g, 9)
    with pytest.raises(ValueError, match="contractible"):
        holonomy_derivative_check(g, h, Loop.generator(1), 1e-4)


def test_consistency_triangle_line_vs_area(grid):
    # one shared alpha representative: its loop integral equals the area
    # integral of d(alpha) over the enclosed square (Stokes on the chart)
    g, _, h = make_setup(grid, 2)
    alpha = tg.connection_alpha(g, h)
    loop = Loop.square((0.45, 0.5), 0.36)
    line = loop_integral_oneform(alpha, loop)
    curl = tg.ScalarField(
        grid, tg.partial(alpha.a2, 1).values - tg.partial(alpha.a1, 2).values
    )
    area = tg.region_integral(
        curl, (0.45 - 0.18, 0.45 + 0.18, 0.5 - 0.18, 0.5 + 0.18), order=40
    )
    assert abs(line - area) <= 1e-9 * max(abs(line), 1.0)


def test_equivariance_exploratory(grid):
    # exploratory (non-acceptance): how the canonical holonomies respond to a
    # finite pushforward; the transported generator loop for g should match
    # the straight generator for phi_* g.  Reported, not asserted.
    vol = sampling.flat_volume_form(grid)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 80), (0.0, 0.0), vol)
    phi = tg.flow(X, 0.1, 5e-3)
    g = sampling.random_compatible_metric(grid, 81, volume=vol)
    gp = tg.pushforward_metric(phi, g)

    npts = 160
    ts = np.linspace(0.0, 1.0, npts + 1)
    for axis, hol_name in ((1, "holA"), (2, "holB")):
        straight = np.stack([ts, np.full_like(ts, 0.0)], axis=1) if axis == 1 else np.stack(
            [np.full_like(ts, 0.0), ts], axis=1
        )
        mapped = phi.apply(straight)
        theta_push = frame_transport(gp, Loop(mapped))
        theta_orig = frame_transport(g, Loop(straight))
        print(
            f"equivariance {hol_name}: pushforward along mapped generator "
            f"{-KAPPA_CONV * theta_push:+.6f} vs original {-KAPPA_CONV * theta_orig:+.6f} "
            f"(gap {abs(theta_push - theta_orig):.2e})"
        )
        assert math.isfinite(theta_push) and math.isfinite(theta_orig)


def test_dalpha_zero_direction_is_zero_field(grid):
    g = sampling.random_compatible_metric(grid, 4)
    zero = tg.tracefree_project(
        SymTensor2(*(tg.constant_field(grid, 0.0) for _ in range(3))), g
    )
    assert sup(tg.dalpha_defect(g, zero).values) == 0.0
