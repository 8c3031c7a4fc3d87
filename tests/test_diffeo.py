import numpy as np
import pytest

import torusgeom as tg
from torusgeom import diffeo, fields, riemann, sampling, suites, symplectic
from torusgeom.diffeo import FLOW_MAX_DT, DiscreteDiffeo

from conftest import make_setup, pair_scale, sup


def test_divfree_harmonic_part_is_constant_generator(grid, flat):
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (1.0, 0.0), flat.volume)
    # with eps_12 = +1: X . mu = dx gives X = (0, -1/f)
    assert sup(X.vector.x1.values) == 0.0
    assert sup(X.vector.x2.values + 1.0) == 0.0


def test_divfree_exact_flux_is_closed(grid, flat):
    psi = tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
    X = tg.div_free_from_stream(psi, (0.0, 0.0), flat.volume)
    assert X.closedness_residual() <= 1e-12 * 2 * np.pi


def test_divfree_requires_zero_mean_stream(grid, flat):
    with pytest.raises(ValueError, match="zero mean"):
        tg.div_free_from_stream(tg.constant_field(grid, 0.3), (0.0, 0.0), flat.volume)


@pytest.mark.parametrize("harmonic", [(np.nan, 0.2), (0.1, np.inf)])
def test_divfree_rejects_non_finite_harmonic_part(harmonic):
    grid = tg.Grid(32)
    psi = sampling.random_stream(grid, 45)
    with pytest.raises(ValueError, match="harmonic part is not finite"):
        tg.div_free_from_stream(psi, harmonic, sampling.flat_volume_form(grid))


def test_divfree_rejects_non_finite_stream_with_location():
    grid = tg.Grid(32)
    vals = np.array(sampling.random_stream(grid, 46).values)
    vals[7, 30] = np.nan
    psi, vol = tg.ScalarField(grid, vals), sampling.flat_volume_form(grid)
    with pytest.raises(ValueError, match=r"stream function is not finite at lattice \(7, 30\)"):
        tg.div_free_from_stream(psi, (0.0, 0.0), vol)


def test_divfree_gate_fails_closed_on_overflow():
    # finite samples whose derivative overflows: the flux is inf and its curl NaN
    grid = tg.Grid(32)
    psi = tg.field_from_function(grid, lambda X, Y: 1e307 * np.sin(2 * np.pi * 15 * X))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="reconstruction failed"
    ):
        tg.div_free_from_stream(psi, (0.0, 0.0), sampling.flat_volume_form(grid))


def test_divfree_flow_preserves_volume(grid):
    vol = sampling.random_volume_form(grid, 40)
    X = tg.div_free_from_stream(
        sampling.random_stream(grid, 41), sampling.random_harmonic(42), vol
    )
    phi = tg.flow(X, 0.1, 5e-3)
    assert phi.volume_defect() <= 1e-6


def test_flow_result_is_read_only_and_volume_defect_cached(grid, monkeypatch):
    vol = sampling.random_volume_form(grid, 43)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 44), (0.0, 0.0), vol)
    built = []
    real = diffeo.Interpolator
    monkeypatch.setattr(diffeo, "Interpolator", lambda *a, **kw: built.append(1) or real(*a, **kw))
    phi = diffeo.flow(X, 5e-3, 5e-3)
    assert phi.volume_defect() == phi.volume_defect() <= 1e-6
    # the velocity and the density: flow's gate and both calls read one defect
    assert len(built) == 2
    for arr in (phi.forward, phi.inverse, phi.det_forward):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] += 1.0


def test_volume_defect_needs_the_variational_determinant(grid):
    mesh = np.stack(grid.meshes())
    phi = DiscreteDiffeo(grid, mesh + 0.1, mesh - 0.1, sampling.flat_volume_form(grid))
    with pytest.raises(ValueError, match="det_forward"):
        phi.volume_defect()


def _recording_interpolators(monkeypatch):
    built = []

    class Recording(fields.Interpolator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = {False: 0, True: 0}  # by derivatives
            built.append(self)

        def __call__(self, points, derivatives=False):
            self.calls[derivatives] += 1
            return super().__call__(points, derivatives=derivatives)

    monkeypatch.setattr(diffeo, "Interpolator", Recording)
    return built


def test_flat_density_flow_runs_one_velocity_interpolator_at_the_velocity_band(
    grid, flat, monkeypatch
):
    built = _recording_interpolators(monkeypatch)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 45), (0.3, -0.2), flat.volume)
    assert tg.Interpolator([X.vector.x1, X.vector.x2]).eval_n == 10  # kmax = 4
    tg.flow(X, 2e-2, 5e-3)
    # one 2-field interpolator serves both flows, 4 steps of 4 stages each:
    # the forward flow with derivatives, the reverse flow without; the first
    # stage of both is the one lattice evaluation, with derivatives
    velocity = [i for i in built if i._nfields == 2]
    assert len(velocity) == 1
    assert velocity[0].calls == {True: 16, False: 15}
    assert velocity[0].eval_n == 10
    assert velocity[0].dropped <= fields.CHOP_MASS_LIMIT


@pytest.mark.parametrize("density_seed", [None, 48])
def test_shared_lattice_stage_changes_no_bits(grid, density_seed):
    # both flows from scratch, each evaluating its own first stage: the
    # forward flow with derivatives, the reverse flow by a value-only call
    vol = (sampling.flat_volume_form(grid) if density_seed is None
           else sampling.random_volume_form(grid, density_seed))
    X = tg.div_free_from_stream(sampling.random_stream(grid, 49), (0.2, -0.1), vol)
    t, dt, nsteps = 2e-2, 5e-3, 4
    phi = tg.flow(X, t, dt)
    velocity = tg.Interpolator([X.vector.x1, X.vector.x2], derivatives=True)
    Xm, Ym = grid.meshes()
    pts = np.column_stack([Xm.ravel(), Ym.ravel()])
    fwd, jac = diffeo._rk4_flow(
        velocity, pts, velocity(pts, derivatives=True), t, nsteps, tangent=True)
    inv, _ = diffeo._rk4_flow(velocity, pts, velocity(pts), -t, nsteps)
    shape = (2, grid.n, grid.n)
    assert np.array_equal(phi.forward, fwd.T.reshape(shape))
    assert np.array_equal(phi.inverse, inv.T.reshape(shape))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]  # J is (2, 2, m)
    assert np.array_equal(phi.det_forward, det.reshape(grid.n, grid.n))


@pytest.mark.parametrize("density_seed", [None, 51])
@pytest.mark.parametrize("n", [32, 48])
def test_det_forward_agrees_with_lapack_det_of_the_same_jacobian(n, density_seed):
    grid = tg.Grid(n)
    vol = (sampling.flat_volume_form(grid) if density_seed is None
           else sampling.random_volume_form(grid, density_seed))
    X = tg.div_free_from_stream(sampling.random_stream(grid, 52), (0.2, -0.1), vol)
    t, dt, nsteps = 2e-2, 5e-3, 4
    phi = diffeo._flow_map(X, t, dt)
    velocity = tg.Interpolator([X.vector.x1, X.vector.x2], derivatives=True)
    Xm, Ym = grid.meshes()
    pts = np.column_stack([Xm.ravel(), Ym.ravel()])
    _, jac = diffeo._rk4_flow(
        velocity, pts, velocity(pts, derivatives=True), t, nsteps, tangent=True)
    assert jac.shape == (2, 2, n * n)
    lapack = np.linalg.det(jac.transpose(2, 0, 1)).reshape(n, n)
    assert sup(phi.det_forward - lapack) <= 1e-14


def test_det_forward_of_a_constant_field_is_exactly_one(grid):
    # the field of translation_exact: its derivatives interpolate to exact
    # zeros, so J stays the identity and det J = 1 - 0 bit for bit
    xc = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.0, 1.0),
                                 sampling.flat_volume_form(grid))
    phi = tg.flow(xc, 0.25, 5e-3)
    assert np.all(phi.det_forward == 1.0)


def test_lattice_mesh_is_built_once_read_only(grid):
    _, X, _ = make_setup(grid, 4)
    phi = tg.flow(X, 2e-2, 5e-3)
    mesh = np.stack(grid.meshes())
    assert np.array_equal(phi._mesh, mesh)
    with pytest.raises(ValueError, match="read-only"):
        phi._mesh[0, 0, 0] += 1.0
    # apply, inverse_jacobian and roundtrip_residual read it, bit for bit a fresh mesh
    pts = np.random.default_rng(4).uniform(-0.5, 1.5, (40, 2))
    disp = [tg.ScalarField(grid, c) for c in phi.forward - mesh]
    assert np.array_equal(phi.apply(pts), pts + tg.Interpolator(disp)(pts).T)
    assert np.array_equal(phi.inverse_jacobian, _spectral_jacobian(phi.inverse - mesh))
    diff = phi.apply(phi.inverse.reshape(2, -1).T) - mesh.reshape(2, -1).T
    diff -= np.round(diff)
    assert phi.roundtrip_residual() == float(np.max(np.abs(diff)))
    assert phi._mesh is phi._mesh
    assert np.array_equal(phi._mesh, mesh)


def _spectral_jacobian(displacement):
    """[k, i] = d_i (mesh + displacement)^k, from spectral derivatives."""
    grad = fields._derivatives(displacement)  # [i, k]
    return grad.transpose(1, 0, 2, 3) + np.eye(2)[:, :, None, None]


@pytest.mark.parametrize("n", [256, 512])
def test_desk_velocities_chop_to_their_value_band_with_derivatives(n):
    # the three fields flow-invariance integrates: the derivative guard holds
    # the band the values chop to, at every n
    config = suites.SuiteConfig(grid_sizes=[n], seeds=[0, 1, 2])
    for seed, m in [(0, 10), (1, 50), (2, 10)]:
        X = suites.FlowInvariance(config, seed, n).flow_field
        interp = tg.Interpolator([X.vector.x1, X.vector.x2], derivatives=True)
        assert interp.eval_n == tg.Interpolator([X.vector.x1, X.vector.x2]).eval_n == m
        assert interp.dropped <= fields.CHOP_MASS_LIMIT


def test_pushforwards_along_one_map_build_its_inverse_jacobian_once(grid, monkeypatch):
    g, X, h = make_setup(grid, 1)
    k = sampling.random_tangent(g, 50)
    phi = tg.flow(X, 2e-2, 5e-3)
    calls = []
    real = diffeo._derivatives
    monkeypatch.setattr(diffeo, "_derivatives", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    gp = tg.pushforward_metric(phi, g)
    tg.pushforward_tangent(phi, h, gp)
    tg.pushforward_tangent(phi, k, gp)
    assert len(calls) == 1


def test_inverse_jacobian_is_cached_read_only(grid):
    _, X, _ = make_setup(grid, 2)
    phi = tg.flow(X, 2e-2, 5e-3)
    jac = phi.inverse_jacobian
    assert phi.inverse_jacobian is jac
    assert np.array_equal(jac, _spectral_jacobian(phi.inverse - np.stack(grid.meshes())))
    with pytest.raises(ValueError, match="read-only"):
        jac[0, 0, 0, 0] += 1.0


def test_apply_rejects_a_non_finite_point_by_index(grid):
    _, X, _ = make_setup(grid, 0)
    phi = tg.flow(X, 2e-2, 5e-3)
    with pytest.raises(ValueError, match=r"interpolation point 1 is not finite"):
        phi.apply(np.array([[0.1, 0.2], [np.inf, 0.3]]))


@pytest.mark.parametrize("density_seed", [None, 46])
def test_chopped_flow_matches_the_full_band_flow(grid, monkeypatch, density_seed):
    vol = (sampling.flat_volume_form(grid) if density_seed is None
           else sampling.random_volume_form(grid, density_seed))
    X = tg.div_free_from_stream(sampling.random_stream(grid, 47), (0.1, 0.2), vol)
    chopped = tg.flow(X, 2e-2, 5e-3)
    monkeypatch.setattr(fields, "CHOP_MASS_LIMIT", -1.0)  # every chop falls back
    assert tg.Interpolator([X.vector.x1]).eval_n == grid.n
    full = tg.flow(X, 2e-2, 5e-3)
    for a, b in [(chopped.forward, full.forward), (chopped.inverse, full.inverse),
                 (chopped.det_forward, full.det_forward)]:
        assert sup(a - b) <= 1e-13


def test_fundamental_vector_of_zero_field(grid):
    g = sampling.random_compatible_metric(grid, 0)
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.0, 0.0), g.volume)
    assert sup(tg.fundamental_vector(X, g).h.stack()) == 0.0


def test_fundamental_vector_flat_killing(grid, flat):
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.7, -0.3), flat.volume)
    assert sup(tg.fundamental_vector(X, flat).h.stack()) <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_fundamental_vector_tracefree(grid, seed):
    g, X, _ = make_setup(grid, seed, harmonic=seed % 2 == 0)
    fv = tg.fundamental_vector(X, g)
    assert sup(tg.trace_sym2(fv.h.stack(), g)) <= 1e-10


def test_fundamental_vector_computes_the_trace_once(grid, monkeypatch):
    # the TangentVector gate is the only trace gate
    g, X, _ = make_setup(grid, 3)
    calls = []

    def counted(h, g):
        calls.append(1)
        return riemann.trace_sym2(h, g)

    monkeypatch.setattr(symplectic, "trace_sym2", counted)
    monkeypatch.setattr(diffeo, "trace_sym2", counted, raising=False)
    tg.fundamental_vector(X, g)
    assert len(calls) == 1


def test_kappa_vanishes_on_exact_forms(grid):
    vol = sampling.random_volume_form(grid, 50)
    X = tg.div_free_from_stream(
        sampling.random_stream(grid, 51), sampling.random_harmonic(52), vol
    )
    phi = tg.random_band_limited(grid, 53, 4, 0.5)
    dphi = np.stack([tg.partial(phi, 1).values, tg.partial(phi, 2).values])
    assert abs(tg.pairing_kappa(X, dphi)) <= 1e-11


def test_kappa_harmonic_frozen_value(grid, flat):
    # X . mu = dx against alpha = c dy with f = 1: the coordinate integral
    # gives -c under eps_12 = +1 (computed by hand before the build)
    c = 0.735
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (1.0, 0.0), flat.volume)
    alpha = np.stack([tg.constant_field(grid, 0.0).values, tg.constant_field(grid, c).values])
    assert tg.pairing_kappa(X, alpha) == pytest.approx(-c, abs=1e-15)


def test_kappa_bilinear(grid, flat):
    psi = sampling.random_stream(grid, 54)
    X1 = tg.div_free_from_stream(psi, (0.2, 0.0), flat.volume)
    a1 = sampling.random_oneform(grid, 55)
    a2 = sampling.random_oneform(grid, 56)
    both = 0.3 * a1 - 1.7 * a2
    lhs = tg.pairing_kappa(X1, both)
    rhs = 0.3 * tg.pairing_kappa(X1, a1) - 1.7 * tg.pairing_kappa(X1, a2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # additivity in the field slot via the doubled field
    X2 = tg.div_free_from_stream(tg.ScalarField(grid, 2.0 * psi.values), (0.4, 0.0), flat.volume)
    assert abs(tg.pairing_kappa(X2, a1) - 2.0 * tg.pairing_kappa(X1, a1)) <= 1e-12


def test_lemma1_flat_killing_both_sides_zero(grid, flat):
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (1.0, 0.0), flat.volume)
    h = sampling.random_tangent(flat, 60)
    lhs = tg.omega(flat, tg.fundamental_vector(X, flat), h)
    rhs = tg.lemma1_rhs(flat, X, h)
    assert abs(lhs) <= 1e-13
    assert abs(rhs) <= 1e-13


def test_lemma1_covariantly_constant_h(grid, flat):
    X = tg.div_free_from_stream(sampling.random_stream(grid, 61), (0.0, 0.0), flat.volume)
    h = tg.tracefree_project(
        np.array([[0.8, 0.1], [0.1, -0.8]])[:, :, None, None] * np.ones((grid.n, grid.n)), flat
    )
    assert abs(tg.lemma1_rhs(flat, X, h)) <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_lemma1_equality(grid, seed):
    g, X, h = make_setup(grid, seed, harmonic=seed >= 14)
    lhs = tg.omega(g, tg.fundamental_vector(X, g), h)
    rhs = tg.lemma1_rhs(g, X, h)
    assert abs(lhs - rhs) <= 1e-8 * pair_scale(g, X, h)


@pytest.mark.parametrize("seed", range(8))
def test_mu_h_mixed_tensor_symmetric(grid, seed):
    g, _, h = make_setup(grid, seed)
    assert tg.skew_defect_mu_h(g, h) <= 1e-11 * max(h.h.max_abs(), 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_integration_by_parts_step(grid, seed):
    g, X, h = make_setup(grid, seed, harmonic=seed % 2 == 1)
    assert tg.integration_by_parts_residual(g, X, h) <= 1e-9 * pair_scale(g, X, h)


def test_flow_zero_time_is_identity(grid, flat):
    X = tg.div_free_from_stream(sampling.random_stream(grid, 70), (0.0, 0.0), flat.volume)
    phi = tg.flow(X, 0.0, 5e-3)
    mesh = np.stack(grid.meshes())
    assert sup(phi.forward - mesh) == 0.0


def test_flow_constant_field_translates_exactly(grid, flat):
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.0, 1.0), flat.volume)
    phi = tg.flow(X, 0.25, 5e-3)
    mesh = np.stack(grid.meshes())
    assert sup(phi.forward - mesh - np.array([0.25, 0.0])[:, None, None]) <= 1e-12


def test_flow_roundtrip(grid):
    vol = sampling.random_volume_form(grid, 71)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 72), sampling.random_harmonic(73), vol)
    phi = tg.flow(X, 0.1, 5e-3)
    assert phi.roundtrip_residual() <= 1e-7


def test_flow_rejects_large_dt(grid, flat):
    X = tg.div_free_from_stream(sampling.random_stream(grid, 74), (0.0, 0.0), flat.volume)
    with pytest.raises(ValueError, match="dt"):
        tg.flow(X, 0.1, 2 * FLOW_MAX_DT)


@pytest.mark.parametrize("t, dt, name", [
    (np.nan, 5e-3, "t"), (np.inf, 5e-3, "t"), (0.1, np.nan, "dt"), (-np.inf, np.inf, "t"),
])
def test_flow_rejects_non_finite_time_or_step(grid, flat, t, dt, name):
    X = tg.div_free_from_stream(sampling.random_stream(grid, 76), (0.0, 0.0), flat.volume)
    with pytest.raises(ValueError, match=f"flow {name} must be finite"):
        tg.flow(X, t, dt)


def test_pushforward_by_identity(grid):
    g = sampling.random_compatible_metric(grid, 75)
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.0, 0.0), g.volume)
    phi = tg.flow(X, 0.0, 5e-3)
    gp = tg.pushforward_metric(phi, g)
    assert sup(gp.stack() - g.stack()) <= 1e-12


def test_pushforward_translation_fixes_flat(grid, flat):
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (0.4, 0.1), flat.volume)
    phi = tg.flow(X, 0.1, 5e-3)
    gp = tg.pushforward_metric(phi, flat)
    assert sup(gp.stack() - flat.stack()) <= 1e-11


def test_pushforward_certifies_compatibility_at_the_module_tolerance(grid, monkeypatch):
    vol = sampling.random_volume_form(grid, 313)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 12), (0.2, -0.1), vol)
    phi = tg.flow(X, 0.1, 5e-3)
    g = sampling.random_compatible_metric(grid, 32, volume=vol)
    res = tg.pushforward_metric(phi, g).compatibility_residual()
    assert 0.0 < res <= diffeo.PUSHFORWARD_COMPAT_TOL
    monkeypatch.setattr(diffeo, "PUSHFORWARD_COMPAT_TOL", 0.5 * res)
    with pytest.raises(ValueError, match="lost compatibility"):
        tg.pushforward_metric(phi, g)


@pytest.mark.parametrize("seed", [12, 13])
def test_omega_invariant_under_pushforward(grid, seed):
    vol = sampling.random_volume_form(grid, seed + 300) if seed % 2 else sampling.flat_volume_form(grid)
    X = tg.div_free_from_stream(
        sampling.random_stream(grid, seed), sampling.random_harmonic(seed + 3), vol
    )
    phi = tg.flow(X, 0.1, 5e-3)
    g = sampling.random_compatible_metric(grid, seed + 20, volume=vol)
    h1 = sampling.random_tangent(g, seed + 21)
    h2 = sampling.random_tangent(g, seed + 22)
    gp = tg.pushforward_metric(phi, g)
    hp1 = tg.pushforward_tangent(phi, h1, gp)
    hp2 = tg.pushforward_tangent(phi, h2, gp)
    before = tg.omega(g, h1, h2)
    after = tg.omega(gp, hp1, hp2)
    assert abs(after - before) <= 1e-5 * abs(before)


@pytest.mark.parametrize(
    "dt, volume_limit, message",
    [
        (0.0, diffeo.FLOW_VOLUME_LIMIT, "flow step dt must be positive"),
        (-1e-3, diffeo.FLOW_VOLUME_LIMIT, "flow step dt must be positive"),
        (5e-3, 0.0, "flow volume defect .* exceeds 0.0; reduce dt"),
    ],
    ids=["zero-step", "negative-step", "volume-gate"],
)
def test_flow_rejects_a_bad_step_and_a_volume_defect(monkeypatch, dt, volume_limit, message):
    grid = tg.Grid(32)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 5), (0.0, 0.0),
                                sampling.flat_volume_form(grid))
    monkeypatch.setattr(diffeo, "FLOW_VOLUME_LIMIT", volume_limit)
    with pytest.raises(ValueError, match=message):
        tg.flow(X, 0.01, dt)
