import numpy as np
import pytest

import torusgeom as tg
from torusgeom import diffeo, fields, sampling
from torusgeom.diffeo import FLOW_MAX_DT, DiscreteDiffeo
from torusgeom.fields import OneForm

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
    computed = []
    real = DiscreteDiffeo._compute_volume_defect
    monkeypatch.setattr(DiscreteDiffeo, "_compute_volume_defect",
                        lambda self: computed.append(1) or real(self))
    vol = sampling.random_volume_form(grid, 43)
    X = tg.div_free_from_stream(sampling.random_stream(grid, 44), (0.0, 0.0), vol)
    phi = tg.flow(X, 5e-3, 5e-3)  # evaluates the defect for its own gate
    assert phi.volume_defect() == phi.volume_defect() <= 1e-6
    assert len(computed) == 1
    for arr in (phi.forward, phi.inverse, phi.det_forward):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] += 1.0


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
    # the forward flow with derivatives, the reverse flow without
    velocity = [i for i in built if i._nfields == 2]
    assert len(velocity) == 1
    assert velocity[0].calls == {True: 16, False: 16}
    assert velocity[0].eval_n == 10
    assert velocity[0].dropped <= fields.CHOP_MASS_LIMIT


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
    assert tg.trace_sym2(fv.h, g).max_abs() <= 1e-10


def test_kappa_vanishes_on_exact_forms(grid):
    vol = sampling.random_volume_form(grid, 50)
    X = tg.div_free_from_stream(
        sampling.random_stream(grid, 51), sampling.random_harmonic(52), vol
    )
    phi = tg.random_band_limited(grid, 53, 4, 0.5)
    dphi = OneForm(tg.partial(phi, 1), tg.partial(phi, 2))
    assert abs(tg.pairing_kappa(X, dphi)) <= 1e-11


def test_kappa_harmonic_frozen_value(grid, flat):
    # X . mu = dx against alpha = c dy with f = 1: the coordinate integral
    # gives -c under eps_12 = +1 (computed by hand before the build)
    c = 0.735
    X = tg.div_free_from_stream(tg.constant_field(grid, 0.0), (1.0, 0.0), flat.volume)
    alpha = OneForm(tg.constant_field(grid, 0.0), tg.constant_field(grid, c))
    assert tg.pairing_kappa(X, alpha) == pytest.approx(-c, abs=1e-15)


def test_kappa_bilinear(grid, flat):
    X1 = tg.div_free_from_stream(sampling.random_stream(grid, 54), (0.2, 0.0), flat.volume)
    a1 = sampling.random_oneform(grid, 55)
    a2 = sampling.random_oneform(grid, 56)
    both = OneForm(
        tg.ScalarField(grid, 0.3 * a1.a1.values - 1.7 * a2.a1.values),
        tg.ScalarField(grid, 0.3 * a1.a2.values - 1.7 * a2.a2.values),
    )
    lhs = tg.pairing_kappa(X1, both)
    rhs = 0.3 * tg.pairing_kappa(X1, a1) - 1.7 * tg.pairing_kappa(X1, a2)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    # additivity in the field slot via the scaled copy
    assert abs(tg.pairing_kappa(X1.scaled(2.0), a1) - 2.0 * tg.pairing_kappa(X1, a1)) <= 1e-12


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
        tg.SymTensor2(
            tg.constant_field(grid, 0.8),
            tg.constant_field(grid, 0.1),
            tg.constant_field(grid, -0.8),
        ),
        flat,
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
