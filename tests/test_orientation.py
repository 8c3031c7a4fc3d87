"""The orientation eps_12 is one switch: flipping it flips the oriented
quantities and leaves every verification verdict as it was.

riemann.EPS_12 is read when a VolumeForm is built, so each test builds its
inputs after setting the constant.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgeom as tg
from torusgeom import bundles, riemann, sampling, suites, symplectic
from torusgeom.fields import ScalarField, SymTensor2
from torusgeom.symplectic import TangentVector

from conftest import make_setup, pair_scale

REDUCED = suites.SuiteConfig(seeds=(0, 1, 2))


def _records(report):
    return {(r.suite, r.name, r.seed, r.n): r for r in report.records}


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def test_both_orientations_give_the_same_verdicts(monkeypatch):
    shipped = _records(suites.run_suites(REDUCED))
    monkeypatch.setattr(riemann, "EPS_12", -1.0)
    flipped = _records(suites.run_suites(REDUCED))

    assert shipped.keys() == flipped.keys()
    assert {k: r.passed for k, r in shipped.items()} == {k: r.passed for k, r in flipped.items()}
    # X flips, so the flows run in reverse time: only their residuals move,
    # and class_log_derivative's at roundoff, because a holonomy angle is stored
    # reduced into [0, 2 pi), which rounds theta and -theta differently, and
    # the record differences it at eps = 1e-4
    moved = [k for k in shipped if not _same(shipped[k].residual, flipped[k].residual)]
    wrapped = [k for k in moved if k[1] == "class_log_derivative"]
    assert all(k[0] == "flow-invariance" or k in wrapped for k in moved), moved
    assert all(abs(shipped[k].residual - flipped[k].residual) <= 1e-3 * shipped[k].tolerance
               for k in wrapped)


def _oriented_quantities(grid):
    g, X, h = make_setup(grid, 1)  # seed 1 has a random density
    h2 = sampling.random_tangent(g, 9)
    return {
        "omega": symplectic.omega(g, h, h2),
        "alpha": bundles.connection_alpha(g, h),
        "X": X.vector.stack(),
        "I": riemann.complex_structure(g),
        "transport": bundles.frame_transport(g, bundles.Loop.square((0.37, 0.52), 0.4)),
        "momentum": bundles.momentum_residual(g, X, h),
        "dalpha": bundles.dalpha_defect(g, h),
    }


def test_flipping_the_orientation_flips_the_oriented_quantities(grid, monkeypatch):
    shipped = _oriented_quantities(grid)
    monkeypatch.setattr(riemann, "EPS_12", -1.0)
    flipped = _oriented_quantities(grid)

    for key in ("omega", "alpha", "X", "I", "transport"):
        assert np.array_equal(flipped[key], -np.asarray(shipped[key])), key
    assert flipped["momentum"] == shipped["momentum"]
    # the defect is a 2-form coefficient: it flips, and its size is invariant
    assert np.array_equal(flipped["dalpha"].values, -shipped["dalpha"].values)
    assert flipped["dalpha"].max_abs() == shipped["dalpha"].max_abs()


def test_volume_form_reads_the_orientation_when_built(grid, monkeypatch):
    f = sampling.random_volume_form(grid, 3).density
    shipped = riemann.VolumeForm(f)
    monkeypatch.setattr(riemann, "EPS_12", -1.0)
    flipped = riemann.VolumeForm(f)

    assert (shipped.sign, flipped.sign) == (1.0, -1.0)
    assert np.array_equal(shipped.coefficient(), f.values)
    assert np.array_equal(flipped.coefficient(), -f.values)
    assert np.array_equal(flipped.matrix()[1, 0], f.values)
    v = np.stack([f.values, 2.0 * f.values])
    # mu_ik v^k against the matrix product
    want = np.einsum("ikab,kab->iab", flipped.matrix(), v)
    assert np.array_equal(flipped.contract(v), want)


# ------------------------------------------------------------ translation


def _roll(arr, shift):
    return np.roll(arr, shift, axis=(-2, -1))


@given(
    seed=st.integers(min_value=0, max_value=30),
    di=st.integers(min_value=0, max_value=63),
    dj=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=8, deadline=None)
def test_residuals_are_invariant_under_a_lattice_translation(grid, seed, di, dj):
    g, X, h1 = make_setup(grid, seed, harmonic=True)
    h2 = sampling.random_tangent(g, seed + 9)
    shift = (di, dj)

    vol = riemann.VolumeForm(ScalarField(grid, _roll(g.volume.density.values, shift)))
    gr = riemann.Metric.from_stack(grid, _roll(g.stack(), shift), volume=vol)
    h1r, h2r = (TangentVector(gr, SymTensor2.from_stack(grid, _roll(h.h.stack(), shift)))
                for h in (h1, h2))
    Xr = tg.div_free_from_stream(ScalarField(grid, _roll(X.stream.values, shift)), X.harmonic, vol)

    om, omr = symplectic.omega(g, h1, h2), symplectic.omega(gr, h1r, h2r)
    assert abs(omr - om) <= 1e-12 * abs(om)
    scale = pair_scale(g, X, h1)
    mom, momr = bundles.momentum_residual(g, X, h1), bundles.momentum_residual(gr, Xr, h1r)
    assert abs(momr - mom) <= 1e-12 * scale
    d, dr = bundles.dalpha_defect(g, h1).max_abs(), bundles.dalpha_defect(gr, h1r).max_abs()
    assert abs(dr - d) <= 1e-11 * h1.h.max_abs()  # the defect itself is up to 6e-10 |h|
