"""Every tensor class stores one owned, read-only, component-first array."""

import re

import numpy as np
import pytest

import torusgeom as tg
from torusgeom import sampling
from torusgeom.fields import (
    ScalarField,
    SymTensor2,
    TwoForm,
    VectorField,
    _derivatives,
)
from torusgeom.riemann import Metric, VolumeForm

N = 16
GRID = tg.Grid(N)

# class -> (component names in constructor order, component-axis rank)
COMPONENTS = {
    VectorField: (("x1", "x2"), 1),
    SymTensor2: (("c11", "c12", "c22"), 2),
    TwoForm: (("c12",), 0),
    VolumeForm: (("density",), 0),
    Metric: (("g11", "g12", "g22"), 2),
}
CLASSES = list(COMPONENTS)


def _arrays(cls, seed=0):
    """Caller-owned, writable component arrays valid for cls."""
    names, _ = COMPONENTS[cls]
    rng = np.random.default_rng(seed)
    arrays = [0.1 * rng.standard_normal((N, N)) for _ in names]
    if cls is VolumeForm:
        arrays[0] += 1.0
    if cls is Metric:
        arrays[0] += 1.0
        arrays[2] += 1.0
    return arrays


def _build(cls, arrays):
    fields = [ScalarField(GRID, a) for a in arrays]
    if cls is Metric:
        a, b, c = arrays
        return Metric(*fields, VolumeForm(ScalarField(GRID, np.sqrt(a * c - b * b))))
    return cls(*fields)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_stack_is_the_stored_read_only_array(cls):
    t = _build(cls, _arrays(cls))
    names, rank = COMPONENTS[cls]
    assert t.stack() is t.stack()
    assert t.stack().shape == (2,) * rank + (N, N)
    with pytest.raises(ValueError):
        t.stack()[(0,) * rank] = 0.0
    for name in names:
        view = getattr(t, name).values
        assert np.shares_memory(view, t.stack())
        with pytest.raises(ValueError):
            view[0, 0] = 0.0


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_components_read_back_their_input(cls):
    arrays = _arrays(cls)
    t = _build(cls, arrays)
    for name, arr in zip(COMPONENTS[cls][0], arrays):
        assert np.array_equal(getattr(t, name).values, arr)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_mutating_the_callers_input_leaves_the_tensor_unchanged(cls):
    arrays = _arrays(cls)
    t = _build(cls, arrays)
    before = t.stack().copy()
    for a in arrays:
        a += 1.0
    assert np.array_equal(t.stack(), before)

    arr = before.copy()
    extra = {"volume": t.volume} if cls is Metric else {}
    s = cls.from_stack(GRID, arr, **extra)
    arr += 1.0
    assert np.array_equal(s.stack(), before)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_tensor_attributes_are_read_only(cls):
    t = _build(cls, _arrays(cls))
    with pytest.raises(AttributeError):
        t.grid = tg.Grid(8)
    with pytest.raises(AttributeError):
        setattr(t, COMPONENTS[cls][0][0], None)


@pytest.mark.parametrize("cls", [SymTensor2], ids=lambda c: c.__name__)
def test_from_stack_mirrors_the_upper_entry(cls):
    rank = COMPONENTS[cls][1]
    arr = np.random.default_rng(3).standard_normal((2,) * rank + (N, N))
    t = cls.from_stack(GRID, arr)
    out = t.stack()
    lead = (0,) * (rank - 2)
    upper = arr[lead + (0, 1)]
    assert not np.array_equal(upper, arr[lead + (1, 0)])
    assert np.array_equal(out[lead + (0, 1)], upper)
    assert np.array_equal(out[lead + (1, 0)], upper)
    assert np.array_equal(t.c12.values, upper)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_from_stack_rejects_the_wrong_shape(cls):
    rank = COMPONENTS[cls][1]
    extra = {"volume": _build(VolumeForm, _arrays(VolumeForm))} if cls is Metric else {}
    with pytest.raises(ValueError, match="rank"):
        cls.from_stack(GRID, np.ones((2,) * (rank + 1) + (N, N)), **extra)
    with pytest.raises(ValueError, match="rank"):
        cls.from_stack(GRID, np.ones((2,) * rank + (N + 2, N)), **extra)


def test_constructor_rejects_the_wrong_component_count():
    with pytest.raises(TypeError, match="3 components"):
        SymTensor2(tg.constant_field(GRID, 1.0), tg.constant_field(GRID, 0.0))


def _same_error(build_a, build_b):
    with pytest.raises(ValueError) as a:
        build_a()
    with pytest.raises(ValueError) as b:
        build_b()
    assert str(a.value) == str(b.value)
    return str(a.value)


@pytest.mark.parametrize(
    "spot, value, message",
    [
        ((0, 1, 9, 4), np.nan, r"metric g12 is not finite at lattice \(9, 4\)"),
        ((1, 1, 2, 5), np.inf, r"metric g22 is not finite at lattice \(2, 5\)"),
        ((0, 0, 3, 7), -2.0, r"not positive-definite at lattice \(3, 7\)"),
        ((0, 1, 6, 1), 3.0, r"not positive-definite at lattice \(6, 1\)"),
    ],
)
def test_metric_from_stack_checks_like_the_constructor(spot, value, message):
    vol = VolumeForm(tg.constant_field(GRID, 1.0))
    arr = np.zeros((2, 2, N, N))
    arr[0, 0] = arr[1, 1] = 1.0
    arr[spot] = value
    if spot[:2] == (0, 1):
        arr[(1, 0) + spot[2:]] = value
    comps = [ScalarField(GRID, arr[i, j]) for i, j in ((0, 0), (0, 1), (1, 1))]
    text = _same_error(lambda: Metric(*comps, vol),
                       lambda: Metric.from_stack(GRID, arr, volume=vol))
    assert re.search(message, text)


@pytest.mark.parametrize("value, message", [(np.nan, "not finite"), (0.0, "must be positive")])
def test_volume_form_from_stack_checks_like_the_constructor(value, message):
    arr = np.ones((N, N))
    arr[4, 11] = value
    text = _same_error(lambda: VolumeForm(ScalarField(GRID, arr)),
                       lambda: VolumeForm.from_stack(GRID, arr))
    assert message in text and "(4, 11)" in text


def test_metric_rejects_a_volume_on_another_grid():
    vol = VolumeForm(tg.constant_field(tg.Grid(8), 1.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        Metric.from_stack(GRID, np.eye(2)[:, :, None, None] * np.ones((N, N)), volume=vol)


def test_volume_matrix_is_built_once():
    vol = VolumeForm(tg.constant_field(GRID, 2.0))
    mu = vol.matrix()
    assert vol.matrix() is mu
    assert not mu.flags.writeable
    assert np.array_equal(mu[0, 1], 2.0 * np.ones((N, N)))
    assert np.array_equal(mu[1, 0], -2.0 * np.ones((N, N)))
    assert not mu[0, 0].any() and not mu[1, 1].any()


def test_christoffel_and_inverse_are_read_only():
    g = sampling.random_compatible_metric(tg.Grid(32), 4)
    for arr in (g.inverse_stack(), g.christoffel()):
        with pytest.raises(ValueError):
            arr[(0,) * (arr.ndim - 2)] = 0.0


def test_ricci_cache_is_read_only():
    g = sampling.random_compatible_metric(tg.Grid(64), 3)
    before = tg.ricci_relation_residual(g)
    ric = g.ricci_stack()
    assert g.ricci_stack() is ric
    with pytest.raises(ValueError):
        ric[0, 0] += 1.0
    assert tg.ricci_relation_residual(g) == before


def test_metric_gradient_cache_is_read_only():
    g = sampling.random_compatible_metric(tg.Grid(32), 5)
    dg = g.gradient_stack()
    assert g.gradient_stack() is dg
    assert np.array_equal(dg, _derivatives(g.stack()))
    with pytest.raises(ValueError):
        dg[0, 0, 0] += 1.0


# ------------------------------------------- arrays returned in place of tensors

GRID32 = tg.Grid(32)
SHAPES = {
    "raise_sym2": (2, 2, 32, 32),
    "covariant_divergence": (2, 32, 32),
    "lower_vector": (2, 32, 32),
    "connection_alpha": (2, 32, 32),
    "divergence_identity_defect": (32, 32),
    "random_oneform": (2, 32, 32),
    "trace_sym2": (32, 32),
    "laplace_beltrami": (32, 32),
    "random_sym_tensor": (2, 2, 32, 32),
}


@pytest.fixture(scope="module")
def returned():
    g = sampling.random_compatible_metric(GRID32, 4, volume=sampling.random_volume_form(GRID32, 5))
    h = sampling.random_tangent(g, 6)
    X = tg.div_free_from_stream(sampling.random_stream(GRID32, 7), (0.1, -0.2), g.volume)
    up = tg.raise_sym2(h.h, g)
    raw = sampling.random_sym_tensor(GRID32, 9)
    return {
        "raise_sym2": up,
        "covariant_divergence": tg.covariant_divergence(up, g),
        "lower_vector": tg.lower_vector(X.vector, g),
        "connection_alpha": tg.connection_alpha(g, h),
        "divergence_identity_defect": tg.divergence_identity_defect(g, X.vector.stack()),
        "random_oneform": sampling.random_oneform(GRID32, 8),
        "trace_sym2": tg.trace_sym2(raw, g),
        "laplace_beltrami": tg.laplace_beltrami(raw[0, 0], g),
        "random_sym_tensor": raw,
    }


@pytest.mark.parametrize("name", SHAPES)
def test_returned_arrays_are_read_only(returned, name):
    arr = returned[name]
    assert isinstance(arr, np.ndarray) and arr.shape == SHAPES[name]
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 0.0


def test_raise_sym2_is_exactly_symmetric(returned):
    up = returned["raise_sym2"]
    assert np.array_equal(up[0, 1], up[1, 0])


def test_a_scalar_field_of_a_row_of_alpha_shares_its_memory(returned):
    alpha = returned["connection_alpha"]
    assert np.shares_memory(ScalarField(GRID32, alpha[0]).values, alpha)
