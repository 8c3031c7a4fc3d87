"""Deterministic FFT budget of the geometry chain: field transforms are counted,
not timed.

A field transform is one (n, n) slice of an np.fft.rfft2 input, or one
half-spectrum slice of a backward transform's last pass, np.fft.irfft (the
derivative kernel runs irfft2 as its two passes, ifft then irfft) or an
np.fft.irfft2 call; a call on a (2, 2, n, n) stack counts 4.  Each input
stack is transformed forward once per call and each output backward once, and
a divergence or curl is summed on the half spectrum before its one backward
transform.
"""

import numpy as np
import pytest

import torusgeom as tg
from torusgeom import bundles, diffeo, riemann, sampling, suites, symplectic
from torusgeom.riemann import Metric

N = 32

# Transforms of the benchmark-shaped chain below (one geometry-n128 unit: the
# identity chain plus rebuilding g, h, k and X).  The count does not depend on
# N or the seed.  Before the summed-spectrum kernel and the cached metric
# gradient it was 154 (66 forward, 88 backward); with them 102 (54 forward, 48
# backward); with nabla_j h^kj, its divergence and L_X g built once per metric
# and operand, 81 (42 forward, 39 backward).
CHAIN_BEFORE = 154
CHAIN_NOW = 81


class FFTCounter:
    def __init__(self, monkeypatch):
        self.calls = []  # (kind, fields, input array)
        for kind in ("rfft2", "irfft2", "irfft"):
            monkeypatch.setattr(np.fft, kind, self._wrap(kind, getattr(np.fft, kind)))

    def _wrap(self, kind, fn):
        def counted(a, *args, **kwargs):
            self.calls.append((kind, int(np.prod(np.shape(a)[:-2])), a))
            return fn(a, *args, **kwargs)

        return counted

    def reset(self):
        self.calls.clear()

    def fields(self, kind):
        """Field transforms of kind "forward" or "backward"."""
        return sum(f for k, f, _ in self.calls if KINDS[k] == kind)

    def ncalls(self, kind):
        return sum(1 for k, _, _ in self.calls if KINDS[k] == kind)

    @property
    def total(self):
        return self.fields("forward") + self.fields("backward")


KINDS = {"rfft2": "forward", "irfft2": "backward", "irfft": "backward"}


@pytest.fixture
def counter(monkeypatch):
    return FFTCounter(monkeypatch)


@pytest.fixture(scope="module")
def data():
    grid = tg.Grid(N)
    vol = sampling.random_volume_form(grid, 80)
    g = sampling.random_compatible_metric(grid, 81, volume=vol)
    h, k = sampling.random_tangent(g, 82), sampling.random_tangent(g, 83)
    psi, harm = sampling.random_stream(grid, 84), sampling.random_harmonic(85)
    return g, h, k, psi, harm


def _fresh(g):
    """The same metric without its caches."""
    return Metric.from_stack(g.grid, g.stack(), volume=g.volume)


def test_covariant_divergence_is_one_forward_and_one_backward(counter, data):
    g = _fresh(data[0])
    hup = riemann.raise_sym2(data[1].h, g)
    g.christoffel()
    counter.reset()
    riemann.covariant_divergence(hup, g)
    assert counter.ncalls("forward") == counter.ncalls("backward") == 1
    assert (counter.fields("forward"), counter.fields("backward")) == (4, 2)


def test_metric_is_transformed_once(counter, data):
    g, h, _, psi, harm = data
    g = _fresh(g)
    X = diffeo.div_free_from_stream(psi, harm, g.volume)
    counter.reset()
    g.christoffel()
    riemann.metric_lie_derivative(X.vector, g)
    riemann.metric_lie_derivative(X.vector, g)
    riemann.metricity_residual(g)
    forward = [a for kind, _, a in counter.calls if kind == "rfft2"]
    assert sum(np.shares_memory(a, g.stack()) for a in forward) == 1


def test_dalpha_builds_the_double_divergence_once(counter, data, monkeypatch):
    # dalpha_defect reads nabla_j h^kj and its divergence from the shared
    # builds, riemann.divergence_sym2 and riemann.double_divergence
    g = _fresh(data[0])
    g.christoffel()
    built = {"covariant_divergence": 0, "divergence_vector": 0}
    for name in built:
        real = getattr(riemann, name)

        def recording(*args, _name=name, _real=real):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(riemann, name, recording)
    counter.reset()
    bundles.dalpha_defect(g, data[1])
    assert built == {"covariant_divergence": 1, "divergence_vector": 1}
    # nabla_j h^kj 4 + 2, its divergence 2 + 1, d alpha 2 + 1 (24 before)
    assert counter.total == 12


def test_a_second_consumer_at_the_same_tangent_transforms_nothing(counter, data):
    g, h, _, psi, harm = data
    g = _fresh(g)
    X = diffeo.div_free_from_stream(psi, harm, g.volume)
    bundles.dalpha_defect(g, h)
    counter.reset()
    bundles.connection_alpha(g, h)
    diffeo.lemma1_rhs(g, X, h)
    riemann.double_divergence(h.h, g)
    assert counter.total == 0


def _geometry_chain(g0, h0, k0, psi, harm):
    """The benchmark's geometry unit, with momentum_residual at a trace
    tolerance that suits N = 32."""
    vol = g0.volume
    g = _fresh(g0)
    h, k = symplectic.TangentVector(g, h0.h), symplectic.TangentVector(g, k0.h)
    X = diffeo.div_free_from_stream(psi, harm, vol)
    riemann.christoffel(g)
    riemann.scalar_curvature(g)
    riemann.metric_lie_derivative(X.vector, g)
    riemann.metric_lie_derivative_nabla(X.vector, g)
    hup = riemann.raise_sym2(h.h, g)
    riemann.divergence_vector(riemann.covariant_divergence(hup, g), g)
    symplectic.metric_path(g, h, 0.1)
    symplectic.nondegeneracy_witness(g, h)
    riemann.ricci_relation_residual(g)
    riemann.linearized_scalar_curvature(g, h.h)
    symplectic.omega(g, h, k) + symplectic.omega(g, k, h)
    momentum = bundles.momentum_residual(g, X, h, trace_tol=1e-4)
    bundles.dalpha_defect(g, h)
    return momentum


def test_geometry_chain_budget(counter, data):
    counter.reset()
    assert abs(_geometry_chain(*data)) <= 1e-9
    assert counter.total == CHAIN_NOW
    assert counter.total <= CHAIN_BEFORE * 2 // 3


@pytest.mark.parametrize("n", [64, 256])
def test_a_derivative_interpolator_build_is_one_forward_transform(counter, n):
    # the chop guard reads the half spectrum alone; the seed-1 flow-invariance
    # velocity (random density) ran an irfft2 for its lattice max at n = 256
    X = suites.FlowInvariance(suites.SuiteConfig(grid_sizes=[n]), 1, n).flow_field
    counter.reset()
    interp = tg.Interpolator([X.vector.x1, X.vector.x2], derivatives=True)
    assert interp.eval_n == 50
    assert counter.ncalls("forward") == 1 and counter.fields("forward") == 2
    assert counter.ncalls("backward") == 0


def test_frame_transport_transforms_only_the_metric(counter):
    # omega is formed at the loop's nodes from the interpolated g and d g: no
    # lattice Christoffel symbols or gradient are built, and the interpolator's
    # chop guard runs no transform.  The lattice connection form took 20
    # transforms (8 forward, 12 backward).
    grid = tg.Grid(64)
    g = sampling.random_compatible_metric(grid, 81, volume=sampling.random_volume_form(grid, 80))
    assert tg.Interpolator([g.g11, g.g12, g.g22], derivatives=True).eval_n < grid.n
    counter.reset()
    bundles.frame_transport(g, bundles.Loop.square((0.37, 0.52), 0.4))
    assert "gamma" not in g._cache and "grad" not in g._cache
    assert (counter.fields("forward"), counter.fields("backward")) == (3, 0)
