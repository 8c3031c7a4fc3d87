"""Per-layer tracing of torusgeom from outside the program.

``Tracer.install()`` replaces the program's public functions, methods and
numpy's FFT entry points with timed wrappers, in every module namespace where
callers look them up.  Each call becomes a span (name, start, end, parent,
unit, work) kept in memory; a layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

import torusgeom
from torusgeom import bundles, diffeo, fields, riemann, sampling, symplectic

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# span name -> (owner, attribute) of a module-level function
FUNCTIONS = {
    "riemann.covariant_divergence": (riemann, "covariant_divergence"),
    "riemann.divergence_vector": (riemann, "divergence_vector"),
    "riemann.raise_sym2": (riemann, "raise_sym2"),
    "riemann.metric_lie_derivative": (riemann, "metric_lie_derivative"),
    "riemann.linearized_scalar_curvature": (riemann, "linearized_scalar_curvature"),
    "symplectic.omega": (symplectic, "omega"),
    "symplectic.metric_path": (symplectic, "metric_path"),
    "symplectic.tracefree_project": (symplectic, "tracefree_project"),
    "diffeo.flow": (diffeo, "flow"),
    "diffeo.fundamental_vector": (diffeo, "fundamental_vector"),
    "diffeo.div_free_from_stream": (diffeo, "div_free_from_stream"),
    "bundles.frame_transport": (bundles, "frame_transport"),
    "bundles.canonical_class": (bundles, "canonical_class"),
    "bundles.holonomy_derivative_check": (bundles, "holonomy_derivative_check"),
    "bundles.momentum_residual": (bundles, "momentum_residual"),
    "bundles.dalpha_defect": (bundles, "dalpha_defect"),
}
PUSHFORWARDS = ("pushforward_metric", "pushforward_tangent")
SAMPLERS = ("random_volume_form", "flat_volume_form", "random_sym_tensor",
            "random_compatible_metric", "random_tangent", "random_oneform",
            "random_stream", "random_harmonic")

# span name -> (class, method)
METHODS = {
    "riemann.christoffel": (riemann.Metric, "christoffel"),
    "riemann.scalar_curvature": (riemann.Metric, "scalar_curvature"),
    "riemann.ricci": (riemann.Metric, "ricci_stack"),
    "riemann.Metric.init": (riemann.Metric, "__init__"),
    "symplectic.TangentVector.init": (symplectic.TangentVector, "__init__"),
    "diffeo.volume_defect": (diffeo.DiscreteDiffeo, "volume_defect"),
    "diffeo.roundtrip_residual": (diffeo.DiscreteDiffeo, "roundtrip_residual"),
}

# per-layer metric -> (span name, statistic); every value is per timed unit,
# except sampling, which runs only while the inputs are built
PER_LAYER = {
    "fields.fft.calls": ("fields.fft", "calls"),
    "fields.fft.points": ("fields.fft", "work"),
    "fields.fft.self_ms": ("fields.fft", "self_ms"),
    "fields.Interpolator.calls": ("fields.Interpolator", "calls"),
    "fields.Interpolator.field_points": ("fields.Interpolator", "work"),
    "fields.Interpolator.self_ms": ("fields.Interpolator", "self_ms"),
    "fields.Interpolator.init_ms": ("fields.Interpolator.init", "self_ms"),
    "riemann.christoffel.calls": ("riemann.christoffel", "calls"),
    "riemann.christoffel.computed": ("riemann.christoffel", "work"),
    "riemann.christoffel.self_ms": ("riemann.christoffel", "self_ms"),
    "riemann.scalar_curvature.self_ms": ("riemann.scalar_curvature", "self_ms"),
    "riemann.ricci.self_ms": ("riemann.ricci", "self_ms"),
    "riemann.covariant_divergence.self_ms": ("riemann.covariant_divergence", "self_ms"),
    "riemann.divergence_vector.self_ms": ("riemann.divergence_vector", "self_ms"),
    "riemann.raise_sym2.self_ms": ("riemann.raise_sym2", "self_ms"),
    "riemann.metric_lie_derivative.self_ms": ("riemann.metric_lie_derivative", "self_ms"),
    "riemann.linearized_scalar_curvature.self_ms": ("riemann.linearized_scalar_curvature",
                                                    "self_ms"),
    "riemann.Metric.init_ms": ("riemann.Metric.init", "self_ms"),
    "symplectic.omega.calls": ("symplectic.omega", "calls"),
    "symplectic.omega.self_ms": ("symplectic.omega", "self_ms"),
    "symplectic.metric_path.self_ms": ("symplectic.metric_path", "self_ms"),
    "symplectic.tracefree_project.self_ms": ("symplectic.tracefree_project", "self_ms"),
    "symplectic.TangentVector.init_ms": ("symplectic.TangentVector.init", "self_ms"),
    "diffeo.flow.calls": ("diffeo.flow", "calls"),
    "diffeo.flow.self_ms": ("diffeo.flow", "self_ms"),
    "diffeo.volume_defect.self_ms": ("diffeo.volume_defect", "self_ms"),
    "diffeo.roundtrip_residual.self_ms": ("diffeo.roundtrip_residual", "self_ms"),
    "diffeo.pushforward.self_ms": ("diffeo.pushforward", "self_ms"),
    "diffeo.fundamental_vector.self_ms": ("diffeo.fundamental_vector", "self_ms"),
    "diffeo.div_free_from_stream.self_ms": ("diffeo.div_free_from_stream", "self_ms"),
    "bundles.frame_transport.calls": ("bundles.frame_transport", "calls"),
    "bundles.frame_transport.self_ms": ("bundles.frame_transport", "self_ms"),
    "bundles.canonical_class.self_ms": ("bundles.canonical_class", "self_ms"),
    "bundles.holonomy_derivative_check.self_ms": ("bundles.holonomy_derivative_check",
                                                  "self_ms"),
    "bundles.momentum_residual.self_ms": ("bundles.momentum_residual", "self_ms"),
    "bundles.dalpha_defect.self_ms": ("bundles.dalpha_defect", "self_ms"),
    "sampling.self_ms": ("sampling", "self_ms"),
}
UNITS = {"calls": "count", "work": "count", "self_ms": "ms"}


def _program_modules():
    prefix = torusgeom.__name__
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


class Tracer:
    """Spans of the current process; ``unit`` tags the spans of one timed unit."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, unit, work)
        self._stack = []
        self.unit = None
        self._metrics_seen = weakref.WeakSet()

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit,
                              work(*args) if work else 0)

        return traced

    def _first_christoffel_request(self, metric) -> int:
        if metric in self._metrics_seen:
            return 0
        self._metrics_seen.add(metric)
        return 1

    def install(self) -> None:
        """Wrap the program; call once, before the inputs are built."""
        replacements = {}
        for name, (owner, attr) in FUNCTIONS.items():
            fn = getattr(owner, attr)
            replacements[id(fn)] = self._wrap(name, fn)
        for attr in PUSHFORWARDS:
            fn = getattr(diffeo, attr)
            replacements[id(fn)] = self._wrap("diffeo.pushforward", fn)
        for attr in SAMPLERS:
            fn = getattr(sampling, attr)
            replacements[id(fn)] = self._wrap("sampling", fn)
        original = fields.Interpolator
        init = self._wrap("fields.Interpolator.init", original.__init__)
        call = self._wrap("fields.Interpolator", original.__call__,
                          work=lambda obj, pts: np.atleast_2d(pts).shape[0] * obj._nfields)
        replacements[id(original)] = type(
            "Interpolator", (original,), {"__init__": init, "__call__": call})
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        for name, (cls, attr) in METHODS.items():
            work = self._first_christoffel_request if name == "riemann.christoffel" else None
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), work))
        for attr in FFT_ENTRY_POINTS:
            setattr(np.fft, attr, self._wrap("fields.fft", getattr(np.fft, attr),
                                             work=lambda a, *rest: np.size(a)))

    def per_layer(self, units: int) -> dict:
        """Every per-layer metric: sampling per set-up, the rest per timed unit."""
        child_time = defaultdict(float)
        for name, start, end, parent, unit, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "work": 0, "self_ms": 0.0})
        for idx, (name, start, end, parent, unit, work) in enumerate(self.spans):
            if unit is None and name != "sampling":
                continue
            s = stats[name]
            s["calls"] += 1
            s["work"] += work
            s["self_ms"] += 1e3 * (end - start - child_time[idx])
        out = {}
        for metric, (span, stat) in PER_LAYER.items():
            per = 1 if span == "sampling" else units
            out[metric] = {"value": stats[span][stat] / per, "unit": UNITS[stat]}
        return out
