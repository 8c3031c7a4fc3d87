"""Reference figures: each workload's layer primitives at N = 32, 64, 128, 256.

Every figure is the fastest of ``REPEATS`` calls, in ms.  The direct
trigonometric evaluator behind a flow stage holds (points x fields x N)
complex numbers, so at N=256 one stage at all lattice points would allocate
about 1.6 GB; the flow ladder stops at N=128.
"""

from __future__ import annotations

import time

import numpy as np

from torusgeom import bundles, diffeo, fields, riemann, symplectic
from torusgeom.fields import Grid

import workloads as wl

SIZES = (32, 64, 128, 256)
REPEATS = 3
FLOW_SIZES = (32, 64, 128)
# fundamental_vector's default trace tolerance is set for N >= 64; coarser
# grids alias past it and the momentum residual raises
MOMENTUM_MIN_N = 64
SKIPPED = {
    "flow-n64": {n: "direct evaluator would allocate ~1.6 GB per stage"
                 for n in SIZES if n not in FLOW_SIZES},
    "geometry-n128": {n: "momentum_residual: trace check needs N >= 64"
                      for n in SIZES if n < MOMENTUM_MIN_N},
    "holonomy-n128": {},
}


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _objects(inp: dict):
    vol = wl._volume(inp)
    return vol, wl._metric(inp, vol)


def _flow_row(n: int, seed: int) -> dict:
    inp = wl._flow_inputs("stream", seed, n)
    vol, g = _objects(inp)
    X = wl._field(inp, vol)
    x1, x2 = X.vector.x1, X.vector.x2
    six = [x1, x2] + [fields.partial(c, axis) for c in (x1, x2) for axis in (1, 2)]
    interp = fields.Interpolator(six)
    X_, Y_ = Grid(n).meshes()
    points = np.column_stack([X_.ravel(), Y_.ravel()])
    # a translation stands in for the flow map; it keeps the flat-density g compatible
    mesh = np.stack([X_, Y_])
    shift = np.array([0.01, 0.02])[:, None, None]
    phi = diffeo.DiscreteDiffeo(Grid(n), mesh + shift, mesh - shift, vol)
    return {
        "rk4_stage_6_fields": _best_ms(lambda: interp(points)),
        "pushforward_metric": _best_ms(lambda: diffeo.pushforward_metric(phi, g)),
    }


def _geometry_row(n: int, seed: int) -> dict:
    inp = wl._geometry_inputs("random-density", seed, n)
    vol, g = _objects(inp)
    h, k = wl._tangent(inp, g, "h"), wl._tangent(inp, g, "k")
    X = wl._field(inp, vol)

    def curvature():
        riemann.scalar_curvature(wl._metric(inp, vol))

    row = {
        "fft_partial": _best_ms(lambda: fields.partial(g.g11, 1)),
        "metric_christoffel_curvature": _best_ms(curvature),
        "omega": _best_ms(lambda: symplectic.omega(g, h, k)),
        "metric_path": _best_ms(lambda: symplectic.metric_path(g, h, wl.PATH_T)),
    }
    if n >= MOMENTUM_MIN_N:
        row["momentum_residual"] = _best_ms(lambda: bundles.momentum_residual(g, X, h))
    return row


def _holonomy_row(n: int, seed: int) -> dict:
    inp = wl._holonomy_inputs("square", seed, n)
    _, g = _objects(inp)
    square = bundles.Loop.square(inp["center"], wl.SQUARE_SIDE)
    return {
        "frame_transport_square": _best_ms(lambda: bundles.frame_transport(g, square)),
        "canonical_class": _best_ms(lambda: bundles.canonical_class(g)),
    }


ROWS = {
    "flow-n64": (_flow_row, FLOW_SIZES),
    "geometry-n128": (_geometry_row, SIZES),
    "holonomy-n128": (_holonomy_row, SIZES),
}


def ladder(workload: str, seed: int) -> dict:
    """{N: {primitive: ms}} for the primitives the workload exercises."""
    row, sizes = ROWS[workload]
    table = {n: row(n, seed) for n in sizes}
    table["skipped"] = SKIPPED[workload]
    return table
