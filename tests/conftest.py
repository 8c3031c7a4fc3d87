import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import torusgeom as tg
from torusgeom import sampling

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def grid():
    return tg.Grid(64)


@pytest.fixture(scope="session")
def flat(grid):
    return tg.flat_metric(grid)


@pytest.fixture(scope="session")
def default_verify(tmp_path_factory):
    """The default `verify`, run once per session as a subprocess: (the
    finished process, its wall time in s, the report path)."""
    out = tmp_path_factory.mktemp("default") / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "torusgeom", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    return proc, time.perf_counter() - t0, out


def seeded_volume(grid, seed):
    """The seeded density policy of suites.Point.vol at kmax 4: a random
    density when seed % 3 == 1, else the flat one."""
    if seed % 3 == 1:
        return sampling.random_volume_form(grid, seed + 300)
    return sampling.flat_volume_form(grid)


def make_setup(grid, seed, harmonic=False):
    """Random (g, X, h) triple; volume alternates flat/random across seeds
    (seeded_volume)."""
    vol = seeded_volume(grid, seed)
    g = sampling.random_compatible_metric(grid, seed, volume=vol)
    h = sampling.random_tangent(g, seed + 1)
    harm = sampling.random_harmonic(seed + 5) if harmonic else (0.0, 0.0)
    X = tg.div_free_from_stream(sampling.random_stream(grid, seed + 2), harm, vol)
    return g, X, h


def pair_scale(g, X, h):
    return max(tg.riemann.l2_norm_vector(X.vector, g) * tg.riemann.l2_norm_sym2(h.h, g), 1e-30)


def sup(arr):
    return float(np.max(np.abs(arr)))


def class_gap(c1, c2):
    """Distance of two circle-bundle classes: the curvature sup, each holonomy
    angle mod 2 pi and the Chern integers."""
    def angle_gap(x, y):
        return abs((x - y + math.pi) % (2 * math.pi) - math.pi)

    return max(
        sup(c1.curvature.c12.values - c2.curvature.c12.values),
        angle_gap(c1.holA, c2.holA),
        angle_gap(c1.holB, c2.holB),
        float(abs(c1.chern - c2.chern)),
    )
