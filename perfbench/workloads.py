"""The benchmark's workloads: seeded inputs, one timed unit, and its checks.

A workload is a round of unit kinds.  ``make_inputs(kind, seed, n)`` draws
every input once, at set-up, and stores it as plain arrays together with the
reference values the checks compare against.  Those references are computed
here with numpy alone (closed forms and the benchmark's own Gauss-Legendre
rule), never by torusgeom.  ``unit(inp)`` rebuilds the program's objects from
the stored arrays and calls its public API, so a metric's cache fills within
one unit but never carries over to the next.  ``checks(inp, out)`` lists what
the unit's outputs must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from torusgeom import bundles, diffeo, riemann, sampling, symplectic
from torusgeom.fields import Grid, ScalarField, SymTensor2

TWO_PI = 2.0 * np.pi

# Flow span and step: the verify suite's step size, one RK4 step per flow so
# that one unit stays well under a second at N=64.
FLOW_T = 5e-3
FLOW_DT = 5e-3
PATH_T = 0.1  # metric_path parameter in the geometry chain
# Dyadic square side and centres make every edge length exact, so the transport
# step count ceil(side / dt) never depends on the seed.
SQUARE_SIDE = 0.375
DERIV_LOOP = ((0.35, 0.55), 0.3)
DERIV_EPS = 1e-4
GL_ORDER = 40


@dataclass(frozen=True)
class Check:
    """The unit output ``out[key]`` must lie within ``tol`` of ``want`` (sup norm)."""

    name: str
    key: str
    want: object
    tol: float


def failed_checks(out: dict, checks: list[Check]) -> list[str]:
    """Names of the checks the outputs violate; NaN always violates."""
    bad = []
    for c in checks:
        err = np.max(np.abs(np.asarray(out[c.key]) - np.asarray(c.want)))
        if not err <= c.tol:
            bad.append(c.name)
    return bad


@dataclass(frozen=True)
class Workload:
    n: int
    kinds: tuple[str, ...]
    make_inputs: Callable[[str, int, int], dict]
    unit: Callable[[dict], dict]
    checks: Callable[[dict, dict], list[Check]]
    reference: Callable[[], object]
    reference_s: float  # reference kernel time in a fast stretch; scales setup_s to seconds


# ---------------------------------------------------------------- reference kernels
#
# Numpy-only kernels shaped like each workload's hot path, on fixed data.  The
# machine's speed drifts by up to 1.7x over tens of seconds; a unit's time
# divided by the reference time measured next to it does not (README.md).

_REF_RNG = np.random.default_rng(12345)
_GEOM_A = _REF_RNG.standard_normal((4, 128, 128))
_GEOM_B = _REF_RNG.standard_normal((2, 2, 2, 128, 128))
_FLOW_X = _REF_RNG.uniform(0.0, 1.0, 1024)
_FLOW_C = _REF_RNG.standard_normal((64, 384)) + 1j * _REF_RNG.standard_normal((64, 384))
_HOL_M = 0.1 * _REF_RNG.standard_normal((2, 2, 401))
_HOL_E = _REF_RNG.standard_normal((401, 128)) + 0j
_HOL_C = _REF_RNG.standard_normal((128, 768)) + 0j


def _geometry_reference():
    """FFT derivative of a stack and one stacked-tensor einsum at N=128."""
    k = 2j * np.pi * np.fft.fftfreq(128) * 128
    d = np.fft.ifft2(np.fft.fft2(_GEOM_A) * k[:, None]).real
    return np.einsum("ijab,jkab->ikab", _GEOM_B[:, :, 0], _GEOM_B[:, :, 1]).sum() + d.sum()


def _flow_reference():
    """Trigonometric basis by recurrence and one complex product, N=64."""
    z = np.exp(2j * np.pi * _FLOW_X)
    e = np.empty((_FLOW_X.size, 64), dtype=complex)
    e[:, 0] = 1.0
    for k in range(1, 64):
        np.multiply(e[:, k - 1], z, out=e[:, k])
    t = (e @ _FLOW_C).reshape(_FLOW_X.size, 6, 64)
    return np.einsum("mfl,ml->fm", t, e).real.sum()


def _holonomy_reference():
    """A small complex product, then 200 Python-level RK4 steps on a 2-vector."""
    total = (_HOL_E @ _HOL_C).real.sum()
    v = np.array([1.0, 0.0])
    h = 1.0 / 200
    for s in range(200):
        m0, mh, m1 = _HOL_M[:, :, 2 * s], _HOL_M[:, :, 2 * s + 1], _HOL_M[:, :, 2 * s + 2]
        k1 = m0 @ v
        k2 = mh @ (v + 0.5 * h * k1)
        k3 = mh @ (v + 0.5 * h * k2)
        k4 = m1 @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return total + v.sum()


# ---------------------------------------------------------------- shared inputs


def _seed(seed: int, kind: str, tag: int) -> int:
    """Distinct program-level seed per (run seed, unit kind, input)."""
    return int(np.random.SeedSequence([seed, sum(map(ord, kind)), tag]).generate_state(1)[0])


def _mesh(n: int):
    return Grid(n).meshes()


class TrigField:
    """u(x, y) = sum_k a_k sin(2 pi (p_k x + q_k y) + phase_k) with its derivatives.

    The modes include a pure-x and a pure-y wave so that both generator
    holonomies of the conformal metric exp(2u) * delta are nonzero.
    """

    MODES = ((0, 1), (1, 0), (1, 1), (2, -1))

    def __init__(self, rng: np.random.Generator):
        self.amp = rng.uniform(0.03, 0.08, len(self.MODES))
        self.phase = rng.uniform(0.0, TWO_PI, len(self.MODES))

    def _sum(self, x, y, fn, weight):
        total = np.zeros(np.broadcast(x, y).shape)
        for a, (p, q), ph in zip(self.amp, self.MODES, self.phase):
            total = total + a * weight(p, q) * fn(TWO_PI * (p * x + q * y) + ph)
        return total

    def u(self, x, y):
        return self._sum(x, y, np.sin, lambda p, q: 1.0)

    def ux(self, x, y):
        return self._sum(x, y, np.cos, lambda p, q: TWO_PI * p)

    def uy(self, x, y):
        return self._sum(x, y, np.cos, lambda p, q: TWO_PI * q)

    def lap(self, x, y):
        return self._sum(x, y, np.sin, lambda p, q: -(TWO_PI**2) * (p * p + q * q))


def _gauss_legendre(a: float, b: float):
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    return a + 0.5 * (b - a) * (nodes + 1.0), 0.5 * (b - a) * weights


def _store_metric(g) -> dict:
    return {"g11": g.g11.values, "g12": g.g12.values, "g22": g.g22.values,
            "density": g.volume.density.values}


def _store_sym(h, prefix: str) -> dict:
    return {f"{prefix}11": h.h.c11.values, f"{prefix}12": h.h.c12.values,
            f"{prefix}22": h.h.c22.values}


def _conformal_arrays(n: int, field: TrigField) -> dict:
    """g = exp(2u) delta, compatible with the density f = exp(2u)."""
    X, Y = _mesh(n)
    e2u = np.exp(2.0 * field.u(X, Y))
    return {"g11": e2u, "g12": np.zeros_like(e2u), "g22": e2u.copy(), "density": e2u.copy()}


def _random_arrays(n: int, seed: int, kind: str, with_density: bool) -> dict:
    grid = Grid(n)
    vol = (sampling.random_volume_form(grid, _seed(seed, kind, 1)) if with_density
           else sampling.flat_volume_form(grid))
    return _store_metric(sampling.random_compatible_metric(grid, _seed(seed, kind, 2), volume=vol))


def _inv2(a, b, c):
    """Inverse of the symmetric field [[a, b], [b, c]] as (a', b', c')."""
    det = a * c - b * b
    return c / det, -b / det, a / det


def _l2_sym(inp: dict, prefix: str) -> float:
    """sqrt(int |h|_g^2 mu), evaluated apart from the program."""
    i11, i12, i22 = _inv2(inp["g11"], inp["g12"], inp["g22"])
    h11, h12, h22 = inp[f"{prefix}11"], inp[f"{prefix}12"], inp[f"{prefix}22"]
    # |h|^2 = tr(g^-1 h g^-1 h) for symmetric h
    m11, m12 = i11 * h11 + i12 * h12, i11 * h12 + i12 * h22
    m21, m22 = i12 * h11 + i22 * h12, i12 * h12 + i22 * h22
    sq = m11 * m11 + 2.0 * m12 * m21 + m22 * m22
    return float(np.sqrt(np.mean(sq * inp["density"])))


def _l2_vec(inp: dict) -> float:
    """sqrt(int g(X, X) mu) for X built from the stored stream data."""
    n = inp["n"]
    k = TWO_PI * np.fft.fftfreq(n) * n
    k[n // 2] = 0.0
    spec = np.fft.fft2(inp["psi"])
    d1 = np.fft.ifft2(1j * k[:, None] * spec).real + inp["harmonic"][0]
    d2 = np.fft.ifft2(1j * k[None, :] * spec).real + inp["harmonic"][1]
    f = inp["density"]
    x1, x2 = d2 / f, -d1 / f
    gxx = inp["g11"] * x1 * x1 + 2.0 * inp["g12"] * x1 * x2 + inp["g22"] * x2 * x2
    return float(np.sqrt(np.mean(gxx * f)))


# ---------------------------------------------------------------- rebuilding


def _volume(inp: dict):
    return riemann.VolumeForm(ScalarField(Grid(inp["n"]), inp["density"]))


def _metric(inp: dict, vol):
    grid = vol.grid
    return riemann.Metric(ScalarField(grid, inp["g11"]), ScalarField(grid, inp["g12"]),
                          ScalarField(grid, inp["g22"]), vol)


def _tangent(inp: dict, g, prefix: str):
    grid = g.grid
    h = SymTensor2(*(ScalarField(grid, inp[f"{prefix}{c}"]) for c in ("11", "12", "22")))
    return symplectic.TangentVector(g, h)


def _field(inp: dict, vol):
    return diffeo.div_free_from_stream(ScalarField(vol.grid, inp["psi"]), inp["harmonic"], vol)


def _add_tangents(inp: dict, seed: int, kind: str, prefixes=("h", "k")) -> None:
    grid = Grid(inp["n"])
    vol = riemann.VolumeForm(ScalarField(grid, inp["density"]))
    g = _metric(inp, vol)
    for tag, prefix in enumerate(prefixes):
        inp.update(_store_sym(sampling.random_tangent(g, _seed(seed, kind, 10 + tag)), prefix))


def _add_stream(inp: dict, seed: int, kind: str) -> None:
    inp["psi"] = sampling.random_stream(Grid(inp["n"]), _seed(seed, kind, 20)).values
    inp["harmonic"] = sampling.random_harmonic(_seed(seed, kind, 21))


# ---------------------------------------------------------------- flow-n64


def _flow_inputs(kind: str, seed: int, n: int) -> dict:
    inp = {"kind": kind, "n": n}
    if kind == "shear":
        # psi = A sin(2 pi x) with harmonic part (a, b) on the flat density:
        # X = (b, -(2 pi A cos(2 pi x) + a)) has a closed-form trajectory.
        rng = np.random.default_rng([seed, 3])
        amp = rng.uniform(0.01, 0.03)
        a = rng.uniform(-0.5, 0.5)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)
        X, Y = _mesh(n)
        inp["psi"] = amp * np.sin(TWO_PI * X)
        inp["harmonic"] = (float(a), float(b))
        x_t = X + b * FLOW_T
        y_t = Y - a * FLOW_T - (amp / b) * (np.sin(TWO_PI * x_t) - np.sin(TWO_PI * X))
        inp["forward_ref"] = np.stack([x_t, y_t])
        inp.update(_random_arrays(n, seed, kind, with_density=False))
    else:
        inp.update(_random_arrays(n, seed, kind, with_density=kind == "stream-density"))
        _add_stream(inp, seed, kind)
    _add_tangents(inp, seed, kind)
    return inp


def _flow_unit(inp: dict) -> dict:
    vol = _volume(inp)
    phi = diffeo.flow(_field(inp, vol), FLOW_T, FLOW_DT)
    out = {"volume_defect": phi.volume_defect(), "roundtrip": phi.roundtrip_residual(),
           "forward": phi.forward}
    g = _metric(inp, vol)
    h1, h2 = _tangent(inp, g, "h"), _tangent(inp, g, "k")
    gp = diffeo.pushforward_metric(phi, g)
    hp1 = diffeo.pushforward_tangent(phi, h1, gp)
    hp2 = diffeo.pushforward_tangent(phi, h2, gp)
    out["omega"] = symplectic.omega(g, h1, h2)
    out["omega_pushed"] = symplectic.omega(gp, hp1, hp2)
    return out


def _flow_checks(inp: dict, out: dict) -> list[Check]:
    checks = [
        Check("volume_preserved", "volume_defect", 0.0, 1e-6),
        Check("roundtrip", "roundtrip", 0.0, 1e-7),
        Check("omega_invariant", "omega_pushed", out["omega"], 1e-5 * abs(out["omega"])),
    ]
    if inp["kind"] == "shear":
        checks.append(Check("shear_closed_form", "forward", inp["forward_ref"], 1e-10))
    return checks


# ---------------------------------------------------------------- geometry-n128


def _geometry_inputs(kind: str, seed: int, n: int) -> dict:
    inp = {"kind": kind, "n": n}
    if kind == "conformal":
        field = TrigField(np.random.default_rng([seed, 5]))
        inp.update(_conformal_arrays(n, field))
        X, Y = _mesh(n)
        # S = -2 exp(-2u) Lap(u) for g = exp(2u) delta
        inp["s_ref"] = -2.0 * np.exp(-2.0 * field.u(X, Y)) * field.lap(X, Y)
    else:
        inp.update(_random_arrays(n, seed, kind, with_density=kind == "random-density"))
    _add_tangents(inp, seed, kind)
    _add_stream(inp, seed, kind)
    inp["h_l2"], inp["k_l2"], inp["x_l2"] = _l2_sym(inp, "h"), _l2_sym(inp, "k"), _l2_vec(inp)
    inp["h_max"] = max(float(np.max(np.abs(inp[f"h{c}"]))) for c in ("11", "12", "22"))
    return inp


def _geometry_unit(inp: dict) -> dict:
    vol = _volume(inp)
    g = _metric(inp, vol)
    h, k = _tangent(inp, g, "h"), _tangent(inp, g, "k")
    X = _field(inp, vol)
    riemann.christoffel(g)
    s = riemann.scalar_curvature(g).values
    lie = riemann.metric_lie_derivative(X.vector, g).stack()
    lie_nabla = riemann.metric_lie_derivative_nabla(X.vector, g).stack()
    hup = riemann.raise_sym2(h.h, g)
    divdiv = riemann.divergence_vector(riemann.covariant_divergence(hup, g), g).values
    gt = symplectic.metric_path(g, h, PATH_T)
    _, witness = symplectic.nondegeneracy_witness(g, h)
    return {
        "s": s,
        "gauss_bonnet": float(np.mean(s * inp["density"])),
        "ricci_residual": riemann.ricci_relation_residual(g),
        "lin_s": riemann.linearized_scalar_curvature(g, h.h).values,
        "divdiv": divdiv,
        "divergence_integral": float(np.mean(divdiv * inp["density"])),
        "lie": lie,
        "lie_nabla": lie_nabla,
        "omega_sum": symplectic.omega(g, h, k) + symplectic.omega(g, k, h),
        "path_det": gt.det_values(),
        "witness": witness,
        "momentum": bundles.momentum_residual(g, X, h),
        "dalpha": bundles.dalpha_defect(g, h).max_abs(),
    }


def _geometry_checks(inp: dict, out: dict) -> list[Check]:
    f = inp["density"]
    s_scale = max(float(np.max(np.abs(out["s"]))), 1.0)
    checks = [
        Check("gauss_bonnet", "gauss_bonnet", 0.0, 1e-11 * s_scale),
        Check("ricci_identity", "ricci_residual", 0.0, 1e-9),
        Check("linearized_s_tracefree", "lin_s", out["divdiv"],
              1e-9 * max(float(np.max(np.abs(out["divdiv"]))), 1.0)),
        Check("divergence_theorem", "divergence_integral", 0.0,
              1e-11 * max(float(np.max(np.abs(out["divdiv"]))), 1.0)),
        Check("lie_forms_agree", "lie_nabla", out["lie"],
              1e-9 * max(float(np.max(np.abs(out["lie"]))), 1.0)),
        Check("omega_antisymmetric", "omega_sum", 0.0, 1e-12 * inp["h_l2"] * inp["k_l2"]),
        Check("path_keeps_det", "path_det", f * f, 1e-12 * float(np.max(f * f))),
        Check("witness_half_norm", "witness", 0.5 * inp["h_l2"] ** 2, 1e-10 * inp["h_l2"] ** 2),
        Check("momentum_identity", "momentum", 0.0, 1e-8 * inp["x_l2"] * inp["h_l2"]),
        Check("dalpha_identity", "dalpha", 0.0, 1e-8 * inp["h_max"]),
    ]
    if inp["kind"] == "conformal":
        checks.append(Check("curvature_closed_form", "s", inp["s_ref"],
                            1e-9 * float(np.max(np.abs(inp["s_ref"])))))
    return checks


# ---------------------------------------------------------------- holonomy-n128


def _holonomy_inputs(kind: str, seed: int, n: int) -> dict:
    inp = {"kind": kind, "n": n}
    if kind == "derivative":
        inp.update(_random_arrays(n, seed, kind, with_density=True))
        _add_tangents(inp, seed, kind, prefixes=("h",))
        return inp
    rng = np.random.default_rng([seed, 7])
    field = TrigField(rng)
    inp.update(_conformal_arrays(n, field))
    if kind == "square":
        center = rng.integers(13, 52, 2) / 64.0
        inp["center"] = (float(center[0]), float(center[1]))
        # transport angle = int K dA = -int Lap(u) dx dy over the square
        half = SQUARE_SIDE / 2.0
        xs, wx = _gauss_legendre(center[0] - half, center[0] + half)
        ys, wy = _gauss_legendre(center[1] - half, center[1] + half)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        inp["angle_ref"] = -float(np.sum(np.outer(wx, wy) * field.lap(X, Y)))
    else:
        # generator angles: int u_y(x, 0) dx along x and -int u_x(0, y) dy
        # along y; the canonical holonomy is -2 times the frame angle
        t, w = _gauss_legendre(0.0, 1.0)
        theta_a = float(np.dot(w, field.uy(t, 0.0 * t)))
        theta_b = -float(np.dot(w, field.ux(0.0 * t, t)))
        inp["hol_ref"] = np.exp(-2j * np.array([theta_a, theta_b]))
        X, Y = _mesh(n)
        inp["curvature_ref"] = 2.0 * field.lap(X, Y)  # -S mu = 2 Lap(u) dx^dy
    return inp


def _holonomy_unit(inp: dict) -> dict:
    g = _metric(inp, _volume(inp))
    kind = inp["kind"]
    if kind == "square":
        return {"angle": bundles.frame_transport(g, bundles.Loop.square(inp["center"], SQUARE_SIDE))}
    if kind == "canonical":
        cls = bundles.canonical_class(g)
        return {"holonomy": np.exp(1j * np.array([cls.holA, cls.holB])),
                "chern": cls.chern, "curvature": cls.curvature.c12.values}
    fd, line = bundles.holonomy_derivative_check(
        g, _tangent(inp, g, "h"), bundles.Loop.square(*DERIV_LOOP), DERIV_EPS)
    return {"fd": fd, "line": line}


def _holonomy_checks(inp: dict, out: dict) -> list[Check]:
    kind = inp["kind"]
    if kind == "square":
        return [Check("square_angle", "angle", inp["angle_ref"], 1e-9)]
    if kind == "canonical":
        ref = inp["curvature_ref"]
        return [
            Check("generator_holonomy", "holonomy", inp["hol_ref"], 1e-10),
            Check("chern_zero", "chern", 0, 0.5),
            Check("canonical_curvature", "curvature", ref, 1e-9 * float(np.max(np.abs(ref)))),
        ]
    return [Check("log_derivative", "fd", out["line"], 1e-4 * abs(out["line"]))]


WORKLOADS = {
    "flow-n64": Workload(64, ("stream", "stream-density", "shear"),
                         _flow_inputs, _flow_unit, _flow_checks, _flow_reference, 6.0e-3),
    "geometry-n128": Workload(128, ("random", "random-density", "conformal"),
                              _geometry_inputs, _geometry_unit, _geometry_checks,
                              _geometry_reference, 3.5e-3),
    "holonomy-n128": Workload(128, ("square", "canonical", "derivative"),
                              _holonomy_inputs, _holonomy_unit, _holonomy_checks,
                              _holonomy_reference, 10.5e-3),
}
