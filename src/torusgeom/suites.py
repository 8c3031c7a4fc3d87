"""Named verification suites and machine-readable reports.

Each suite is a function producing CheckResult records; a record compares a
measured residual against a fixed tolerance.  Runs are deterministic given
the configuration: inputs are seeded, records are sorted canonically, and a
failing record can be reproduced from its (name, seed, N) triple alone.

Seed policy: sweep suites consume config.seeds slices of documented length
(momentum uses all seeds and switches on a harmonic part for the last 30%);
non-convergence suites run at max(grid_sizes), the convergence suite at every
configured size.  For must-be-large probes (detector sensitivity, pairing
nondegeneracy) the residual is stored as threshold/measured so that the usual
"residual <= tolerance = 1" rule applies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__ as _version
from . import bundles, diffeo, fields, riemann, sampling, symplectic
from .fields import Grid, OneForm, TwoForm, constant_field, field_from_function
from .riemann import l2_norm_sym2, l2_norm_vector

SUITE_NAMES = (
    "calculus",
    "riemannian",
    "symplectic",
    "lemma1",
    "lemma2",
    "momentum",
    "kobayashi",
    "flow-invariance",
    "convergence",
)

DEFAULT_TOLERANCES = {
    "calculus": 1e-11,
    "riemannian": 1e-9,
    "symplectic": 1e-8,
    "lemma1": 1e-8,
    "lemma2": 1e-8,
    "momentum": 1e-8,
    "kobayashi": 1e-12,
    "flow-invariance": 1e-5,
    "convergence": 1e-2,
}


@dataclass(frozen=True)
class SuiteConfig:
    grid_sizes: tuple[int, ...] = (32, 48, 64)
    seeds: tuple[int, ...] = tuple(range(50))
    kmax: int = 4
    suites: tuple[str, ...] = SUITE_NAMES
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.grid_sizes or any(n < 8 or n % 2 for n in self.grid_sizes):
            raise ValueError(f"grid_sizes must be even and >= 8, got {self.grid_sizes}")
        if not self.seeds:
            raise ValueError("seeds must be a nonempty list of integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.kmax < 0 or self.kmax >= min(self.grid_sizes) // 4:
            raise ValueError(
                f"kmax={self.kmax} must satisfy 0 <= kmax < min(grid_sizes)/4"
            )
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite '{s}'; valid: {', '.join(SUITE_NAMES)}")
        for key, tol in self.tolerances.items():
            if key not in SUITE_NAMES:
                raise ValueError(f"tolerances['{key}'] does not name a suite")
            if isinstance(tol, bool) or not isinstance(tol, (int, float)):
                raise ValueError(f"tolerances['{key}'] must be a number, got {tol!r}")
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerances['{key}'] must be positive and finite, got {tol!r}")

    @property
    def n_desk(self) -> int:
        return max(self.grid_sizes)

    def tol(self, suite: str, default: float | None = None) -> float:
        if suite in self.tolerances:
            return float(self.tolerances[suite])
        return DEFAULT_TOLERANCES[suite] if default is None else default

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        known = {"grid_sizes", "seeds", "kmax", "suites", "tolerances"}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config field '{key}'; valid: {sorted(known)}")
        kwargs = {}
        if "grid_sizes" in data:
            kwargs["grid_sizes"] = tuple(int(n) for n in data["grid_sizes"])
        if "seeds" in data:
            kwargs["seeds"] = tuple(int(s) for s in data["seeds"])
        if "kmax" in data:
            kwargs["kmax"] = int(data["kmax"])
        if "suites" in data:
            kwargs["suites"] = tuple(str(s) for s in data["suites"])
        if "tolerances" in data:
            if not isinstance(data["tolerances"], dict):
                raise ValueError("tolerances must be an object of suite -> number")
            kwargs["tolerances"] = dict(data["tolerances"])
        return cls(**kwargs)

    def echo(self) -> dict:
        return {
            "grid_sizes": list(self.grid_sizes),
            "seeds": list(self.seeds),
            "kmax": self.kmax,
            "suites": list(self.suites),
            "tolerances": dict(self.tolerances),
        }


@dataclass
class CheckResult:
    suite: str
    name: str
    seed: int
    n: int
    kmax: int
    residual: float
    tolerance: float
    passed: bool
    wall_time: float
    note: str = ""


def _record(suite, name, seed, n, kmax, residual, tolerance, t0, note=""):
    residual = float(residual)
    ok = math.isfinite(residual) and residual <= tolerance
    return CheckResult(
        suite, name, seed, n, kmax, residual, float(tolerance),
        bool(ok), time.perf_counter() - t0, note,
    )


def _guarded(make_checks):
    """Run a record generator; numerical blow-ups become failed records."""

    def runner(config: SuiteConfig):
        out = []
        gen = make_checks(config)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                break
            except Exception as err:  # one broken check must not kill the run
                out.append(
                    CheckResult(
                        make_checks.__name__.removeprefix("suite_").replace("_", "-"),
                        "aborted", -1, 0, 0, float("nan"), 0.0, False,
                        time.perf_counter() - t0, f"{type(err).__name__}: {err}",
                    )
                )
                break
            out.append(item)
        return out

    return runner


# ---------------------------------------------------------------- inputs


def _volume(grid: Grid, seed: int):
    """Alternate flat and random volume densities across seeds."""
    if seed % 3 == 1:
        return sampling.random_volume_form(grid, seed + 300)
    return sampling.flat_volume_form(grid)


def _triple(grid: Grid, seed: int, kmax: int, harmonic: bool):
    vol = _volume(grid, seed)
    g = sampling.random_compatible_metric(grid, seed, kmax=kmax, volume=vol)
    h = sampling.random_tangent(g, seed + 1, kmax=kmax)
    harm = sampling.random_harmonic(seed + 5) if harmonic else (0.0, 0.0)
    X = diffeo.div_free_from_stream(
        sampling.random_stream(grid, seed + 2, kmax=kmax), harm, vol
    )
    return g, X, h


# ---------------------------------------------------------------- suites


def suite_calculus(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("calculus")
    wide_kmax = min(config.kmax * 2, n // 4 - 1)
    for seed in config.seeds[:3]:
        t0 = time.perf_counter()
        f = fields.random_band_limited(grid, seed, wide_kmax, 0.6)
        d12 = fields.partial(fields.partial(f, 1), 2)
        d21 = fields.partial(fields.partial(f, 2), 1)
        res = float(np.max(np.abs(d12.values - d21.values))) / max(f.max_abs(), 1e-30)
        yield _record("calculus", "partial_commute", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        res = abs(fields.integrate(TwoForm(fields.partial(f, 1))))
        yield _record("calculus", "integrate_no_boundary", seed, n, config.kmax, res, 1e-12, t0)

        t0 = time.perf_counter()
        coef = np.fft.fft2(f.values) / n**2
        res = abs(fields.integrate(TwoForm(f * f)) - float(np.sum(np.abs(coef) ** 2)))
        yield _record("calculus", "parseval", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        a, b = (seed * 7 + 3) % n, (seed * 11 + 5) % n
        res = abs(fields.interpolate(f, (a / n, b / n)) - f.values[a, b])
        yield _record("calculus", "interpolate_lattice", seed, n, config.kmax, res, 1e-13, t0)

    t0 = time.perf_counter()
    f = field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
    ref = field_from_function(grid, lambda X, Y: 2 * np.pi * np.cos(2 * np.pi * X))
    res = float(np.max(np.abs(fields.partial(f, 1).values - ref.values)))
    yield _record("calculus", "partial_trig_exact", 0, n, config.kmax, res, 1e-12, t0)

    t0 = time.perf_counter()
    res = abs(fields.integrate(TwoForm(f)))
    yield _record("calculus", "integrate_mode_cancellation", 0, n, config.kmax, res, 1e-14, t0)


def suite_riemannian(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("riemannian")
    for seed in config.seeds[:10]:
        t0 = time.perf_counter()
        g = sampling.random_compatible_metric(grid, seed, kmax=config.kmax, volume=_volume(grid, seed))
        yield _record("riemannian", "compatibility", seed, n, config.kmax,
                      g.compatibility_residual(), 1e-10, t0)

        t0 = time.perf_counter()
        res = riemann.metricity_residual(g) / max(float(np.max(np.abs(g.stack()))), 1e-30)
        yield _record("riemannian", "metricity", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        yield _record("riemannian", "ricci_relation", seed, n, config.kmax,
                      riemann.ricci_relation_residual(g), tol, t0)

        t0 = time.perf_counter()
        s = riemann.scalar_curvature(g)
        f = g.volume.density.values
        gb = abs(np.mean(s.values * f)) / max(float(np.mean(np.abs(s.values) * f)), 1e-30)
        yield _record("riemannian", "gauss_bonnet", seed, n, config.kmax, gb, tol, t0)

        t0 = time.perf_counter()
        h = sampling.random_tangent(g, seed + 1, kmax=config.kmax)
        lin = riemann.linearized_scalar_curvature(g, h.h)
        divdiv = riemann.divergence_vector(
            riemann.covariant_divergence(riemann.raise_sym2(h.h, g), g), g
        )
        res = float(np.max(np.abs(lin.values - divdiv.values)))
        yield _record("riemannian", "linearized_s_tracefree_reduction", seed, n,
                      config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        eps = 1e-4
        def s_at(t):
            return riemann.scalar_curvature(symplectic.metric_path(g, h, t)).values
        d1 = (s_at(eps) - s_at(-eps)) / (2 * eps)
        d2 = (s_at(eps / 2) - s_at(-eps / 2)) / eps
        fd = (4.0 * d2 - d1) / 3.0
        res = float(np.max(np.abs(lin.values - fd)) / max(np.max(np.abs(fd)), 1e-30))
        yield _record("riemannian", "linearized_s_fd", seed, n, config.kmax, res, 1e-6, t0)

        t0 = time.perf_counter()
        X = diffeo.div_free_from_stream(
            sampling.random_stream(grid, seed + 2, kmax=config.kmax), (0.0, 0.0), g.volume
        )
        lie_c = riemann.metric_lie_derivative(X.vector, g)
        lie_n = riemann.metric_lie_derivative_nabla(X.vector, g)
        res = float(np.max(np.abs(lie_c.stack() - lie_n.stack())))
        yield _record("riemannian", "lie_derivative_formula", seed, n, config.kmax, res, 1e-10, t0)

        t0 = time.perf_counter()
        I = riemann.complex_structure(g).stack()
        i2 = np.einsum("ikab,kjab->ijab", I, I)
        i2[0, 0] += 1.0
        i2[1, 1] += 1.0
        res = float(np.max(np.abs(i2)))
        yield _record("riemannian", "complex_structure_square", seed, n, config.kmax, res, 1e-11, t0)

        t0 = time.perf_counter()
        gi = np.einsum("kiab,ljab,klab->ijab", I, I, g.stack())
        res = float(np.max(np.abs(gi - g.stack())))
        yield _record("riemannian", "complex_structure_orthogonal", seed, n, config.kmax, res, 1e-11, t0)

    t0 = time.perf_counter()
    g = sampling.random_compatible_metric(grid, config.seeds[0], kmax=config.kmax)
    raw = fields.SymTensor2(g.g11, g.g12, g.g22)
    again = riemann.project_compatible(raw, g.volume)
    res = float(np.max(np.abs(again.stack() - g.stack())))
    yield _record("riemannian", "projection_idempotent", config.seeds[0], n, config.kmax, res, 1e-13, t0)


def suite_symplectic(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    for seed in config.seeds[:10]:
        t0 = time.perf_counter()
        vol = _volume(grid, seed)
        g = sampling.random_compatible_metric(grid, seed, kmax=config.kmax, volume=vol)
        h1 = sampling.random_tangent(g, seed + 1, kmax=config.kmax)
        h2 = sampling.random_tangent(g, seed + 2, kmax=config.kmax)
        scale = max(l2_norm_sym2(h1.h, g) ** 2, 1e-30)
        res = abs(symplectic.omega(g, h1, h1)) / scale
        yield _record("symplectic", "antisymmetry", seed, n, config.kmax, res, 1e-12, t0)

        t0 = time.perf_counter()
        a, b = 0.7, -1.3
        lin = symplectic.omega(g, a * h1 + b * h2, h2)
        res = abs(lin - a * symplectic.omega(g, h1, h2) - b * symplectic.omega(g, h2, h2))
        res /= max(abs(lin), 1.0)
        yield _record("symplectic", "bilinearity", seed, n, config.kmax, res, 1e-12, t0)

        t0 = time.perf_counter()
        eps = 1e-4
        gp = symplectic.metric_path(g, h1, eps)
        gm = symplectic.metric_path(g, h1, -eps)
        vel = (gp.stack() - gm.stack()) / (2 * eps)
        res = float(np.max(np.abs(vel - h1.h.stack())) / max(h1.h.max_abs(), 1e-30))
        yield _record("symplectic", "path_velocity", seed, n, config.kmax, res, 1e-8, t0)

        t0 = time.perf_counter()
        res = max(
            symplectic.metric_path(g, h1, t).compatibility_residual()
            for t in (0.1, -0.1, 0.3, -0.3)
        )
        yield _record("symplectic", "path_compatibility", seed, n, config.kmax, res, 1e-11, t0)

        t0 = time.perf_counter()
        partner, val = symplectic.nondegeneracy_witness(g, h1)
        half_norm = 0.5 * l2_norm_sym2(h1.h, g) ** 2
        res = abs(val - half_norm) / half_norm if val > 0 else float("inf")
        yield _record("symplectic", "witness_positive", seed, n, config.kmax, res, 1e-10, t0)

    t0 = time.perf_counter()
    g0 = riemann.flat_metric(grid)
    h1 = sampling.random_tangent(g0, config.seeds[0], kmax=config.kmax)
    h2 = sampling.random_tangent(g0, config.seeds[0] + 1, kmax=config.kmax)
    h3 = sampling.random_tangent(g0, config.seeds[0] + 2, kmax=config.kmax)
    g = sampling.random_compatible_metric(grid, config.seeds[0] + 3, kmax=config.kmax)
    hr1 = sampling.random_tangent(g, config.seeds[0] + 4, kmax=config.kmax)
    hr2 = sampling.random_tangent(g, config.seeds[0] + 5, kmax=config.kmax)
    hr3 = sampling.random_tangent(g, config.seeds[0] + 6, kmax=config.kmax)
    d1 = abs(symplectic.closedness_defect(g, hr1, hr2, hr3, 1e-3))
    d2 = abs(symplectic.closedness_defect(g, hr1, hr2, hr3, 5e-4))
    if d1 <= 1e-10 and d2 <= 1e-10:
        res = 0.0  # truncation below the roundoff floor at both steps
    else:
        ratio = d1 / max(d2, 1e-300)
        res = 0.0 if 2.5 <= ratio <= 6.0 else ratio
    yield _record("symplectic", "closedness_order", config.seeds[0], n, config.kmax,
                  res, 1e-6, t0, note=f"defects {d1:.2e}, {d2:.2e}")

    t0 = time.perf_counter()
    def non_closed(gp, a, b):
        return float(np.mean(gp.g11.values**2)) * symplectic.omega(gp, a, b)
    bad = abs(symplectic.closedness_defect(g, hr1, hr2, hr3, 1e-3, non_closed))
    yield _record("symplectic", "closedness_sensitivity", config.seeds[0], n, config.kmax,
                  1e-3 / max(bad, 1e-300), 1.0, t0,
                  note="residual is threshold/defect of a non-closed comparison form")

    t0 = time.perf_counter()
    d_flat = abs(symplectic.closedness_defect(g0, h1, h2, h3, 1e-3))
    yield _record("symplectic", "closedness_flat", config.seeds[0], n, config.kmax, d_flat, 1e-6, t0)


def _asymptotic_order(errs) -> float:
    """Convergence order from errors on halved scales.

    The pairwise estimate log2(e_k / e_{k+1}) converges to the true order
    with an O(scale^2) correction, so extrapolating the last two estimates
    removes the pre-asymptotic bias.
    """
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    if len(orders) == 1:
        return orders[0]
    return 2.0 * orders[-1] - orders[-2]


def suite_lemma1(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("lemma1")
    for idx, seed in enumerate(config.seeds[:20]):
        t0 = time.perf_counter()
        harmonic = idx >= len(config.seeds[:20]) * 7 // 10
        g, X, h = _triple(grid, seed, config.kmax, harmonic)
        scale = max(l2_norm_vector(X.vector, g) * l2_norm_sym2(h.h, g), 1e-30)
        lhs = symplectic.omega(g, diffeo.fundamental_vector(X, g), h)
        rhs = diffeo.lemma1_rhs(g, X, h)
        yield _record("lemma1", "lemma1_equality", seed, n, config.kmax,
                      abs(lhs - rhs) / scale, tol, t0)

        t0 = time.perf_counter()
        yield _record("lemma1", "mu_h_symmetry", seed, n, config.kmax,
                      diffeo.skew_defect_mu_h(g, h) / max(h.h.max_abs(), 1e-30), 1e-11, t0)

        t0 = time.perf_counter()
        yield _record("lemma1", "integration_by_parts", seed, n, config.kmax,
                      diffeo.integration_by_parts_residual(g, X, h) / scale, 1e-9, t0)

        t0 = time.perf_counter()
        fv = diffeo.fundamental_vector(X, g)
        yield _record("lemma1", "fundamental_trace", seed, n, config.kmax,
                      riemann.trace_sym2(fv.h, g).max_abs(), 1e-10, t0)


def suite_lemma2(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("lemma2")
    for seed in config.seeds[:10]:
        vol = _volume(grid, seed)
        g = sampling.random_compatible_metric(grid, seed, kmax=config.kmax, volume=vol)
        h = sampling.random_tangent(g, seed + 1, kmax=config.kmax)

        t0 = time.perf_counter()
        res = bundles.dalpha_defect(g, h).max_abs() / max(h.h.max_abs(), 1e-30)
        yield _record("lemma2", "dalpha_identity", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        y = fields.VectorField(
            fields.random_band_limited(grid, seed + 7, config.kmax, 0.5),
            fields.random_band_limited(grid, seed + 8, config.kmax, 0.5),
        )
        scale = max(y.x1.max_abs(), y.x2.max_abs(), 1e-30)
        res = bundles.divergence_identity_defect(g, y).c12.max_abs() / scale
        yield _record("lemma2", "divergence_identity", seed, n, config.kmax, res, 1e-9, t0)

    for seed in config.seeds[:3]:
        t0 = time.perf_counter()
        vol = _volume(grid, seed)
        g = sampling.random_compatible_metric(grid, seed, kmax=config.kmax, volume=vol)
        s = riemann.scalar_curvature(g)
        half_s_mu = fields.ScalarField(grid, 0.5 * s.values * vol.density.values)
        center, side = (0.37, 0.52), 0.4
        theta = bundles.frame_transport(g, bundles.Loop.square(center, side))
        ref = fields.region_integral(
            half_s_mu,
            (center[0] - side / 2, center[0] + side / 2,
             center[1] - side / 2, center[1] + side / 2),
            order=40,
        )
        res = abs(theta - ref) / max(abs(ref), 1e-30)
        yield _record("lemma2", "stokes_transport", seed, n, config.kmax, res, 1e-5, t0)

        t0 = time.perf_counter()
        h = sampling.random_tangent(g, seed + 1, kmax=config.kmax)
        fd, line = bundles.holonomy_derivative_check(
            g, h, bundles.Loop.square((0.35, 0.55), 0.3), 1e-4
        )
        res = abs(fd - line) / max(abs(line), 1e-30)
        yield _record("lemma2", "holonomy_log_derivative", seed, n, config.kmax, res, 1e-4, t0)

    t0 = time.perf_counter()
    g = sampling.random_compatible_metric(grid, config.seeds[0], kmax=config.kmax,
                                          volume=_volume(grid, config.seeds[0]))
    s = riemann.scalar_curvature(g)
    p = (0.3, 0.6)
    kp = 0.5 * fields.interpolate(s, p)
    sides = (0.1, 0.05, 0.025, 0.0125)
    errs = []
    for side in sides:
        theta = bundles.frame_transport(g, bundles.Loop.square(p, side))
        rect = (p[0] - side / 2, p[0] + side / 2, p[1] - side / 2, p[1] + side / 2)
        mu_area = fields.region_integral(g.volume.density, rect, order=24)
        errs.append(abs(theta / mu_area - kp))
    order = _asymptotic_order(errs)
    yield _record("lemma2", "shrinking_loop_order", config.seeds[0], n, config.kmax,
                  max(0.0, 2.0 - order), 1e-6, t0,
                  note=f"asymptotic order {order:.2f}, errors {['%.2e' % e for e in errs]}")


def suite_momentum(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("momentum")
    seeds = config.seeds
    cut = len(seeds) * 7 // 10
    for idx, seed in enumerate(seeds):
        t0 = time.perf_counter()
        g, X, h = _triple(grid, seed, config.kmax, harmonic=idx >= cut)
        scale = max(l2_norm_vector(X.vector, g) * l2_norm_sym2(h.h, g), 1e-30)
        res = abs(bundles.momentum_residual(g, X, h)) / scale
        note = "harmonic" if idx >= cut else ""
        yield _record("momentum", "momentum_residual", seed, n, config.kmax, res, tol, t0, note)

    for seed in seeds[:5]:
        t0 = time.perf_counter()
        vol = _volume(grid, seed)
        X = diffeo.div_free_from_stream(
            sampling.random_stream(grid, seed, kmax=config.kmax),
            sampling.random_harmonic(seed + 1), vol,
        )
        phi = fields.random_band_limited(grid, seed + 7, config.kmax, 0.5)
        dphi = OneForm.from_stack(grid, fields._derivatives(phi.values))
        yield _record("momentum", "kappa_gauge_invariance", seed, n, config.kmax,
                      abs(diffeo.pairing_kappa(X, dphi)), 1e-11, t0)

    t0 = time.perf_counter()
    volf = sampling.flat_volume_form(grid)
    x_harm = diffeo.div_free_from_stream(constant_field(grid, 0.0), (1.0, 0.0), volf)
    c = 0.735
    alpha = OneForm(constant_field(grid, 0.0), constant_field(grid, c))
    res = abs(diffeo.pairing_kappa(x_harm, alpha) + c)
    yield _record("momentum", "kappa_harmonic_value", 0, n, config.kmax, res, 1e-12, t0)

    t0 = time.perf_counter()
    min_kappa = _kappa_probe_min(grid, volf)
    yield _record("momentum", "kappa_nondegeneracy_probe", 0, n, config.kmax,
                  1e-3 / max(min_kappa, 1e-300), 1.0, t0,
                  note=f"min |kappa| over non-exact basis classes {min_kappa:.3e}")


def _kappa_probe_min(grid: Grid, vol, k: int = 2) -> float:
    """Smallest |kappa| over matched generators and non-exact basis 1-forms.

    Basis forms with zero class (exact ones: no harmonic mean, no curl) pair
    to zero with every divergence-free field by gauge invariance and are
    skipped; for the rest the matching X comes from the stream (d alpha) and
    harmonic means of alpha.
    """
    min_val = math.inf
    for comp in range(2):
        for p in range(0, k + 1):
            for q in range(-k, k + 1) if p > 0 else range(0, k + 1):
                for trig in (np.cos, np.sin):
                    if trig is np.sin and (p, q) == (0, 0):
                        continue
                    b = field_from_function(
                        grid, lambda X, Y, t=trig: t(2 * np.pi * (p * X + q * Y))
                    )
                    zero = constant_field(grid, 0.0)
                    alpha = OneForm(b, zero) if comp == 0 else OneForm(zero, b)
                    a1, a2 = alpha.stack()
                    curl = fields._derivatives(np.stack([a2, -a1]), summed=True)
                    m1, m2 = alpha.a1.mean(), alpha.a2.mean()
                    if np.max(np.abs(curl)) < 1e-12 and abs(m1) < 1e-12 and abs(m2) < 1e-12:
                        continue  # exact class: kappa vanishes identically
                    psi = fields.ScalarField(grid, curl - float(np.mean(curl)))
                    x = diffeo.div_free_from_stream(psi, (-m2, m1), vol)
                    min_val = min(min_val, abs(diffeo.pairing_kappa(x, alpha)))
    return min_val


def suite_kobayashi(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("kobayashi")
    volf = sampling.flat_volume_form(grid)

    def angle_gap(x, y):
        return abs((x - y + math.pi) % (2 * math.pi) - math.pi)

    def class_gap(c1, c2):
        return max(
            float(np.max(np.abs(c1.curvature.c12.values - c2.curvature.c12.values))),
            angle_gap(c1.holA, c2.holA),
            angle_gap(c1.holB, c2.holB),
            float(abs(c1.chern - c2.chern)),
        )

    for seed in config.seeds[:5]:
        rng = np.random.default_rng([seed, 77])
        cls = [
            bundles.constant_curvature_class(
                volf, int(rng.integers(-3, 4)), float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(3)
        ]
        e = bundles.identity_class(grid)

        t0 = time.perf_counter()
        res = class_gap(bundles.kobayashi_add(cls[0], e), cls[0])
        yield _record("kobayashi", "identity_element", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        res = class_gap(bundles.kobayashi_add(cls[0], bundles.kobayashi_neg(cls[0])), e)
        yield _record("kobayashi", "inverse_element", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        left = bundles.kobayashi_add(bundles.kobayashi_add(cls[0], cls[1]), cls[2])
        right = bundles.kobayashi_add(cls[0], bundles.kobayashi_add(cls[1], cls[2]))
        yield _record("kobayashi", "associativity", seed, n, config.kmax,
                      class_gap(left, right), tol, t0)

        t0 = time.perf_counter()
        res = class_gap(bundles.kobayashi_add(cls[0], cls[1]), bundles.kobayashi_add(cls[1], cls[0]))
        yield _record("kobayashi", "commutativity", seed, n, config.kmax, res, tol, t0)

        t0 = time.perf_counter()
        s = bundles.kobayashi_add(cls[0], cls[1])
        res = abs(fields.integrate(s.curvature) - 2 * math.pi * s.chern)
        yield _record("kobayashi", "quantization", seed, n, config.kmax, res, 1e-8, t0)


def suite_flow_invariance(config: SuiteConfig):
    n = config.n_desk
    grid = Grid(n)
    tol = config.tol("flow-invariance")
    for seed in config.seeds[:3]:
        vol = _volume(grid, seed)
        X = diffeo.div_free_from_stream(
            sampling.random_stream(grid, seed, kmax=config.kmax),
            sampling.random_harmonic(seed + 1), vol,
        )
        t0 = time.perf_counter()
        phi = diffeo.flow(X, 0.1, 5e-3)
        yield _record("flow-invariance", "flow_volume", seed, n, config.kmax,
                      phi.volume_defect(), 1e-6, t0)

        t0 = time.perf_counter()
        yield _record("flow-invariance", "flow_roundtrip", seed, n, config.kmax,
                      phi.roundtrip_residual(), 1e-7, t0)

        t0 = time.perf_counter()
        g = sampling.random_compatible_metric(grid, seed + 20, kmax=config.kmax, volume=vol)
        h1 = sampling.random_tangent(g, seed + 21, kmax=config.kmax)
        h2 = sampling.random_tangent(g, seed + 22, kmax=config.kmax)
        gp = diffeo.pushforward_metric(phi, g)
        yield _record("flow-invariance", "pushforward_compatibility", seed, n, config.kmax,
                      gp.compatibility_residual(), 1e-5, t0)

        t0 = time.perf_counter()
        hp1 = diffeo.pushforward_tangent(phi, h1, gp)
        hp2 = diffeo.pushforward_tangent(phi, h2, gp)
        om0 = symplectic.omega(g, h1, h2)
        om1 = symplectic.omega(gp, hp1, hp2)
        yield _record("flow-invariance", "omega_invariance", seed, n, config.kmax,
                      abs(om1 - om0) / max(abs(om0), 1e-30), tol, t0)

    t0 = time.perf_counter()
    volf = sampling.flat_volume_form(grid)
    xc = diffeo.div_free_from_stream(constant_field(grid, 0.0), (0.0, 1.0), volf)
    phi = diffeo.flow(xc, 0.25, 5e-3)
    mesh = np.stack(grid.meshes())
    target = mesh + np.array([0.25, 0.0])[:, None, None]
    res = float(np.max(np.abs(phi.forward - target)))
    yield _record("flow-invariance", "translation_exact", 0, n, config.kmax, res, 1e-12, t0)


# Roundoff level of a normalised convergence residual (1e-12 to 5e-12 for
# d(alpha) at N=128).  A ratio res/prev is noise when res is at this level and
# prev is too small for a drop by the ratio tolerance to land above it.
ROUNDOFF_FLOOR = 1e-11


def _at_floor(res: float, prev: float, tol_ratio: float) -> bool:
    return res <= ROUNDOFF_FLOOR and prev <= ROUNDOFF_FLOOR / tol_ratio


def suite_convergence(config: SuiteConfig):
    tol_ratio = config.tol("convergence")
    sizes = sorted(config.grid_sizes)
    dalpha_by_n = {}
    for n in sizes:
        grid = Grid(n)
        for seed in config.seeds[:3]:
            t0 = time.perf_counter()
            vol = _volume(grid, seed)
            g = sampling.random_compatible_metric(grid, seed, kmax=config.kmax, volume=vol)
            h = sampling.random_tangent(g, seed + 1, kmax=config.kmax)
            res = bundles.dalpha_defect(g, h).max_abs() / max(h.h.max_abs(), 1e-30)
            dalpha_by_n.setdefault(seed, {})[n] = res
            yield _record("convergence", "dalpha_residual", seed, n, config.kmax,
                          res, 1.0, t0, note="informational; asserted via dalpha_ratio")

            t0 = time.perf_counter()
            X = diffeo.div_free_from_stream(
                sampling.random_stream(grid, seed + 2, kmax=config.kmax), (0.0, 0.0), vol
            )
            fv = diffeo.fundamental_vector(X, g, trace_tol=1e-2)
            lhs = symplectic.omega(g, fv, h)
            rhs = diffeo.lemma1_rhs(g, X, h)
            scale = max(l2_norm_vector(X.vector, g) * l2_norm_sym2(h.h, g), 1e-30)
            yield _record("convergence", "lemma1_residual", seed, n, config.kmax,
                          abs(lhs - rhs) / scale, 1.0, t0,
                          note="informational; quadrature-floor dominated")

    if len(sizes) >= 2:
        lo, hi = sizes[0], sizes[-1]
        for seed in config.seeds[:3]:
            t0 = time.perf_counter()
            r_lo, r_hi = dalpha_by_n[seed][lo], dalpha_by_n[seed][hi]
            note = f"N={lo} -> N={hi}"
            if _at_floor(r_hi, r_lo, tol_ratio):
                res = 0.0  # resolved at both sizes; the ratio would be noise
                note += f"; residuals {r_lo:.2e}, {r_hi:.2e} at floor {ROUNDOFF_FLOOR:.0e}"
            else:
                res = r_hi / max(r_lo, 1e-300)
            yield _record("convergence", "dalpha_ratio", seed, hi, config.kmax,
                          res, tol_ratio, t0, note=note)


SUITE_RUNNERS = {
    "calculus": _guarded(suite_calculus),
    "riemannian": _guarded(suite_riemannian),
    "symplectic": _guarded(suite_symplectic),
    "lemma1": _guarded(suite_lemma1),
    "lemma2": _guarded(suite_lemma2),
    "momentum": _guarded(suite_momentum),
    "kobayashi": _guarded(suite_kobayashi),
    "flow-invariance": _guarded(suite_flow_invariance),
    "convergence": _guarded(suite_convergence),
}

# check name -> owning suite, for single-record reruns
SUITE_CHECKS = {
    "calculus": ["partial_commute", "integrate_no_boundary", "parseval",
                 "interpolate_lattice", "partial_trig_exact", "integrate_mode_cancellation"],
    "riemannian": ["compatibility", "metricity", "ricci_relation", "gauss_bonnet",
                   "linearized_s_tracefree_reduction", "linearized_s_fd",
                   "lie_derivative_formula", "complex_structure_square",
                   "complex_structure_orthogonal", "projection_idempotent"],
    "symplectic": ["antisymmetry", "bilinearity", "path_velocity", "path_compatibility",
                   "witness_positive", "closedness_order", "closedness_sensitivity",
                   "closedness_flat"],
    "lemma1": ["lemma1_equality", "mu_h_symmetry", "integration_by_parts", "fundamental_trace"],
    "lemma2": ["dalpha_identity", "divergence_identity", "stokes_transport",
               "holonomy_log_derivative", "shrinking_loop_order"],
    "momentum": ["momentum_residual", "kappa_gauge_invariance", "kappa_harmonic_value",
                 "kappa_nondegeneracy_probe"],
    "kobayashi": ["identity_element", "inverse_element", "associativity",
                  "commutativity", "quantization"],
    "flow-invariance": ["flow_volume", "flow_roundtrip", "pushforward_compatibility",
                        "omega_invariance", "translation_exact"],
    "convergence": ["dalpha_residual", "lemma1_residual", "dalpha_ratio"],
}


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list
    wall_time: float
    warnings: list

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        records = sorted(self.records, key=lambda r: (r.suite, r.name, r.seed, r.n))
        return {
            "schema": 1,
            "version": _version,
            "config": self.config.echo(),
            "records": [asdict(r) for r in records],
            "summary": {
                "total": len(records),
                "passed": sum(r.passed for r in records),
                "failed": sum(not r.passed for r in records),
                "overall_pass": self.overall_pass,
                "wall_time": self.wall_time,
            },
            "warnings": list(self.warnings),
        }


def run_suites(config: SuiteConfig, record_filter: tuple[str, int, int] | None = None) -> SuiteReport:
    """Execute the configured suites; optionally a single (name, seed, N) record."""
    t0 = time.perf_counter()
    warnings = []
    if record_filter is not None:
        name, seed, n = record_filter
        owner = next((s for s, names in SUITE_CHECKS.items() if name in names), None)
        if owner is None:
            raise ValueError(f"unknown record name '{name}'")
        narrowed = SuiteConfig(
            grid_sizes=tuple(sorted({min(config.grid_sizes), n})),
            seeds=(seed,),
            kmax=config.kmax,
            suites=(owner,),
            tolerances=config.tolerances,
        )
        records = SUITE_RUNNERS[owner](narrowed)
        records = [r for r in records if r.name == name and r.seed == seed and r.n == n]
        if not records:
            raise ValueError(
                f"record {name}:{seed}:{n} produced no results; seed or N is "
                f"outside the '{owner}' suite's sweep for this configuration"
            )
    else:
        records = []
        for suite in config.suites:
            records.extend(SUITE_RUNNERS[suite](config))
    return SuiteReport(config, records, time.perf_counter() - t0, warnings)


def convergence_table(report: SuiteReport) -> tuple[str, str | None]:
    """CSV text with one row per (check, N): residual, ratio to previous N, flag.

    The flag uses the dalpha_ratio gate's roundoff floor and ratio tolerance.

    Returns (csv_text, warning) where warning is set when the report holds no
    convergence data (the table is then just the header row).
    """
    rows = ["check,N,residual,ratio,flag"]
    recs = [r for r in report.records if r.suite == "convergence" and r.name != "dalpha_ratio"]
    if not recs:
        return rows[0] + "\n", "no convergence records in report; table is empty"
    tol_ratio = report.config.tol("convergence")
    by_check: dict = {}
    for r in recs:
        by_check.setdefault(r.name, {}).setdefault(r.n, []).append(r.residual)
    for check in sorted(by_check):
        prev = None
        for n in sorted(by_check[check]):
            res = float(np.max(by_check[check][n]))
            if prev is None:
                ratio, flag = "", "first"
            else:
                ratio_val = res / max(prev, 1e-300)
                ratio = f"{ratio_val:.6e}"
                if _at_floor(res, prev, tol_ratio):
                    flag = "floor"
                elif ratio_val <= tol_ratio:
                    flag = "spectral"
                elif ratio_val < 1.0:
                    flag = "decaying"
                else:
                    flag = "flat"
            rows.append(f"{check},{n},{res:.6e},{ratio},{flag}")
            prev = res
    return "\n".join(rows) + "\n", None


def emit_convergence_table(report: SuiteReport, path) -> str | None:
    """Write the convergence CSV next to a report; returns the warning, if any."""
    csv_text, warning = convergence_table(report)
    Path(path).write_text(csv_text)
    return warning
