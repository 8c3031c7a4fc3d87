"""Named verification suites and machine-readable reports.

Every check is declared once, as a row (suite, name, tolerance, sweep, run)
of the table CHECKS, by a `check` method of its suite's class: the method
name is the record name, and its `@check` states the sweep and the
tolerance.  Tolerances are fixed here; no config changes them.  `sweep`
lists a check's (seed, N) points before anything runs; `run` returns the
residual, or (residual, note).  The runner, `--record` and SUITE_NAMES all
read this table.  A point is the suite's class at one (seed, N), its seeded
inputs cached properties dropped with it; points share no state.  An
exception fails only the record that raised it; a record reruns alone to the
same result.  A config is checked where it is built, from Python or JSON.

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
from dataclasses import dataclass, asdict
from functools import cached_property
from typing import Callable

import numpy as np

from . import __version__ as _version
from . import bundles, diffeo, fields, riemann, sampling, symplectic
from .fields import Grid, SymTensor2, constant_field
from .riemann import l2_norm_sym2, l2_norm_vector


@dataclass(frozen=True)
class Check:
    """One declared check; its records are `run` at every point of `sweep`."""
    suite: str
    name: str
    tolerance: float
    sweep: Callable[[SuiteConfig], list[tuple[int, int]]]
    run: Callable[[Point], float | tuple[float, str]]


CHECKS: list[Check] = []
SUITES: dict[str, type[Point]] = {}


def check(sweep, tolerance: float):
    """Declare the decorated method of a suite class as one of its checks,
    run at every point of `sweep` and passed when its residual is <= `tolerance`."""
    def declare(run):
        run.declared = (tolerance, sweep)
        return run

    return declare


class Point:
    """The seeded inputs of one (seed, N) of a suite's sweep, built when first read."""

    def __init_subclass__(cls, suite: str):
        SUITES[suite] = cls
        for name, run in vars(cls).items():
            if hasattr(run, "declared"):
                CHECKS.append(Check(suite, name, *run.declared, run))

    def __init__(self, config: SuiteConfig, seed: int, n: int):
        self.config, self.seed, self.n = config, seed, n
        self.kmax = config.kmax
        self.grid = Grid(n)

    @cached_property
    def flat_vol(self):
        return sampling.flat_volume_form(self.grid)

    @cached_property
    def vol(self):
        """Flat and random volume densities alternate across seeds."""
        if self.seed % 3 == 1:
            return sampling.random_volume_form(self.grid, self.seed + 300, kmax=self.kmax)
        return self.flat_vol

    @cached_property
    def g(self):
        return sampling.random_compatible_metric(self.grid, self.seed, kmax=self.kmax, volume=self.vol)

    @cached_property
    def h(self):
        return sampling.random_tangent(self.g, self.seed + 1, kmax=self.kmax)

    def _div_free(self, stream_seed, harmonic):
        stream = sampling.random_stream(self.grid, stream_seed, kmax=self.kmax)
        return diffeo.div_free_from_stream(stream, harmonic, self.vol)

    @cached_property
    def X(self):
        """The divergence-free field of the seed's stream, without a harmonic part."""
        return self._div_free(self.seed + 2, (0.0, 0.0))

    @cached_property
    def X_harmonic(self):
        """X plus the seed's harmonic part."""
        return self._div_free(self.seed + 2, sampling.random_harmonic(self.seed + 5))

    def in_harmonic_tail(self, seeds) -> bool:
        """Whether the seed is in the last 30% of seeds, where X is X_harmonic."""
        return seeds.index(self.seed) >= len(seeds) * 7 // 10

    def scale(self, X) -> float:
        """|X| |h|, the normaliser of the Lemma 1 and momentum residuals."""
        return max(l2_norm_vector(X.vector, self.g) * l2_norm_sym2(self.h.h, self.g), 1e-30)

    def lemma1_defect(self, X) -> float:
        """|Omega_g(X.g, h) - lemma1_rhs| / (|X| |h|), X.g read past the trace gate."""
        fv = diffeo.fundamental_vector(X, self.g, PAST_TRACE_GATE)
        lhs = symplectic.omega(self.g, fv, self.h)
        return abs(lhs - diffeo.lemma1_rhs(self.g, X, self.h)) / self.scale(X)

    @cached_property
    def flow_field(self):
        """The field that flow-invariance integrates: another stream and harmonic part."""
        return self._div_free(self.seed, sampling.random_harmonic(self.seed + 1))

    @cached_property
    def dalpha(self) -> float:
        """The d alpha_h defect relative to max |h|."""
        return bundles.dalpha_defect(self.g, self.h).max_abs() / max(self.h.h.max_abs(), 1e-30)


def desk(count: int | None = None):
    """Sweep: the first `count` configured seeds (all when None) at the desk size."""
    return lambda config: [(seed, config.n_desk) for seed in config.seeds[:count]]


def seed_zero(config):
    """Sweep: seed 0 at the desk size, for checks whose inputs take no seed."""
    return [(0, config.n_desk)]


def every_size(config):
    """Sweep: the first three seeds at every configured size."""
    return [(seed, n) for n in sorted(config.grid_sizes) for seed in config.seeds[:3]]


def finest_of_several(config):
    """Sweep: the first three seeds at the largest size, when there are several."""
    return desk(3)(config) if len(config.grid_sizes) > 1 else []


class Calculus(Point, suite="calculus"):
    @cached_property
    def f(self):
        """A band-limited field twice as wide as kmax."""
        return fields.random_band_limited(self.grid, self.seed, min(self.kmax * 2, self.n // 4 - 1), 0.6)

    @check(desk(3), tolerance=1e-11)
    def partial_commute(self):
        d12 = fields.partial(fields.partial(self.f, 1), 2)
        d21 = fields.partial(fields.partial(self.f, 2), 1)
        return float(np.max(np.abs(d12.values - d21.values))) / max(self.f.max_abs(), 1e-30)

    @check(desk(3), tolerance=1e-12)
    def integrate_no_boundary(self):
        return abs(fields.integrate(fields.partial(self.f, 1).values))

    @check(desk(3), tolerance=1e-11)
    def parseval(self):
        coef = np.fft.fft2(self.f.values) / self.n**2
        return abs(fields.integrate(self.f.values * self.f.values) - float(np.sum(np.abs(coef) ** 2)))

    @check(desk(3), tolerance=1e-13)
    def interpolate_lattice(self):
        n = self.n
        a, b = (self.seed * 7 + 3) % n, (self.seed * 11 + 5) % n
        return abs(fields.interpolate(self.f, (a / n, b / n)) - self.f.values[a, b])

    @check(seed_zero, tolerance=1e-12)
    def partial_trig_exact(self):
        X, _ = self.grid.meshes()
        sine = fields.ScalarField(self.grid, np.sin(2 * np.pi * X))
        return float(np.max(np.abs(fields.partial(sine, 1).values - 2 * np.pi * np.cos(2 * np.pi * X))))

    @check(seed_zero, tolerance=1e-14)
    def integrate_mode_cancellation(self):
        X, _ = self.grid.meshes()
        return abs(fields.integrate(np.sin(2 * np.pi * X)))


class Riemannian(Point, suite="riemannian"):
    @cached_property
    def lin(self):
        """The linearized scalar curvature of g along h."""
        return riemann.linearized_scalar_curvature(self.g, self.h.h)

    @cached_property
    def I(self):
        return riemann.complex_structure(self.g)

    @check(desk(10), tolerance=1e-10)
    def compatibility(self):
        return self.g.compatibility_residual()

    @check(desk(10), tolerance=1e-9)
    def metricity(self):
        return riemann.metricity_residual(self.g) / max(float(np.max(np.abs(self.g.stack()))), 1e-30)

    @check(desk(10), tolerance=1e-9)
    def ricci_relation(self):
        return riemann.ricci_relation_residual(self.g)

    @check(desk(10), tolerance=1e-9)
    def gauss_bonnet(self):
        s = riemann.scalar_curvature(self.g)
        f = self.g.volume.density.values
        return abs(np.mean(s.values * f)) / max(float(np.mean(np.abs(s.values) * f)), 1e-30)

    @check(desk(10), tolerance=1e-9)
    def linearized_s_tracefree_reduction(self):
        divdiv = riemann.double_divergence(self.h.h, self.g)
        return float(np.max(np.abs(self.lin.values - divdiv)))

    @check(desk(10), tolerance=1e-6)
    def linearized_s_fd(self):
        fd = symplectic.path_derivative(lambda gt: riemann.scalar_curvature(gt).values, self.g, self.h, 1e-4)
        return float(np.max(np.abs(self.lin.values - fd)) / max(np.max(np.abs(fd)), 1e-30))

    @check(desk(10), tolerance=1e-10)
    def lie_derivative_formula(self):
        lie_c = riemann.metric_lie_derivative(self.X.vector, self.g)
        lie_n = riemann.metric_lie_derivative_nabla(self.X.vector, self.g)
        return float(np.max(np.abs(lie_c.stack() - lie_n.stack())))

    @check(desk(10), tolerance=1e-11)
    def complex_structure_square(self):
        i2 = np.einsum("ikab,kjab->ijab", self.I, self.I)
        i2[0, 0] += 1.0
        i2[1, 1] += 1.0
        return float(np.max(np.abs(i2)))

    @check(desk(10), tolerance=1e-11)
    def complex_structure_orthogonal(self):
        gi = np.einsum("kiab,ljab,klab->ijab", self.I, self.I, self.g.stack())
        return float(np.max(np.abs(gi - self.g.stack())))

    @check(desk(1), tolerance=1e-13)
    def projection_idempotent(self):
        g = sampling.random_compatible_metric(self.grid, self.seed, kmax=self.kmax)
        again = riemann.project_compatible(g.stack(), g.volume)
        return float(np.max(np.abs(again.stack() - g.stack())))


class Symplectic(Point, suite="symplectic"):
    @cached_property
    def curved(self):
        """A metric on the flat density (seed + 3) and three tangents at it."""
        g = sampling.random_compatible_metric(self.grid, self.seed + 3, kmax=self.kmax)
        tangents = [sampling.random_tangent(g, self.seed + k, kmax=self.kmax) for k in (4, 5, 6)]
        return g, *tangents

    @check(desk(10), tolerance=1e-12)
    def antisymmetry(self):
        scale = max(l2_norm_sym2(self.h.h, self.g) ** 2, 1e-30)
        return abs(symplectic.omega(self.g, self.h, self.h)) / scale

    @check(desk(10), tolerance=1e-12)
    def bilinearity(self):
        g, h1 = self.g, self.h
        h2 = sampling.random_tangent(g, self.seed + 2, kmax=self.kmax)
        a, b = 0.7, -1.3
        combo = SymTensor2.from_stack(self.grid, a * h1.h.stack() + b * h2.h.stack())
        lin = symplectic.omega(g, symplectic.TangentVector(g, combo), h2)
        res = abs(lin - a * symplectic.omega(g, h1, h2) - b * symplectic.omega(g, h2, h2))
        return res / max(abs(lin), 1.0)

    @check(desk(10), tolerance=1e-8)
    def path_velocity(self):
        vel = symplectic.path_derivative(lambda gt: gt.stack(), self.g, self.h, 1e-4)
        return float(np.max(np.abs(vel - self.h.h.stack())) / max(self.h.h.max_abs(), 1e-30))

    @check(desk(10), tolerance=1e-11)
    def path_compatibility(self):
        return max(
            symplectic.metric_path(self.g, self.h, t).compatibility_residual()
            for t in (0.1, -0.1, 0.3, -0.3)
        )

    @check(desk(10), tolerance=1e-10)
    def witness_positive(self):
        partner, val = symplectic.nondegeneracy_witness(self.g, self.h)
        half_norm = 0.5 * l2_norm_sym2(self.h.h, self.g) ** 2
        return abs(val - half_norm) / half_norm if val > 0 else float("inf")

    @check(desk(1), tolerance=1e-6)
    def closedness_order(self):
        g, h1, h2, h3 = self.curved
        d1 = abs(symplectic.closedness_defect(g, h1, h2, h3, 1e-3))
        d2 = abs(symplectic.closedness_defect(g, h1, h2, h3, 5e-4))
        if d1 <= 1e-10 and d2 <= 1e-10:
            res = 0.0  # truncation below the roundoff floor at both steps
        else:
            ratio = d1 / max(d2, 1e-300)
            res = 0.0 if 2.5 <= ratio <= 6.0 else ratio
        return res, f"defects {d1:.2e}, {d2:.2e}"

    @check(desk(1), tolerance=1.0)
    def closedness_sensitivity(self):
        def non_closed(gp, a, b):
            return float(np.mean(gp.g11.values**2)) * symplectic.omega(gp, a, b)

        bad = abs(symplectic.closedness_defect(*self.curved, 1e-3, non_closed))
        return 1e-3 / max(bad, 1e-300), "residual is threshold/defect of a non-closed comparison form"

    @check(desk(1), tolerance=1e-6)
    def closedness_flat(self):
        g0 = riemann.flat_metric(self.grid)
        h1, h2, h3 = (sampling.random_tangent(g0, self.seed + k, kmax=self.kmax) for k in range(3))
        return abs(symplectic.closedness_defect(g0, h1, h2, h3, 1e-3))


def _asymptotic_order(errs) -> float:
    """Convergence order from errors on halved scales.

    The pairwise estimate log2(e_k / e_{k+1}) converges to the true order
    with an O(scale^2) correction, so extrapolating the last two estimates
    removes the pre-asymptotic bias.
    """
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return 2.0 * orders[-1] - orders[-2]


# The Lemma 1 and momentum identities read -L_X g past fundamental_vector's
# trace gate, so they give a residual at every N; fundamental_trace records
# that trace.
PAST_TRACE_GATE = math.inf


class Lemma1(Point, suite="lemma1"):
    SEEDS = 20  # every check sweeps the first SEEDS configured seeds

    @cached_property
    def field(self):
        """X, with its harmonic part in the last 30% of the first SEEDS seeds."""
        return self.X_harmonic if self.in_harmonic_tail(self.config.seeds[:self.SEEDS]) else self.X

    @check(desk(SEEDS), tolerance=1e-8)
    def lemma1_equality(self):
        return self.lemma1_defect(self.field)

    @check(desk(SEEDS), tolerance=1e-11)
    def mu_h_symmetry(self):
        return diffeo.skew_defect_mu_h(self.g, self.h) / max(self.h.h.max_abs(), 1e-30)

    @check(desk(SEEDS), tolerance=1e-9)
    def integration_by_parts(self):
        return diffeo.integration_by_parts_residual(self.g, self.field, self.h) / self.scale(self.field)

    @check(desk(SEEDS), tolerance=1e-10)
    def fundamental_trace(self):
        # |tr_g L_X g| without fundamental_vector's trace precondition: a residual at every N
        lie = riemann.metric_lie_derivative(self.field.vector, self.g).stack()
        return float(np.max(np.abs(riemann.trace_sym2(lie, self.g))))


class Lemma2(Point, suite="lemma2"):
    @check(desk(10), tolerance=1e-8)
    def dalpha_identity(self):
        return self.dalpha

    @check(desk(10), tolerance=1e-9)
    def divergence_identity(self):
        y = np.array([fields.random_band_limited(self.grid, self.seed + k, self.kmax, 0.5).values
                      for k in (7, 8)])
        scale = max(float(np.max(np.abs(y))), 1e-30)
        return float(np.max(np.abs(bundles.divergence_identity_defect(self.g, y)))) / scale

    @check(desk(3), tolerance=1e-5)
    def stokes_transport(self):
        s = riemann.scalar_curvature(self.g)
        half_s_mu = fields.ScalarField(self.grid, 0.5 * s.values * self.vol.coefficient())
        center, side = (0.37, 0.52), 0.4
        theta = bundles.frame_transport(self.g, bundles.Loop.square(center, side))
        rect = (center[0] - side / 2, center[0] + side / 2, center[1] - side / 2, center[1] + side / 2)
        ref = fields.region_integral(half_s_mu, rect, order=40)
        return abs(theta - ref) / max(abs(ref), 1e-30)

    @check(desk(3), tolerance=1e-4)
    def holonomy_log_derivative(self):
        fd, line = bundles.holonomy_derivative_check(
            self.g, self.h, bundles.Loop.square((0.35, 0.55), 0.3), 1e-4
        )
        return abs(fd - line) / max(abs(line), 1e-30)

    @check(desk(1), tolerance=1e-6)
    def shrinking_loop_order(self):
        p = (0.3, 0.6)
        kp = 0.5 * fields.interpolate(riemann.scalar_curvature(self.g), p)
        sides = (0.1, 0.05, 0.025, 0.0125)
        mu12 = fields.ScalarField(self.grid, self.g.volume.coefficient())
        errs = []
        for side in sides:
            theta = bundles.frame_transport(self.g, bundles.Loop.square(p, side))
            rect = (p[0] - side / 2, p[0] + side / 2, p[1] - side / 2, p[1] + side / 2)
            mu_area = fields.region_integral(mu12, rect, order=24)
            errs.append(abs(theta / mu_area - kp))
        order = _asymptotic_order(errs)
        note = f"asymptotic order {order:.2f}, errors {['%.2e' % e for e in errs]}"
        return max(0.0, 2.0 - order), note


class Momentum(Point, suite="momentum"):
    @check(desk(), tolerance=1e-8)
    def momentum_residual(self):
        harmonic = self.in_harmonic_tail(self.config.seeds)
        X = self.X_harmonic if harmonic else self.X
        res = abs(bundles.momentum_residual(self.g, X, self.h, PAST_TRACE_GATE)) / self.scale(X)
        return res, "harmonic" if harmonic else ""

    @check(desk(5), tolerance=1e-11)
    def kappa_gauge_invariance(self):
        phi = fields.random_band_limited(self.grid, self.seed + 7, self.kmax, 0.5)
        return abs(diffeo.pairing_kappa(self.flow_field, fields._derivatives(phi.values)))

    @check(seed_zero, tolerance=1e-12)
    def kappa_harmonic_value(self):
        x_harm = diffeo.div_free_from_stream(constant_field(self.grid, 0.0), (1.0, 0.0), self.flat_vol)
        c = 0.735
        alpha = np.zeros((2, self.n, self.n))
        alpha[1] = c
        ref = -c / self.flat_vol.coefficient()[0, 0]  # -c f / mu_12 with f = 1
        return abs(diffeo.pairing_kappa(x_harm, alpha) - ref)

    @check(seed_zero, tolerance=1.0)
    def kappa_nondegeneracy_probe(self):
        min_kappa = _kappa_probe_min(self.grid, self.flat_vol)
        note = f"min |kappa| over non-exact basis classes {min_kappa:.3e}"
        return 1e-3 / max(min_kappa, 1e-300), note


def _kappa_probe_min(grid: Grid, vol) -> float:
    """Smallest |kappa| over matched generators and non-exact basis 1-forms, |p|, |q| <= 2.

    Basis forms with zero class (exact ones: no harmonic mean, no curl) pair
    to zero with every divergence-free field by gauge invariance and are
    skipped; for the rest the matching X comes from the stream (d alpha) and
    harmonic means of alpha.
    """
    X, Y = grid.meshes()
    min_val = math.inf
    for comp in range(2):
        for p in range(0, 3):
            for q in range(-2, 3) if p > 0 else range(0, 3):
                for trig in (np.cos, np.sin):
                    if trig is np.sin and (p, q) == (0, 0):
                        continue
                    alpha = np.zeros((2, grid.n, grid.n))
                    alpha[comp] = trig(2 * np.pi * (p * X + q * Y))
                    a1, a2 = alpha
                    curl = fields._derivatives(np.stack([a2, -a1]), summed=True)
                    m1, m2 = float(np.mean(a1)), float(np.mean(a2))
                    if np.max(np.abs(curl)) < 1e-12 and abs(m1) < 1e-12 and abs(m2) < 1e-12:
                        continue  # exact class: kappa vanishes identically
                    psi = fields.ScalarField(grid, curl - float(np.mean(curl)))
                    x = diffeo.div_free_from_stream(psi, (-m2, m1), vol)
                    min_val = min(min_val, abs(diffeo.pairing_kappa(x, alpha)))
    return min_val


def _class_gap(c1, c2):
    def angle_gap(x, y):
        return abs((x - y + math.pi) % (2 * math.pi) - math.pi)

    return max(
        float(np.max(np.abs(c1.curvature.c12.values - c2.curvature.c12.values))),
        angle_gap(c1.holA, c2.holA),
        angle_gap(c1.holB, c2.holB),
        float(abs(c1.chern - c2.chern)),
    )


class Kobayashi(Point, suite="kobayashi"):
    @cached_property
    def classes(self):
        """Three constant-curvature classes on the flat density, drawn from the seed."""
        rng = np.random.default_rng([self.seed, 77])
        return [
            bundles.constant_curvature_class(
                self.flat_vol, int(rng.integers(-3, 4)), float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(3)
        ]

    @cached_property
    def e(self):
        return bundles.identity_class(self.grid)

    @check(desk(5), tolerance=1e-12)
    def identity_element(self):
        c = self.classes
        return _class_gap(bundles.kobayashi_add(c[0], self.e), c[0])

    @check(desk(5), tolerance=1e-12)
    def inverse_element(self):
        c = self.classes
        return _class_gap(bundles.kobayashi_add(c[0], bundles.kobayashi_neg(c[0])), self.e)

    @check(desk(5), tolerance=1e-12)
    def associativity(self):
        c = self.classes
        left = bundles.kobayashi_add(bundles.kobayashi_add(c[0], c[1]), c[2])
        right = bundles.kobayashi_add(c[0], bundles.kobayashi_add(c[1], c[2]))
        return _class_gap(left, right)

    @check(desk(5), tolerance=1e-12)
    def commutativity(self):
        c = self.classes
        return _class_gap(bundles.kobayashi_add(c[0], c[1]), bundles.kobayashi_add(c[1], c[0]))

    @check(desk(5), tolerance=bundles.QUANTIZATION_TOL)
    def quantization(self):
        s = bundles.kobayashi_add(self.classes[0], self.classes[1])
        return abs(fields.integrate(s.curvature.stack()) - 2 * math.pi * s.chern)


class FlowInvariance(Point, suite="flow-invariance"):
    @cached_property
    def phi(self):
        """The flow before diffeo.flow's volume gate: flow_volume,
        flow_roundtrip and omega_invariance are residuals at every N."""
        return diffeo._flow_map(self.flow_field, 0.1, 5e-3)

    @cached_property
    def flow_metric(self):
        return sampling.random_compatible_metric(self.grid, self.seed + 20, kmax=self.kmax, volume=self.vol)

    @cached_property
    def pushed_metric(self):
        """phi_* g before pushforward_metric's compatibility gate:
        pushforward_compatibility and omega_invariance are residuals at every N."""
        return diffeo._push_metric(self.phi, self.flow_metric)

    @check(desk(3), tolerance=1e-6)
    def flow_volume(self):
        return self.phi.volume_defect()

    @check(desk(3), tolerance=1e-7)
    def flow_roundtrip(self):
        return self.phi.roundtrip_residual()

    @check(desk(3), tolerance=diffeo.PUSHFORWARD_COMPAT_TOL)
    def pushforward_compatibility(self):
        return self.pushed_metric.compatibility_residual()

    @check(desk(3), tolerance=1e-5)
    def omega_invariance(self):
        g, gp = self.flow_metric, self.pushed_metric
        h1 = sampling.random_tangent(g, self.seed + 21, kmax=self.kmax)
        h2 = sampling.random_tangent(g, self.seed + 22, kmax=self.kmax)
        hp1 = diffeo.pushforward_tangent(self.phi, h1, gp)
        hp2 = diffeo.pushforward_tangent(self.phi, h2, gp)
        om0 = symplectic.omega(g, h1, h2)
        om1 = symplectic.omega(gp, hp1, hp2)
        return abs(om1 - om0) / max(abs(om0), 1e-30)

    @check(seed_zero, tolerance=1e-12)
    def translation_exact(self):
        xc = diffeo.div_free_from_stream(constant_field(self.grid, 0.0), (0.0, 1.0), self.flat_vol)
        phi = diffeo.flow(xc, 0.25, 5e-3)
        target = np.stack(self.grid.meshes()) + 0.25 * xc.vector.stack()  # the flow of a constant X
        return float(np.max(np.abs(phi.forward - target)))


# The largest ratio of a convergence residual to its value at the previous N
# that counts as spectral decay: dalpha_ratio's tolerance and the CSV's flag.
DALPHA_RATIO_TOL = 1e-2
# Roundoff level of a normalised convergence residual (1e-12 to 5e-12 for
# d(alpha) at N=128).  A ratio res/prev is noise when res is at this level and
# prev is too small for a drop by DALPHA_RATIO_TOL to land above it.
ROUNDOFF_FLOOR = 1e-11


def _at_floor(res: float, prev: float) -> bool:
    return res <= ROUNDOFF_FLOOR and prev <= ROUNDOFF_FLOOR / DALPHA_RATIO_TOL


class Convergence(Point, suite="convergence"):
    def dalpha_at(self, n: int) -> float:
        """The seed's dalpha at size n, from a point of its own at another size."""
        return (self if n == self.n else Convergence(self.config, self.seed, n)).dalpha

    @check(every_size, tolerance=1.0)
    def dalpha_residual(self):
        return self.dalpha_at(self.n), "informational; asserted via dalpha_ratio"

    @check(every_size, tolerance=1.0)
    def lemma1_residual(self):
        return self.lemma1_defect(self.X), "informational; quadrature-floor dominated"

    @check(finest_of_several, tolerance=DALPHA_RATIO_TOL)
    def dalpha_ratio(self):
        lo = min(self.config.grid_sizes)
        r_lo, r_hi = self.dalpha_at(lo), self.dalpha_at(self.n)
        note = f"N={lo} -> N={self.n}"
        if _at_floor(r_hi, r_lo):
            note += f"; residuals {r_lo:.2e}, {r_hi:.2e} at floor {ROUNDOFF_FLOOR:.0e}"
            return 0.0, note  # resolved at both sizes; the ratio would be noise
        return r_hi / max(r_lo, 1e-300), note


SUITE_NAMES = tuple(SUITES)


@dataclass(frozen=True)
class SuiteConfig:
    """What a run covers, checked when built from Python or JSON: each field's type
    first, never coerced (a list is stored as a tuple), then its values."""
    grid_sizes: tuple[int, ...] = (32, 48, 64)
    seeds: tuple[int, ...] = tuple(range(50))
    kmax: int = 4
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        for key, (accepts, kind) in _FIELDS.items():
            value = getattr(self, key)
            if not accepts(value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, key, tuple(value))
        if not self.grid_sizes or any(n < 8 or n % 2 for n in self.grid_sizes):
            raise ValueError(f"grid_sizes must be even and >= 8, got {list(self.grid_sizes)}")
        if len(set(self.grid_sizes)) != len(self.grid_sizes):
            raise ValueError(f"grid_sizes must be distinct, got {list(self.grid_sizes)}")
        if not self.seeds:
            raise ValueError("seeds must be a nonempty list of integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if self.kmax < 0 or self.kmax >= min(self.grid_sizes) // 4:
            raise ValueError(
                f"kmax={self.kmax} must satisfy 0 <= kmax < min(grid_sizes)/4"
            )
        if not self.suites:
            raise ValueError("suites must name at least one suite")
        if len(set(self.suites)) != len(self.suites):
            raise ValueError(f"suites must be distinct, got {list(self.suites)}")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite '{s}'; valid: {', '.join(SUITE_NAMES)}")

    @property
    def n_desk(self) -> int:
        return max(self.grid_sizes)

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        for key in data:
            if key not in _FIELDS:
                raise ValueError(f"unknown config field '{key}'; valid: {sorted(_FIELDS)}")
        return cls(**data)

    def echo(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(item):
    return lambda value: isinstance(value, (list, tuple)) and all(item(v) for v in value)


# every config field: (whether a value is accepted, what is accepted)
_FIELDS = {
    "grid_sizes": (_list_of(_integer), "a list of integers"),
    "seeds": (_list_of(_integer), "a list of integers"),
    "kmax": (_integer, "an integer"),
    "suites": (_list_of(lambda s: isinstance(s, str)), "a list of strings"),
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


def _run(c: Check, point: Point) -> CheckResult:
    """One record; an exception fails this record alone, with the exception as its note."""
    t0 = time.perf_counter()
    try:
        out = c.run(point)
        residual, note = out if isinstance(out, tuple) else (out, "")
    except Exception as err:  # one broken check never hides the others
        residual, note = float("nan"), f"{type(err).__name__}: {err}"
    residual = float(residual)
    ok = math.isfinite(residual) and residual <= c.tolerance
    return CheckResult(c.suite, c.name, point.seed, point.n, point.kmax, residual,
                       c.tolerance, bool(ok), time.perf_counter() - t0, note)


def plan(config: SuiteConfig, suite: str) -> dict[tuple[int, int], list[Check]]:
    """The suite's (seed, N) points in sweep order, each with the checks that sweep it."""
    points: dict = {}
    for c in CHECKS:
        if c.suite == suite:
            for key in c.sweep(config):
                points.setdefault(key, []).append(c)
    return points


def _run_record(config: SuiteConfig, name: str, seed: int, n: int) -> CheckResult:
    c = next((c for c in CHECKS if c.name == name), None)
    if c is None:
        raise ValueError(f"unknown record name '{name}'")
    if (seed, n) not in c.sweep(config):
        raise ValueError(f"record {name}:{seed}:{n} is outside the {c.suite}/{name} sweep")
    return _run(c, SUITES[c.suite](config, seed, n))


@dataclass
class SuiteReport:
    config: SuiteConfig
    records: list
    wall_time: float

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        records = sorted(self.records, key=lambda r: (r.suite, r.name, r.seed, r.n))
        return {
            "schema": 2,
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
        }


def run_suites(config: SuiteConfig, record_filter: tuple[str, int, int] | None = None) -> SuiteReport:
    """Execute the configured suites, or the one record (name, seed, N) of a check."""
    t0 = time.perf_counter()
    if record_filter is None:
        records = []
        for suite in config.suites:
            for (seed, n), checks in plan(config, suite).items():
                point = SUITES[suite](config, seed, n)
                records += [_run(c, point) for c in checks]
    else:
        records = [_run_record(config, *record_filter)]
    return SuiteReport(config, records, time.perf_counter() - t0)


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
                if _at_floor(res, prev):
                    flag = "floor"
                elif ratio_val <= DALPHA_RATIO_TOL:
                    flag = "spectral"
                elif ratio_val < 1.0:
                    flag = "decaying"
                else:
                    flag = "flat"
            rows.append(f"{check},{n},{res:.6e},{ratio},{flag}")
            prev = res
    return "\n".join(rows) + "\n", None
