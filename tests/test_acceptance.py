"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; every tolerance is fixed here, nothing is calibrated at
runtime.  Desk scale is N = 64 with kmax = 4 band-limited random inputs.
"""

import json
import math
import subprocess
import sys

import numpy as np

import torusgeom as tg
from torusgeom import sampling
from torusgeom.bundles import Loop, frame_transport, holonomy_derivative_check
from torusgeom.fields import ScalarField
from torusgeom.riemann import l2_norm_sym2

import golden_check
from conftest import class_gap, make_setup, pair_scale, seeded_volume, sup

N = 64
KMAX = 4
GRID = tg.Grid(N)


def report(number, text, worst, tol):
    print(f"PASS criterion {number}: {text}: worst {worst:.3e} (tolerance {tol:.1e})")


def momentum_sweep():
    """50 seeded triples at N=64, kmax=4; the last 15 carry harmonic parts."""
    for seed in range(50):
        yield seed, make_setup(GRID, seed, harmonic=seed >= 35)


def test_criterion_01_momentum_residual():
    worst, n_harmonic = 0.0, 0
    for seed, (g, X, h) in momentum_sweep():
        if X.harmonic != (0.0, 0.0):
            n_harmonic += 1
        res = abs(tg.momentum_residual(g, X, h)) / pair_scale(g, X, h)
        worst = max(worst, res)
    assert n_harmonic >= 10
    assert worst <= 1e-8
    report(1, f"momentum-map identity on 50 triples ({n_harmonic} harmonic)", worst, 1e-8)


def test_criterion_02_lemma1_equality():
    worst = 0.0
    for seed, (g, X, h) in momentum_sweep():
        lhs = tg.omega(g, tg.fundamental_vector(X, g), h)
        rhs = tg.lemma1_rhs(g, X, h)
        worst = max(worst, abs(lhs - rhs) / pair_scale(g, X, h))
    assert worst <= 1e-8
    report(2, "Lemma 1: independently coded sides agree on 50 triples", worst, 1e-8)


def test_criterion_03_lemma2_tensor_identity():
    worst = 0.0
    for seed in range(10):
        g, _, h = make_setup(GRID, seed)
        worst = max(worst, tg.dalpha_defect(g, h).max_abs() / max(h.h.max_abs(), 1e-30))
    assert worst <= 1e-8

    ratios = []
    for seed in range(3):
        res = {}
        for n in (32, 64):
            grid_n = tg.Grid(n)
            g = sampling.random_compatible_metric(grid_n, seed, volume=seeded_volume(grid_n, seed))
            h = sampling.random_tangent(g, seed + 1)
            res[n] = tg.dalpha_defect(g, h).max_abs() / max(h.h.max_abs(), 1e-30)
        ratios.append(res[64] / res[32])
    assert max(ratios) <= 1e-2
    report(3, f"d(alpha) identity at N=64 (N32->64 ratio <= {max(ratios):.1e})", worst, 1e-8)


def test_criterion_04_divergence_identity():
    worst = 0.0
    for seed in range(20):
        g = sampling.random_compatible_metric(GRID, seed, volume=seeded_volume(GRID, seed))
        y = np.stack([tg.random_band_limited(GRID, seed + k, KMAX, 0.5).values for k in (7, 8)])
        scale = max(sup(y), 1e-30)
        worst = max(worst, sup(tg.divergence_identity_defect(g, y)) / scale)
    assert worst <= 1e-9
    report(4, "vector-field divergence identity on 20 inputs", worst, 1e-9)


def test_criterion_05_linearized_scalar_curvature():
    worst_fd, worst_red = 0.0, 0.0
    eps = 1e-4
    for seed in range(20):
        g, _, h = make_setup(GRID, seed)
        lin = tg.linearized_scalar_curvature(g, h.h).values

        def s_at(t):
            return tg.scalar_curvature(tg.metric_path(g, h, t)).values

        d1 = (s_at(eps) - s_at(-eps)) / (2 * eps)
        d2 = (s_at(eps / 2) - s_at(-eps / 2)) / eps
        fd = (4 * d2 - d1) / 3
        worst_fd = max(worst_fd, sup(lin - fd) / max(sup(fd), 1e-30))

        divdiv = tg.divergence_vector(
            tg.covariant_divergence(tg.raise_sym2(h.h, g), g), g
        ).values
        worst_red = max(worst_red, sup(lin - divdiv))
    assert worst_fd <= 1e-6
    assert worst_red <= 1e-9
    report(5, f"linearized curvature vs finite differences (reduction {worst_red:.1e})",
           worst_fd, 1e-6)


def test_criterion_06_ricci_relation():
    worst = 0.0
    for seed in range(10):
        g, _, _ = make_setup(GRID, seed)
        worst = max(worst, tg.ricci_relation_residual(g))
    assert worst <= 1e-9
    report(6, "2D Ricci relation R_ij = (S/2) g_ij on 10 metrics", worst, 1e-9)


def test_criterion_07_gauss_bonnet():
    worst = 0.0
    for seed in range(10):
        g, _, _ = make_setup(GRID, seed)
        s = tg.scalar_curvature(g).values
        f = g.volume.density.values
        worst = max(worst, abs(np.mean(s * f)) / max(np.mean(np.abs(s) * f), 1e-30))
    assert worst <= 1e-9
    report(7, "Gauss-Bonnet total curvature vanishes on the torus", worst, 1e-9)


def test_criterion_08_holonomy_stokes():
    worst = 0.0
    for seed in range(3):
        g, _, _ = make_setup(GRID, seed)
        s = tg.scalar_curvature(g)
        integrand = ScalarField(GRID, 0.5 * s.values * g.volume.density.values)
        center, side = (0.37, 0.52), 0.4
        theta = frame_transport(g, Loop.square(center, side))
        ref = tg.region_integral(
            integrand,
            (center[0] - side / 2, center[0] + side / 2,
             center[1] - side / 2, center[1] + side / 2),
            order=40,
        )
        worst = max(worst, abs(theta - ref) / abs(ref))
    assert worst <= 1e-5

    g, _, _ = make_setup(GRID, 1)
    s = tg.scalar_curvature(g)
    p = (0.3, 0.6)
    kp = 0.5 * tg.interpolate(s, p)
    errs = []
    for side in (0.1, 0.05, 0.025, 0.0125):
        theta = frame_transport(g, Loop.square(p, side))
        rect = (p[0] - side / 2, p[0] + side / 2, p[1] - side / 2, p[1] + side / 2)
        errs.append(abs(theta / tg.region_integral(g.volume.density, rect, 24) - kp))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    asymptotic = 2 * orders[-1] - orders[-2]
    assert asymptotic >= 2.0
    report(8, f"holonomy/Stokes (shrinking-loop order {asymptotic:.2f})", worst, 1e-5)


def test_criterion_09_holonomy_log_derivative():
    worst = 0.0
    loop = Loop.square((0.35, 0.55), 0.3)
    for seed in range(10):
        g, _, h = make_setup(GRID, seed)
        fd, line = holonomy_derivative_check(g, h, loop, 1e-4)
        worst = max(worst, abs(fd - line) / max(abs(line), 1e-30))
    assert worst <= 1e-4
    report(9, "holonomy logarithmic derivative vs line integral, 10 seeds", worst, 1e-4)


def test_criterion_10_kobayashi_group():
    from torusgeom.bundles import constant_curvature_class, identity_class, kobayashi_add, kobayashi_neg

    vol = sampling.flat_volume_form(GRID)
    e = identity_class(GRID)
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        cs = [
            constant_curvature_class(
                vol, int(rng.integers(-3, 4)),
                float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(3)
        ]
        worst = max(worst, class_gap(kobayashi_add(cs[0], e), cs[0]))
        worst = max(worst, class_gap(kobayashi_add(cs[0], kobayashi_neg(cs[0])), e))
        worst = max(
            worst,
            class_gap(
                kobayashi_add(kobayashi_add(cs[0], cs[1]), cs[2]),
                kobayashi_add(cs[0], kobayashi_add(cs[1], cs[2])),
            ),
        )
        worst = max(
            worst, class_gap(kobayashi_add(cs[0], cs[1]), kobayashi_add(cs[1], cs[0]))
        )
    assert worst <= 1e-12
    report(10, "Kobayashi group axioms (identity, inverse, assoc, comm)", worst, 1e-12)


def test_criterion_11_symplectic_structure():
    worst_anti = 0.0
    for seed in range(10):
        g, _, h = make_setup(GRID, seed)
        worst_anti = max(
            worst_anti, abs(tg.omega(g, h, h)) / max(l2_norm_sym2(h.h, g) ** 2, 1e-30)
        )
    assert worst_anti <= 1e-12

    n_pos = 0
    for gseed in range(10):
        g, _, _ = make_setup(GRID, gseed)
        for hseed in range(5):
            h = sampling.random_tangent(g, 1000 + 10 * gseed + hseed)
            _, val = tg.nondegeneracy_witness(g, h)
            half = 0.5 * l2_norm_sym2(h.h, g) ** 2
            assert val > 0.0 and val >= half * (1.0 - 1e-10)
            n_pos += 1
    assert n_pos == 50

    g = sampling.random_compatible_metric(GRID, 21)
    hs = [sampling.random_tangent(g, 22 + i) for i in range(3)]
    d1 = abs(tg.closedness_defect(g, *hs, 1e-3))
    d2 = abs(tg.closedness_defect(g, *hs, 5e-4))
    # O(eps^2) decay: either both defects sit on the roundoff floor (trivially
    # satisfied) or the halving ratio is ~4
    assert (d1 <= 1e-10 and d2 <= 1e-10) or 2.5 <= d1 / d2 <= 6.0
    report(11, f"symplectic: antisym {worst_anti:.1e}, 50 positive witnesses, "
               f"closedness defects {d1:.1e}/{d2:.1e}", worst_anti, 1e-12)


def test_criterion_12_finite_action_invariance():
    worst_om, worst_vol = 0.0, 0.0
    for seed in (12, 13, 14):
        vol = (
            sampling.random_volume_form(GRID, seed + 300)
            if seed % 2
            else sampling.flat_volume_form(GRID)
        )
        X = tg.div_free_from_stream(
            sampling.random_stream(GRID, seed), sampling.random_harmonic(seed + 3), vol
        )
        phi = tg.flow(X, 0.1, 5e-3)
        worst_vol = max(worst_vol, phi.volume_defect())
        g = sampling.random_compatible_metric(GRID, seed + 20, volume=vol)
        h1 = sampling.random_tangent(g, seed + 21)
        h2 = sampling.random_tangent(g, seed + 22)
        gp = tg.pushforward_metric(phi, g)
        hp1 = tg.pushforward_tangent(phi, h1, gp)
        hp2 = tg.pushforward_tangent(phi, h2, gp)
        before, after = tg.omega(g, h1, h2), tg.omega(gp, hp1, hp2)
        worst_om = max(worst_om, abs(after - before) / abs(before))
    assert worst_om <= 1e-5
    assert worst_vol <= 1e-6
    report(12, f"Omega invariant under t=0.1 flows (volume defect {worst_vol:.1e})",
           worst_om, 1e-5)


def test_criterion_13_fundamental_vector_tracefree():
    worst = 0.0
    for seed in range(20):
        g, X, _ = make_setup(GRID, seed, harmonic=seed % 2 == 0)
        fv = tg.fundamental_vector(X, g)
        worst = max(worst, sup(tg.trace_sym2(fv.h.stack(), g)))
    assert worst <= 1e-10
    report(13, "-L_X g is g-trace-free on 20 seeds", worst, 1e-10)


def test_criterion_14_cli_contract(tmp_path, default_verify):
    # determinism on a small config
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({
        "grid_sizes": [32], "seeds": [0, 1, 2], "kmax": 4,
        "suites": ["kobayashi", "calculus"],
    }))

    def run(out, extra=()):
        return subprocess.run(
            [sys.executable, "-m", "torusgeom", "--config", str(cfg), "--out", str(out), *extra],
            capture_output=True, text=True,
        )

    p1 = run(tmp_path / "r1.json")
    p2 = run(tmp_path / "r2.json")
    assert p1.returncode == 0 and p2.returncode == 0

    def strip(path):
        return json.dumps(golden_check.strip(json.loads(path.read_text())), sort_keys=True)

    assert strip(tmp_path / "r1.json") == strip(tmp_path / "r2.json")

    # exit code 2 on config error
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    p = subprocess.run(
        [sys.executable, "-m", "torusgeom", "--config", str(bad), "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True,
    )
    assert p.returncode == 2

    # exit code 1 on failing check (N = 16 truncates the kmax 3 riemannian metrics)
    cfg_fail = tmp_path / "fail.json"
    cfg_fail.write_text(json.dumps({
        "grid_sizes": [16], "seeds": [0], "kmax": 3, "suites": ["riemannian"],
    }))
    p = subprocess.run(
        [sys.executable, "-m", "torusgeom", "--config", str(cfg_fail), "--out", str(tmp_path / "f.json")],
        capture_output=True, text=True,
    )
    assert p.returncode == 1

    # full default suite within the five-minute budget (run once per session)
    p, elapsed, out = default_verify
    assert p.returncode == 0, p.stdout + p.stderr
    assert elapsed <= 300.0
    body = json.loads(out.read_text())
    assert body["summary"]["overall_pass"] is True
    report(14, f"CLI determinism, exit codes, full default suite in {elapsed:.0f}s "
               f"({body['summary']['total']} checks)", 0.0, 1.0)
