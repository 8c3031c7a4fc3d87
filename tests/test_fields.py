import numpy as np
import pytest

import torusgeom as tg
from torusgeom import fields
from torusgeom.fields import Grid, ScalarField, TwoForm, _derivatives, _ik

from conftest import sup


def test_grid_rejects_small_or_odd():
    with pytest.raises(ValueError):
        Grid(6)
    with pytest.raises(ValueError):
        Grid(33)


def test_scalar_field_shape_checked(grid):
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((4, 4)))


def test_partial_of_constant_is_zero(grid):
    f = tg.constant_field(grid, 1.0)
    assert sup(tg.partial(f, 1).values) == 0.0
    assert sup(tg.partial(f, 2).values) == 0.0


def test_partial_trig_closed_form():
    grid = Grid(32)
    f = tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
    want = tg.field_from_function(grid, lambda X, Y: 2 * np.pi * np.cos(2 * np.pi * X))
    assert sup(tg.partial(f, 1).values - want.values) <= 1e-12


def test_partial_matches_high_resolution_oracle(grid):
    # oracle: the same operator at 4x resolution, restricted to the coarse lattice
    fn = lambda X, Y: np.exp(np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    fine = Grid(256)
    coarse = tg.partial(tg.field_from_function(grid, fn), 2)
    reference = tg.partial(tg.field_from_function(fine, fn), 2)
    assert sup(coarse.values - reference.values[::4, ::4]) <= 1e-10


def test_partial_rejects_bad_axis(grid):
    with pytest.raises(ValueError):
        tg.partial(tg.constant_field(grid, 0.0), 3)


def complex_partial_oracle(arr, axis):
    """The full-spectrum complex kernel the rfft2 one replaced: fft2, times
    2 pi i k with the Nyquist entry of the differentiated axis zeroed,
    ifft2, real part."""
    n = arr.shape[-1]
    ik = 2j * np.pi * np.fft.fftfreq(n) * n
    ik[n // 2] = 0.0
    spec = np.fft.fft2(arr)
    spec *= ik[:, None] if axis == 1 else ik[None, :]
    return np.fft.ifft2(spec).real


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("lead", [(), (2, 2)], ids=["scalar", "stacked"])
def test_derivative_kernel_matches_complex_oracle(n, lead):
    # white noise carries every mode, the Nyquist row and column included
    arr = np.random.default_rng(n + len(lead)).standard_normal(lead + (n, n))
    grad = _derivatives(arr)
    assert grad.shape == (2,) + arr.shape
    for axis in (1, 2):
        want = complex_partial_oracle(arr, axis)
        tol = 1e-14 * sup(want)
        assert sup(_derivatives(arr, (axis,))[0] - want) <= tol
        assert sup(grad[axis - 1] - want) <= tol
        if not lead:
            assert sup(tg.partial(ScalarField(Grid(n), arr), axis).values - want) <= tol


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("lead", [(), (2, 2)], ids=["scalar", "stacked"])
def test_summed_spectrum_kernel_matches_complex_oracle(n, lead):
    # white noise carries every mode, the Nyquist row and column included
    a0, a1 = np.random.default_rng(10 * n + len(lead)).standard_normal((2,) + lead + (n, n))
    want = complex_partial_oracle(a0, 1) + complex_partial_oracle(a1, 2)
    tol = 1e-14 * sup(want)
    assert sup(_derivatives(np.stack([a0, a1]), summed=True) - want) <= tol


def test_ik_is_built_once_and_read_only():
    for axis in (1, 2):
        ik = _ik(16, axis)
        assert _ik(16, axis) is ik
        with pytest.raises(ValueError, match="read-only"):
            ik[0, 0] = 0.0


def test_scalar_field_shares_only_unwritable_input(grid):
    frozen = np.ones((grid.n, grid.n))
    frozen.setflags(write=False)
    assert ScalarField(grid, frozen).values is frozen
    base = np.ones((grid.n, grid.n))
    view = base.view()
    view.setflags(write=False)  # read-only, but its base is still writable
    f = ScalarField(grid, view)
    base[0, 0] = 5.0
    assert f.values[0, 0] == 1.0
    buffer = bytearray(np.ones((grid.n, grid.n)).tobytes())
    over_buffer = np.frombuffer(buffer).reshape(grid.n, grid.n)
    over_buffer.setflags(write=False)  # the bytearray under it stays writable
    g = ScalarField(grid, over_buffer)
    buffer[:8] = np.float64(5.0).tobytes()
    assert g.values[0, 0] == 1.0


def test_partials_commute(grid):
    f = tg.random_band_limited(grid, 4, 10, 0.7)
    d12 = tg.partial(tg.partial(f, 1), 2)
    d21 = tg.partial(tg.partial(f, 2), 1)
    assert sup(d12.values - d21.values) <= 1e-11 * f.max_abs()


def test_integrate_constant(grid):
    assert tg.integrate(TwoForm(tg.constant_field(grid, 2.5))) == pytest.approx(2.5, abs=1e-15)


def test_integrate_single_mode_cancels(grid):
    w = TwoForm(tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X)))
    assert abs(tg.integrate(w)) <= 1e-14


def test_integrate_product_matches_high_resolution_oracle(grid):
    fine = Grid(256)
    coarse_val = tg.integrate(
        TwoForm(tg.random_band_limited(grid, 5, 10, 0.6) * tg.random_band_limited(grid, 6, 10, 0.6))
    )
    fine_val = tg.integrate(
        TwoForm(tg.random_band_limited(fine, 5, 10, 0.6) * tg.random_band_limited(fine, 6, 10, 0.6))
    )
    assert abs(coarse_val - fine_val) <= 1e-12


def test_integrate_derivative_has_no_boundary_term(grid):
    f = tg.random_band_limited(grid, 7, 10, 0.7)
    assert abs(tg.integrate(TwoForm(tg.partial(f, 1)))) <= 1e-12


def test_parseval(grid):
    f = tg.random_band_limited(grid, 11, 10, 0.7)
    coef = np.fft.fft2(f.values) / grid.n**2
    lhs = tg.integrate(TwoForm(f * f))
    assert abs(lhs - float(np.sum(np.abs(coef) ** 2))) <= 1e-11


def test_random_band_limited_kmax0_is_constant(grid):
    f = tg.random_band_limited(grid, 2, 0, 0.5)
    assert np.ptp(f.values) == 0.0


def test_random_band_limited_deterministic(grid):
    a = tg.random_band_limited(grid, 9, 4, 0.5)
    b = tg.random_band_limited(grid, 9, 4, 0.5)
    assert np.array_equal(a.values, b.values)


def test_random_band_limited_spectrum_support(grid):
    # oracle: FFT of the output vanishes outside the |k|_inf <= kmax box
    kmax = 4
    spec = np.fft.fft2(tg.random_band_limited(grid, 1, kmax, 0.5).values)
    outside = np.ones((grid.n, grid.n), dtype=bool)
    for p in range(-kmax, kmax + 1):
        for q in range(-kmax, kmax + 1):
            outside[p % grid.n, q % grid.n] = False
    assert sup(spec[outside]) <= 1e-12 * sup(spec)


def test_random_band_limited_zero_mean_option(grid):
    f = tg.random_band_limited(grid, 3, 4, 0.5, zero_mean=True)
    assert abs(f.mean()) <= 1e-14


def test_random_band_limited_rejects_large_kmax(grid):
    with pytest.raises(ValueError):
        tg.random_band_limited(grid, 0, grid.n // 4, 0.5)


@pytest.mark.parametrize("kmax", [-1, -4])
def test_random_band_limited_rejects_a_negative_kmax(grid, kmax):
    with pytest.raises(ValueError, match="kmax must be nonnegative"):
        tg.random_band_limited(grid, 0, kmax, 0.5)


def test_interpolate_reproduces_lattice_samples(grid):
    f = tg.random_band_limited(grid, 13, 12, 0.7)
    for a, b in [(0, 0), (5, 9), (33, 60)]:
        got = tg.interpolate(f, (a / grid.n, b / grid.n))
        assert abs(got - f.values[a, b]) <= 1e-13


def test_interpolate_cosine_closed_form(grid):
    f = tg.field_from_function(grid, lambda X, Y: np.cos(2 * np.pi * Y))
    assert abs(tg.interpolate(f, (0.3, 0.25))) <= 1e-13


def test_interpolate_matches_mode_sum_oracle(grid):
    f = tg.random_band_limited(grid, 17, 6, 0.5)
    pts = np.random.default_rng(0).random((100, 2))
    spec = np.fft.fft2(f.values) / grid.n**2
    freqs = np.fft.fftfreq(grid.n) * grid.n

    def mode_sum(p):
        ex = np.exp(2j * np.pi * freqs * p[0])
        ey = np.exp(2j * np.pi * freqs * p[1])
        ex[grid.n // 2] = np.cos(np.pi * grid.n * p[0])
        ey[grid.n // 2] = np.cos(np.pi * grid.n * p[1])
        return float(np.real(ex @ spec @ ey))

    got = tg.interpolate(f, pts)
    want = np.array([mode_sum(p) for p in pts])
    assert sup(got - want) <= 1e-12


def full_spectrum_oracle(fields, points):
    """The complex full-spectrum evaluator the half-spectrum one replaced:
    basis by recurrence, one (m x n) @ (n x nfields*n) complex product,
    Nyquist mode as a cosine on both axes."""
    n = fields[0].grid.n
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    packed = np.stack([np.fft.fft2(f.values) / n**2 for f in fields]).transpose(1, 0, 2)

    def basis(t):
        z = np.exp(2j * np.pi * t)
        e = np.empty((t.size, n), dtype=complex)
        e[:, 0] = 1.0
        for k in range(1, n // 2):
            e[:, k] = e[:, k - 1] * z
        e[:, n // 2 + 1 :] = np.conj(e[:, 1 : n // 2][:, ::-1])
        e[:, n // 2] = (e[:, n // 2 - 1] * z).real
        return e

    tmp = (basis(pts[:, 0]) @ packed.reshape(n, -1)).reshape(len(pts), len(fields), n)
    return np.einsum("mfl,ml->fm", tmp, basis(pts[:, 1])).real


def _assert_matches_oracle(fields, points):
    got = tg.Interpolator(fields)(points)
    want = full_spectrum_oracle(fields, points)
    assert got.shape == want.shape == (len(fields), np.atleast_2d(points).shape[0])
    assert sup(got - want) <= 1e-14 * max(f.max_abs() for f in fields)


# points in [-1.5, 2.5)^2: negative, inside the unit square and beyond 1
_ORACLE_POINTS = np.random.default_rng(7).uniform(-1.5, 2.5, (300, 2))


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("nfields", [1, 2, 3, 6])
def test_interpolator_matches_full_spectrum_oracle(n, nfields):
    # white-noise samples carry every mode, the Nyquist ones included
    grid = Grid(n)
    rng = np.random.default_rng(100 * n + nfields)
    fields = [ScalarField(grid, rng.standard_normal((n, n))) for _ in range(nfields)]
    _assert_matches_oracle(fields, _ORACLE_POINTS)


@pytest.mark.parametrize("n", [8, 64])
def test_interpolator_nyquist_modes_match_oracle(n):
    grid = Grid(n)
    fields = [
        tg.field_from_function(grid, lambda X, Y: np.cos(np.pi * n * X)),
        tg.field_from_function(grid, lambda X, Y: np.cos(np.pi * n * Y)),
        tg.field_from_function(grid, lambda X, Y: np.cos(np.pi * n * X) * np.cos(np.pi * n * Y)),
    ]
    _assert_matches_oracle(fields, _ORACLE_POINTS)
    for f in fields:
        _assert_matches_oracle([f], _ORACLE_POINTS)


@pytest.mark.parametrize("n", [8, 64])
def test_interpolator_single_point_matches_oracle(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    fields = [ScalarField(grid, rng.standard_normal((n, n))) for _ in range(3)]
    for point in [(-0.37, 1.61), (0.0, 0.0), (2.3, -1.2)]:
        _assert_matches_oracle(fields, point)
        _assert_matches_oracle(fields, [point])


def _band_plus_tail(n, band, tail):
    """cos 2 pi (band x + y) (every |c| = 1/2, max|f| = 1) plus modes of
    magnitude tail / 2 and random phase at every |k|_inf > band."""
    rng = np.random.default_rng(n + band)
    k = np.arange(n)
    kinf = np.maximum(np.minimum(k, n - k)[:, None], k[None, : n // 2 + 1])
    spec = 0.5 * tail * np.exp(2j * np.pi * rng.random((n, n // 2 + 1))) * (kinf > band)
    X, Y = Grid(n).meshes()
    values = np.cos(2 * np.pi * (band * X + Y)) + np.fft.irfft2(spec, s=(n, n)) * n * n
    return ScalarField(Grid(n), values)


def _dropped_mass(f, band):
    """l1 mass of the full fft2 spectrum outside |k|_inf <= band, over max|f|."""
    n = f.grid.n
    k = np.abs(np.fft.fftfreq(n) * n)
    outside = np.maximum(k[:, None], k[None, :]) > band
    return np.abs(np.fft.fft2(f.values) / n**2)[outside].sum() / f.max_abs()


@pytest.mark.parametrize("n", [8, 64])
def test_white_noise_keeps_the_full_band(n):
    rng = np.random.default_rng(n)
    interp = tg.Interpolator([ScalarField(Grid(n), rng.standard_normal((n, n)))])
    assert (interp.band, interp.eval_n, interp.dropped) == (n // 2, n, 0.0)


@pytest.mark.parametrize("kmax", [0, 1, 4, 12])
def test_band_limited_field_plus_roundoff_noise_chops_to_its_band(kmax):
    grid = Grid(64)
    f = tg.random_band_limited(grid, kmax, kmax, 0.8)
    noise = 1e-17 * f.max_abs() * np.random.default_rng(kmax).standard_normal((64, 64))
    interp = tg.Interpolator([f, ScalarField(grid, f.values + noise)])
    assert interp.band == kmax
    assert interp.eval_n == max(8, 2 * kmax + 2)
    assert interp.dropped <= 1e-14
    diff = sup(interp(_ORACLE_POINTS) - full_spectrum_oracle([f, f], _ORACLE_POINTS))
    assert diff <= (interp.dropped + 1e-14) * f.max_abs()


def test_chop_keeps_a_mode_just_above_the_threshold():
    grid = Grid(64)
    X, Y = grid.meshes()
    base = np.cos(2 * np.pi * (3 * X + Y))  # max|c| = 1/2
    for amp, band in [(2.0 * fields.CHOP_TOL, 20), (0.5 * fields.CHOP_TOL, 3)]:
        f = ScalarField(grid, base + amp * np.cos(2 * np.pi * 20 * Y))
        assert tg.Interpolator([f]).band == band
    # each field is chopped against its own largest coefficient
    tiny = ScalarField(grid, 1e-15 * np.cos(2 * np.pi * 20 * Y))
    assert tg.Interpolator([ScalarField(grid, base), tiny]).band == 20


def test_chopped_evaluator_within_the_dropped_mass_bound():
    f = _band_plus_tail(32, 3, 0.5 * fields.CHOP_TOL)
    interp = tg.Interpolator([f])
    assert (interp.band, interp.eval_n) == (3, 8)
    assert 1e-12 < interp.dropped <= fields.CHOP_MASS_LIMIT
    assert interp.dropped == pytest.approx(_dropped_mass(f, 3), rel=1e-3, abs=0.0)
    diff = sup(interp(_ORACLE_POINTS) - full_spectrum_oracle([f], _ORACLE_POINTS))
    assert diff <= (interp.dropped + 1e-14) * f.max_abs()


def test_dropped_mass_above_the_limit_keeps_the_full_band():
    f = _band_plus_tail(64, 3, 0.9 * fields.CHOP_TOL)
    assert _dropped_mass(f, 3) > fields.CHOP_MASS_LIMIT
    interp = tg.Interpolator([f])
    assert (interp.band, interp.eval_n, interp.dropped) == (32, 64, 0.0)
    _assert_matches_oracle([f], _ORACLE_POINTS)


def _derivative_dropped_mass(f, band, axis, norm=sup):
    """l1 mass of 2 pi |k_axis| |c_k| outside |k|_inf <= band, over norm(d_axis f)
    on the lattice (the Nyquist entry of the differentiated axis is zero)."""
    n = f.grid.n
    k = np.abs(np.fft.fftfreq(n) * n)
    outside = np.maximum(k[:, None], k[None, :]) > band
    k[n // 2] = 0.0
    weight = 2 * np.pi * (k[:, None] if axis == 1 else k[None, :])
    mass = (weight * np.abs(np.fft.fft2(f.values) / n**2))[outside].sum()
    return mass / norm(complex_partial_oracle(f.values, axis))


def _rms(arr):
    return float(np.sqrt(np.mean(np.square(arr))))


def _assert_derivatives_match_oracle(fields, points, interp=None):
    """f, d_x f and d_y f against full_spectrum_oracle of the lattice fields
    and of their complex_partial_oracle derivatives."""
    interp = interp or tg.Interpolator(fields, derivatives=True)
    got = interp(points, derivatives=True)
    assert got.shape == (3, len(fields), np.atleast_2d(points).shape[0])
    assert np.array_equal(got[0], interp(points))
    for a in (1, 2):
        d = [ScalarField(f.grid, complex_partial_oracle(f.values, a)) for f in fields]
        want = full_spectrum_oracle(d, points)
        assert sup(got[a] - want) <= 1e-13 * max(f.max_abs() for f in d)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("kind", ["white", "band"])
def test_interpolator_derivatives_match_full_spectrum_oracle(n, kind):
    # white noise carries every mode, the Nyquist row and column included,
    # and keeps the full band; band-K fields are chopped to M < n
    grid = Grid(n)
    if kind == "white":
        rng = np.random.default_rng(200 * n)
        fs = [ScalarField(grid, rng.standard_normal((n, n))) for _ in range(3)]
    else:
        fs = [tg.random_band_limited(grid, seed, n // 8, 0.8) for seed in range(3)]
    interp = tg.Interpolator(fs, derivatives=True)
    assert interp.eval_n == (n if kind == "white" else max(8, n // 4 + 2))
    _assert_derivatives_match_oracle(fs, _ORACLE_POINTS, interp)
    for point in [(-0.37, 1.61), (0.0, 0.0)]:
        _assert_derivatives_match_oracle(fs, point, interp)


@pytest.mark.parametrize("full", [False, True], ids=["chopped", "full"])
def test_interpolated_derivatives_at_the_lattice_equal_the_lattice_kernel(grid, full):
    fs = [tg.random_band_limited(grid, seed, 6, 0.7) for seed in range(2)]
    if full:
        fs.append(ScalarField(grid, np.random.default_rng(3).standard_normal((grid.n, grid.n))))
    interp = tg.Interpolator(fs, derivatives=True)
    assert interp.eval_n == (grid.n if full else 14)
    X, Y = grid.meshes()
    got = interp(np.column_stack([X.ravel(), Y.ravel()]), derivatives=True)
    samples = np.stack([f.values for f in fs])
    want = _derivatives(samples)
    for a in (0, 1):
        assert sup(got[a + 1].reshape(samples.shape) - want[a]) <= 1e-13 * sup(want[a])


def test_derivative_tail_above_the_limit_keeps_the_full_band():
    # the value tail passes the guard; the k-weighted tail of d_y f does not
    f = _band_plus_tail(32, 3, 0.5 * fields.CHOP_TOL)
    values = tg.Interpolator([f])
    assert (values.band, values.eval_n) == (3, 8)
    assert values.dropped <= fields.CHOP_MASS_LIMIT < _derivative_dropped_mass(f, 3, 2)
    interp = tg.Interpolator([f], derivatives=True)
    assert (interp.band, interp.eval_n, interp.dropped) == (16, 32, 0.0)
    _assert_derivatives_match_oracle([f], _ORACLE_POINTS, interp)


@pytest.mark.parametrize("tail, norm", [(0.1, _rms), (0.22, sup)], ids=["rms", "max"])
def test_derivative_guard_reports_the_worst_dropped_mass(tail, norm):
    # a derivative is held against its rms first and against its max only when
    # the rms bound fails (at tail 0.22 it does: d_y f has max/rms = sqrt 2)
    f = _band_plus_tail(32, 3, tail * fields.CHOP_TOL)
    interp = tg.Interpolator([f], derivatives=True)
    assert (interp.band, interp.eval_n) == (3, 8)
    by_max = [_derivative_dropped_mass(f, 3, a) for a in (1, 2)]
    by_rms = [_derivative_dropped_mass(f, 3, a, _rms) for a in (1, 2)]
    assert _dropped_mass(f, 3) < max(by_max) <= fields.CHOP_MASS_LIMIT
    assert (max(by_rms) > fields.CHOP_MASS_LIMIT) == (norm is sup)
    want = max(_derivative_dropped_mass(f, 3, a, norm) for a in (1, 2))
    assert interp.dropped == pytest.approx(want, rel=1e-3, abs=0.0)


def test_derivatives_need_an_interpolator_built_for_them(grid):
    interp = tg.Interpolator([tg.random_band_limited(grid, 0, 4, 0.5)])
    with pytest.raises(ValueError, match="derivatives=True"):
        interp(_ORACLE_POINTS, derivatives=True)


@pytest.mark.parametrize("full", [False, True], ids=["chopped", "full"])
def test_blocked_derivative_evaluation_equals_one_shot(monkeypatch, full):
    grid = Grid(64)
    fs = [tg.random_band_limited(grid, seed, 4, 0.9) for seed in range(2)]
    if full:
        fs.append(ScalarField(grid, np.random.default_rng(5).standard_normal((64, 64))))
    interp = tg.Interpolator(fs, derivatives=True)
    pts = np.random.default_rng(9).uniform(-1.5, 2.5, (fields.POINT_BLOCK + 1, 2))
    blocked = interp(pts, derivatives=True)
    monkeypatch.setattr(fields, "POINT_BLOCK", pts.shape[0] + 1)
    one_shot = interp(pts, derivatives=True)
    for a in range(3):
        assert sup(blocked[a] - one_shot[a]) <= 1e-15 * sup(one_shot[a])


@pytest.mark.parametrize("count", ["0", "1", "block-1", "block", "block+1"])
@pytest.mark.parametrize("full", [False, True], ids=["chopped", "full"])
def test_blocked_evaluation_equals_one_shot(monkeypatch, count, full):
    m = {"0": 0, "1": 1, "block-1": fields.POINT_BLOCK - 1, "block": fields.POINT_BLOCK,
         "block+1": fields.POINT_BLOCK + 1}[count]
    grid = Grid(64)
    fs = [tg.random_band_limited(grid, seed, 4, 0.9) for seed in range(3)]
    if full:
        fs.append(ScalarField(grid, np.random.default_rng(5).standard_normal((64, 64))))
    interp = tg.Interpolator(fs)
    assert interp.eval_n == (64 if full else 10)
    pts = np.random.default_rng(m).uniform(-1.5, 2.5, (m, 2))
    blocked = interp(pts)
    monkeypatch.setattr(fields, "POINT_BLOCK", m + 1)
    one_shot = interp(pts)
    assert blocked.shape == one_shot.shape == (len(fs), m)
    assert np.all(np.abs(blocked - one_shot) <= 1e-15 * max(f.max_abs() for f in fs))


def test_chopped_interpolant_reproduces_every_lattice_sample(grid):
    f = tg.random_band_limited(grid, 13, 12, 0.7)
    interp = tg.Interpolator([f])
    assert interp.eval_n == 26
    X, Y = grid.meshes()
    got = interp(np.column_stack([X.ravel(), Y.ravel()]))[0].reshape(grid.n, grid.n)
    assert sup(got - f.values) <= 1e-13


def test_region_integral_closed_form(grid):
    # int sin(2 pi x) cos(2 pi y) over [a,b] x [c,d]
    f = tg.field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    a, b, c, d = 0.1, 0.45, 0.2, 0.8
    got = tg.region_integral(f, (a, b, c, d), order=32)
    want = (
        (np.cos(2 * np.pi * a) - np.cos(2 * np.pi * b))
        * (np.sin(2 * np.pi * d) - np.sin(2 * np.pi * c))
        / (2 * np.pi) ** 2
    )
    assert abs(got - want) <= 1e-12
