"""Periodic grids and spectral tensor fields on the unit torus [0,1)^2.

All fields are sampled on an N x N lattice x_a = a/N, y_b = b/N (no duplicated
endpoint) and interpreted as smooth 1-periodic functions.  Differentiation,
interpolation and quadrature are Fourier-based, so they are exact for
band-limited data and spectrally accurate for analytic data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def _as_float_array(values) -> np.ndarray:
    """Read-only float64 array.  A read-only view of a read-only array that
    owns its memory (a tensor's component) is shared; anything else is copied."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        owner = values if values.base is None else values.base
        if isinstance(owner, np.ndarray) and owner.flags.owndata and not (
            owner.flags.writeable or values.flags.writeable
        ):
            return values
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with n points per axis (n even, >= 8)."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid needs n even and >= 8, got n={self.n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def meshes(self):
        """Coordinate arrays X, Y of shape (n, n), indexing 'ij'."""
        a = self.axis_points()
        return np.meshgrid(a, a, indexing="ij")


def _check_same_grid(*fields):
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError(f"grid mismatch: {f.grid} vs {grid}")
    return grid


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real samples of a smooth doubly 1-periodic function."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.values)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"expected shape {(self.grid.n,) * 2}, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    # Pointwise arithmetic; other may be a ScalarField or a scalar.
    def _binop(self, other, op):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, op(self.values, other.values))
        return ScalarField(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def mean(self) -> float:
        return float(np.mean(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full((grid.n, grid.n), float(value)))


def field_from_function(grid: Grid, fn) -> ScalarField:
    """Sample fn(x, y) on the lattice; fn must accept meshgrid arrays."""
    X, Y = grid.meshes()
    return ScalarField(grid, fn(X, Y))


class Component:
    """One named component of a Tensor subclass, declared by its array positions.

    Reading it gives a ScalarField view of the stored array, not a copy.  The
    off-diagonal of a symmetric tensor lists both positions; the first is the
    one read back.
    """

    def __init__(self, *positions: tuple[int, ...]):
        self.positions = positions

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return ScalarField(obj.grid, obj.stack()[self.positions[0]])


class Tensor:
    """Tensor field stored as one owned, read-only, component-first array.

    Subclasses declare their components, in constructor order, as Component
    class attributes; the array has one axis of length 2 per index, then the
    two lattice axes.  The constructor takes one ScalarField per component
    and from_stack a whole array; both copy the input, write each component
    at all of its positions and then run __post_init__.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._components = tuple(v for v in vars(cls).values() if isinstance(v, Component))
        cls._rank = len(cls._components[0].positions[0])

    def __init__(self, *components: ScalarField):
        if len(components) != len(self._components):
            raise TypeError(f"{type(self).__name__} takes {len(self._components)} components")
        self._adopt(_check_same_grid(*components), [c.values for c in components], {})

    @classmethod
    def from_stack(cls, grid: Grid, arr, **attrs):
        """Copy of a component-first array; of a symmetric pair the first
        position (arr[0, 1], not arr[1, 0]) is kept and mirrored.  attrs are
        the subclass's other attributes (a Metric's volume)."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (2,) * cls._rank + (grid.n, grid.n):
            raise ValueError(f"{cls.__name__} needs rank {cls._rank} on {grid}, got {arr.shape}")
        obj = cls.__new__(cls)
        obj._adopt(grid, [arr[c.positions[0]] for c in cls._components], attrs)
        return obj

    def _adopt(self, grid: Grid, values, attrs: dict):
        arr = np.empty((2,) * self._rank + (grid.n, grid.n))
        for comp, vals in zip(self._components, values):
            for at in comp.positions:
                arr[at] = vals
        arr.setflags(write=False)
        vars(self).update(attrs, grid=grid, _arr=arr)
        self.__post_init__()

    def __post_init__(self):
        """Checks and derived state of a subclass; run by both constructors."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def stack(self) -> np.ndarray:
        """The stored component-first array itself (read-only, not a copy)."""
        return self._arr


class VectorField(Tensor):
    """Contravariant components X^1, X^2, stored as a (2, n, n) array."""

    x1 = Component((0,))
    x2 = Component((1,))


class OneForm(Tensor):
    """Covariant components a_1, a_2, stored as a (2, n, n) array."""

    a1 = Component((0,))
    a2 = Component((1,))


class SymTensor2(Tensor):
    """Symmetric covariant 2-tensor h_11, h_12 (= h_21), h_22, stored as a
    (2, 2, n, n) array with h_12 at both off-diagonal positions."""

    c11 = Component((0, 0))
    c12 = Component((0, 1), (1, 0))
    c22 = Component((1, 1))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._arr)))


class ContraSymTensor2(Tensor):
    """Symmetric contravariant 2-tensor h^11, h^12, h^22, stored like SymTensor2."""

    c11 = Component((0, 0))
    c12 = Component((0, 1), (1, 0))
    c22 = Component((1, 1))


class MixedTensor(Tensor):
    """(1,1)-tensor T^i_j, stored as a (2, 2, n, n) array, upper index first."""

    t11 = Component((0, 0))
    t12 = Component((0, 1))
    t21 = Component((1, 0))
    t22 = Component((1, 1))


class TwoForm(Tensor):
    """2-form w = c12 dx^dy, stored by its single coefficient as an (n, n) array."""

    c12 = Component(())


@functools.cache
def _ik(n: int, axis: int) -> np.ndarray:
    """2 pi i k on the rfft2 half spectrum for d/dx (axis 1) or d/dy (axis 2),
    built once per (n, axis), read-only; the Nyquist row or column is zeroed,
    its odd derivative is not representable."""
    ik = 2j * np.pi * np.fft.fftfreq(n) * n
    ik[n // 2] = 0.0
    ik = ik[:, None] if axis == 1 else ik[None, : n // 2 + 1]
    ik.setflags(write=False)
    return ik


def _derivatives(arr: np.ndarray, axes=(1, 2), summed: bool = False) -> np.ndarray:
    """The one derivative kernel: one rfft2 of the stack arr (..., n, n) and one
    irfft2 per output.  The outputs are d_a arr for a in axes, stacked first;
    summed, they are the single sum_i d_{axes[i]} arr[i] over the leading
    index of arr, added in place on the half spectrum: a divergence, or with
    arr = (a2, -a1) the curl d_1 a2 - d_2 a1."""
    n = arr.shape[-1]
    spec = np.fft.rfft2(arr)
    if not summed:
        return np.array([np.fft.irfft2(spec * _ik(n, a), s=(n, n)) for a in axes])
    for s, a in zip(spec, axes):
        s *= _ik(n, a)
    for s in spec[1:]:
        spec[0] += s
    return np.fft.irfft2(spec[0], s=(n, n))


def partial(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along axis 1 (x) or 2 (y).

    Exact for band-limited fields with max wavenumber < n/2; the Nyquist
    mode is dropped (its odd derivative is not representable on the grid).
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return ScalarField(f.grid, _derivatives(f.values, (axis,))[0])


def integrate(w: TwoForm) -> float:
    """Integral of w over the torus; the lattice mean is exact quadrature
    for trig polynomials below the Nyquist frequency."""
    return w.c12.mean()


def random_band_limited(
    grid: Grid, seed: int, kmax: int, decay: float, zero_mean: bool = False
) -> ScalarField:
    """Random real field with Fourier support in |k|_inf <= kmax.

    Coefficient magnitudes scale like decay^|k|; the draw order is fixed by
    (seed, kmax, decay) only, so the same seed produces samples of the same
    continuum function on every grid size (used by the convergence suites).
    """
    n = grid.n
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax >= n // 4:
        raise ValueError(
            f"kmax={kmax} too large for n={n}: need kmax < n/4 so products "
            "of two fields stay resolvable"
        )
    rng = np.random.default_rng(seed)
    spec = np.zeros((n, n), dtype=complex)
    dc = rng.standard_normal()
    spec[0, 0] = 0.0 if zero_mean else dc
    # half-space of modes: p > 0, or p == 0 and q > 0; conjugates fill the rest
    for p in range(0, kmax + 1):
        qlo = 1 if p == 0 else -kmax
        for q in range(qlo, kmax + 1):
            re, im = rng.standard_normal(2)
            c = 0.5 * (re + 1j * im) * decay ** math.hypot(p, q)
            spec[p % n, q % n] += c
            spec[(-p) % n, (-q) % n] += np.conj(c)
    values = np.fft.ifft2(spec).real * n * n
    return ScalarField(grid, values)


# The chop, declared once.  A field keeps its Fourier mode k when |c_k| >
# CHOP_TOL * max|c| of that field; K is the largest |k|_inf kept over the field
# set.  Every dropped mode lies outside the |k|_inf <= K box, and the l1 mass
# sum |c_k| of the dropped modes bounds the pointwise change of the
# interpolant.  Above CHOP_MASS_LIMIT * max|f| for any field the full band is
# kept.
CHOP_TOL = 1e-14
CHOP_MASS_LIMIT = 1e-11
# points per evaluation block: the (nfields * M, POINT_BLOCK) temporary stays small
POINT_BLOCK = 1024


def _y_weight(n: int, scale: float = 1.0) -> np.ndarray:
    """scale per rfft2 column, doubled on the interior columns, which stand
    for the conjugate -q columns too."""
    w = np.full(n // 2 + 1, 2.0 * scale)
    w[[0, -1]] = scale
    return w


def _chop_band(mag: np.ndarray) -> int:
    """K of the half-spectrum magnitudes mag (F, n, n/2+1): the largest
    |k|_inf of a mode above CHOP_TOL times its field's largest."""
    n = mag.shape[1]
    row_max, col_max = mag.max(axis=2), mag.max(axis=1)
    floor = CHOP_TOL * row_max.max(axis=1, keepdims=True)
    rows = np.flatnonzero((row_max > floor).any(axis=0))
    cols = np.flatnonzero((col_max > floor).any(axis=0))
    return int(max(np.minimum(rows, n - rows).max(initial=0), cols.max(initial=0)))


def _dropped_mass(mag: np.ndarray, band: int) -> np.ndarray:
    """l1 mass per field of the modes outside |k|_inf <= band."""
    n = mag.shape[1]
    w = _y_weight(n)
    outer = (mag[:, band + 1 : n - band] @ w).sum(axis=1)  # |p| > band
    for rows in (slice(0, band + 1), slice(n - band, n)):  # |p| <= band, q > band
        outer += (mag[:, rows, band + 1 :] @ w[band + 1 :]).sum(axis=1)
    return outer


def _dropped_ratio(samples, c, mag, band: int, derivatives: bool) -> float:
    """The chop guard's worst ratio: each field's dropped l1 mass over max|f|
    and, with derivatives, each d_a f's, sum |2 pi k_a| |c_k|, over max|d_a f|
    on the n lattice.  That max costs an irfft2, so it is taken only where the
    rms (Parseval), a lower bound, fails; a reported ratio may only overstate."""
    n = samples.shape[-1]
    mass, norm = [_dropped_mass(mag, band)], [np.abs(samples).max(axis=(1, 2)) * (n * n)]
    if derivatives:
        ik = np.stack(np.broadcast_arrays(_ik(n, 1), _ik(n, 2)))[:, None]
        dmag = (mag * np.abs(ik)).reshape(-1, *mag.shape[1:])
        mass.append(_dropped_mass(dmag, band))
        norm.append(np.sqrt((np.square(dmag) @ _y_weight(n)).sum(axis=1)))  # n^2 rms
        fail = mass[1] > CHOP_MASS_LIMIT * norm[1]
        if fail.any():  # the lattice max of the failing derivatives only
            dspec = (c * ik).reshape(dmag.shape)[fail]
            norm[1][fail] = np.abs(np.fft.irfft2(dspec, s=(n, n))).max(axis=(1, 2)) * (n * n)
    ratio = np.concatenate(mass) / np.maximum(np.concatenate(norm), np.finfo(float).tiny)
    return float(ratio.max())


def _fold(c: np.ndarray, scale: float) -> np.ndarray:
    """Real (F*n, n) coefficient matrix of scale times an rfft2 half spectrum
    (F, n, n/2+1), y basis index major within each field; c is overwritten.

    x rows: d = c_0, c_p + c_-p (cos, p = 1..h-1), c_h (cos), i (c_p - c_-p)
    (sin); y columns of each row d: Re(d e^{2 pi i q y}) = Re d cos - Im d
    sin, the Nyquist mode a cosine.  Each block is written straight into the
    transposed (field, y basis, x basis) layout, so that one product with
    the x basis leaves a (field, y basis, point) array.
    """
    nfields, n = c.shape[:2]
    h = n // 2
    c *= _y_weight(n, scale)  # y modes q and -q share one column
    re, im = c.real, c.imag
    out = np.empty((nfields, n, n))
    rows = out.transpose(0, 2, 1)  # [field, x basis, y basis]
    for p in (0, h):
        rows[:, p, : h + 1] = re[:, p]
        np.negative(im[:, p, 1:h], out=rows[:, p, h + 1 :])
    cos_x, sin_x = rows[:, 1:h], rows[:, h + 1 :]
    np.add(re[:, 1:h], re[:, :h:-1], out=cos_x[:, :, : h + 1])
    np.add(im[:, 1:h, 1:h], im[:, :h:-1, 1:h], out=cos_x[:, :, h + 1 :])
    np.negative(cos_x[:, :, h + 1 :], out=cos_x[:, :, h + 1 :])
    np.subtract(im[:, :h:-1], im[:, 1:h], out=sin_x[:, :, : h + 1])
    np.subtract(re[:, :h:-1, 1:h], re[:, 1:h, 1:h], out=sin_x[:, :, h + 1 :])
    return out.reshape(nfields * n, n)


class Interpolator:
    """Trigonometric interpolation of one or more fields at arbitrary points.

    The field set is chopped at its roundoff plateau (CHOP_TOL): with K the
    largest |k|_inf kept, the |p|, q <= K block of the rfft2 half spectrum is
    copied exactly into the half spectrum of the smallest even grid M =
    max(8, 2K + 2), whose Nyquist modes are then zero.  When M >= n, or the
    dropped l1 mass exceeds CHOP_MASS_LIMIT * max|f| (and, with derivatives,
    its d_x f and d_y f analogue: _dropped_ratio), the full band is kept and
    M = n.  band, eval_n and dropped report K, M and that ratio.

    The coefficients are folded once into a real (nfields*M, M) matrix over
    the real basis 1, cos 2 pi k t (k = 1..M/2), sin 2 pi k t (k = 1..M/2-1)
    on each axis: interior y columns doubled, the +-p pairs in x folded into
    cosine and sine rows, the Nyquist mode a cosine on both axes, so the
    interpolant is real and reproduces the lattice samples.  Points are
    evaluated in blocks of POINT_BLOCK; each block is one real
    (nfields*M x M) @ (M x block) product plus an O(nfields M block)
    contraction with the y basis; derivatives differentiate the basis (to 0
    for the Nyquist cosine, as _ik does), and d_x f takes a second product.
    """

    def __init__(self, fields, derivatives: bool = False):
        fields = list(fields)
        self.grid = _check_same_grid(*fields)
        n = self.grid.n
        self._nfields, self._derivatives = len(fields), derivatives
        samples = np.stack([f.values for f in fields])
        c = np.fft.rfft2(samples)  # n^2 times the Fourier coefficients
        mag = np.abs(c)
        k = _chop_band(mag)
        m = max(8, 2 * k + 2)  # even, and K stays below its Nyquist mode
        dropped = _dropped_ratio(samples, c, mag, k, derivatives) if m < n else 0.0
        if m >= n or dropped > CHOP_MASS_LIMIT:
            k, m, dropped = n // 2, n, 0.0
        else:
            kept = np.zeros((self._nfields, m, m // 2 + 1), dtype=complex)
            kept[:, : k + 1, : k + 1] = c[:, : k + 1, : k + 1]
            kept[:, m - k :, : k + 1] = c[:, n - k :, : k + 1]
            c = kept
        self._band, self._eval_n, self._dropped = k, m, dropped
        self._k = 2.0 * np.pi * np.arange(1.0, m // 2)[:, None]  # 2 pi k, k = 1..M/2-1
        self._packed = _fold(c, 1.0 / (n * n))

    @property
    def band(self) -> int:
        """K, the largest |k|_inf evaluated (n/2 on the full band)."""
        return self._band

    @property
    def eval_n(self) -> int:
        """M, the grid size the evaluator runs on."""
        return self._eval_n

    @property
    def dropped(self) -> float:
        """The worst dropped l1 mass over max|f| (see _dropped_ratio)."""
        return self._dropped

    def _basis(self, coords: np.ndarray, derivative: bool) -> tuple[np.ndarray, ...]:
        # (M, m) rows 1, cos 2 pi k t (k = 1..M/2), sin 2 pi k t (k = 1..M/2-1)
        # from z^k = z^(k-1) z, one contiguous row per step, and their d/dt
        h = self._eval_n // 2
        z = np.exp(2j * np.pi * coords)
        e = np.empty((h + 1, coords.shape[0]), dtype=complex)
        e[0] = 1.0
        for k in range(1, h + 1):
            np.multiply(e[k - 1], z, out=e[k])
        basis = np.concatenate([e.real, e.imag[1:h]])
        if not derivative:
            return (basis,)
        d = np.empty_like(basis)
        d[0] = d[h] = 0.0  # the constant and the Nyquist cosine
        np.multiply(-self._k, basis[h + 1 :], out=d[1:h])  # cos_k -> -2 pi k sin_k
        np.multiply(self._k, basis[1:h], out=d[h + 1 :])  # sin_k -> 2 pi k cos_k
        return basis, d

    def __call__(self, points: np.ndarray, derivatives: bool = False) -> np.ndarray:
        """Evaluate all fields at points of shape (m, 2); returns (nfields, m),
        or with derivatives (3, nfields, m) stacking f, d_x f and d_y f."""
        if derivatives and not self._derivatives:
            raise ValueError("derivatives need an Interpolator built with derivatives=True")
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.empty((3 if derivatives else 1, self._nfields, pts.shape[0]))
        shape = (self._nfields, self._eval_n, -1)
        for lo in range(0, pts.shape[0], POINT_BLOCK):
            block = slice(lo, lo + POINT_BLOCK)
            x, y = pts[block].T
            if not derivatives:
                tmp = (self._packed @ self._basis(x, False)[0]).reshape(shape)
                np.einsum("flm,lm->fm", tmp, self._basis(y, False)[0], out=out[0, :, block])
                continue
            bx = self._basis(x, True)
            tmp = self._packed @ bx[0]
            by = self._basis(y, True)  # after the product, as above: building it first was slower
            np.einsum("flm,lm->fm", tmp.reshape(shape), by[0], out=out[0, :, block])
            np.einsum("flm,lm->fm", tmp.reshape(shape), by[1], out=out[2, :, block])
            np.matmul(self._packed, bx[1], out=tmp)
            np.einsum("flm,lm->fm", tmp.reshape(shape), by[0], out=out[1, :, block])
        return out if derivatives else out[0]


def interpolate(f: ScalarField, point) -> float | np.ndarray:
    """Fourier interpolation of f at a point (x, y) or an (m, 2) array."""
    pts = np.asarray(point, dtype=np.float64)
    single = pts.ndim == 1
    vals = Interpolator([f])(pts)[0]
    return float(vals[0]) if single else vals


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def region_integral(f: ScalarField, rect, order: int = 32) -> float:
    """Gauss-Legendre integral of f(x, y) dx dy over an axis-aligned rectangle.

    rect = (x0, x1, y0, y1) in lifted coordinates (may exceed [0,1)).
    Spectrally convergent for analytic f since the interpolant is entire.
    """
    x0, x1, y0, y1 = rect
    nodes, weights = _gauss_legendre(order)
    xs = 0.5 * (x1 - x0) * (nodes + 1.0) + x0
    ys = 0.5 * (y1 - y0) * (nodes + 1.0) + y0
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    vals = Interpolator([f])(pts)[0].reshape(order, order)
    w2 = np.outer(weights, weights)
    return float((vals * w2).sum() * 0.25 * (x1 - x0) * (y1 - y0))
