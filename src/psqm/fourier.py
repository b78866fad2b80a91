"""Unitary discrete Fourier transforms and band-limited resampling.

The forward transform maps samples on a grid to samples of
f^(xi) = (2*pi)**(-1/2) * integral exp(-i*x*xi) f(x) dx on the dual
grid; it is exactly unitary between the two lattices.  All shifting,
shearing and rescaling helpers act on the band-limited trigonometric
interpolant through the samples (exact on that class, periodic wrap
outside the box).
"""

from __future__ import annotations

import numpy as np

from .grids import Grid1D, GridMismatchError, grids_compatible
from .states import ConfigState

__all__ = [
    "forward_ft",
    "inverse_ft",
    "BandLimitError",
]


class BandLimitError(ValueError):
    """Raised when an operation requires band-limited input and the
    sample spectrum has too much mass near the band edge."""


# ----------------------------------------------------------------- raw array
# Array-level transforms; the state-level API wraps these.

def _sign_alternation(n: int) -> np.ndarray:
    return (-1.0) ** np.arange(n)


def ft_array(values: np.ndarray, grid: Grid1D, axis: int = -1) -> np.ndarray:
    """Samples on ``grid`` -> samples of the transform on ``grid.dual``."""
    n = grid.n_points
    if values.shape[axis] != n:
        raise GridMismatchError("axis length does not match grid")
    xi = grid.dual.points
    shp = [1] * values.ndim
    shp[axis] = n
    sgn = _sign_alternation(n).reshape(shp)
    spec = np.fft.fft(values * sgn, axis=axis)
    phase = (grid.spacing / np.sqrt(2.0 * np.pi)) * np.exp(-1j * grid.points[0] * xi)
    spec *= phase.reshape(shp)
    return spec


def ift_array(values: np.ndarray, dual_grid: Grid1D, out_grid: Grid1D,
              axis: int = -1) -> np.ndarray:
    """Inverse of :func:`ft_array`; ``out_grid`` fixes the sample lattice
    of the reconstruction (defaulting callers pass the dual of the dual)."""
    n = dual_grid.n_points
    if values.shape[axis] != n:
        raise GridMismatchError("axis length does not match grid")
    shp = [1] * values.ndim
    shp[axis] = n
    g = values * np.exp(1j * out_grid.points[0] * dual_grid.points).reshape(shp)
    sgn = _sign_alternation(n).reshape(shp)
    # in place on g, as ((scale * sgn) * ifft(g)) * n
    np.fft.ifft(g, axis=axis, out=g)
    np.multiply((dual_grid.spacing / np.sqrt(2.0 * np.pi)) * sgn, g, out=g)
    g *= n
    return g


def fourier_shift(values: np.ndarray, grid: Grid1D, shift, axis: int = -1) -> np.ndarray:
    """values(t) -> values(t - shift) along ``axis`` via the band-limited
    interpolant, in a complex copy: :func:`lattice_shear` by
    2 * shift / spacing half cells.  ``shift`` is a scalar or one shift
    per slice, broadcastable over the other axes."""
    if values.shape[axis] != grid.n_points:
        raise GridMismatchError("axis length does not match grid")
    out = np.array(np.moveaxis(values, axis, -1), complex)
    steps = np.broadcast_to(2.0 * np.asarray(shift, float) / grid.spacing,
                            out.shape[:-1]).ravel()
    lattice_shear(out.reshape(-1, grid.n_points), steps, 1)
    return np.moveaxis(out, -1, axis)


# Lines per block of the blocked in-place passes (lattice_shear, the
# kernel gathers of psqm.weyl, groenewold_mixed's products and its
# band-edge scan): a block of a 1024-point field is 1 MiB complex.
BLOCK = 64


def lattice_shear(values: np.ndarray, steps, axis: int) -> np.ndarray:
    """Shift slice j of the complex 2-D ``values`` along ``axis`` by
    ``steps[j]`` half cells (finite reals; slices run along the other
    axis), in place, and return ``values``: the package's one shift.

    Slices are sheared :data:`BLOCK` at a time, as rows: along axis 1
    rows of ``values`` itself, rolled from a copy of the block; along
    axis 0 columns, rolled from a C-contiguous transposed copy of the
    block into a second (BLOCK, n) buffer and written back.  The two
    buffers serve every block, so no n x n buffer is made.

    A step is 2w + r, 0 <= r < 2: w whole cells by an exact index roll,
    then, if r != 0, the Fourier step exp(-i*pi*r*k/n) on the signed
    frequencies k, the Nyquist term whole at k = -n/2 (not
    :func:`half_shift`, which splits it).  Its multiplier is one
    length-n row for the call when every nonzero r agrees (the Moyal
    map's half cells), else one row per slice of a block, never an
    n x n phase table.
    """
    axis %= 2
    steps = np.asarray(steps)
    if values.ndim != 2 or steps.shape != (values.shape[1 - axis],):
        raise ValueError("steps must match the complementary axis of a 2-D field")
    if values.dtype != complex:
        raise ValueError(f"lattice_shear shears complex values in place, got {values.dtype}")
    if not np.isfinite(steps).all():
        raise ValueError("lattice_shear steps must be finite numbers of half cells")
    n = values.shape[axis]
    shifts = ((steps // 2) % n).astype(int).tolist()

    def step(r):  # the Fourier step exp(-i*pi*r*k/n), one row per remainder r
        return np.exp(-1j * np.pi * (r[:, None] * np.fft.fftfreq(n, 1.0 / n)) / n)

    fracs = steps[steps % 2 != 0] % 2
    mult = step(fracs[:1]) if fracs.size and (fracs == fracs[0]).all() else None
    del fracs
    # one (BLOCK, n) copy to roll from, and along axis 0 one to roll into
    src = np.empty((min(BLOCK, len(shifts)), n), complex)
    buf = np.empty_like(src) if axis == 0 else None
    for lo in range(0, len(shifts), BLOCK):
        part = shifts[lo:lo + BLOCK]
        hi = lo + len(part)
        if axis == 1:
            rows = values[lo:hi]
            np.copyto(src[:len(part)], rows)
        else:
            rows = buf[:len(part)]
            np.copyto(src[:len(part)], values[:, lo:hi].T)
        for j, s in enumerate(part):
            rows[j, s:] = src[j, :n - s]
            rows[j, :s] = src[j, n - s:]
        frac = np.flatnonzero(steps[lo:hi] % 2)
        if frac.size:
            block = rows[frac]
            np.fft.fft(block, axis=1, out=block)
            block *= step(steps[lo:hi][frac] % 2) if mult is None else mult
            rows[frac] = np.fft.ifft(block, axis=1, out=block)
            del block
        if axis == 0:
            values[:, lo:hi] = rows.T
    return values


def axis_spectrum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.fft.rfft`` (real values) or ``np.fft.fft`` along ``axis``, bit
    for bit, taken along the rows of a contiguous copy with ``axis``
    last (for axis 0 of a 2-D field it comes back as a transposed view)."""
    fft = np.fft.rfft if np.isrealobj(values) else np.fft.fft
    return np.moveaxis(fft(np.ascontiguousarray(np.moveaxis(values, axis, -1))), -1, axis)


def half_shift(values: np.ndarray, axis: int = -1, spectrum=None) -> np.ndarray:
    """Band-limited interpolant at the half-cell midpoints x_k + spacing/2.

    The Nyquist coefficient is split evenly between the two band edges
    (its cosine vanishes at the midpoints), so real data interpolates to
    real values (real values take the real transform pair).  This
    differs from :func:`lattice_shear`'s half-cell step (and
    :func:`fourier_shift`'s), which keeps the whole Nyquist term at
    k = -n/2.  ``spectrum`` may give :func:`axis_spectrum` of
    ``values``, which the call then overwrites: the shift is formed in
    the spectrum's buffer, the result itself for complex values.  The
    work runs with ``axis`` last, as there.
    """
    n = values.shape[axis]
    if spectrum is None:
        spectrum = axis_spectrum(values, axis)
    k = np.fft.fftfreq(n, 1.0 / n)[:spectrum.shape[axis]]    # rfft: 0 .. n//2
    spec = np.moveaxis(spectrum, axis, -1)
    spec *= np.where(k == -n / 2, 0.0, np.exp(1j * np.pi * k / n))
    out = np.fft.irfft(spec, n) if np.isrealobj(values) else np.fft.ifft(spec, out=spec)
    return np.moveaxis(out, -1, axis)


def upsample2(values: np.ndarray, axis: int = -1, spectrum=None) -> np.ndarray:
    """Evaluate the band-limited interpolant on the half-spacing lattice
    (2N points over the same box): the samples in the even entries of
    one buffer, their :func:`half_shift` in the odd ones (``spectrum``
    as there)."""
    axis %= values.ndim
    half = half_shift(values, axis, spectrum)
    shape = list(values.shape)
    shape[axis] *= 2
    out = np.empty(shape, half.dtype)
    pairs = np.moveaxis(out, axis, 0)
    pairs[0::2], pairs[1::2] = np.moveaxis(values, axis, 0), np.moveaxis(half, axis, 0)
    return out


def resample_scaled(values: np.ndarray, grid: Grid1D, alpha: float,
                    axis: int = -1) -> np.ndarray:
    """values(x) -> values(alpha * x) along ``axis``: the transform
    (:func:`ft_array`) summed back at the points alpha * x_k by the table
    E = (dxi/sqrt(2*pi)) exp(i*alpha*x (x) xi), formed on each call."""
    xi = grid.dual.points
    E = (grid.dual.spacing / np.sqrt(2.0 * np.pi)) * np.exp(
        1j * np.outer(alpha * grid.points, xi))
    spec = np.moveaxis(ft_array(values, grid, axis), axis, 0)
    return np.moveaxis(np.tensordot(E, spec, axes=(1, 0)), 0, axis)


def band_edge_fraction(values: np.ndarray, spectra=None) -> float:
    """Relative spectral amplitude in the outer quarter of the band,
    maximized over axes, NaN if a spectrum holds one; the band-edge
    guard (:func:`require_band_limited`) tests this.  ``spectra``
    may give, for each axis in turn, the unshifted FFT (or rfft) of
    ``values`` along it, for a caller that transforms them anyway, or an
    iterable of the blocks that tile that spectrum along another axis,
    for one that holds no whole spectrum; the value is the same bit for
    bit."""
    if spectra is None:
        spectra = (axis_spectrum(values, axis) for axis in range(values.ndim))
    worst = 0.0
    for axis, spec in enumerate(spectra):
        n = values.shape[axis]
        k = np.abs(np.fft.fftfreq(n, 1.0 / n))
        totals, outers = [], []
        for block in [spec] if isinstance(spec, np.ndarray) else spec:
            mag = np.abs(block)  # one magnitude pass
            totals.append(mag.max())
            edge = k[:block.shape[axis]] >= 0.75 * (n // 2)
            outers.append(np.compress(edge, mag, axis=axis).max())
        total = np.max(totals)
        if total == 0:
            continue
        worst = np.maximum(worst, np.max(outers) / total)   # NaN propagates
    return float(worst)


# Both band-edge guards of psqm.weyl (sampled-symbol interpolation, the
# sampled factor of a polynomial star product) refuse fractions above this:
# admissible symbols sit at 1e-8 or below, periodized polynomials near 1e-2.
BAND_EDGE_TOL = 1e-5


def require_band_limited(values: np.ndarray, what: str, spectra=None) -> None:
    """Refuse (:class:`BandLimitError`) a :func:`band_edge_fraction`
    (``spectra`` as there) not at most :data:`BAND_EDGE_TOL`, NaN included."""
    frac = band_edge_fraction(values, spectra)
    if not frac <= BAND_EDGE_TOL:
        raise BandLimitError(
            f"{what} is not band-limited enough: relative band-edge "
            f"amplitude {frac:.2e} exceeds {BAND_EDGE_TOL:.0e}"
        )


# ----------------------------------------------------------------- states

def forward_ft(state: ConfigState) -> ConfigState:
    """Unitary Fourier transform onto the dual grid."""
    return ConfigState(state.grid.dual, ft_array(state.values, state.grid, axis=0))


def inverse_ft(state: ConfigState, out_grid: Grid1D | None = None) -> ConfigState:
    """Inverse transform; ``out_grid`` selects the reconstruction lattice
    (defaults to the dual of the input grid)."""
    grid = out_grid if out_grid is not None else state.grid.dual
    if not grids_compatible(grid.dual, state.grid):
        raise GridMismatchError("out_grid is not dual to the input grid")
    return ConfigState(grid, ift_array(state.values, state.grid, grid, axis=0))

