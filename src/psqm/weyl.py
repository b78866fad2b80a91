"""Weyl calculus on configuration space.

Symbols a(x, xi_x) live on a :class:`PhaseGrid` whose p axis doubles as
the xi_x axis; for quantization that axis must be the Fourier dual of
the x axis (``grid.is_weyl_ready``).  The kernel of the quantized
operator is

    K_a(x, y) = (2*pi)**(-1) * integral exp(i*xi*(x-y)) a((x+y)/2, xi) dxi

discretized with the symbol evaluated at the *torus-geodesic* midpoint
of (x, y): for sample pairs wrapping around the periodic box the
midpoint on the short path differs from the arithmetic one by the
half-period, and this choice makes the composition correspondence
quantize(a (*) b) = quantize(a) @ quantize(b) exact on the lattice.

Midpoint values of a polynomial symbol are its coefficients evaluated
there; those of a sampled symbol come from band-limited Fourier
interpolation of the samples, guarded by a band-edge spectral test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import (Grid1D, PhaseGrid, GridMismatchError, grids_compatible)
from . import fourier

__all__ = [
    "Symbol",
    "LinOp",
    "dense_apply",
    "symbol_to_kernel",
    "kernel_to_symbol",
    "quantize_config",
    "heisenberg_weyl",
    "moyal_product",
]

# State components below sqrt(tiny) (1.5e-154) are zeroed before a dense
# product, so no partial product in the GEMM is subnormal (BLAS runs
# several times slower on those).  Lifted n=1024 states carry tails near
# 1e-300; matrix entries stay above sqrt(tiny) (the oscillator's
# eigenvectors bottom out near 1e-29 at n=1024).
FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))

# A real symbol's matrix M is stored real (symbol_to_kernel) when
# max|Im M| <= REAL_EIGH_TOL * max|M|.  Measured for n = 64..1024: xi-even
# real symbols (oscillator, free particle, a sampled Gaussian) read
# 8.8e-17..5.1e-15; x reads 0, xi and x*xi read 1.0.  So the bound is
# 2000x above round-off and 1e11 below the complex matrices.
REAL_EIGH_TOL = 1e-11

# LinOp.eigh refuses a Hermiticity defect above this bound; it symmetrizes a smaller one.
HERM_TOL = 1e-8


def dense_apply(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``matrix @ values`` along axis 0 of config or phase-space samples:
    the one product of a config-space matrix with a state.  Nonzero
    components below :data:`FLUSH_BELOW` are zeroed in a copy, made only
    if there are any, moving the result by at most n*max|matrix|*1.5e-154;
    a real matrix multiplies complex values as one real GEMM on their
    interleaved (n, 2m) float view."""
    flat = np.ascontiguousarray(values.reshape(matrix.shape[1], -1))
    parts = flat.view(flat.real.dtype) if np.iscomplexobj(flat) else flat
    small = (parts < FLUSH_BELOW) & (parts > -FLUSH_BELOW) & (parts != 0)
    if small.any():
        flat = flat.copy()
        parts = flat.view(parts.dtype)
        parts[small] = 0
    if np.isrealobj(matrix) and np.iscomplexobj(flat):
        out = (matrix @ parts).view(flat.dtype)
    else:
        out = matrix @ flat
    return out.reshape((matrix.shape[0],) + values.shape[1:])


# ---------------------------------------------------------------- polynomials
# Polynomial symbols are dicts {(i, j): coeff} meaning coeff * x**i * xi**j.

def _xi_columns(terms: dict, x):
    """(e1, sum of c * x**e0 over the terms {(e0, e1): c}) for each power
    e1 of xi in turn: one product by xi**e1 per power, none for e1 = 0."""
    for e1 in dict.fromkeys(e1 for _, e1 in terms):
        yield e1, sum(c * x ** e0 for (e0, f1), c in terms.items() if f1 == e1)


def poly_eval(poly: dict, X: np.ndarray, XI: np.ndarray) -> np.ndarray:
    """Values at real points: in float when every coefficient is real."""
    real = all(complex(c).imag == 0 for c in poly.values())
    if real:
        poly = {key: c.real for key, c in poly.items()}
    out = np.zeros(np.broadcast(X, XI).shape, float if real else complex)
    for e1, col in _xi_columns(poly, X):
        out += col * XI ** e1 if e1 else col
    return out


def _poly_deriv(poly: dict, dx_order: int, dxi_order: int) -> dict:
    """d_x**dx_order d_xi**dxi_order of a polynomial: each surviving
    monomial times the falling factorials of its exponents."""
    return {(i - dx_order, j - dxi_order):
            c * math.perm(i, dx_order) * math.perm(j, dxi_order)
            for (i, j), c in poly.items() if i >= dx_order and j >= dxi_order}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0.0) + c * d
    return {k: v for k, v in out.items() if v != 0}


def poly_degree(poly: dict) -> int:
    return max((i + j for (i, j) in poly), default=0)


def _frozen(values: np.ndarray) -> np.ndarray:
    """A fresh array made read-only, so a :class:`Symbol` takes it
    without a copy."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Symbol:
    """Classical observable a(x, xi_x) on ``grid``, held in exactly one
    encoding: its samples, interpolated between grid points, or its
    monomial coefficients ``poly``, which give exact values anywhere and
    the exact finite star-product expansion.  A symbol with both, or
    neither, is refused (ValueError).

    A symbol is immutable: ``values`` is a read-only array.  A caller's
    writeable array is copied, so writing into it later changes neither
    the symbol nor the operator :func:`quantize_config` stores on it; a
    read-only array is taken as is, its owner promising not to write it
    while the symbol lives.  A polynomial symbol keeps its coefficients
    and no samples: its ``values`` are evaluated on each read, into a
    fresh read-only array.
    """

    grid: PhaseGrid
    _samples: Optional[np.ndarray]
    poly: Optional[dict] = None
    _op: Optional["LinOp"] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if (self._samples is None) == (self.poly is None):
            raise ValueError("a Symbol holds exactly one of samples and poly, got "
                             + ("both" if self.poly is not None else "neither"))
        if self.poly is not None:
            return
        values = np.asarray(self._samples, dtype=complex)
        if values.shape != self.grid.shape:
            raise GridMismatchError("symbol values do not match grid shape")
        if values.flags.writeable and np.may_share_memory(values, self._samples):
            values = values.copy()
        object.__setattr__(self, "_samples", _frozen(values))

    @property
    def values(self) -> np.ndarray:
        if self._samples is not None:
            return self._samples
        col, row = self.grid.x_grid.points[:, None], self.grid.p_grid.points[None, :]
        return _frozen(np.asarray(poly_eval(self.poly, col, row), complex))

    # -- constructors -------------------------------------------------
    @classmethod
    def from_samples(cls, grid: PhaseGrid, values: np.ndarray) -> "Symbol":
        """The symbol of sampled values, interpolated between samples;
        a writeable ``values`` array is copied."""
        return cls(grid, values)

    @classmethod
    def polynomial(cls, grid: PhaseGrid, coeffs: dict) -> "Symbol":
        return cls(grid, None, poly=dict(coeffs))

    @classmethod
    def unit(cls, grid: PhaseGrid) -> "Symbol":
        return cls.polynomial(grid, {(0, 0): 1.0})

    @classmethod
    def coordinate(cls, grid: PhaseGrid) -> "Symbol":
        return cls.polynomial(grid, {(1, 0): 1.0})

    @classmethod
    def momentum(cls, grid: PhaseGrid) -> "Symbol":
        return cls.polynomial(grid, {(0, 1): 1.0})

    @classmethod
    def oscillator(cls, grid: PhaseGrid) -> "Symbol":
        return cls.polynomial(grid, {(2, 0): 0.5, (0, 2): 0.5})

    @classmethod
    def free_particle(cls, grid: PhaseGrid) -> "Symbol":
        return cls.polynomial(grid, {(0, 2): 0.5})

    @property
    def is_polynomial(self) -> bool:
        return self.poly is not None


def _x_grid(state) -> Grid1D:
    """The x grid of a config state, or of a phase-space state."""
    return state.grid.x_grid if isinstance(state.grid, PhaseGrid) else state.grid


@dataclass(eq=False)
class LinOp:
    """Dense config-space matrix of an operator: a real or complex
    (n, n) array on a :class:`Grid1D`, acting along axis 0.  A symbol's
    operator is its Weyl kernel times dx (:func:`symbol_to_kernel`), the
    phase-space operator is this matrix along x, the Moyal operator its
    conjugate by the Moyal map, so no other dense operator is needed.

    The matrix is held as a read-only view, so its Hermiticity defect
    max|M - M*|/max|M| and eigendecomposition, each computed once on first
    use, stay valid for its lifetime.  A real symbol's matrix, Hermitian by
    construction, gets defect 0 from :func:`symbol_to_kernel` unmeasured.
    """

    grid: Grid1D
    matrix: np.ndarray
    _defect: Optional[float] = field(default=None, init=False, repr=False)
    _eigh: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.grid, Grid1D):
            raise GridMismatchError(
                f"LinOp is a config-space matrix on a Grid1D, got {type(self.grid).__name__}")
        M = np.asarray(self.matrix)
        self.matrix = np.asarray(M, complex if np.iscomplexobj(M) else float).view()
        self.matrix.flags.writeable = False
        n = self.grid.n_points
        if self.matrix.shape != (n, n):
            raise GridMismatchError(
                f"operator matrix of shape {self.matrix.shape} on a grid of {n} points")

    def _require_grid(self, state) -> None:
        if not grids_compatible(_x_grid(state), self.grid):
            raise GridMismatchError("state x grid does not match operator grid")

    def apply(self, state):
        """The matrix along axis 0 of a config or phase-space state on
        the operator's x grid (:func:`dense_apply`)."""
        self._require_grid(state)
        return state.with_values(dense_apply(self.matrix, state.values))

    def hermiticity_defect(self) -> float:
        """max|M - M*| / max|M|, computed once per operator."""
        if self._defect is None:
            M = self.matrix
            self._defect = float(np.abs(M - M.conj().T).max()
                                 / max(np.abs(M).max(), 1e-300))
        return self._defect

    def eigh(self):
        """(w ascending, V) of H = (M + M*)/2, computed once per operator;
        refuses (ValueError) a Hermiticity defect above :data:`HERM_TOL`,
        or NaN, on every call.  H is M itself when the defect is 0 (M = M*
        bit for bit): only a matrix with a nonzero defect is symmetrized.
        V is real when M is (:func:`symbol_to_kernel` stores a real
        symbol's matrix real when it is real up to round-off).  Both
        arrays are read-only."""
        if not self.hermiticity_defect() <= HERM_TOL:
            raise ValueError(f"operator is not Hermitian (defect {self._defect:.2e})")
        if self._eigh is None:
            M = self.matrix
            w, V = np.linalg.eigh((M + M.conj().T) * 0.5 if self._defect else M)
            # V* for propagate: a view when V is real, one cached copy otherwise
            Vh = V.conj().T
            for arr in (w, V, Vh):
                arr.flags.writeable = False
            self._eigh = (w, V, Vh)
        return self._eigh[:2]

    def propagate(self, state, t: float):
        """exp(-i t M) applied along axis 0 of a config or phase-space
        state on the operator's x grid.  Computed as V (e^{-i t w} (V*
        values)) from :meth:`eigh`, which refuses non-Hermitian
        operators, without forming the propagator; both products go
        through :func:`dense_apply` (one real GEMM each when V is real)."""
        self._require_grid(state)
        self.eigh()
        w, V, Vh = self._eigh
        coeffs = dense_apply(Vh, state.values)
        coeffs *= np.exp(-1j * w * float(t)).reshape((-1,) + (1,) * (coeffs.ndim - 1))
        return state.with_values(dense_apply(V, coeffs))


# ------------------------------------------------------------ kernel machinery

def _midpoint_block(i: np.ndarray, j: np.ndarray, torus: bool) -> np.ndarray:
    """Flat int32 index S*n + D into the (2N, N) table of the half-lattice
    midpoint index S of (x_i, x_j) and the periodic difference index
    D = (i - j) mod n: entry (i, j) of the kernel, for the rows ``i`` (a
    column) and the columns ``j`` (all n of them), both int32.

    ``torus`` selects the torus-geodesic midpoint (short-path midpoint,
    shifted by the half period for wrapped pairs): the right choice for
    decaying symbols, making the composition correspondence exact on the
    lattice.  Unbounded polynomial symbols instead use the arithmetic
    midpoint, which reproduces the canonical symmetrized operator
    products exactly.  S is symmetric; (j, i) has index (n - D) mod n.
    """
    n = j.size
    S, D = i + j, i - j
    if torus:
        wrap = (D > n // 2) | (D < -(n // 2))
        np.add(S, n, out=S, where=wrap)
        np.remainder(S, 2 * n, out=S, where=wrap)
    S *= n
    D %= n
    S += D
    return S


def _midpoint_values(a: Symbol) -> np.ndarray:
    """Symbol values on the half lattice (2N x N): a polynomial's
    coefficients evaluated there exactly; a sampled symbol's samples
    interpolated, guarded by the band-edge test, whose x spectrum the
    interpolation reuses.  The table is real when its imaginary part is
    0 (real samples take the real half shift), and a fresh array the
    caller may overwrite."""
    if a.is_polynomial:
        xg = a.grid.x_grid
        xh = xg.points[0] + 0.5 * xg.spacing * np.arange(2 * xg.n_points)
        amid = poly_eval(a.poly, xh[:, None], a.grid.p_grid.points[None, :])
        return amid.real if np.iscomplexobj(amid) and not amid.imag.any() else amid
    values = a.values if a.values.imag.any() else a.values.real
    spec_x = fourier.axis_spectrum(values, 0)
    fourier.require_band_limited(values, "sampled symbol (midpoint interpolation)",
                                 (spec_x, fourier.axis_spectrum(values, 1)))
    return fourier.upsample2(values, 0, spec_x)


def symbol_to_kernel(a: Symbol) -> LinOp:
    """Symbol -> its Weyl operator: the kernel K_a(x_i, x_j) of the
    midpoint/oscillatory integral times dx, built on every call
    (:func:`quantize_config` builds it once per symbol).

    A real midpoint table (a real symbol) is transformed over the offsets
    0..n/2 only; offsets n/2+1..n-1 are their conjugates and offsets 0
    and n/2 are set real, so the matrix equals its conjugate transpose
    bit for bit and its :class:`LinOp` takes the Hermiticity defect as 0
    unmeasured.  Such a matrix that is real up to round-off
    (:data:`REAL_EIGH_TOL`: x, the oscillator, the free particle) is
    stored real, so it applies as one real GEMM and decomposes in real
    arithmetic."""
    if not a.grid.is_weyl_ready:
        raise GridMismatchError(
            "symbol grid must have p axis dual to the x axis for Weyl "
            "quantization (use a self-dual phase grid or PhaseGrid(g, g.dual))")
    xg = a.grid.x_grid
    n = xg.n_points
    xi = a.grid.p_grid.points
    amid = _midpoint_values(a)
    # sum_m a(., xi_m) exp(i*xi_m*d*dx) = exp(i*xi_0*d*dx) * n * ifft over m
    post = (a.grid.p_grid.spacing * n / (2 * np.pi)) * np.exp(
        1j * xi[0] * np.arange(n) * xg.spacing)
    real = np.isrealobj(amid)
    if real:
        h = n // 2 + 1
        half = np.fft.ihfft(amid, axis=1)
        del amid
        B = np.empty((2 * n, n), complex)                         # (2N, N)
        np.multiply(half, post[:h], out=B[:, :h])
        del half
        np.conjugate(B[:, h - 2:0:-1], out=B[:, h:])
        B.imag[:, [0, n // 2]] = 0.0
    else:
        B = np.fft.ifft(amid, axis=1, out=amid)   # the table is this call's
        B *= post
    M = np.empty((n, n), B.dtype)
    # int32 flat indices (they fit every lattice psqm.grids admits), formed
    # per fourier.BLOCK of rows, so neither they nor np.take's intp copy is n x n
    j = np.arange(n, dtype=np.int32)
    for lo in range(0, n, fourier.BLOCK):
        i = j[lo:lo + fourier.BLOCK, None]
        # "raise" would buffer out as a (BLOCK, n) copy; S < 2n, D < n: no index wraps
        B.take(_midpoint_block(i, j, not a.is_polynomial), out=M[lo:lo + fourier.BLOCK],
               mode="wrap")
    del B
    M *= xg.spacing
    if real and np.abs(M.imag).max() <= REAL_EIGH_TOL * np.abs(M).max():
        M = np.ascontiguousarray(M.real)
    op = LinOp(xg, M)
    op._defect = 0.0 if real else None
    return op


def _offset_block(i: np.ndarray, n: int) -> tuple:
    """Flat int32 indices of (x_i + t/2, x_i - t/2) for the rows ``i`` (an
    int32 column) and the offsets t in FFT order: even t into the kernel
    at (i + t/2, i - t/2), odd t into the transposed half-cell shifted
    kernel at (i - (t+1)/2, i + (t-1)/2)."""
    t = np.fft.fftfreq(n, 1.0 / n).astype(np.int32)
    u, v = (i + t // 2) % n, (i - (t + 1) // 2) % n
    return u[:, 0::2] * n + v[:, 0::2], v[:, 1::2] * n + u[:, 1::2]


def kernel_to_symbol(op: LinOp) -> Symbol:
    """Operator -> Weyl symbol (inverse of :func:`symbol_to_kernel`),
    read from its matrix, the kernel times dx; a real matrix is read in
    real arithmetic.

    The y-quadrature runs on the band-limited interpolant of the kernel,
    which needs only the samples themselves (even offsets) and the
    samples shifted by half a cell on both axes (odd offsets), gathered
    as vals[i, t] = K(x_i + t/2, x_i - t/2).  The translation-invariant
    (torus-Toeplitz) part, whose Nyquist frequency the half-lattice
    quadrature cannot see on an even lattice, is inverted exactly
    instead.  Column t of vals covers the torus diagonal of offset t
    once, so its mean is that part there: the diagonal mean tau[t] for
    even t, tau[t] + N for odd t, N being tau's Nyquist coefficient,
    which the half shift drops.
    """
    xg = op.grid
    n = xg.n_points
    grid = PhaseGrid(xg, xg.dual)
    xi = grid.p_grid.points
    M = op.matrix
    # both shifts run in place, the second along the rows of the transpose
    mid_t = np.ascontiguousarray(fourier.half_shift(M, 1).T)
    mid_t = fourier.half_shift(mid_t, 1, np.fft.rfft(mid_t) if np.isrealobj(M)
                               else np.fft.fft(mid_t, out=mid_t))
    vals = np.empty((n, n), complex)
    rows = np.arange(n, dtype=np.int32)[:, None]
    for lo in range(0, n, fourier.BLOCK):
        hi = lo + fourier.BLOCK
        even, odd = _offset_block(rows[lo:hi], n)
        vals[lo:hi, 0::2] = M.take(even)
        vals[lo:hi, 1::2] = mid_t.take(odd)
    del mid_t
    tau = vals.mean(axis=0)
    vals -= tau
    tau[1::2] -= 2.0 / n * (tau[0::2].sum() - tau[1::2].sum())  # N
    alpha = np.fft.fftshift(np.fft.fft(tau))
    # sum_t exp(-i*t*dx*xi_m) = exp(-i*t*dx*xi_0) exp(-2*pi*i*t*m/n): one FFT
    vals *= np.exp(-1j * np.fft.fftfreq(n, 1.0 / n) * xg.spacing * xi[0])
    np.fft.fft(vals, axis=1, out=vals)
    vals += alpha
    return Symbol(grid, _frozen(vals))


def quantize_config(a: Symbol) -> LinOp:
    """The Weyl operator of ``a`` on the x grid: :func:`symbol_to_kernel`,
    built on the first call and stored on ``a``.  Every later call
    returns the same :class:`LinOp`, so one symbol has one matrix and
    one eigendecomposition, shared by :func:`psqm.spectral.eig`, the
    phase-space and Moyal operators and every report built on them.
    The matrix (and the eigenbasis once taken) live as long as ``a``.
    The identity symbol yields the identity matrix to round-off
    (max|M - I| is 2.2e-16 at n = 64, 256 and 1024), not exactly.
    """
    if a._op is None:
        object.__setattr__(a, "_op", symbol_to_kernel(a))
    return a._op


# ------------------------------------------------------- displacement operator

def heisenberg_weyl(z0, state):
    """Displacement by z0 = (x0, xi0) along x, of a config state or,
    as T(z0) (x) 1, of a phase-space state:
    psi -> exp(i*(xi0*x - xi0*x0/2)) psi(x - x0), by
    :func:`psqm.fourier.fourier_shift` by x0 (whole cells move by an
    exact index roll), then the phase.  A non-finite x0 or xi0 is
    refused (ValueError)."""
    x0, xi0 = float(z0[0]), float(z0[1])
    if not (np.isfinite(x0) and np.isfinite(xi0)):
        raise ValueError(f"displacement z0 = (x0, xi0) must be finite, got ({x0!r}, {xi0!r})")
    grid, values = _x_grid(state), state.values
    shifted = fourier.fourier_shift(values, grid, x0, axis=0)
    phase = np.exp(1j * (xi0 * grid.points - 0.5 * xi0 * x0))
    return state.with_values(phase.reshape((-1,) + (1,) * (values.ndim - 1)) * shifted)


# ------------------------------------------------------------- Moyal product

def _groenewold_terms(kmax: int):
    """Terms of the Groenewold series up to order ``kmax``, where a
    polynomial factor's series terminates:

        a * b = sum_k (i/2)**k / k! sum_j C(k, j) (-1)**j
                (d_x^(k-j) d_xi^j a) (d_x^j d_xi^(k-j) b),

    as (coefficient, (x, xi) orders on a, (x, xi) orders on b)."""
    for k in range(kmax + 1):
        coef = (0.5j) ** k / math.factorial(k)
        for j in range(k + 1):
            yield coef * math.comb(k, j) * (-1) ** j, (k - j, j), (j, k - j)


def _groenewold_poly(pa: dict, pb: dict) -> dict:
    """Exact star product of two polynomial symbols (finite expansion)."""
    out: dict = {}
    for sgn, left, right in _groenewold_terms(min(poly_degree(pa), poly_degree(pb))):
        term = poly_mul(_poly_deriv(pa, *left), _poly_deriv(pb, *right))
        for key, c in term.items():
            out[key] = out.get(key, 0.0) + sgn * c
    return {k: v for k, v in out.items() if v != 0}


def _outer_sum(src: np.ndarray, base, terms: dict, in_place: bool) -> np.ndarray:
    """sum of c * base[0]**e0 * base[1]**e1 * src over ``terms``
    {(e0, e1): c}, with base[0] a column and base[1] a row: one
    broadcast multiply per distinct e1, formed :data:`fourier.BLOCK`
    rows at a time into one array, ``src`` itself when ``in_place``,
    else a new one in ``src``'s layout."""
    cols = [(col, base[1] ** e1 if e1 else None)
            for e1, col in _xi_columns(terms, base[0])]
    out = src if in_place else np.empty_like(src, complex)
    for lo in range(0, src.shape[0], fourier.BLOCK):
        hi = lo + fourier.BLOCK
        dst = out[lo:hi]
        acc = None
        for k, (col, row) in enumerate(cols):
            # the output block takes the first product, or in place the
            # last (src's block is then read for the last time)
            into = dst if k == (len(cols) - 1 if in_place else 0) else None
            t = np.multiply(src[lo:hi], col[lo:hi], out=into)
            if row is not None:
                t *= row
            if acc is None:
                acc = t
            elif t is dst:
                acc = np.add(acc, t, out=dst)   # acc + t, as acc += t (it commutes)
            else:
                acc += t
    return out


def groenewold_mixed(poly: dict, values: np.ndarray, grid: PhaseGrid,
                     poly_on_left: bool) -> np.ndarray:
    """Star product where one factor is polynomial: the bidifferential
    series terminates at the polynomial degree.  Analytic derivatives on
    the polynomial side, spectral on the sampled side.

    A term c x**u xi**v (d_x**j d_xi**l values) needs the transform of
    the sampled factor along each axis it differentiates; the coordinate
    along an untransformed axis commutes with that transform and joins
    the 1-D multipliers.  Terms with the same transformed axes and the
    same coordinate powers along them share one inverse transform, so a
    quadratic factor costs two forward and two inverse one-axis passes,
    plus one 2-D pass when a term carries d_x d_xi.

    The band-edge guard (:func:`psqm.fourier.require_band_limited`)
    refuses before any term is formed.  It reads the x spectrum, which
    is kept for the x terms, and the p spectrum in row blocks; the whole
    p spectrum is formed only when the last group of terms reads it, so
    at most one spectrum and the sum are held at a time.
    """
    # complex C-ordered values, as the first term's array becomes the sum
    values = np.asarray(values, complex, order="C")
    # the x spectrum is taken in place along the rows of a transposed copy
    # and kept in that layout (a transposed view), so the x passes,
    # forward and inverse, read contiguous memory
    spec_x = np.array(values.T, order="C")
    spec_x = np.fft.fft(spec_x, axis=1, out=spec_x).T
    rows = range(0, values.shape[0], fourier.BLOCK)
    fourier.require_band_limited(
        values, "star-product factor",
        (spec_x, (np.fft.fft(values[lo:lo + fourier.BLOCK], axis=1) for lo in rows)))
    coords = (grid.x_grid.points[:, None], grid.p_grid.points[None, :])
    ik = (1j * np.fft.ifftshift(grid.x_grid.dual.points)[:, None],
          1j * np.fft.ifftshift(grid.p_grid.dual.points)[None, :])
    # groups[transformed axes][coordinate powers along them] =
    #     {(exponent along x, exponent along xi): coefficient}
    groups: dict = {}
    for sgn, left, right in _groenewold_terms(poly_degree(poly)):
        on_poly, on_values = (left, right) if poly_on_left else (right, left)
        axes = tuple(d for d in (0, 1) if on_values[d])
        for powers, c in _poly_deriv(poly, *on_poly).items():
            after = tuple(powers[d] if on_values[d] else 0 for d in (0, 1))
            exps = tuple(on_values[d] or powers[d] for d in (0, 1))
            terms = groups.setdefault(axes, {}).setdefault(after, {})
            terms[exps] = terms.get(exps, 0.0) + sgn * c
    # the x spectrum is dropped now if no group reads it, else after its
    # last group
    if not groups.keys() & {(0,), (0, 1)}:
        spec_x = None
    out = None
    for axes in ((), (0,), (0, 1), (1,)):
        if axes not in groups:
            continue
        # the caller's values, and the x spectrum while the 2-D one is
        # still to be built from it, are not overwritten; the last group
        # to read the x spectrum takes it (the 2-D one is the x spectrum,
        # transformed along p in place), and the p spectrum is formed here
        keep = axes == () or (axes == (0,) and (0, 1) in groups)
        if axes == ():
            src = values
        elif axes == (1,):
            src = np.fft.fft(values, axis=1)
        else:
            src, spec_x = spec_x, (spec_x if keep else None)
        if axes == (0, 1):
            np.fft.fft(src, axis=1, out=src)
        base = tuple(ik[d] if d in axes else coords[d] for d in (0, 1))
        todo = list(groups[axes].items())
        for i, (after, terms) in enumerate(todo):
            acc = _outer_sum(src, base, terms, not keep and i == len(todo) - 1)
            if axes:
                np.fft.ifftn(acc, axes=axes, out=acc)
            for d in (0, 1):
                if after[d]:
                    acc *= coords[d] ** after[d]
            if out is None:
                # the sum accumulates into the first term; adding 0.0 turns
                # its -0 into +0, as the zero start it replaces did
                out = acc
                out += 0.0
            else:
                out += acc
            del acc
        del src
    return np.zeros(grid.shape, complex) if out is None else out


def star_values(a, b, grid: PhaseGrid) -> np.ndarray:
    """Array-level star product of a sampled :class:`Symbol` with a
    sampled one or a polynomial dict (two polynomials multiply in
    :func:`moyal_product`).  A sampled factor of a polynomial one is
    refused (BandLimitError) when its spectrum reaches the band edge."""
    if isinstance(a, dict):
        return groenewold_mixed(a, b.values, grid, True)
    if isinstance(b, dict):
        return groenewold_mixed(b, a.values, grid, False)
    # both sampled: the symbol of the product of the operators' matrices,
    # each the operator its factor already owns, else a transient one
    # (the interpolation guard in symbol_to_kernel refuses factors
    # reaching the band edge), dropped before kernel_to_symbol runs
    Mab = (a._op or symbol_to_kernel(a)).matrix
    Mab = Mab @ (b._op or symbol_to_kernel(b)).matrix
    return kernel_to_symbol(LinOp(grid.x_grid, Mab)).values


def moyal_product(a: Symbol, b: Symbol) -> Symbol:
    """Star product of two symbols.

    Polynomial factors use the exact finite bidifferential expansion;
    two sampled factors take the symbol of the product of their
    operators' matrices, rejecting inputs whose spectra reach the band
    edge (interpolation guard).  Satisfies
    quantize(a*b) = quantize(a) @ quantize(b) on the lattice.
    """
    if not (grids_compatible(a.grid.x_grid, b.grid.x_grid)
            and grids_compatible(a.grid.p_grid, b.grid.p_grid)):
        raise GridMismatchError("star product of symbols on different grids")
    if a.is_polynomial and b.is_polynomial:
        return Symbol.polynomial(a.grid, _groenewold_poly(a.poly, b.poly))
    first = a.poly if a.is_polynomial else a
    second = b.poly if b.is_polynomial else b
    return Symbol(a.grid, _frozen(star_values(first, second, a.grid)))
