"""Slow, independent reference computations used by the verification
suites: a certified finite-difference oscillator eigensolver and a
direct quadrature of the cross-Wigner integral.  Neither touches the
spectral pipeline of the main modules, and both use numpy only."""

from __future__ import annotations

import numpy as np

__all__ = ["fd_oscillator_levels", "fd_levels_below", "cross_wigner_quadrature"]

# 8th-order central coefficients for f'': f''_i ~ (1/dx^2) sum c_k f_{i+k}
_FD8 = {0: -205.0 / 72.0, 1: 8.0 / 5.0, 2: -1.0 / 5.0, 3: 8.0 / 315.0,
        4: -1.0 / 560.0}

# The finite-difference lattice: 2048 points of the Dirichlet box [-10, 10).
_FD_POINTS, _FD_HALF_WIDTH = 2048, 10.0

# Hermite functions in the Rayleigh-Ritz basis beyond the levels returned.
_RITZ_EXTRA = 8

# x rows per integrand block of the cross-Wigner quadrature: 32 rows of
# the folded 2048-point y lattice make a 1 MiB real integrand.
_ROW_BLOCK = 32

# Integrand components below sqrt(tiny) are zeroed before each product:
# Gaussian tails reach subnormals, on which BLAS runs several times slower.
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


def _fd_oscillator_bands():
    """(x, diagonal, off-diagonals) of the symmetric band matrix A of
    -(1/2) d^2/dx^2 + x^2/2 on the finite-difference lattice;
    ``off[k - 1]`` is the constant entry at distance k = 1..4."""
    dx = 2.0 * _FD_HALF_WIDTH / _FD_POINTS
    x = -_FD_HALF_WIDTH + dx * np.arange(_FD_POINTS)
    diag = -0.5 * _FD8[0] / dx ** 2 + 0.5 * x ** 2
    off = [-0.5 * _FD8[k] / dx ** 2 for k in range(1, 5)]
    return x, diag, off


def _hermite_columns(x: np.ndarray, count: int) -> np.ndarray:
    """(len(x), count) array of the Hermite functions h_0..h_{count-1}
    at x, by the recurrence
    h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}."""
    H = np.zeros((len(x), count))
    H[:, 0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    for k in range(1, count):
        H[:, k] = np.sqrt(2.0 / k) * x * H[:, k - 1]
        if k > 1:
            H[:, k] -= np.sqrt((k - 1) / k) * H[:, k - 2]
    return H


def fd_levels_below(sigma: float) -> int:
    """Number of eigenvalues of the finite-difference oscillator matrix A
    (see :func:`fd_oscillator_levels`) below ``sigma``.  By Sylvester's
    law of inertia it is the number of negative pivots D of A - sigma*I
    = L D L^T, factorized without pivoting in one sweep over the rows:
    row i of L has the four entries L[i, i-k] = u_k / D[i-k], k = 1..4,
    where u_k = L[i, i-k] D[i-k] is A[i, i-k] less the products of row
    i with row i-k over their shared earlier columns.  Rows before the
    first carry D = inf, so their entries of L are 0."""
    _, diag, (b1, b2, b3, b4) = _fd_oscillator_bands()
    # L[i-1, i-1-k], L[i-2, i-2-k], L[i-3, i-3-k] for k = 1..4, and the
    # pivots of rows i-1..i-4
    r1 = r2 = r3 = (0.0, 0.0, 0.0, 0.0)
    d1 = d2 = d3 = d4 = float("inf")
    negative = 0
    for a in (diag - sigma).tolist():
        u4 = b4
        u3 = b3 - u4 * r3[0]
        u2 = b2 - u4 * r2[1] - u3 * r2[0]
        u1 = b1 - u4 * r1[2] - u3 * r1[1] - u2 * r1[0]
        l1, l2, l3, l4 = u1 / d1, u2 / d2, u3 / d3, u4 / d4
        d = a - l1 * u1 - l2 * u2 - l3 * u3 - l4 * u4
        negative += d < 0.0
        r3, r2, r1 = r2, r1, (l1, l2, l3, l4)
        d4, d3, d2, d1 = d3, d2, d1, d
    return negative


def fd_oscillator_levels(n_levels: int) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues of -(1/2) d^2/dx^2 + x^2/2 by a
    banded 8th-order finite-difference discretization A on 2048 points of
    the Dirichlet box [-10, 10), certified.

    The values are the Rayleigh-Ritz values t_j of A on the first
    ``n_levels + 8`` Hermite functions sampled on the lattice, with A
    applied as nine shifted slice-adds.  They are returned only when both
    tests below pass; otherwise ``np.linalg.LinAlgError`` is raised.

    - Bauer-Fike: A is symmetric, so it has an eigenvalue within
      r_j = |A u_j - t_j u_j| of t_j (u_j the unit Ritz vector).  The
      intervals [t_j - r_j, t_j + r_j] must be disjoint and lie below
      sigma, the midpoint of t_{n_levels - 1} and t_{n_levels}.
    - Sylvester: :func:`fd_levels_below` ``(sigma)`` must be exactly
      ``n_levels``.

    Together they prove that the k-th lowest eigenvalue of A lies within
    r_k of the k-th returned value."""
    if not 1 <= n_levels <= _FD_POINTS - _RITZ_EXTRA:
        raise ValueError(f"n_levels must be in 1..{_FD_POINTS - _RITZ_EXTRA}, "
                         f"got {n_levels!r}")
    x, diag, off = _fd_oscillator_bands()
    Q, _ = np.linalg.qr(_hermite_columns(x, n_levels + _RITZ_EXTRA))
    AQ = diag[:, None] * Q
    for k, b in enumerate(off, 1):
        AQ[k:] += b * Q[:-k]
        AQ[:-k] += b * Q[k:]
    H = Q.T @ AQ
    theta, Y = np.linalg.eigh(0.5 * (H + H.T))
    radius = np.linalg.norm(AQ @ Y - (Q @ Y) * theta, axis=0)[:n_levels]
    sigma = 0.5 * (theta[n_levels - 1] + theta[n_levels])
    levels = theta[:n_levels]
    upper = levels + radius
    lower = levels - radius
    if not (upper[-1] < sigma and (upper[:-1] < lower[1:]).all()):
        raise np.linalg.LinAlgError(
            f"cannot certify {n_levels} levels: the Ritz residual intervals "
            f"overlap or reach sigma = {sigma:.6g} (largest radius {radius.max():.3g})")
    below = fd_levels_below(sigma)
    if below != n_levels:
        raise np.linalg.LinAlgError(
            f"cannot certify {n_levels} levels: {below} eigenvalues lie "
            f"below sigma = {sigma:.6g}")
    return levels


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with its real and imaginary components below sqrt(tiny)
    zeroed in place."""
    parts = a.view(np.float64)
    parts[np.abs(parts) < _FLUSH_BELOW] = 0.0
    return a


def cross_wigner_quadrature(pairs, x_points: np.ndarray, p_points: np.ndarray):
    """Direct Riemann quadrature of

        W(psi, chi)(x, p) = (2*pi)**(-1) int exp(-i p y)
                            psi(x + y/2) chi(x - y/2)* dy

    on 2048 points of y in [-40, 40), for each ``(psi_fn, chi_fn)`` in
    ``pairs``, the states given as callables evaluated off-lattice
    (closed forms); yields one (len(x_points), len(p_points)) array per
    pair in turn, so a caller holds one at a time.

    The lattice is symmetric about y = 0 but for y = -40, so it is
    folded: with f(y) = psi(x + y/2) chi(x - y/2)*, the terms at y and -y
    (1023 pairs) sum to (f(y) + f(-y)) cos(p y) - i (f(y) - f(-y))
    sin(p y).  Each block of ``_ROW_BLOCK`` x rows stacks the real and
    the imaginary parts of these coefficients, zeroes the components
    below sqrt(tiny), and is summed over y by one real matrix product
    with a (2*1023, len(p_points)) cos/sin table built once per call;
    the unpaired terms at y = 0 and y = -40 are added by a second,
    two-column product.  Used as the independent oracle for the Moyal
    map."""
    n_y, y_half = 2048, 40.0
    dy = 2.0 * y_half / n_y
    half = (dy / 2) * np.arange(1, n_y // 2)
    m = len(half)
    x = np.asarray(x_points, dtype=float)
    p = np.asarray(p_points, dtype=float)
    yp = np.outer(2 * half, p)
    table = np.empty((2 * m, len(p)))
    np.cos(yp, out=table[:m])
    np.sin(yp, out=table[m:])
    del yp
    unpaired = np.array([0.0, -y_half / 2])
    unpaired_phase = np.stack([np.ones(len(p)), np.exp(1j * y_half * p)])
    for psi_fn, chi_fn in pairs:
        W = np.empty((len(x), len(p)), complex)
        for start in range(0, len(x), _ROW_BLOCK):
            xb = x[start:start + _ROW_BLOCK, None]
            rows = len(xb)
            up = psi_fn(xb + half) * np.conj(chi_fn(xb - half))
            down = psi_fn(xb - half) * np.conj(chi_fn(xb + half))
            folded = np.empty((2 * rows, 2 * m))
            np.add(up.real, down.real, out=folded[:rows, :m])
            np.add(up.imag, down.imag, out=folded[rows:, :m])
            np.subtract(up.imag, down.imag, out=folded[:rows, m:])
            np.subtract(down.real, up.real, out=folded[rows:, m:])
            del up, down
            summed = np.matmul(_flushed(folded), table)
            Wb = W[start:start + rows]
            Wb.real, Wb.imag = summed[:rows], summed[rows:]
            ends = psi_fn(xb + unpaired) * np.conj(chi_fn(xb - unpaired))
            Wb += np.matmul(_flushed(ends), unpaired_phase)
        W *= dy / (2.0 * np.pi)
        yield W
