"""Slow, independent reference computations used by the verification
suites: a finite-difference oscillator eigensolver and a direct
quadrature of the cross-Wigner integral.  Neither touches the spectral
pipeline of the main modules."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eig_banded

__all__ = ["fd_oscillator_levels", "cross_wigner_quadrature"]

# 8th-order central coefficients for f'': f''_i ~ (1/dx^2) sum c_k f_{i+k}
_FD8 = {0: -205.0 / 72.0, 1: 8.0 / 5.0, 2: -1.0 / 5.0, 3: 8.0 / 315.0,
        4: -1.0 / 560.0}

# x rows per integrand block of the cross-Wigner quadrature: 32 rows of
# the 2048-point y lattice make a 1 MiB complex integrand.
_ROW_BLOCK = 32

# Integrand components below sqrt(tiny) are zeroed before each product:
# Gaussian tails reach subnormals, on which BLAS runs several times slower.
_FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


def fd_oscillator_levels(n_levels: int) -> np.ndarray:
    """Lowest eigenvalues of -(1/2) d^2/dx^2 + x^2/2 by a banded
    high-order finite-difference discretization on 2048 points of the
    Dirichlet box [-10, 10)."""
    n_points, half_width = 2048, 10.0
    dx = 2.0 * half_width / n_points
    x = -half_width + dx * np.arange(n_points)
    bands = np.zeros((5, n_points))
    for k, c in _FD8.items():
        bands[k, :] = -0.5 * c / dx ** 2
    bands[0, :] += 0.5 * x ** 2
    w = eig_banded(bands, lower=True, eigvals_only=True,
                   select="i", select_range=(0, n_levels - 1))
    return w


def cross_wigner_quadrature(pairs, x_points: np.ndarray, p_points: np.ndarray) -> list:
    """Direct Riemann quadrature of

        W(psi, chi)(x, p) = (2*pi)**(-1) int exp(-i p y)
                            psi(x + y/2) chi(x - y/2)* dy

    on 2048 points of y in [-40, 40), for each ``(psi_fn, chi_fn)`` in
    ``pairs``, the states given as callables evaluated off-lattice
    (closed forms); returns one (len(x_points), len(p_points)) array
    per pair.  The phase table exp(-i y p) is built once per call, and
    each pair's integrand is evaluated on blocks of ``_ROW_BLOCK`` x
    rows, each block summed over y by one matrix product with the
    table.  Used as the independent oracle for the Moyal map."""
    n_y, y_half = 2048, 40.0
    y = -y_half + (2.0 * y_half / n_y) * np.arange(n_y)
    dy = y[1] - y[0]
    half = y / 2
    x = np.asarray(x_points, dtype=float)
    phase = np.exp(-1j * np.outer(y, p_points))
    out = []
    for psi_fn, chi_fn in pairs:
        W = np.empty((len(x), phase.shape[1]), complex)
        for start in range(0, len(x), _ROW_BLOCK):
            xb = x[start:start + _ROW_BLOCK, None]
            integrand = psi_fn(xb + half) * np.conj(chi_fn(xb - half))
            parts = integrand.view(np.float64)
            parts[np.abs(parts) < _FLUSH_BELOW] = 0.0
            np.matmul(integrand, phase, out=W[start:start + _ROW_BLOCK])
        W *= dy / (2.0 * np.pi)
        out.append(W)
    return out
