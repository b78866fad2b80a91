"""Uniform sample lattices for configuration space and phase space.

All transforms in this package use hbar = 1 and the unitary Fourier
convention  f^(xi) = (2*pi)**(-1/2) * integral exp(-i*x*xi) f(x) dx.
A grid of N points with spacing dx has the Fourier-dual grid of N signed
frequencies centered at 0 with spacing 2*pi/(N*dx), so that
dx * dual_spacing * N = 2*pi exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "Grid1D",
    "PhaseGrid",
    "GridMismatchError",
    "make_grid",
    "self_dual_grid",
    "self_dual_phase_grid",
    "grids_compatible",
]


class GridMismatchError(ValueError):
    """Raised when an operation combines states or operators on
    incompatible grids."""


def _require_lattice_size(n: int) -> None:
    if n < 8 or n & (n - 1):
        raise GridMismatchError(f"n_points must be a power of two >= 8, got {n}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform lattice of ``n_points`` samples on
    [center - half_width, center + half_width).

    Samples sit at ``center - half_width + k * spacing`` for
    k = 0 .. n_points - 1.  ``n_points`` must be a power of two (>= 8)
    so that all transforms stay FFT-friendly.
    """

    n_points: int
    half_width: float
    center: float = 0.0

    def __post_init__(self):
        _require_lattice_size(self.n_points)
        if not self.half_width > 0:
            raise GridMismatchError(f"half_width must be positive, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def points(self) -> np.ndarray:
        return self.center - self.half_width + self.spacing * np.arange(self.n_points)

    @property
    def dual_spacing(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.spacing)

    @property
    def dual(self) -> "Grid1D":
        """Fourier-dual grid: signed frequencies centered at 0."""
        return Grid1D(self.n_points, 0.5 * self.n_points * self.dual_spacing, 0.0)

    @property
    def is_self_dual(self) -> bool:
        return grids_compatible(self, self.dual)


def make_grid(n_points: int, half_width: float, center: float = 0.0) -> Grid1D:
    """Construct a :class:`Grid1D`, validating the lattice parameters."""
    return Grid1D(int(n_points), float(half_width), float(center))


def self_dual_grid(n_points: int) -> Grid1D:
    """Centered grid whose Fourier dual is itself: spacing sqrt(2*pi/N).

    Phase-space Weyl calculus (quantization, star products, the Moyal
    map) needs the momentum axis to be the dual of the position axis
    *and* geometrically equal to it; the self-dual lattice satisfies
    both at once.
    """
    _require_lattice_size(int(n_points))
    dx = np.sqrt(2.0 * np.pi / n_points)
    return Grid1D(int(n_points), 0.5 * n_points * dx, 0.0)


def grids_compatible(a: Grid1D, b: Grid1D) -> bool:
    """Grid equality up to a relative 1e-12 in half width and center."""
    if a.n_points != b.n_points:
        return False
    scale = max(abs(a.half_width), abs(b.half_width), 1.0)
    return (
        abs(a.half_width - b.half_width) <= 1e-12 * scale
        and abs(a.center - b.center) <= 1e-12 * scale
    )


@dataclass(frozen=True)
class PhaseGrid:
    """Product lattice for phase-space functions Psi(x, p).

    The p axis doubles as the xi_x axis when the lattice carries a
    classical symbol a(x, xi_x).  The dual axes (xi_x for transforms in
    x, xi_p for transforms in p) are ``x_grid.dual`` and ``p_grid.dual``.
    """

    x_grid: Grid1D
    p_grid: Grid1D

    @property
    def shape(self) -> tuple:
        return (self.x_grid.n_points, self.p_grid.n_points)

    @property
    def cell_area(self) -> float:
        return self.x_grid.spacing * self.p_grid.spacing

    def meshes(self) -> tuple:
        """(X, P) coordinate arrays of shape ``self.shape``."""
        return np.meshgrid(self.x_grid.points, self.p_grid.points, indexing="ij")

    @property
    def is_weyl_ready(self) -> bool:
        """p axis is the Fourier dual of the x axis (kernel formulas exact)."""
        return grids_compatible(self.p_grid, self.x_grid.dual)

    @property
    def is_self_dual(self) -> bool:
        """x = p = their common dual; required by star products and the
        Moyal map."""
        return (
            grids_compatible(self.x_grid, self.p_grid)
            and self.x_grid.is_self_dual
        )


def self_dual_phase_grid(n_points: int) -> PhaseGrid:
    g = self_dual_grid(n_points)
    return PhaseGrid(g, g)
