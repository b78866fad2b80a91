"""State containers and standard test states for L2(R) and L2(R^2).

Inner products follow the convention (a|b) = integral b(x) a(x)* dx
(linear in the second argument), evaluated as Riemann sums; on the
rapidly decaying states used throughout, the sums are spectrally
accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .grids import Grid1D, PhaseGrid, GridMismatchError, grids_compatible

__all__ = [
    "ConfigState",
    "PhaseState",
    "inner_config",
    "inner_phase",
    "norm_config",
    "norm_phase",
    "hermite_state",
    "gaussian_state",
    "hermite_values",
    "gaussian_values",
    "require_gaussian",
    "boundary_mass",
    "random_config_state",
    "random_phase_state",
]


@dataclass(eq=False)
class ConfigState:
    """Sampled wave function psi on a :class:`Grid1D`."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_points},)"
            )

    def with_values(self, values: np.ndarray) -> "ConfigState":
        return ConfigState(self.grid, values)


@dataclass(eq=False)
class PhaseState:
    """Sampled phase-space wave function Psi(x, p) on a :class:`PhaseGrid`."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def with_values(self, values: np.ndarray) -> "PhaseState":
        return PhaseState(self.grid, values)


def inner_config(a: ConfigState, b: ConfigState) -> complex:
    """(a|b) = integral b(x) a(x)* dx, Riemann sum."""
    if not grids_compatible(a.grid, b.grid):
        raise GridMismatchError("inner product of states on different grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.spacing)


def inner_phase(a: PhaseState, b: PhaseState) -> complex:
    """((A|B)) with the double Riemann sum."""
    if not (grids_compatible(a.grid.x_grid, b.grid.x_grid)
            and grids_compatible(a.grid.p_grid, b.grid.p_grid)):
        raise GridMismatchError("inner product of states on different phase grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_area)


def _sum_abs2(values: np.ndarray) -> float:
    """sum |v|**2, squaring the one real temporary |v| in place."""
    mag = np.abs(values)
    return np.sum(np.square(mag, out=mag))


def norm_config(a: ConfigState) -> float:
    return float(np.sqrt(_sum_abs2(a.values) * a.grid.spacing))


def norm_phase(a: PhaseState) -> float:
    return float(np.sqrt(_sum_abs2(a.values) * a.grid.cell_area))


# ------------------------------------------------------------- test states

MAX_HERMITE_LEVEL = 12


def hermite_values(x: np.ndarray, level: int) -> np.ndarray:
    """Normalized Hermite function h_level at arbitrary points.

    Stable two-term recurrence on the normalized functions:
    h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}.
    """
    x = np.asarray(x, dtype=float)
    hm2, hm1 = 0.0, np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    for k in range(1, level + 1):
        hm2, hm1 = hm1, np.sqrt(2.0 / k) * x * hm1 - np.sqrt((k - 1) / k) * hm2
    return hm1


def gaussian_values(x: np.ndarray, center_x: float, center_p: float,
                    width: float) -> np.ndarray:
    """Normalized Gaussian wave packet (pi w^2)^(-1/4) e^{-(x-x0)^2/(2w^2)} e^{i p0 x}."""
    x = np.asarray(x, dtype=float)
    amp = (np.pi * width ** 2) ** -0.25
    return amp * np.exp(-((x - center_x) ** 2) / (2 * width ** 2) + 1j * center_p * x)


def hermite_state(grid: Grid1D, level: int) -> ConfigState:
    """Oscillator eigenstate fixture; integer levels 0..12, never truncated."""
    if (isinstance(level, bool) or not isinstance(level, Integral)
            or not 0 <= level <= MAX_HERMITE_LEVEL):
        raise ValueError(f"hermite level must be an integer in "
                         f"0..{MAX_HERMITE_LEVEL}, got {level!r}")
    return ConfigState(grid, hermite_values(grid.points, int(level)))


# Bounds of a Gaussian's centre and width, far outside any lattice's box
# and resolution: inside them sampling is finite and raises no floating
# point warning on any lattice.
MAX_GAUSSIAN_CENTER = 1e6
GAUSSIAN_WIDTHS = (1e-6, 1e6)


def require_gaussian(center_x, center_p, width) -> None:
    """Refuse (ValueError) a Gaussian unless |x0|, |p0| <=
    :data:`MAX_GAUSSIAN_CENTER` and its width lies in
    :data:`GAUSSIAN_WIDTHS`; NaN and infinite values are refused."""
    lo, hi = GAUSSIAN_WIDTHS
    if not (max(abs(center_x), abs(center_p)) <= MAX_GAUSSIAN_CENTER
            and lo <= width <= hi):
        raise ValueError(f"a Gaussian needs |x0|, |p0| <= {MAX_GAUSSIAN_CENTER:g} and "
                         f"{lo:g} <= width <= {hi:g}, got x0 = {center_x!r}, "
                         f"p0 = {center_p!r}, width = {width!r}")


def gaussian_state(grid: Grid1D, center_x: float = 0.0, center_p: float = 0.0,
                   width: float = 1.0) -> ConfigState:
    """Coherent-state fixture; centre and width as :func:`require_gaussian`
    accepts them."""
    require_gaussian(center_x, center_p, width)
    return ConfigState(grid, gaussian_values(grid.points, center_x, center_p, width))


def boundary_mass(state) -> float:
    """Probability mass in the outermost 5% of samples (per axis), times
    the grid cell size; admissible spectral-test states keep this below
    1e-10."""
    vals = np.abs(state.values) ** 2
    strip = 0.0
    for axis, n in enumerate(vals.shape):
        edge = max(1, int(np.ceil(0.05 * n)))
        ends = np.moveaxis(vals, axis, 0)
        strip = strip + ends[:edge].sum() + ends[-edge:].sum()
    cell = state.grid.cell_area if isinstance(state, PhaseState) else state.grid.spacing
    return float(strip * cell)


# ------------------------------------------------- random band-limited states
# Seeded fixtures for property tests and verification suites: smooth
# Gaussian-damped random spectra and matching spatial envelopes.  The
# envelope fraction scales with the lattice so that the box-over-width
# ratio grows while the spatial and spectral envelopes stay compatible
# with the uncertainty relation (fraction 9 at the 256-point acceptance
# lattice, set by the dilation-by-sqrt(2) margin inside the Moyal-map
# composition check).

def _random_state(state_type, grid, rng: np.random.Generator):
    """A normalized ``state_type`` on ``grid``: a complex normal draw
    (real parts, then imaginary parts, in one call) damped by the spectral
    envelope, inverse transformed in place one axis at a time (last axis
    first, as ``ifftn``), then damped by the spatial one.  Each envelope
    is a product of 1-D Gaussians, one per axis, applied in turn (x, then
    p) and broadcast along the other axis, so no n x n envelope is made;
    the draw is moved to FFT order and the spectral envelopes with it."""
    axes = (grid.x_grid, grid.p_grid) if isinstance(grid, PhaseGrid) else (grid,)
    frac = max(3.0, float(np.sqrt(np.pi * min(g.n_points for g in axes) / 10.0)))
    shape = tuple(g.n_points for g in axes)
    draw = np.fft.ifftshift(rng.standard_normal((2,) + shape),
                            axes=tuple(range(1, 1 + len(axes))))
    vals = np.empty(shape, complex)
    vals.real, vals.imag = draw
    del draw
    spectral = [np.exp(-(g.dual.points / (g.dual.half_width / frac)) ** 2) for g in axes]
    for env in np.ix_(*[np.fft.ifftshift(e) for e in spectral]):
        vals *= env
    for axis in reversed(range(len(axes))):
        np.fft.ifft(vals, axis=axis, out=vals)
    for env in np.ix_(*[np.exp(-((g.points - g.center) / (g.half_width / frac)) ** 2)
                        for g in axes]):
        vals *= env
    state = state_type(grid, vals)
    vals /= norm_phase(state) if state_type is PhaseState else norm_config(state)
    return state


def random_config_state(grid: Grid1D, rng: np.random.Generator) -> ConfigState:
    return _random_state(ConfigState, grid, rng)


def random_phase_state(grid: PhaseGrid, rng: np.random.Generator) -> PhaseState:
    return _random_state(PhaseState, grid, rng)
