"""The Moyal representation: dilations, rotations, the map onto
cross-Wigner functions, Bopp operators and the star-product action.

All operations here require a self-dual phase grid (x and p axes equal
and Fourier self-dual): the shear resampling of the map U then sends
lattice data to exactly representable data, and half-lattice shifts are
exact Fourier shifts.

The unitary map U acts as
    U Psi(x, p) = IFT_p[ Psihat(x - xi_p/2, x + xi_p/2) ],
implemented as one FFT pair along p around two lattice shears, both in
place on the transform's one buffer: on the self-dual lattice the
transforms' phase tables and scales cancel to signs.  It carries lifted
product states onto (2*pi)**(1/2) times the cross-Wigner function of
the factors, and conjugates the phase-space Schrodinger operators
x, -i d/dx into the Bopp operators x + (i/2) d/dp and p - (i/2) d/dx,
the star multiplications x * (.) and xi * (.): like the star action,
they are applied by :func:`psqm.weyl.moyal_product`.

Every shift here, the map's and the rotation's shears and the
displacements, is one :func:`psqm.fourier.lattice_shear`; none builds
an n x n phase table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .grids import Grid1D, PhaseGrid, GridMismatchError, grids_compatible
from .states import ConfigState, PhaseState, norm_phase
from .weyl import Symbol, LinOp, heisenberg_weyl, moyal_product
from .phase_weyl import PhaseWeylOp
from .isometry import WindowedIsometry
from . import fourier
from .fourier import BandLimitError

__all__ = [
    "dilate", "rotate", "moyal_map", "moyal_map_inv", "cross_wigner",
    "bopp_apply", "moyal_heisenberg_weyl",
    "MoyalWeylOp", "quantize_moyal", "star_apply", "stargen_residual",
]

_UNITARITY_GUARD = 1e-6


def _require_self_dual(grid: PhaseGrid, what: str) -> None:
    if not grid.is_self_dual:
        raise GridMismatchError(
            f"{what} requires a self-dual phase grid "
            "(psqm.self_dual_phase_grid); x and p axes must coincide with "
            "their common Fourier dual"
        )


# ----------------------------------------------------------- one-parameter maps

def dilate(Psi: PhaseState, s: float) -> PhaseState:
    """Dilation group: Psi -> e^{-s} Psi(e^{-s} x, e^{-s} p).

    Band-limited rescaling along both axes; a unitarity check (a NaN
    norm fails it) guards against mass leaving the box (states must
    decay inside the contraction region).  ``s`` must satisfy
    |s| <= ln n on an n-point lattice: a larger e^{|s|} carries every
    nonzero lattice frequency (s < 0) or position (s > 0) out of the box.
    """
    _require_self_dual(Psi.grid, "dilate")
    g = Psi.grid.x_grid
    bound = float(np.log(g.n_points))
    if not abs(s) <= bound:  # NaN fails too
        raise ValueError(f"dilation parameter s must satisfy |s| <= ln(n_points) = "
                         f"{bound:.3f} on this lattice, got s = {s!r}")
    alpha = float(np.exp(-s))
    vals = fourier.resample_scaled(Psi.values, g, alpha, axis=0)
    vals = fourier.resample_scaled(vals, g, alpha, axis=1)
    out = Psi.with_values(alpha * vals)
    n_in, n_out = norm_phase(Psi), norm_phase(out)
    if not abs(n_out - n_in) <= _UNITARITY_GUARD * n_in:
        raise BandLimitError(
            f"dilation lost mass through the box boundary "
            f"(norm {n_in:.3e} -> {n_out:.3e}); state is not confined enough"
        )
    return out


def _rotate_plane(values: np.ndarray, grid: Grid1D, theta: float) -> np.ndarray:
    """F -> F o R(theta), R = [[cos, sin], [-sin, cos]], in place on the
    complex ``values`` (returned) by three shears, each one
    :func:`psqm.fourier.lattice_shear`; angles beyond pi/2 are split
    recursively and full turns reduce away exactly."""
    theta = float(theta) % (2 * np.pi)
    if theta > np.pi:
        theta -= 2 * np.pi
    if abs(theta) > np.pi / 2:
        return _rotate_plane(_rotate_plane(values, grid, theta / 2), grid, theta / 2)
    # Sx(t): (a,b) -> (a + t*b, b); Sy(-s): (a,b) -> (a, b - s*a), in half cells
    half_cells = 2.0 * grid.points / grid.spacing
    t = np.tan(theta / 2)
    fourier.lattice_shear(values, -t * half_cells, axis=0)
    fourier.lattice_shear(values, np.sin(theta) * half_cells, axis=1)
    return fourier.lattice_shear(values, -t * half_cells, axis=0)


def rotate(Psi: PhaseState, theta: float) -> PhaseState:
    """Rotation group exp(-i theta G), G = (d/dx)(d/dp) - x p: partial
    transform in p, rotation of the (x, xi_p) plane in place on the
    transform's buffer, inverse transform; ``theta`` must be finite."""
    _require_self_dual(Psi.grid, "rotate")
    if not np.isfinite(theta):
        raise ValueError(f"rotate angle theta must be finite, got {theta!r}")
    g = Psi.grid.x_grid
    hat = _rotate_plane(fourier.ft_array(Psi.values, g, axis=1), g, theta)
    return Psi.with_values(fourier.ift_array(hat, g.dual, g, axis=1))


def moyal_map(Psi: PhaseState) -> PhaseState:
    """The unitary U: closed-form shear route, one FFT pair along p.

    On the self-dual lattice the unitary transforms' phases and scales
    cancel: U = (-1)**p IFFT_p S_0 (-1)**a R FFT_p, where R rolls row a
    by -a cells (the row shear hat(a, a + b), with the forward
    transform's fftshift folded in) and S_0 shifts column b by
    b - n/2 half cells.  Equals dilate(rotate(Psi, -pi/4), -ln sqrt 2)
    on confined states; the closed form is the primary path because it
    resamples once.
    """
    _require_self_dual(Psi.grid, "moyal_map")
    n = Psi.grid.x_grid.n_points
    a = np.arange(n)
    vals = np.fft.fft(Psi.values, axis=1)      # sheared in place from here on
    fourier.lattice_shear(vals, -2 * a, axis=1)
    vals[1::2] *= -1
    fourier.lattice_shear(vals, a - n // 2, axis=0)
    np.fft.ifft(vals, axis=1, out=vals)
    vals[:, 1::2] *= -1
    return Psi.with_values(vals)


def moyal_map_inv(Psi: PhaseState) -> PhaseState:
    """Exact inverse of :func:`moyal_map`, its factors unwound in reverse:
    U^{-1} = IFFT_p R^{-1} (-1)**a S_0^{-1} FFT_p (-1)**p."""
    _require_self_dual(Psi.grid, "moyal_map_inv")
    n = Psi.grid.x_grid.n_points
    a = np.arange(n)
    vals = np.array(Psi.values, dtype=complex)
    vals[:, 1::2] *= -1
    np.fft.fft(vals, axis=1, out=vals)
    fourier.lattice_shear(vals, n // 2 - a, axis=0)
    vals[1::2] *= -1
    fourier.lattice_shear(vals, 2 * a, axis=1)
    np.fft.ifft(vals, axis=1, out=vals)
    return Psi.with_values(vals)


# ---------------------------------------------------------------- cross-Wigner

def cross_wigner(psi: ConfigState, phi: ConfigState) -> PhaseState:
    """W(psi, phi)(x, p) = (2*pi)**(-1) * integral exp(-i*p*y)
    psi(x + y/2) phi(x - y/2)* dy.

    Computed by doubling the sample lattice (band-limited) and a
    quadrature over y at the original spacing; independent of the
    shear implementation of U, against which it is cross-checked by
    moyal_map(lift(psi)) = sqrt(2*pi) * cross_wigner(psi, phi) for the
    window whose transform is the lift window.
    """
    if not grids_compatible(psi.grid, phi.grid):
        raise GridMismatchError("cross_wigner needs both states on one grid")
    g = psi.grid
    n, h = g.n_points, g.n_points // 2
    # row i reads psi at 2i + t and phi at 2i - t (t = -n/2 .. n/2 - 1) on
    # the doubled lattice: windows of the cyclically padded samples
    fh = fourier.upsample2(psi.values, axis=0)
    gh = fourier.upsample2(phi.values, axis=0)
    fe = np.concatenate([fh[-h:], fh, fh[:h]])            # fe[k] = fh[k - h]
    ge = np.concatenate([gh[-h:], gh, gh[:h]])[::-1]      # ge[k] = gh[2n + h - 1 - k]
    windows = np.lib.stride_tricks.sliding_window_view
    prod = np.conj(windows(ge, n)[2 * n - 1::-2])         # gh[2i - t]
    prod *= windows(fe, n)[:2 * n:2]                      # fh[2i + t]: (x, t)
    # sum_t exp(-i*t*dx*p_m) = exp(-i*t*dx*p_0) (-1)**m FFT(t + n/2 -> m)
    t = np.arange(-h, h)
    prod *= np.exp(-1j * t * g.spacing * g.dual.points[0])
    vals = np.fft.fft(prod, axis=1, out=prod)
    vals *= (g.spacing / (2 * np.pi)) * (-1.0) ** np.arange(n)
    return PhaseState(PhaseGrid(g, g.dual), vals)


# ------------------------------------------------------------- Bopp operators

# Bopp operator -> (monomial, on the left): X = x * (.), Xi_x = xi * (.),
# P = (.) * xi and Xi_p = (.) * x, the first-order star multiplications
_BOPP = {"X": ((1, 0), True), "Xi_x": ((0, 1), True),
         "P": ((0, 1), False), "Xi_p": ((1, 0), False)}


def _as_symbol(Psi: PhaseState) -> Symbol:
    """The state's values as a sampled symbol, taken without a copy
    through a read-only view."""
    values = Psi.values.view()
    values.flags.writeable = False
    return Symbol(Psi.grid, values)


def bopp_apply(name: str, Psi: PhaseState) -> PhaseState:
    """Action of a Bopp operator, the :func:`moyal_product` of a
    coordinate monomial with the state's values on one side:

      X    = x * (.)  = x + (i/2) d/dp      P    = (.) * xi = p + (i/2) d/dx
      Xi_x = xi * (.) = p - (i/2) d/dx      Xi_p = (.) * x  = x - (i/2) d/dp

    The state must pass the star product's band-edge guard
    (:class:`BandLimitError`).  The result holds the product symbol's
    read-only samples.
    """
    if name not in _BOPP:
        raise ValueError(f"unknown Bopp operator {name!r}; choose from {tuple(_BOPP)}")
    monomial, on_left = _BOPP[name]
    a, psi = Symbol.polynomial(Psi.grid, {monomial: 1}), _as_symbol(Psi)
    return Psi.with_values(moyal_product(*((a, psi) if on_left else (psi, a))).values)


# --------------------------------------------------- displacement and operators

def moyal_heisenberg_weyl(z0, Psi: PhaseState) -> PhaseState:
    """Moyal-representation displacement:
    Psi -> exp(-i*(x0*p - xi0*x)) Psi(x - x0/2, p - xi0/2), the phase-space
    one conjugated by U: :func:`heisenberg_weyl` by (x0/2, xi0) along x,
    then by (xi0/2, -x0) along p (along x of the transposed values)."""
    _require_self_dual(Psi.grid, "moyal_heisenberg_weyl")
    x0, xi0 = float(z0[0]), float(z0[1])
    step = heisenberg_weyl((x0 / 2, xi0), Psi)
    step = heisenberg_weyl((xi0 / 2, -x0), step.with_values(step.values.T))
    return Psi.with_values(step.values.T)


@dataclass(eq=False)
class MoyalWeylOp:
    """Moyal-representation Weyl operator U A U^{-1} of ``symbol``,
    applied by conjugating its phase-space operator through the Moyal
    map; acts as the left star multiplication a * (.) on phase-space
    states."""

    symbol: Symbol
    phase_op: PhaseWeylOp = field(init=False)

    def __post_init__(self):
        self.phase_op = PhaseWeylOp(self.symbol)

    def apply(self, Psi: PhaseState) -> PhaseState:
        _require_self_dual(Psi.grid, "MoyalWeylOp.apply")
        return moyal_map(self.phase_op.apply(moyal_map_inv(Psi)))

    def evolve(self, Psi: PhaseState, t: float) -> PhaseState:
        _require_self_dual(Psi.grid, "MoyalWeylOp.evolve")
        return moyal_map(self.phase_op.evolve(moyal_map_inv(Psi), t))

    def restrict(self, iso: WindowedIsometry) -> LinOp:
        """Config-sized matrix of the operator compressed to the image
        U(range of lift).  U is unitary, so compressing U A U^{-1} to
        U(range T) gives T* A T, the phase operator's restriction."""
        return self.phase_op.restrict(iso)


def quantize_moyal(a: Symbol) -> MoyalWeylOp:
    """Moyal-Weyl operator of a symbol (:class:`MoyalWeylOp`)."""
    return MoyalWeylOp(a)


def star_apply(a: Symbol, Psi: PhaseState) -> PhaseState:
    """Left star-product action a * Psi: the :func:`moyal_product` of a
    with the state's values as a sampled symbol.  Agrees with
    quantize_moyal(a).apply, which routes through the Moyal map.  The
    result holds the product symbol's read-only samples.
    """
    _require_self_dual(Psi.grid, "star_apply")
    return Psi.with_values(moyal_product(a, _as_symbol(Psi)).values)


def stargen_residual(a: Symbol, lam: float, Psi: PhaseState) -> float:
    """|| a * Psi - lam Psi ||; vanishes exactly when Psi solves the
    stargenvalue problem, equivalently when Psi is an eigenstate of the
    Moyal-Weyl operator of a.  The difference is formed in place on
    lam Psi, and the star product is dropped before the norm."""
    out = star_apply(a, Psi)
    diff = np.multiply(Psi.values, lam)
    np.subtract(out.values, diff, out=diff)
    del out
    return norm_phase(Psi.with_values(diff))
