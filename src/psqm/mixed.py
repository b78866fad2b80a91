"""Mixed states as finite sums of lifted product states.

A mixed state is sum_k psi_k (x) chi_k*, with mutually orthogonal
windows chi_k whose squared norms are the classical weights
(sum_k ||chi_k||^2 = 1, each psi_k normalized).  Measurement
probabilities for a nondegenerate config-space eigenvalue come out as
the convex combination of the per-component probabilities, and the
collapse onto the eigenspace reproduces the transition-probability
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridMismatchError, grids_compatible, PhaseGrid
from .isometry import UNIT_NORM_TOL
from .states import ConfigState, PhaseState, inner_config, norm_config, norm_phase
from .weyl import LinOp
from .spectral import eig

__all__ = ["MixedState", "ZeroProjectionError", "mixed_to_phase",
           "measure_probability", "collapse", "measurement_basis"]

MAX_COMPONENTS = 8


class ZeroProjectionError(ValueError):
    """Measurement outcome has probability zero; no collapsed state exists."""


@dataclass(eq=False)
class MixedState:
    """components: list of (psi_k, chi_k) pairs, kept as given.  psi_k
    are normalized; chi_k are mutually orthogonal with sum_k ||chi_k||^2
    = 1 (weights).  A relative overlap |(chi_j|chi_k)| / (||chi_j||
    ||chi_k||) above UNIT_NORM_TOL, or NaN, is refused (ValueError).
    """

    components: list

    def __post_init__(self):
        comps = list(self.components)
        if not 1 <= len(comps) <= MAX_COMPONENTS:
            raise ValueError(f"need 1..{MAX_COMPONENTS} components, got {len(comps)}")
        xg = comps[0][0].grid
        pg = comps[0][1].grid
        for psi, chi in comps:
            if not (grids_compatible(psi.grid, xg) and grids_compatible(chi.grid, pg)):
                raise GridMismatchError("all components must share the two grids")
            if not abs(norm_config(psi) - 1.0) <= 1e-8:
                raise ValueError("component psi_k must be normalized")
        for j, (_, chi_j) in enumerate(comps):
            for k, (_, chi_k) in enumerate(comps[:j]):
                with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is NaN
                    overlap = (np.abs(inner_config(chi_k, chi_j))
                               / (norm_config(chi_k) * norm_config(chi_j)))
                if not overlap <= UNIT_NORM_TOL:
                    raise ValueError(
                        f"windows {k} and {j} are not orthogonal: relative overlap "
                        f"{overlap:.2e} is not at most {UNIT_NORM_TOL:g}")
        self.components = comps
        total = sum(norm_config(chi) ** 2 for _, chi in comps)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"window weights must sum to 1, got {total:.12f}")

    @property
    def weights(self) -> np.ndarray:
        return np.array([norm_config(chi) ** 2 for _, chi in self.components])


def mixed_to_phase(M: MixedState) -> PhaseState:
    """The phase-space wave function sum_k psi_k (x) chi_k*."""
    psi0, chi0 = M.components[0]
    grid = PhaseGrid(psi0.grid, chi0.grid)
    vals = np.zeros(grid.shape, complex)
    for psi, chi in M.components:
        vals += np.outer(psi.values, np.conj(chi.values))
    return PhaseState(grid, vals)


def measure_probability(M: MixedState, phi_alpha: ConfigState) -> float:
    """P = sum_k |(psi_k|phi_alpha)|^2 ||chi_k||^2 for a normalized,
    nondegenerate eigenstate phi_alpha (see measurement_basis)."""
    p = 0.0
    for (psi, chi), w in zip(M.components, M.weights):
        p += abs(inner_config(psi, phi_alpha)) ** 2 * w
    return float(p)


def collapse(M: MixedState, phi_alpha: ConfigState) -> PhaseState:
    """(P_phi (x) 1) Psi for Psi = mixed_to_phase(M), normalized: one
    product with phi_alpha* over x, then one outer product with phi_alpha.
    |((Psi | collapsed))|^2 reproduces the measurement probability.  A
    projection whose norm is below 1e-12, or NaN, is refused
    (ZeroProjectionError)."""
    Psi = mixed_to_phase(M)
    if not grids_compatible(phi_alpha.grid, Psi.grid.x_grid):
        raise GridMismatchError("phi_alpha must lie on the components' x grid")
    row = (np.conj(phi_alpha.values) @ Psi.values) * phi_alpha.grid.spacing
    out = Psi.with_values(np.outer(phi_alpha.values, row))
    nrm = norm_phase(out)
    if not nrm >= 1e-12:
        raise ZeroProjectionError(
            f"outcome has zero probability: the projected state's norm {nrm:.2e} "
            "is not at least 1e-12")
    return out.with_values(out.values / nrm)


def measurement_basis(op: LinOp, n_levels: int) -> list:
    """Lowest ``n_levels`` (1..n) eigenpairs of a config operator as
    (value, state) pairs, rejecting levels closer than 1e-6 of the spectral
    scale (the measurement formulas assume a nondegenerate eigenvalue)."""
    n = op.grid.n_points
    if not 1 <= n_levels <= n:
        raise ValueError(f"n_levels must be in 1..{n}, got {n_levels!r}")
    values, states = eig(op)
    scale = max(abs(values[0]), abs(values[-1]), 1.0)
    for k in range(min(n_levels, len(values) - 1)):
        if abs(values[k + 1] - values[k]) < 1e-6 * scale:
            raise ValueError(
                f"eigenvalue {values[k]:.6g} is (numerically) degenerate; "
                "degenerate measurements are not supported")
    return [(float(values[k]), states[k]) for k in range(n_levels)]
