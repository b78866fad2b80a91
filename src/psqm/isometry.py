"""The windowed lift of configuration states into phase space.

A unit-norm window chi on the p axis defines the isometry
psi -> psi (x) chi*, whose adjoint integrates against chi over p.  The
range of the lift is a closed subspace of L2(R^2) on which every
configuration-space operator acts through conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import PhaseGrid, GridMismatchError, grids_compatible
from .states import ConfigState, PhaseState, norm_config
from .weyl import LinOp

__all__ = ["WindowedIsometry"]

UNIT_NORM_TOL = 1e-10  # the most a window's sampled norm may differ from 1


@dataclass(eq=False)
class WindowedIsometry:
    """Lift/lower maps attached to a unit-norm window on the p grid."""

    window: ConfigState

    def __post_init__(self):
        nrm = norm_config(self.window)
        if not abs(nrm - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(f"window must have unit norm to within {UNIT_NORM_TOL:g}, "
                             f"got {nrm:.12f}")

    @property
    def p_grid(self):
        return self.window.grid

    def phase_grid(self, x_grid) -> PhaseGrid:
        return PhaseGrid(x_grid, self.p_grid)

    def apply(self, psi: ConfigState) -> PhaseState:
        """psi -> psi(x) chi(p)*; an isometry onto its range."""
        vals = np.outer(psi.values, np.conj(self.window.values))
        return PhaseState(self.phase_grid(psi.grid), vals)

    def adjoint(self, Psi: PhaseState) -> ConfigState:
        """Psi -> integral Psi(x, p) chi(p) dp."""
        if not grids_compatible(Psi.grid.p_grid, self.p_grid):
            raise GridMismatchError("state p grid does not match the window grid")
        vals = Psi.values @ self.window.values * self.p_grid.spacing
        return ConfigState(Psi.grid.x_grid, vals)

    def project(self, Psi: PhaseState) -> PhaseState:
        """Orthogonal projector onto the range of the lift."""
        return self.apply(self.adjoint(Psi))

    def represent_apply(self, op: LinOp, Psi: PhaseState) -> PhaseState:
        """Action of the lifted operator T a T* on an arbitrary phase
        state (vanishes on the orthocomplement of the range)."""
        return self.apply(op.apply(self.adjoint(Psi)))
