"""Weyl operators acting on phase-space wave functions.

The phase-space Weyl operator of a symbol a(x, xi_x) acts along the x
axis only: its kernel factorizes as K_a(x, x') delta(p - p'), so the
dense config-space kernel matrix applied row-wise realizes the operator
exactly on the lattice.  The operator intertwines the windowed lift
with the configuration-space Weyl operator for every window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import PhaseGrid
from .states import (PhaseState, norm_config, norm_phase, random_config_state,
                     random_phase_state)
from .weyl import Symbol, LinOp, quantize_config
from .isometry import WindowedIsometry

__all__ = ["PhaseWeylOp", "quantize_phase", "intertwining_report"]


@dataclass(eq=False)
class PhaseWeylOp:
    """Phase-space Weyl operator of ``symbol``: its config matrix (the
    symbol's one :func:`quantize_config` operator) acting along x, the
    delta factor in p implicit, never a matrix on the full lattice."""

    symbol: Symbol
    config_op: LinOp = field(init=False)

    def __post_init__(self):
        self.config_op = quantize_config(self.symbol)

    def apply(self, Psi: PhaseState) -> PhaseState:
        return self.config_op.apply(Psi)

    def evolve(self, Psi: PhaseState, t: float) -> PhaseState:
        """exp(-i t A) Psi through the spectral decomposition of the
        x-axis kernel (the operator exponential of the full phase-space
        operator, using its product structure); the decomposition is the
        config operator's own (:meth:`LinOp.propagate`), so non-Hermitian
        kernels are refused."""
        return self.config_op.propagate(Psi, t)

    def restrict(self, iso: WindowedIsometry) -> LinOp:
        """Config-sized matrix of the operator compressed to the range of
        the lift: T* A T, computed by lifting the sample basis, applying
        the operator and integrating against the window."""
        chi = iso.window.values
        dp = iso.p_grid.spacing
        # A (e_j (x) chi*) = (M e_j) (x) chi*; integrate against chi dp
        lifted_weight = np.sum(np.conj(chi) * chi).real * dp
        R = self.config_op.matrix * lifted_weight
        return LinOp(self.config_op.grid, R)


def quantize_phase(a: Symbol) -> PhaseWeylOp:
    """Phase-space Weyl operator of a symbol (:class:`PhaseWeylOp`)."""
    return PhaseWeylOp(a)


def intertwining_report(symbols, iso: WindowedIsometry, samples: int,
                        rng: np.random.Generator) -> list:
    """Max residuals of the two intertwining relations of each symbol in
    ``symbols`` (all on one grid) over ``samples`` random normalized
    pairs (psi, Psi), one dict per symbol in order:

      forward:  A (T psi) = T (a psi)
      adjoint:  T* (A Psi) = a (T* Psi)

    Each pair is drawn once, config state then phase state, and checked
    against every symbol before the next is drawn, so the symbols share
    their probes and one pair is alive at a time; T psi and T* Psi are
    formed once per pair."""
    if samples < 1 or not symbols:
        raise ValueError(f"intertwining_report needs samples >= 1 and a symbol, got "
                         f"{samples} samples and {len(symbols)} symbols")
    ops = [quantize_phase(a) for a in symbols]
    grid = ops[0].config_op.grid
    fwd = [0.0] * len(ops)
    adj = [0.0] * len(ops)
    for _ in range(samples):
        psi = random_config_state(grid, rng)
        Psi = random_phase_state(PhaseGrid(grid, iso.p_grid), rng)
        lifted = iso.apply(psi)
        lowered = iso.adjoint(Psi)
        for k, op in enumerate(ops):
            cfg = op.config_op
            lhs = op.apply(lifted)
            lhs.values -= iso.apply(cfg.apply(psi)).values
            fwd[k] = max(fwd[k], norm_phase(lhs))
            del lhs
            lhs2 = iso.adjoint(op.apply(Psi))
            rhs2 = cfg.apply(lowered)
            adj[k] = max(adj[k], norm_config(lhs2.with_values(lhs2.values - rhs2.values)))
        del Psi, lifted   # before the next pair is drawn
    return [{
        "relation": "phase_weyl intertwining",
        "max_residual": max(f, a),
        "forward_residual": f,
        "adjoint_residual": a,
        "samples": samples,
    } for f, a in zip(fwd, adj)]
