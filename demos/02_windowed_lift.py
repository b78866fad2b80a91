"""Lifting wave functions into phase space with a window.

A unit window chi turns psi(x) into Psi(x, p) = psi(x) chi(p)*.  The
lift preserves all inner products, its adjoint undoes it, and together
they project onto a closed subspace of the phase-space Hilbert space.
Different windows give unitarily related pictures.
"""

import numpy as np

from psqm import (WindowedIsometry, hermite_state, gaussian_state,
                  self_dual_phase_grid, inner_config, inner_phase,
                  norm_phase, random_config_state, random_phase_state)

grid = self_dual_phase_grid(256)
rng = np.random.default_rng(7)

iso = WindowedIsometry(hermite_state(grid.p_grid, 0))

psi = random_config_state(grid.x_grid, rng)
phi = random_config_state(grid.x_grid, rng)
dev = abs(inner_phase(iso.apply(psi), iso.apply(phi)) - inner_config(psi, phi))
print(f"inner products preserved by the lift: deviation {dev:.2e}")

Psi = random_phase_state(grid, rng)
proj = iso.project(Psi)
again = iso.project(proj)
print(f"projector idempotence: {norm_phase(again.with_values(again.values - proj.values)):.2e}")
print(f"projected fraction of a random phase state: {norm_phase(proj):.4f}")

back = iso.adjoint(iso.apply(psi))
print(f"adjoint inverts the lift: {np.abs(back.values - psi.values).max():.2e}")

# two windows, one physics: the transfer between the two ranges is isometric
iso2 = WindowedIsometry(gaussian_state(grid.p_grid, 0.5, -0.3, 1.2))
lifted2 = iso2.apply(psi)
moved = iso.apply(iso2.adjoint(lifted2))
print(f"\nwindow change preserves norms: "
      f"{norm_phase(lifted2):.10f} -> {norm_phase(moved):.10f}")
