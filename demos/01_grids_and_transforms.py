"""Grids and unitary Fourier transforms.

Every lattice carries a Fourier-dual lattice with
spacing * dual_spacing * n_points = 2*pi; the discrete transform is
exactly unitary between the two.  The self-dual lattice (spacing
sqrt(2*pi/N)) coincides with its own dual and underlies all the
phase-space calculus in this package.
"""

import numpy as np

from psqm import (ConfigState, Grid1D, self_dual_grid, forward_ft,
                  inverse_ft, norm_config)

# a garden-variety grid and its dual
g = Grid1D(256, 12.0)
print(f"grid: N={g.n_points}, spacing={g.spacing:.6f}, "
      f"dual spacing={g.dual_spacing:.6f}")
print(f"spacing * dual_spacing * N = {g.spacing * g.dual_spacing * g.n_points:.12f}"
      f"  (2*pi = {2 * np.pi:.12f})")

# the standard Gaussian is a fixed point of the transform
psi = ConfigState(g, np.exp(-g.points ** 2 / 2) / np.pi ** 0.25)
hat = forward_ft(psi)
dev = np.abs(hat.values - np.exp(-hat.grid.points ** 2 / 2) / np.pi ** 0.25).max()
print(f"\nGaussian fixed point deviation: {dev:.2e}")
print(f"norm in / out: {norm_config(psi):.12f} / {norm_config(hat):.12f}")

back = inverse_ft(hat, g)
print(f"round trip error: {np.abs(back.values - psi.values).max():.2e}")

# the self-dual lattice
sd = self_dual_grid(256)
print(f"\nself-dual lattice: spacing = {sd.spacing:.6f} = sqrt(2*pi/256) "
      f"= {np.sqrt(2 * np.pi / 256):.6f}")
print(f"half width {sd.half_width:.4f}; dual is the same lattice: {sd.is_self_dual}")
