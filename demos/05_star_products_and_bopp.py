"""Star products acting on phase-space wave functions.

In the Moyal representation the canonical pair becomes the Bopp
operators x + (i/2) d/dp and p - (i/2) d/dx, and every Weyl operator
acts by star multiplication with its symbol.  Eigenfunctions solve the
stargenvalue problem a * Psi = lambda Psi.
"""

import numpy as np

from psqm import (Symbol, PhaseState, bopp_apply, star_apply,
                  stargen_residual, quantize_moyal, self_dual_phase_grid,
                  random_phase_state, norm_phase, moyal_map, moyal_map_inv)

grid = self_dual_phase_grid(256)
rng = np.random.default_rng(3)
Psi = random_phase_state(grid, rng)

# canonical commutators survive the Bopp substitution
c = bopp_apply("X", bopp_apply("Xi_x", Psi))
c = c.with_values(c.values - bopp_apply("Xi_x", bopp_apply("X", Psi)).values)
print(f"[X, Xi_x] = i on states: "
      f"{norm_phase(c.with_values(c.values - 1j * Psi.values)):.2e}")

# the Bopp operator X = x * (.) is multiplication by x conjugated by U
inner = moyal_map_inv(Psi)
lhs = moyal_map(inner.with_values(grid.meshes()[0] * inner.values))
rhs = bopp_apply("X", Psi)
print(f"U x U^-1 Psi = x * Psi: {np.abs(lhs.values - rhs.values).max():.2e}")

# star action = Moyal-Weyl operator action (two independent routes)
X, P = grid.meshes()
a = Symbol.from_samples(grid, (X * P + 0.2j * P ** 2) * np.exp(-(X ** 2 + P ** 2) / 8))
v1 = star_apply(a, Psi)
v2 = quantize_moyal(a).apply(Psi)
print(f"star action vs conjugated kernel operator: "
      f"{norm_phase(v1.with_values(v1.values - v2.values)):.2e}")

# the oscillator ground Wigner function is a stargenfunction at 1/2
W0 = PhaseState(grid, np.exp(-(X ** 2 + P ** 2)))
W0 = W0.with_values(W0.values / norm_phase(W0))
h = Symbol.oscillator(grid)
print(f"\nstargen residual of the ground Wigner blob at 1/2: "
      f"{stargen_residual(h, 0.5, W0):.2e}")
print(f"same state tested at the wrong eigenvalue 1.0: "
      f"{stargen_residual(h, 1.0, W0):.4f}  (should be ~0.5)")
