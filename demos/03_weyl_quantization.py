"""Weyl quantization on the lattice.

Classical observables a(x, xi) become dense matrices through the
midpoint kernel formula.  The basics: 1 becomes the identity, x becomes
multiplication, xi becomes -i d/dx, and the harmonic oscillator
spectrum lands on half integers.  Products of operators correspond to
the star product of their symbols.
"""

import numpy as np

from psqm import (Symbol, LinOp, quantize_config, moyal_product, kernel_to_symbol,
                  self_dual_phase_grid, hermite_state)
from psqm.reference import fd_oscillator_levels

grid = self_dual_phase_grid(256)

ident = quantize_config(Symbol.unit(grid))
print(f"quantize(1) = identity: {np.abs(ident.matrix - np.eye(256)).max():.2e}")

xop = quantize_config(Symbol.coordinate(grid))
print(f"quantize(x) = diag(x): "
      f"{np.abs(xop.matrix - np.diag(grid.x_grid.points)).max():.2e}")

osc = quantize_config(Symbol.oscillator(grid))
w = np.linalg.eigvalsh(osc.matrix)
fd = fd_oscillator_levels(8)
print("\noscillator levels (grid / finite-difference oracle):")
for k in range(8):
    print(f"  {w[k]:.10f}   {fd[k]:.10f}")

# composition <-> star product
X, XI = grid.meshes()
damp = np.exp(-(X ** 2 + XI ** 2) / 8.0)
a = Symbol.from_samples(grid, (X + 0.3 * XI) * damp)
b = Symbol.from_samples(grid, damp)
c = moyal_product(a, b)
lhs = quantize_config(c).matrix
rhs = quantize_config(a).matrix @ quantize_config(b).matrix
print(f"\nquantize(a * b) vs quantize(a) quantize(b), operator norm: "
      f"{np.linalg.norm(lhs - rhs, ord=2):.2e}")

# the noncommutativity in symbol form: x * xi - xi * x = i
comm = moyal_product(Symbol.coordinate(grid), Symbol.momentum(grid)).values \
     - moyal_product(Symbol.momentum(grid), Symbol.coordinate(grid)).values
print(f"x (*) xi - xi (*) x = i: deviation {np.abs(comm - 1j).max():.2e}")

# rank-one projector onto the ground state has the Gaussian symbol
g0 = hermite_state(grid.x_grid, 0)
P = LinOp(grid.x_grid, np.outer(g0.values, np.conj(g0.values)) * grid.x_grid.spacing)
sym = kernel_to_symbol(P)
want = 2 * np.exp(-(X ** 2 + XI ** 2))
print(f"projector symbol = 2 exp(-(x^2+xi^2)): {np.abs(sym.values - want).max():.2e}")
