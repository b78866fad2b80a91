"""One quantum system, three unitarily equivalent pictures.

The same oscillator is diagonalized as a configuration-space operator;
its low eigenstates v_k are lifted into phase space (T v_k) and mapped
on to the Moyal picture (U T v_k), and the phase-space and Moyal
(star-product) operators are diagonalized on those spans by
Rayleigh-Ritz: the three spectra coincide.  The same initial state is
then evolved along all three routes and the evolved states agree after
mapping back.
"""

from psqm import (Symbol, hermite_state, gaussian_state, spectrum_report,
                  compare_representations, self_dual_phase_grid)

grid = self_dual_phase_grid(256)
chi = hermite_state(grid.p_grid, 0)

rep = spectrum_report(Symbol.oscillator(grid), chi)
print("oscillator spectra in the three representations:")
print("  level   config         phase on T v   moyal on U T v")
for k, (a, b, c) in enumerate(zip(rep["config"], rep["phase"], rep["moyal"])):
    print(f"  {k:3d}   {a:.10f}   {b:.10f}   {c:.10f}")
print(f"max pairwise deviation: {rep['max_deviation']:.2e}")

psi0 = gaussian_state(grid.x_grid, 1.0, 0.5, 1.0)
print("\ncoherent-state dynamics, pairwise distances after mapping back:")
for name in ("oscillator", "free"):
    sym = Symbol.oscillator(grid) if name == "oscillator" else Symbol.free_particle(grid)
    for r in compare_representations(sym, chi, (0.1, 0.5, 1.0), psi0):
        t = r["t"]
        print(f"  {name:10s} t={t:3.1f}: config/phase {r['config_phase']:.2e}  "
              f"config/moyal {r['config_moyal']:.2e}  norm drift {r['norm_drift']:.1e}")
