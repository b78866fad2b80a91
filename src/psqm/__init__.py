"""psqm: quantum mechanics in three unitarily equivalent representations
(configuration-space, phase-space Schrodinger, Moyal) on desk-scale
grids, with numerical verification of the equivalence identities."""

from .grids import (Grid1D, PhaseGrid, GridMismatchError, self_dual_grid,
                    self_dual_phase_grid, grids_compatible)
from .states import (ConfigState, PhaseState, inner_config, inner_phase,
                     norm_config, norm_phase, hermite_state, gaussian_state,
                     hermite_values, gaussian_values, boundary_mass,
                     random_config_state, random_phase_state)
from .fourier import forward_ft, inverse_ft, BandLimitError
from .weyl import (Symbol, LinOp, symbol_to_kernel, kernel_to_symbol,
                   quantize_config, heisenberg_weyl, moyal_product)
from .isometry import WindowedIsometry
from .phase_weyl import PhaseWeylOp, quantize_phase, intertwining_report
from .moyal import (dilate, rotate, moyal_map, moyal_map_inv, cross_wigner,
                    bopp_apply, moyal_heisenberg_weyl,
                    MoyalWeylOp, quantize_moyal, star_apply, stargen_residual)
from .mixed import (MixedState, ZeroProjectionError, mixed_to_phase,
                    measure_probability, collapse, measurement_basis)
from .spectral import eig, evolve, compare_representations, spectrum_report
from .verify import run_verify, default_params, SUITE_NAMES

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "PhaseGrid", "GridMismatchError",
    "self_dual_grid", "self_dual_phase_grid", "grids_compatible",
    "ConfigState", "PhaseState", "inner_config", "inner_phase",
    "norm_config", "norm_phase", "hermite_state", "gaussian_state",
    "hermite_values", "gaussian_values", "boundary_mass",
    "random_config_state", "random_phase_state",
    "forward_ft", "inverse_ft", "BandLimitError",
    "Symbol", "LinOp", "symbol_to_kernel", "kernel_to_symbol",
    "quantize_config", "heisenberg_weyl", "moyal_product",
    "WindowedIsometry",
    "PhaseWeylOp", "quantize_phase", "intertwining_report",
    "dilate", "rotate", "moyal_map", "moyal_map_inv", "cross_wigner",
    "bopp_apply", "moyal_heisenberg_weyl",
    "MoyalWeylOp", "quantize_moyal", "star_apply", "stargen_residual",
    "MixedState", "ZeroProjectionError", "mixed_to_phase",
    "measure_probability", "collapse", "measurement_basis",
    "eig", "evolve", "compare_representations", "spectrum_report",
    "run_verify", "default_params", "SUITE_NAMES",
]
