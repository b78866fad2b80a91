"""Memory ratchet: the traced high-water of the dense kernels above their
inputs, at n=256, in units of one n x n complex array (1 MiB there).

tracemalloc sees every numpy data allocation, the same way on every run,
so each value is a property of the code.  The table may only go down: a
change that needs more memory fails here, and one that saves a quarter
array or more fails too until its row is lowered.  Inputs, including
the oscillator's matrix and eigendecomposition, are built before the
measurement starts."""

import tracemalloc

import numpy as np
import pytest

from psqm import (compare_representations, eig, gaussian_state, hermite_state,
                  moyal_map, moyal_map_inv, quantize_config, random_phase_state,
                  self_dual_phase_grid, Symbol, weyl)

N = 256
UNIT = N * N * np.dtype(complex).itemsize

# Before each row's change: eig 1.13 (a scaled copy of all eigenvectors),
# moyal_map and moyal_map_inv 3.51 (out-of-place shears), the oscillator
# star product 5.16 (a zeros accumulator, spectra held to the end) and
# compare_representations 7.53.
BUDGET = {
    "eig": 0.01,
    "moyal_map": 2.53,
    "moyal_map_inv": 2.52,
    "groenewold_mixed[oscillator, left]": 4.16,
    "groenewold_mixed[oscillator, right]": 4.16,
    "compare_representations": 6.54,
}
SLACK = 0.25


@pytest.fixture(scope="module")
def calls():
    grid = self_dual_phase_grid(N)
    osc = Symbol.oscillator(grid)
    op = quantize_config(osc)
    op.eigh()
    Psi = random_phase_state(grid, np.random.default_rng(5))
    chi = hermite_state(grid.p_grid, 0)
    psi0 = gaussian_state(grid.x_grid, 1.0, 0.5, 1.0)
    poly = osc.poly
    return {
        "eig": lambda: eig(op),
        "moyal_map": lambda: moyal_map(Psi),
        "moyal_map_inv": lambda: moyal_map_inv(Psi),
        "groenewold_mixed[oscillator, left]":
            lambda: weyl.groenewold_mixed(poly, Psi.values, grid, True),
        "groenewold_mixed[oscillator, right]":
            lambda: weyl.groenewold_mixed(poly, Psi.values, grid, False),
        "compare_representations": lambda: compare_representations(osc, chi, 0.5, psi0),
    }


def _high_water(call) -> float:
    """Peak traced bytes above those live before ``call``, in arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / UNIT


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_high_water_within_budget(calls, name):
    used = _high_water(calls[name])
    assert used <= BUDGET[name], f"{name} peaks {used:.3f} arrays above its inputs"
    assert used > BUDGET[name] - SLACK, (
        f"{name} now peaks {used:.3f} arrays: lower its budget")
