"""Memory ratchet: the traced high-water of the dense kernels above their
inputs, at n=256, in units of one n x n complex array (1 MiB there).

tracemalloc sees every numpy data allocation, the same way on every run,
so each value is a property of the code.  The table may only go down: a
change that needs more memory fails here, and one that saves a quarter
array or more fails too until its row is lowered.  Inputs, including
the oscillator's matrix and eigendecomposition, are built before the
measurement starts."""

import gc
import tracemalloc

import numpy as np
import pytest

from psqm import (compare_representations, eig, fourier, gaussian_state,
                  hermite_state, moyal_map, moyal_map_inv, moyal_product,
                  quantize_config, random_phase_state, rotate, self_dual_phase_grid,
                  spectrum_report, stargen_residual, Symbol, weyl)
from psqm.verify import run_verify

N = 256
UNIT = N * N * np.dtype(complex).itemsize

# Before each row's change: eig 1.13 (a scaled copy of all eigenvectors),
# moyal_map and moyal_map_inv 3.51 (out-of-place shears), then 2.53 and
# 2.52 (an n x n transposed shear buffer), the oscillator star product
# 5.16 (a zeros accumulator, spectra held to the end), then 4.16 (both
# spectra and whole-array products), compare_representations 7.53, then
# 6.54 (both pictures' states held at once), kernel_to_symbol of a real
# operator 4.14, then 3.64, and of a complex one 4.14 (whole index
# tables, the half-shifted kernel held to the end, an out-of-place last
# FFT), symbol_to_kernel of a complex symbol 5.51 (whole index tables,
# an out-of-place FFT of the midpoint table), and the sampled star
# product 6.51 (the kernel, a real factor's included, was always
# complex), then 6.01.  Rows added with the blocked passes, with their
# earlier peaks: stargen_residual 4.15, spectrum_report 19.52 (the lifted
# basis held while mapped) and lattice_shear along axis 0 1.51.  Then
# symbol_to_kernel 4.01 (the midpoint table stacked from the samples and
# a separate half-shift array), kernel_to_symbol 3.14 and 2.02
# (out-of-place half shifts), the sampled star product 4.51 (the same),
# and building the oscillator 1.00 (its samples).  rotate was 6.01 (three
# copying Fourier shifts, each with its n x n phase table) before it
# sheared its transform buffer in place, then 4.14 (ft_array and
# ift_array multiplied their phases into new arrays).  At n=1024, where a
# 64-line block is 1/16 of an array rather than 1/4, symbol_to_kernel
# peaks at 3.05 and kernel_to_symbol at 2.07 (complex) and 1.57 (real).
BUDGET = {
    "eig": 0.01,
    "moyal_map": 1.77,
    "moyal_map_inv": 1.77,
    "groenewold_mixed[oscillator, left]": 2.66,
    "groenewold_mixed[oscillator, right]": 2.66,
    "compare_representations": 4.15,
    "symbol_to_kernel[damped complex]": 3.20,
    "kernel_to_symbol[real]": 1.79,
    "kernel_to_symbol[complex]": 2.29,
    "moyal_product[sampled]": 3.71,
    "stargen_residual": 2.66,
    "spectrum_report": 12.78,
    "Symbol.oscillator": 0.01,
    "lattice_shear[axis 0]": 0.76,
    "rotate": 2.27,
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
    X, XI = grid.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 8.0)
    mixed = 0.3 - 0.2 * X + 0.7 * XI + 0.4 * X * XI - 0.6 * X ** 2 + 0.5j * XI ** 2
    damped = Symbol.from_samples(grid, mixed * np.exp(-((X - 0.2) ** 2 + (XI + 0.4) ** 2) / 8.0))
    damped_op = quantize_config(damped)
    a = Symbol.from_samples(grid, damp)
    b = Symbol.from_samples(grid, (X * XI + 0.2j * XI ** 2) * damp)
    shear = Psi.values.copy()
    steps = np.arange(N) - N // 2
    return {
        "eig": lambda: eig(op),
        "moyal_map": lambda: moyal_map(Psi),
        "moyal_map_inv": lambda: moyal_map_inv(Psi),
        "groenewold_mixed[oscillator, left]":
            lambda: weyl.groenewold_mixed(poly, Psi.values, grid, True),
        "groenewold_mixed[oscillator, right]":
            lambda: weyl.groenewold_mixed(poly, Psi.values, grid, False),
        "compare_representations": lambda: compare_representations(osc, chi, 0.5, psi0),
        "symbol_to_kernel[damped complex]": lambda: weyl.symbol_to_kernel(damped),
        "kernel_to_symbol[real]": lambda: weyl.kernel_to_symbol(op),
        "kernel_to_symbol[complex]": lambda: weyl.kernel_to_symbol(damped_op),
        "moyal_product[sampled]": lambda: moyal_product(a, b),
        "stargen_residual": lambda: stargen_residual(osc, 2.5, Psi),
        "spectrum_report": lambda: spectrum_report(osc, chi),
        "lattice_shear[axis 0]": lambda: fourier.lattice_shear(shear, steps, 0),
        "rotate": lambda: rotate(Psi, -np.pi / 4),
        "Symbol.oscillator": lambda: Symbol.oscillator(grid),
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


def test_run_verify_leaves_no_n2_array_behind():
    # the unitarity suite dilates and draws random phase states: neither
    # a dilation table nor a random-state envelope outlives the run
    tracemalloc.start()
    try:
        assert run_verify(["unitarity"], {"n_points": N})["passed"]
        gc.collect()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    left = [f"{t.traceback[0]}: {t.size} B" for t in traces
            if t.size >= N * N * np.dtype(float).itemsize]
    assert left == []
