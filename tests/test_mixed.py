import re

import numpy as np
import pytest

from psqm import (MixedState, ZeroProjectionError, mixed_to_phase,
                  measure_probability, collapse, measurement_basis,
                  hermite_state, ConfigState, inner_phase,
                  norm_phase, quantize_config, Symbol, LinOp,
                  WindowedIsometry, self_dual_phase_grid, GridMismatchError)


@pytest.fixture(scope="module")
def setting():
    pg = self_dual_phase_grid(128)
    osc = quantize_config(Symbol.oscillator(pg))
    basis = measurement_basis(osc, 6)
    return pg, osc, basis


def weighted(chi, w):
    return ConfigState(chi.grid, np.sqrt(w) * chi.values)


def test_single_component_reduces_to_lift(setting):
    pg, _, basis = setting
    psi = basis[2][1]
    chi = hermite_state(pg.p_grid, 0)
    M = MixedState([(psi, chi)])
    Psi = mixed_to_phase(M)
    lifted = WindowedIsometry(chi).apply(psi)
    assert np.abs(Psi.values - lifted.values).max() < 1e-12


def test_two_component_norm(setting):
    pg, _, basis = setting
    comps = [(basis[0][1], weighted(hermite_state(pg.p_grid, 0), 0.3)),
             (basis[1][1], weighted(hermite_state(pg.p_grid, 1), 0.7))]
    M = MixedState(comps)
    assert abs(norm_phase(mixed_to_phase(M)) ** 2 - 1.0) < 1e-10
    assert np.abs(M.weights - [0.3, 0.7]).max() < 1e-12


def test_component_order_irrelevant(setting):
    pg, _, basis = setting
    c1 = (basis[0][1], weighted(hermite_state(pg.p_grid, 0), 0.4))
    c2 = (basis[3][1], weighted(hermite_state(pg.p_grid, 2), 0.6))
    A = mixed_to_phase(MixedState([c1, c2]))
    B = mixed_to_phase(MixedState([c2, c1]))
    assert np.abs(A.values - B.values).max() < 1e-12


def test_measure_probability_formula(setting):
    pg, _, basis = setting
    phi = basis[0][1]
    other = basis[3][1]
    comps = [(phi, weighted(hermite_state(pg.p_grid, 0), 0.3)),
             (other, weighted(hermite_state(pg.p_grid, 1), 0.7))]
    M = MixedState(comps)
    assert abs(measure_probability(M, phi) - 0.3) < 1e-10
    # all components aligned -> 1; all orthogonal -> 0
    M1 = MixedState([(phi, weighted(hermite_state(pg.p_grid, 0), 0.5)),
                     (phi, weighted(hermite_state(pg.p_grid, 1), 0.5))])
    assert abs(measure_probability(M1, phi) - 1.0) < 1e-10
    assert measure_probability(M1, other) < 1e-10


def test_probability_in_unit_interval_and_sums(setting):
    pg, _, basis = setting
    comps = [(basis[1][1], weighted(hermite_state(pg.p_grid, 0), 0.45)),
             (basis[4][1], weighted(hermite_state(pg.p_grid, 3), 0.55))]
    M = MixedState(comps)
    total = 0.0
    for _, phi in basis:
        p = measure_probability(M, phi)
        assert -1e-12 <= p <= 1 + 1e-10
        total += p
    assert total <= 1 + 1e-8


def test_collapse_pure_case(setting):
    pg, _, basis = setting
    phi = basis[0][1]
    M = MixedState([(phi, hermite_state(pg.p_grid, 0))])
    Psi = mixed_to_phase(M)
    col = collapse(M, phi)
    assert abs(abs(inner_phase(Psi, col)) ** 2 - 1.0) < 1e-10


def test_collapse_transition_probability(setting):
    pg, _, basis = setting
    phi = basis[0][1]
    comps = [(phi, weighted(hermite_state(pg.p_grid, 0), 0.3)),
             (basis[3][1], weighted(hermite_state(pg.p_grid, 1), 0.7))]
    M = MixedState(comps)
    Psi = mixed_to_phase(M)
    col = collapse(M, phi)
    assert abs(norm_phase(col) - 1.0) < 1e-12
    p = measure_probability(M, phi)
    assert abs(abs(inner_phase(Psi, col)) ** 2 - p) < 1e-10


def test_collapse_zero_probability_raises(setting):
    pg, _, basis = setting
    comps = [(basis[1][1], weighted(hermite_state(pg.p_grid, 0), 0.5)),
             (basis[2][1], weighted(hermite_state(pg.p_grid, 1), 0.5))]
    M = MixedState(comps)
    with pytest.raises(ZeroProjectionError):
        collapse(M, basis[5][1])


def test_window_constraints(setting):
    pg, _, basis = setting
    psi = basis[0][1]
    # weights not summing to one
    with pytest.raises(ValueError):
        MixedState([(psi, weighted(hermite_state(pg.p_grid, 0), 0.3)),
                    (psi.with_values(basis[1][1].values),
                     weighted(hermite_state(pg.p_grid, 1), 0.4))])
    # non-normalized psi
    with pytest.raises(ValueError):
        MixedState([(psi.with_values(2 * psi.values),
                     hermite_state(pg.p_grid, 0))])


def test_degenerate_measurement_rejected(pg128):
    # multiplication by x^2 has doubly degenerate eigenvalues
    a = Symbol.polynomial(pg128, {(2, 0): 1.0})
    op = quantize_config(a)
    with pytest.raises(ValueError):
        measurement_basis(op, 4)


@pytest.mark.parametrize("n_levels", [0, 129])
def test_measurement_basis_refuses_levels_outside_the_grid(setting, n_levels):
    # n_levels past n raised an IndexError from the eigenstates
    _, osc, _ = setting
    with pytest.raises(ValueError, match="n_levels must be in 1..128"):
        measurement_basis(osc, n_levels)


def test_too_many_components(setting):
    pg, _, basis = setting
    comps = [(basis[0][1], weighted(hermite_state(pg.p_grid, k), 1.0 / 9))
             for k in range(9)]
    with pytest.raises(ValueError):
        MixedState(comps)


def test_components_on_two_grids_refused(setting):
    pg, _, basis = setting
    psi_other = hermite_state(self_dual_phase_grid(64).x_grid, 1)
    with pytest.raises(GridMismatchError, match="share the two grids"):
        MixedState([(basis[0][1], weighted(hermite_state(pg.p_grid, 0), 0.5)),
                    (psi_other, weighted(hermite_state(pg.p_grid, 1), 0.5))])


def test_dependent_windows_refused(setting):
    pg, _, basis = setting
    chi = hermite_state(pg.p_grid, 0)
    with pytest.raises(ValueError, match="relative overlap 1.00e\\+00 is not at most 1e-10"):
        MixedState([(basis[0][1], weighted(chi, 0.5)),
                    (basis[1][1], weighted(chi, 0.5))])


def test_nan_component_and_nan_window_refused(setting):
    pg, _, basis = setting
    psi, chi = basis[0][1], hermite_state(pg.p_grid, 0)
    bad_psi = psi.with_values(psi.values.copy())
    bad_psi.values[7] = np.nan
    with pytest.raises(ValueError, match="psi_k must be normalized"):
        MixedState([(bad_psi, chi)])
    bad_chi = chi.with_values(chi.values.copy())
    bad_chi.values[7] = np.nan
    with pytest.raises(ValueError, match="window weights must sum to 1, got nan"):
        MixedState([(psi, bad_chi)])


def test_collapse_refuses_a_nan_projection(setting):
    pg, _, basis = setting
    M = MixedState([(basis[0][1], hermite_state(pg.p_grid, 0))])
    phi = basis[0][1].with_values(basis[0][1].values.copy())
    phi.values[7] = np.nan
    with pytest.raises(ZeroProjectionError, match="norm nan"):
        collapse(M, phi)


def _tilted(pg):
    # h_1 tilted towards h_0 by 0.05, weight 0.5: overlap 0.05 / sqrt(1 + 0.05^2)
    chi0, chi1 = hermite_state(pg.p_grid, 0), hermite_state(pg.p_grid, 1)
    return ConfigState(pg.p_grid, np.sqrt(0.5) * (chi1.values + 0.05 * chi0.values)
                       / np.sqrt(1 + 0.05 ** 2))


def _nan_window(pg):
    chi = weighted(hermite_state(pg.p_grid, 1), 0.5)
    chi.values[7] = np.nan
    return chi


@pytest.mark.parametrize("second, overlap", [
    (_tilted, "4.99e-02"),
    (lambda pg: weighted(hermite_state(pg.p_grid, 0), 0.5), "1.00e+00"),
    (_nan_window, "nan"),
], ids=["tilted", "given twice", "nan"])
def test_non_orthogonal_windows_refused(setting, second, overlap):
    # orthogonalizing the windows would build a different density matrix
    pg, _, basis = setting
    with pytest.raises(ValueError, match=re.escape(
            f"windows 0 and 1 are not orthogonal: relative overlap {overlap} "
            "is not at most 1e-10")):
        MixedState([(basis[0][1], weighted(hermite_state(pg.p_grid, 0), 0.5)),
                    (basis[1][1], second(pg))])


def test_components_are_kept_as_given(setting):
    pg, _, basis = setting
    comps = [(basis[0][1], weighted(hermite_state(pg.p_grid, 0), 0.3)),
             (basis[3][1], weighted(hermite_state(pg.p_grid, 1), 0.7))]
    M = MixedState(comps)
    for (psi, chi), (psi_in, chi_in) in zip(M.components, comps):
        assert psi is psi_in and chi is chi_in and chi.values is chi_in.values


def _dense_collapse(M, phi):
    # P_phi = |phi)(phi| as a dense n x n matrix, applied along x
    P = LinOp(phi.grid, np.outer(phi.values, phi.values.conj()) * phi.grid.spacing)
    out = P.apply(mixed_to_phase(M))
    return out.values / norm_phase(out)


def test_collapse_is_the_dense_projector_on_a_mixture_and_a_pure_state():
    # a complex phi, so a projector missing its conjugate fails too
    pg = self_dual_phase_grid(64)
    basis = measurement_basis(quantize_config(Symbol.oscillator(pg)), 4)
    psi0, psi1, psi2 = basis[0][1], basis[1][1], basis[2][1]
    phi = ConfigState(pg.x_grid, (psi0.values + 1j * psi2.values) / np.sqrt(2))
    mix = ConfigState(pg.x_grid, (psi0.values + psi1.values - psi2.values) / np.sqrt(3))
    mixture = MixedState([(mix, weighted(hermite_state(pg.p_grid, 0), 0.4)),
                          (psi1, weighted(hermite_state(pg.p_grid, 1), 0.6))])
    pure = MixedState([(mix, hermite_state(pg.p_grid, 2))])
    for M in (mixture, pure):
        assert np.abs(collapse(M, phi).values - _dense_collapse(M, phi)).max() <= 1e-13
    assert np.abs(mixed_to_phase(pure).values
                  - WindowedIsometry(hermite_state(pg.p_grid, 2)).apply(mix).values
                  ).max() <= 1e-15


def test_collapse_refuses_phi_on_another_grid(setting):
    pg, _, basis = setting
    M = MixedState([(basis[0][1], hermite_state(pg.p_grid, 0))])
    with pytest.raises(GridMismatchError, match="x grid"):
        collapse(M, hermite_state(self_dual_phase_grid(64).x_grid, 0))
