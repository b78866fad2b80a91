import numpy as np
import pytest

from psqm import (WindowedIsometry, PhaseState, PhaseGrid,
                  hermite_state, gaussian_state, inner_config, inner_phase,
                  norm_config, norm_phase, random_config_state,
                  random_phase_state, quantize_config, Symbol,
                  self_dual_phase_grid, Grid1D)
from psqm.weyl import LinOp
from psqm.spectral import eig
from oracles import (apply_dense, derivative_matrix, hermiticity_defect, lifted_dense,
                     spectral_derivative)


@pytest.fixture(scope="module")
def iso128(pg128):
    return WindowedIsometry(hermite_state(pg128.p_grid, 0))


def test_window_must_be_normalized(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    with pytest.raises(ValueError):
        WindowedIsometry(chi.with_values(2.0 * chi.values))


def test_lift_of_ground_state_is_gaussian_product(pg128, iso128):
    psi = hermite_state(pg128.x_grid, 0)
    Psi = iso128.apply(psi)
    X, P = pg128.meshes()
    want = np.pi ** -0.5 * np.exp(-(X ** 2 + P ** 2) / 2)
    assert np.abs(Psi.values - want).max() < 1e-14


def test_lift_is_isometric_and_linear(pg128, iso128, rng):
    for _ in range(20):
        psi = random_config_state(pg128.x_grid, rng)
        phi = random_config_state(pg128.x_grid, rng)
        assert abs(inner_phase(iso128.apply(psi), iso128.apply(phi))
                   - inner_config(psi, phi)) < 1e-10
        assert abs(norm_phase(iso128.apply(psi)) - norm_config(psi)) < 1e-10
    a, b = 0.3 - 1j, 2.2j
    combo = iso128.apply(psi.with_values(a * psi.values + b * phi.values))
    parts = a * iso128.apply(psi).values + b * iso128.apply(phi).values
    assert np.abs(combo.values - parts).max() < 1e-12


def test_adjoint_inverts_lift(pg128, iso128, rng):
    psi = random_config_state(pg128.x_grid, rng)
    back = iso128.adjoint(iso128.apply(psi))
    assert np.abs(back.values - psi.values).max() < 1e-10


def test_adjoint_kills_orthogonal_windows(pg128, iso128):
    psi = hermite_state(pg128.x_grid, 2)
    eta = hermite_state(pg128.p_grid, 1)   # orthogonal to the hermite-0 window
    Psi = PhaseState(pg128, np.outer(psi.values, np.conj(eta.values)))
    out = iso128.adjoint(Psi)
    assert np.abs(out.values).max() < 1e-10


def test_adjoint_identity_on_random_pairs(pg128, iso128, rng):
    for _ in range(10):
        Psi = random_phase_state(pg128, rng)
        phi = random_config_state(pg128.x_grid, rng)
        lhs = inner_config(iso128.adjoint(Psi), phi)
        rhs = inner_phase(Psi, iso128.apply(phi))
        assert abs(lhs - rhs) < 1e-10


def test_projector_properties(pg128, iso128, rng):
    Psi = random_phase_state(pg128, rng)
    Phi = random_phase_state(pg128, rng)
    P1 = iso128.project(Psi)
    P2 = iso128.project(P1)
    assert norm_phase(P2.with_values(P2.values - P1.values)) < 1e-10
    assert abs(inner_phase(Phi, P1) - inner_phase(iso128.project(Phi), Psi)) < 1e-10
    # fixed on its range
    lifted = iso128.apply(random_config_state(pg128.x_grid, rng))
    again = iso128.project(lifted)
    assert np.abs(again.values - lifted.values).max() < 1e-10


def test_represented_multiplication_and_derivative(pg128, iso128, rng):
    g = pg128.x_grid
    X = LinOp(g, np.diag(g.points))
    D = LinOp(g, derivative_matrix(g))
    psi = random_config_state(g, rng)
    for op in (X, D):
        lhs = iso128.represent_apply(op, iso128.apply(psi))
        rhs = iso128.apply(op.apply(psi))
        assert norm_phase(lhs.with_values(lhs.values - rhs.values)) < 1e-10


def test_represent_dense_structure_small_grid(rng):
    pg = self_dual_phase_grid(32)
    iso = WindowedIsometry(hermite_state(pg.p_grid, 0))
    a = Symbol.oscillator(pg)
    cfg = quantize_config(a)
    A = lifted_dense(iso, cfg)
    assert hermiticity_defect(A) < 1e-10
    # action matches the matrix-free path
    Psi = random_phase_state(pg, rng)
    lhs = apply_dense(A, Psi)
    rhs = iso.represent_apply(cfg, Psi)
    assert np.abs(lhs.values - rhs.values).max() < 1e-10
    # vanishes on the orthocomplement of the range
    psi = hermite_state(pg.x_grid, 1)
    eta = hermite_state(pg.p_grid, 3)
    perp = PhaseState(pg, np.outer(psi.values, np.conj(eta.values)))
    assert norm_phase(apply_dense(A, perp)) < 1e-10


def test_spectral_transport_of_eigenpairs(pg128, iso128):
    cfg = quantize_config(Symbol.oscillator(pg128))
    w, states = eig(cfg)
    for k in range(6):
        lifted = iso128.apply(states[k])
        img = iso128.represent_apply(cfg, lifted)
        resid = img.with_values(img.values - w[k] * lifted.values)
        assert norm_phase(resid) < 1e-8


def test_window_change_is_isometry_between_ranges(pg128, rng):
    iso1 = WindowedIsometry(hermite_state(pg128.p_grid, 0))
    iso2 = WindowedIsometry(hermite_state(pg128.p_grid, 2))
    for _ in range(5):
        psi = random_config_state(pg128.x_grid, rng)
        Psi2 = iso2.apply(psi)
        moved = iso1.apply(iso2.adjoint(Psi2))
        assert abs(norm_phase(moved) - norm_phase(Psi2)) < 1e-10
        # lands on the range of iso1
        assert np.abs(iso1.project(moved).values - moved.values).max() < 1e-12


def test_weak_constraint_expectations(pg128):
    # lifted states concentrate p and (d/dp)-frequency at the window's
    # conjugate center: <p> = p0 and <-i d/dp> = xi_p0 for the window
    # whose conjugate sits at (p0, xi_p0)
    p0, xip0 = 1.2, -0.7
    chi = gaussian_state(pg128.p_grid, p0, -xip0, 1.0)  # conj centered (p0, +xip0)
    iso = WindowedIsometry(chi)
    psi = hermite_state(pg128.x_grid, 1)
    Psi = iso.apply(psi)
    P = pg128.p_grid.points
    pexp = inner_phase(Psi, Psi.with_values(Psi.values * P[None, :]))
    assert abs(pexp - p0) < 1e-8
    dpsi = -1j * spectral_derivative(Psi.values, pg128.p_grid, axis=1)
    xiexp = inner_phase(Psi, Psi.with_values(dpsi))
    assert abs(xiexp - xip0) < 1e-8


def test_grid_mismatch_raises(pg128, iso128):
    other = Grid1D(128, 5.0)
    bad = PhaseState(PhaseGrid(pg128.x_grid, other), np.zeros(pg128.shape))
    with pytest.raises(Exception):
        iso128.adjoint(bad)


def test_window_holding_a_nan_refused(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    chi.values[3] = np.nan
    with pytest.raises(ValueError, match="unit norm.*got nan"):
        WindowedIsometry(chi)
