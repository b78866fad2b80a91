import numpy as np
import pytest

from psqm import (Symbol, WindowedIsometry,
                  quantize_phase, quantize_config, intertwining_report,
                  heisenberg_weyl, hermite_state, random_config_state,
                  random_phase_state, norm_phase,
                  self_dual_phase_grid, PhaseState)
from psqm.spectral import eig
from oracles import apply_dense, bochner_phase_weyl, phase_weyl_dense


@pytest.fixture(scope="module")
def iso128(pg128):
    return WindowedIsometry(hermite_state(pg128.p_grid, 0))


def test_displacement_identity_and_unitarity(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    out = heisenberg_weyl((0.0, 0.0), Psi)
    assert np.abs(out.values - Psi.values).max() < 1e-14
    out2 = heisenberg_weyl((0.61, 1.7), Psi)
    assert abs(norm_phase(out2) - norm_phase(Psi)) < 1e-12


def test_displacement_restricts_to_lifted_displacement(pg128, iso128, rng):
    psi = random_config_state(pg128.x_grid, rng)
    z0 = (0.45, -0.8)
    lhs = heisenberg_weyl(z0, iso128.apply(psi))
    rhs = iso128.apply(heisenberg_weyl(z0, psi))
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


def test_unit_symbol_acts_as_identity(pg128, rng):
    op = quantize_phase(Symbol.unit(pg128))
    Psi = random_phase_state(pg128, rng)
    assert np.abs(op.apply(Psi).values - Psi.values).max() < 1e-10


def test_restricted_spectrum_is_config_spectrum(pg128, iso128):
    op = quantize_phase(Symbol.oscillator(pg128))
    w, _ = eig(op.restrict(iso128))
    assert np.abs(w[:8] - (np.arange(8) + 0.5)).max() < 1e-6


def test_intertwining_on_lifted_states(pg128, iso128, rng):
    op = quantize_phase(Symbol.oscillator(pg128))
    cfg = op.config_op
    for _ in range(10):
        psi = random_config_state(pg128.x_grid, rng)
        lhs = op.apply(iso128.apply(psi))
        rhs = iso128.apply(cfg.apply(psi))
        assert norm_phase(lhs.with_values(lhs.values - rhs.values)) < 1e-8


def test_intertwining_report_values(pg128, iso128, rng):
    rep, rep2 = intertwining_report([Symbol.coordinate(pg128), Symbol.oscillator(pg128)],
                                    iso128, 5, rng)
    assert rep["max_residual"] < 1e-10
    assert rep2["max_residual"] < 1e-8
    assert rep2["samples"] == 5
    with pytest.raises(ValueError, match="samples >= 1"):
        intertwining_report([Symbol.coordinate(pg128)], iso128, 0, rng)
    with pytest.raises(ValueError, match="0 symbols"):
        intertwining_report([], iso128, 5, rng)


def test_intertwining_report_shares_its_probes_between_symbols(pg128, iso128):
    # a joint call gives each symbol the residuals of a call on it alone
    # from the same seed: the symbols read the same pairs, not fresh ones
    symbols = [Symbol.coordinate(pg128), Symbol.momentum(pg128), Symbol.oscillator(pg128)]
    joint = intertwining_report(symbols, iso128, 4, np.random.default_rng(3))
    for a, rep in zip(symbols, joint):
        (alone,) = intertwining_report([a], iso128, 4, np.random.default_rng(3))
        assert alone == rep
    assert len({rep["forward_residual"] for rep in joint}) == len(symbols)


def test_matches_represented_config_operator_on_range(pg128, iso128, rng):
    a = Symbol.oscillator(pg128)
    op = quantize_phase(a)
    cfg = quantize_config(a)
    for _ in range(5):
        psi = random_config_state(pg128.x_grid, rng)
        lifted = iso128.apply(psi)
        lhs = op.apply(lifted)
        rhs = iso128.represent_apply(cfg, lifted)
        assert norm_phase(lhs.with_values(lhs.values - rhs.values)) < 1e-8


def test_eigenvalue_transport_both_ways(pg128, iso128):
    a = Symbol.oscillator(pg128)
    cfg = quantize_config(a)
    op = quantize_phase(a)
    w, states = eig(cfg)
    for k in (0, 2, 5):
        lifted = iso128.apply(states[k])
        out = op.apply(lifted)
        assert norm_phase(out.with_values(out.values - w[k] * lifted.values)) < 1e-8
        # downward: adjoint of a phase eigenstate is a config eigenstate
        back = iso128.adjoint(lifted)
        img = cfg.apply(back)
        assert np.abs(img.values - w[k] * back.values).max() < 1e-8


def test_commutes_with_p_multipliers(pg128, rng):
    op = quantize_phase(Symbol.oscillator(pg128))
    f = np.tanh(pg128.p_grid.points) + 0.2
    Psi = random_phase_state(pg128, rng)
    lhs = op.apply(Psi.with_values(Psi.values * f[None, :]))
    rhs = op.apply(Psi).values * f[None, :]
    assert np.abs(lhs.values - rhs).max() < 1e-10


def test_dense_matrix_small_grid_kron_structure(rng):
    pg = self_dual_phase_grid(32)
    op = quantize_phase(Symbol.oscillator(pg))
    dense = phase_weyl_dense(op, pg.p_grid)
    Psi = random_phase_state(pg, rng)
    lhs = apply_dense(dense, Psi)
    rhs = op.apply(Psi)
    assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_bochner_quadrature_consistency(pg64):
    # coarse displacement-superposition route (32^2 lattice, closed-form
    # symplectic transform of the Gaussian symbol) agrees at low accuracy
    X, XI = pg64.meshes()
    a = Symbol.from_samples(pg64, np.exp(-(X ** 2 + XI ** 2) / 2))
    op = quantize_phase(a)
    Psi = PhaseState(pg64, np.outer(hermite_state(pg64.x_grid, 0).values,
                                    hermite_state(pg64.p_grid, 1).values))

    def sft(x0, xi0):
        return np.exp(-(x0 ** 2 + xi0 ** 2) / 2)

    def displace(z0, values):
        return heisenberg_weyl(z0, PhaseState(pg64, values)).values

    approx = bochner_phase_weyl(sft, Psi.values, pg64.x_grid, displace)
    exact = op.apply(Psi).values
    # the displacement lattice is coarse (32^2) but the Gaussian weight
    # makes the quadrature converge well past the 1e-3 requirement
    assert np.abs(approx - exact).max() < 1e-3
