import numpy as np
import pytest

import psqm.moyal
import psqm.weyl
from psqm import (Symbol, LinOp, quantize_config, eig, evolve,
                  compare_representations, spectrum_report, hermite_state,
                  gaussian_state, inner_config, norm_config,
                  random_config_state, random_phase_state, WindowedIsometry,
                  self_dual_phase_grid, quantize_phase, quantize_moyal,
                  heisenberg_weyl, run_verify, Grid1D, PhaseGrid,
                  PhaseState, GridMismatchError)
from psqm.reference import fd_oscillator_levels
from oracles import (eig_state_rows, explicit_propagator, lifted_dense,
                     moyal_restrict_basis_loop)


def test_oscillator_eigensystem_vs_fd_oracle(pg128):
    op = quantize_config(Symbol.oscillator(pg128))
    w, states = eig(op)
    fd = fd_oscillator_levels(5)
    assert np.abs(w[:5] - fd).max() < 1e-6
    assert np.abs(w[:5] - (np.arange(5) + 0.5)).max() < 1e-6
    # eigenvectors orthonormal in the grid inner product
    for i in range(4):
        for j in range(4):
            got = inner_config(states[i], states[j])
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-8


def test_identity_operator_spectrum(pg128):
    op = LinOp(pg128.x_grid, np.eye(128))
    w, _ = eig(op)
    assert np.abs(w - 1.0).max() < 1e-12


def test_eig_rejects_non_hermitian(pg128):
    m = np.diag(np.arange(128.0))
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        eig(LinOp(pg128.x_grid, m))


def test_propagator_matches_explicit_route(pg128, rng):
    # the oscillator takes the real eigenbasis; the oracle is built from
    # the complex eigh of the symmetrized matrix
    a = Symbol.oscillator(pg128)
    cfg = quantize_config(a)
    U = explicit_propagator(cfg.matrix, 0.7)
    w, states = eig(cfg)
    assert np.isrealobj(cfg.eigh()[1])
    V = np.stack([v.values for v in states], axis=1) * np.sqrt(pg128.x_grid.spacing)
    assert np.abs((V * np.exp(-0.7j * w)) @ V.conj().T - U).max() <= 1e-12
    psi = random_config_state(pg128.x_grid, rng)
    assert np.abs(evolve(cfg, psi, 0.7).values - U @ psi.values).max() <= 1e-12
    Psi = random_phase_state(pg128, rng)
    got = quantize_phase(a).evolve(Psi, 0.7).values
    assert np.abs(got - U @ Psi.values).max() <= 1e-12


def test_dense_products_ignore_components_below_sqrt_tiny(pg128, rng):
    a = Symbol.oscillator(pg128)
    op = quantize_phase(a)
    cfg = op.config_op
    vals = random_phase_state(pg128, rng).values
    tails = rng.random(vals.shape) < 0.25
    vals[tails] = 1e-300 * np.exp(2j * np.pi * rng.random(tails.sum()))
    Psi = PhaseState(pg128, vals)

    def unflushed(M, v):
        # the products of LinOp.apply/propagate, without the flush
        if np.iscomplexobj(M):
            return M @ v
        return (M @ np.ascontiguousarray(v).view(float)).view(complex)

    assert np.abs(op.apply(Psi).values - unflushed(cfg.matrix, vals)).max() <= 1e-140
    w, V = cfg.eigh()
    coeffs = unflushed(V.conj().T, vals) * np.exp(-0.7j * w)[:, None]
    want = unflushed(V, coeffs)
    assert np.abs(op.evolve(Psi, 0.7).values - want).max() <= 1e-140


def test_linop_refuses_a_state_on_another_x_grid(rng):
    g5, g9 = Grid1D(64, 5.0), Grid1D(64, 9.0)
    a = Symbol.oscillator(PhaseGrid(g5, g5.dual))
    cfg = quantize_config(a)
    psi = hermite_state(g9, 0)
    Psi = random_phase_state(PhaseGrid(g9, g9.dual), rng)
    for call in (lambda: cfg.apply(psi), lambda: evolve(cfg, psi, 0.5),
                 lambda: quantize_phase(a).apply(Psi),
                 lambda: quantize_phase(a).evolve(Psi, 0.5)):
        with pytest.raises(GridMismatchError, match="x grid"):
            call()


def test_compare_representations_takes_one_eigendecomposition(pg128, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rep = compare_representations(Symbol.oscillator(pg128),
                                  hermite_state(pg128.p_grid, 0), 0.5,
                                  gaussian_state(pg128.x_grid, 1.0, 0.5, 1.0))
    assert rep["max_distance"] < 1e-6
    assert len(calls) == 1


def test_compare_representations_over_times_equals_one_call_per_time(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    psi0 = gaussian_state(pg128.x_grid, 1.0, 0.5, 1.0)
    times = (0.1, 0.5, 1.0)
    for sym in (Symbol.oscillator(pg128), Symbol.free_particle(pg128)):
        reps = compare_representations(sym, chi, times, psi0)
        assert reps == [compare_representations(sym, chi, t, psi0) for t in times]


def test_verify_dynamics_takes_one_eigendecomposition_per_symbol(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = run_verify(["dynamics"], {"n_points": 64})
    assert report["n_checks"] == 12
    assert len(calls) == 2


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def test_one_symbol_is_quantized_and_decomposed_once(pg128, monkeypatch):
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    kernels = _count_calls(monkeypatch, psqm.weyl, "symbol_to_kernel")
    osc = Symbol.oscillator(pg128)
    chi = hermite_state(pg128.p_grid, 0)
    w, _ = eig(quantize_config(osc))
    rep = compare_representations(osc, chi, 0.5,
                                  gaussian_state(pg128.x_grid, 1.0, 0.5, 1.0))
    spec = spectrum_report(osc, chi)
    assert np.abs(w[:5] - (np.arange(5) + 0.5)).max() < 1e-6
    assert rep["max_distance"] < 1e-6 and spec["max_deviation"] < 1e-6
    assert len(eighs) == 1 and len(kernels) == 1


def test_verify_suites_share_one_oscillator(monkeypatch):
    # the oscillator of spectrum, dynamics and mixed, plus the free
    # particle; the finite-difference oracle's one other eigh is of its
    # 16 x 16 Rayleigh-Ritz matrix
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    report = run_verify(["spectrum", "dynamics", "mixed"], {"n_points": 128})
    assert report["passed"] and report["n_checks"] == 19
    assert sorted(np.shape(args[0]) for args in eighs) == [(16, 16), (128, 128),
                                                           (128, 128)]


def test_every_evolve_refuses_a_non_hermitian_symbol(pg64, rng):
    X, XI = pg64.meshes()
    a = Symbol.from_samples(pg64, 1j * X * XI * np.exp(-(X ** 2 + XI ** 2) / 4))
    cfg = quantize_config(a)
    assert cfg.hermiticity_defect() > 1.0
    Psi = random_phase_state(pg64, rng)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve(cfg, random_config_state(pg64.x_grid, rng), 0.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        quantize_phase(a).evolve(Psi, 0.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        quantize_moyal(a).evolve(Psi, 0.5)


def test_evolve_identity_at_zero_time(pg128, rng):
    op = quantize_config(Symbol.oscillator(pg128))
    psi = random_config_state(pg128.x_grid, rng)
    out = evolve(op, psi, 0.0)
    assert np.abs(out.values - psi.values).max() < 1e-12


def test_coherent_state_period(pg128):
    # discretized oscillator spectrum is half-integer to ~1e-10, so the
    # evolution is 2*pi-periodic up to a global phase
    op = quantize_config(Symbol.oscillator(pg128))
    psi0 = gaussian_state(pg128.x_grid, 1.0, 0.0, 1.0)
    out = evolve(op, psi0, 2 * np.pi)
    fidelity = abs(inner_config(psi0, out))
    assert fidelity > 1 - 1e-5


def test_evolve_conserves_norm(pg128, rng):
    h = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    h = 0.5 * (h + h.conj().T)
    op = LinOp(pg128.x_grid, h)
    psi = random_config_state(pg128.x_grid, rng)
    out = evolve(op, psi, 0.7)
    assert abs(norm_config(out) - norm_config(psi)) < 1e-8


def test_compare_representations_zero_time(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    psi0 = gaussian_state(pg128.x_grid, 1.0, 0.5, 1.0)
    rep = compare_representations(Symbol.oscillator(pg128), chi, 0.0, psi0)
    assert rep["max_distance"] < 1e-12


@pytest.mark.parametrize("name", ["oscillator", "free"])
def test_compare_representations_equivalence(pg128, name):
    chi = hermite_state(pg128.p_grid, 0)
    psi0 = gaussian_state(pg128.x_grid, 1.0, 0.5, 1.0)
    sym = (Symbol.oscillator(pg128) if name == "oscillator"
           else Symbol.free_particle(pg128))
    rep = compare_representations(sym, chi, 0.5, psi0)
    assert rep["max_distance"] < 1e-6
    assert rep["norm_drift"] < 1e-8


def test_dynamics_commutes_with_lift():
    # evolve the dense lifted operator directly and compare with lifting
    # the config evolution
    pg = self_dual_phase_grid(32)
    chi = hermite_state(pg.p_grid, 0)
    iso = WindowedIsometry(chi)
    cfg = quantize_config(Symbol.oscillator(pg))
    U = explicit_propagator(lifted_dense(iso, cfg), 0.8)
    psi0 = gaussian_state(pg.x_grid, 0.4, -0.2, 1.0)
    lhs = (U @ iso.apply(psi0).values.reshape(-1)).reshape(pg.shape)
    rhs = iso.apply(evolve(cfg, psi0, 0.8))
    # the lifted operator annihilates the orthocomplement, so the lifted
    # initial state stays on the range and the evolutions agree
    assert np.abs(lhs - rhs.values).max() < 1e-7


def test_spectrum_report_oscillator(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    rep = spectrum_report(Symbol.oscillator(pg128), chi)
    assert rep["discrete"]
    assert rep["max_deviation"] < 1e-6
    assert np.abs(np.asarray(rep["config"]) - (np.arange(8) + 0.5)).max() < 1e-6


def test_spectrum_report_multiplication_flagged_continuous(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    rep = spectrum_report(Symbol.coordinate(pg128), chi)
    assert not rep["discrete"]
    assert "config_quantiles" in rep and "max_deviation" not in rep
    # multiplication spectrum is the grid itself
    qs = np.asarray(rep["config_quantiles"])
    assert abs(qs[0] - pg128.x_grid.points[0]) < 1e-8


def test_spectrum_report_unit_symbol(pg128):
    chi = hermite_state(pg128.p_grid, 0)
    rep = spectrum_report(Symbol.unit(pg128), chi)
    assert rep["discrete"]
    assert np.abs(np.asarray(rep["config"]) - 1.0).max() < 1e-10
    assert rep["max_deviation"] < 1e-6


@pytest.mark.parametrize("n", [64, 128, 256])
def test_oscillator_ladders_are_the_lowest_eight_values_unmerged(n):
    # every step is far above any round-off merge distance (1e-9), so a
    # merge of near-equal levels would leave these ladders bit for bit
    pg = self_dual_phase_grid(n)
    osc = Symbol.oscillator(pg)
    rep = spectrum_report(osc, hermite_state(pg.p_grid, 0))
    assert rep["config"] == eig(quantize_config(osc))[0][:8].tolist()
    for name in ("config", "phase", "moyal"):
        assert len(rep[name]) == 8 and np.diff(rep[name]).min() > 0.5


def test_unit_symbol_ladders_are_eight_equal_values(pg128):
    rep = spectrum_report(Symbol.unit(pg128), hermite_state(pg128.p_grid, 0))
    for name in ("config", "phase", "moyal"):
        assert len(rep[name]) == 8
        assert np.abs(np.asarray(rep[name]) - 1.0).max() < 1e-10


def test_moyal_restrict_and_ladder_match_basis_loop(pg64):
    iso = WindowedIsometry(hermite_state(pg64.p_grid, 0))
    osc = Symbol.oscillator(pg64)
    op = quantize_moyal(osc)
    ref = moyal_restrict_basis_loop(op, iso)
    assert np.abs(op.restrict(iso).matrix - ref).max() <= 1e-12
    rep = spectrum_report(osc, iso.window)
    ladder = np.asarray(rep["moyal"])
    want = np.linalg.eigvalsh(0.5 * (ref + ref.conj().T))[:len(ladder)]
    assert len(ladder) == 8
    assert np.abs(ladder - want).max() <= 1e-12


def test_moyal_ladder_detects_a_broken_inverse_map(pg64, monkeypatch):
    # U^{-1} followed by a small x shift: U A U^{-1} is no longer
    # equivalent to A, and the Moyal ladder must say so
    exact = psqm.moyal.moyal_map_inv
    monkeypatch.setattr(psqm.moyal, "moyal_map_inv",
                        lambda Psi: heisenberg_weyl((0.01, 0.0), exact(Psi)))
    rep = spectrum_report(Symbol.oscillator(pg64), hermite_state(pg64.p_grid, 0))
    assert rep["config_phase"] < 1e-12
    assert rep["config_moyal"] > 1e-6


@pytest.mark.parametrize("coeffs", [{(2, 0): 0.5, (0, 2): 0.5}, {(0, 1): 1.0}],
                         ids=["real V", "complex V"])
def test_eig_states_are_the_scaled_eigenvector_columns_bit_for_bit(pg64, coeffs):
    op = quantize_config(Symbol.polynomial(pg64, coeffs))
    _, V = op.eigh()
    _, states = eig(op)
    weight = np.sqrt(pg64.x_grid.spacing)
    for k, s in enumerate(states):
        want = np.asarray(V[:, k] / weight, dtype=complex)
        assert np.array_equal(s.values.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("coeffs", [{(2, 0): 0.5, (0, 2): 0.5}, {(0, 1): 1.0}],
                         ids=["real V", "complex V"])
def test_eig_states_equal_the_rows_of_the_scaled_copy_byte_for_byte(n, coeffs):
    # each state is built when read, from the operator's cached eigenbasis
    op = quantize_config(Symbol.polynomial(self_dual_phase_grid(n), coeffs))
    _, states = eig(op)
    rows = eig_state_rows(op)
    assert len(states) == n
    assert [s.values.tobytes() for s in states] == [r.tobytes() for r in rows]


def test_eig_states_read_by_index_slice_and_iteration(pg64):
    op = quantize_config(Symbol.oscillator(pg64))
    _, states = eig(op)
    rows = eig_state_rows(op)
    assert states[-1].values.tobytes() == rows[-1].tobytes()
    picked = states[2:9:3]
    assert isinstance(picked, list) and len(picked) == 3
    assert [s.values.tobytes() for s in picked] == [r.tobytes() for r in rows[2:9:3]]
    assert sum(1 for _ in states) == len(states) == 64
    assert states[0].grid is op.grid
    with pytest.raises(IndexError):
        states[64]
