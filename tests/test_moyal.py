import numpy as np
import pytest

from psqm import (Symbol, PhaseState, WindowedIsometry, dilate, rotate,
                  moyal_map, moyal_map_inv, cross_wigner, bopp_apply,
                  moyal_heisenberg_weyl, quantize_moyal,
                  quantize_config, star_apply, stargen_residual, moyal_product,
                  phase_heisenberg_weyl, forward_ft, hermite_state,
                  gaussian_state, random_phase_state, random_config_state,
                  norm_phase, self_dual_phase_grid,
                  BandLimitError, GridMismatchError)
from psqm.states import hermite_values
from psqm.spectral import eig, evolve
from psqm.weyl import star_values
from psqm.reference import cross_wigner_quadrature
from psqm import fourier
from oracles import (double_phase_space_quantize, cross_wigner_dense,
                     fourier_shift_phase_table,
                     moyal_map_fourier_shift, moyal_map_inv_fourier_shift,
                     moyal_map_out_of_place, moyal_map_inv_out_of_place,
                     apply_dense, bopp_dense, explicit_propagator,
                     hermiticity_defect, moyal_dense, spectral_derivative)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# ------------------------------------------------------------- dilations

def test_dilate_identity_and_gaussian(pg128):
    X, P = pg128.meshes()
    Psi = PhaseState(pg128, np.exp(-(X ** 2 + P ** 2) / 2))
    out = dilate(Psi, 0.0)
    assert np.abs(out.values - Psi.values).max() < 1e-12
    out2 = dilate(Psi, np.log(np.sqrt(2.0)))
    want = 2 ** -0.5 * np.exp(-(X ** 2 + P ** 2) / 4)
    assert np.abs(out2.values - want).max() < 1e-12


def test_dilate_unitary(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    for s in (0.3, -0.25):
        assert abs(norm_phase(dilate(Psi, s)) - 1.0) < 1e-8


def test_dilate_guard_trips_on_wide_states(pg128):
    X, P = pg128.meshes()
    L = pg128.x_grid.half_width
    wide = PhaseState(pg128, np.exp(-(X ** 2 + P ** 2) / (2 * (L / 1.5) ** 2)))
    with pytest.raises(BandLimitError):
        dilate(wide, -0.8)


def test_requires_self_dual_grid():
    from psqm import make_grid, PhaseGrid
    g = make_grid(64, 9.0)
    Psi = PhaseState(PhaseGrid(g, g), np.zeros((64, 64)))
    with pytest.raises(GridMismatchError):
        moyal_map(Psi)


# -------------------------------------------------------------- rotations

def test_rotate_identity_full_turn(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    out = rotate(Psi, 0.0)
    assert np.abs(out.values - Psi.values).max() < 1e-12
    out2 = rotate(Psi, 2 * np.pi)
    assert np.abs(out2.values - Psi.values).max() < 1e-8


def test_rotate_invariance_of_radial_transform(pg128):
    # Psi with radially symmetric transform in the (x, xi_p) plane
    from psqm.fourier import ift_array
    g = pg128.x_grid
    X, XI = pg128.meshes()
    hat = np.exp(-(X ** 2 + XI ** 2) / 2)
    Psi = PhaseState(pg128, ift_array(hat, g.dual, g, axis=1))
    out = rotate(Psi, 0.73)
    assert np.abs(out.values - Psi.values).max() < 1e-8


def test_rotate_unitary_and_additive(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    assert abs(norm_phase(rotate(Psi, 0.4)) - 1.0) < 1e-10
    a = rotate(rotate(Psi, 0.3), 0.5)
    b = rotate(Psi, 0.8)
    assert np.abs(a.values - b.values).max() < 1e-9


def test_rotate_is_generated_by_dxdp_minus_xp(pg128, rng):
    # d/dtheta rotate(Psi, theta) at 0 = -i G Psi, G = d_x d_p - x p: a
    # central difference (h = 1e-3, truncation ~h**2) against G applied
    # by spectral derivatives, which the shear route never uses
    Psi = random_phase_state(pg128, rng)
    h = 1e-3
    diff = (rotate(Psi, h).values - rotate(Psi, -h).values) / (2 * h)
    x, p = pg128.x_grid.points[:, None], pg128.p_grid.points[None, :]
    dxdp = spectral_derivative(
        spectral_derivative(Psi.values, pg128.x_grid, 0), pg128.p_grid, 1)

    def miss(generator):
        return np.linalg.norm(diff + 1j * generator) / np.linalg.norm(diff)

    assert miss(dxdp - x * p * Psi.values) < 2e-5            # measured 5.4e-6
    # the opposite sign, and -d_x d_p - x p read either way, miss by O(1)
    assert miss(x * p * Psi.values - dxdp) > 1.0
    assert min(miss(-dxdp - x * p * Psi.values),
               miss(dxdp + x * p * Psi.values)) > 1.0


def test_rotate_past_quarter_turn_splits(pg128):
    # beyond pi/2 the three-shear rotation is split in halves
    x = pg128.x_grid.points
    h0, h1 = hermite_values(x, 0), hermite_values(x, 1)
    radial = PhaseState(pg128, np.outer(h0, h0))
    assert np.abs(rotate(radial, 3 * np.pi / 4).values - radial.values).max() < 1e-9
    odd = PhaseState(pg128, np.outer(h1, h0))
    assert np.abs(rotate(odd, np.pi).values + odd.values).max() < 1e-9


def test_rotate_matches_the_phase_table_shears(pg128, rng):
    # the three shears applied by the n x n phase-table route
    Psi = random_phase_state(pg128, rng)
    g, theta = pg128.x_grid, -np.pi / 4
    t, pts = np.tan(theta / 2), g.points
    hat = fourier.ft_array(Psi.values, g, axis=1)
    hat = fourier_shift_phase_table(hat, g, -t * pts, axis=0)
    hat = fourier_shift_phase_table(hat, g, np.sin(theta) * pts, axis=1)
    hat = fourier_shift_phase_table(hat, g, -t * pts, axis=0)
    want = fourier.ift_array(hat, g.dual, g, axis=1)
    assert _rel(rotate(Psi, theta).values, want) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rotate_and_dilate_refuse_non_finite_parameters(pg64, rng, bad):
    Psi = random_phase_state(pg64, rng)
    with pytest.raises(ValueError, match="theta"):
        rotate(Psi, bad)
    with pytest.raises(ValueError, match="dilation parameter s"):
        dilate(Psi, bad)


# ---------------------------------------------------------- the Moyal map

def test_moyal_map_of_lifted_ground_state(pg128):
    psi = hermite_state(pg128.x_grid, 0)
    chi = hermite_state(pg128.p_grid, 0)
    lifted = WindowedIsometry(forward_ft(chi)).apply(psi)
    W = moyal_map(lifted)
    X, P = pg128.meshes()
    want = np.sqrt(2 * np.pi) / np.pi * np.exp(-(X ** 2 + P ** 2))
    assert np.abs(W.values - want).max() < 1e-12


def test_moyal_map_matches_wigner_quadrature(pg128):
    pairs = [(2, 0), (3, 1), (4, 4)]
    xg = pg128.x_grid
    quadratures = cross_wigner_quadrature(
        [(lambda t, k=np_: hermite_values(t, k),
          lambda t, k=nc: hermite_values(t, k)) for np_, nc in pairs],
        xg.points, xg.points)
    for (np_, nc), Wq in zip(pairs, quadratures):
        psi = hermite_state(xg, np_)
        chi = hermite_state(pg128.p_grid, nc)
        lifted = WindowedIsometry(forward_ft(chi)).apply(psi)
        W = moyal_map(lifted)
        assert np.abs(W.values - np.sqrt(2 * np.pi) * Wq).max() < 1e-7


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_moyal_maps_equal_the_out_of_place_shears_byte_for_byte(n):
    # both maps shear their own FFT buffer in place and leave the state's
    # samples as they were
    Psi = random_phase_state(self_dual_phase_grid(n), np.random.default_rng(n))
    before = Psi.values.tobytes()
    got = moyal_map(Psi).values
    assert got.tobytes() == moyal_map_out_of_place(Psi.values).tobytes()
    got = moyal_map_inv(Psi).values
    assert got.tobytes() == moyal_map_inv_out_of_place(Psi.values).tobytes()
    assert Psi.values.tobytes() == before


def test_moyal_map_unitary_and_invertible(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    assert abs(norm_phase(moyal_map(Psi)) - 1.0) < 1e-10
    back = moyal_map_inv(moyal_map(Psi))
    assert np.abs(back.values - Psi.values).max() < 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_moyal_map_shears_match_fourier_shift_route(n, rng):
    grid = self_dual_phase_grid(n)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    Psi = PhaseState(grid, v)
    assert _rel(moyal_map(Psi).values,
                moyal_map_fourier_shift(v, grid.x_grid)) < 1e-12
    assert _rel(moyal_map_inv(Psi).values,
                moyal_map_inv_fourier_shift(v, grid.x_grid)) < 1e-12


def test_moyal_map_calls_no_fourier_shift(pg64, rng, monkeypatch):
    calls = []
    shift = fourier.fourier_shift

    def counting_shift(*args, **kwargs):
        calls.append(1)
        return shift(*args, **kwargs)

    monkeypatch.setattr(fourier, "fourier_shift", counting_shift)
    Psi = random_phase_state(pg64, rng)
    moyal_map_inv(moyal_map(Psi))
    # the rotation's shears, too, act in place on its own transform buffer
    rotate(Psi, 0.3)
    rotate(Psi, 2.5)            # split into two half-angle rotations
    assert len(calls) == 0


def test_moyal_map_equals_group_composition(pg256, rng):
    # the 1e-7 agreement needs the acceptance-size lattice: the two-step
    # route dilates by sqrt(2) and so needs the full boundary margin
    Psi = random_phase_state(pg256, rng)
    via = dilate(rotate(Psi, -np.pi / 4), -np.log(np.sqrt(2.0)))
    assert np.abs(moyal_map(Psi).values - via.values).max() < 1e-7


# ------------------------------------------------------------ cross-Wigner

def test_cross_wigner_refuses_two_grids(pg64, pg128):
    with pytest.raises(GridMismatchError):
        cross_wigner(hermite_state(pg64.x_grid, 0), hermite_state(pg128.x_grid, 0))


def test_cross_wigner_ground_state(pg128):
    g = pg128.x_grid
    h0 = hermite_state(g, 0)
    W = cross_wigner(h0, h0)
    X, P = pg128.meshes()
    assert np.abs(W.values - np.exp(-(X ** 2 + P ** 2)) / np.pi).max() < 1e-8


@pytest.mark.parametrize("n", [64, 128])
def test_cross_wigner_fft_matches_dense_quadrature(n, rng):
    g = self_dual_phase_grid(n).x_grid
    for psi, phi in [(hermite_state(g, 3), gaussian_state(g, 0.5, -0.3, 1.1)),
                     (random_config_state(g, rng), random_config_state(g, rng))]:
        assert _rel(cross_wigner(psi, phi).values, cross_wigner_dense(psi, phi)) < 1e-12


def test_cross_wigner_marginal_is_norm(pg128, rng):
    g = pg128.x_grid
    psi = random_config_state(g, rng)
    W = cross_wigner(psi, psi)
    total = np.sum(W.values).real * W.grid.cell_area
    assert abs(total - 1.0) < 1e-8


def test_cross_wigner_conjugation_symmetry(pg128, rng):
    g = pg128.x_grid
    psi = random_config_state(g, rng)
    phi = random_config_state(g, rng)
    A = cross_wigner(psi, phi)
    B = cross_wigner(phi, psi)
    assert np.abs(np.conj(A.values) - B.values).max() < 1e-9


def test_cross_wigner_orthogonal_pair_integrates_to_overlap(pg128):
    g = pg128.x_grid
    a = hermite_state(g, 1)
    b = hermite_state(g, 4)
    W = cross_wigner(a, b)
    total = np.sum(W.values) * W.grid.cell_area
    assert abs(total) < 1e-8


# ------------------------------------------------------------------- Bopp

def test_bopp_commutators_on_states(pg128, rng):
    Psi = random_phase_state(pg128, rng)

    def comm(a, b):
        lhs = bopp_apply(a, bopp_apply(b, Psi))
        rhs = bopp_apply(b, bopp_apply(a, Psi))
        return lhs.with_values(lhs.values - rhs.values)

    c1 = comm("X", "Xi_x")
    assert norm_phase(c1.with_values(c1.values - 1j * Psi.values)) < 1e-8
    c2 = comm("P", "Xi_p")
    assert norm_phase(c2.with_values(c2.values - 1j * Psi.values)) < 1e-8
    for a, b in (("X", "P"), ("X", "Xi_p"), ("P", "Xi_x"), ("Xi_x", "Xi_p")):
        assert norm_phase(comm(a, b)) < 1e-8


def test_bopp_dense_matrices_small_grid(rng):
    pg = self_dual_phase_grid(32)
    X = bopp_dense("X", pg)
    Xx = bopp_dense("Xi_x", pg)
    P = bopp_dense("P", pg)
    Xp = bopp_dense("Xi_p", pg)
    for M in (X, Xx, P, Xp):
        assert hermiticity_defect(M) < 1e-12
    # dense matrices agree with the matrix-free action on a state the
    # star product's band-edge guard admits
    x, p = pg.meshes()
    Phi = PhaseState(pg, np.exp(-(x ** 2 + p ** 2) / 2))
    Phi = Phi.with_values(Phi.values / norm_phase(Phi))
    for name, M in (("X", X), ("Xi_x", Xx), ("P", P), ("Xi_p", Xp)):
        assert np.abs(apply_dense(M, Phi).values - bopp_apply(name, Phi).values).max() < 1e-12
    # canonical commutators hold on band-limited states (as full
    # matrices they necessarily fail at the band edge)
    Psi = random_phase_state(pg, rng)
    comm = X @ Xx - Xx @ X
    comm2 = X @ P - P @ X
    v = Psi.values.reshape(-1)
    assert np.abs(comm @ v - 1j * v).max() < 1e-3
    assert np.abs(comm2 @ v).max() < 1e-3
    with pytest.raises(ValueError, match="unknown Bopp operator 'Q'"):
        bopp_apply("Q", Psi)


@pytest.mark.parametrize("name", ["X", "Xi_x", "P", "Xi_p"])
def test_bopp_refuses_a_state_reaching_the_band_edge(rng, name):
    # a random n=32 state has band-edge fraction ~1e-2: the star
    # product's guard refuses it rather than return aliased values
    Psi = random_phase_state(self_dual_phase_grid(32), rng)
    assert fourier.band_edge_fraction(Psi.values) > fourier.BAND_EDGE_TOL
    with pytest.raises(BandLimitError, match="star-product factor"):
        bopp_apply(name, Psi)


def test_bopp_is_conjugated_multiplication(pg128, rng):
    # U x U^{-1} = x + (i/2) d/dp and friends, on random states
    Psi = random_phase_state(pg128, rng)
    X, P = pg128.meshes()
    inner = moyal_map_inv(Psi)
    lhs = moyal_map(inner.with_values(X * inner.values))
    rhs = bopp_apply("X", Psi)
    assert np.abs(lhs.values - rhs.values).max() < 1e-7
    # Xi_x = U (-i d/dx) U^{-1}
    dvals = -1j * spectral_derivative(inner.values, pg128.x_grid, axis=0)
    lhs2 = moyal_map(inner.with_values(dvals))
    rhs2 = bopp_apply("Xi_x", Psi)
    assert np.abs(lhs2.values - rhs2.values).max() < 1e-7
    lhs3 = moyal_map(inner.with_values(P * inner.values))
    assert np.abs(lhs3.values - bopp_apply("P", Psi).values).max() < 1e-7
    dp = -1j * spectral_derivative(inner.values, pg128.p_grid, axis=1)
    lhs4 = moyal_map(inner.with_values(dp))
    assert np.abs(lhs4.values - bopp_apply("Xi_p", Psi).values).max() < 1e-7


@pytest.mark.parametrize("name, factor, left", [
    ("X", "coordinate", True), ("Xi_x", "momentum", True),
    ("P", "momentum", False), ("Xi_p", "coordinate", False)])
def test_bopp_operators_are_star_multiplications(pg128, rng, name, factor, left):
    # X = x * (.), Xi_x = xi * (.), P = (.) * xi and Xi_p = (.) * x: for
    # a linear a, a * Psi = a Psi + (i/2){a, Psi} and Psi * a = a Psi -
    # (i/2){a, Psi}, the Poisson bracket {x, .} = d/dxi, {xi, .} = -d/dx
    # formed with the tests' own spectral derivative
    Psi = random_phase_state(pg128, rng)
    X, XI = pg128.meshes()
    if factor == "coordinate":
        a, bracket = X, spectral_derivative(Psi.values, pg128.p_grid, 1)
    else:
        a, bracket = XI, -spectral_derivative(Psi.values, pg128.x_grid, 0)
    want = a * Psi.values + (0.5j if left else -0.5j) * bracket
    assert _rel(bopp_apply(name, Psi).values, want) <= 1e-14


# --------------------------------------------------- displacement operator

def test_moyal_displacement(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    out = moyal_heisenberg_weyl((0.0, 0.0), Psi)
    assert np.abs(out.values - Psi.values).max() < 1e-14
    z0 = (0.37, -0.81)
    lhs = moyal_heisenberg_weyl(z0, Psi)
    rhs = moyal_map(phase_heisenberg_weyl(z0, moyal_map_inv(Psi)))
    assert np.abs(lhs.values - rhs.values).max() < 1e-7
    assert abs(norm_phase(lhs) - 1.0) < 1e-10


# ------------------------------------------------------- quantize and star

def test_quantize_moyal_unit_and_coordinate(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    one = quantize_moyal(Symbol.unit(pg128))
    assert np.abs(one.apply(Psi).values - Psi.values).max() < 1e-10
    xop = quantize_moyal(Symbol.coordinate(pg128))
    want = bopp_apply("X", Psi)
    assert np.abs(xop.apply(Psi).values - want.values).max() < 1e-7


def test_quantize_moyal_restricted_spectrum(pg128):
    iso = WindowedIsometry(hermite_state(pg128.p_grid, 0))
    op = quantize_moyal(Symbol.oscillator(pg128))
    w, _ = eig(op.restrict(iso))
    assert np.abs(w[:8] - (np.arange(8) + 0.5)).max() < 1e-6


def test_quantize_moyal_dense_equals_bopp_substitution(rng):
    # oscillator: (X~^2 + Xi_x~^2)/2 has no ordering ambiguity; the two
    # constructions agree on band-limited states (full matrices differ
    # in the band-edge sector, as always on a finite lattice)
    pg = self_dual_phase_grid(32)
    dense = moyal_dense(quantize_moyal(Symbol.oscillator(pg)), pg)
    X = bopp_dense("X", pg)
    Xx = bopp_dense("Xi_x", pg)
    want = 0.5 * (X @ X + Xx @ Xx)
    for _ in range(3):
        v = random_phase_state(pg, rng).values.reshape(-1)
        assert np.abs((dense - want) @ v).max() < 1e-3
    # and at the acceptance lattice through the matrix-free routes
    pg2 = self_dual_phase_grid(128)
    op = quantize_moyal(Symbol.oscillator(pg2))
    Psi = random_phase_state(pg2, rng)
    bopp = bopp_apply("X", bopp_apply("X", Psi)).values
    bopp = 0.5 * (bopp + bopp_apply("Xi_x", bopp_apply("Xi_x", Psi)).values)
    assert np.abs(op.apply(Psi).values - bopp).max() < 1e-6


def test_star_apply_unit_and_coordinate(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    out = star_apply(Symbol.unit(pg128), Psi)
    assert np.abs(out.values - Psi.values).max() < 1e-12
    out2 = star_apply(Symbol.coordinate(pg128), Psi)
    want = bopp_apply("X", Psi)
    assert np.abs(out2.values - want.values).max() < 1e-8


def test_star_apply_leaves_the_state_writeable(pg128, rng):
    Psi = random_phase_state(pg128, rng)
    before = Psi.values.copy()
    out = star_apply(Symbol.oscillator(pg128), Psi)
    assert Psi.values.flags.writeable
    assert np.array_equal(Psi.values, before)
    Psi.values[0, 0] += 1.0
    assert not np.shares_memory(out.values, Psi.values)


def test_star_product_refuses_another_phase_grid(pg64, pg128, rng):
    a = Symbol.oscillator(pg64)
    with pytest.raises(GridMismatchError):
        star_apply(a, random_phase_state(pg128, rng))
    with pytest.raises(GridMismatchError):
        moyal_product(a, Symbol.oscillator(pg128))


def test_star_apply_matches_quantize_moyal(pg128, rng):
    X, XI = pg128.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 8.0)
    corpus = [Symbol.from_samples(pg128, (X + 0.3 * XI) * damp),
              Symbol.oscillator(pg128)]
    for a in corpus:
        op = quantize_moyal(a)
        for _ in range(3):
            Psi = random_phase_state(pg128, rng)
            lhs = star_apply(a, Psi)
            rhs = op.apply(Psi)
            assert norm_phase(lhs.with_values(lhs.values - rhs.values)) < 1e-6
    # the check can fail: the reversed product Psi * a is not a * Psi
    a = corpus[0]
    Psi = random_phase_state(pg128, rng)
    rev = star_values(Symbol(pg128, Psi.values), a, pg128)
    assert norm_phase(Psi.with_values(rev - quantize_moyal(a).apply(Psi).values)) > 1e-2


def test_oscillator_ground_stargenfunction(pg128):
    X, P = pg128.meshes()
    W0 = PhaseState(pg128, np.exp(-(X ** 2 + P ** 2)))
    W0 = W0.with_values(W0.values / norm_phase(W0))
    a = Symbol.oscillator(pg128)
    assert stargen_residual(a, 0.5, W0) < 1e-6
    # wrong eigenvalue leaves half the norm
    assert abs(stargen_residual(a, 1.0, W0) - 0.5) < 1e-6
    assert stargen_residual(Symbol.unit(pg128), 1.0, W0) < 1e-12


def test_wigner_transport_of_eigenfunctions(pg128):
    # config eigenpairs map to stargenfunctions through U after lifting
    a = Symbol.oscillator(pg128)
    cfg = quantize_config(a)
    w, states = eig(cfg)
    chi = hermite_state(pg128.p_grid, 0)
    iso = WindowedIsometry(forward_ft(chi))
    for k in (0, 1, 3):
        Theta = moyal_map(iso.apply(states[k]))
        nrm = norm_phase(Theta)
        Theta = Theta.with_values(Theta.values / nrm)
        assert stargen_residual(a, w[k], Theta) < 1e-6
        # reverse transport recovers a config eigenfunction
        back = iso.adjoint(moyal_map_inv(Theta))
        img = cfg.apply(back)
        assert np.abs(img.values - w[k] * back.values).max() < 1e-6


def test_star_schrodinger_consistency_small_grid():
    # evolving with the dense Moyal operator matches the lifted config
    # evolution (the star form of the Schrodinger equation)
    pg = self_dual_phase_grid(32)
    a = Symbol.oscillator(pg)
    cfg = quantize_config(a)
    chi = hermite_state(pg.p_grid, 0)
    iso = WindowedIsometry(forward_ft(chi))
    psi0 = gaussian_state(pg.x_grid, 0.6, 0.3, 1.0)
    dense = moyal_dense(quantize_moyal(a), pg)
    for t in (0.1, 1.0):
        Theta_t = apply_dense(explicit_propagator(dense, t), moyal_map(iso.apply(psi0)))
        want = moyal_map(iso.apply(evolve(cfg, psi0, t)))
        assert norm_phase(Theta_t.with_values(Theta_t.values - want.values)) < 1e-6


def test_metaplectic_covariance_specialization():
    # the Moyal operator of a is the doubled-phase-space Weyl operator of
    # the pulled-back symbol a(x - xi_p/2, p + xi_x/2): coarse-grid check
    pg = self_dual_phase_grid(16)

    def a_fn(x, xi):
        return np.exp(-(x ** 2 + xi ** 2) / 2)

    a = Symbol.from_function(pg, a_fn)
    dense = moyal_dense(quantize_moyal(a), pg)
    oracle = double_phase_space_quantize(a_fn, pg.x_grid)
    X, P = pg.meshes()
    blob = np.exp(-(X ** 2 + P ** 2) / 2) * np.exp(0.4j * X - 0.2j * P)
    v = blob.reshape(-1)
    v = v / np.linalg.norm(v)
    assert np.abs((dense - oracle) @ v).max() < 1e-3


# --------------------------------------------------- guards refuse NaN

def test_star_apply_refuses_a_non_finite_sample(pg64, rng):
    Psi = random_phase_state(pg64, rng)
    Psi.values[10, 20] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(BandLimitError, match="nan"):
        star_apply(Symbol.oscillator(pg64), Psi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [-800.0, 800.0])
def test_dilate_refuses_a_scale_that_is_not_a_normal_float(pg64, rng, s):
    # e^{800} overflows and e^{-800} underflows to 0: each once reached the
    # unitarity guard as a lost mass (norm -> nan, -> 0); now s is refused
    # before resampling, without a floating point warning
    Psi = random_phase_state(pg64, rng)
    with pytest.raises(ValueError, match=f"got s = {s}") as err:
        dilate(Psi, s)
    assert not isinstance(err.value, BandLimitError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [-700.0, -50.0, 50.0])
def test_dilate_refuses_a_scale_beyond_the_lattice(pg64, rng, s):
    # e^{700} is a normal float, but its norm once overflowed numpy's
    # square before the unitarity guard saw an infinite norm; a scale past
    # the lattice (e^|s| > n) is refused by name before resampling
    Psi = random_phase_state(pg64, rng)
    with pytest.raises(ValueError, match=rf"ln\(n_points\) = 4\.159 .*got s = {s}") as err:
        dilate(Psi, s)
    assert not isinstance(err.value, BandLimitError)
    # inside the bound a scale that loses mass meets the unitarity guard
    with pytest.raises(BandLimitError, match="lost mass"):
        dilate(Psi, np.copysign(np.log(64), s))
