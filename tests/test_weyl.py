import numpy as np
import pytest

from psqm import (Symbol, make_grid, PhaseGrid, self_dual_phase_grid,
                  symbol_to_kernel, kernel_to_symbol, quantize_config,
                  heisenberg_weyl, moyal_product,
                  hermite_state, gaussian_state, random_config_state,
                  norm_config, BandLimitError, LinOp,
                  random_phase_state, star_apply, quantize_phase,
                  GridMismatchError)
from psqm import fourier, weyl
from psqm.weyl import FLUSH_BELOW, REAL_EIGH_TOL, dense_apply, star_values
from psqm.states import hermite_values
from psqm.reference import fd_oscillator_levels
from oracles import (weyl_symbol_quadrature, brute_star, groenewold_mixed_all_terms,
                     groenewold_mixed_zero_start, kernel_to_symbol_dense,
                     kernel_to_symbol_whole_table, symbol_to_kernel_dense,
                     symbol_to_kernel_whole_table, derivative_matrix,
                     hermiticity_defect)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# ------------------------------------------------------------- quantization

def test_unit_symbol_quantizes_to_identity(weyl_grid_256_10):
    M = quantize_config(Symbol.unit(weyl_grid_256_10))
    assert np.abs(M.matrix - np.eye(256)).max() < 1e-10


def test_coordinate_symbol_is_diagonal_multiplication(weyl_grid_256_10):
    M = quantize_config(Symbol.coordinate(weyl_grid_256_10))
    assert np.abs(M.matrix - np.diag(weyl_grid_256_10.x_grid.points)).max() < 1e-8


def test_momentum_symbol_acts_as_derivative(weyl_grid_256_10):
    # quantize(xi) acting on analytic states matches the analytic -i d/dx
    M = quantize_config(Symbol.momentum(weyl_grid_256_10))
    g = weyl_grid_256_10.x_grid
    x = g.points
    # Hermite: h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}
    n = 5
    h = hermite_state(g, n)
    dh = (np.sqrt(n / 2) * hermite_values(x, n - 1)
          - np.sqrt((n + 1) / 2) * hermite_values(x, n + 1))
    assert np.abs(M.matrix @ h.values - (-1j) * dh).max() < 1e-6
    # Gaussian wave packet e^{ikx} envelope: analytic derivative
    k0, w = 2.0, 1.3
    psi = gaussian_state(g, 0.5, k0, w)
    dpsi = psi.values * (1j * k0 - (x - 0.5) / w ** 2)
    assert np.abs(M.matrix @ psi.values - (-1j) * dpsi).max() < 1e-6


def test_oscillator_eigenvalues(weyl_grid_256_10):
    # derived oracle: independent high-order finite-difference diagonalization
    M = quantize_config(Symbol.oscillator(weyl_grid_256_10))
    w = np.linalg.eigvalsh(0.5 * (M.matrix + M.matrix.conj().T))
    fd = fd_oscillator_levels(5)
    assert np.abs(w[:5] - fd).max() < 1e-6
    assert np.abs(w[:5] - (np.arange(5) + 0.5)).max() < 1e-6


def test_symmetrized_xp_matches_explicit_matrix(weyl_grid_256_10):
    a = Symbol.polynomial(weyl_grid_256_10, {(1, 1): 1.0})
    M = quantize_config(a).matrix
    g = weyl_grid_256_10.x_grid
    D = derivative_matrix(g)                      # -i d/dx, spectral
    X = np.diag(g.points)
    oracle = 0.5 * (X @ D + D @ X)
    # exact (arithmetic) midpoint evaluation for polynomial symbols makes
    # the matrices agree entrywise
    assert np.abs(M - oracle).max() < 1e-6


def test_symmetrized_xp_action_on_admissible_states(weyl_grid_256_10, rng):
    a = Symbol.polynomial(weyl_grid_256_10, {(1, 1): 1.0})
    M = quantize_config(a).matrix
    g = weyl_grid_256_10.x_grid
    D = derivative_matrix(g)
    oracle = 0.5 * (np.diag(g.points) @ D + D @ np.diag(g.points))
    for _ in range(5):
        psi = random_config_state(g, rng)
        err = np.linalg.norm((M - oracle) @ psi.values) / np.linalg.norm(psi.values)
        assert err < 1e-6


def test_real_symbols_give_hermitian_matrices(weyl_grid_256_10, pg64, rng):
    for grid in (weyl_grid_256_10, pg64):
        X, XI = grid.meshes()
        damp = np.exp(-(X ** 2 + XI ** 2) / 6.0)
        for sym in (Symbol.oscillator(grid), Symbol.from_samples(grid, damp),
                    Symbol.from_samples(grid, (X + XI ** 2) * damp)):
            assert quantize_config(sym).hermiticity_defect() < 1e-10


def test_quantize_is_linear_in_symbol(pg64, rng):
    X, XI = pg64.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 6.0)
    a = Symbol.from_samples(pg64, damp * (1 + 0.5 * X))
    b = Symbol.from_samples(pg64, damp * (XI - 0.2j * X))
    ab = Symbol.from_samples(pg64, 2.0 * a.values + 3j * b.values)
    lhs = quantize_config(ab).matrix
    rhs = 2.0 * quantize_config(a).matrix + 3j * quantize_config(b).matrix
    assert np.abs(lhs - rhs).max() < 1e-12


def test_sampled_symbol_interpolation_guard(pg64):
    # periodized sawtooth: not band-limited, must be rejected without an
    # exact evaluator
    X, XI = pg64.meshes()
    raw = Symbol.from_samples(pg64, X.astype(complex))
    with pytest.raises(BandLimitError):
        symbol_to_kernel(raw)


def test_kernel_grid_requirement():
    g = make_grid(64, 9.0)
    bad = PhaseGrid(g, g)  # p axis not dual to x
    with pytest.raises(Exception):
        quantize_config(Symbol.unit(bad))


# ------------------------------------------------------- kernel <-> symbol

def test_identity_kernel_gives_unit_symbol(pg64):
    g = pg64.x_grid
    sym = kernel_to_symbol(LinOp(g, np.eye(64)))
    assert np.abs(sym.values - 1.0).max() < 1e-8


def test_symbol_kernel_roundtrip_band_limited(pg128, rng):
    from psqm import random_phase_state
    a = random_phase_state(pg128, rng)   # band-limited decayed field
    sym = Symbol.from_samples(pg128, a.values)
    back = kernel_to_symbol(symbol_to_kernel(sym))
    assert np.abs(back.values - sym.values).max() < 1e-8


@pytest.mark.parametrize("n", [64, 128])
def test_kernel_and_symbol_ffts_match_dense_quadratures(n, rng):
    grid = self_dual_phase_grid(n)
    symbols = [
        Symbol.oscillator(grid),                                  # arithmetic midpoints
        Symbol.from_function(
            grid, lambda x, xi: (1 + x * xi) * np.exp(-(x ** 2 + xi ** 2) / 4)),
        _sampled_corpus(grid)[2],                                 # interpolated
    ]
    for a in symbols:
        op = symbol_to_kernel(a)
        assert _rel(op.matrix, symbol_to_kernel_dense(a) * grid.x_grid.spacing) < 1e-12
        assert _rel(kernel_to_symbol(op).values, kernel_to_symbol_dense(op)) < 1e-12
    # full-band kernel: every diagonal and both half-lattice parities
    K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = LinOp(grid.x_grid, K * grid.x_grid.spacing)
    assert _rel(kernel_to_symbol(op).values, kernel_to_symbol_dense(op)) < 1e-12


@pytest.mark.parametrize("n", [32, 128])
def test_kernel_maps_equal_the_whole_table_routes_byte_for_byte(n, rng):
    # blocked gathers and in-place transforms against whole index tables
    # and fresh arrays: torus and arithmetic midpoints, real and complex
    # tables, one partial 64-row block and two whole ones
    grid = self_dual_phase_grid(n)
    X, XI = grid.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 2.0)
    symbols = [
        Symbol.oscillator(grid), Symbol.coordinate(grid), Symbol.momentum(grid),
        Symbol.polynomial(grid, {(1, 1): 1.0}),
        Symbol.polynomial(grid, {(1, 1): 1.0, (0, 2): 0.3j}),
        Symbol.from_samples(grid, damp),
        Symbol.from_samples(grid, (1 + 0.3j * XI) * damp),
        Symbol.from_function(grid, lambda x, xi: np.exp(-(x ** 2 + xi ** 2) / 8) * (1 + 0.1j * x)),
    ]
    ops = []
    for a in symbols:
        op = symbol_to_kernel(a)
        want = symbol_to_kernel_whole_table(a)
        assert op.matrix.dtype == want.dtype
        assert op.matrix.tobytes() == want.tobytes()
        ops.append(op)
    K = rng.standard_normal((n, n))
    ops += [LinOp(grid.x_grid, K), LinOp(grid.x_grid, K + 1j * rng.standard_normal((n, n)))]
    for op in ops:
        assert kernel_to_symbol(op).values.tobytes() == kernel_to_symbol_whole_table(op).tobytes()


def test_kernel_maps_keep_no_table_between_calls():
    # with every psqm cache emptied, the traced memory after the two maps
    # is the memory before them plus their results: no cache keeps an
    # n x n table (the int32 index tables were cached per n once)
    import sys
    import tracemalloc
    for name, module in list(sys.modules.items()):
        if name.startswith("psqm."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    n = 128
    grid = self_dual_phase_grid(n)
    X, XI = grid.meshes()
    a = Symbol.from_samples(grid, np.exp(-(X ** 2 + XI ** 2) / 8.0) * (1 + 0.2j * XI))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = symbol_to_kernel(a)
        back = kernel_to_symbol(op)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    results = op.matrix.nbytes + back.values.nbytes
    assert abs(after - before - results) < 0.05 * n * n * 4   # 1/20 of an int32 table


def test_rank_one_projector_symbol(pg128):
    # kernel phi(x) phi(y)* for the Gaussian ground state -> 2 e^{-(x^2+xi^2)}
    g = pg128.x_grid
    phi = hermite_state(g, 0)
    sym = kernel_to_symbol(LinOp(g, np.outer(phi.values, np.conj(phi.values)) * g.spacing))
    X, XI = pg128.meshes()
    assert np.abs(sym.values - 2 * np.exp(-(X ** 2 + XI ** 2))).max() < 1e-8
    # against the direct quadrature of the symbol integral
    idx = [10, 40, 64, 100]
    oracle = weyl_symbol_quadrature(
        lambda u, v: hermite_values(u, 0) * hermite_values(v, 0),
        g.points[idx], pg128.p_grid.points[idx])
    assert np.abs(sym.values[np.ix_(idx, idx)] - oracle).max() < 1e-8


# --------------------------------------------------------- heisenberg-weyl

def test_displacement_identity_and_unitarity(weyl_grid_256_10, rng):
    g = weyl_grid_256_10.x_grid
    psi = random_config_state(g, rng)
    out = heisenberg_weyl((0.0, 0.0), psi)
    assert np.abs(out.values - psi.values).max() < 1e-14
    out2 = heisenberg_weyl((0.77, -1.3), psi)
    assert abs(norm_config(out2) - norm_config(psi)) < 1e-12


def test_displacement_moves_gaussian(weyl_grid_256_10):
    g = weyl_grid_256_10.x_grid
    psi = gaussian_state(g, 0.0, 0.0, 1.0)
    out = heisenberg_weyl((1.0, 0.0), psi)
    want = gaussian_state(g, 1.0, 0.0, 1.0)
    assert np.abs(out.values - want.values).max() < 1e-10


def test_displacement_generator_property(weyl_grid_256_10):
    # (d/dt)|0 T(t z0) psi = -i (x0 (-i d/dx) - xi0 x) psi
    g = weyl_grid_256_10.x_grid
    x0, xi0 = 0.9, -1.4
    psi = gaussian_state(g, 0.3, 0.5, 1.0)
    x = g.points
    dpsi = psi.values * (1j * 0.5 - (x - 0.3))          # analytic derivative
    want = -1j * (x0 * (-1j) * dpsi - xi0 * x * psi.values)
    t = 1e-5
    plus = heisenberg_weyl((t * x0, t * xi0), psi)
    minus = heisenberg_weyl((-t * x0, -t * xi0), psi)
    fd = (plus.values - minus.values) / (2 * t)
    assert np.abs(fd - want).max() / np.abs(want).max() < 1e-5


# ----------------------------------------------------------- moyal product

def test_unit_star_is_identity(pg128, rng):
    from psqm import random_phase_state
    b = Symbol.from_samples(pg128, random_phase_state(pg128, rng).values)
    c = moyal_product(Symbol.unit(pg128), b)
    assert np.abs(c.values - b.values).max() < 1e-12


def test_x_star_xi_bopp_value(pg64):
    a = Symbol.coordinate(pg64)
    b = Symbol.momentum(pg64)
    c = moyal_product(a, b)
    X, XI = pg64.meshes()
    assert np.abs(c.values - (X * XI + 0.5j)).max() < 1e-8
    c2 = moyal_product(b, a)
    assert np.abs(c2.values - (X * XI - 0.5j)).max() < 1e-8


@pytest.mark.parametrize("poly", [{(2, 0): 0.5, (0, 2): 0.5}, {(1, 1): 1.0},
                                  {(3, 0): 0.25, (1, 2): 0.5, (0, 1): 1.0}],
                         ids=["oscillator", "x_xi", "cubic"])
def test_mixed_star_product_skips_only_vanishing_terms(pg128, rng, poly):
    # the grouped route (one transform per axis, multipliers folded)
    # against every series term taken separately: equal up to round-off,
    # measured at <= 3.8e-16 relative here
    Psi = random_phase_state(pg128, rng)
    a = Symbol.polynomial(pg128, poly)
    for got, left in ((star_apply(a, Psi).values, True),
                      (star_values(Psi.values, poly, pg128), False)):
        ref = groenewold_mixed_all_terms(poly, Psi.values, pg128, left)
        assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_mixed_star_product_equals_the_zero_start_sum_byte_for_byte(n):
    # the sum accumulates into its first term's array and each spectrum is
    # dropped after its last use: the bytes equal those of a sum started
    # from a zeros array, whose +0 turns a -0 first term into +0
    grid = self_dual_phase_grid(n)
    X, P = grid.meshes()
    values = np.exp(-(X ** 2 + P ** 2) / 2) * (1 + 0.3 * X - 0.2j * P * X - P ** 3 / 7)
    values[np.abs(values) < 1e-30] = -0.0
    assert (np.signbit(values.real) & (values.real == 0)).any()
    polys = [{(2, 0): 0.5, (0, 2): 0.5}, {(1, 1): 1.0},
             {(3, 0): 0.25, (1, 2): 0.5, (0, 1): 1.0}, {(0, 0): 1.0}]
    for poly in polys:
        for left in (True, False):
            got = weyl.groenewold_mixed(poly, values, grid, left)
            want = groenewold_mixed_zero_start(poly, values, grid, left)
            assert got.tobytes() == want.tobytes(), (poly, left)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("poly", [{(1, 0): 1.0}, {(0, 1): 1.0}, {(1, 1): 1.0},
                                  {(2, 0): 0.5, (0, 2): 0.5}],
                         ids=["x", "xi", "x xi", "oscillator"])
def test_coordinate_star_products_equal_the_zero_start_sum_byte_for_byte(n, poly):
    # one partial 64-row block of each blocked product, and two whole ones
    grid = self_dual_phase_grid(n)
    X, P = grid.meshes()
    values = np.exp(-(X ** 2 + P ** 2) / 2) * (1 + 0.3 * X - 0.2j * P * X)
    for left in (True, False):
        got = weyl.groenewold_mixed(poly, values, grid, left)
        want = groenewold_mixed_zero_start(poly, values, grid, left)
        assert got.tobytes() == want.tobytes(), left


def test_mixed_star_guard_reads_the_p_spectrum_in_blocks(rng):
    # band-edge content along p only: the refusal names the stand-alone
    # band-edge fraction, which the p axis sets
    grid = self_dual_phase_grid(128)
    X, P = grid.meshes()
    values = np.exp(-(X ** 2 + P ** 2) / 2) + 1e-3 * np.exp(-X ** 2) * (-1.0) ** np.arange(128)
    frac = fourier.band_edge_fraction(values)
    x_only = fourier.band_edge_fraction(values, [fourier.axis_spectrum(values, 0)])
    assert x_only < weyl.ALIAS_GUARD_TOL < frac
    with pytest.raises(BandLimitError, match=f"amplitude {frac:.2e} exceeds"):
        weyl.groenewold_mixed({(2, 0): 0.5, (0, 2): 0.5}, values, grid, True)


def test_mixed_star_guard_reads_the_series_spectra(pg128, rng, monkeypatch):
    # both one-polynomial branches hand the guard the per-axis spectra the
    # series uses; the value is the stand-alone band-edge fraction, bit for bit
    Psi = random_phase_state(pg128, rng)
    seen = []
    band_edge = fourier.band_edge_fraction

    def spy(values, spectra=None):
        frac = band_edge(values, spectra)
        seen.append((spectra is not None, frac))
        return frac

    monkeypatch.setattr(fourier, "band_edge_fraction", spy)
    star_values({(2, 0): 0.5, (0, 2): 0.5}, Psi.values, pg128)
    star_values(Psi.values, {(1, 1): 1.0}, pg128)
    want = band_edge(Psi.values)
    assert want > 0.0
    assert seen == [(True, want), (True, want)]


@pytest.mark.parametrize("poly_on_left", [True, False], ids=["poly_left", "poly_right"])
def test_mixed_star_product_refuses_band_edge_factor(pg64, poly_on_left):
    X, XI = pg64.meshes()
    saw = X + 0.0 * XI                                  # full-band sawtooth
    poly = {(2, 0): 0.5, (0, 2): 0.5}
    args = (poly, saw) if poly_on_left else (saw, poly)
    with pytest.raises(BandLimitError, match="star-product factor"):
        star_values(*args, pg64)


def _sampled_corpus(grid):
    X, XI = grid.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 8.0)
    return [Symbol.from_samples(grid, damp),
            Symbol.from_samples(grid, (X + 0.3 * XI) * damp),
            Symbol.from_samples(grid, (X * XI + 0.2j * XI ** 2) * damp)]


def test_star_matches_brute_force_integral(pg64):
    # oracle: direct double integral over the phase lattice with
    # closed-form integrands, at a few sample points
    def fa(x, p):
        return np.exp(-((x - 1) ** 2 + p ** 2) / 2)

    def fb(x, p):
        return np.exp(-(x ** 2 + (p + 0.5) ** 2) / 3) * (x + 0.3 * p)

    X, P = pg64.meshes()
    c = moyal_product(Symbol.from_samples(pg64, fa(X, P)),
                      Symbol.from_samples(pg64, fb(X, P)))
    pts = np.column_stack([X.ravel(), P.ravel()])
    # stay near the center where the oracle's u,v quadrature is converged
    idx = [(32, 32), (34, 31), (29, 35)]
    z = [(X[i, j], P[i, j]) for i, j in idx]
    oracle = brute_star(fa, fb, z, pts, pg64.cell_area)
    got = np.array([c.values[i, j] for i, j in idx])
    assert np.abs(got - oracle).max() < 1e-6


def test_star_associativity_via_operator_composition(pg64, rng):
    # oracle: operator-composition associativity through quantize_config
    a, b, c = _sampled_corpus(pg64)
    lhs = moyal_product(moyal_product(a, b), c)
    rhs = moyal_product(a, moyal_product(b, c))
    assert np.abs(lhs.values - rhs.values).max() < 1e-6
    Ml = quantize_config(lhs).matrix
    Mabc = (quantize_config(a).matrix @ quantize_config(b).matrix
            @ quantize_config(c).matrix)
    assert np.linalg.norm(Ml - Mabc, ord=2) < 1e-6


def test_composition_correspondence_operator_norm(pg128):
    a, b, _ = _sampled_corpus(pg128)
    Mc = quantize_config(moyal_product(a, b)).matrix
    Mab = quantize_config(a).matrix @ quantize_config(b).matrix
    assert np.linalg.norm(Mc - Mab, ord=2) < 1e-6


def test_star_aliasing_guard(pg64):
    X, XI = pg64.meshes()
    saw = Symbol.from_samples(pg64, X + 0.0 * XI)   # full-band sawtooth
    smooth = _sampled_corpus(pg64)[0]
    with pytest.raises(BandLimitError):
        moyal_product(saw, smooth)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_apply_zeroes_only_components_below_sqrt_tiny(dtype):
    small = np.sqrt(np.finfo(float).tiny)
    assert FLUSH_BELOW == small
    values = np.array([1e-310 + 2.0j, -3.5 - 1e-160j, small - small * 1j,
                       -0.5 * small + 0j, 1e-300 + 7e-155j, 0.0 + 0.0j])
    before = values.copy()
    # the identity, real (one real GEMM on the interleaved view) or complex
    out = dense_apply(np.eye(6, dtype=dtype), values)
    assert np.array_equal(values.view(np.uint64), before.view(np.uint64))
    want = np.array([2.0j, -3.5, small - small * 1j, 0, 0, 0])
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    real = np.array([5e-324, -1.0, 1e-150, -1e-155, 1e-200])
    assert np.array_equal(dense_apply(np.eye(5, dtype=dtype), real), [0, -1.0, 1e-150, 0, 0])


@pytest.mark.parametrize("coeffs, real", [
    ({(2, 0): 0.5, (0, 2): 0.5}, True),    # oscillator
    ({(0, 2): 0.5}, True),                 # free particle
    ({(1, 0): 1.0}, True),                 # x
    ({(0, 1): 1.0}, False),                # xi
    ({(1, 1): 1.0}, False),                # x xi
])
def test_eigh_takes_a_real_basis_exactly_for_real_matrices(pg128, coeffs, real):
    w, V = quantize_config(Symbol.polynomial(pg128, coeffs)).eigh()
    assert np.isrealobj(V) == real


def test_linop_matrix_is_a_read_only_view(weyl_grid_256_10):
    m = np.eye(256, dtype=complex)
    op = LinOp(weyl_grid_256_10.x_grid, m)
    assert np.shares_memory(op.matrix, m)
    assert m.flags.writeable and not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0
    w, V = op.eigh()
    assert not w.flags.writeable and not V.flags.writeable


def test_linop_is_a_config_matrix_only(pg64):
    with pytest.raises(GridMismatchError):
        LinOp(pg64, np.eye(64 * 64))
    with pytest.raises(GridMismatchError):
        LinOp(pg64.x_grid, np.eye(32))
    with pytest.raises(GridMismatchError):
        LinOp(pg64.x_grid, np.ones((64, 32)))


def test_linop_apply_on_phase_state_is_the_phase_operator(pg64, rng):
    op = quantize_phase(Symbol.oscillator(pg64))
    Psi = random_phase_state(pg64, rng)
    assert np.array_equal(op.config_op.apply(Psi).values, op.apply(Psi).values)


# ------------------------------------------- Hermitian by construction

def _real_symbols(grid):
    X, XI = grid.meshes()
    return {
        "oscillator": Symbol.oscillator(grid),
        "x": Symbol.coordinate(grid),
        "xi": Symbol.momentum(grid),
        "x xi": Symbol.polynomial(grid, {(1, 1): 1.0}),
        "free": Symbol.free_particle(grid),
        "sampled gaussian": Symbol.from_samples(grid, np.exp(-(X ** 2 + XI ** 2) / 6.0)),
    }


@pytest.mark.parametrize("n", [64, 128, 256, 1024])
def test_real_symbols_quantize_to_bitwise_hermitian_matrices(n):
    grid = self_dual_phase_grid(n)
    for name, a in _real_symbols(grid).items():
        op = quantize_config(a)
        M = op.matrix
        assert np.array_equal(M, M.conj().T), name
        assert op.hermiticity_defect() == 0.0
        if n <= 128:
            # the same operator as the full complex transform, to round-off
            want = symbol_to_kernel_dense(a) * grid.x_grid.spacing
            assert _rel(M, want) < 1e-12, name


def _damped_complex(grid):
    # the grid-1024 benchmark's kind of symbol: a 1j * xi**2 term
    X, XI = grid.meshes()
    poly = 0.3 - 0.2 * X + 0.7 * XI + 0.4 * X * XI - 0.6 * X ** 2 + 0.5j * XI ** 2
    return Symbol.from_samples(grid, poly * np.exp(-((X - 0.2) ** 2 + (XI + 0.4) ** 2) / 8.0))


@pytest.mark.parametrize("make", [
    _damped_complex,
    lambda g: Symbol.from_function(
        g, lambda x, xi: 1j * x * xi * np.exp(-(x ** 2 + xi ** 2) / 4.0)),
], ids=["damped 1j xi^2", "1j x xi gaussian"])
def test_complex_symbols_keep_the_general_path(pg128, monkeypatch, make):
    a = make(pg128)
    calls = []
    ihfft = np.fft.ihfft
    monkeypatch.setattr(np.fft, "ihfft", lambda *args, **kw: calls.append(1) or ihfft(*args, **kw))
    op = quantize_config(a)
    assert calls == []
    assert op.hermiticity_defect() > 1e-2
    with pytest.raises(ValueError, match="not Hermitian"):
        op.eigh()
    want = symbol_to_kernel_dense(a) * pg128.x_grid.spacing
    assert _rel(op.matrix, want) < 1e-12


def test_oscillator_eigh_takes_one_half_transform_and_no_symmetrizing_pass(
        pg256, monkeypatch):
    # the perf property of real symbols: the midpoint table is transformed
    # once over offsets 0..n/2, and LinOp never measures or symmetrizes
    n = 256
    shapes = []
    for name in ("fft", "ifft", "ihfft", "rfft", "irfft"):
        fn = getattr(np.fft, name)

        def spy(a, *args, _fn=fn, _name=name, **kw):
            shapes.append((_name, np.shape(a)))
            return _fn(a, *args, **kw)

        monkeypatch.setattr(np.fft, name, spy)

    # the defect eigh reads is the 0 quantize_config stored (no measuring
    # pass), and LAPACK gets M itself (no symmetrized copy)
    defects, decomposed = [], []
    defect, eigh = LinOp.hermiticity_defect, np.linalg.eigh
    monkeypatch.setattr(LinOp, "hermiticity_defect",
                        lambda self: defects.append(self._defect) or defect(self))
    monkeypatch.setattr(np.linalg, "eigh", lambda H: decomposed.append(H) or eigh(H))
    op = quantize_config(Symbol.oscillator(pg256))
    w, V = op.eigh()
    assert defects == [0.0]
    assert len(decomposed) == 1 and np.shares_memory(decomposed[0], op.matrix)
    assert shapes == [("ihfft", (2 * n, n))]
    assert np.isrealobj(V)
    assert np.abs(w[:5] - (np.arange(5) + 0.5)).max() < 1e-6


def test_zero_defect_matrix_is_decomposed_as_given(pg64):
    # a caller-supplied matrix with defect exactly 0: after
    # hermiticity_defect() the eigh pass takes M itself
    m = np.diag(np.arange(1.0, 65.0)).astype(complex)
    m[0, 1], m[1, 0] = 0.5j, -0.5j
    op = LinOp(pg64.x_grid, m)
    assert op.hermiticity_defect() == 0.0
    w, V = op.eigh()
    assert np.iscomplexobj(V)
    assert np.abs(w - np.linalg.eigvalsh(m)).max() < 1e-12


def test_small_defect_matrix_is_measured_once_and_symmetrized(pg64, rng):
    # a caller-supplied matrix with defect in (0, herm_tol]: the defect is
    # max|M - M*| / max|M| and eigh decomposes (M + M*) * 0.5, bit for bit
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = a + a.conj().T + 1e-10 * rng.standard_normal((64, 64))
    op = LinOp(pg64.x_grid, m)
    defect = op.hermiticity_defect()
    assert 0 < defect <= 1e-8
    assert defect == hermiticity_defect(m)
    w, V = op.eigh()
    w_ref, V_ref = np.linalg.eigh((m + m.conj().T) * 0.5)
    assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
    with pytest.raises(ValueError, match="not Hermitian"):
        LinOp(pg64.x_grid, m).eigh(herm_tol=defect / 2)


def test_real_polynomials_evaluate_in_float(pg64):
    X, XI = pg64.meshes()
    assert weyl.poly_eval({(2, 0): 0.5, (0, 2): 0.5 + 0j}, X, XI).dtype == float
    assert weyl.poly_eval({(1, 1): 0.5j}, X, XI).dtype == complex
    assert np.isrealobj(weyl._midpoint_values(Symbol.oscillator(pg64)))
    assert np.isrealobj(weyl._midpoint_values(_real_symbols(pg64)["sampled gaussian"]))
    assert np.iscomplexobj(weyl._midpoint_values(_damped_complex(pg64)))


# ------------------------------------------------- one operator per symbol

def test_quantize_config_returns_the_symbols_one_operator(pg64):
    a = Symbol.oscillator(pg64)
    op = quantize_config(a)
    assert quantize_config(a) is op
    assert op.eigh()[1] is quantize_config(a).eigh()[1]
    # another symbol with the same samples has its own operator
    assert quantize_config(Symbol.oscillator(pg64)) is not op


def test_symbol_is_immutable(pg64):
    a = Symbol.oscillator(pg64)
    assert not a.values.flags.writeable
    with pytest.raises(ValueError):
        a.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        a.values = np.zeros(pg64.shape)


def test_writing_the_source_array_leaves_symbol_and_operator_unchanged(pg64):
    X, XI = pg64.meshes()
    src = (X + 0.3 * XI + 0.2j * XI ** 2) * np.exp(-(X ** 2 + XI ** 2) / 8.0)
    a = Symbol.from_samples(pg64, src)
    before = a.values.copy()
    M = quantize_config(a).matrix.copy()
    src *= 2.0
    assert src.flags.writeable
    assert np.array_equal(a.values, before)
    assert np.array_equal(quantize_config(a).matrix, M)
    assert np.array_equal(quantize_config(Symbol.from_samples(pg64, before)).matrix, M)


def test_symbol_copies_only_a_writeable_array(pg64):
    a = Symbol.oscillator(pg64)
    assert Symbol.from_samples(pg64, a.values).values is a.values
    src = np.array(a.values)
    assert not np.shares_memory(Symbol.from_samples(pg64, src).values, src)
    assert not np.shares_memory(Symbol.from_samples(pg64, src.real).values, src)


@pytest.mark.parametrize("name, real", [("x", True), ("oscillator", True),
                                        ("free", True), ("xi", False),
                                        ("x xi", False)])
def test_real_symbol_matrices_are_stored_real(pg128, name, real):
    a = _real_symbols(pg128)[name]
    M = quantize_config(a).matrix
    assert np.isrealobj(M) == real
    want = symbol_to_kernel_dense(a) * pg128.x_grid.spacing
    assert np.abs(M - want).max() <= REAL_EIGH_TOL * np.abs(want).max()


def test_linop_keeps_a_real_matrix_real(pg64):
    m = np.diag(np.arange(1.0, 65.0))
    op = LinOp(pg64.x_grid, m)
    assert np.isrealobj(op.matrix) and np.shares_memory(op.matrix, m)
    assert np.isrealobj(LinOp(pg64.x_grid, np.eye(64, dtype=int)).matrix)
    assert np.iscomplexobj(LinOp(pg64.x_grid, m.astype(complex)).matrix)
