import numpy as np
import pytest

from psqm import (make_grid, hermite_state, gaussian_state,
                  inner_config, inner_phase, norm_config, boundary_mass,
                  random_config_state, random_phase_state, PhaseState,
                  self_dual_phase_grid, GridMismatchError, PhaseGrid)
from psqm.states import hermite_values
from oracles import (quadrature_inner, quadrature_moment,
                     random_config_state_sum, random_phase_state_sum)


@pytest.fixture(scope="module")
def g256():
    return make_grid(256, 10.0)


def test_hermite_level0_closed_form(g256):
    h0 = hermite_state(g256, 0)
    want = np.pi ** -0.25 * np.exp(-g256.points ** 2 / 2)
    assert np.abs(h0.values - want).max() < 1e-15


def test_hermite_orthonormal_family(g256):
    states = [hermite_state(g256, k) for k in range(9)]
    for i in range(9):
        for j in range(9):
            got = inner_config(states[i], states[j])
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-8


def test_hermite_overlaps_match_quadrature(g256):
    # (h2|h3) = 0 and ||h5|| = 1, checked against a fine quadrature oracle
    ov = quadrature_inner(lambda x: hermite_values(x, 2),
                          lambda x: hermite_values(x, 3))
    assert abs(ov) < 1e-12
    h2, h3, h5 = (hermite_state(g256, k) for k in (2, 3, 5))
    assert abs(inner_config(h2, h3) - ov) < 1e-10
    nq = quadrature_inner(lambda x: hermite_values(x, 5),
                          lambda x: hermite_values(x, 5))
    assert abs(norm_config(h5) ** 2 - nq) < 1e-10
    assert abs(norm_config(h5) - 1.0) < 1e-10


def test_hermite_level_bounds(g256):
    # a float level was truncated (2.7 gave h_2); a bool is not a level
    for level in (-1, 13, 2.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match="must be an integer in 0..12"):
            hermite_state(g256, level)
    hermite_state(g256, 12)
    hermite_state(g256, np.int64(2))


def test_gaussian_default_is_ground_state(g256):
    g = gaussian_state(g256, 0.0, 0.0, 1.0)
    h0 = hermite_state(g256, 0)
    assert np.abs(g.values - h0.values).max() < 1e-15
    assert abs(norm_config(g) - 1.0) < 1e-12


def test_gaussian_center_moves_mean_within_spacing(g256):
    for x0 in (0.7, -1.3, 2.25):
        st = gaussian_state(g256, x0, 0.4, 1.1)
        mean = float(np.sum(g256.points * np.abs(st.values) ** 2) * g256.spacing)
        oracle = quadrature_moment(
            lambda x, a=x0: (np.pi * 1.1 ** 2) ** -0.25
            * np.exp(-((x - a) ** 2) / (2 * 1.1 ** 2)))
        assert abs(mean - oracle) < 1e-10
        assert abs(mean - x0) < g256.spacing


def test_gaussian_rejects_bad_width(g256):
    with pytest.raises(ValueError):
        gaussian_state(g256, 0, 0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [(0, 0, 1e200), (0, 0, 1e-160), (1e200, 0, 1),
                                  (0, 0, np.inf), (np.nan, 0, 1), (0, -np.inf, 1),
                                  (0, 0, np.nan), (2e6, 0, 1), (0, 0, 5e-7)])
def test_gaussian_refuses_centres_and_widths_outside_the_window_bounds(g256, args):
    # each was an OverflowError, an overflow warning, an all-zero or a NaN
    # "normalized" state; now one ValueError naming the three values
    with pytest.raises(ValueError, match="a Gaussian needs"):
        gaussian_state(g256, *args)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [(1e6, -1e6, 1e-6), (-1e6, 1e6, 1e6), (0, 0, 1e-6)])
def test_gaussian_at_the_bounds_samples_finite_values_without_warnings(g256, args):
    assert np.isfinite(gaussian_state(g256, *args).values).all()


def test_window_spec_refuses_through_the_shared_gaussian_check(monkeypatch):
    # the window is parsed and built in one step, so the shared check runs
    # once (a copy bound in verify would count too); a window it refuses
    # is refused, whatever its values
    from psqm import states, verify
    check = states.require_gaussian
    seen = []

    def counting(*args):
        seen.append(args)
        check(*args)

    for module in (states, verify):
        monkeypatch.setattr(module, "require_gaussian", counting, raising=False)
    params = {"n_points": 64, "window": "gaussian:0.5,0,1"}
    verify.resolve_params(params)
    assert seen == [(0.5, 0.0, 1.0)]

    def refuse(*args):
        raise ValueError("refused")

    monkeypatch.setattr(states, "require_gaussian", refuse)
    with pytest.raises(ValueError, match="got 'gaussian:0.5,0,1'"):
        verify.resolve_params(params)


def test_inner_product_conventions(g256, rng):
    a = random_config_state(g256, rng)
    b = random_config_state(g256, rng)
    # (a|b) = integral b a* dx: linear in the second argument
    got = inner_config(a, b.with_values(2j * b.values))
    assert abs(got - 2j * inner_config(a, b)) < 1e-12
    got2 = inner_config(a.with_values(2j * a.values), b)
    assert abs(got2 + 2j * inner_config(a, b)) < 1e-12
    assert abs(inner_config(a, b) - np.conj(inner_config(b, a))) < 1e-12


def test_phase_inner_product(pg64, rng):
    A = random_phase_state(pg64, rng)
    B = random_phase_state(pg64, rng)
    assert abs(inner_phase(A, B) - np.conj(inner_phase(B, A))) < 1e-12
    # disjoint supports -> zero
    va = np.zeros(pg64.shape)
    vb = np.zeros(pg64.shape)
    va[5:10, 5:10] = 1.0
    vb[30:35, 30:35] = 1.0
    assert inner_phase(PhaseState(pg64, va), PhaseState(pg64, vb)) == 0


def test_grid_mismatch_raises(g256):
    other = make_grid(256, 11.0)
    a = hermite_state(g256, 0)
    b = hermite_state(other, 0)
    with pytest.raises(GridMismatchError):
        inner_config(a, b)
    A = PhaseState(PhaseGrid(g256, g256), np.zeros((256, 256)))
    B = PhaseState(PhaseGrid(g256, other), np.zeros((256, 256)))
    with pytest.raises(GridMismatchError):
        inner_phase(A, B)


def test_boundary_mass_flags_confinement(g256):
    assert boundary_mass(hermite_state(g256, 0)) < 1e-10
    wide = gaussian_state(g256, 8.5, 0.0, 2.0)
    assert boundary_mass(wide) > 1e-10


def test_random_states_are_admissible(rng):
    pg = self_dual_phase_grid(128)
    psi = random_config_state(pg.x_grid, rng)
    Psi = random_phase_state(pg, rng)
    assert abs(norm_config(psi) - 1) < 1e-12
    assert boundary_mass(psi) < 1e-12
    assert boundary_mass(Psi) < 1e-12


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("seed", [5, 1234])
def test_random_phase_state_matches_the_sum_formula(n, seed):
    pg = self_dual_phase_grid(n)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        assert np.array_equal(random_phase_state(pg, new).values,
                              random_phase_state_sum(pg, old).values)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("seed", [5, 1234])
def test_random_config_state_matches_the_sum_formula(n, seed):
    g = self_dual_phase_grid(n).x_grid
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        assert np.array_equal(random_config_state(g, new).values,
                              random_config_state_sum(g, old).values)
