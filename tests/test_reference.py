"""The reference oracles.  The finite-difference oscillator levels
agree with a banded LAPACK solver's, their inertia counts are right
and an uncertified level count is refused.  In the quadrature
cross-Wigner oracle, row blocks and pair batching do not change its
values, and each entry is the plain Riemann sum over y."""

import numpy as np
import pytest

from psqm import reference
from psqm.reference import (cross_wigner_quadrature, fd_levels_below,
                            fd_oscillator_levels)
from psqm.states import gaussian_values, hermite_values

# the lowest 8 levels of the same finite-difference matrix by LAPACK's
# banded symmetric solver (scipy.linalg.eig_banded)
BANDED_LEVELS = [0.49999999999727146, 1.5000000000027283, 2.500000000006367,
                 3.5000000000009086, 4.500000000002729, 5.50000000000091,
                 6.500000000002728, 7.499999999999091]


@pytest.mark.parametrize("n_levels", [5, 8])
def test_fd_levels_match_the_banded_solver(n_levels):
    levels = fd_oscillator_levels(n_levels)
    assert levels.shape == (n_levels,)
    assert np.abs(levels - BANDED_LEVELS[:n_levels]).max() <= 1e-10


def test_fd_levels_below_counts_the_levels_under_sigma():
    # the levels sit at k + 1/2 to ~1e-11, so k of them lie below k
    assert [fd_levels_below(float(k)) for k in range(9)] == list(range(9))


def test_uncertified_level_counts_are_refused(monkeypatch):
    # 40 Ritz values on 48 Hermite functions: the high ones reach the box
    # edge, and their residual intervals overlap
    with pytest.raises(np.linalg.LinAlgError, match="intervals overlap"):
        fd_oscillator_levels(40)
    # an inertia count other than n_levels refuses the values too
    monkeypatch.setattr(reference, "fd_levels_below", lambda sigma: 9)
    with pytest.raises(np.linalg.LinAlgError, match="9 eigenvalues lie below"):
        fd_oscillator_levels(8)
    with pytest.raises(ValueError, match="n_levels"):
        fd_oscillator_levels(0)


N_Y, Y_HALF = 2048, 40.0
# 100 x rows: three full row blocks of 32 and a partial one of 4
X = np.linspace(-6.0, 6.0, 100)
P = np.linspace(-5.0, 5.0, 37)
PAIRS = [
    (lambda t: hermite_values(t, 3), lambda t: hermite_values(t, 1)),
    (lambda t: gaussian_values(t, 0.8, -0.4, 1.0), lambda t: hermite_values(t, 0)),
    (lambda t: hermite_values(t, 5), lambda t: gaussian_values(t, -0.5, 0.2, 1.1)),
]


@pytest.fixture(scope="module")
def batched():
    return list(cross_wigner_quadrature(PAIRS, X, P))


def test_batched_call_equals_one_call_per_pair(batched):
    assert len(batched) == len(PAIRS)
    for pair, W in zip(PAIRS, batched):
        assert W.shape == (len(X), len(P))
        (single,) = cross_wigner_quadrature([pair], X, P)
        assert np.array_equal(W, single)


@pytest.mark.parametrize("i, j", [(0, 0), (31, 18), (32, 5), (63, 36),
                                  (96, 20), (99, 11)])
def test_entries_equal_the_riemann_sum_over_y(batched, i, j):
    y = -Y_HALF + (2.0 * Y_HALF / N_Y) * np.arange(N_Y)
    dy = y[1] - y[0]
    for (psi_fn, chi_fn), W in zip(PAIRS, batched):
        direct = dy / (2 * np.pi) * np.sum(np.exp(-1j * P[j] * y)
                                           * psi_fn(X[i] + y / 2)
                                           * np.conj(chi_fn(X[i] - y / 2)))
        assert abs(W[i, j] - direct) <= 1e-15


def test_pairs_are_computed_one_at_a_time():
    # the quadrature yields each pair's array before it evaluates the next
    # pair's states, so a caller holds one (n, n) array at a time
    called = []

    def state(k):
        def values(t):
            called.append(k)
            return hermite_values(t, k)
        return values

    quadratures = cross_wigner_quadrature([(state(0), state(1)), (state(2), state(3))], X, P)
    assert called == []
    first = next(quadratures)
    assert set(called) == {0, 1}
    second = next(quadratures)
    assert set(called) == {0, 1, 2, 3}
    assert next(quadratures, None) is None
    assert first.shape == second.shape == (len(X), len(P))


def test_gaussian_pair_matches_closed_form():
    # W(g, g) of the unit-width Gaussian centred at (x0, p0) is
    # exp(-(x - x0)^2 - (p - p0)^2) / pi
    def g(t):
        return gaussian_values(t, 0.8, -0.4, 1.0)

    (W,) = cross_wigner_quadrature([(g, g)], X, P)
    want = np.exp(-(X[:, None] - 0.8) ** 2 - (P[None, :] + 0.4) ** 2) / np.pi
    assert np.abs(W - want).max() < 1e-12


def test_integrand_blocks_carry_no_subnormal_components(monkeypatch):
    # far-apart Gaussians: the integrand tails reach subnormal magnitudes;
    # they are zeroed before each product, moving W by at most ~1e-150.
    # W itself is of order 1/pi at the midpoint of the two centres.
    def psi(t):
        return gaussian_values(t, 6.0, 0.3, 1.0)

    def chi(t):
        return gaussian_values(t, -6.0, -0.2, 1.0)

    tiny = np.sqrt(np.finfo(float).tiny)
    blocks = []
    matmul = np.matmul

    def spy(a, b, out=None):
        blocks.append(a.copy())
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    (W,) = cross_wigner_quadrature([(psi, chi)], X, P)
    monkeypatch.undo()
    parts = np.concatenate([b.view(np.float64).ravel() for b in blocks])
    assert not ((parts != 0) & (np.abs(parts) < tiny)).any()

    y = -Y_HALF + (2.0 * Y_HALF / N_Y) * np.arange(N_Y)
    raw = psi(X[:, None] + y / 2) * np.conj(chi(X[:, None] - y / 2))
    raw_parts = raw.view(np.float64)
    assert ((raw_parts != 0) & (np.abs(raw_parts) < tiny)).any()
    monkeypatch.setattr(reference, "_FLUSH_BELOW", 0.0)
    (unflushed,) = cross_wigner_quadrature([(psi, chi)], X, P)
    assert np.abs(W - unflushed).max() <= 1e-150
    # the folded sum is the plain complex Riemann sum to round-off
    want = (raw @ np.exp(-1j * np.outer(y, P))) * ((y[1] - y[0]) / (2 * np.pi))
    assert np.abs(W - want).max() <= 1e-15 * np.abs(want).max()
