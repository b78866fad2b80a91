import numpy as np
import pytest

from psqm import (Grid1D, GridMismatchError, self_dual_grid,
                  self_dual_phase_grid, grids_compatible)
from psqm.grids import MAX_INDEX_POINTS


def test_grid_points_and_spacing():
    g = Grid1D(8, 4, 0)
    assert g.spacing == 1.0
    assert np.array_equal(g.points, np.arange(-4.0, 4.0))


def test_dual_spacing_product_rule():
    g = Grid1D(8, 4, 0)
    assert abs(g.dual_spacing - 2 * np.pi / 8) < 1e-15
    # spacing * dual_spacing * n_points = 2*pi exactly
    for n, hw in [(8, 4), (64, 11.5), (256, 10), (512, 3.25)]:
        g = Grid1D(n, hw)
        assert abs(g.spacing * g.dual_spacing * g.n_points - 2 * np.pi) < 1e-12


def test_non_power_of_two_rejected():
    with pytest.raises(GridMismatchError):
        Grid1D(6, 4, 0)
    with pytest.raises(GridMismatchError):
        Grid1D(4, 4, 0)  # below the minimum size
    with pytest.raises(GridMismatchError):
        Grid1D(8, -1.0, 0)
    # a size is an integer, never truncated: 64.5, 64.0 and True are refused
    for n in (64.5, 64.0, True):
        for make in (lambda: Grid1D(n, 4.0), lambda: self_dual_grid(n)):
            with pytest.raises(GridMismatchError,
                               match=f"n_points must be an integer, got {n!r}"):
                make()


def test_dual_of_dual_recovers_grid():
    g = Grid1D(128, 7.0)
    assert grids_compatible(g.dual.dual, g)


def test_self_dual_grid():
    g = self_dual_grid(256)
    assert g.is_self_dual
    assert abs(g.spacing - np.sqrt(2 * np.pi / 256)) < 1e-15
    assert grids_compatible(g.dual, g)


def test_phase_grid_duality_flags():
    pg = self_dual_phase_grid(64)
    assert pg.is_self_dual and pg.is_weyl_ready
    g = Grid1D(64, 9.0)
    from psqm import PhaseGrid
    pg2 = PhaseGrid(g, g.dual)
    assert pg2.is_weyl_ready and not pg2.is_self_dual
    pg3 = PhaseGrid(g, g)
    assert not pg3.is_weyl_ready


def test_grid_equality_is_tolerant():
    g = Grid1D(64, 5.0)
    h = Grid1D(64, 5.0 * (1 + 1e-14), 0.0)
    assert grids_compatible(g, h)
    assert not grids_compatible(g, Grid1D(64, 5.1, 0.0))


def test_every_lattice_above_the_index_bound_refused_when_made():
    # the kernel maps' int32 index bound holds for every Grid1D: no
    # module past psqm.grids checks it again
    n = 2 * MAX_INDEX_POINTS
    for make in (lambda: Grid1D(n, 1.0),
                 lambda: self_dual_grid(n), lambda: self_dual_phase_grid(n)):
        with pytest.raises(GridMismatchError,
                           match=f"n_points must be at most {MAX_INDEX_POINTS}.*got {n}"):
            make()
    assert Grid1D(MAX_INDEX_POINTS, 1.0).n_points == MAX_INDEX_POINTS
