import json

import numpy as np
import pytest

from psqm import (hermite_state, cross_wigner, Grid1D, self_dual_phase_grid,
                  grids_compatible, random_config_state)
from psqm import serialize


def test_config_csv_roundtrip(tmp_path, rng):
    g = Grid1D(64, 7.5)
    psi = random_config_state(g, rng)
    path = tmp_path / "psi.csv"
    serialize.save_config_csv(psi, path)
    back = serialize.load_config_csv(path)
    assert grids_compatible(back.grid, g)
    scale = np.abs(psi.values).max()
    assert np.abs(back.values - psi.values).max() < 1e-15 * scale + 1e-300


def test_phase_csv_roundtrip(tmp_path):
    pg = self_dual_phase_grid(32)
    W = cross_wigner(hermite_state(pg.x_grid, 1), hermite_state(pg.x_grid, 0))
    path = tmp_path / "w.csv"
    serialize.save_phase_csv(W, path)
    back = serialize.load_phase_csv(path)
    assert grids_compatible(back.grid.x_grid, W.grid.x_grid)
    assert grids_compatible(back.grid.p_grid, W.grid.p_grid)
    assert np.abs(back.values - W.values).max() < 1e-15


@pytest.mark.parametrize("edit", [
    lambda rows: rows.reshape(8, 8, 4).transpose(1, 0, 2).reshape(64, 4),   # p-major
    lambda rows: rows[:-1],                                                 # a row missing
], ids=["p-major", "missing row"])
def test_phase_csv_refuses_a_file_not_in_x_major_layout(tmp_path, edit):
    pg = self_dual_phase_grid(8)
    W = cross_wigner(hermite_state(pg.x_grid, 1), hermite_state(pg.x_grid, 0))
    path = tmp_path / "w.csv"
    serialize.save_phase_csv(W, path)
    rows = np.loadtxt(path, delimiter=",")
    np.savetxt(path, edit(rows), delimiter=",", header="x,p,re,im")
    with pytest.raises(ValueError, match=f"{path}: .*x-major order"):
        serialize.load_phase_csv(path)


def test_gnuplot_matrix_layout(tmp_path):
    pg = self_dual_phase_grid(16)
    W = cross_wigner(hermite_state(pg.x_grid, 0), hermite_state(pg.x_grid, 0))
    path = tmp_path / "w.gp"
    serialize.save_gnuplot_matrix(W, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split()
    assert int(header[0]) == 16 and len(header) == 17
    assert len(lines) == 17
    row = lines[1].split()
    assert len(row) == 17
    assert abs(float(row[0]) - pg.x_grid.points[0]) < 1e-12


def test_report_json_is_deterministic():
    rep = {"b": 1.0, "a": [1, 2], "c": {"y": 2.5e-11, "x": "s"}}
    assert serialize.report_json(rep) == serialize.report_json(json.loads(
        serialize.report_json(rep)))

