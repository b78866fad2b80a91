"""CSV / JSON / gnuplot serialization.

Layouts (documented in the README):

  config states:  columns  x, re, im
  phase states / symbols:  columns  x, p, re, im  (x-major row order)
  gnuplot:  nonuniform-matrix format (first row: n_p then the p values;
            following rows: x then Re of the row), one file per field

Round trips are accurate to ~1e-16 relative (17 significant digits),
not bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import Grid1D, GridMismatchError, PhaseGrid
from .states import ConfigState, PhaseState

__all__ = [
    "save_config_csv", "load_config_csv",
    "save_phase_csv", "load_phase_csv",
    "save_gnuplot_matrix", "report_json",
]

_FMT = "%.17e"


def _grid_from_points(points: np.ndarray, path) -> Grid1D:
    """Grid through the sample coordinates read from ``path``; refuses
    single points, non-uniform spacing and non-grid sizes."""
    n = len(points)
    dx = np.diff(points)
    if n < 2 or not dx.min() > 0 or np.ptp(dx) > 1e-6 * dx.mean():
        raise ValueError(f"{path}: a grid column must hold two or more "
                         f"uniformly increasing values (got {n})")
    half = 0.5 * n * dx.mean()
    try:
        return Grid1D(n, half, points[0] + half)
    except GridMismatchError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_csv(path, columns: str) -> np.ndarray:
    """The rows of a CSV file of the ``columns`` header; refuses (ValueError,
    naming the path) another column count or a value that is not finite."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != columns.count(",") + 1:
        raise ValueError(f"{path}: expected the columns {columns}, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every value must be finite")
    return data


def save_config_csv(state: ConfigState, path) -> None:
    data = np.column_stack([state.grid.points, state.values.real, state.values.imag])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header="x,re,im")


def load_config_csv(path) -> ConfigState:
    data = _load_csv(path, "x,re,im")
    grid = _grid_from_points(data[:, 0], path)
    return ConfigState(grid, data[:, 1] + 1j * data[:, 2])


def save_phase_csv(obj, path) -> None:
    """PhaseState or Symbol (anything with .grid: PhaseGrid and .values)."""
    X, P = obj.grid.meshes()
    data = np.column_stack([X.ravel(), P.ravel(),
                            obj.values.real.ravel(), obj.values.imag.ravel()])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header="x,p,re,im")


def load_phase_csv(path) -> PhaseState:
    """Refuses (ValueError) rows that are not every (x, p) pair of the
    grid once, in x-major order."""
    data = _load_csv(path, "x,p,re,im")
    x, p = np.unique(data[:, 0]), np.unique(data[:, 1])
    grid = PhaseGrid(_grid_from_points(x, path), _grid_from_points(p, path))
    pairs = np.stack(np.meshgrid(x, p, indexing="ij"), axis=-1).reshape(-1, 2)
    if not np.array_equal(data[:, :2], pairs):
        raise ValueError(f"{path}: rows must hold each of the {x.size} x {p.size} "
                         f"(x, p) pairs once, in x-major order (x increasing, then p "
                         f"increasing within each x); got {len(data)} rows")
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(x.size, p.size)
    return PhaseState(grid, vals)


def save_gnuplot_matrix(obj, path) -> None:
    """Real part in gnuplot 'nonuniform matrix' layout
    (splot 'file' nonuniform matrix with pm3d)."""
    x = obj.grid.x_grid.points
    p = obj.grid.p_grid.points
    vals = obj.values.real
    with open(path, "w") as fh:
        fh.write(str(len(p)) + " " + " ".join(_FMT % v for v in p) + "\n")
        for i, xv in enumerate(x):
            fh.write(_FMT % xv + " " + " ".join(_FMT % v for v in vals[i]) + "\n")


def report_json(report: dict) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))

