"""Eigendecomposition, unitary time evolution and cross-representation
equivalence reports."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .states import ConfigState, inner_phase, norm_config, norm_phase
from .weyl import Symbol, LinOp, quantize_config
from .isometry import WindowedIsometry
from .phase_weyl import quantize_phase
from .moyal import moyal_map, moyal_map_inv, quantize_moyal

__all__ = ["eig", "evolve", "compare_representations", "spectrum_report"]


class _Eigenstates(Sequence):
    """The eigenstates of one decomposition, built on access: state k is
    ``ConfigState(grid, V[:, k] / sqrt(dx))``.  Holds only the
    operator's cached eigenbasis V, so no n x n copy is made."""

    def __init__(self, grid, V: np.ndarray):
        self._grid, self._V = grid, V
        self._weight = np.sqrt(grid.spacing)

    def __len__(self) -> int:
        return self._V.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        return ConfigState(self._grid, self._V[:, k] / self._weight)


def eig(op: LinOp, herm_tol: float = 1e-8):
    """Full spectral decomposition of a Hermitian operator.

    Returns (eigenvalues ascending, eigenstates normalized in the grid
    norm); the eigenstates are a sequence that builds each state when it
    is read (index, slice, ``len``, iteration).  Rejects matrices whose
    Hermiticity defect exceeds ``herm_tol``; below that the matrix is
    symmetrized before the decomposition, which the operator computes
    once and keeps (:meth:`LinOp.eigh`).
    """
    w, V = op.eigh(herm_tol)
    return w, _Eigenstates(op.grid, V)


def evolve(op: LinOp, state, t: float):
    """exp(-i t op) applied through the operator's one spectral
    decomposition (:meth:`LinOp.propagate`); norm is conserved to
    machine precision."""
    return op.propagate(state, t)


def compare_representations(a: Symbol, chi: ConfigState, t,
                            psi0: ConfigState):
    """Evolve the same initial state in all three representations and
    report the pairwise distances after mapping everything back to
    configuration space.

    Config evolves under the dense Weyl matrix; the phase-space path
    lifts, evolves under the phase-space operator exponential and
    lowers; the Moyal path maps through U on top of that.  The three
    operators come from :func:`quantize_config`, :func:`quantize_phase`
    and :func:`quantize_moyal`, so they share the symbol's one matrix
    and one eigendecomposition, with :func:`eig` and
    :func:`spectrum_report` too.  ``t`` is a time (one report dict) or a
    sequence of times (a list of reports, sharing the lift and its Moyal
    map).

    The phase picture runs first, every time reduced to its config state
    and norm, and the lift is dropped once its Moyal map is formed, so
    no more than one evolved phase-space state is held at a time.
    """
    iso = WindowedIsometry(chi)
    cfg = quantize_config(a)
    pw = quantize_phase(a)
    mw = quantize_moyal(a)
    times = [t] if np.ndim(t) == 0 else list(t)

    def lowered(Psi):
        return iso.adjoint(Psi), norm_phase(Psi)

    Psi0 = iso.apply(psi0)
    phase = [lowered(pw.evolve(Psi0, s)) for s in times]
    phase_norm0 = norm_phase(Psi0)
    Theta0 = moyal_map(Psi0)
    del Psi0
    moyal_norm0 = norm_phase(Theta0)

    def dist(u: ConfigState, v: ConfigState) -> float:
        return norm_config(u.with_values(u.values - v.values))

    def at(s: float, psi_from_phase: ConfigState, phase_norm: float) -> dict:
        psi_t = evolve(cfg, psi0, s)
        Theta_t = mw.evolve(Theta0, s)
        moyal_norm = norm_phase(Theta_t)
        psi_from_moyal = iso.adjoint(moyal_map_inv(Theta_t))
        report = {
            "t": float(s),
            "config_phase": dist(psi_t, psi_from_phase),
            "config_moyal": dist(psi_t, psi_from_moyal),
            "phase_moyal": dist(psi_from_phase, psi_from_moyal),
            "norm_drift": max(
                abs(norm_config(psi_t) - norm_config(psi0)),
                abs(phase_norm - phase_norm0),
                abs(moyal_norm - moyal_norm0),
            ),
        }
        report["max_distance"] = max(report["config_phase"], report["config_moyal"],
                                     report["phase_moyal"])
        return report

    reports = [at(s, *lowered_s) for s, lowered_s in zip(times, phase)]
    return reports[0] if np.ndim(t) == 0 else reports


def _distinct_levels(values: np.ndarray, n_levels: int, atol: float) -> np.ndarray:
    out = []
    for v in values:
        if not out or abs(v - out[-1]) > atol:
            out.append(float(v))
        if len(out) == n_levels:
            break
    return np.array(out)


def _ritz_values(apply, basis) -> np.ndarray:
    """Eigenvalues of the compression of ``apply`` to the span of the
    orthonormal phase states ``basis`` (Rayleigh-Ritz)."""
    H = np.empty((len(basis), len(basis)), complex)
    for j, v in enumerate(basis):
        Av = apply(v)
        H[:, j] = [inner_phase(u, Av) for u in basis]
    return np.linalg.eigvalsh(0.5 * (H + H.conj().T))


def spectrum_report(a: Symbol, chi: ConfigState) -> dict:
    """Distinct low-lying spectra (8 levels) of the three quantizations
    of a real symbol and their pairwise deviations: the config
    eigenvalues, and the Rayleigh-Ritz values of the phase-space
    operator on the lifted lowest 9 config eigenstates T v_k and of the
    Moyal operator U A U^{-1} on U T v_k.

    Multiplication-type symbols have quasi-continuous spectra at the
    grid resolution; the report flags those and carries the deciles of
    the config spectrum instead of pass/fail distances.

    The operators come from :func:`quantize_config`,
    :func:`quantize_phase` and :func:`quantize_moyal`: one matrix and one
    eigendecomposition per symbol, shared with :func:`eig` and
    :func:`compare_representations` on the same symbol.
    """
    n_levels = 8
    cfg = quantize_config(a)
    w_cfg, states = eig(cfg)

    span = float(w_cfg[-1] - w_cfg[0])
    # multiplication-type symbols resolve eigenvalues at the lattice
    # spacing; genuinely discrete low-lying spectra sit well above it
    gap_floor = 3.0 * max(a.grid.x_grid.spacing, a.grid.p_grid.spacing)
    lowest = w_cfg[: n_levels + 1]
    gaps = np.diff(lowest)
    if span < 1e-10:
        discrete = True   # single spectral point
    else:
        discrete = bool(np.min(gaps) > gap_floor) if len(gaps) else True

    report = {"n_levels": n_levels, "discrete": discrete}
    if not discrete:
        report["config_quantiles"] = np.quantile(w_cfg, np.linspace(0, 1, 11)).tolist()
        return report

    iso = WindowedIsometry(chi)
    basis = [iso.apply(v) for v in states[: n_levels + 1]]
    w_phase = _ritz_values(quantize_phase(a).apply, basis)
    for k in range(len(basis)):   # in place: each lifted state dropped when mapped
        basis[k] = moyal_map(basis[k])
    w_moyal = _ritz_values(quantize_moyal(a).apply, basis)

    atol = max(1e-9, 1e-9 * max(span, 1.0))
    lad_c = _distinct_levels(w_cfg, n_levels, atol)
    lad_p = _distinct_levels(w_phase, n_levels, atol)
    lad_m = _distinct_levels(w_moyal, n_levels, atol)
    n = min(len(lad_c), len(lad_p), len(lad_m))
    report["config"] = lad_c[:n].tolist()
    report["phase"] = lad_p[:n].tolist()
    report["moyal"] = lad_m[:n].tolist()
    report["config_phase"] = float(np.abs(lad_c[:n] - lad_p[:n]).max())
    report["config_moyal"] = float(np.abs(lad_c[:n] - lad_m[:n]).max())
    report["phase_moyal"] = float(np.abs(lad_p[:n] - lad_m[:n]).max())
    report["max_deviation"] = max(report["config_phase"],
                                  report["config_moyal"],
                                  report["phase_moyal"])
    return report
