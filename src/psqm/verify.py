"""Verification suites: each re-checks one family of unitary-equivalence
identities on a desk-scale lattice and reports residuals against fixed
tolerances.  The CLI `verify` command and the acceptance test suite both
run through :func:`run_verify`; reports are deterministic given the seed.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .grids import Grid1D, PhaseGrid, self_dual_phase_grid
from .states import (MAX_GAUSSIAN_CENTER, GAUSSIAN_WIDTHS, MAX_HERMITE_LEVEL,
                     ConfigState, PhaseState, gaussian_state, gaussian_values,
                     hermite_state, hermite_values, inner_config, inner_phase,
                     norm_config, norm_phase, random_config_state,
                     random_phase_state)
from .weyl import Symbol, quantize_config, moyal_product
from .isometry import WindowedIsometry
from .phase_weyl import intertwining_report
from .moyal import (bopp_apply, cross_wigner, dilate, moyal_map,
                    quantize_moyal, rotate, star_apply,
                    stargen_residual)
from .mixed import MixedState, collapse, measure_probability, measurement_basis, mixed_to_phase
from .spectral import compare_representations, spectrum_report
from .fourier import forward_ft
from . import reference

__all__ = ["SUITE_NAMES", "TOLERANCES", "PARAM_KEYS", "default_params",
           "resolve_params", "run_verify", "add_suite", "spectrum_checks"]

SUITE_NAMES = ("isometry", "intertwining", "unitarity", "star", "spectrum",
               "dynamics", "mixed")


# Acceptance tolerance of every check, by its report name up to "[".
TOLERANCES = {
    "inner_product_preserved": 1e-10, "projector_idempotent": 1e-10,
    "projector_self_adjoint": 1e-10,
    "forward": 1e-8, "adjoint": 1e-8,
    "norm_preserved": 1e-8, "lift_vs_wigner_quadrature": 1e-7,
    "lift_vs_cross_wigner": 1e-7, "closed_form_vs_composition": 1e-7,
    "star_apply_vs_quantize_moyal": 1e-6, "bopp_canonical_commutators": 1e-8,
    "bopp_vanishing_commutators": 1e-8, "stargen_oscillator_ground": 1e-6,
    "quantize_star_vs_compose": 1e-6,
    "ladders_pairwise": 1e-6, "config_vs_fd_oracle": 1e-5,
    "distance": 1e-6, "norm_drift": 1e-8,
    "convex_combination_exact": 1e-10, "phase_route_equals_formula": 1e-10,
    "collapse_transition_probability": 1e-10, "total_probability_bound": 1e-8,
    "expectation_consistency": 1e-8,
}


def default_params() -> dict:
    return {
        "n_points": 256,
        "seed": 1234,
        "window": "hermite:0",
        "times": [0.1, 0.5, 1.0],
    }


# Every parameter key run_verify accepts.
PARAM_KEYS = frozenset(default_params())


def _check(name: str, value: float) -> dict:
    tol = TOLERANCES[name.split("[", 1)[0]]
    return {"name": name, "value": float(value), "tolerance": tol,
            "passed": bool(value < tol)}


_SYMBOLS = {
    "oscillator": Symbol.oscillator,
    "x": Symbol.coordinate,
    "xi": Symbol.momentum,
    "xxi": lambda grid: Symbol.polynomial(grid, {(1, 1): 1.0}),
    "free": Symbol.free_particle,
    "unit": Symbol.unit,
}


def _symbol(grid: PhaseGrid, name: str) -> Symbol:
    if name not in _SYMBOLS:
        raise ValueError(f"unknown symbol {name!r}; choose from {list(_SYMBOLS)}")
    return _SYMBOLS[name](grid)


# The refusal of a ``window`` value names the key and both forms.
_WINDOW_FORMS = (f"window must be 'hermite:K' (K in 0..{MAX_HERMITE_LEVEL}) or "
                 f"'gaussian:x0,p0,w' (|x0|, |p0| <= {MAX_GAUSSIAN_CENTER:g}, "
                 f"{GAUSSIAN_WIDTHS[0]:g} <= w <= {GAUSSIAN_WIDTHS[1]:g})")


def resolve_params(params: dict, symbol: str = "oscillator"):
    """(grid, window, symbol) named by a parameter set: the self-dual
    phase grid of ``n_points``, the ``window`` spec (``hermite:K`` or
    ``gaussian:x0,p0,w``) sampled on its p axis, and the named symbol
    on the grid, each refused (ValueError) by the code that builds it;
    a window off unit norm there is refused naming both."""
    n = int(params["n_points"])
    grid = self_dual_phase_grid(n)
    spec = params.get("window", "hermite:0")
    chi = _window(spec, grid.p_grid)
    try:
        WindowedIsometry(chi)
    except ValueError as exc:
        raise ValueError(f"window {spec!r} sampled on the p axis of n_points = {n}: "
                         f"{exc}") from None
    return grid, chi, _symbol(grid, str(symbol))


def _window(spec, axis: Grid1D) -> ConfigState:
    """A ``window`` value sampled on ``axis`` by :func:`hermite_state` or
    :func:`gaussian_state`, which refuse their own bounds; a refused or
    malformed value is a ValueError naming the key and both forms."""
    kind, _, rest = str(spec).partition(":")
    fields = rest.split(",")
    try:
        if kind == "hermite" and len(fields) == 1:
            return hermite_state(axis, int(fields[0]))
        if kind == "gaussian" and len(fields) == 3:
            return gaussian_state(axis, *(float(v) for v in fields))
    except ValueError:
        pass
    raise ValueError(f"{_WINDOW_FORMS}, got {spec!r}")


def _sampled_corpus(grid: PhaseGrid) -> list:
    """Gaussian-damped polynomial symbols, sampled (no evaluator), for
    the spectral star-product and composition checks."""
    X, XI = grid.meshes()
    damp = np.exp(-(X ** 2 + XI ** 2) / 8.0)
    return [
        Symbol.from_samples(grid, damp),
        Symbol.from_samples(grid, (X + 0.3 * XI) * damp),
        Symbol.from_samples(grid, (X * XI + 0.2j * XI ** 2) * damp),
    ]


# ------------------------------------------------------------------ suites

def suite_isometry(params: dict, inputs: tuple) -> list:
    rng = np.random.default_rng(int(params["seed"]))
    grid, chi, _ = inputs
    iso = WindowedIsometry(chi)

    dev = 0.0
    for _ in range(50):
        psi = random_config_state(grid.x_grid, rng)
        phi = random_config_state(grid.x_grid, rng)
        lhs = inner_phase(iso.apply(psi), iso.apply(phi))
        dev = max(dev, abs(lhs - inner_config(psi, phi)))
    idem = 0.0
    sadj = 0.0
    for _ in range(10):
        Psi = random_phase_state(grid, rng)
        Phi = random_phase_state(grid, rng)
        P1 = iso.project(Psi)
        P2 = iso.project(P1)
        idem = max(idem, norm_phase(P2.with_values(P2.values - P1.values)))
        sadj = max(sadj, abs(inner_phase(Phi, P1) - inner_phase(iso.project(Phi), Psi)))
    return [
        _check("inner_product_preserved[50 pairs]", dev),
        _check("projector_idempotent", idem),
        _check("projector_self_adjoint", sadj),
    ]


def suite_intertwining(params: dict, inputs: tuple) -> list:
    rng = np.random.default_rng(int(params["seed"]))
    grid, chi, osc = inputs
    iso = WindowedIsometry(chi)
    checks = []
    for name in ("x", "xi", "xxi", "oscillator"):
        a = osc if name == "oscillator" else _symbol(grid, name)
        report = intertwining_report(a, iso, 20, rng)
        checks.append(_check(f"forward[{name}]", report["forward_residual"]))
        checks.append(_check(f"adjoint[{name}]", report["adjoint_residual"]))
    return checks


def suite_unitarity(params: dict, inputs: tuple) -> list:
    rng = np.random.default_rng(int(params["seed"]))
    grid, _, _ = inputs

    drift = 0.0
    for _ in range(50):
        Psi = random_phase_state(grid, rng)
        drift = max(drift, abs(norm_phase(moyal_map(Psi)) - norm_phase(Psi)))

    # lifted pairs against the quadrature cross-Wigner oracle
    pairs = [("h", 0, "h", 0), ("h", 1, "h", 0), ("h", 2, "h", 1),
             ("h", 3, "h", 3), ("h", 5, "h", 2), ("h", 4, "h", 0),
             ("g", (0.8, -0.4, 1.0), "h", 0), ("g", (-1.2, 0.6, 1.3), "h", 1),
             ("g", (0.5, 0.5, 0.9), "g", (-0.5, 0.2, 1.1)),
             ("h", 6, "g", (0.3, -0.7, 1.0))]
    xg = grid.x_grid

    def make(kind, arg):
        if kind == "h":
            return hermite_state(xg, arg), (lambda t, k=arg: hermite_values(t, k))
        x0, p0, w = arg
        return (gaussian_state(xg, x0, p0, w),
                lambda t, a=x0, b=p0, c=w: gaussian_values(t, a, b, c))

    fixtures = [(make(kp, ap), make(kc, ac)) for kp, ap, kc, ac in pairs]
    quadratures = reference.cross_wigner_quadrature(
        [(psi_fn, chi_fn) for (_, psi_fn), (_, chi_fn) in fixtures],
        xg.points, xg.points)
    wig_err = 0.0
    xw_err = 0.0
    for ((psi, _), (chi, _)), Wq in zip(fixtures, quadratures):
        lifted = WindowedIsometry(forward_ft(chi)).apply(psi)
        U_lift = moyal_map(lifted)
        wig_err = max(wig_err, np.abs(U_lift.values - np.sqrt(2 * np.pi) * Wq).max())
        Wd = cross_wigner(psi, chi)
        xw_err = max(xw_err, np.abs(U_lift.values
                                    - np.sqrt(2 * np.pi) * Wd.values).max())
    # zip stops on the fixtures and leaves the generator suspended, holding
    # its 2048 x n phase table: release it and the last fields here
    del quadratures, Wq, lifted, U_lift, Wd

    comp = 0.0
    for _ in range(5):
        Psi = random_phase_state(grid, rng)
        via = dilate(rotate(Psi, -np.pi / 4), -np.log(np.sqrt(2.0)))
        comp = max(comp, np.abs(moyal_map(Psi).values - via.values).max())

    return [
        _check("norm_preserved[50 states]", drift),
        _check("lift_vs_wigner_quadrature[10 pairs]", wig_err),
        _check("lift_vs_cross_wigner", xw_err),
        _check("closed_form_vs_composition", comp),
    ]


def suite_star(params: dict, inputs: tuple) -> list:
    rng = np.random.default_rng(int(params["seed"]))
    grid, _, osc = inputs

    # the sampled symbols' operators, built by the star-action loop, are
    # reused by the composition check below
    sampled = _sampled_corpus(grid)
    act = 0.0
    for a in sampled + [osc]:
        op = quantize_moyal(a)
        for _ in range(3):
            Psi = random_phase_state(grid, rng)
            lhs = star_apply(a, Psi)
            rhs = op.apply(Psi)
            act = max(act, norm_phase(lhs.with_values(lhs.values - rhs.values)))

    comm = 0.0
    zero = 0.0
    canonical = (("X", "Xi_x"), ("P", "Xi_p"))
    vanishing = (("X", "P"), ("X", "Xi_p"), ("P", "Xi_x"), ("Xi_x", "Xi_p"))
    for _ in range(5):
        Psi = random_phase_state(grid, rng)
        # each operator once on the state, its result read by every
        # commutator that applies it first
        once = {name: bopp_apply(name, Psi) for name in ("X", "P", "Xi_x", "Xi_p")}

        def commutator(a, b, once=once):
            lhs = bopp_apply(a, once[b])
            rhs = bopp_apply(b, once[a])
            return lhs.with_values(lhs.values - rhs.values)

        for a, b in canonical:
            c = commutator(a, b)
            comm = max(comm, norm_phase(c.with_values(c.values - 1j * Psi.values)))
        for a, b in vanishing:
            zero = max(zero, norm_phase(commutator(a, b)))

    X, P = grid.meshes()
    W0 = PhaseState(grid, np.exp(-(X ** 2 + P ** 2)))
    W0 = W0.with_values(W0.values / norm_phase(W0))
    gen = stargen_residual(osc, 0.5, W0)

    comp = 0.0
    for a, b in [(sampled[0], sampled[1]), (sampled[1], sampled[2])]:
        Mc = quantize_config(moyal_product(a, b)).matrix   # stored: read-only
        Mab = quantize_config(a).matrix @ quantize_config(b).matrix
        comp = max(comp, np.linalg.norm(np.subtract(Mc, Mab, out=Mab), ord=2))
        del Mc, Mab

    return [
        _check("star_apply_vs_quantize_moyal", act),
        _check("bopp_canonical_commutators", comm),
        _check("bopp_vanishing_commutators", zero),
        _check("stargen_oscillator_ground", gen),
        _check("quantize_star_vs_compose", comp),
    ]


def suite_spectrum(params: dict, inputs: tuple) -> list:
    _, chi, osc = inputs
    return spectrum_checks(params, spectrum_report(osc, chi))


def spectrum_checks(params: dict, report: dict) -> list:
    """The spectrum suite's checks, made from the oscillator's
    :func:`spectrum_report` (a caller that has it runs no second one)
    and the finite-difference oracle."""
    if not report["discrete"]:
        raise ValueError(f"the spectrum checks need n_points >= 64: at n_points = "
                         f"{params['n_points']} the oscillator's levels lie < 3 spacings apart")
    fd = reference.fd_oscillator_levels(8)
    oracle_dev = float(np.abs(np.asarray(report["config"]) - fd).max())
    return [
        _check("ladders_pairwise[8 levels]", report["max_deviation"]),
        _check("config_vs_fd_oracle", oracle_dev),
    ]


def suite_dynamics(params: dict, inputs: tuple) -> list:
    grid, chi, osc = inputs
    psi0 = gaussian_state(grid.x_grid, 1.0, 0.5, 1.0)
    checks = []
    times = params["times"]
    for name, a in (("oscillator", osc), ("free", _symbol(grid, "free"))):
        reports = compare_representations(a, chi, [float(t) for t in times], psi0)
        for t, report in zip(times, reports):
            checks.append(_check(f"distance[{name}, t={t}]", report["max_distance"]))
            checks.append(_check(f"norm_drift[{name}, t={t}]", report["norm_drift"]))
    return checks


def suite_mixed(params: dict, inputs: tuple) -> list:
    grid, _, osc = inputs
    xg, pg = grid.x_grid, grid.p_grid
    cfg = quantize_config(osc)
    basis = measurement_basis(cfg, 8)
    phi0 = basis[0][1]

    # constructed 2-component example: psi_1 = phi_0, psi_2 orthogonal to it
    psi1 = phi0
    psi2 = basis[3][1]
    chi1 = hermite_state(pg, 0)
    chi2 = hermite_state(pg, 1)
    comps = [(psi1, ConfigState(pg, np.sqrt(0.3) * chi1.values)),
             (psi2, ConfigState(pg, np.sqrt(0.7) * chi2.values))]
    M = MixedState(comps)
    Psi = mixed_to_phase(M)

    p = measure_probability(M, phi0)
    exact_dev = abs(p - 0.3)

    # phase-space route: standard rules on the lifted eigenbasis
    p_phase = 0.0
    for _, chik in M.components:
        w = norm_config(chik)
        unit = ConfigState(pg, chik.values / w)
        Phi_ak = WindowedIsometry(unit).apply(phi0)
        p_phase += abs(inner_phase(Psi, Phi_ak)) ** 2
    route_dev = abs(p_phase - p)

    Upsilon = collapse(M, phi0)
    trans_dev = abs(abs(inner_phase(Psi, Upsilon)) ** 2 - p)

    total = sum(measure_probability(M, st) for _, st in basis)
    total_dev = max(0.0, total - 1.0)

    # expectation consistency through the per-component representation
    AP = np.zeros(grid.shape, complex)
    for (psik, chik), w in zip(M.components, M.weights):
        unit = ConfigState(pg, chik.values / np.sqrt(w))
        AP += WindowedIsometry(unit).represent_apply(cfg, Psi).values
    lhs = inner_phase(Psi, PhaseState(grid, AP))
    rhs = sum(w * inner_config(psik, cfg.apply(psik)).real
              for (psik, _), w in zip(M.components, M.weights))
    expect = abs(lhs - rhs)

    return [
        _check("convex_combination_exact", exact_dev),
        _check("phase_route_equals_formula", route_dev),
        _check("collapse_transition_probability", trans_dev),
        _check("total_probability_bound", total_dev),
        _check("expectation_consistency", expect),
    ]


_SUITES = {
    "isometry": suite_isometry,
    "intertwining": suite_intertwining,
    "unitarity": suite_unitarity,
    "star": suite_star,
    "spectrum": suite_spectrum,
    "dynamics": suite_dynamics,
    "mixed": suite_mixed,
}


def run_verify(suites, params: dict | None = None) -> dict:
    """Run named suites ('all' expands to every suite) and assemble the
    deterministic report.  Every parameter is checked before any suite
    runs, ``suites`` empty included: a ValueError naming the key and its
    value refuses keys outside :data:`PARAM_KEYS`, non-integer (or bool)
    ``n_points`` or ``seed``, whatever :func:`resolve_params` cannot build
    (the grid, window and oscillator every suite shares), a negative
    ``seed``, an empty ``times`` or entries in it that are not finite or
    whose phase e^{-i*lam*t} keeps no digit the dynamics checks read
    (|t| * lam_max * eps >= the distance checks' tolerance 1e-6, with
    lam_max = pi*n_points/2: |t| >= 2.8e6 at n = 1024).  A single
    ``times`` value runs as a one-element list.  Every check's tolerance
    is fixed, in :data:`TOLERANCES`."""
    bad_keys = sorted(set(params or ()) - PARAM_KEYS)
    if bad_keys:
        raise ValueError(f"unknown parameter(s) {bad_keys}; choose from "
                         f"{sorted(PARAM_KEYS)}")
    merged = default_params()
    if params:
        merged.update(params)
    for key in ("n_points", "seed"):
        if isinstance(merged[key], bool) or not isinstance(merged[key], Integral):
            raise ValueError(f"{key} must be an integer, got {merged[key]!r}")
    inputs = resolve_params(merged)  # one oscillator, quantized once per run
    if merged["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {merged['seed']!r}")
    if np.ndim(merged["times"]) == 0:
        merged["times"] = [merged["times"]]
    if len(merged["times"]) == 0:
        raise ValueError("times must hold at least one time, got []")
    # e^{-i*lam*t} is rounded by about lam*|t|*eps; lam_max = half_width**2
    # (pi*n/2 here), the lattice's largest x**2/2 + xi**2/2, bounds the
    # oscillator's top level (1565 against 1608 at n = 1024)
    lam_eps = inputs[0].x_grid.half_width ** 2 * np.finfo(float).eps
    tol_d = TOLERANCES["distance"]
    for t in merged["times"]:
        if isinstance(t, bool) or not isinstance(t, Real) or not np.isfinite(t):
            raise ValueError(f"times entries must be finite numbers, got {t!r}")
        if abs(t) * lam_eps >= tol_d:
            raise ValueError(f"times entries must keep |t| * lam_max * eps below the "
                             f"distance checks' tolerance {tol_d:g}, |t| < "
                             f"{tol_d / lam_eps:.3g} at n_points = {merged['n_points']}, "
                             f"got {t!r}")
    if isinstance(suites, str):
        suites = [suites]
    names = list(SUITE_NAMES) if "all" in suites else list(suites)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from "
                         f"{list(SUITE_NAMES) + ['all']}")
    out = {"seed": int(merged["seed"]),
           "params": {k: merged[k] for k in sorted(merged)},
           "suites": [], "n_checks": 0, "passed": True}
    for name in names:
        try:
            checks = _SUITES[name](merged, inputs)
        except ValueError as exc:
            # a refusal met inside a suite names it and the lattice
            exc.args = (f"{name} suite at n_points = {merged['n_points']}: {exc}",)
            raise
        add_suite(out, name, checks)
    return out


def add_suite(report: dict, name: str, checks: list) -> None:
    """Append one suite's checks to a :func:`run_verify` report and
    update its totals."""
    passed = all(c["passed"] for c in checks)
    report["suites"].append({"suite": name, "checks": checks, "passed": passed})
    report["n_checks"] += len(checks)
    report["passed"] = report["passed"] and passed
