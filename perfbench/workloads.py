"""The benchmark workloads and the checks that gate them.

Each workload has `setup(seed, workdir)`, which builds every input from
the seed, and `run(inputs, checks)`, which does one iteration through
psqm's public API and records every identity it verifies in `checks`.
A check that misses its tolerance or raises is counted as failed; it
never stops the run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import psqm
import psqm.cli
from psqm import reference

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class Checks:
    """Counts attempted and failed checks and keeps the worst
    value/tolerance margin seen per check name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.margins: dict = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, name: str, value: float, tol: float) -> bool:
        value = float(value)
        self.attempted += 1
        margin = value / tol if np.isfinite(value) else float("inf")
        self.margins[name] = max(self.margins.get(name, 0.0), margin)
        ok = bool(value < tol)
        if not ok:
            self.failures.append(f"{name}: {value:.3e} not below {tol:.0e}")
        return ok

    def require(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)

    @contextlib.contextmanager
    def group(self, name: str, n_checks: int):
        """Checks of one unit of work.  If the work raises, every check
        of the group that was not yet recorded is counted as failed."""
        start = self.attempted
        try:
            yield
        except Exception as exc:  # a raising check is a failed check
            missing = max(n_checks - (self.attempted - start), 1)
            self.attempted += missing
            self.failures += [f"{name}: raised {type(exc).__name__}: {exc}"] * missing


# ------------------------------------------------------------- verify-256

# Acceptance tolerance of every `verify` check, keyed by suite and check
# name up to its "[...]" label, with the number of checks per suite.  A
# report whose tolerance differs from this table fails, so a loosened
# tolerance cannot pass the benchmark.
VERIFY_TOLERANCES = {
    "isometry": {"inner_product_preserved": 1e-10, "projector_idempotent": 1e-10,
                 "projector_self_adjoint": 1e-10},
    "intertwining": {"forward": 1e-8, "adjoint": 1e-8},
    "unitarity": {"norm_preserved": 1e-8, "lift_vs_wigner_quadrature": 1e-7,
                  "lift_vs_cross_wigner": 1e-7, "closed_form_vs_composition": 1e-7},
    "star": {"star_apply_vs_quantize_moyal": 1e-6, "bopp_canonical_commutators": 1e-8,
             "bopp_vanishing_commutators": 1e-8, "stargen_oscillator_ground": 1e-6,
             "quantize_star_vs_compose": 1e-6},
    "spectrum": {"ladders_pairwise": 1e-6, "config_vs_fd_oracle": 1e-5},
    "dynamics": {"distance": 1e-6, "norm_drift": 1e-8},
    "mixed": {"convex_combination_exact": 1e-10, "phase_route_equals_formula": 1e-10,
              "collapse_transition_probability": 1e-10, "total_probability_bound": 1e-8,
              "expectation_consistency": 1e-8},
}
VERIFY_CHECK_COUNTS = {"isometry": 3, "intertwining": 8, "unitarity": 4, "star": 5,
                       "spectrum": 2, "dynamics": 12, "mixed": 5}


@dataclass
class VerifyInputs:
    suite: str
    config: Path
    report: Path
    first_report: bytes | None = None
    reports: list = field(default_factory=list)


def verify_setup(seed: int, workdir: Path, suite: str = "all",
                 n_points: int = 256) -> VerifyInputs:
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "verify.cfg"
    config.write_text(f"n_points = {n_points}\nseed = {seed}\n")
    return VerifyInputs(suite, config, workdir / "report.json")


def verify_run(inp: VerifyInputs, checks: Checks) -> None:
    """One `psqm verify` through the CLI entry point, in-process.  Passes
    when the CLI exits 0, every report check is below its acceptance
    tolerance, and the report bytes equal those of the first iteration."""
    suites = list(VERIFY_TOLERANCES) if inp.suite == "all" else [inp.suite]
    n_report = sum(VERIFY_CHECK_COUNTS[s] for s in suites)
    repeat = inp.first_report is not None
    stderr = io.StringIO()
    with checks.group(f"verify {inp.suite}", 2 + n_report + repeat):
        if inp.report.exists():
            inp.report.unlink()
        with contextlib.redirect_stderr(stderr):
            code = psqm.cli.main(["verify", inp.suite, "--config", str(inp.config),
                                  "--out", str(inp.report)])
        checks.require("cli.exit_code", code == 0,
                       f"exit {code} {stderr.getvalue().strip()}")
        data = inp.report.read_bytes()
        report = json.loads(data)
        checks.require("report.check_count", report["n_checks"] == n_report,
                       f"{report['n_checks']} checks, expected {n_report}")
        for entry in report["suites"]:
            table = VERIFY_TOLERANCES[entry["suite"]]
            for c in entry["checks"]:
                key = c["name"].split("[", 1)[0]
                name = f"{entry['suite']}.{c['name']}"
                if table.get(key) != c["tolerance"]:
                    checks.require(name, False, f"tolerance {c['tolerance']:.0e} is "
                                   f"not the acceptance tolerance {table.get(key)}")
                    continue
                checks.record(name, c["value"], table[key])
        if repeat:
            checks.require("report.bytes_identical", data == inp.first_report,
                           "report differs from the first iteration's")
        else:
            inp.first_report = data
        inp.reports.append(report)


# --------------------------------------------------------------- grid-1024

@dataclass
class GridInputs:
    oscillator: object
    damped: object
    window: object       # h_0 on the p axis, for compare_representations
    lift_window: object  # forward_ft(h_0): moyal_map of its lift is a cross-Wigner function
    h0: object
    h2: object
    psi0: object


def grid_setup(seed: int, workdir: Path, n_points: int = 1024) -> GridInputs:
    rng = np.random.default_rng(seed)
    grid = psqm.self_dual_phase_grid(n_points)
    X, XI = grid.meshes()
    # a Gaussian-damped random quadratic, sampled (no evaluator): it
    # quantizes through band-limited midpoint interpolation
    c = rng.uniform(-1.0, 1.0, 6)
    x0, p0 = rng.uniform(-1.0, 1.0, 2)
    poly = c[0] + c[1] * X + c[2] * XI + c[3] * X * XI + c[4] * X ** 2 + 1j * c[5] * XI ** 2
    damped = psqm.Symbol.from_samples(grid, poly * np.exp(-((X - x0) ** 2 + (XI - p0) ** 2) / 8.0))
    xg = grid.x_grid
    h0 = psqm.hermite_state(xg, 0)
    return GridInputs(oscillator=psqm.Symbol.oscillator(grid), damped=damped,
                      window=psqm.hermite_state(grid.p_grid, 0),
                      lift_window=psqm.forward_ft(h0), h0=h0,
                      h2=psqm.hermite_state(xg, 2),
                      psi0=psqm.gaussian_state(xg, 1.0, 0.5, 1.0))


def grid_run(inp: GridInputs, checks: Checks) -> None:
    """One library session at n=1024: eigen-ladder against the
    finite-difference oracle, symbol/kernel round trip, three-picture
    dynamics, lift against cross-Wigner and the stargenvalue residual."""
    with checks.group("oscillator ladder", 1):
        levels, _ = psqm.eig(psqm.quantize_config(inp.oscillator))
        fd = reference.fd_oscillator_levels(8)
        checks.record("eig_vs_fd_oracle[8 levels]", np.abs(levels[:8] - fd).max(), 1e-5)
    with checks.group("symbol/kernel round trip", 1):
        back = psqm.kernel_to_symbol(psqm.symbol_to_kernel(inp.damped))
        checks.record("symbol_kernel_roundtrip", np.abs(back.values - inp.damped.values).max(), 1e-8)
    with checks.group("three pictures", 2):
        rep = psqm.compare_representations(inp.oscillator, inp.window, 0.5, inp.psi0)
        checks.record("three_picture_distance[t=0.5]", rep["max_distance"], 1e-6)
        checks.record("three_picture_norm_drift[t=0.5]", rep["norm_drift"], 1e-8)
    with checks.group("lift vs cross-Wigner", 2):
        theta = psqm.moyal_map(psqm.WindowedIsometry(inp.lift_window).apply(inp.h2))
        wigner = psqm.cross_wigner(inp.h2, inp.h0)
        checks.record("lift_vs_cross_wigner[h_2, h_0]",
                      np.abs(theta.values - SQRT_2PI * wigner.values).max(), 1e-7)
        checks.record("stargen_residual[h_2, E=2.5]",
                      psqm.stargen_residual(inp.oscillator, 2.5, theta), 1e-6)


WORKLOADS = {
    "verify-256": (verify_setup, verify_run),
    "grid-1024": (grid_setup, grid_run),
}


def worst_margins(report: dict) -> dict:
    """Worst value/tolerance per verify suite of one report."""
    return {s["suite"]: max(c["value"] / c["tolerance"] for c in s["checks"])
            for s in report["suites"]}
