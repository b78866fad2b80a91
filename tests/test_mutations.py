"""Mutation probe: a planted defect and the exact set of report checks
that catch it, at n=256 (README, "Mutation probe").

The defect replaces one public function in every psqm module that binds
it, as the benchmark's tracer rebinds its traced names, and runs the
suites the function reaches.  A check that stops catching it, or one
that starts to, changes the set and fails here."""

import sys

import numpy as np

from psqm import weyl
from psqm.verify import run_verify


def _rebind(monkeypatch, original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "psqm" or name.startswith("psqm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_scaled_operator_is_caught_by_exactly_three_checks(monkeypatch):
    quantize_config = weyl.quantize_config

    def scaled(a):
        # a symbol keeps its operator, so the scaled one is what it stores
        if a._op is None:
            op = quantize_config(a)
            object.__setattr__(a, "_op", weyl.LinOp(op.grid, op.matrix * (1 + 1e-4)))
        return a._op

    _rebind(monkeypatch, quantize_config, scaled)
    report = run_verify(["intertwining", "star", "spectrum", "dynamics", "mixed"],
                        {"n_points": 256})
    failed = {c["name"] for s in report["suites"] for c in s["checks"]
              if not c["passed"]}
    assert failed == {"star_apply_vs_quantize_moyal", "quantize_star_vs_compose",
                      "config_vs_fd_oracle"}
    assert np.isfinite([c["value"] for s in report["suites"] for c in s["checks"]]).all()


def test_swapped_star_factors_are_caught_by_exactly_two_checks(monkeypatch):
    groenewold_mixed = weyl.groenewold_mixed

    def swapped(poly, values, grid, poly_on_left):
        # a * b computed as b * a: the Bopp operators trade sides too
        return groenewold_mixed(poly, values, grid, not poly_on_left)

    _rebind(monkeypatch, groenewold_mixed, swapped)
    report = run_verify(["star"], {"n_points": 256})
    failed = {c["name"] for s in report["suites"] for c in s["checks"]
              if not c["passed"]}
    assert failed == {"star_apply_vs_quantize_moyal", "bopp_canonical_commutators"}
    assert np.isfinite([c["value"] for s in report["suites"] for c in s["checks"]]).all()
