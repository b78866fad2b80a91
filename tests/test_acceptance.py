"""Acceptance gate: every equivalence identity at the 256-point
self-dual phase lattice, at its stated tolerance.

Criteria:
  1. isometry suite            (lift inner products, projector)   < 1e-10
  2. intertwining suite        (x, xi, symmetrized x*xi, oscillator) < 1e-8
  3. spectrum suite            (three ladders pairwise < 1e-6;
                                finite-difference oracle < 1e-5)
  4. Moyal map suite           (unitarity < 1e-8; Wigner quadrature
                                < 1e-7; closed form vs composition < 1e-7)
  5. star suite                (action vs operator < 1e-6; Bopp
                                commutators < 1e-8; stargenfunction
                                < 1e-6; composition < 1e-6)
  6. dynamics suite            (three-representation distances < 1e-6
                                at t in {0.1, 0.5, 1.0}; norm < 1e-8)
  7. mixed suite               (probability identities < 1e-10)
  8. determinism               (two `verify all` runs, same seed,
                                byte-identical reports)

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import pytest

from psqm import run_verify, default_params
from psqm.serialize import report_json


@pytest.fixture(scope="module")
def reports():
    params = default_params()
    first = run_verify(["all"], params)
    second = run_verify(["all"], params)
    return first, second


def _suite(report, name):
    for s in report["suites"]:
        if s["suite"] == name:
            return s
    raise KeyError(name)


def _announce(num, label, suite):
    worst = max((c["value"] / c["tolerance"]) for c in suite["checks"])
    status = "PASS" if suite["passed"] else "FAIL"
    print(f"criterion {num} [{label:12s}]: {status} "
          f"({len(suite['checks'])} checks, worst value/tol = {worst:.2e})")
    return suite["passed"]


def test_criterion_1_isometry(reports):
    s = _suite(reports[0], "isometry")
    assert _announce(1, "isometry", s)


def test_criterion_2_intertwining(reports):
    s = _suite(reports[0], "intertwining")
    assert _announce(2, "intertwining", s)
    names = {c["name"] for c in s["checks"]}
    for sym in ("x", "xi", "xxi", "oscillator"):
        assert f"forward[{sym}]" in names and f"adjoint[{sym}]" in names


def test_criterion_3_spectrum(reports):
    s = _suite(reports[0], "spectrum")
    assert _announce(3, "spectrum", s)
    tol = {c["name"]: c["tolerance"] for c in s["checks"]}
    assert tol["ladders_pairwise[8 levels]"] == 1e-6
    assert tol["config_vs_fd_oracle"] == 1e-5


def test_criterion_4_moyal_map(reports):
    s = _suite(reports[0], "unitarity")
    assert _announce(4, "moyal map", s)
    tol = {c["name"]: c["tolerance"] for c in s["checks"]}
    assert tol["norm_preserved[50 states]"] == 1e-8
    assert tol["lift_vs_wigner_quadrature[10 pairs]"] == 1e-7
    assert tol["closed_form_vs_composition"] == 1e-7


def test_criterion_5_star(reports):
    s = _suite(reports[0], "star")
    assert _announce(5, "star", s)
    tol = {c["name"]: c["tolerance"] for c in s["checks"]}
    assert tol["star_apply_vs_quantize_moyal"] == 1e-6
    assert tol["bopp_canonical_commutators"] == 1e-8
    assert tol["stargen_oscillator_ground"] == 1e-6
    assert tol["quantize_star_vs_compose"] == 1e-6


def test_criterion_6_dynamics(reports):
    s = _suite(reports[0], "dynamics")
    assert _announce(6, "dynamics", s)
    names = {c["name"] for c in s["checks"]}
    for sym in ("oscillator", "free"):
        for t in (0.1, 0.5, 1.0):
            assert f"distance[{sym}, t={t}]" in names


def test_criterion_7_mixed(reports):
    s = _suite(reports[0], "mixed")
    assert _announce(7, "mixed", s)
    tol = {c["name"]: c["tolerance"] for c in s["checks"]}
    assert tol["convex_combination_exact"] == 1e-10
    assert tol["collapse_transition_probability"] == 1e-10


def test_criterion_8_determinism(reports):
    first, second = reports
    same = report_json(first) == report_json(second)
    status = "PASS" if same else "FAIL"
    print(f"criterion 8 [determinism ]: {status} "
          f"(verify all, seed {first['seed']}, byte-identical reports)")
    assert same
