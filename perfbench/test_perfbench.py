"""Tests of the benchmark itself:  python3 -m pytest perfbench

The failure-counting tests use two real failures of psqm off its
calibrated 256-point lattice: the Moyal-map composition check at n=128
and the star-product aliasing guard at n=64.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import psqm  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _verify_once(tmp_path, suite, n_points):
    checks = workloads.Checks()
    inp = workloads.verify_setup(1234, tmp_path, suite=suite, n_points=n_points)
    workloads.verify_run(inp, checks)
    return checks


def test_unitarity_at_n128_counts_the_missed_tolerance(tmp_path):
    checks = _verify_once(tmp_path, "unitarity", 128)
    # exit code, check count and the 4 suite checks
    assert checks.attempted == 6
    assert checks.failed == 2
    assert any(f.startswith("cli.exit_code: exit 1") for f in checks.failures)
    assert any(f.startswith("unitarity.closed_form_vs_composition") for f in checks.failures)


def test_star_at_n64_counts_the_raised_guard(tmp_path):
    checks = _verify_once(tmp_path, "star", 64)
    # the CLI refuses with exit 2 and writes no report: every check of the
    # suite counts as failed, and the run goes on
    assert checks.attempted == 7
    assert checks.failed == 7
    assert "band-limited" in checks.failures[0]


def test_grid_passes_and_traced_counts_repeat(tmp_path):
    # the grid session on the 256-point lattice: same code path as n=1024
    inp = workloads.grid_setup(7, tmp_path, n_points=256)
    original = psqm.moyal_map
    checks = workloads.Checks()
    t = tracer.Tracer()
    summaries = []
    for _ in range(2):
        t.reset()
        t.install()
        try:
            workloads.grid_run(inp, checks)
        finally:
            t.uninstall()
        summaries.append(t.summary())
    assert checks.attempted == 12 and checks.failed == 0, checks.failures
    assert psqm.moyal_map is original and psqm.verify.moyal_map is original
    calls = [{k: v["calls"] for k, v in s.items()} for s in summaries]
    assert calls[0] == calls[1]
    assert calls[0]["weyl.kernel_to_symbol"] == 1
    assert calls[0]["spectral.eigh"] == 4
    assert "weyl.star_values.sampled" not in calls[0]
    for row in summaries[0].values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0],
               ["b", 0, 5.0, 6.0]]
    s = t.summary()
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert s["c"]["self_s"] == 1.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == tracer.layer_metrics())
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
