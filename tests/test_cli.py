import json
import subprocess
import sys

import numpy as np
import pytest

from psqm import hermite_state, self_dual_phase_grid, serialize, spectrum_report
from psqm.cli import main, parse_config, ConfigError
from psqm import cli, grids, verify
from psqm.verify import run_verify


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "psqm.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_config_parser(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nseed = 7\nwindow = hermite:1\n"
                   "times = 0.1, 0.5\n# comment\n")
    params = parse_config(cfg)
    assert params["n_points"] == 64
    assert params["seed"] == 7
    assert params["window"] == "hermite:1"
    assert params["times"] == [0.1, 0.5]
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_verify_unknown_suite_usage_error():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2


def test_verify_isometry_small(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nseed = 11\n")
    out = tmp_path / "rep.json"
    proc = run_cli("verify", "isometry", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["seed"] == 11
    assert rep["suites"][0]["suite"] == "isometry"


def test_verify_determinism(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nseed = 3\n")
    outs = []
    for k in range(2):
        out = tmp_path / f"rep{k}.json"
        proc = run_cli("verify", "isometry", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_wigner_command(tmp_path):
    pg = self_dual_phase_grid(64)
    psi = hermite_state(pg.x_grid, 0)
    chi = hermite_state(pg.x_grid, 0)
    p1, p2 = tmp_path / "psi.csv", tmp_path / "chi.csv"
    serialize.save_config_csv(psi, p1)
    serialize.save_config_csv(chi, p2)
    base = tmp_path / "wig"
    proc = run_cli("wigner", str(p1), str(p2), str(base))
    assert proc.returncode == 0
    W = serialize.load_phase_csv(str(base) + ".csv")
    peak = W.values.real.max()
    assert abs(peak - 1 / np.pi) < 1e-6
    assert (tmp_path / "wig.gp").exists()


def test_wigner_missing_file(tmp_path):
    proc = run_cli("wigner", str(tmp_path / "nope.csv"),
                   str(tmp_path / "nope2.csv"), str(tmp_path / "o"))
    assert proc.returncode == 2


def test_evolve_command_is_gone(tmp_path, capsys):
    # three-representation dynamics is verify dynamics
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\ntimes = 0.25\n")
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "invalid choice: 'evolve'" in capsys.readouterr().err


def test_t_key_refused_naming_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nt = 0.25\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:2: unknown key 't'" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_command(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\n")
    out = tmp_path / "rep.json"
    proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0
    rep = json.loads(out.read_text())
    ladder = np.asarray(rep["spectrum"]["config"])
    assert np.abs(ladder - (np.arange(len(ladder)) + 0.5)).max() < 1e-5


def test_spectrum_command_decomposes_the_oscillator_once(tmp_path, monkeypatch):
    # the spectrum suite and the detail share one oscillator; the other
    # eigh is of the finite-difference oracle's Rayleigh-Ritz matrix
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 128\n")
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(shapes) == [(16, 16), (128, 128)]
    assert json.loads(out.read_text())["spectrum"]["symbol"] == "oscillator"


@pytest.mark.parametrize("symbol", ["oscillator", "x"])
def test_spectrum_command_reports_on_each_symbol_once(tmp_path, monkeypatch, symbol):
    # the spectrum suite's checks read the detail's report when it is the
    # oscillator's; the bytes equal those of the suite run by run_verify
    # followed by a separate detail report
    params = {**verify.default_params(), "n_points": 64}
    want = run_verify(["spectrum"], params)
    _, chi, a = verify.resolve_params(params, symbol)
    want["spectrum"] = {"symbol": symbol, **spectrum_report(a, chi)}
    reported = []

    def counting(a, chi):
        reported.append(a)
        return spectrum_report(a, chi)

    monkeypatch.setattr(verify, "spectrum_report", counting)
    monkeypatch.setattr(cli, "spectrum_report", counting)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_points = 64\nsymbol = {symbol}\n")
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(reported) == (1 if symbol == "oscillator" else 2)
    assert out.read_text() == serialize.report_json(want) + "\n"


def test_main_entry_returns_int(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\n")
    code = main(["verify", "isometry", "--config", str(cfg)])
    assert code == 0


def test_verify_failure_exit_code(tmp_path):
    # the 128 lattice lacks the boundary margin of the U-composition
    # check (dilation by sqrt 2): a real check failure, exit 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 128\n")
    out = tmp_path / "rep.json"
    proc = run_cli("verify", "unitarity", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1
    checks = json.loads(out.read_text())["suites"][0]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["closed_form_vs_composition"]


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a crash is not a failed check: exit 3 with the exception on stderr
    def boom(params, inputs):
        raise RuntimeError("suite exploded")

    monkeypatch.setitem(verify._SUITES, "isometry", boom)
    code = main(["verify", "isometry", "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert capsys.readouterr().err == "psqm: internal error: RuntimeError: suite exploded\n"


def test_config_gaussian_window_reaches_the_suite(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nwindow = gaussian:0.8,-0.4,1.0\n")
    assert parse_config(cfg)["window"] == "gaussian:0.8,-0.4,1.0"
    out = tmp_path / "rep.json"
    assert main(["verify", "isometry", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["window"] == "gaussian:0.8,-0.4,1.0"


# a check's tolerance is fixed: tol_isometry is refused like any other key
@pytest.mark.parametrize("line", ["tol_isometri = 1e-30", "half_width = 10",
                                  "tol_isometry = 1e-9"])
def test_config_unknown_key_refused(tmp_path, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_points = 64\n{line}\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "isometry", "--config", str(cfg), "--out", str(out)]) == 2
    key = line.split("=")[0].strip()
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def _wigner_with_psi_csv(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, rows, delimiter=",", header="x,re,im")
    good = tmp_path / "good.csv"
    serialize.save_config_csv(hermite_state(self_dual_phase_grid(64).x_grid, 0), good)
    code = main(["wigner", str(bad), str(good), str(tmp_path / "o")])
    return code, capsys.readouterr().err


def test_wigner_refuses_one_row_csv(tmp_path, capsys):
    code, err = _wigner_with_psi_csv(tmp_path, capsys, [[0.0, 1.0, 0.0]])
    assert code == 2 and "bad.csv" in err


def test_wigner_refuses_non_power_of_two_csv(tmp_path, capsys):
    x = 0.1 * np.arange(100)
    rows = np.column_stack([x, np.exp(-(x - 5) ** 2), 0 * x])
    code, err = _wigner_with_psi_csv(tmp_path, capsys, rows)
    assert code == 2 and "bad.csv" in err and "power of two" in err


def test_wigner_refuses_a_csv_above_the_index_bound_at_load(tmp_path, capsys, monkeypatch):
    # 65536 rows would make cross_wigner allocate a 64 GiB field: the grid
    # the loader builds refuses the lattice first, a config error (exit 2)
    def refuse(*args):
        raise AssertionError("cross_wigner ran on a lattice above the index bound")

    monkeypatch.setattr(cli, "cross_wigner", refuse)
    x = 0.01 * np.arange(2 * grids.MAX_INDEX_POINTS)
    rows = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    code, err = _wigner_with_psi_csv(tmp_path, capsys, rows)
    assert code == 2 and "bad.csv" in err
    assert f"n_points must be at most {grids.MAX_INDEX_POINTS}" in err
    with pytest.raises(ValueError, match="n_points must be at most"):
        serialize.load_config_csv(tmp_path / "bad.csv")


def test_wigner_refuses_a_csv_of_the_wrong_column_count(tmp_path, capsys):
    # two columns once failed as an internal IndexError (exit 3)
    x = self_dual_phase_grid(64).x_grid.points
    code, err = _wigner_with_psi_csv(tmp_path, capsys, np.column_stack([x, 0 * x]))
    assert code == 2 and "bad.csv" in err and "expected the columns x,re,im" in err
    # a config file (three columns) read as a phase-space one
    with pytest.raises(ValueError, match="good.csv: expected the columns x,p,re,im"):
        serialize.load_phase_csv(tmp_path / "good.csv")


def test_wigner_refuses_a_non_finite_csv(tmp_path, capsys):
    # one NaN sample once gave exit 0 and a field of NaN rows
    x = grids.Grid1D(8, 4.0).points
    rows = np.column_stack([x, np.exp(-x ** 2 / 2), 0 * x])
    rows[3, 1] = np.nan
    code, err = _wigner_with_psi_csv(tmp_path, capsys, rows)
    assert code == 2 and "bad.csv" in err and "finite" in err


def test_wigner_refuses_nonuniform_csv(tmp_path, capsys):
    g = self_dual_phase_grid(64).x_grid
    x = g.points.copy()
    x[10] += 0.3 * g.spacing
    rows = np.column_stack([x, np.exp(-x ** 2 / 2), 0 * x])
    code, err = _wigner_with_psi_csv(tmp_path, capsys, rows)
    assert code == 2 and "bad.csv" in err and "uniform" in err


@pytest.mark.parametrize("command", [["verify", "spectrum"], ["verify", "dynamics"]])
def test_symbol_key_refused_where_no_suite_reads_it(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\ntimes = 0.1\nsymbol = x\n")
    assert main([*command, "--config", str(cfg)]) == 2
    assert "'symbol'" in capsys.readouterr().err


def test_spectrum_command_reads_symbol(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nsymbol = x\n")
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "symbol" not in rep["params"]
    detail = rep["spectrum"]
    assert detail["symbol"] == "x" and not detail["discrete"]
    assert sorted(detail) == ["config_quantiles", "discrete", "n_levels", "symbol"]


def test_run_verify_refuses_unknown_parameter_keys():
    with pytest.raises(ValueError, match="tol_isometri") as err:
        run_verify(["isometry"], {"n_points": 64, "symbol": "x",
                                  "tol_isometri": 1e-30, "tol_ucomp": 1e-5})
    assert "'symbol'" in str(err.value) and "'tol_ucomp'" in str(err.value)


def test_run_verify_refuses_empty_times():
    # no time would run no dynamics check, and the report would pass
    with pytest.raises(ValueError, match="times"):
        run_verify(["dynamics"], {"n_points": 64, "times": []})


@pytest.mark.parametrize("t", ["1e308", "1e17"])
def test_times_past_the_phase_bound_refused_before_any_suite(tmp_path, capsys, t):
    # e^{-i*lam*t} keeps no correct digit there: refused with exit 2 and no
    # report (1e308 once overflowed in propagate and wrote NaN into it)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"times = 0.1, {t}\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "dynamics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "times entries must keep |t| * lam_max * eps below the distance " \
        "checks' tolerance 1e-06" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("n", [2 ** 1100, 2 * grids.MAX_INDEX_POINTS])
def test_huge_n_points_refused_before_any_lattice(tmp_path, capsys, command, n):
    # 2**1100 once overflowed the times bound's pi * n_points (exit 3);
    # both are refused with exit 2 and no report, by the grid when it is made
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_points = {n}\n")
    out = tmp_path / "rep.json"
    args = [command] + (["dynamics"] if command == "verify" else [])
    assert main(args + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"n_points must be at most {grids.MAX_INDEX_POINTS}" in err and str(n) in err
    assert not out.exists()
    assert run_verify([], {"n_points": 1024})["passed"]


def test_times_bound_is_tol_dynamics_over_lam_max_eps():
    # lam_max = pi*n/2 = 1608 at n = 1024: |t| < 1e-6 / (1608 * 2.2e-16) = 2.8e6
    for n in (256, 1024):
        report = run_verify([], {"n_points": n, "times": [0.1, 0.5, 1.0]})
        assert report["params"]["times"] == [0.1, 0.5, 1.0]
    run_verify([], {"n_points": 1024, "times": [-2.7e6]})
    with pytest.raises(ValueError, match=r"\|t\| < 2.8e\+06 at n_points = 1024, got -2900000"):
        run_verify([], {"n_points": 1024, "times": [-2.9e6]})


def test_band_limit_refusal_has_its_own_exit_code(tmp_path, capsys):
    # the sampled star-product guard refuses the n=64 corpus: a numerical
    # refusal (exit 4), not a usage error (2)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\n")
    code = main(["verify", "star", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_REFUSED == 4
    err = capsys.readouterr().err
    assert err.startswith("psqm: refused: BandLimitError: ")
    assert "not band-limited enough" in err
    assert not (tmp_path / "r.json").exists()


def test_star_refusal_at_64_names_the_interpolation_guard_and_its_value(tmp_path, capsys):
    # the blocked kernel gathers and band-edge scans leave the refusal as it was
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\n")
    code = main(["verify", "star", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")])
    assert code == 4
    assert capsys.readouterr().err == (
        "psqm: refused: BandLimitError: star suite at n_points = 64: sampled symbol "
        "(midpoint interpolation) is not band-limited enough: relative band-edge "
        "amplitude 6.49e-05 exceeds 1e-05\n")


def test_run_verify_refuses_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_verify(["nonsense"], {"n_points": 64})


def test_scalar_times_runs_as_one_time(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\ntimes = 0.5\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "dynamics", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    names = [c["name"] for c in rep["suites"][0]["checks"]]
    assert len(names) == 4 and all(n.endswith(", t=0.5]") for n in names)
    assert rep["params"]["times"] == [0.5]


@pytest.mark.parametrize("line, message", [
    ("seed = 1.5", "seed must be an integer, got 1.5"),
    ("n_points = sixty", "n_points must be an integer, got 'sixty'"),
    ("n_points = 64.5", "n_points must be an integer, got 64.5"),
    ("n_points = 64.0", "n_points must be an integer, got 64.0"),
])
def test_non_integer_seed_and_n_points_refused(tmp_path, capsys, line, message):
    cfg = tmp_path / "c.cfg"
    # each key once: a key given twice is refused before its value is read
    cfg.write_text(f"{line}\n" if line.startswith("n_points") else f"n_points = 64\n{line}\n")
    assert main(["verify", "isometry", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match=message.split(",")[0]):
        run_verify(["isometry"], parse_config(cfg))


@pytest.mark.parametrize("suite", ["mixed", "isometry"])
def test_negative_seed_refused_before_any_suite(tmp_path, capsys, suite):
    # the mixed suite draws no random state and isometry fails inside
    # numpy's generator: both must be refused up front, naming the key
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nseed = -3\n")
    out = tmp_path / "rep.json"
    assert main(["verify", suite, "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_verify([suite], parse_config(cfg))


@pytest.mark.parametrize("line, message", [
    ("times = abc", "times entries must be finite numbers, got 'abc'"),
    ("times = 0.1, nan", "times entries must be finite numbers, got nan"),
    ("window = gaussian:1,2", "window must be 'hermite:K'"),
    ("window = gaussian:1,2,0", "got 'gaussian:1,2,0'"),
    ("window = hermite:13", "got 'hermite:13'"),
    ("window = hermite:abc", "got 'hermite:abc'"),
    ("window = lorentz:1", "got 'lorentz:1'"),
])
def test_bad_parameter_values_refused_before_any_suite(tmp_path, capsys,
                                                      line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_points = 64\n{line}\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "isometry", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match=line.split(" = ")[0]):
        run_verify(["isometry"], parse_config(cfg))


def test_spectrum_refuses_unknown_symbol_before_any_suite(tmp_path, capsys,
                                                         monkeypatch):
    def refuse(*args):
        raise AssertionError("a spectrum ran before the symbol was checked")

    monkeypatch.setattr(verify, "spectrum_report", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nsymbol = bogus\n")
    out = tmp_path / "rep.json"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert "symbol 'bogus'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="symbol 'bogus'"):
        verify.resolve_params(verify.default_params(), "bogus")


def test_run_verify_takes_times_only():
    with pytest.raises(ValueError, match="unknown parameter.*'t'"):
        run_verify(["dynamics"], {"n_points": 64, "t": 0.5, "times": [0.1, 1.0]})


def test_duplicate_key_refused(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_points = 64\nseed = 3\n# later\nseed = 4\n")
    out = tmp_path / "rep.json"
    assert main(["verify", "mixed", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:4: key 'seed' given twice" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=":4: key 'seed' given twice"):
        parse_config(cfg)


@pytest.mark.parametrize("key", ["seed", "n_points"])
def test_bool_seed_and_n_points_refused(tmp_path, capsys, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer, got True"):
        run_verify(["mixed"], {key: True})
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = True\n")
    assert main(["verify", "mixed", "--config", str(cfg)]) == 2
    assert f"{key} must be an integer, got 'True'" in capsys.readouterr().err


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("command", [["verify", "spectrum"], ["spectrum"]])
def test_spectrum_refuses_a_lattice_too_coarse_for_the_oscillator(tmp_path, capsys,
                                                                  command, n):
    # the oscillator's gaps fall below 3 spacings: no ladder to check
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_points = {n}\n")
    out = tmp_path / "rep.json"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psqm: error: ") and f"n_points = {n}" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, message", [
    ("n_points = 0", "n_points must be a power of two >= 8, got 0"),
    ("n_points = -8", "n_points must be a power of two >= 8, got -8"),
    ("window = gaussian:0,0,1e200", "got 'gaussian:0,0,1e200'"),
    ("window = gaussian:1e200,0,1", "got 'gaussian:1e200,0,1'"),
    ("window = gaussian:0,0,1e-200", "got 'gaussian:0,0,1e-200'"),
])
@pytest.mark.parametrize("command", [["verify", "all"], ["spectrum"]])
def test_out_of_range_values_refused_before_computing(tmp_path, capsys, command,
                                                      line, message):
    # a warning raised here (filterwarnings) would exit 3, not 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n")
    assert main([*command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert message in err and line.split(" = ")[0] in err


@pytest.mark.parametrize("text, named", [
    ("n_points = 8\n", "window 'hermite:0' sampled on the p axis of n_points = 8"),
    ("n_points = 64\nwindow = gaussian:30,0,1\n",
     "window 'gaussian:30,0,1' sampled on the p axis of n_points = 64"),
    # the configured window fits; one of the suite's own fixtures does not
    ("n_points = 16\n", "unitarity suite at n_points = 16: window must have unit norm"),
])
def test_window_refusal_names_window_and_n_points(tmp_path, capsys, text, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("suites", [[], ["mixed"], "all"])
@pytest.mark.parametrize("params, message", [
    ({"n_points": 2 * grids.MAX_INDEX_POINTS}, "n_points must be at most"),
    ({"n_points": 96}, "n_points must be a power of two >= 8, got 96"),
    ({"window": "hermite:13"}, "got 'hermite:13'"),
    ({"window": "gaussian:0,0,0"}, "got 'gaussian:0,0,0'"),
    ({"n_points": 8}, "window 'hermite:0' sampled on the p axis of n_points = 8"),
    ({"window": "gaussian:0,nan,1"}, "'gaussian:x0,p0,w'.*got 'gaussian:0,nan,1'"),
    ({"n_points": 64.5}, "n_points must be an integer, got 64.5"),
    ({"n_points": 64.0}, "n_points must be an integer, got 64.0"),
    ({"n_points": True}, "n_points must be an integer, got True"),
])
def test_run_verify_builds_its_inputs_before_any_suite(monkeypatch, suites, params, message):
    # the grid, the window and the isometry refuse what they cannot
    # build, also for run_verify([], ...), which psqm spectrum runs to
    # check its parameters
    def refuse(*args):
        raise AssertionError("a suite ran before its inputs were built")

    monkeypatch.setattr(verify, "_SUITES", dict.fromkeys(verify.SUITE_NAMES, refuse))
    with pytest.raises(ValueError, match=message):
        run_verify(suites, params)
