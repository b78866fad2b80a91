"""Command-line front end.

Subcommands:
  verify SUITE [--config PATH] [--out PATH]   run an invariant suite
  wigner PSI_CSV CHI_CSV OUT_BASE             cross-Wigner CSV + gnuplot
  spectrum [--config PATH] [--out PATH]       three-representation spectra
  evolve --config PATH [--out PATH]           three-representation dynamics

Config files are flat ``key = value`` lines (# comments); recognized
keys: those of ``verify.PARAM_KEYS`` (n_points, seed, window and times)
and t, plus symbol for ``spectrum`` only; any other key (a tolerance
too: each check's is fixed in ``verify.TOLERANCES``), a key given twice
and t with times are refused.  Exit codes: 0 pass, 1 check failure, 2 usage
or config error, 3 internal error (any other exception, reported on
stderr by type and message), 4 numerical refusal (``BandLimitError``).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .fourier import BandLimitError
from .moyal import cross_wigner
from .spectral import spectrum_report
from .verify import (SUITE_NAMES, PARAM_KEYS, add_suite, default_params,
                     resolve_params, run_verify, spectrum_checks)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_REFUSED = 4


class ConfigError(ValueError):
    pass


CONFIG_KEYS = PARAM_KEYS | {"t"}
# the verify suites fix their symbols; only the spectrum detail reads one
SPECTRUM_KEYS = CONFIG_KEYS | {"symbol"}


def parse_config(path, keys=CONFIG_KEYS) -> dict:
    """Flat key = value file; ints, floats, comma lists and strings
    (``window`` is always kept as a string).  Keys outside ``keys`` are
    refused, and so is a key given twice."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                  f"choose from {sorted(keys)}")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
            out[key] = val.strip("'\"") if key == "window" else _parse_value(val)
    return out


def _parse_value(text: str):
    if "," in text:
        return [_parse_value(t.strip()) for t in text.split(",")]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip("'\"")


def _load_params(args, keys=CONFIG_KEYS) -> dict:
    params = {}
    if getattr(args, "config", None):
        params.update(parse_config(args.config, keys))
    if "t" in params:
        if "times" in params:
            raise ConfigError(f"{args.config}: give 't' or 'times', not both")
        params["times"] = params.pop("t")
    return params


def _emit(report: dict, out_path) -> None:
    text = serialize.report_json(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_verify(args) -> int:
    params = _load_params(args)
    report = run_verify(args.suite, params)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_wigner(args) -> int:
    psi = serialize.load_config_csv(args.psi)
    chi = serialize.load_config_csv(args.chi)
    W = cross_wigner(psi, chi)
    serialize.save_phase_csv(W, args.out + ".csv")
    serialize.save_gnuplot_matrix(W, args.out + ".gp")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = dict(default_params())
    params.update(_load_params(args, SPECTRUM_KEYS))
    name = str(params.pop("symbol", "oscillator"))
    report = run_verify([], params)  # checks every value; runs no suite
    _, chi, a = resolve_params(params, name)  # refuses an unknown symbol
    detail = spectrum_report(a, chi)
    # the spectrum suite's checks read the oscillator's report: the
    # detail itself when the oscillator is the named symbol
    if name == "oscillator":
        osc_report = detail
    else:
        osc_report = spectrum_report(resolve_params(params)[2], chi)
    add_suite(report, "spectrum", spectrum_checks(report["params"], osc_report))
    report["spectrum"] = {"symbol": name, **detail}
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_evolve(args) -> int:
    params = _load_params(args)
    if "times" not in params:
        raise ConfigError("evolve requires 't' in the config file")
    report = run_verify(["dynamics"], params)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psqm",
        description="Phase-space quantum mechanics: verification and export tools.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an invariant verification suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wigner", help="cross-Wigner transform of two CSV states")
    p.add_argument("psi")
    p.add_argument("chi")
    p.add_argument("out", help="output base path (writes .csv and .gp)")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("spectrum", help="three-representation spectrum report")
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="three-representation dynamics report")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evolve)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BandLimitError as exc:  # a ValueError, but not the user's input
        sys.stderr.write(f"psqm: refused: BandLimitError: {exc}\n")
        return EXIT_REFUSED
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"psqm: error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        sys.stderr.write(f"psqm: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
