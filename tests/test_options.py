"""Options ratchet: the CLI's subcommands and the config keys it and the
library accept.  Each of these sets may only shrink: an option that
leaves is struck from it here, and a new one is not added (one job, one
path; three-representation dynamics, for one, is ``verify dynamics``)."""

import argparse

from psqm import cli, verify

SUBCOMMANDS = {"verify", "wigner", "spectrum"}
CONFIG_KEYS = {"n_points", "seed", "window", "times"}


def test_cli_subcommands_are_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == SUBCOMMANDS


def test_config_keys_are_pinned():
    assert cli.CONFIG_KEYS == verify.PARAM_KEYS == CONFIG_KEYS
    assert cli.SPECTRUM_KEYS == CONFIG_KEYS | {"symbol"}
