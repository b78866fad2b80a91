"""The benchmark's span tracer (perfbench/tracer.py) rebinds psqm's
functions and methods by name.  A change that renames or deletes one of
them breaks every traced benchmark run, so every traced name must still
resolve here, and uninstalling must put every binding back."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import psqm

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("grids", "states", "fourier", "weyl", "isometry", "phase_weyl", "moyal",
           "mixed", "spectral", "reference", "serialize", "verify", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """Every binding the tracer may replace: each psqm module's names, the
    traced methods, the verify suites and numpy's eigh."""
    modules = [psqm] + [importlib.import_module(f"psqm.{m}") for m in MODULES]
    out = {}
    for mod in modules:
        out.update({(mod.__name__, attr): value for attr, value in vars(mod).items()})
    for module, qualname in tracer.TRACED:
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(sys.modules[f"psqm.{module}"], cls_name)
            out[(cls_name, meth)] = cls.__dict__[meth]
    verify = sys.modules["psqm.verify"]
    out.update({("_SUITES", name): fn for name, fn in verify._SUITES.items()})
    out[("numpy.linalg", "eigh")] = np.linalg.eigh
    return out


def test_every_traced_name_resolves_and_uninstall_restores_it():
    tracer = _load_tracer()
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        for module, qualname in tracer.TRACED:
            owner = sys.modules[f"psqm.{module}"]
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), f"{module}.{qualname} is not traced"
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
