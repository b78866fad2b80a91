"""Dead-code ratchet: the ``src/`` functions that ``verify all`` never
calls.  Every function the verifier carries should be reached by some
check of the report; the ones that are not yet are listed below, and the
list may only shrink (a function the report starts to call, or that
leaves ``src/``, is struck from it; a new one is not added)."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import psqm
from psqm.verify import run_verify

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="names functions by code.co_qualname")

SRC = Path(psqm.__file__).resolve().parent
# the front ends are reached by the CLI tests, not by the report
MODULES = sorted(p.stem for p in SRC.glob("*.py")
                 if p.stem not in ("__init__", "cli", "serialize"))

NEVER_CALLED = {
    "fourier.inverse_ft",
    "fourier.partial_ft_p",
    "fourier.partial_ift_p",
    "grids.PhaseGrid.p_dual",
    "grids.PhaseGrid.x_dual",
    "grids.make_grid",
    "isometry.WindowedIsometry.transport",
    "moyal.MoyalWeylOp.restrict",
    "moyal.moyal_heisenberg_weyl",
    "phase_weyl.PhaseWeylOp.restrict",
    "phase_weyl.PhaseWeylOp.x_grid",
    "phase_weyl.phase_heisenberg_weyl",
    "states.boundary_mass",
    "weyl.Symbol.from_function",
    "weyl.Symbol.unit",
    "weyl._groenewold_poly",
    "weyl.displace",
    "weyl.heisenberg_weyl",
    "weyl.poly_mul",
    "weyl.symplectic_ft",
}


def _functions(module) -> dict:
    """{(file, first line, qualified name): 'module.qualname'} of every
    function and lambda defined in the module's source (comprehension
    bodies are part of their function)."""
    path = module.__file__
    found = {}
    todo = [compile(Path(path).read_text(), path, "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
        function = code.co_flags & inspect.CO_OPTIMIZED  # not a class body
        if function and (code.co_name == "<lambda>" or code.co_name[0] != "<"):
            key = (code.co_filename, code.co_firstlineno, code.co_qualname)
            found[key] = f"{module.__name__.rsplit('.', 1)[1]}.{code.co_qualname}"
    return found


def test_verify_all_never_calls_only_the_listed_functions():
    modules = [importlib.import_module(f"psqm.{name}") for name in MODULES]
    for module in modules:  # a cached result would hide its function
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        report = run_verify(["all"], {"n_points": 128, "tol_ucomp": 1e-5})
    finally:
        sys.setprofile(None)
    assert report["passed"]
    defined = {}
    for module in modules:
        defined.update(_functions(module))
    never = {name for key, name in defined.items() if key not in called}
    assert sorted(never - NEVER_CALLED) == [], "no check calls these new functions"
    assert sorted(NEVER_CALLED - never) == [], "called now, or gone: strike them"
