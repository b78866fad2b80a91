"""Dead-code ratchet: the ``src/`` functions that ``verify all`` never
calls.  Every function the verifier carries should be reached by some
check of the report; the ones that are not yet are listed below, each
with the file that keeps it, and the list may only shrink (a function
the report starts to call, or that leaves ``src/``, is struck from it; a
new one is not added)."""

import importlib
import inspect
import re
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

ROOT = Path(__file__).resolve().parents[1]

# name -> the file that keeps it: a demo, the benchmark's tracer (which
# looks its entries up by name), a test of a paper identity, the roadmap
# item that will read it, or its caller in src/.  When that file stops
# naming it, the function should leave src/.
NEVER_CALLED = {
    "fourier.inverse_ft": "demos/01_grids_and_transforms.py",
    # heisenberg_weyl's shift; rotate shears in place through lattice_shear
    "fourier.fourier_shift": "src/psqm/weyl.py",
    "moyal.MoyalWeylOp.restrict": "perfbench/tracer.py",
    "moyal.moyal_heisenberg_weyl": "tests/test_moyal.py",  # U covariance
    "phase_weyl.PhaseWeylOp.restrict": "perfbench/tracer.py",
    "states.boundary_mass": "ROADMAP.md",
    "weyl.Symbol.unit": "src/psqm/verify.py",  # psqm spectrum, symbol = unit
    "weyl._groenewold_poly": "src/psqm/weyl.py",  # moyal_product of polynomials
    "weyl.heisenberg_weyl": "tests/test_phase_weyl.py",  # lift covariance
    "weyl.poly_mul": "src/psqm/weyl.py",  # _groenewold_poly
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
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(profile)
    try:
        report = run_verify(["all"], {"n_points": 128})
    finally:
        sys.setprofile(None)
    # every suite runs to its end; the 128 lattice lacks only the
    # boundary margin of the U-composition check (dilation by sqrt 2)
    failed = [c["name"] for s in report["suites"] for c in s["checks"] if not c["passed"]]
    assert failed == ["closed_form_vs_composition"]
    defined = {}
    for module in modules:
        defined.update(_functions(module))
    never = {name for key, name in defined.items() if key not in called}
    listed = set(NEVER_CALLED)
    assert sorted(never - listed) == [], "no check calls these new functions"
    assert sorted(listed - never) == [], "called now, or gone: strike them"


def test_every_listed_function_names_the_file_that_keeps_it():
    for name, keeper in sorted(NEVER_CALLED.items()):
        path = ROOT / keeper
        assert path.is_file(), f"{name}: its keeper {keeper} is gone"
        short = name.rsplit(".", 1)[1]
        # a src/ file keeps a function by using it, not by defining it
        text = re.sub(rf"\bdef {short}\b", "", path.read_text())
        assert re.search(rf"\b{short}\b", text), \
            f"{keeper} no longer names {short}: delete {name}"
