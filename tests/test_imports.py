"""Every name a psqm module, test module or demo imports is referenced
in that file, no psqm module uses another psqm module's private
(``_name``) names, psqm modules import at module level only, every
``__all__`` entry resolves, no psqm module defines a cache, the oracles
import numpy only, importing psqm loads no scipy and only ``grids``
compares against the lattice bound."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "psqm"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported(tree)
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_demos(path):
    assert _unused_imports(path) == []


MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("name", ["psqm"] + sorted(f"psqm.{m}" for m in MODULES))
def test_every_all_entry_resolves(name):
    # a stale entry breaks only ``from psqm import *``, which no test runs
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_names(path: Path) -> list:
    """``from .m import _x`` (or ``from psqm.m``) and ``m._x`` reads,
    where ``m`` is bound to another psqm module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()     # local names bound to psqm modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "psqm"
            if not package:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
                if (node.module in (None, "psqm")) and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("psqm.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert _cross_module_private_names(path) == []


def test_private_name_guard_sees_imports_and_attribute_reads(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .weyl import _midpoint_indices\n"
                   "from . import fourier as f\n"
                   "import psqm.grids as g\n"
                   "x = f._ft_matrix, g._is_power_of_two, f.lattice_shear, f.__name__\n")
    assert _cross_module_private_names(bad) == [
        "bad.py:1: imports _midpoint_indices",
        "bad.py:4: reads f._ft_matrix",
        "bad.py:4: reads g._is_power_of_two",
    ]


def _function_level_imports(path: Path) -> list:
    """``import`` statements inside a function or method body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(f"{path.name}:{inner.lineno}: in {node.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)
                  if isinstance(inner, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert _function_level_imports(path) == []


def test_function_import_guard_sees_nested_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "def f():\n"
                   "    from .spectral import eig\n"
                   "class A:\n"
                   "    def g(self):\n"
                   "        if True:\n"
                   "            import json\n")
    assert _function_level_imports(bad) == ["bad.py:3: in f", "bad.py:7: in g"]


# A cache keeps what it holds for the life of the process; psqm keeps no
# state between calls beyond what a caller's objects own.
CACHES = {"cache", "cached_property", "lru_cache"}


def _caches(path: Path) -> list:
    """Every functools cache a module imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{path.name}:{node.lineno}: {alias.name}"
                      for alias in node.names if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_defines_a_cache(path):
    assert _caches(path) == []


def test_cache_guard_sees_imports_and_decorators(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import functools\n"
                   "from functools import lru_cache as memo, partial\n"
                   "@functools.cache\n"
                   "def f(n):\n"
                   "    return n\n")
    assert _caches(bad) == ["bad.py:2: lru_cache", "bad.py:3: functools.cache"]


# The oracles stay an independent route, and psqm starts without scipy:
# numpy only.
ORACLE_DEPENDENCIES = {"__future__", "numpy"}


def _imported_roots(path: Path) -> set:
    """Top-level packages a file imports; relative imports count as psqm."""
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            roots.add("psqm" if node.level > 0 else node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    return roots


def test_reference_imports_only_numpy():
    assert _imported_roots(SRC / "reference.py") <= ORACLE_DEPENDENCIES


def test_fresh_interpreter_importing_psqm_loads_no_scipy():
    # scipy.linalg alone costs more start-up time and memory than psqm
    code = ("import sys, psqm, psqm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_oracle_import_guard_sees_package_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "from scipy.linalg import eig_banded\n"
                   "from . import fourier\n"
                   "from psqm.moyal import cross_wigner\n"
                   "import psqm.weyl\n")
    assert _imported_roots(bad) == {"numpy", "scipy", "psqm"}


def _index_bound_comparisons(path: Path) -> list:
    """Lines of ``path`` comparing against ``MAX_INDEX_POINTS``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                   for sub in ast.walk(node)
                   if getattr(sub, "id", getattr(sub, "attr", None)) == "MAX_INDEX_POINTS"})


def test_only_grids_compares_against_the_lattice_bound():
    # Grid1D refuses every lattice above the bound when it is made; a
    # second comparison elsewhere would be a copy of that rule
    found = {p.name: _index_bound_comparisons(p) for p in sorted(SRC.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"grids.py"}
