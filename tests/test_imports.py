"""The runtime stays standard-library only.

Every module of the package is parsed (not imported) and each import
must name a standard-library module or the package itself; dev tools
such as sympy and hypothesis belong to the tests alone.  Every module
is also imported, and the package attribute of its name must be that
module.
"""

import ast
import importlib
import sys
from pathlib import Path

import trusshom

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trusshom"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    foreign = []
    for path in modules:
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path))):
            if root != "trusshom" and root not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{line} imports {root}")
    assert foreign == []


def test_package_attributes_do_not_shadow_submodules():
    # ``import trusshom.homology as h`` binds ``trusshom.homology``, so a
    # re-exported function of a module's own name would stand in for it
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))
    assert len(names) >= 10
    for name in names:
        module = importlib.import_module(f"trusshom.{name}")
        assert getattr(trusshom, name) is module, name
