"""The runtime stays standard-library only.

Every module of the package is parsed (not imported) and each import
must name a standard-library module or the package itself; dev tools
such as sympy and hypothesis belong to the tests alone.
"""

import ast
import sys
from pathlib import Path

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
