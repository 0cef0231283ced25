"""The runtime dependencies stay the standard library and mpmath."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cyclobound"


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in source from outside the stdlib and mpmath."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "mpmath" and top not in sys.stdlib_module_names:
                out.append(name)
    return out


def test_package_imports_only_stdlib_mpmath_or_itself():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        assert foreign_imports(path.read_text()) == [], path.name


def test_guard_flags_other_packages():
    source = (
        "import math, sympy.ntheory\n"
        "from mpmath import libmp\n"
        "from numpy import array\n"
        "from .polyarith import IntPoly\n"
        "def f():\n"
        "    import gmpy2\n"
    )
    assert foreign_imports(source) == ["sympy.ntheory", "numpy", "gmpy2"]
