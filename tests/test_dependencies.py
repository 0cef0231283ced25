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


def private_imports(source: str) -> list[str]:
    """Underscore names that source imports from another package module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_package_imports_no_private_names():
    for path in sorted(SRC.glob("*.py")):
        assert private_imports(path.read_text()) == [], path.name


def test_guard_flags_private_names():
    source = (
        "from math import _private\n"
        "from .numberfield import CaseConfig, _is_prime\n"
        "def f():\n"
        "    from .polyarith import _reduce as reduce\n"
    )
    assert private_imports(source) == ["_is_prime", "_reduce"]


# libmpi steps the integer kernel does itself: interval +, -, *, sqrt, the
# rounding of endpoints to prec, and comparisons of endpoints
KERNEL_STEPS = {"mpi_add", "mpi_sub", "mpi_mul", "mpi_sqrt", "mpi_pos", "mpf_cmp", "mpf_gt", "mpf_le"}


def names_used(source: str) -> set[str]:
    """Every name, attribute and imported name in the code of source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_package_leaves_kernel_steps_to_the_kernel():
    for path in sorted(SRC.glob("*.py")):
        assert names_used(path.read_text()) & KERNEL_STEPS == set(), path.name


def test_guard_flags_kernel_steps():
    source = (
        "from mpmath.libmp import mpi_add\n"
        "from mpmath import libmp\n"
        "x = libmp.mpf_gt(a, b) or libmp.mpi_log(c, 53)\n"
        "'mpi_mul in a docstring is no call'\n"
    )
    assert names_used(source) & KERNEL_STEPS == {"mpi_add", "mpf_gt"}
