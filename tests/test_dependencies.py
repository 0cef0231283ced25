"""The package imports the standard library and itself, nothing else.

mpmath is a test-only oracle: no file in src/ imports it, not even inside
a function, `import cyclobound` leaves it out of sys.modules, and a proof
runs with it blocked.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cyclobound"


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in source from outside the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    return out


def test_package_imports_only_stdlib_or_itself():
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
        "    import mpmath.libmp.libmpi\n"
    )
    assert foreign_imports(source) == ["sympy.ntheory", "mpmath", "numpy", "gmpy2", "mpmath.libmp.libmpi"]


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


def run_python(code: str) -> str:
    """The output of code run by a fresh interpreter that finds the package."""
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout


def test_import_leaves_mpmath_out():
    code = "import sys, cyclobound, cyclobound.cli; print('mpmath' in sys.modules)"
    assert run_python(code) == "False\n"


def test_import_leaves_dataclasses_and_inspect_out():
    # the result types are plain classes and namedtuples; dataclasses
    # would load inspect, ast, dis and tokenize with it at every start
    code = (
        "import sys, cyclobound, cyclobound.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert run_python(code) == "[]\n"


def test_proof_runs_with_mpmath_blocked():
    # a None entry in sys.modules makes every import of mpmath fail
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "import cyclobound\n"
        "print(cyclobound.solve_case('10-271').verdict)\n"
    )
    assert run_python(code) == "no_solutions\n"
