"""Certified non-existence proofs for f(x) = 2*p^n in cyclotomic fields.

The pipeline chains a p-adic digit scan (exponent floor), a linear-forms-
in-logarithms bound (astronomical ceiling), and lattice basis reduction
(small ceiling); when floor and ceiling cross and a direct sweep of small
exponents is empty, no integer solutions exist.  Every real-number step
runs in interval arithmetic and every rounded constant is checked against
its enclosure in the sound direction.

The top level exports the proof chain and the case loaders; each stage's
own functions are imported from its module (``cyclobound.padic``,
``cyclobound.numberfield`` and so on).
"""

from .numberfield import get_case, list_case_ids, load_case_config
from .pipeline import ProofChain, SolveReport, emit_report, solve_case

__version__ = "0.1.0"

__all__ = [
    "ProofChain",
    "SolveReport",
    "emit_report",
    "get_case",
    "list_case_ids",
    "load_case_config",
    "solve_case",
]
