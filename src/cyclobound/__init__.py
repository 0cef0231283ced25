"""Certified non-existence proofs for f(x) = 2*p^n in cyclotomic fields.

The pipeline chains a p-adic digit scan (exponent floor), a linear-forms-
in-logarithms bound (astronomical ceiling), and lattice basis reduction
(small ceiling); when floor and ceiling cross and a direct sweep of small
exponents is empty, no integer solutions exist.  Every real-number step
runs in interval arithmetic and every rounded constant is checked against
its enclosure in the sound direction.
"""

from .matveev import BoundInput, absolute_bound, inequality_coefficients, matveev_c9
from .numberfield import (
    CaseConfig,
    FieldElement,
    VerificationReport,
    charpoly,
    enumerate_exponent_cases,
    get_case,
    list_case_ids,
    load_case_config,
    nf_inverse,
    nf_mul,
    nf_norm,
    nf_pow,
    verify_case_data,
)
from .padic import (
    PAdicRoot,
    combined_lower_bound,
    digit_scan_bound,
    hensel_lift,
    heuristic_expected_solutions,
    roots_mod_p,
    scan_case,
)
from .pipeline import ProofChain, SolveReport, direct_search, emit_report, solve_case
from .polyarith import IntPoly, cyclotomic, discriminant, poly_eval, resultant
from .realalg import (
    Ball,
    CaseConstants,
    ComplexBall,
    ConjugateData,
    certified_roots,
    compute_constants,
    log_height,
    regulator,
    round_sig,
)
from .reduction import (
    ReductionReport,
    distance_lower_bound,
    lll_reduce,
    reduce_case_bound,
    reduction_loop,
    verify_lll_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BoundInput",
    "CaseConfig",
    "CaseConstants",
    "ComplexBall",
    "ConjugateData",
    "FieldElement",
    "IntPoly",
    "PAdicRoot",
    "ProofChain",
    "ReductionReport",
    "SolveReport",
    "VerificationReport",
    "absolute_bound",
    "certified_roots",
    "charpoly",
    "combined_lower_bound",
    "compute_constants",
    "cyclotomic",
    "digit_scan_bound",
    "direct_search",
    "discriminant",
    "distance_lower_bound",
    "emit_report",
    "enumerate_exponent_cases",
    "get_case",
    "hensel_lift",
    "heuristic_expected_solutions",
    "inequality_coefficients",
    "list_case_ids",
    "lll_reduce",
    "load_case_config",
    "log_height",
    "matveev_c9",
    "nf_inverse",
    "nf_mul",
    "nf_norm",
    "nf_pow",
    "poly_eval",
    "regulator",
    "reduce_case_bound",
    "reduction_loop",
    "resultant",
    "roots_mod_p",
    "round_sig",
    "scan_case",
    "solve_case",
    "verify_case_data",
    "verify_lll_reduced",
]
