"""Full proof pipeline for one case, from data checks to verdict.

Stages: verify the case data, scan p-adic digits for an exponent floor,
compute the rounded constant chain, derive the absolute exponent bound,
reduce it with lattices, and sweep the remaining small exponents directly.
ProofChain wires the stages from the floor to the reduction; solve_case
and every command line subcommand read from it.  A "no solutions" verdict
needs every stage to succeed and the floor to clear the reduced ceiling;
anything less is reported as inconclusive rather than patched over.
"""
from __future__ import annotations

import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property

from .matveev import absolute_bound, inequality_coefficients, matveev_c9
from .numberfield import CaseConfig, VerificationReport, get_case, verify_case_data
from .padic import PAdicRoot, combined_lower_bound
from .polyarith import IntPoly, iroot, poly_eval, values_mod
from .realalg import DEFAULT_PREC, CaseConstants, ConjugateData, compute_constants
from .reduction import ReductionReport, reduction_loop

# the direct search covers the exponents up to this one; the digit windows
# of every larger one are nonempty, so the digit-scan floor covers those
SEARCH_FLOOR = 500
# the moduli of the direct search's congruence sieve on n; 2 is left out
# because it excludes nothing when every f(x) is even, as Phi_m(x) + 1 is
# for every m that is not a power of 2
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def _sieve(f: IntPoly, p: int, n_max: int) -> list[int]:
    """The exponents 1 <= n <= n_max that pass the test mod every q in
    SIEVE_PRIMES: 2*p^n mod q is a value of f mod q.

    n -> 2*p^n mod q is periodic with period ord_q(p) when q does not
    divide p, so one period of it marks every excluded class of n.  Bit n
    of alive is exponent n, and each q ANDs in its period's bits repeated.
    """
    if n_max < 1:
        return []
    alive = (1 << n_max + 1) - 2  # bits 1 .. n_max
    for q in SIEVE_PRIMES:
        if p % q == 0:
            continue
        values = values_mod(f, q)
        keep, u, step = 0, 1, 0  # bit n of keep: n = 1 .. ord_q(p) passes
        while not step or u != 1:
            u = u * p % q
            step += 1
            keep |= (2 * u % q in values) << step
        alive &= keep * ((1 << step * (n_max // step + 1)) - 1) // ((1 << step) - 1)
    out = []
    while alive:  # the lowest bit set, then clear it
        out.append((alive & -alive).bit_length() - 1)
        alive &= alive - 1
    return out


def _vanishes_mod(f: IntPoly, x: int, q: int) -> bool:
    """Whether f(x) = 0 mod q, by Horner on residues below q."""
    r, acc = x % q, 0
    for c in reversed(f.coeffs):
        acc = (acc * r + c) % q
    return acc == 0


def direct_search(f: IntPoly, p: int, n_max: int) -> list[tuple[int, int]]:
    """All integer solutions of f(x) = 2*p^n with 1 <= n <= n_max.

    A solution makes f(x mod q) = 2*p^n mod q for every prime q, so an
    exponent whose 2*p^n mod q is no value of f mod q has no solution at
    all; _sieve drops those, which is exact.  For each surviving exponent
    and |x| >= 2 the growth envelope pins |x| within 1 of (2*p^n)^(1/d),
    so only a handful of candidates need testing.  p divides 2*p^n for
    every n >= 1, prime p or not, so such a candidate is evaluated in full
    only if f(x) = 0 mod p, a Horner pass on residues below p.  f is
    evaluated once at each |x| <= 2, and each value is compared with
    every surviving exponent.
    """
    d = f.degree()
    exponents = _sieve(f, p, n_max)
    small = [(x, poly_eval(f, x)) for x in range(-2, 3)] if exponents else []
    out = []
    for n in exponents:
        target = 2 * p**n
        out += [(n, x) for x, v in small if v == target]
        x0 = iroot(target, d)
        for x in (x0 - 1, x0, x0 + 1, 1 - x0, -x0, -1 - x0):
            if abs(x) > 2 and _vanishes_mod(f, x, p) and poly_eval(f, x) == target:
                out.append((n, x))
    return sorted(out)


class StageFailed(Exception):
    """A proof stage could not finish; the message is the report's reason."""


@contextmanager
def _stage(name: str):
    """One stage's rule: a ValueError or ArithmeticError raised in it ends
    it with StageFailed("<name> failed: ..."); a StageFailed from a stage
    it reads passes unchanged."""
    try:
        yield
    except (ValueError, ArithmeticError) as err:
        raise StageFailed(f"{name} failed: {err}") from err


class ProofChain:
    """The proof stages of one case, each computed once on first read.

    Reading a stage runs the stages it depends on: the scan depth, the
    lifted roots and the digit-scan floor n_lower; the verification of the
    case data, the conjugate data and the rounded constants; c9, the
    absolute bound and the display form of its inequality; and the
    lattice reduction of that bound down to the floor, starting at lattice
    scale `scale` (default: the case's K).  A stage that cannot finish
    raises StageFailed (see _stage), and so does reading the constants of
    case data that failed verification.  The verification and the scan
    both ask for the roots of f mod p; polyarith.roots_mod_p's memo finds
    them once.
    """

    def __init__(
        self,
        case: CaseConfig | str,
        depth: int | None = None,
        scale: int | None = None,
    ):
        self.cfg = get_case(case) if isinstance(case, str) else case
        self.depth = depth if depth is not None else self.cfg.default_scan_depth
        self.scale = scale if scale is not None else self.cfg.default_K

    @cached_property
    def _scan(self) -> tuple[list[PAdicRoot], int]:
        # one lift per root, inside combined_lower_bound, the scan stage
        with _stage("digit scan"):
            return combined_lower_bound(self.cfg, self.depth)

    @property
    def roots(self) -> list[PAdicRoot]:
        return self._scan[0]

    @property
    def n_lower(self) -> int:
        return self._scan[1]

    @cached_property
    def conj(self) -> ConjugateData:
        with _stage("constant chain"):  # e.g. a real root of f
            return ConjugateData(self.cfg)

    @cached_property
    def verification(self) -> VerificationReport:
        return verify_case_data(self.cfg)

    @cached_property
    def constants(self) -> CaseConstants:
        conj, n_lower = self.conj, self.n_lower
        if not self.verification.passed:
            raise StageFailed("case data failed verification")
        with _stage("constant chain"):
            return compute_constants(conj, n_lower)

    @cached_property
    def c9(self) -> Fraction:
        with _stage("absolute bound"):
            return matveev_c9(self.constants, self.conj.prec)

    @cached_property
    def abs_bound(self) -> int:
        with _stage("absolute bound"):
            return absolute_bound(self.constants, self.c9, self.conj.prec)

    @cached_property
    def coefficients(self) -> dict:
        """matveev.inequality_coefficients, the inequality as displayed."""
        with _stage("absolute bound"):
            return inequality_coefficients(self.constants, self.conj.prec)

    @cached_property
    def reduction(self) -> ReductionReport:
        with _stage("reduction"):
            return reduction_loop(self.conj, self.constants, self.abs_bound,
                                  stop_below=self.n_lower, scale=self.scale)


class SolveReport(namedtuple("SolveReport", (
    "case_id", "verdict", "reason", "depth", "precision_bits", "n_lower",
    "abs_bound", "c9", "reduced_bound", "search_max", "solutions",
    "verification", "constants", "reduction", "timings",
), defaults=(DEFAULT_PREC,) + (None,) * 10)):
    """Everything one case run produced, stage by stage; immutable.

    solutions holds (n, x) pairs and timings maps stage names to seconds;
    solve_case gives each report its own list and dict.  Both default to
    None, since a namedtuple's defaults are shared by every instance.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "no_solutions"

    def to_dict(self) -> dict:
        out = {
            "case_id": self.case_id,
            "verdict": self.verdict,
            "reason": self.reason,
            "depth": self.depth,
            "precision_bits": self.precision_bits,
            "n_lower": self.n_lower,
            "absolute_bound": self.abs_bound,
            "c9": float(self.c9) if self.c9 is not None else None,
            "reduced_bound": self.reduced_bound,
            "search_max": self.search_max,
            "solutions": [list(s) for s in self.solutions],
        }
        if self.verification is not None:
            out["verification"] = self.verification.to_dict()
        if self.constants is not None:
            out["constants"] = self.constants.to_dict()
        if self.reduction is not None:
            out["reduction"] = self.reduction.to_dict()
        out["timings"] = dict(self.timings)
        return out


@contextmanager
def _timed(timings: dict, stage: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = time.perf_counter() - t0


def solve_case(
    case: CaseConfig | str,
    depth: int | None = None,
    scale: int | None = None,
) -> SolveReport:
    """Run the whole chain for one case and return the verdict report.

    The conclusion "no solutions" means: for every integer x and n >= 1,
    f(x) != 2*p^n.  It requires the data checks to pass, the digit-scan
    floor to exceed the reduced ceiling, and the direct sweep of the
    exponents up to SEARCH_FLOOR to come back empty.
    """
    chain = ProofChain(case, depth, scale)
    cfg = chain.cfg
    timings: dict = {}
    found: dict = {"solutions": []}  # the report fields the stages filled

    def report(verdict: str, reason: str) -> SolveReport:
        return SolveReport(cfg.case_id, verdict, reason, chain.depth,
                           timings=timings, **found)

    with _timed(timings, "verify"):
        found["verification"] = chain.verification
    if not chain.verification.passed:
        return report("inconclusive", "case data failed verification")

    try:
        with _timed(timings, "scan"):
            found["n_lower"] = n_lower = chain.n_lower
        with _timed(timings, "constants"):
            found["constants"] = chain.constants
        found["precision_bits"] = chain.conj.prec
        with _timed(timings, "absolute_bound"):
            found["c9"], found["abs_bound"] = chain.c9, chain.abs_bound
        with _timed(timings, "reduction"):
            found["reduction"] = reduction = chain.reduction
    except StageFailed as err:
        return report("inconclusive", str(err))
    found["reduced_bound"] = reduced_bound = reduction.final_bound

    with _timed(timings, "search"):
        found["search_max"] = SEARCH_FLOOR
        found["solutions"] = solutions = direct_search(cfg.f, cfg.p, SEARCH_FLOOR)

    verdict = "inconclusive"
    if solutions:
        verdict = "solutions_found"
        reason = f"direct search found {len(solutions)} solution(s)"
    elif not reduction.ok:
        reason = "reduction produced no certified bound"
    elif reduced_bound >= n_lower:
        reason = (
            f"reduced bound {reduced_bound} does not clear "
            f"the digit-scan floor {n_lower}"
        )
    else:
        verdict = "no_solutions"
        reason = (
            f"search is empty up to {SEARCH_FLOOR}; any larger exponent "
            f"falls under the digit-scan floor n >= {n_lower}, which "
            f"contradicts the reduced bound n <= {reduced_bound}"
        )
    return report(verdict, reason)


def emit_report(report: SolveReport) -> str:
    """Render one report for the terminal; report.to_dict() is the JSON form."""
    lines = [f"case {report.case_id}: {report.verdict}"]
    lines.append(f"  {report.reason}")
    if report.n_lower is not None:
        lines.append(f"  digit-scan floor: n >= {report.n_lower} (depth {report.depth})")
    if report.abs_bound is not None:
        lines.append(f"  absolute bound:   n < {report.abs_bound:.6g}")
    if report.reduced_bound is not None:
        lines.append(f"  reduced bound:    n <= {report.reduced_bound}")
    if report.search_max is not None:
        lines.append(f"  searched:         n <= {report.search_max}, "
                     f"{len(report.solutions)} solution(s)")
    for n, x in report.solutions:
        lines.append(f"    n = {n}, x = {x}")
    stages = ", ".join(f"{k} {t:.3f}s" for k, t in report.timings.items())
    lines.append(f"  time: {sum(report.timings.values()):.2f}s ({stages})")
    return "\n".join(lines)
