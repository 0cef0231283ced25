"""Number field arithmetic and case-definition data.

Elements of K = Q[x]/(f) are stored as an integer polynomial numerator of
degree < deg f over a positive integer denominator, content-reduced.  All
operations are exact.

A "case" bundles the data needed to analyse Phi_m(x) + 1 = 2*p^n for one
pair (m, p): the defining polynomial f = Phi_m + 1, fundamental units,
generators of the degree-1 prime ideals above p (gammas, of norm +-p) and
above 2 (deltas, of norm +-2), and a witness writing 2 as a
unit-times-deltas product.  Three cases ship built in; others can be
loaded from a JSON file with the same fields (polynomials as coefficient
lists, lowest degree first):

    {
      "case_id": "15-41", "m": 15, "p": 41,
      "f": [2, -1, 0, 1, -1, 1, 0, -1, 1],
      "units": [[-1, 1, 1, 0, 1, 0, 0, 1], ...],
      "gammas": [[1, -1, 1, 1, -2, 1, 1, -1]],
      "deltas": [[0, 1], [1, 1]],
      "two_decomposition": {"sign": 1,
                            "factors": [{"coeffs": [0, 1], "exponent": 1}, ...]},
      "default_conjugate_choice": {"0": [1, 3, 4]},
      "default_K": 1000000000000000000000000000000000000000,
      "default_scan_depth": 60
    }

``default_conjugate_choice`` maps the index of each gamma (keys 0..k-1,
all k present) to the tuple of embedding indices (1-based, among the
distinct conjugate pairs) used by the lattice reduction stage.
``default_scan_depth`` is the digit index up to which the p-adic scan runs
when no depth is given explicitly.

Only primes of residue degree 1 can divide x - alpha, so only they carry a
generator.  verify_case_data checks the data exactly and lists under
``trusted`` the one assumption it cannot check, that the units are a
fundamental system; ``cyclobound verify`` prints it as an ``[ext ]`` line.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .polyarith import (
    IntPoly, charpoly_mod, cyclotomic, discriminant, is_prime, mulmod, poly_eval,
    roots_mod_p,
)


# ---------------------------------------------------------------------------
# field elements


class FieldElement:
    """num(alpha)/den with deg num < deg f, den > 0, gcd(content, den) = 1;
    callers pass num already reduced mod f (nf_mul and nf_inverse do)."""

    __slots__ = ("num", "den")
    num: IntPoly
    den: int

    def __init__(self, num, den: int = 1):
        if isinstance(num, int):
            num = IntPoly(num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.content(), den)
        if g > 1:
            num = IntPoly(*(c // g for c in num.coeffs))
            den //= g
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den))

    def __repr__(self) -> str:
        return f"FieldElement(num={self.num!r}, den={self.den!r})"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __str__(self) -> str:
        s = str(self.num).replace("x", "a")
        return s if self.den == 1 else f"({s})/{self.den}"


def nf_mul(a: FieldElement, b: FieldElement, f: IntPoly) -> FieldElement:
    return FieldElement(mulmod(a.num, b.num, f), a.den * b.den)


def nf_inverse(a: FieldElement, f: IntPoly) -> FieldElement:
    """Inverse in Q[x]/(f) by Cayley-Hamilton on the integral numerator.

    For monic f.  A = den * a has the monic integer characteristic
    polynomial chi = x^d + c_(d-1) x^(d-1) + ... + c_0 (charpoly_mod), and
    chi(A) = 0 gives A^-1 = -(A^(d-1) + c_(d-1) A^(d-2) + ... + c_1) / c_0,
    evaluated by Horner's rule on integer polynomials mod f; then a^-1 =
    den * A^-1, normalised once.  c_0 = 0 exactly when a is a zero
    divisor, which a nonzero a cannot be when f is irreducible.
    """
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero field element")
    chi = charpoly_mod(a.num, f).coeffs
    if chi[0] == 0:
        raise ValueError("element not invertible modulo f")
    acc = IntPoly(1)
    for c in reversed(chi[1:-1]):
        acc = mulmod(acc, a.num, f) + c
    return FieldElement(acc * -a.den, chi[0])


def nf_pow(a: FieldElement, k: int, f: IntPoly) -> FieldElement:
    if k < 0:
        return nf_pow(nf_inverse(a, f), -k, f)
    out = FieldElement(1)
    base = a
    while k:
        if k & 1:
            out = nf_mul(out, base, f)
        k >>= 1
        if k:
            base = nf_mul(base, base, f)
    return out


def nf_norm(a: FieldElement, f: IntPoly) -> Fraction:
    """Field norm N(a) = (-1)^d chi(0) / den^d for monic f, where chi is
    charpoly_mod of the integral numerator."""
    d = f.degree()
    sign = -1 if d % 2 else 1
    return Fraction(sign * charpoly_mod(a.num, f)[0], a.den ** d)


def charpoly(a: FieldElement, f: IntPoly) -> IntPoly:
    """Primitive integer characteristic polynomial of a acting on Q[x]/(f).

    For monic f.  polyarith.charpoly_mod gives the monic polynomial of the
    integral numerator A = den * a; scaling its coefficient of x^k by den^k
    turns it into one of a.  Equals the minimal polynomial raised to a
    power, scaled to integer coefficients of content 1 with positive
    leading coefficient.
    """
    ints = [c * a.den ** k for k, c in enumerate(charpoly_mod(a.num, f).coeffs)]
    g = math.gcd(*ints)
    return IntPoly(*(c // g for c in ints))


# ---------------------------------------------------------------------------
# case configuration


class CaseConfig(namedtuple("CaseConfig", (
    "case_id", "m", "p", "f", "units", "gammas", "deltas", "two_sign",
    "two_factors", "default_conjugate_choice", "default_K", "default_scan_depth",
))):
    """One case's data, immutable; _replace(**changes) copies it.

    f is an IntPoly of degree d (derived from f, so a copy with another f
    has that f's degree); units, gammas and deltas are tuples of
    FieldElements, two_factors the (FieldElement, exponent) pairs of the
    witness for 2, and default_conjugate_choice a dict from each gamma's
    index to its tuple of embedding indices.
    """

    __slots__ = ()

    @property
    def d(self) -> int:
        """The degree of f."""
        return self.f.degree()

    @property
    def rank(self) -> int:
        """Number of Baker-stage logarithms: 2 + number of units."""
        return 2 + len(self.units)


class CheckResult(namedtuple("CheckResult", ("name", "ok", "detail"))):
    """One named check of verify_case_data, whether it held, and what it saw."""

    __slots__ = ()


class VerificationReport(namedtuple(
    "VerificationReport", ("case_id", "checks", "trusted"),
)):
    """The checks verify_case_data ran on one case (a list of CheckResult),
    and what it trusts (a list of names); immutable."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
            "trusted": list(self.trusted),
        }


def _euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _int(value, what: str, least: int | None = None) -> int:
    """A JSON integer (bools and floats refused), at least `least` if given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _fe(coeffs, what: str) -> FieldElement:
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise ValueError(f"{what} must be a non-empty list of integers")
    return FieldElement(IntPoly(*(_int(c, what) for c in coeffs)))


# 15-41 and 15-5581 share the field of Phi_15 + 1, its units and the
# generators above 2
_OCTIC = {
    "m": 15,
    "f": [2, -1, 0, 1, -1, 1, 0, -1, 1],
    "units": [
        [-1, 1, 1, 0, 1, 0, 0, 1],
        [-1, 1, 0, 0, 1, -1, 1],
        [1, -1, 1],
    ],
    "deltas": [[0, 1], [1, 1]],
    "two_decomposition": {
        "sign": 1,
        "factors": [
            {"coeffs": [0, 1], "exponent": 1},
            {"coeffs": [1, 1], "exponent": 4},
            {"coeffs": [1, 0, -1, 1], "exponent": 1},
            {"coeffs": [-1, 1, 1, 0, 1, 0, 0, 1], "exponent": -2},
            {"coeffs": [-1, 1, 0, 0, 1, -1, 1], "exponent": 1},
        ],
    },
}
_BUILTIN_RAW = {
    "15-41": {
        **_OCTIC,
        "p": 41,
        "gammas": [[1, -1, 1, 1, -2, 1, 1, -1]],
        "default_conjugate_choice": {"0": [1, 3, 4]},
        "default_K": 10**39,
        "default_scan_depth": 60,
    },
    "15-5581": {
        **_OCTIC,
        "p": 5581,
        "gammas": [[1, -2, 0, 0, 0, -1, 1], [1, 1, 1, 0, 0, 2]],
        "default_conjugate_choice": {"0": [2, 3, 4], "1": [1, 3, 4]},
        "default_K": 10**39,
        "default_scan_depth": 502,
    },
    "10-271": {
        "m": 10,
        "p": 271,
        "f": [2, -1, 1, -1, 1],
        "units": [[1, 0, -1, 1]],
        "gammas": [[3, -4, 4, -2]],
        "deltas": [[0, 1], [-1, 1]],
        "two_decomposition": {
            "sign": -1,
            "factors": [
                {"coeffs": [0, 1], "exponent": 1},
                {"coeffs": [-1, 1], "exponent": 3},
                {"coeffs": [1, 0, -1, 1], "exponent": -1},
            ],
        },
        "default_conjugate_choice": {"0": [2]},
        "default_K": 10**41,
        "default_scan_depth": 70,
    },
}


def _config_from_dict(case_id: str, raw: dict) -> CaseConfig:
    """Build a case from its JSON form; malformed data raises ValueError."""
    try:
        f = _fe(raw["f"], "f").num
        choice = {
            int(k): tuple(_int(i, "conjugate index") for i in v)
            for k, v in raw["default_conjugate_choice"].items()
        }
        two = raw["two_decomposition"]
        cfg = CaseConfig(
            case_id=case_id,
            m=_int(raw["m"], "m", 1),
            p=_int(raw["p"], "p", 2),
            f=f,
            units=tuple(_fe(u, "unit") for u in raw["units"]),
            gammas=tuple(_fe(g, "gamma") for g in raw["gammas"]),
            deltas=tuple(_fe(dd, "delta") for dd in raw["deltas"]),
            two_sign=_int(two["sign"], "sign of 2"),
            two_factors=tuple(
                (_fe(fa["coeffs"], "factor of 2"), _int(fa["exponent"], "exponent"))
                for fa in two["factors"]
            ),
            default_conjugate_choice=choice,
            default_K=_int(raw["default_K"], "default_K", 1),
            default_scan_depth=_int(raw["default_scan_depth"], "default_scan_depth", 1),
        )
    except KeyError as err:
        raise ValueError(f"case {case_id}: missing field {err.args[0]!r}") from None
    except ValueError as err:
        raise ValueError(f"case {case_id}: {err}") from None
    except (TypeError, AttributeError) as err:
        raise ValueError(f"case {case_id}: malformed case data ({err})") from err
    if not (cfg.units and cfg.gammas and cfg.deltas):
        raise ValueError(f"case {case_id}: units, gammas and deltas must be non-empty")
    # phi(m) >= sqrt(m/2), so an m above 2*d^2 is refused before phi is counted
    if cfg.m > 2 * cfg.d ** 2 or cfg.d != _euler_phi(cfg.m):
        raise ValueError(f"case {case_id}: f has degree {cfg.d}, not phi({cfg.m})")
    if cfg.f.lc() != 1:
        raise ValueError(f"case {case_id}: f must be monic")
    keys = list(range(len(cfg.gammas)))
    if sorted(choice) != keys:
        raise ValueError(
            f"case {case_id}: default_conjugate_choice needs the keys {keys}, "
            f"one per gamma"
        )
    pairs = set(range(1, cfg.d // 2 + 1))
    # set(c) & pairs keeps all of c only when its indices are distinct pairs
    if any(len(c) != cfg.rank - 2 or len(set(c) & pairs) != len(c) for c in choice.values()):
        raise ValueError(
            f"case {case_id}: each conjugate choice needs rank - 2 = "
            f"{cfg.rank - 2} distinct indices in 1..{cfg.d // 2}"
        )
    return cfg


def list_case_ids() -> list[str]:
    return list(_BUILTIN_RAW)


def get_case(case_id: str) -> CaseConfig:
    if case_id not in _BUILTIN_RAW:
        raise KeyError(f"unknown case {case_id!r}; built in: {', '.join(_BUILTIN_RAW)}")
    return _config_from_dict(case_id, _BUILTIN_RAW[case_id])


def load_case_config(path: str) -> CaseConfig:
    """Load a case definition from a JSON file (schema in the module docstring).

    Malformed data (a non-monic f among it), JSON nested past the parser's
    recursion limit, or a p that is_prime cannot prove prime, raises
    ValueError.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError("case file is nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ValueError("case file must hold a JSON object")
    if "case_id" not in raw:
        raise ValueError("case file missing field 'case_id'")
    cfg = _config_from_dict(str(raw["case_id"]), raw)
    if not is_prime(cfg.p):
        raise ValueError(f"case {cfg.case_id}: p = {cfg.p} is not a proven prime")
    return cfg


def case_to_dict(cfg: CaseConfig) -> dict:
    """Inverse of load_case_config, for writing case files."""
    return {
        "case_id": cfg.case_id,
        "m": cfg.m,
        "p": cfg.p,
        "f": list(cfg.f.coeffs),
        "units": [list(u.num.coeffs) for u in cfg.units],
        "gammas": [list(g.num.coeffs) for g in cfg.gammas],
        "deltas": [list(dd.num.coeffs) for dd in cfg.deltas],
        "two_decomposition": {
            "sign": cfg.two_sign,
            "factors": [
                {"coeffs": list(fa.num.coeffs), "exponent": e}
                for fa, e in cfg.two_factors
            ],
        },
        "default_conjugate_choice": {
            str(k): list(v) for k, v in cfg.default_conjugate_choice.items()
        },
        "default_K": cfg.default_K,
        "default_scan_depth": cfg.default_scan_depth,
    }


# ---------------------------------------------------------------------------
# verification


_TRUSTED = [
    "the listed units are a fundamental system (not merely independent units)",
]


def _envelope_certificate(f: IntPoly) -> bool:
    """Certify (|x|-1)^d < f(x) < (|x|+1)^d for all integers |x| >= 2.

    Substituting x = +-(t+2) turns each side into a polynomial in t that
    must be positive for t >= 0; nonnegative coefficients with a positive
    constant term prove that.  f(+-(t+2)) is f(+-x) Taylor-shifted by 2
    in place, and the coefficients of t^k in (1+t)^d and (3+t)^d are
    C(d, k) and C(d, k) * 3^(d-k).
    """
    d = f.degree()
    refs = [(math.comb(d, k), math.comb(d, k) * 3 ** (d - k)) for k in range(d + 1)]
    for sign in (1, -1):
        c = [a * sign ** i for i, a in enumerate(f.coeffs)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += 2 * c[j + 1]
        if not (1 < c[0] < 3 ** d and all(lo <= x <= hi for x, (lo, hi) in zip(c, refs))):
            return False
    return True


def _root_match(f: IntPoly, q: int, named: dict[str, FieldElement]) -> tuple[bool, str]:
    """Whether the roots of f mod the prime q and the named elements match
    one to one, each root a zero mod q of exactly one element and each
    element of exactly one root; and the zeros found, as text.

    An element of Z[alpha] lies in the prime (q, alpha - r) exactly when
    it vanishes at r mod q, so an element of norm +-q generates that prime
    for one root r, and the match gives every prime of residue degree 1
    above q its own generator.
    """
    zeros = {
        r: [name for name, e in named.items() if poly_eval(e.num, r) % q == 0]
        for r in roots_mod_p(f, q)
    }
    hits = [name for names in zeros.values() for name in names]
    ok = all(len(names) == 1 for names in zeros.values()) and sorted(hits) == sorted(named)
    parts = [f"root {r}: {', '.join(names) or 'none'}" for r, names in zeros.items()]
    parts += [f"{name}: no root" for name in named if name not in hits]
    return ok, "; ".join(parts)


def verify_case_data(cfg: CaseConfig) -> VerificationReport:
    """Exact re-verification of everything the pipeline consumes.

    All checks are integer/rational identities: unit norms and the unit
    count, gamma and delta norms, one norm-p gamma per root of f mod p and
    one delta per root of f mod 2, the multiplicative witness for 2, p not
    dividing disc(f), and the growth envelope that the archimedean
    estimates rest on.  Items that cannot be checked without an independent
    unit-group computation are listed under ``trusted``.  The roots of f
    mod p come from polyarith.roots_mod_p, whose memo hands the same roots
    to the digit scan.

    The checks make (x - alpha) = (delta)(gamma)^n for every solution of
    f(x) = 2p^n, with no class number assumed.  N(x - alpha) = f(x), so
    each prime P dividing (x - alpha) lies above some q in {2, p}.  P
    contains q and x - alpha, hence alpha - r for the root r = x mod q.
    The delta or gamma that the root match pairs with r vanishes at r mod
    q, so it lies in (q, alpha - r), inside P; its norm +-q makes the
    ideal it generates maximal, so that ideal is P.  One root r per q
    leaves one prime above 2, of norm 2, and one above p, of norm p.
    """
    checks: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str):
        checks.append(CheckResult(name, bool(ok), detail))

    phi = _euler_phi(cfg.m)
    f_expect = cyclotomic(cfg.m) + IntPoly(1)
    check(
        "defining polynomial",
        cfg.f == f_expect and cfg.d == phi and cfg.f.lc() == 1,
        f"f = {cfg.f}, degree {cfg.d} = phi({cfg.m})",
    )
    p_ok = cfg.p % 2 == 1 and is_prime(cfg.p)
    check("p is an odd prime", p_ok, f"p = {cfg.p}")

    disc = discriminant(cfg.f)
    check(
        "p does not divide disc(f)",
        disc % cfg.p != 0,
        f"disc(f) = {disc}",
    )

    for i, u in enumerate(cfg.units, 1):
        nu = nf_norm(u, cfg.f)
        check(
            f"unit {i} has norm +-1",
            abs(nu) == 1,
            f"N({u}) = {nu}",
        )

    # the trusted fundamental system needs as many units as the unit rank,
    # d/2 - 1 by Dirichlet, since Phi_m > 0 on the reals for m >= 3 leaves
    # f = Phi_m + 1 no real root; a wrong count refutes it, so it is listed
    # as a failed check
    rank = cfg.d // 2 - 1
    if len(cfg.units) != rank:
        check(
            f"as many units as the unit rank {rank}",
            False,
            f"{len(cfg.units)} listed, so they are no fundamental system",
        )

    for i, g in enumerate(cfg.gammas, 1):
        ng = nf_norm(g, cfg.f)
        check(
            f"gamma {i} has norm +-p",
            abs(ng) == cfg.p,
            f"N({g}) = {ng}",
        )

    # roots_mod_p refuses a p it cannot prove prime
    if p_ok:
        gammas = {f"gamma {i}": g for i, g in enumerate(cfg.gammas, 1)}
        check("each root of f mod p has its own norm-p gamma",
              *_root_match(cfg.f, cfg.p, gammas))

    for i, dd in enumerate(cfg.deltas, 1):
        nd = nf_norm(dd, cfg.f)
        check(
            f"delta {i} has norm +-2",
            abs(nd) == 2,
            f"N({dd}) = {nd}",
        )
    deltas = {f"delta {i}": dd for i, dd in enumerate(cfg.deltas, 1)}
    check("each root of f mod 2 has its own delta", *_root_match(cfg.f, 2, deltas))

    # sign * prod_(e>0) fa^e = 2 * prod_(e<0) fa^-e, with each fa^-e invertible
    # (nonzero norm), holds exactly when the signed product, formed only for
    # a failure's detail, is 2
    sides = [FieldElement(cfg.two_sign), FieldElement(2)]
    for fa, e in cfg.two_factors:
        sides[e < 0] = nf_mul(sides[e < 0], nf_pow(fa, abs(e), cfg.f), cfg.f)
    prod = FieldElement(2)
    if sides[0] != sides[1] or not all(nf_norm(fa, cfg.f) for fa, e in cfg.two_factors if e < 0):
        prod = FieldElement(cfg.two_sign)
        for fa, e in cfg.two_factors:
            prod = nf_mul(prod, nf_pow(fa, e, cfg.f), cfg.f)
    check(
        "decomposition of 2 multiplies out",
        prod == FieldElement(2),
        f"product = {prod}",
    )

    check(
        "growth envelope (|x|-1)^d < f(x) < (|x|+1)^d for |x| >= 2",
        _envelope_certificate(cfg.f),
        "certified by nonnegative coefficients after shifting by 2",
    )

    return VerificationReport(cfg.case_id, checks, list(_TRUSTED))
