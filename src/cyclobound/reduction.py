"""Shrinking an astronomical exponent bound with lattice reduction.

The log linear form that Baker-type bounds control is sampled at integer
scale K: each log becomes a rounded integer, the unit exponents become
unknowns, and the form turns into a closest-vector question for a small
integer lattice.  A reduced basis certifies a lower bound on that distance
(de Weger's lemma); when the certified distance clears the rounding slack,
the exponent bound collapses from 10^27-ish to double digits.

Everything here is exact: lattice entries are rounded from each log
enclosure's dyadic midpoint in integers, the LLL pass (Cohen 2.6.7, in
his order) updates an integral Gram-Schmidt in place, its output is
re-verified from a fresh one, and the only real-number steps go through
Ball enclosures.  Failures escalate the scale K instead of weakening a
check.

A lattice too small to clear the bound is settled before LLL runs.  A
delta = 3/4 reduced basis of n columns has ||b_1||^(2n) <= 2^(n(n-1)/2) d_n
(Lenstra-Lenstra-Lovasz 1982, Prop. 1.6; Cohen, GTM 138, Thm 2.6.2), and
the lemma's ||s_n|| is at most 1/2, so its distance bound is at most
||b_1||^2 / 2^(n+1).  When 0 < d_n <= 2^(n(n+3)/2) * bound^(2n) that is at
most bound^2 for every reduced basis (_futile), and each attempt on the
lattice fails with the reason the distance test would give, without LLL,
its verification or the distance lemma.
"""
from __future__ import annotations

import decimal
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .polyarith import det
from .realalg import (
    Ball,
    CaseConstants,
    ConjugateData,
    int_root,
    max_rad,
    round_div,
    round_sig,
)

# largest tolerated K * radius of any log enclosure
MAX_ROUNDING_SLACK = Fraction(1, 1000)
# reduction rounds before reduction_loop stops regardless
MAX_ROUNDS = 8


class PrecisionError(ArithmeticError):
    """Log enclosures too wide for the requested scale K."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _gram_row(v, cols, lam, d, row):
    """row[j] = d[j + 1] * mu(v, j) for each column j of cols; returns the last."""
    for j, c in enumerate(cols):
        u = _dot(v, c)
        for t in range(j):
            u = (d[t + 1] * u - row[t] * lam[j][t]) // d[t]
        row[j] = u
    return u


def _gram(cols):
    """Integral Gram-Schmidt of integer columns (Cohen 2.6.7): (lam, d).

    d[i] is the Gram determinant of the first i columns, so d[0] = 1 and
    ||b*_i||^2 = d[i + 1] / d[i]; lam[i][j] = d[j + 1] * mu[i][j] for j < i.

    >>> _gram([[2, 0], [1, 5]])
    ([[0, 0], [2, 0]], [1, 4, 100])
    """
    n = len(cols)
    lam = [[0] * n for _ in range(n)]
    d = [1]
    for i, c in enumerate(cols):
        d.append(_gram_row(c, cols[: i + 1], lam, d, lam[i]))
        lam[i][i] = 0
        if d[-1] == 0:
            raise ValueError("columns are linearly dependent")
    return lam, d


def _swap_det(dm, dk, dp, m):
    """d_k after swapping columns k-1 and k, or 0 if the Lovasz condition
    4 (dp dm + m^2) >= 3 dk^2 holds; dm, dk, dp = d_(k-1), d_k, d_(k+1),
    m = lam_(k,k-1), |m| <= dk/2.  Bit lengths settle it if b = bl(dp) +
    bl(dm) - 2 bl(dk) >= 2 (4 dp dm > 3 dk^2) or <= -3 (4 dp dm < 2 dk^2
    and 4 m^2 <= dk^2).
    """
    b = dp.bit_length() + dm.bit_length() - 2 * dk.bit_length()
    if b >= 2:
        return 0
    s = dp * dm + m * m
    return s // dk if b <= -3 or 4 * s < 3 * dk * dk else 0


def lll_reduce(columns):
    """LLL-reduce integer columns (delta = 3/4), Cohen Alg. 2.6.7.

    _gram runs once on the input; every size reduction and swap then
    updates lam and d in place by exact division, so they always equal a
    fresh _gram of the current basis; column k is size-reduced against
    k-1 (round_div, inlined), Lovasz-tested (_swap_det) and, if it stays,
    against k-2 down to 0.  Only the transform is carried: returns
    (reduced, transform), transform[j] holding the integer coefficients of
    reduced column j in the input columns (unimodular by construction) and
    reduced[j] their image.  Callers should still confirm the outcome
    through verify_lll_reduced; the two share no state.

    D = d_1 * ... * d_(n-1) is a positive integer, and each swap
    multiplies it by less than 3/4, so a correct run makes fewer than
    bitlen(D) / log2(4/3) swaps; one more raises ArithmeticError rather
    than looping on a wrong Lovasz decision.
    """
    n = len(columns)
    b = [[int(x) for x in col] for col in columns]
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    lam, d = _gram(b)
    swaps_left = math.ceil(math.prod(d[1:n]).bit_length() / math.log2(4 / 3))
    k = 1
    while k < n:
        lk = lam[k]
        for j in reversed(range(k)):
            dj, r2 = d[j + 1], 2 * lk[j]
            if not -dj < r2 < dj:
                q = (r2 + dj) // (2 * dj) if r2 > 0 else -((dj - r2) // (2 * dj))
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                lk[j] -= q * dj
                for i in range(j):
                    lk[i] -= q * lam[j][i]
            if j < k - 1:  # only RED(k, k-1) is followed by the test
                continue
            m, dk, dk1 = lk[j], d[k], d[k + 1]
            new_d = _swap_det(d[j], dk, dk1, m)
            if new_d:
                if not swaps_left:
                    raise ArithmeticError("LLL exceeded its swap bound")
                swaps_left -= 1
                u[j], u[k] = u[k], u[j]
                lam[j][:j], lk[:j] = lk[:j], lam[j][:j]
                for li in lam[k + 1 :]:
                    t = li[k]
                    li[k] = (dk1 * li[j] - m * t) // dk
                    li[j] = (new_d * t + m * li[k]) // dk1
                d[k] = new_d
                k = max(k - 1, 1)
                break
        else:
            k += 1
    return [[_dot(uj, row) for row in zip(*b)] for uj in u], u


def verify_lll_reduced(columns, reduced, transform, gram=None) -> list[str]:
    """Re-derive every LLL postcondition (delta = 3/4) from scratch.

    Returns the list of violations; an empty list means the reduced basis
    is size-reduced, satisfies the exchange condition (both as integer
    inequalities on a fresh _gram), and is the image of the input under a
    determinant +-1 transform.  gram, when given, is _gram(reduced),
    computed by the caller from the reduced columns alone.
    """
    problems = []
    n = len(reduced)
    rows = list(zip(*columns))
    for j in range(n):
        if [_dot(transform[j], row) for row in rows] != list(reduced[j]):
            problems.append(f"column {j} is not the transform image")
    if det(transform) not in (1, -1):
        problems.append("transform is not unimodular")
    try:
        lam, d = gram or _gram(reduced)
    except ValueError:
        problems.append("reduced columns are dependent")
        return problems
    for i in range(n):
        for j in range(i):
            if 2 * abs(lam[i][j]) > d[j + 1]:
                problems.append(f"size reduction fails at ({i},{j})")
    for k in range(1, n):
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 3 * d[k] ** 2:
            problems.append(f"exchange condition fails at column {k}")
    return problems


def distance_lower_bound(reduced, y, gram=None):
    """Certified squared distance from y to the lattice, or None.

    By de Weger's distance lemma, d(lattice, y) is at least
    2^(-(n-1)/2) * ||s_n|| * |c_1| with s the coordinates of y in the
    reduced basis and ||.|| the distance to the nearest integer; when the
    last coordinate is an exact integer the lemma says nothing.  s_n is
    y's last Gram-Schmidt coefficient, read off its row against gram =
    _gram(reduced).  Returns (squared bound, ||s_n||) as exact Fractions.
    """
    lam, d = gram or _gram(reduced)
    n = len(reduced)
    # s_n = u / d_n, and ||s_n|| = t / d_n
    u, dn = _gram_row(y, reduced, lam, d, [0] * n), d[n]
    t = abs(u - round_div(u, dn) * dn)
    if not t:
        return None
    frac = Fraction(t, dn)
    a, b = frac.numerator, frac.denominator
    return Fraction(a * a * d[1], b * b << n - 1), frac


# ---------------------------------------------------------------------------
# from field data to lattices


def _futile(d_n: int, n: int, bound_n: int) -> bool:
    """True when no delta = 3/4 reduced basis of an n-column lattice with
    Gram determinant d_n can certify a distance above bound_n: then
    d_1^n <= 2^(n(n-1)/2) d_n <= 2^(n(n+1)) bound_n^(2n), and the distance
    lemma gives at most d_1 / 2^(n+1) <= bound_n^2.  A zero d_n (dependent
    columns) is left for LLL to reject.

    >>> _futile(2**5 * 3**4, 2, 3), _futile(2**5 * 3**4 + 1, 2, 3), _futile(0, 2, 3)
    (True, False, False)
    """
    return 0 < d_n <= bound_n ** (2 * n) << n * (n + 3) // 2


def _theta(mid: tuple[int, int], K: int) -> int:
    """K * m * 2**e rounded to nearest, ties away from zero, for mid = (m, e),
    on integers only."""
    m, e = mid
    return K * m << e if e >= 0 else round_div(K * m, 1 << -e)


class ReductionAttempt(namedtuple("ReductionAttempt", (
    "gamma_index", "delta_index", "choice", "K", "ok", "reason", "rho",
    "c1_norm_sq", "s_fractional", "distance_sq", "c_lower", "new_bound",
), defaults=(None,) * 5)):
    """One (gamma, delta, conjugate choice, K) reduction attempt, immutable.

    rho, s_fractional, distance_sq and c_lower are Fractions; the last five
    fields default to None, and a failed attempt sets only those its tests
    reached.  An attempt on a lattice that _futile settles reaches no
    distance test: it fails with SHORT_DISTANCE and sets none of the five.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        # the first six fields, choice as a list
        out = dict(zip(self._fields[:6], self), choice=list(self.choice))
        if self.ok:
            out.update(
                c1_norm=math.sqrt(float(self.c1_norm_sq)),
                s_fractional=float(self.s_fractional),
                distance=math.sqrt(float(self.distance_sq)),
                c_lower=float(self.c_lower),
                new_bound=self.new_bound,
            )
        return out


def _c3_effective(cc: CaseConstants, prec: int) -> Ball:
    """c3 adjusted so it bounds |log t|, not just |t - 1|.

    The product side keeps |t - 1| below eps = c3 * p^(-n/d); then
    |log t| <= -log(1 - eps) <= eps / (1 - eps), so scaling c3 by
    1/(1 - eps) at the proved exponent floor covers every larger n.  At
    four digits this is a no-op for the built-in cases, but it is what
    makes the step an inequality rather than an approximation.
    """
    eps = Ball(cc.c3, prec) / Ball(cc.p, prec) ** Fraction(cc.n_lower, cc.d)
    if not eps.hi < 1:
        raise ArithmeticError("exponent floor too small to control the form")
    return Ball(cc.c3, prec) / (1 - eps)


class _RoundInputs:
    """What every lattice and attempt of one round reads, built once.

    lam1[di][j] covers log|2/delta^d| = log 2 - d*log|delta| at embedding
    j for delta di, lam2[gi][j] covers log p - d*log|gamma| for norm-p
    gamma gi, and lam_units[t][j] covers -d*log|unit_t| (the sign the
    exponent vector carries), for the Multiplicands of conj.etas, none of
    them built in the field (each log once by _log's memo); mid1, mid2
    and mid_units hold their midpoints as Ball.dyadic_mid pairs, and
    max_rad[gi] is the widest radius in gamma gi's form.  log_c3, d_log_p
    = d / log p, bound_root = bound_n ** (1/(r-2)) and log_bound are taken
    at once.
    """

    def __init__(self, conj: ConjugateData, cc: CaseConstants, bound_n: int):
        prec = conj.prec
        self.cc, self.bound_n, self.prec = cc, bound_n, prec
        self.log_c3 = _c3_effective(cc, prec).log()
        self.d_log_p = Ball(cc.d, prec) / Ball(cc.p, prec).log()
        eta1, eta2, units = conj.etas
        d = conj.d
        js = range(d // 2)
        self.lam1 = [[conj.log_abs(e, j) for j in js] for e in eta1]
        self.lam_units = [[conj.log_abs(u, j) * -d for j in js] for u in units]
        self.lam2 = [[conj.log_abs(g, j) for j in js] for g in eta2]
        self.mid1, self.mid2, self.mid_units = (
            [[b.dyadic_mid() for b in row] for row in rows]
            for rows in (self.lam1, self.lam2, self.lam_units)
        )
        shared = [b for row in self.lam1 + self.lam_units for b in row]
        self.max_rad = [max_rad(row + shared) for row in self.lam2]
        self.bound_root = int_root(bound_n, cc.rank - 2, prec)
        self.log_bound = Ball(bound_n, prec).log()

    def unit_block(self, choice: tuple[int, ...], K: int) -> list:
        """Each unit's K-scaled log midpoints on the chosen embeddings."""
        return [[_theta(mid[j - 1], K) for j in choice] for mid in self.mid_units]

    def columns(self, gamma_index: int, choice: tuple[int, ...], K: int) -> list:
        """The lattice (gamma, choice, K): the unit block's columns over a
        last entry 0, then gamma's K-scaled log midpoints over a 1.  So its
        determinant is +-det(unit_block), the same for every gamma."""
        cols = [c + [0] for c in self.unit_block(choice, K)]
        cols.append([_theta(self.mid2[gamma_index][j - 1], K) for j in choice] + [1])
        return cols


class _ReducedLattice:
    """One lattice (gamma, choice, K): its verified reduced basis and gram."""

    def __init__(self, rnd: _RoundInputs, gamma_index: int, choice: tuple[int, ...], K: int):
        self.choice = choice
        self.K = K
        cols = rnd.columns(gamma_index, choice, K)
        self.reduced, self.transform = lll_reduce(cols)
        # from the reduced columns, not LLL's state; verify and the
        # distance lemma both read it
        self.gram = _gram(self.reduced)
        problems = verify_lll_reduced(cols, self.reduced, self.transform, self.gram)
        if problems:
            raise ArithmeticError("; ".join(problems))

    def target(self, rnd: _RoundInputs, delta_index: int):
        return [-_theta(rnd.mid1[delta_index][j - 1], self.K) for j in self.choice] + [0]


SHORT_DISTANCE = "distance bound does not clear the current bound"


def _attempt(
    rnd: _RoundInputs, lattice: _ReducedLattice, gamma_index: int, delta_index: int
) -> ReductionAttempt:
    cc, bound_n, prec = rnd.cc, rnd.bound_n, rnd.prec
    r = cc.rank
    K = lattice.K
    rho = K * rnd.max_rad[gamma_index]
    base = dict(gamma_index=gamma_index, delta_index=delta_index,
                choice=lattice.choice, K=K, rho=rho)

    def fail(reason):
        return ReductionAttempt(ok=False, reason=reason, **base)

    got = distance_lower_bound(lattice.reduced, lattice.target(rnd, delta_index), lattice.gram)
    if got is None:
        return fail("target lies on a lattice line")
    dist_sq, frac = got
    base.update(s_fractional=frac, distance_sq=dist_sq)
    gap = dist_sq - bound_n * bound_n
    if gap <= 0:
        return fail(SHORT_DISTANCE)

    c10 = (Fraction(1, 2) + rho) * (1 + (r - 2) * cc.c7)
    c11 = (Fraction(1, 2) + rho) * (1 + (r - 2) * cc.c8)
    margin = Ball(Fraction(gap, r - 2), prec).sqrt() - (c10 * bound_n + c11)
    if not margin.lo > 0:
        return fail("rounding slack swallows the distance margin")
    c_lower = (rnd.bound_root / K * margin).lo
    if c_lower <= 0:
        return fail("certified c is not positive")

    log_c = Ball(c_lower, prec).log()
    new_ball = rnd.d_log_p * (rnd.log_c3 - log_c + rnd.log_bound / (r - 2))
    new_bound = math.floor(new_ball.hi)
    return ReductionAttempt(
        ok=True,
        reason="",
        c1_norm_sq=lattice.gram[1][1],  # d[1]
        c_lower=c_lower,
        new_bound=new_bound,
        **base,
    )


class ReductionRound(namedtuple(
    "ReductionRound", ("start_bound", "scale", "ok", "bound", "attempts"),
)):
    """One round: its attempts (a tuple of ReductionAttempt) and the bound,
    None when the round failed.  Immutable."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "attempts": [a.to_dict() for a in self.attempts]}


class ReductionReport(namedtuple(
    "ReductionReport", ("case_id", "start_bound", "final_bound", "rounds"),
)):
    """Every round of reduction_loop (a tuple of ReductionRound) and the
    bound it ended with.  Immutable; _replace(**changes) copies it."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rounds) and self.final_bound < self.start_bound

    def to_dict(self) -> dict:
        return {**self._asdict(), "rounds": [r.to_dict() for r in self.rounds]}


def reduce_case_bound(
    conj: ConjugateData, cc: CaseConstants, bound_n: int, scale: int
) -> ReductionRound:
    """One reduction round: a certified bound covering every branch.

    Every (gamma, delta) branch must produce a positive certified c; the
    round bound is the worst branch bound.  Per gamma, the configured
    conjugate choice is tried first and the remaining choices serve as
    fallbacks.  A lattice that _futile settles from its Gram determinant
    det(unit_block)^2 is not reduced: each pending delta gets a failed
    attempt with SHORT_DISTANCE, the reason its distance test would give,
    and no distance test runs.  One case differs: where the target's last
    coordinate s_n is an exact integer, the full path ends "target lies on
    a lattice line" instead.  Both reasons are true there, and no lattice
    at the default K or on the escalate benchmark's K grid meets it.  The
    first scale K is always tried, and an oversized one raises
    PrecisionError before any lattice is built; while a branch is left
    open, K is multiplied by 100 for as long as K * radius stays within
    MAX_ROUNDING_SLACK, i.e. while the log enclosures are still accurate
    at that scale.  A branch left without a bound fails the round rather
    than inheriting a neighbour's.
    """
    cfg = conj.cfg
    rnd = _RoundInputs(conj, cc, bound_n)
    attempts: list[ReductionAttempt] = []
    branch_bounds: list[int] = []
    all_ok = True
    for gi, radius in enumerate(rnd.max_rad):
        rho = scale * radius
        if rho > MAX_ROUNDING_SLACK:
            raise PrecisionError(
                f"K*radius = {_sci(rho)} exceeds {float(MAX_ROUNDING_SLACK)}"
            )
        default = cfg.default_conjugate_choice[gi]
        others = itertools.combinations(range(1, cfg.d // 2 + 1), cc.rank - 2)
        choices = [default] + [c for c in others if c != default]
        pending = set(range(len(cfg.deltas)))
        found: dict[int, ReductionAttempt] = {}
        K = scale
        while pending:
            for choice in choices:
                if _futile(det(rnd.unit_block(choice, K)) ** 2, cc.rank - 1, bound_n):
                    attempts.extend(
                        ReductionAttempt(gi, di, choice, K, False, SHORT_DISTANCE, K * radius)
                        for di in sorted(pending)
                    )
                    continue
                try:
                    lattice = _ReducedLattice(rnd, gi, choice, K)
                except (ValueError, ArithmeticError) as err:
                    attempts.append(ReductionAttempt(
                        gi, -1, choice, K, False, f"lattice rejected: {err}", K * radius
                    ))
                    continue
                for di in sorted(pending):
                    att = _attempt(rnd, lattice, gi, di)
                    attempts.append(att)
                    if att.ok:
                        found[di] = att
                pending -= set(found)
                if not pending:
                    break
            K *= 100
            if K * radius > MAX_ROUNDING_SLACK:
                break
        if pending:
            all_ok = False
        branch_bounds.extend(a.new_bound for a in found.values())
    bound = max(branch_bounds) if (all_ok and branch_bounds) else None
    return ReductionRound(bound_n, scale, bound is not None, bound, tuple(attempts))


def _sci(x: Fraction) -> str:
    """x > 0 in the form of f"{x:.2e}": three significant digits, rounded
    to nearest (ties away from zero) on x's integers, so a K*radius of any
    size prints.

    >>> _sci(Fraction(10**400, 3)), _sci(Fraction(2, 10**9))
    ('3.33e+399', '2.00e-09')
    """
    r = round_sig(x, 3, "nearest")
    digits, exp = format(decimal.Decimal(r.numerator) / r.denominator, ".2e").split("e")
    return f"{digits}e{int(exp):+03d}"


def _next_scale(bound_n: int, rank: int) -> int:
    """Power of ten comfortably above bound^((r-1)/(r-2))."""
    exponent = 2 + (rank - 1) / (rank - 2) * math.log10(max(bound_n, 2))
    return 10 ** math.ceil(exponent)


def reduction_loop(
    conj: ConjugateData, cc: CaseConstants, start_bound: int, stop_below: int, scale: int
) -> ReductionReport:
    """Iterate reduction rounds until the bound stalls or is small enough.

    The first round runs at lattice scale `scale`.  stop_below is a proved
    strict lower bound on the exponent of any solution; the loop stops as
    soon as the upper bound drops to it or less, since that empties the
    solution range.
    """
    bound_n = start_bound
    rounds: list[ReductionRound] = []
    for _ in range(MAX_ROUNDS):
        rnd = reduce_case_bound(conj, cc, bound_n, scale)
        rounds.append(rnd)
        if not rnd.ok or rnd.bound >= bound_n:
            break
        bound_n = rnd.bound
        if bound_n <= stop_below:
            break
        scale = _next_scale(bound_n, cc.rank)
    return ReductionReport(conj.cfg.case_id, start_bound, bound_n, tuple(rounds))
