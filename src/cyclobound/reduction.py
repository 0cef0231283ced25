"""Shrinking an astronomical exponent bound with lattice reduction.

The log linear form that Baker-type bounds control is sampled at integer
scale K: each log becomes a rounded integer, the unit exponents become
unknowns, and the form turns into a closest-vector question for a small
integer lattice.  A reduced basis certifies a lower bound on that distance
(de Weger's lemma); when the certified distance clears the rounding slack,
the exponent bound collapses from 10^27-ish to double digits.

Everything here is exact: lattice entries are rounded from each log
enclosure's dyadic midpoint in integers, the LLL pass updates an integral
Gram-Schmidt (Gram determinants and scaled mu, Cohen 2.6.7) in place after
each size reduction and swap, its output is re-verified from a fresh one,
and the only real-number steps go through Ball enclosures.  Failures
escalate the scale K instead of weakening a check.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .polyarith import det
from .realalg import (
    Ball,
    CaseConstants,
    ConjugateData,
    nearest_int,
    round_div,
)

# largest tolerated K * radius of any log enclosure
MAX_ROUNDING_SLACK = Fraction(1, 1000)
# reduction rounds before reduction_loop stops regardless
MAX_ROUNDS = 8


class PrecisionError(ArithmeticError):
    """Log enclosures too wide for the requested scale K."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _gram(cols):
    """Integral Gram-Schmidt of integer columns (Cohen 2.6.7): (lam, d).

    d[i] is the Gram determinant of the first i columns, so d[0] = 1 and
    ||b*_i||^2 = d[i + 1] / d[i]; lam[i][j] = d[j + 1] * mu[i][j] for j < i.

    >>> _gram([[2, 0], [1, 5]])
    ([[0, 0], [2, 0]], [1, 4, 100])
    """
    n = len(cols)
    lam = [[0] * n for _ in range(n)]
    d = [1] + [0] * n
    for i in range(n):
        for j in range(i + 1):
            u = _dot(cols[i], cols[j])
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
        if u == 0:
            raise ValueError("columns are linearly dependent")
        d[i + 1] = u
    return lam, d


def lll_reduce(columns):
    """LLL-reduce integer columns (delta = 3/4), Cohen Alg. 2.6.7.

    _gram runs once on the input; every size reduction and swap then
    updates lam and d in place by exact division, so they always equal a
    fresh _gram of the current basis; column k is size-reduced against
    k-1 down to 0 (round_div, inlined) before its Lovasz test.  Only the
    transform is carried: returns (reduced, transform), transform[j]
    holding the integer coefficients of reduced column j in the input
    columns (unimodular by construction) and reduced[j] their image.
    Callers should still confirm the outcome through verify_lll_reduced;
    the two share no state.
    """
    n = len(columns)
    b = [[int(x) for x in col] for col in columns]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    lam, d = _gram(b)
    k = 1
    while k < n:
        lk, uk = lam[k], u[k]
        for j in range(k - 1, -1, -1):
            dj, r2 = d[j + 1], 2 * lk[j]
            if -dj < r2 < dj:
                continue
            q = (r2 + dj) // (2 * dj) if r2 > 0 else -((dj - r2) // (2 * dj))
            uk = [x - q * y for x, y in zip(uk, u[j])]
            lk[j] -= q * dj
            for i in range(j):
                lk[i] -= q * lam[j][i]
        u[k] = uk
        m, dk0, dk, dk1 = lk[k - 1], d[k - 1], d[k], d[k + 1]
        # Lovasz condition times 4 d[k] d[k - 1]
        if 4 * (dk1 * dk0 + m * m) >= 3 * dk * dk:
            k += 1
            continue
        # Gram determinant of the first k columns after the swap
        new_d = (dk0 * dk1 + m * m) // dk
        u[k - 1], u[k] = uk, u[k - 1]
        lp = lam[k - 1]
        lp[: k - 1], lk[: k - 1] = lk[: k - 1], lp[: k - 1]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - m * t) // dk
            li[k - 1] = (new_d * t + m * li[k]) // dk1
        d[k] = new_d
        if k > 1:
            k -= 1
    return [[_dot(uj, row) for row in zip(*b)] for uj in u], u


def verify_lll_reduced(columns, reduced, transform) -> list[str]:
    """Re-derive every LLL postcondition (delta = 3/4) from scratch.

    Returns the list of violations; an empty list means the reduced basis
    is size-reduced, satisfies the exchange condition (both as integer
    inequalities on a fresh _gram), and is the image of the input under a
    determinant +-1 transform.
    """
    problems = []
    n = len(reduced)
    dim = len(columns[0])
    for j in range(n):
        image = [
            sum(columns[i][row] * transform[j][i] for i in range(n))
            for row in range(dim)
        ]
        if image != list(reduced[j]):
            problems.append(f"column {j} is not the transform image")
    if det(transform) not in (1, -1):
        problems.append("transform is not unimodular")
    try:
        lam, d = _gram(reduced)
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


def distance_lower_bound(reduced, y):
    """Certified squared distance from y to the lattice, or None.

    By de Weger's distance lemma, d(lattice, y) is at least
    2^(-(n-1)/2) * ||s_n|| * |c_1| with s the coordinates of y in the
    reduced basis and ||.|| the distance to the nearest integer; when the
    last coordinate is an exact integer the lemma says nothing.  s_n comes
    from Cramer's rule, whose two determinants share the cofactors of the
    last column.  Returns (squared bound, ||s_n||) as exact Fractions.
    """
    n = len(reduced)
    head = reduced[:-1]
    minors = [det([c[:i] + c[i + 1 :] for c in head]) for i in range(n)]
    cofactors = [(-1) ** (n - 1 + i) * x for i, x in enumerate(minors)]
    volume = _dot(cofactors, reduced[-1])
    if volume == 0:
        raise ValueError("columns are linearly dependent")
    s_n = Fraction(_dot(cofactors, y), volume)
    frac = abs(s_n - nearest_int(s_n))
    if frac == 0:
        return None
    c1_sq = _dot(reduced[0], reduced[0])
    return frac * frac * Fraction(c1_sq, 2 ** (n - 1)), frac


# ---------------------------------------------------------------------------
# from field data to lattices


class _GammaLogs:
    """Log enclosures of the form's terms for one choice of gamma.

    lam1[di][j] covers log|2/delta^d| at embedding j for delta di,
    lam2[j] covers log|p/gamma^d|, and lam_units[t][j] covers
    -d*log|unit_t| (the sign the exponent vector carries), for the etas
    of conj (computed once per ConjugateData, as are the logs); mid1,
    mid2 and mid_units hold their midpoints as Ball.dyadic_mid pairs.
    """

    def __init__(self, conj: ConjugateData, gamma_index: int):
        eta1, eta2, units = conj.etas
        d = conj.d
        half = d // 2
        self.lam1 = [[conj.log_abs(e, j) for j in range(half)] for e in eta1]
        self.lam2 = [conj.log_abs(eta2[gamma_index], j) for j in range(half)]
        self.lam_units = [
            [conj.log_abs(u, j) * (-d) for j in range(half)] for u in units
        ]
        everything = self.lam2 + [
            b for row in self.lam1 + self.lam_units for b in row
        ]
        self.max_rad = max(b.rad for b in everything)
        self.mid1 = [[b.dyadic_mid() for b in row] for row in self.lam1]
        self.mid2 = [b.dyadic_mid() for b in self.lam2]
        self.mid_units = [[b.dyadic_mid() for b in row] for row in self.lam_units]


def _theta(mid: tuple[int, int], K: int) -> int:
    """nearest_int(K * m * 2**e) for mid = (m, e), on integers only."""
    m, e = mid
    return K * m << e if e >= 0 else round_div(K * m, 1 << -e)


class ReductionAttempt(namedtuple("ReductionAttempt", (
    "gamma_index", "delta_index", "choice", "K", "ok", "reason", "rho",
    "c1_norm_sq", "s_fractional", "distance_sq", "c_lower", "new_bound",
), defaults=(None,) * 5)):
    """One (gamma, delta, conjugate choice, K) reduction attempt, immutable.

    rho, s_fractional, distance_sq and c_lower are Fractions; the last five
    fields default to None, and a failed attempt sets only those its tests
    reached.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        out = {
            "gamma_index": self.gamma_index,
            "delta_index": self.delta_index,
            "choice": list(self.choice),
            "K": self.K,
            "ok": self.ok,
            "reason": self.reason,
        }
        if self.ok:
            out["c1_norm"] = math.sqrt(float(self.c1_norm_sq))
            out["s_fractional"] = float(self.s_fractional)
            out["distance"] = math.sqrt(float(self.distance_sq))
            out["c_lower"] = float(self.c_lower)
            out["new_bound"] = self.new_bound
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


class _ReducedLattice:
    """One lattice (gamma, choice, K) with its verified reduced basis."""

    def __init__(self, logs: _GammaLogs, choice: tuple[int, ...], K: int):
        rows = [j - 1 for j in choice]
        self.choice = choice
        self.K = K
        cols = [
            [_theta(mid[j], K) for j in rows] + [0] for mid in logs.mid_units
        ]
        cols.append([_theta(logs.mid2[j], K) for j in rows] + [1])
        self.reduced, self.transform = lll_reduce(cols)
        problems = verify_lll_reduced(cols, self.reduced, self.transform)
        if problems:
            raise ArithmeticError("; ".join(problems))
        self.rows = rows

    def target(self, logs: _GammaLogs, delta_index: int):
        return [-_theta(logs.mid1[delta_index][j], self.K) for j in self.rows] + [0]


def _attempt(
    cc: CaseConstants,
    logs: _GammaLogs,
    lattice: _ReducedLattice,
    gamma_index: int,
    delta_index: int,
    bound_n: int,
    prec: int,
    log_c3: Ball,
    d_log_p: Ball,
) -> ReductionAttempt:
    r = cc.rank
    K = lattice.K
    rho = K * logs.max_rad
    base = dict(
        gamma_index=gamma_index,
        delta_index=delta_index,
        choice=lattice.choice,
        K=K,
        rho=rho,
    )
    got = distance_lower_bound(lattice.reduced, lattice.target(logs, delta_index))
    if got is None:
        return ReductionAttempt(ok=False, reason="target lies on a lattice line", **base)
    dist_sq, frac = got
    base.update(s_fractional=frac, distance_sq=dist_sq)
    gap = dist_sq - bound_n * bound_n
    if gap <= 0:
        return ReductionAttempt(
            ok=False, reason="distance bound does not clear the current bound", **base
        )

    c10 = (Fraction(1, 2) + rho) * (1 + (r - 2) * cc.c7)
    c11 = (Fraction(1, 2) + rho) * (1 + (r - 2) * cc.c8)
    margin = Ball(Fraction(gap, r - 2), prec).sqrt() - (c10 * bound_n + c11)
    if not margin.lo > 0:
        return ReductionAttempt(
            ok=False, reason="rounding slack swallows the distance margin", **base
        )
    c_ball = Ball(bound_n, prec) ** Fraction(1, r - 2) / K * margin
    c_lower = c_ball.lo
    if c_lower <= 0:
        return ReductionAttempt(ok=False, reason="certified c is not positive", **base)

    log_c = Ball(c_lower, prec).log()
    new_ball = d_log_p * (log_c3 - log_c + Ball(bound_n, prec).log() / (r - 2))
    new_bound = math.floor(new_ball.hi)
    return ReductionAttempt(
        ok=True,
        reason="",
        c1_norm_sq=_dot(lattice.reduced[0], lattice.reduced[0]),
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
    fallbacks.  The first scale K is always tried, and an oversized one
    raises PrecisionError before any lattice is built; while a branch is
    left open, K is multiplied by 100 for as long as K * radius stays
    within MAX_ROUNDING_SLACK, i.e. while the log enclosures are still
    accurate at that scale.  A branch left without a bound fails the round
    rather than inheriting a neighbour's.
    """
    cfg, prec = conj.cfg, conj.prec
    # invariants of _attempt's bound step
    log_c3 = _c3_effective(cc, prec).log()
    d_log_p = Ball(cc.d, prec) / Ball(cc.p, prec).log()
    attempts: list[ReductionAttempt] = []
    branch_bounds: list[int] = []
    all_ok = True
    for gi in range(len(cfg.norm_p_gammas)):
        logs = _GammaLogs(conj, gi)
        rho = scale * logs.max_rad
        if rho > MAX_ROUNDING_SLACK:
            raise PrecisionError(
                f"K*radius = {float(rho):.2e} exceeds {float(MAX_ROUNDING_SLACK)}"
            )
        default = cfg.default_conjugate_choice[gi]
        others = itertools.combinations(range(1, cfg.d // 2 + 1), cc.rank - 2)
        choices = [default] + [c for c in others if c != default]
        pending = set(range(len(cfg.deltas)))
        found: dict[int, ReductionAttempt] = {}
        K = scale
        while pending:
            for choice in choices:
                try:
                    lattice = _ReducedLattice(logs, choice, K)
                except (ValueError, ArithmeticError) as err:
                    attempts.append(
                        ReductionAttempt(
                            gamma_index=gi,
                            delta_index=-1,
                            choice=choice,
                            K=K,
                            ok=False,
                            reason=f"lattice rejected: {err}",
                            rho=K * logs.max_rad,
                        )
                    )
                    continue
                for di in sorted(pending):
                    att = _attempt(cc, logs, lattice, gi, di, bound_n, prec, log_c3, d_log_p)
                    attempts.append(att)
                    if att.ok:
                        found[di] = att
                pending -= set(found)
                if not pending:
                    break
            K *= 100
            if K * logs.max_rad > MAX_ROUNDING_SLACK:
                break
        if pending:
            all_ok = False
        branch_bounds.extend(a.new_bound for a in found.values())
    bound = max(branch_bounds) if (all_ok and branch_bounds) else None
    return ReductionRound(
        start_bound=bound_n,
        scale=scale,
        ok=bound is not None,
        bound=bound,
        attempts=tuple(attempts),
    )


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
