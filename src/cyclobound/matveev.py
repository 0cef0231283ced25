"""Absolute exponent bound from a lower bound on linear forms in logs.

The comparison runs between two certified facts: the product side of the
equation forces |1 - prod eta_i^(b_i)| below c3 * p^(-n/d), while the
general lower bound for such forms keeps it above
exp(-c9 * (1 + log(r*B))) with B <= d*(c7*n + c8).  The two collide once n
is large enough, and the least certified collision point is an absolute
upper bound for the exponent of any solution.
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .realalg import DEFAULT_PREC, Ball, CaseConstants, round_sig


def matveev_c9(cc: CaseConstants, prec: int = DEFAULT_PREC) -> Fraction:
    """Rounded-up coefficient of the lower bound for the log linear form.

    With r multiplicands in a degree-d field and per-term height bounds
    A_1..A_r, the form exceeds exp(-c9*(1 + log(r*B))) where
    c9 = 3 * 30^(r+4) * (r+1)^5.5 * d^2 * (1 + log d) * A_1 * ... * A_r.
    """
    r, d = cc.rank, cc.d
    if len(cc.a_values) != r:
        raise ValueError("need exactly one height bound per multiplicand")
    chain = Ball(3, prec) * Ball(30, prec) ** (r + 4)
    chain = chain * Ball(r + 1, prec) ** Fraction(11, 2)
    chain = chain * d ** 2 * (1 + Ball(d, prec).log())
    for a in cc.a_values:
        chain = chain * a
    return round_sig(chain.hi, 4, "up")


def _collision_test(cc: CaseConstants, c9: Fraction, prec: int) -> Callable[[int], bool]:
    """Certified check that exponent n is already impossible, as a function
    of n; the Balls that do not depend on n are built once."""
    log_p, log_c3 = Ball(cc.p, prec).log(), Ball(cc.c3, prec).log()
    c9_ball = Ball(c9, prec)

    def collides(n: int) -> bool:
        lhs = Ball(n, prec) * log_p / cc.d - log_c3
        big_b = cc.rank * cc.d * (cc.c7 * n + cc.c8)
        rhs = c9_ball * (1 + Ball(big_b, prec).log())
        return lhs.gt(rhs)

    return collides


def absolute_bound(cc: CaseConstants, prec: int = DEFAULT_PREC) -> int:
    """Least certified N with no solutions at exponent n >= N.

    Past the stationary point of the gap the left side grows linearly
    while the right side grows logarithmically, so one certified collision
    settles every larger exponent; the search brackets and bisects above
    that point.  Requires d*c7 >= 1 so the unit-exponent part of B
    dominates the n term.
    """
    if cc.d * cc.c7 < 1:
        raise ValueError("bound on B needs d*c7 >= 1")
    c9 = matveev_c9(cc, prec)

    # gap is increasing past n_star = (c9*c7*d/log p - c8)/c7
    log_p = Ball(cc.p, prec).log()
    n_star = (Ball(c9, prec) * cc.c7 * cc.d / log_p - cc.c8) / cc.c7
    lo = max(int(n_star.hi) + 2, 2)

    collides = _collision_test(cc, c9, prec)
    hi = lo
    while not collides(hi):
        hi *= 2
        if hi > lo * 2 ** 64:
            raise ArithmeticError("no collision found; constants look wrong")
    while lo < hi:
        mid = (lo + hi) // 2
        if collides(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def inequality_coefficients(cc: CaseConstants, prec: int = DEFAULT_PREC) -> dict:
    """Display form of the collision inequality, rounded like the tables.

    The left slope log(p)/d is truncated, everything on the right is
    rounded up, so the displayed inequality is weaker than the certified
    one and stays true wherever the certified one holds.
    """
    log_p = Ball(cc.p, prec).log()
    rd = cc.rank * cc.d
    return {
        "lhs_slope": round_sig((log_p / cc.d).lo, 4, "trunc"),
        "lhs_shift": round_sig(Ball(cc.c3, prec).log().hi, 4, "up"),
        "c9": matveev_c9(cc, prec),
        "log_coeff_n": round_sig(Fraction(rd) * cc.c7, 4, "up"),
        "log_coeff_1": round_sig(Fraction(rd) * cc.c8, 4, "up"),
    }
