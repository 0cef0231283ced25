"""Absolute exponent bound from a lower bound on linear forms in logs.

The comparison runs between two certified facts: the product side of the
equation forces |1 - prod eta_i^(b_i)| below c3 * p^(-n/d), while the
general lower bound for such forms keeps it above
exp(-c9 * (1 + log(r*B))) with B <= d*(c7*n + c8).  The two collide once n
is large enough, and the least certified collision point is an absolute
upper bound for the exponent of any solution.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .realalg import DEFAULT_PREC, Ball, CaseConstants, round_div, round_sig


def matveev_c9(cc: CaseConstants, prec: int = DEFAULT_PREC) -> Fraction:
    """Rounded-up coefficient of the lower bound for the log linear form.

    With r multiplicands in a degree-d field and per-term height bounds
    A_1..A_r, the form exceeds exp(-c9*(1 + log(r*B))) where
    c9 = 3 * 30^(r+4) * (r+1)^5.5 * d^2 * (1 + log d) * A_1 * ... * A_r.
    """
    r, d = cc.rank, cc.d
    if len(cc.a_values) != r:
        raise ValueError("need exactly one height bound per multiplicand")
    chain = Ball(3 * 30 ** (r + 4), prec)
    chain = chain * Ball(r + 1, prec) ** Fraction(11, 2)
    chain = chain * d ** 2 * (1 + Ball(d, prec).log())
    for a in cc.a_values:
        chain = chain * a
    return round_sig(chain.hi, 4, "up")


def _sides(cc: CaseConstants, c9: Fraction, prec: int) -> Callable[[int], tuple[Ball, Ball]]:
    """Enclosures of the two sides of the collision inequality at exponent
    n, as a function of n; the Balls that do not depend on n are built once."""
    log_p, log_c3 = Ball(cc.p, prec).log(), Ball(cc.c3, prec).log()
    c9_ball = Ball(c9, prec)

    def sides(n: int) -> tuple[Ball, Ball]:
        lhs = Ball(n, prec) * log_p / cc.d - log_c3
        big_b = cc.rank * cc.d * (cc.c7 * n + cc.c8)
        return lhs, c9_ball * (1 + Ball(big_b, prec).log())

    return sides


def _collision_test(cc: CaseConstants, c9: Fraction, prec: int) -> Callable[[int], bool]:
    """Certified check that exponent n is already impossible, as a function
    of n: the left side of the inequality exceeds the right one."""
    sides = _sides(cc, c9, prec)

    def collides(n: int) -> bool:
        lhs, rhs = sides(n)
        return lhs.gt(rhs)

    return collides


def _collision_guess(cc: CaseConstants, c9: Fraction, sides, start: int) -> int:
    """Estimate of the exponent where the gap
    g(n) = n*log(p)/d - log(c3) - c9*(1 + log(r*d*(c7*n + c8))) turns
    positive, for a start between the gap's minimum and that point.

    In floats: one step of the fixed-point map n -> n - g(n)/(log(p)/d)
    from `start`, which stays below the crossing, then Newton's method,
    which climbs from there monotonically because g is concave.  Then one
    Newton step from the midpoint of the gap's enclosure at the rounded
    float root.  Nothing rests on the result: it only says where to start
    looking, and an input the floats cannot handle returns `start`.
    """
    slope = math.log(cc.p) / cc.d
    shift = math.log(cc.c3)
    c9f, c7, c8 = float(c9), float(cc.c7), float(cc.c8)
    rd = cc.rank * cc.d

    def gap(n: float) -> float:
        return n * slope - shift - c9f * (1 + math.log(rd * (c7 * n + c8)))

    def derivative(n: float) -> float:
        return slope - c9f * c7 / (c7 * n + c8)

    try:
        n = start - gap(start) / slope
        for _ in range(100):
            step = gap(n) / derivative(n)
            n -= step
            if abs(step) <= n * 2.0 ** -50:
                break
        guess = int(n)
        lhs, rhs = sides(guess)
        n = guess - (lhs - rhs).mid / Fraction(derivative(guess))
        return round_div(n.numerator, n.denominator)
    except (ArithmeticError, ValueError):  # overflow, a log of a negative, nan
        return start


def absolute_bound(cc: CaseConstants, c9: Fraction, prec: int = DEFAULT_PREC) -> int:
    """Certified N with no solutions at exponent n >= N.

    The gap between the two sides is increasing past its stationary point
    n_star, since the left side grows linearly while the right side grows
    logarithmically.  So N is sound as soon as collides(N) holds and
    N >= lo > n_star, and the result is such an N.  A float estimate of
    the crossing gives the first N tried; certified collides calls then
    step out from it by 1, 2, 4, ... until they bracket a change from no
    collision (or lo) to collision, and bisect that bracket, so N - 1 does
    not collide unless N = lo.  c9 is matveev_c9(cc, prec), computed once
    by the caller, which reports it too.  Requires d*c7 >= 1 so the
    unit-exponent part of B dominates the n term.
    """
    if cc.d * cc.c7 < 1:
        raise ValueError("bound on B needs d*c7 >= 1")

    # gap is increasing past n_star = (c9*c7*d/log p - c8)/c7
    log_p = Ball(cc.p, prec).log()
    n_star = (Ball(c9, prec) * cc.c7 * cc.d / log_p - cc.c8) / cc.c7
    lo = max(int(n_star.hi) + 2, 2)
    top = lo * 2 ** 64  # past this, the constants look wrong

    sides = _sides(cc, c9, prec)
    collides = _collision_test(cc, c9, prec)
    guess = min(max(_collision_guess(cc, c9, sides, lo), lo), top)
    # bracket: collides(hi), and no exponent in [lo, hi) is known to
    # collide; step down from a colliding guess, up from one that is not
    step = 1
    if collides(guess):
        hi = guess
        while hi > lo:
            below = max(hi - step, lo)
            if below == lo:
                break
            if not collides(below):
                lo = below + 1
                break
            hi, step = below, 2 * step
    else:
        below = guess
        while True:
            if below >= top:
                raise ArithmeticError("no collision found; constants look wrong")
            hi = min(below + step, top)
            if collides(hi):
                break
            below, step = hi, 2 * step
        lo = below + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if collides(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def inequality_coefficients(cc: CaseConstants, prec: int = DEFAULT_PREC) -> dict:
    """Display form of the collision inequality, rounded like the tables.

    The left slope log(p)/d is truncated and the right side's log
    coefficients are rounded up; with c9 from matveev_c9, itself rounded
    up, the displayed inequality is weaker than the certified one and
    stays true wherever the certified one holds.
    """
    log_p = Ball(cc.p, prec).log()
    rd = cc.rank * cc.d
    return {
        "lhs_slope": round_sig((log_p / cc.d).lo, 4, "trunc"),
        "lhs_shift": round_sig(Ball(cc.c3, prec).log().hi, 4, "up"),
        "log_coeff_n": round_sig(Fraction(rd) * cc.c7, 4, "up"),
        "log_coeff_1": round_sig(Fraction(rd) * cc.c8, 4, "up"),
    }
