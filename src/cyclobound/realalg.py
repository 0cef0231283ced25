"""Certified numerics: interval scalars, root enclosures, rounded constants.

Every archimedean quantity in the bound chain is carried as a Ball, an
interval with exact binary endpoints that an integer kernel rounds
outward, so comparisons and rounded constants are proved rather than
sampled.  Each endpoint of +, -, *, /, sqrt, log, exp and atan2 is its
exact value rounded outward to the ball's precision, from Python's
integers alone.  Polynomial roots are located by Durand-Kerner in machine
floats, polished by Newton in integer fixed point, and then certified
independently by an exact disc test.
Constants are rounded to four significant digits in a fixed direction,
and each one is checked against its enclosure in the direction that
keeps it a valid bound; a failed check raises instead of weakening the
result.
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .numberfield import CaseConfig, FieldElement, charpoly, nf_inverse, nf_mul, nf_pow
from .polyarith import IntPoly, det, poly_derivative

DEFAULT_PREC = 256


class Ball:
    """Closed real interval guaranteed to contain the value it stands for.

    The interval is a kernel tuple (lo_m, lo_e, hi_m, hi_e) rounded outward
    at prec bits; an operation on two balls runs at the wider of their
    precisions.  A power other than 2 is exp(e * log), so it needs a
    strictly positive ball.  A Ball is made from an int, a Fraction or
    another Ball (whose endpoints it keeps).
    """

    __slots__ = ("_iv", "prec")

    def __init__(self, value, prec: int = DEFAULT_PREC):
        if isinstance(value, Ball):
            self._iv = value._iv
        elif isinstance(value, int):
            self._iv = _const(value, prec)
        elif isinstance(value, Fraction):
            # an int interval over an int interval; the frozen outputs rest
            # on this rounding, which differs from libmp's from_rational
            self._iv = _div(_const(value.numerator, prec), _const(value.denominator, prec), prec)
        else:
            raise TypeError(f"cannot make a Ball from {type(value).__name__}")
        self.prec = prec

    @classmethod
    def _make(cls, iv, prec: int) -> "Ball":
        """The ball with the given kernel interval."""
        out = object.__new__(cls)
        out._iv = iv
        out.prec = prec
        return out

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int = DEFAULT_PREC) -> "Ball":
        """Smallest representable interval containing [lo, hi]."""
        if lo > hi:
            raise ValueError("endpoints out of order")
        a, b = cls(Fraction(lo), prec)._iv, cls(Fraction(hi), prec)._iv
        return cls._make(a[:2] + b[2:], prec)

    @property
    def lo(self) -> Fraction:
        return _fraction(*self._iv[:2])

    @property
    def hi(self) -> Fraction:
        return _fraction(*self._iv[2:])

    @property
    def mid(self) -> Fraction:
        return _fraction(*self.dyadic_mid())

    def dyadic_mid(self) -> tuple[int, int]:
        """The midpoint as an exact pair (n, e) worth n * 2**e."""
        m1, e1, m2, e2 = self._iv
        e = min(e1, e2)
        return (m1 << e1 - e) + (m2 << e2 - e), e - 1

    @property
    def rad(self) -> Fraction:
        return max_rad((self,))

    def _binary(self, op, other, swap: bool = False) -> "Ball":
        """op(self, other), or op(other, self) when swap is set."""
        if not isinstance(other, Ball):
            other = Ball(other, self.prec)
        prec = max(self.prec, other.prec)
        x, y = (other, self) if swap else (self, other)
        return Ball._make(op(x._iv, y._iv, prec), prec)

    def _unary(self, op, *args) -> "Ball":
        return Ball._make(op(self._iv, *args, self.prec), self.prec)

    def __add__(self, other):
        return self._binary(_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(_sub, other)

    def __rsub__(self, other):
        return self._binary(_sub, other, swap=True)

    def __mul__(self, other):
        return self._binary(_mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(_div, other)

    def __neg__(self):
        return self._unary(_neg)

    def __abs__(self):
        return self._unary(_abs)

    def __pow__(self, e):
        if e == 2:
            return self._unary(_square)
        if self._iv[0] <= 0:
            raise ValueError("a power other than 2 needs a strictly positive interval")
        return (self.log() * Fraction(e)).exp()

    def log(self) -> "Ball":
        if self._iv[0] <= 0:
            raise ValueError("log needs a strictly positive interval")
        return self._unary(_log)

    def exp(self) -> "Ball":
        return self._unary(_exp)

    def sqrt(self) -> "Ball":
        if self._iv[0] < 0:
            raise ValueError("sqrt needs a nonnegative interval")
        return self._unary(_sqrt)

    def gt(self, other) -> bool:
        """True only when every point of self exceeds every point of other."""
        return _below(*Ball(other, self.prec)._iv[2:], *self._iv[:2])

    def __repr__(self) -> str:
        # each end rounded outward to about as many decimal digits as prec bits
        ends = []
        for m, e, rounding in ((*self._iv[:2], decimal.ROUND_FLOOR),
                               (*self._iv[2:], decimal.ROUND_CEILING)):
            ctx = decimal.Context(max(1, self.prec * 3 // 10), rounding,
                                  decimal.MIN_EMIN, decimal.MAX_EMAX)
            ends.append(ctx.divide(m << max(e, 0), 1 << max(-e, 0)))
        return f"Ball([{ends[0]}, {ends[1]}], prec={self.prec})"


def ball_max(first, *rest) -> Ball:
    """Enclosure of the maximum of the given balls."""
    balls = [first if isinstance(first, Ball) else Ball(first)]
    balls += [b if isinstance(b, Ball) else Ball(b, balls[0].prec) for b in rest]
    prec = max(b.prec for b in balls)
    lo = functools.reduce(_larger, (b._iv[:2] for b in balls))
    hi = functools.reduce(_larger, (b._iv[2:] for b in balls))
    return Ball._make(_outward(*lo, *hi, prec), prec)


def ball_min(*balls) -> Ball:
    """Enclosure of the minimum of the given balls (negation is exact)."""
    return -ball_max(*(-b for b in balls))


def _pi_hull(prec: int) -> Ball:
    """[-pi_hi, pi_hi] for pi_hi = pi rounded up: it holds every angle."""
    m, e = _ziv(lambda w: (_pi(w), -w, 2), (), (), prec)[2:]
    return Ball._make((-m, e, m, e), prec)


def ball_atan2(y: Ball, x: Ball) -> Ball:
    """Enclosure of the principal angle of the point x + iy.

    Boxes that meet the branch cut (or the origin) fall back to the full
    range [-pi, pi], which stays correct for magnitude bounds.
    """
    prec = max(y.prec, x.prec)
    if y._iv[0] <= 0 <= y._iv[2] and x._iv[0] <= 0:
        return _pi_hull(prec)
    return Ball._make(_atan2(y._iv, x._iv, prec), prec)


class ComplexBall:
    """Rectangular complex enclosure with Ball real and imaginary parts.

    Polynomial values come from a root's _power_table by _dot_at, as exact
    integer dot products rounded once per end; a ComplexBall is otherwise
    only measured.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Ball, im: Ball):
        self.re = re
        self.im = im

    def __abs__(self) -> Ball:
        return (self.re ** 2 + self.im ** 2).sqrt()

    def arg(self) -> Ball:
        return ball_atan2(self.im, self.re)


# ---------------------------------------------------------------------------
# the integer kernel
#
# A Ball's interval is the tuple (lo_m, lo_e, hi_m, hi_e) of two exact
# endpoints m * 2**e, m a signed int.  Each endpoint is its exact value
# floored or ceiled to prec significant bits: +, -, *, / and sqrt compute
# that value exactly, or to a last odd bit that stands in for a nonzero
# remainder, and log, exp, atan2 and pi approximate it until its rounding
# is decided (_ziv).  The endpoints match libmpi's wherever libmpi rounds
# correctly, which its add, mul, div and sqrt always do.  _round is the one
# rounding step, _outward the same step on both ends of an interval, and
# _const and _div bring exact numbers in.  A polynomial's value at a
# complex ball has no libmpi counterpart: _dot_at takes it from a table of
# powers as one exact sum per end.  It encloses the value Horner's rule
# on libmpi encloses, with fewer roundings but a wider box at the roots.


def _round(m: int, e: int, prec: int, up: bool):
    """m*2**e to prec significant bits, rounded up (ceiling) or down (floor)."""
    n = m.bit_length() - prec
    if n > 0:
        return (-(-m >> n) if up else m >> n), e + n
    return m, e


def _outward(lm, le, hm, he, prec):
    """The interval [lm*2**le, hm*2**he] rounded outward to prec bits, as
    _round rounds its low end down and its high end up; libmpi's mpi_pos."""
    n = lm.bit_length() - prec
    if n > 0:
        lm, le = lm >> n, le + n
    n = hm.bit_length() - prec
    if n > 0:
        hm, he = -(-hm >> n), he + n
    return lm, le, hm, he


def _fraction(m: int, e: int) -> Fraction:
    """The exact value m * 2**e."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def max_rad(balls) -> Fraction:
    """The largest radius among balls, compared on integers."""
    ivs = [b._iv for b in balls]
    e = min(min(iv[1], iv[3]) for iv in ivs)
    return _fraction(max((hm << he - e) - (lm << le - e) for lm, le, hm, he in ivs), e - 1)


def _below(m1, e1, m2, e2) -> bool:
    """m1*2**e1 < m2*2**e2."""
    e = min(e1, e2)
    return m1 << e1 - e < m2 << e2 - e


def _larger(x, y):
    """The greater of two endpoint pairs (m, e)."""
    return y if _below(*x, *y) else x


def _const(c: int, prec: int):
    return _outward(c, 0, c, 0, prec)


def _sum(m1, e1, m2, e2, prec, up):
    """_round of m1*2**e1 + m2*2**e2."""
    if not m2:
        m, e = m1, e1
    elif not m1:
        m, e = m2, e2
    else:
        if e1 < e2:
            m1, e1, m2, e2 = m2, e2, m1, e1
        offset = e1 - e2
        if offset > 100 and m1.bit_length() + offset - m2.bit_length() > prec + 4:
            # as in mpf_add: the smaller term lies below every bit the
            # rounding keeps, so one bit of its sign stands in for it
            m, e = (m1 << prec + 4) + (1 if m2 > 0 else -1), e1 - prec - 4
        else:
            m, e = (m1 << offset) + m2, e2
    return _round(m, e, prec, up)


def _add(x, y, prec):
    return (*_sum(x[0], x[1], y[0], y[1], prec, False),
            *_sum(x[2], x[3], y[2], y[3], prec, True))


def _sub(x, y, prec):
    return (*_sum(x[0], x[1], -y[2], y[3], prec, False),
            *_sum(x[2], x[3], -y[0], y[1], prec, True))


def _mul(x, y, prec):
    """libmpi's mpi_mul: the endpoint products its sign cases pick (the
    product is symmetric, so an x that straddles zero swaps with a y that
    does not); when both straddle zero, the lesser of the two negative
    products and the greater of the two positive ones."""
    if x[0] < 0 < x[2] and not y[0] < 0 < y[2]:
        x, y = y, x
    am, ae, bm, be = x
    cm, ce, dm, de = y
    if am >= 0:
        if cm >= 0:
            lm, le, hm, he = am * cm, ae + ce, bm * dm, be + de
        elif dm <= 0:
            lm, le, hm, he = bm * cm, be + ce, am * dm, ae + de
        else:
            lm, le, hm, he = bm * cm, be + ce, bm * dm, be + de
    elif cm >= 0:
        lm, le, hm, he = am * dm, ae + de, bm * cm, be + ce
    elif dm <= 0:
        lm, le, hm, he = bm * dm, be + de, am * cm, ae + ce
    else:
        lm, le, hm, he = am * dm, ae + de, am * cm, ae + ce
        if bm > 0:
            if _below(bm * cm, be + ce, lm, le):
                lm, le = bm * cm, be + ce
            if _below(hm, he, bm * dm, be + de):
                hm, he = bm * dm, be + de
    return _outward(lm, le, hm, he, prec)


def _square(x, prec):
    """libmpi's mpi_pow_int(x, 2), that is mpi_square: [0, max(-a, b)**2]
    for an x = [a, b] that straddles zero."""
    am, ae, bm, be = x
    if am >= 0:
        return _outward(am * am, 2 * ae, bm * bm, 2 * be, prec)
    if bm <= 0:
        return _outward(bm * bm, 2 * be, am * am, 2 * ae, prec)
    m, e = _larger((bm, be), (-am, ae))
    return _outward(0, 0, m * m, 2 * e, prec)


def _neg(x, prec):
    return _outward(-x[2], x[3], -x[0], x[1], prec)


def _abs(x, prec):
    """libmpi's mpi_abs: x, -x, or [0, max(-a, b)] for x = [a, b] around 0."""
    am, ae, bm, be = x
    if am < 0 <= bm:
        x = (0, 0, *_larger((bm, be), (-am, ae)))
    return _neg(x, prec) if x[2] < 0 else _outward(*x, prec)


def _div(x, y, prec):
    """libmpi's mpi_div for a divisor y = [c, d] that does not reach 0.

    A y below 0 negates both operands.  Then, as in mpi_div, the lower end
    divides by d when it is >= 0 and by c otherwise, the upper end by c
    when it is >= 0 and by d otherwise; each quotient to prec + 2 bits or
    more, a last odd bit standing in for a nonzero remainder.  Where libmpi
    returns an infinite endpoint, for a y that reaches 0, this raises.
    """
    if y[0] <= 0 <= y[2]:
        raise ValueError("nonfinite interval endpoint: the divisor reaches 0")
    if y[2] < 0:
        x, y = (-x[2], x[3], -x[0], x[1]), (-y[2], y[3], -y[0], y[1])
    cm, ce, dm, de = y
    out = ()
    for m, e, up in ((x[0], x[1], False), (x[2], x[3], True)):
        nm, ne = (cm, ce) if (m >= 0) == up else (dm, de)
        k = max(0, prec + 2 + nm.bit_length() - m.bit_length())
        q, r = divmod(m << k, nm)
        e -= ne + k
        out += _round(2 * q + 1, e - 1, prec, up) if r else _round(q, e, prec, up)
    return out


def _sqrt(x, prec):
    """libmpi's mpi_sqrt for x >= 0, rounded as _div rounds."""
    out = ()
    for m, e, up in ((x[0], x[1], False), (x[2], x[3], True)):
        if e & 1:
            m, e = m << 1, e - 1
        k = max(0, prec + 2 - m.bit_length() // 2)
        m, e = m << 2 * k, e // 2 - k
        r = math.isqrt(m)
        out += _round(2 * r + 1, e - 1, prec, up) if r * r != m else _round(r, e, prec, up)
    return out


# Transcendental endpoints.  A point function f(..., w) returns (v, e, err):
# the exact value lies within err * 2**e of v * 2**e, with about w bits
# below the value's leading bit.  It is exact (err 0) for log 1, exp 0 and
# atan2(0, x >= 0), and otherwise transcendental, so never on a rounding
# boundary: _ziv, which retries with twice the guard bits while v - err and
# v + err round apart (Ziv's loop), always ends.


def _ziv(f, a, b, prec, step=None):
    """[f(*a) rounded down, f(*b) rounded up] at prec bits, for a point
    function f taken at w = prec + guard bits, once when a == b.  For
    a != b, step(a, b, v, e, err) may derive f(*b)'s (v, e, err) from
    f(*a)'s, or return None to have f run at b too: the rounding test
    decides either end the same way, and a correctly rounded end is
    unique, so the endpoints do not depend on which way b was taken."""
    guard = 32
    while True:
        w = prec + guard
        v1, e1, r1 = f(*a, w)
        if a == b:
            v2, e2, r2 = v1, e1, r1
        else:
            v2, e2, r2 = step and step(a, b, v1, e1, r1) or f(*b, w)
        lo = _round(v1 - r1, e1, prec, False)
        hi = _round(v2 + r2, e2, prec, True)
        if lo == _round(v1 + r1, e1, prec, False) and hi == _round(v2 - r2, e2, prec, True):
            return (*lo, *hi)
        guard *= 2


def _fixed(m, e, w):
    """m * 2**(e + w), floored."""
    return m << e + w if e + w >= 0 else m >> -e - w


def _odd_series(z, w, alternate):
    """(s, j): s = z - z**3/3 + z**5/5 - ... (atan z), or with every sign
    + (atanh z) when alternate is not set, in fixed point at w bits; j is
    the last odd power.  For z <= 2**w / 5 off by less than 5 units, or
    z <= 2**w / 3 off by less than 1, each of the (j - 1)/2 later terms is
    off by less than 2 and the tail by less than 1."""
    z2 = z * z >> w
    s = term = z
    j = 1
    while term:
        term = term * z2 >> w
        j += 2
        s += -(term // j) if alternate and j & 2 else term // j
    return s, j


@functools.lru_cache(maxsize=64)
def _ln2(w):
    """ln 2 * 2**w, within 3/2: 2 atanh(1/3) with enough extra bits to
    cover the error of its terms."""
    g = w.bit_length() + 8
    return 2 * _odd_series((1 << w + g) // 3, w + g, False)[0] >> g


@functools.lru_cache(maxsize=64)
def _pi(w):
    """pi * 2**w, within 3/2: Machin's 16 atan(1/5) - 4 atan(1/239)."""
    g = w.bit_length() + 8
    s5, s239 = (_odd_series((1 << w + g) // n, w + g, True)[0] for n in (5, 239))
    return 16 * s5 - 4 * s239 >> g


def _log_at(m, e, w):
    """log(m * 2**e) for m > 0, as (v, e, err).

    x = 2**k * t with t in [3/4, 3/2), and log t = 2**(r+1) atanh(z) for
    z = (s - 1)/(s + 1) and s = t**(2**-r), taken by r integer square
    roots.  Each root is off by less than 5/2 units and z by less than 3,
    so the series with j its last odd power is off by less than j + 3;
    ln 2 adds 3/2 per unit of k.  A t within 2**-near of 1 is worked near
    bits deeper, since log t is then as small as t - 1.
    """
    if e <= 0 and m == 1 << -e:
        return 0, 0, 0
    b = m.bit_length()
    k = b + e - 1 + (b > 1 and m >> b - 2 == 3)
    near = max(0, -e - abs(m - (1 << -e)).bit_length()) if k == 0 else 0
    w += near
    r = max(0, 4 - near)
    one = 1 << w
    t = _fixed(m, e - k, w)
    for _ in range(r):
        t = math.isqrt(t << w)
    s, j = _odd_series((abs(t - one) << w) // (t + one), w, False)
    if t < one:
        s = -s
    return (s << r + 1) + (k and k * _ln2(w)), -w, (j + 3 << r + 1) + 2 * abs(k)


def _exp_at(m, e, w):
    """exp(m * 2**e), as (v, e, err).

    Below 2**-(w/2) in size, x gives 1 + x, off by less than x**2 and the
    floor of x.  Otherwise exp x = 2**k exp(r) for r = x - k ln 2 (off by
    1 + 2|k| units), and exp r is the Taylor series at r / 2**8 squared 8
    times.  The series with j terms is off by less than 2j + 2 units, and
    r's error moves it by less than 1/128 of that error plus 1; each
    squaring doubles an error at most and adds 1, and at |r| <= ln 2 / 2
    the 8 of them multiply it by less than 2**9.
    """
    if not m:
        return 1, 0, 0
    mag = m.bit_length() + e
    if 2 * mag < -w:
        return (1 << -2 * mag) + _fixed(m, e, -2 * mag), 2 * mag, 2
    w += max(mag, 0)
    x = _fixed(m, e, w)
    l2 = _ln2(w)
    k = (x + (l2 >> 1)) // l2
    r = x - k * l2
    neg, r = r < 0, abs(r)
    s = term = 1 << w
    j = 0
    while term:
        j += 1
        term = (term * r >> w + 8) // j
        s += -term if neg and j & 1 else term
    for _ in range(8):
        s = s * s >> w
    return s, k - w, 2 * j + 4 + (1 + 2 * abs(k) >> 7) << 9


def _atan2_at(ym, ye, xm, xe, w):
    """atan2(y, x) for y = ym * 2**ye and x = xm * 2**xe, as (v, e, err);
    0 for y = 0 <= x, and pi for y = 0 > x, as mpf_atan2 has it.

    With q = min(|y|, |x|) / max(|y|, |x|) floored, atan(q) is taken by
    halvings q / (1 + sqrt(1 + q**2)), each off by less than 5 units, down
    to q <= 1/16, then by its series (off by less than j + 5, j its last
    odd power) times 2**h for h halvings.  pi/2 - atan(q) for |y| >
    |x|, and pi less the angle for x < 0, add less than 2 each.  A y much
    smaller than x > 0 is worked near bits deeper, since the angle is then
    about q.
    """
    if not ym and xm >= 0:
        return 0, 0, 0
    ay, ax = abs(ym), abs(xm)
    swap = _below(ax, xe, ay, ye)
    (nm, ne), (dm, de) = ((ax, xe), (ay, ye)) if swap else ((ay, ye), (ax, xe))
    near = 0
    if nm and not swap and xm > 0:
        near = max(0, dm.bit_length() + de - nm.bit_length() - ne - 1)
    w += near
    h = max(0, 4 - near)
    one = 1 << w
    sh = ne - de + w
    q = (nm << sh) // dm if sh >= 0 else nm // (dm << -sh)
    for _ in range(h):
        q = (q << w) // (one + math.isqrt(one * one + q * q))
    s, j = _odd_series(q, w, True)
    s <<= h
    if swap:
        s = (_pi(w) >> 1) - s
    if xm < 0:
        s = _pi(w) - s
    return (-s if ym < 0 else s), -w, (j + 5 << h) + 4


def _log_step(a, b, v, e, err):
    """log b from log a = (v, e, err), for 0 < a < b, or None.

    With delta = b/a - 1, log b = log a + log(1 + delta), and log(1 +
    delta) lies in [delta - delta**2/2, delta]: delta floored to units of
    2**e moves v, and the bracket adds less than sq to err.  None where a
    or b is 1, since log 1 = 0 is exact and a bracket around it never
    rounds, and where sq would exceed err, that is for delta above about
    2**(e/2): b's own series then decides it sooner.
    """
    (am, ae), (bm, be) = a, b
    if not err or (be <= 0 and bm == 1 << -be):
        return None
    w = -e
    sh = be - ae + w
    dq = ((bm << sh) // am if sh >= 0 else bm // (am << -sh)) - (1 << w)
    sq = ((dq + 1) ** 2 >> w + 1) + 1
    return None if sq > err else (v + dq, e, err + sq)


def _exp_step(a, b, v, e, err):
    """exp b from exp a = (v, e, err), for a < b, or None.

    With delta = b - a = n * 2**-s, exp b = exp a * e**delta, and
    e**delta - 1 lies in [delta, delta + delta**2] for delta < 1: v * delta
    floored moves v, and err grows by the ceiling of (v + err) * (delta +
    delta**2) less that move, which also covers err * delta below.  None
    where a or b is 0, since exp 0 = 1 is exact and a bracket around it
    never rounds, and where the growth would exceed err.
    """
    (am, ae), (bm, be) = a, b
    if not err or not bm:
        return None
    k = min(ae, be)
    n, s = (bm << be - k) - (am << ae - k), -k
    if s <= 0 or n >> s:
        return None
    t = v * n >> s
    extra = -(-((v + err) * n * ((1 << s) + n)) >> 2 * s) - t
    return None if extra > err else (v + t, e, err + extra)


# a correctly rounded end is unique, so a log or exp is memoised on its
# interval and precision: a proof takes some of them more than once
@functools.lru_cache(maxsize=256)
def _log(x, prec):
    """libmpi's mpi_log for x > 0."""
    return _ziv(_log_at, x[:2], x[2:], prec, _log_step)


@functools.lru_cache(maxsize=256)
def _exp(x, prec):
    """libmpi's mpi_exp."""
    return _ziv(_exp_at, x[:2], x[2:], prec, _exp_step)


def _atan2(y, x, prec):
    """libmpi's mpi_atan2, for a box that ball_atan2 has not sent to the
    full range: its endpoint pairs in the right half-plane (x >= 0), the
    upper (y > 0) and the lower (y < 0)."""
    (ya, yb), (xa, xb) = (y[:2], y[2:]), (x[:2], x[2:])
    if x[0] >= 0:
        lo = ya + xb if y[0] >= 0 else ya + xa
        hi = yb + xa if y[2] >= 0 else yb + xb
    elif y[0] >= 0:
        lo = yb + xb if x[2] <= 0 else ya + xb
        hi = ya + xa
    else:
        lo = yb + xa
        hi = ya + xb if x[2] <= 0 else yb + xb
    return _ziv(_atan2_at, lo, hi, prec)


def _aligned(ivs):
    """(los, his, e): the ends of the kernel intervals ivs as exact ints on
    one exponent e, the least of theirs."""
    e = min(min(iv[1], iv[3]) for iv in ivs)
    return (tuple(iv[0] << iv[1] - e for iv in ivs),
            tuple(iv[2] << iv[3] - e for iv in ivs), e)


def _power_table(z: ComplexBall, n: int):
    """z**0 ... z**(n-1) for a ComplexBall z whose parts share one
    precision, as (prec, re, im) with each part _aligned.

    z**0 is the exact 1, z**1 is z, and each later power is the last one
    times z at z's precision, n - 2 products for n >= 2, each the kernel's
    four-product complex multiplication: the real part's difference and
    the imaginary part's sum of the four _mul products, rounded outward.
    """
    prec = z.re.prec
    xr, xi = z.re._iv, z.im._iv
    re, im = [_const(1, prec), xr], [_const(0, prec), xi]
    for _ in range(2, n):
        ar, ai = re[-1], im[-1]
        rr, ii, ri, ir = _mul(ar, xr, prec), _mul(ai, xi, prec), _mul(ar, xi, prec), _mul(ai, xr, prec)
        re.append((*_sum(rr[0], rr[1], -ii[2], ii[3], prec, False),
                   *_sum(rr[2], rr[3], -ii[0], ii[1], prec, True)))
        im.append((*_sum(ri[0], ri[1], ir[0], ir[1], prec, False),
                   *_sum(ri[2], ri[3], ir[2], ir[3], prec, True)))
    return prec, _aligned(re[:n]), _aligned(im[:n])


def _dot(coeffs, part, prec):
    """The kernel interval of sum c_k * w_k over a table part of enclosures
    w_k, for int coefficients: the lower sum takes each positive c_k
    against w_k's lower end and each negative one against its upper end,
    the upper sum the reverse; both are exact ints, rounded outward once."""
    los, his, e = part
    lo = hi = 0
    for c, l, h in zip(coeffs, los, his):
        if c > 0:
            lo += c * l
            hi += c * h
        elif c:
            lo += c * h
            hi += c * l
    return _outward(lo, e, hi, e, prec)


def _dot_at(f: IntPoly, table, den: int = 1) -> ComplexBall:
    """Enclosure of f(z) / den from z's _power_table and an int den > 0.

    Each part of f(z) is one _dot, and each is then divided by den's int
    interval by _div, at the table's precision.  f must have no more
    coefficients than the table has powers.
    """
    prec, re, im = table
    if len(f.coeffs) > len(re[0]):
        raise ValueError("polynomial degree exceeds the power table")
    ar, ai = _dot(f.coeffs, re, prec), _dot(f.coeffs, im, prec)
    if den != 1:
        den = _const(den, prec)
        ar, ai = _div(ar, den, prec), _div(ai, den, prec)
    return ComplexBall(Ball._make(ar, prec), Ball._make(ai, prec))


# ---------------------------------------------------------------------------
# directed decimal rounding


def round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, ties away from zero; d > 0.

    >>> [round_div(n, 2) for n in (-3, -1, 1, 3, 4)]
    [-2, -1, 1, 2, 2]
    """
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((d - 2 * n) // (2 * d))


def round_sig(x, sig: int, mode: str) -> Fraction:
    """Round to sig significant decimal digits in a fixed direction.

    mode is "up" (toward +inf), "down" (toward -inf), "trunc" (toward
    zero) or "nearest" (ties away from zero).  Exact rational in and out,
    on the integers n/d of |x|: its decimal exponent e, with 10**(e-1) <=
    |x| < 10**e, is the difference of their digit counts or one more, and
    one divmod gives the digits kept and the remainder that rounds them.
    """
    n, d = x.as_integer_ratio()
    if not n:
        return Fraction(0)
    neg = n < 0
    n = abs(n)
    e = len(str(n)) - len(str(d))
    if (n >= d * 10 ** e) if e >= 0 else (n * 10 ** -e >= d):
        e += 1
    shift = sig - e
    if shift >= 0:
        n *= 10 ** shift
    else:
        d *= 10 ** -shift
    q, r = divmod(n, d)
    if mode == "nearest":
        q += 2 * r >= d
    elif mode in ("up", "down"):
        q += r > 0 and (mode == "up") != neg
    elif mode != "trunc":
        raise ValueError(f"unknown rounding mode {mode!r}")
    q = -q if neg else q
    return Fraction(q, 10 ** shift) if shift >= 0 else Fraction(q * 10 ** -shift)


# ---------------------------------------------------------------------------
# certified root enclosures


_NOT_CONVERGED = "root certification did not converge"
_NOT_ORDERED = (
    "root certification failed only at the order by real part: the"
    " discs do not separate the real parts of two upper roots"
)


def certified_roots(f: IntPoly, prec: int = DEFAULT_PREC) -> list[ComplexBall]:
    """Certified enclosures of the roots of a monic IntPoly without real roots.

    Returns the d/2 roots with positive imaginary part ordered by
    decreasing real part; their conjugates are the other d/2 roots.

    Candidate centres come from _root_centres; the certificate is
    separate.  With w_i = f(z_i) / prod_{j != i} (z_i - z_j) computed
    exactly, the union of the discs |z - z_i| <= d*|w_i| contains every
    root of f, and when the discs are pairwise disjoint each disc contains
    exactly one.  The discs must also prove the order by real part, which
    numbers the embeddings; the error names that test when only it failed
    on the last try.
    """
    d = f.degree()
    if d < 2 or d % 2 != 0 or f.lc() != 1:
        raise ValueError("monic polynomial of even degree >= 2 required")
    coeffs_desc = [int(c) for c in reversed(f.coeffs)]
    starts, scale = _float_roots(coeffs_desc)
    work = max(prec, 64)
    for _ in range(8):
        upper = _root_centres(coeffs_desc, starts, scale, work)
        got = _NOT_CONVERGED
        if upper is not None:
            if len(upper) != d // 2:
                raise ValueError("polynomial appears to have a real root")
            upper.sort(key=lambda t: t[0], reverse=True)
            got = _certify_roots(f, upper, work)
            if not isinstance(got, str):
                return got
        work *= 2
    raise ArithmeticError(got)


def _float_roots(coeffs_desc):
    """Every root of a monic polynomial, roughly: (roots / 2^scale, scale).

    Durand-Kerner (at most 500 sweeps) in machine complex numbers, on the
    polynomial rescaled by a power of two 2^scale at or above Fujiwara's
    bound 2 max |a_k|^(1/k), so that its roots lie in the unit disc and its
    coefficients in float range.  These are only starting points for
    _root_centres.
    """
    d = len(coeffs_desc) - 1
    scale = 1 + max(
        -(-abs(c).bit_length() // k) for k, c in enumerate(coeffs_desc[1:], 1)
    )
    coeffs = [float(Fraction(c, 1 << (scale * k))) for k, c in enumerate(coeffs_desc)]
    roots = [(0.4 + 0.9j) ** k for k in range(d)]
    for _ in range(500):
        moved = 0.0
        for i, z in enumerate(roots):
            num = 0j
            for c in coeffs:
                num = num * z + c
            den = 1 + 0j
            for j, w in enumerate(roots):
                if j != i:
                    den *= z - w
            if den:
                step = num / den
                roots[i] = z - step
                moved = max(moved, abs(step))
        if moved < 2.0 ** -50:
            break
    return roots, scale


def _newton_step(coeffs_desc, x: int, y: int, shift: int):
    """Newton correction f(z)/f'(z) at z = (x + iy) / 2^shift, same scale.

    Fixed point: every product is floored back to 2^-shift, so the step is
    accurate to a few units of 2^-shift.  None when f'(z) rounds to 0.
    """
    pr, pi = 1 << shift, 0
    dr = di = 0
    for c in coeffs_desc[1:]:
        dr, di = ((dr * x - di * y) >> shift) + pr, ((dr * y + di * x) >> shift) + pi
        pr, pi = ((pr * x - pi * y) >> shift) + (c << shift), (pr * y + pi * x) >> shift
    den = dr * dr + di * di
    if den == 0:
        return None
    return ((pr * dr + pi * di) << shift) // den, ((pi * dr - pr * di) << shift) // den


def _polish(coeffs_desc, z: complex, scale: int, bits: int):
    """Newton from the start z * 2^scale to a root within about 2^-bits of
    its size, doubling the precision per step: (x, y, shift), the root
    being (x + iy) / 2^shift.  None if Newton does not settle within 64
    steps, or the start is not finite."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None
    size = math.frexp(abs(z))[1] + scale
    prec = min(106, bits)
    shift = max(prec - size, 0)
    x, y = (
        (n << (scale + shift)) // den
        for n, den in (z.real.as_integer_ratio(), z.imag.as_integer_ratio())
    )
    for _ in range(64):
        step = _newton_step(coeffs_desc, x, y, shift)
        if step is None:
            return None
        x, y = x - step[0], y - step[1]
        if prec == bits:
            moved = max(abs(step[0]), abs(step[1])).bit_length() - shift
            if moved <= size - bits // 2:
                return x, y, shift
        prec = min(2 * prec, bits)
        new_shift = max(prec - size, shift)
        x <<= new_shift - shift
        y <<= new_shift - shift
        shift = new_shift
    return None


def _root_centres(coeffs_desc, starts, scale: int, work: int):
    """Centres of the roots in the upper half plane, or None.

    Each start with positive imaginary part is polished by Newton to about
    2*work + 20 bits and rounded to nearest at work bits, part by part; a
    part below 2^(1 - work) in size is taken as 0, so a root with such an
    imaginary part counts as real.  None if some start does not settle.
    """
    out = []
    for z in starts:
        if z.imag <= 0:
            continue
        got = _polish(coeffs_desc, z, scale, 2 * work + 20)
        if got is None:
            return None
        x, y, shift = got
        x, y = (0 if abs(v) << work < 2 << shift else _round_nearest(v, shift, work)
                for v in (x, y))
        if y > 0:
            out.append((x, y))
    return out


def _round_nearest(m: int, shift: int, prec: int) -> Fraction:
    """m / 2**shift to prec significant bits, to nearest, ties to even (as
    libmp's round_nearest rounds)."""
    n = m.bit_length() - prec
    if n > 0:
        q, r = divmod(m, 1 << n)
        m = q + (2 * r > 1 << n or (2 * r == 1 << n and q & 1))
        shift -= n
    return _fraction(m, -shift)


def _apart(s, ai, bi, aj, bj) -> bool:
    """s*bi*bj > 2*(ai*bj + aj*bi), that is s > 2*(ai/bi + aj/bj): discs
    of squared radii ai/bi and aj/bj (all >= 0) whose centres lie sqrt(s)
    apart are disjoint, since dist^2 > 2*(r_i^2 + r_j^2) gives
    dist > r_i + r_j.

    The products run to thousands of bits while the two sides differ by
    hundreds, so bit lengths decide first: an x of n > 0 bits has
    2**(n-1) <= x < 2**n.  So s lies in [2**(ls-1), 2**ls), each ai/bi in
    (2**(lai-lbi-1), 2**(lai-lbi+1)), and the right side in
    (2**k, 2**(k+3)) for k the larger of lai-lbi and laj-lbj.  Where those
    ranges overlap, or an operand is 0, the exact products decide.
    """
    if s and ai and bi and aj and bj:
        ls = s.bit_length()
        k = max(ai.bit_length() - bi.bit_length(), aj.bit_length() - bj.bit_length())
        if ls - 1 >= k + 3:
            return True
        if ls <= k:
            return False
    return s * bi * bj > 2 * (ai * bj + aj * bi)


def _certify_roots(f, upper, work):
    """Enclosures of the upper roots from candidate centres, or the reason
    the discs refuse them: _NOT_CONVERGED when they do not isolate the
    roots, _NOT_ORDERED when they do but fail only the test that they
    order the centres by decreasing real part.

    The disc test of certified_roots, in exact integers: with L a common
    denominator of the centres, f(z_i) * L^d and the product of the
    (z_i - z_j)(z_i - conj z_j) times L^(d-1) are Gaussian integers, and
    each squared radius d^2 |w_i|^2, times L^2, is held as a fraction
    A_i / B_i, so that the tests compare the centres times L.
    """
    d = f.degree()
    half = d // 2
    prec = work + 32
    scale = math.lcm(*(t.denominator for z in upper for t in z))
    pts = [(int(x * scale), int(y * scale)) for x, y in upper]

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    rad = []
    for i, (x, y) in enumerate(pts):
        num = (f.coeffs[-1], 0)
        power = 1
        for c in reversed(f.coeffs[:-1]):
            power *= scale
            num = cmul(num, (x, y))
            num = (num[0] + c * power, num[1])
        den = (1, 0)
        for j, (xj, yj) in enumerate(pts):
            if j != i:
                den = cmul(den, (x - xj, y - yj))
            den = cmul(den, (x - xj, y + yj))
        # a repeated centre makes B_i = 0, which every test below refuses
        rad.append((d * d * (num[0] ** 2 + num[1] ** 2), den[0] ** 2 + den[1] ** 2))

    def separated(dx, dy, i, j):
        return _apart(dx * dx + dy * dy, *rad[i], *rad[j])

    for i in range(half):
        xi, yi = pts[i]
        if yi <= 0:
            return _NOT_CONVERGED
        for j in range(i + 1, half):
            xj, yj = pts[j]
            if not separated(xi - xj, yi - yj, i, j):
                return _NOT_CONVERGED
        # for j = i, a disc apart from its conjugate lies above the real axis
        for j in range(half):
            xj, yj = pts[j]
            if not separated(xi - xj, yi + yj, i, j):
                return _NOT_CONVERGED
    for i in range(half - 1):
        xi, yi = pts[i]
        xj, yj = pts[i + 1]
        if xi <= xj or not separated(xi - xj, 0, i, i + 1):
            return _NOT_ORDERED

    out = []
    for i in range(half):
        x, y = upper[i]
        r = Ball(Fraction(rad[i][0], rad[i][1] * scale * scale), prec).sqrt().hi
        out.append(
            ComplexBall(
                Ball.from_endpoints(x - r, x + r, prec),
                Ball.from_endpoints(y - r, y + r, prec),
            )
        )
    return out


# ---------------------------------------------------------------------------
# embeddings of field elements


class ConjugateData:
    """Certified complex embeddings of one case's field.

    Embedding i, for 0 <= i < d/2, sends the generator to roots[i]: the
    d/2 roots with positive imaginary part, by decreasing real part.  The
    other d/2 embeddings are their conjugates, with the same magnitudes,
    so no stage takes them.  tables[i] holds roots[i]**0 ... roots[i]**(d-1),
    built once (d - 2 complex products per root), and an element's image is
    the dot product of its coefficients with it (_dot_at).  Embedding
    values and their magnitudes are cached per element, and so is the
    leading coefficient of each element's characteristic polynomial;
    _log's memo takes each log of a magnitude once.  The stages after it
    read the case data from conj.cfg, so one object fixes both the field
    and its precision.
    """

    def __init__(self, cfg: CaseConfig, prec: int = DEFAULT_PREC):
        self.cfg = cfg
        self.prec = prec
        self.roots = certified_roots(cfg.f, prec)
        self.tables = [_power_table(z, cfg.d) for z in self.roots]
        self._embeds: dict = {}
        self._abs: dict = {}
        self._leads: dict = {}

    @property
    def d(self) -> int:
        return self.cfg.d

    @functools.cached_property
    def etas(self):
        """case_etas(cfg), computed once for every stage that embeds them."""
        return case_etas(self.cfg)

    def embed(self, elem: FieldElement, i: int) -> ComplexBall:
        """Enclosure of the image of elem under embedding i < d/2."""
        got = self._embeds.get((elem, i))
        if got is None:
            got = self._embeds[elem, i] = _dot_at(elem.num, self.tables[i], elem.den)
        return got

    def embed_abs(self, elem: FieldElement, i: int) -> Ball:
        got = self._abs.get((elem, i))
        if got is None:
            got = self._abs[elem, i] = abs(self.embed(elem, i))
        return got

    def log_abs(self, elem: FieldElement, i: int) -> Ball:
        """embed_abs(elem, i).log(); _log's memo evaluates each once."""
        return self.embed_abs(elem, i).log()

    def lead(self, elem: FieldElement) -> int:
        """Leading coefficient of charpoly(elem, f), computed once per elem.

        An integral numerator over den 1 has a monic, hence primitive,
        characteristic polynomial, so its leading coefficient is 1.
        """
        if elem.den == 1:
            return 1
        got = self._leads.get(elem)
        if got is None:
            got = self._leads[elem] = charpoly(elem, self.cfg.f).lc()
        return got

    def max_abs_root(self) -> Ball:
        return ball_max(*[abs(z) for z in self.roots])


def log_height(elem: FieldElement, conj: ConjugateData) -> Ball:
    """Enclosure of the absolute logarithmic height of a field element.

    Uses the degree-d characteristic polynomial; if that is a power of the
    minimal polynomial the formula is unchanged, since both the leading
    coefficient and the conjugate list repeat by the same factor.
    """
    if elem.is_zero():
        raise ValueError("height of zero is undefined")
    total = Ball(abs(conj.lead(elem)), conj.prec).log()
    # log max(|x|, 1) is the cached log|x| with both ends raised to 0:
    # libmpi logs each endpoint alone, and log 1 = 0 exactly.  An
    # enclosure of |x| that reaches 0 has no log, and takes the max first
    one = Ball(1, conj.prec)
    mags = [conj.embed_abs(elem, i) for i in range(conj.d // 2)]
    terms = [ball_max(conj.log_abs(elem, i), 0) if x._iv[0] > 0 else ball_max(x, one).log()
             for i, x in enumerate(mags)]
    # embedding d/2 + i has the magnitude of embedding i; the terms are
    # added in embedding order, so the sum rounds as it always has
    for term in terms + terms:
        total = total + term
    return total / conj.d


def regulator(conj: ConjugateData) -> Ball:
    """Unit-lattice determinant in the single-log convention.

    Rows are log|unit| at the first len(units) conjugate pairs.  Any
    choice of len(units) distinct pairs gives the same absolute value
    because the rows summed over all pairs vanish; the standard convention
    with doubled logs is 2**len(units) times this.
    """
    units = conj.cfg.units
    rows = [[conj.log_abs(u, i) for u in units] for i in range(len(units))]
    return abs(det(rows))


def _sqrt_within(v: Ball, b: Ball) -> bool:
    """v.sqrt().hi <= b.hi for a v >= 0, on the kernel's ints.

    With P = v.prec, v.sqrt().hi is sqrt(v.hi) ceiled to P bits; a P-bit
    number is at most b.hi exactly when it is at most b.hi floored to P
    bits, and at most that floor exactly when sqrt(v.hi) is, so the test
    is v.hi <= floor_P(b.hi)**2, decided without the root.
    """
    bm, be = _round(*b._iv[2:], v.prec, False)
    return bm >= 0 and not _below(bm * bm, 2 * be, *v._iv[2:])


def matveev_a(elem: FieldElement, conj: ConjugateData) -> Ball:
    """Enclosure of the Baker height max(d*h(elem), |log sigma_i(elem)|
    for every embedding i, 0.16) with the upper end of the maximum over
    every term.

    Only the upper end is read.  Every angle ball_atan2 returns lies in
    [-pi_hi, pi_hi], so |log sigma_i(elem)| is at most sqrt(log|sigma_i|^2
    + pi_hi^2), computed with the same roundings; the angle is taken only
    where that bound could raise the upper end of the running maximum.
    The lower end leaves out the terms skipped, so it may be lower.
    """
    d = conj.d
    pi_sq = _pi_hull(conj.roots[0].re.prec) ** 2
    best = ball_max(log_height(elem, conj) * d, Ball(Fraction(4, 25), conj.prec))
    for i in range(d // 2):
        log_sq = conj.log_abs(elem, i) ** 2
        if _sqrt_within(log_sq + pi_sq, best):
            continue
        arg = conj.embed(elem, i).arg()
        best = ball_max(best, (log_sq + arg ** 2).sqrt())
    return best


# ---------------------------------------------------------------------------
# the rounded-constant chain


class CaseConstants(namedtuple("CaseConstants", (
    "case_id", "d", "p", "rank", "n_lower", "margin", "max_abs_root",
    "deriv_bounds", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8",
    "delta_abs_range", "gamma_abs_range", "regulator", "regulator_standard",
    "unit_minor_bound", "unit_minor_triple", "a_values", "a0_eta1", "a0_eta2",
))):
    """Rounded constants for one case, each a proved one-sided bound.

    c1*p^(n/d) underestimates |x - alpha^(i)| and c4*p^(n/d) overestimates
    it; c2 bounds the Taylor tail of the cofactor, c3 = c2/c1 the relative
    error; c5/c6 bound the per-embedding log drift and c7/c8 the unit
    exponents via max|m_i| <= c7*n + c8; a_values are the per-logarithm
    Baker heights.  All are exact Fractions rounded in the sound direction;
    deriv_bounds, a_values and the (low, high) abs ranges are tuples of
    them, a0_eta1/a0_eta2 tuples of ints, and unit_minor_bound and
    unit_minor_triple are None for a single unit.  Immutable;
    _replace(**changes) copies it.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        """The JSON form: every Fraction a float and every tuple a list, the
        unit minors last and only when there is more than one unit."""
        out = self._asdict()
        for key in ("unit_minor_bound", "unit_minor_triple"):
            value = out.pop(key)
            if self.unit_minor_bound is not None:
                out[key] = value

        def plain(v):
            return float(v) if isinstance(v, Fraction) else v

        return {k: [plain(x) for x in v] if isinstance(v, tuple) else plain(v)
                for k, v in out.items()}


def case_etas(cfg: CaseConfig):
    """The multiplicands of the unit inequality: 2/delta^d per delta and
    p/gamma^d per gamma, followed by the units.

    1/delta^d is taken as (1/delta)^d: delta has small coefficients where
    delta^d's reach 18 bits, so its characteristic polynomial is cheaper,
    and a field element has one reduced form, so the value is the same.
    """
    f, d = cfg.f, cfg.d
    eta1 = [
        nf_mul(FieldElement(2), nf_pow(nf_inverse(dl, f), d, f), f)
        for dl in cfg.deltas
    ]
    eta2 = [
        nf_mul(FieldElement(cfg.p), nf_pow(nf_inverse(g, f), d, f), f)
        for g in cfg.gammas
    ]
    return eta1, eta2, list(cfg.units)


def _power_exceeds(p: int, n: int, y: int) -> bool:
    """p**n > y for ints p >= 2, n >= 0 and y >= 1, from bit lengths where
    they decide: p**n lies in [2**(n*(b-1)), 2**(n*b)) for p of b bits,
    and y in [2**(c-1), 2**c) for y of c bits.  Only where those ranges
    overlap is p**n built."""
    b, c = p.bit_length(), y.bit_length()
    if n * (b - 1) >= c:
        return True
    if n * b <= c - 1:
        return False
    return p ** n > y


def compute_constants(conj: ConjugateData, n_lower: int) -> CaseConstants:
    """Run the full rounded-constant chain for the case of conj.

    n_lower must be a proved lower bound on the exponent; several tail
    estimates need p**n_lower > (2*10**10)**d and the call refuses to
    continue otherwise (_power_exceeds decides it, mostly from bit
    lengths).  The derivative bounds take each f^(i) at every root as a
    dot product with the root's power table, as embeddings are taken.
    """
    cfg = conj.cfg
    d, p, f, prec = cfg.d, cfg.p, cfg.f, conj.prec
    y_floor = 2 * 10 ** 10
    if not _power_exceeds(p, n_lower, y_floor ** d):
        raise ValueError("lower bound on the exponent is too small for the tails")

    one = Ball(1, prec)

    max_root = conj.max_abs_root()
    max_abs_root = round_sig(max_root.hi, 4, "up")
    margin = max(Fraction("2.252"), round_sig((one + max_root).hi, 4, "up"))

    # |x - alpha^(i)| is squeezed between c1*p^(n/d) and c4*p^(n/d)
    root_2d = Ball(2, prec) ** Fraction(1, d)
    tail = Ball(margin, prec) / Ball(p, prec) ** Fraction(n_lower, d)
    c1 = round_sig((root_2d - tail).lo, 4, "down")
    c4 = round_sig((root_2d + tail).hi, 4, "up")
    if not 0 < c1 <= c4:
        raise ArithmeticError("degenerate bounds for |x - alpha|")

    # upper bounds for |f^(i)(alpha)| / i! over all embeddings
    deriv_exact: list[Ball] = []
    g = f
    fact = 1
    for i in range(1, d):
        g = poly_derivative(g)
        fact *= i
        vals = [abs(_dot_at(g, table)) / fact for table in conj.tables]
        deriv_exact.append(ball_max(*vals))
    deriv_bounds = tuple(round_sig(b.hi, 4, "up") for b in deriv_exact)

    # Taylor tail of the cofactor at |y| > y_floor, chained from the
    # rounded table, then checked against the unrounded enclosure
    c2_chain = deriv_bounds[d - 2] + sum(
        deriv_bounds[i - 1] / Fraction(y_floor ** (d - 1 - i))
        for i in range(1, d - 1)
    )
    c2 = round_sig(c2_chain, 4, "up")
    c2_exact_hi = deriv_exact[d - 2].hi + sum(
        deriv_exact[i - 1].hi / Fraction(y_floor ** (d - 1 - i))
        for i in range(1, d - 1)
    )
    if c2 < c2_exact_hi:
        raise ArithmeticError("rounded tail bound fell below the certified one")

    c3 = round_sig(c2 / c1, 4, "trunc")
    if c3 < c2_exact_hi / (root_2d - tail).lo:
        raise ArithmeticError("truncated ratio fell below the certified one")

    # embedding magnitude ranges for the deltas and the gammas
    delta_abs = [
        conj.embed_abs(dl, i) for dl in cfg.deltas for i in range(d // 2)
    ]
    gamma_abs = [
        conj.embed_abs(g, i) for g in cfg.gammas for i in range(d // 2)
    ]
    dmin, dmax = ball_min(*delta_abs), ball_max(*delta_abs)
    gmin, gmax = ball_min(*gamma_abs), ball_max(*gamma_abs)
    delta_abs_range = (round_sig(dmin.lo, 4, "down"), round_sig(dmax.hi, 4, "up"))
    gamma_abs_range = (round_sig(gmin.lo, 4, "down"), round_sig(gmax.hi, 4, "up"))

    # c5/c6 are taken from the rounded range endpoints rather than the raw
    # enclosures; the endpoint rounding only widens the ratios, so the
    # results stay valid upper bounds
    def log_ratio_bound(top, low, high, bottom) -> Fraction:
        """max(log(top / low), log(high / bottom)), rounded up."""
        ratios = (Ball(top, prec) / low).log(), (Ball(high, prec) / bottom).log()
        return round_sig(ball_max(*ratios).hi, 4, "up")

    p_root_d = Ball(p, prec) ** Fraction(1, d)
    c5 = log_ratio_bound(p_root_d, *gamma_abs_range, p_root_d)
    c6 = log_ratio_bound(c4, *delta_abs_range, c1)

    # bound max|m_i| <= c7*n + c8 by solving the log-embedding system
    reg = regulator(conj)
    if reg.lo <= 0:
        raise ArithmeticError("regulator not certified nonzero")
    # Cramer's rule on u of the d/2 embeddings, u = len(units): each m_i
    # is a sum of u minors times a drift of at most c5*n + c6, over the
    # determinant; the embeddings with the smallest largest minor are used
    units = cfg.units
    u = len(units)
    logs = [[conj.log_abs(unit, i) for unit in units] for i in range(d // 2)]
    # each minor deletes one row and one column of a triple's rows, so it
    # depends on the u - 1 rows kept and the column deleted alone
    minors = {
        (kept, cj): abs(det([logs[i][:cj] + logs[i][cj + 1 :] for i in kept], one))
        for kept in itertools.combinations(range(d // 2), u - 1)
        for cj in range(u)
    }
    best = None
    for triple in itertools.combinations(range(d // 2), u):
        vol = abs(det([logs[i] for i in triple]))
        if vol.lo <= 0:
            continue
        r2 = ball_max(*(minors[triple[:ri] + triple[ri + 1 :], cj]
                        for ri in range(u) for cj in range(u)))
        if best is None or r2.hi < best[0]:
            best = (r2.hi, triple, r2, vol)
    if best is None:
        raise ArithmeticError("no conjugate triple has a certified determinant")
    _, triple, r2, vol = best
    c7 = round_sig((r2 * u * c5 / vol).hi, 4, "up")
    c8 = round_sig((r2 * u * c6 / vol).hi, 4, "up")
    # one unit has only the empty minor, 1, so there is no minor to report
    minor_bound = round_sig(r2.hi, 4, "up") if u > 1 else None
    minor_triple = triple if u > 1 else None

    # Baker heights: eta1/eta2 aggregate over their case choices
    eta1, eta2, _ = conj.etas
    a0_eta1 = tuple(conj.lead(e) for e in eta1)
    a0_eta2 = tuple(conj.lead(e) for e in eta2)

    def a_value(elems) -> Fraction:
        return round_sig(ball_max(*(matveev_a(e, conj) for e in elems)).hi, 4, "up")

    a_values = (a_value(eta1), a_value(eta2), *(a_value([unit]) for unit in units))

    return CaseConstants(  # in field order
        cfg.case_id, d, p, cfg.rank, n_lower, margin, max_abs_root, deriv_bounds,
        c1, c2, c3, c4, c5, c6, c7, c8, delta_abs_range, gamma_abs_range,
        round_sig(reg.mid, 5, "trunc"), round_sig(reg.mid * 2 ** len(units), 5, "trunc"),
        minor_bound, minor_triple, a_values, a0_eta1, a0_eta2,
    )
