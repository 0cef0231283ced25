"""Interval arithmetic, certified root enclosures, and the constant chain.

Numeric pins come from two places: closed-form values any library can
reproduce, and frozen outputs of certified runs that later stages consume.
Either way the assertions demand containment or exact equality, never
float-approximate equality.
"""

import functools
import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

from cyclobound import realalg
from cyclobound.numberfield import FieldElement, charpoly, get_case, nf_inverse, nf_mul, nf_pow
from cyclobound.pipeline import solve_case
from cyclobound.polyarith import IntPoly, det, poly_derivative, poly_eval
from cyclobound.realalg import (
    Ball,
    ComplexBall,
    ConjugateData,
    Multiplicand,
    ball_atan2,
    ball_max,
    ball_min,
    certified_roots,
    compute_constants,
    int_root,
    log_height,
    matveev_a,
    max_rad,
    regulator,
    round_div,
    round_sig,
)
from cyclobound.reduction import _RoundInputs
from test_numberfield import case_etas

F15_ROOTS = ((Fraction("1.0757"), Fraction("0.4498")),
             (Fraction("0.6243"), Fraction("0.8958")),
             (Fraction("-0.1701"), Fraction("1.0292")),
             (Fraction("-1.0299"), Fraction("0.2698")))
F10_ROOTS = ((Fraction("0.9734"), Fraction("0.7873")),
             (Fraction("-0.4734"), Fraction("1.0256")))


def from_endpoints(lo, hi, prec: int = realalg.DEFAULT_PREC) -> Ball:
    """The smallest Ball at prec bits that contains [lo, hi]: lo's ball's
    lower end and hi's ball's upper end."""
    if lo > hi:
        raise ValueError("endpoints out of order")
    a, b = Ball(Fraction(lo), prec)._iv, Ball(Fraction(hi), prec)._iv
    return Ball._make(a[:2] + b[2:], prec)


def random_fraction(rng: random.Random, span: int = 40) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


class TestBall:
    def test_contains_exact_rational_arithmetic(self):
        rng = random.Random(7211)
        for _ in range(100):
            a, b = random_fraction(rng), random_fraction(rng)
            for got, want in (
                (Ball(a) + Ball(b), a + b),
                (Ball(a) - b, a - b),
                (Ball(a) * Ball(b), a * b),
                (a + Ball(b), a + b),
                (a - Ball(b), a - b),
            ):
                assert got.lo <= want <= got.hi
            if b != 0:
                got = Ball(a) / b
                assert got.lo <= a / b <= got.hi

    def test_integer_power(self):
        # a power other than 2 is exp(k log x): it holds x**k for x > 0,
        # and any other ball is refused
        a = Fraction(7, 3)
        for k in (5, -3, 0, 1):
            got = Ball(a) ** k
            assert got.lo <= a**k <= got.hi
            assert got.rad < Fraction(1, 10**70)
        for x in (Ball(-a), Ball(0), from_endpoints(-1, 2)):
            with pytest.raises(ValueError):
                x ** 5

    def test_fractional_power(self):
        got = Ball(8) ** Fraction(1, 3)
        assert got.lo <= 2 <= got.hi
        assert got.rad < Fraction(1, 10**60)
        with pytest.raises(ValueError):
            Ball(-1) ** Fraction(1, 2)

    def test_endpoints_ordered(self):
        b = Ball(Fraction(1, 3))
        assert b.lo <= b.mid <= b.hi
        assert b.rad >= 0
        assert b.lo < Fraction(1, 3) < b.hi  # 1/3 is not a binary fraction

    def test_rad_on_integers_is_the_fraction_rad(self):
        # Ball.rad and max_rad compare half-widths as integers; each must
        # be exactly (hi - lo) / 2, including endpoints whose exponents
        # differ in either direction and zero widths
        rng = random.Random(7237)
        balls = []
        for trial in range(400):
            kind = trial % 4
            if kind == 0:
                b = Ball(Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)), rng.choice((53, 256)))
            elif kind == 1:
                b = Ball(rng.randint(-2**300, 2**300), rng.choice((53, 64)))
            elif kind == 2:
                b = Ball(Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9)), 256).log()
            elif trial % 8 == 3:
                # the high end written at a lower exponent than the low end
                m, e = rng.randint(-2**60, 2**60), rng.randint(-300, 300)
                b = Ball._make((m, e, (m << 40) + rng.randint(0, 2**50), e - 40), 64)
            else:
                # zero width, the two ends written at different exponents
                m, e = rng.randint(-2**60, 2**60), rng.randint(-300, 300)
                b = Ball._make((m << 3, e - 3, m, e), 64)
            want = (b.hi - b.lo) / 2
            assert b.rad == want and want >= 0
            balls.append(b)
        assert sum(b.rad == 0 for b in balls) >= 50
        for i in range(0, len(balls), 8):
            group = balls[i : i + 8]
            assert max_rad(group) == max((b.hi - b.lo) / 2 for b in group)

    def test_from_endpoints(self):
        b = from_endpoints(Fraction(-2), Fraction(5))
        assert b.lo <= -2 and b.hi >= 5
        with pytest.raises(ValueError):
            from_endpoints(Fraction(1), Fraction(0))

    def test_abs(self):
        assert abs(Ball(-3)).lo == 3
        straddle = abs(from_endpoints(Fraction(-2), Fraction(5)))
        assert straddle.lo == 0 and straddle.hi >= 5

    def test_log_exp_roundtrip(self):
        for x in (Fraction(1, 7), Fraction(3), Fraction(999, 10)):
            got = Ball(x).log().exp()
            assert got.lo <= x <= got.hi

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Ball(0).log()
        with pytest.raises(ValueError):
            from_endpoints(Fraction(-1), Fraction(2)).log()

    def test_sqrt(self):
        got = Ball(2).sqrt()
        assert got.lo**2 <= 2 <= got.hi**2
        with pytest.raises(ValueError):
            Ball(-4).sqrt()

    def test_certified_comparisons(self):
        assert Ball(2).gt(Ball(1))
        assert Ball(2).gt(1)
        wide = from_endpoints(Fraction(0), Fraction(3))
        # overlap certifies nothing in either direction
        assert not wide.gt(Ball(1))
        assert not Ball(1).gt(wide)

    def test_max_min(self):
        hi = ball_max(Ball(1), Ball(3), Ball(2))
        assert hi.lo <= 3 <= hi.hi
        lo = ball_min(Ball(1), Ball(3), 0)
        assert lo.lo <= 0 <= lo.hi

    def test_mixed_precision_promotes(self):
        a = Ball(Fraction(1, 3), 64)
        b = Ball(Fraction(1, 5), 256)
        assert (a + b).prec == 256

    def test_repr_brackets_the_ball(self):
        for b in (Ball(Fraction(1, 3), 64), Ball(-2**300, 53), from_endpoints(Fraction(-1, 10**40), 7)):
            lo, hi = repr(b).removeprefix("Ball([").partition("], prec=")[0].split(", ")
            assert Fraction(lo) <= b.lo and b.hi <= Fraction(hi)
            assert repr(b).endswith(f"prec={b.prec})")

    def test_rejects_other_types(self):
        for value in (0.5, "1/3", complex(1, 0), None):
            with pytest.raises(TypeError):
                Ball(value)
        with pytest.raises(TypeError):
            Ball(1) + 0.5


class TestBallAtan2:
    def test_quadrants(self):
        for y, x in ((1, 1), (1, -1), (-1, -1), (-1, 1), (0, 1), (1, 0)):
            got = ball_atan2(Ball(y), Ball(x))
            want = math.atan2(y, x)
            assert float(got.lo) - 1e-15 <= want <= float(got.hi) + 1e-15

    def test_branch_cut_hull(self):
        # y straddling zero at negative x must cover both signs of pi
        got = ball_atan2(from_endpoints(Fraction(-1), Fraction(1)), Ball(-2))
        assert got.lo < Fraction(-31, 10) and got.hi > Fraction(31, 10)
        assert float(got.lo) <= math.atan2(1, -2) <= float(got.hi)
        assert float(got.lo) <= math.atan2(-1, -2) <= float(got.hi)


def mpfs(iv):
    """The mpf endpoint pair of a kernel interval, as libmpi takes it."""
    return libmp.from_man_exp(iv[0], iv[1]), libmp.from_man_exp(iv[2], iv[3])


def ints(ends):
    """The kernel interval of a finite mpf endpoint pair."""
    (s1, m1, e1, _), (s2, m2, e2, _) = ends
    if (not m1 and e1) or (not m2 and e2):
        raise ValueError("nonfinite interval endpoint")
    return (-m1 if s1 else m1), e1, (-m2 if s2 else m2), e2


# mpf endpoints ordered by value
BY_VALUE = functools.cmp_to_key(libmp.mpf_cmp)


def mpi(ball: Ball):
    """The mpf endpoint pair of a Ball, as libmpi takes it."""
    return mpfs(ball._iv)


def from_mpi(ends, prec: int) -> Ball:
    """The Ball with a finite libmpi interval's endpoints."""
    return Ball._make(ints(ends), prec)


def int_interval(n: int, prec: int):
    """libmp's interval of an int at prec bits: from_int floored and ceiled."""
    lo = libmp.from_int(n, prec, libmp.round_floor)
    return lo, libmp.from_int(n, prec, libmp.round_ceiling)


class OracleComplex:
    """ComplexBall's arithmetic as it stood before the integer kernel, on
    libmpi: addition and the four-product multiplication on mpf endpoint
    pairs, every call at the first factor's precision, a plain number taken
    as its int interval with an exact zero imaginary part.  Kept as an
    oracle: poly_eval over it is a Horner enclosure that the kernel's
    power-table value must meet."""

    __slots__ = ("re", "im", "prec")

    def __init__(self, re, im, prec: int):
        self.re, self.im, self.prec = re, im, prec

    @classmethod
    def of(cls, z: ComplexBall) -> "OracleComplex":
        return cls(mpi(z.re), mpi(z.im), z.re.prec)

    def _coerce(self, value):
        if isinstance(value, OracleComplex):
            return value
        if isinstance(value, ComplexBall):
            return OracleComplex.of(value)
        return OracleComplex(int_interval(value, self.prec), (libmp.fzero, libmp.fzero), self.prec)

    def __add__(self, other):
        o = self._coerce(other)
        add = libmp.mpi_add
        return OracleComplex(add(self.re, o.re, self.prec), add(self.im, o.im, self.prec), self.prec)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        mul, add, sub, prec = libmp.mpi_mul, libmp.mpi_add, libmp.mpi_sub, self.prec
        return OracleComplex(
            sub(mul(self.re, o.re, prec), mul(self.im, o.im, prec), prec),
            add(mul(self.re, o.im, prec), mul(self.im, o.re, prec), prec),
            prec,
        )

    __rmul__ = __mul__

    def ball(self) -> ComplexBall:
        return ComplexBall(from_mpi(self.re, self.prec), from_mpi(self.im, self.prec))


def oracle_mul(*factors) -> ComplexBall:
    """Product of ComplexBalls by the four-product formula."""
    out = OracleComplex.of(factors[0])
    for z in factors[1:]:
        out = out * z
    return out.ball()


def oracle_horner(f: IntPoly, z: ComplexBall) -> ComplexBall:
    """poly_eval(f, z) on the four-product arithmetic."""
    return poly_eval(f, OracleComplex.of(z)).ball()


def endpoint_fraction(raw) -> Fraction:
    """Exact value of one mpf component tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    man, exp = int(man), int(exp)
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("nonfinite interval endpoint")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def reference_horner_at(f: IntPoly, z: ComplexBall) -> ComplexBall:
    """Horner's rule as realalg once took polynomial values, on libmpi:
    Horner's rule on the endpoint pairs, each step the four-product complex multiplication
    followed by adding the coefficient as an int interval, every call at
    z's precision, the exact additions of 0 left out."""
    prec = z.re.prec
    xr, xi = mpi(z.re), mpi(z.im)
    mul, add, sub = libmp.mpi_mul, libmp.mpi_add, libmp.mpi_sub
    coeffs = f.coeffs
    ar = ai = (libmp.fzero, libmp.fzero)
    if coeffs:
        ar = int_interval(coeffs[-1], prec)
    for c in reversed(coeffs[:-1]):
        ar, ai = (
            sub(mul(ar, xr, prec), mul(ai, xi, prec), prec),
            add(mul(ar, xi, prec), mul(ai, xr, prec), prec),
        )
        if c:
            ar = add(ar, int_interval(c, prec), prec)
    return ComplexBall(from_mpi(ar, prec), from_mpi(ai, prec))


def oracle_div(z: ComplexBall, den: int) -> ComplexBall:
    """Each part divided by den's int interval through libmpi's mpi_div."""
    prec = z.re.prec
    return ComplexBall(*(
        from_mpi(libmp.mpi_div(mpi(part), int_interval(den, prec), prec), prec)
        for part in (z.re, z.im)
    ))


def oracle_abs(z: ComplexBall) -> Ball:
    """|z| as sqrt(re**2 + im**2) through libmpi, each part squared at its
    own precision and the rest at the wider one."""
    prec = max(z.re.prec, z.im.prec)
    re2, im2 = (libmp.mpi_pow_int(mpi(part), 2, part.prec) for part in (z.re, z.im))
    return from_mpi(libmp.mpi_sqrt(libmp.mpi_add(re2, im2, prec), prec), prec)


def same_ball(a: Ball, b: Ball) -> bool:
    """Equal precisions and, read as mpf, equal endpoints."""
    return (mpi(a), a.prec) == (mpi(b), b.prec)


def _same(a: ComplexBall, b: ComplexBall) -> bool:
    return same_ball(a.re, b.re) and same_ball(a.im, b.im)


def kernel_at(f: IntPoly, z: ComplexBall, den: int = 1) -> ComplexBall:
    """f(z) / den by the kernel: z's power table, then one dot per part."""
    return realalg._dot_at(f, realalg._power_table(z, max(1, len(f.coeffs))), den)


def exact_value(coeffs, z):
    """f(z) for f's coefficients and a point z = (re, im) of Fractions."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = (acc[0] * z[0] - acc[1] * z[1] + c, acc[0] * z[1] + acc[1] * z[0])
    return acc


def holds(z: ComplexBall, value) -> bool:
    """The point value = (re, im) lies in the box z."""
    return z.re.lo <= value[0] <= z.re.hi and z.im.lo <= value[1] <= z.im.hi


def meets(a: ComplexBall, b: ComplexBall) -> bool:
    """The boxes a and b intersect, as two enclosures of one value must."""
    return all(x.lo <= y.hi and y.lo <= x.hi for x, y in ((a.re, b.re), (a.im, b.im)))


def box_points(z: ComplexBall):
    """The four corners and the centre of the box z."""
    corners = [(x, y) for x in (z.re.lo, z.re.hi) for y in (z.im.lo, z.im.hi)]
    return corners + [(z.re.mid, z.im.mid)]


class TestComplexBall:
    def test_contains_exact_complex_arithmetic(self):
        # the kernel at rational points: its enclosure contains the exact
        # value, a sum c0 + c1*z and products of z with itself among them
        rng = random.Random(8011)
        for _ in range(60):
            a = (random_fraction(rng), random_fraction(rng))
            f = IntPoly(*(rng.randint(-40, 40) for _ in range(rng.randint(0, 6))))
            za = ComplexBall(Ball(a[0]), Ball(a[1]))
            assert holds(kernel_at(f, za), exact_value(f.coeffs, a))
            c0 = rng.randint(-40, 40)
            s = kernel_at(IntPoly(c0, 1), za)
            assert s.re.lo <= a[0] + c0 <= s.re.hi

    @pytest.mark.parametrize("prec", [53, 64, 256])
    def test_exact_at_dyadic_points(self, prec):
        # z = (a + bi) / 2**s with |a|, |b| < 2**5 and at most 8 powers:
        # every power is exact at prec bits, so each end of f(z) is the
        # exact value floored or ceiled to prec bits, bit for bit, and the
        # quotient by den is libmpi's mpi_div of that point
        rng = random.Random(8100 + prec)
        for _ in range(80):
            s = rng.randint(0, 12)
            a = (Fraction(rng.randint(-31, 31), 2**s), Fraction(rng.randint(-31, 31), 2**s))
            z = ComplexBall(Ball(a[0], prec), Ball(a[1], prec))
            size = 10 ** rng.choice((1, 12, 30, 90))
            f = IntPoly(*(rng.choice((0, rng.randint(-size, size))) for _ in range(rng.randint(0, 8))))
            got = kernel_at(f, z)
            for part, value in zip((got.re, got.im), exact_value(f.coeffs, a)):
                n, d = value.numerator, value.denominator
                lo = libmp.from_rational(n, d, prec, libmp.round_floor)
                hi = libmp.from_rational(n, d, prec, libmp.round_ceiling)
                assert (part.lo, part.hi) == (endpoint_fraction(lo), endpoint_fraction(hi)), (f, a)
            den = rng.choice((3, 2**prec + 1))
            assert _same(kernel_at(f, z, den), oracle_div(got, den)), (f, a, den)

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_horner_kernel_matches_four_product_horner(self, prec):
        # both enclose f over the root's box, for degrees 0-9 and the zero
        # polynomial, coefficients up to 10^30 with zeros among them, at
        # every certified root of both fields: they intersect, and each
        # holds f at the box's centre
        rng = random.Random(7717 + prec)
        polys = [IntPoly()]
        for _ in range(40):
            size = 10 ** rng.choice((1, 3, 12, 30))
            coeffs = [rng.choice((0, rng.randint(-size, size))) for _ in range(rng.randint(1, 10))]
            coeffs[-1] = coeffs[-1] or 1
            polys.append(IntPoly(*coeffs))
        assert {g.degree() for g in polys} == set(range(-1, 10))
        for cid in ("15-41", "10-271"):
            for z in certified_roots(get_case(cid).f, prec):
                centre = (z.re.mid, z.im.mid)
                for g in polys:
                    got, want = kernel_at(g, z), oracle_horner(g, z)
                    assert meets(got, want), (cid, g)
                    assert holds(got, exact_value(g.coeffs, centre)), (cid, g)

    def test_corners_of_a_box_lie_inside(self):
        # boxes a quarter wide, where each power's ends lie far apart: a
        # dot that took a negative coefficient against the wrong end
        # would leave out the value at some corner
        rng = random.Random(8200)
        for _ in range(60):
            x, y = random_fraction(rng, 8), random_fraction(rng, 8)
            z = ComplexBall(from_endpoints(x, x + Fraction(1, 4), 64),
                            from_endpoints(y, y + Fraction(1, 4), 64))
            f = IntPoly(*(rng.randint(-9, 9) for _ in range(rng.randint(1, 7))))
            got = kernel_at(f, z)
            for point in box_points(z):
                assert holds(got, exact_value(f.coeffs, point)), (f, x, y, point)
        z = ComplexBall(from_endpoints(1, 2, 64), from_endpoints(-1, 1, 64))
        got = kernel_at(IntPoly(0, -1), z)
        assert (got.re.lo, got.re.hi) == (-2, -1)

    def test_division_by_a_real(self):
        # _dot_at divides f(z) by an int den: the endpoints of libmpi's
        # Ball division of each part, up to dens wider than the precision,
        # whose int interval is not a point
        z = ComplexBall(Ball(3, 64), Ball(-2, 64))
        gen = IntPoly(0, 1)
        for den in (1, 7, 3**40, 2**64 - 1, 2**64 + 1, 3**400):
            got = kernel_at(gen, z, den)
            assert _same(got, oracle_div(z, den)), den
            assert got.re.lo <= Fraction(3, den) <= got.re.hi
            assert got.im.lo <= Fraction(-2, den) <= got.im.hi

    def test_refuses_a_polynomial_past_the_table(self):
        # 1 + i: three powers hold 1 + 2z + 3z**2 = 3 + 8i, not a cubic
        table = realalg._power_table(ComplexBall(Ball(1, 64), Ball(1, 64)), 3)
        assert holds(realalg._dot_at(IntPoly(1, 2, 3), table), (3, 8))
        with pytest.raises(ValueError, match="exceeds the power table"):
            realalg._dot_at(IntPoly(1, 2, 3, 4), table)

    def test_abs_and_log_abs(self):
        z = ComplexBall(Ball(3), Ball(4))
        a = abs(z)
        assert same_ball(a, oracle_abs(z))
        assert a.lo <= 5 <= a.hi
        la = a.log()
        assert float(la.lo) <= math.log(5) <= float(la.hi)


# ---------------------------------------------------------------------------
# the interval layer as it stood on mpmath's interval context, kept as an
# oracle: the lean Ball must reproduce its endpoints exactly


@functools.lru_cache(maxsize=None)
def _iv_ctx(prec: int):
    ctx = mpmath.MPIntervalContext()
    ctx.prec = prec
    return ctx


class ReferenceBall:
    """Ball built on an mpmath interval context, one context per precision."""

    def __init__(self, value, prec: int = realalg.DEFAULT_PREC):
        ctx = _iv_ctx(prec)
        if isinstance(value, ReferenceBall):
            self.iv = ctx.convert(value.iv)
        elif isinstance(value, Fraction):
            self.iv = ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
        elif isinstance(value, int):
            self.iv = ctx.mpf(value)
        else:
            self.iv = ctx.convert(value)
        self.prec = prec

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int = realalg.DEFAULT_PREC):
        a = cls(Fraction(lo), prec)
        b = cls(Fraction(hi), prec)
        return cls(_iv_ctx(prec).mpf([a.iv.a, b.iv.b]), prec)

    @property
    def lo(self) -> Fraction:
        return endpoint_fraction(self.iv._mpi_[0])

    @property
    def hi(self) -> Fraction:
        return endpoint_fraction(self.iv._mpi_[1])

    def _pair(self, other):
        if not isinstance(other, ReferenceBall):
            other = ReferenceBall(other, self.prec)
        prec = max(self.prec, other.prec)
        ctx = _iv_ctx(prec)
        return ctx.convert(self.iv), ctx.convert(other.iv), prec

    def __add__(self, other):
        a, b, prec = self._pair(other)
        return ReferenceBall(a + b, prec)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, prec = self._pair(other)
        return ReferenceBall(a - b, prec)

    def __rsub__(self, other):
        a, b, prec = self._pair(other)
        return ReferenceBall(b - a, prec)

    def __mul__(self, other):
        a, b, prec = self._pair(other)
        return ReferenceBall(a * b, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, prec = self._pair(other)
        return ReferenceBall(a / b, prec)

    def __neg__(self):
        return ReferenceBall(-self.iv, self.prec)

    def __abs__(self):
        lo, hi = self.lo, self.hi
        if lo >= 0:
            return self
        if hi <= 0:
            return -self
        return ReferenceBall.from_endpoints(Fraction(0), max(-lo, hi), self.prec)

    def __pow__(self, e):
        if isinstance(e, int):
            return ReferenceBall(self.iv ** e, self.prec)
        return (self.log() * Fraction(e)).exp()

    def log(self):
        return ReferenceBall(_iv_ctx(self.prec).log(self.iv), self.prec)

    def exp(self):
        return ReferenceBall(_iv_ctx(self.prec).exp(self.iv), self.prec)

    def sqrt(self):
        return ReferenceBall(_iv_ctx(self.prec).sqrt(self.iv), self.prec)

    def gt(self, other) -> bool:
        if not isinstance(other, ReferenceBall):
            other = ReferenceBall(other, self.prec)
        return self.lo > other.hi


def reference_max(first, *rest):
    balls = [first if isinstance(first, ReferenceBall) else ReferenceBall(first)]
    balls += [
        b if isinstance(b, ReferenceBall) else ReferenceBall(b, balls[0].prec)
        for b in rest
    ]
    prec = max(b.prec for b in balls)
    return ReferenceBall.from_endpoints(
        max(b.lo for b in balls), max(b.hi for b in balls), prec
    )


def reference_min(*balls):
    return -reference_max(*(-b for b in balls))


def reference_atan2(y, x):
    prec = max(y.prec, x.prec)
    ctx = _iv_ctx(prec)
    if y.lo <= 0 <= y.hi and x.lo <= 0:
        pi_hi = ReferenceBall(ctx.pi, prec).hi
        return ReferenceBall.from_endpoints(-pi_hi, pi_hi, prec)
    return ReferenceBall(ctx.atan2(ctx.convert(y.iv), ctx.convert(x.iv)), prec)


PRECS = (53, 64, 256, 288, 512)


def random_operand(rng: random.Random):
    """An int or a Fraction with parts of up to 400 bits, of either sign."""
    num = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1))
    if rng.random() < 0.3:
        return num
    return Fraction(num, rng.getrandbits(rng.randint(1, 400)) or 1)


def both(value, prec):
    """The Ball and the ReferenceBall of one exact value."""
    return Ball(value, prec), ReferenceBall(value, prec)


def straddling(rng: random.Random, prec: int):
    """(Ball, ReferenceBall, lo, hi) for an interval [lo, hi] around zero."""
    lo = -abs(Fraction(random_operand(rng)))
    hi = abs(Fraction(random_operand(rng)))
    return (from_endpoints(lo, hi, prec),
            ReferenceBall.from_endpoints(lo, hi, prec), lo, hi)


def assert_same(got, ref, exact=None):
    assert (got.lo, got.hi, got.prec) == (ref.lo, ref.hi, ref.prec)
    if exact is not None:
        assert got.lo <= exact <= got.hi


def rounded(value, prec: int, up: bool):
    """The correctly rounded endpoint: value(p, rnd), an mpf at p bits,
    rounded to prec bits, up or down, decided from its value at 4 * prec
    bits taken within 2**8 units in the last place."""
    wp = 4 * prec
    v = value(wp, libmp.round_nearest)
    _, _, exp, bc = v
    slack = libmp.from_man_exp(1, exp + bc - wp + 8)
    rnd = libmp.round_ceiling if up else libmp.round_floor
    lo, hi = (libmp.mpf_pos(op(v, slack), prec, rnd) for op in (libmp.mpf_sub, libmp.mpf_add))
    assert lo == hi, "undecided at 4 * prec"
    return lo


def check_ends(got, want, values, prec: int, faults: list):
    """A kernel interval got has libmpi's endpoints want, except where one
    of libmpi's is not the correctly rounded one: there got's is, and the
    case goes in faults.  values are the mpf functions (p, rnd) of the
    exact lower and upper values."""
    for g, w, value, up in zip(mpfs(got), want, values, (False, True)):
        if g != w:
            right = rounded(value, prec, up)
            assert g == right, (g, w, prec, up)
            assert w != right
            faults.append((w, g))


def corner_angles(y: Ball, x: Ball):
    """The mpf functions of the least and the greatest angle of the box y, x
    off the branch cut, taken at its corners."""
    corners = [(a, b) for a in mpi(y) for b in mpi(x)]

    def angle(pick):
        return lambda p, rnd: pick((libmp.mpf_atan2(a, b, p, rnd) for a, b in corners), key=BY_VALUE)

    return angle(min), angle(max)


def assert_same_angle(got, ref, y, x, faults):
    assert got.prec == ref.prec
    check_ends(got._iv, ref.iv._mpi_, corner_angles(y, x), got.prec, faults)


class TestAgainstReference:
    """Exact endpoints against ReferenceBall on seeded operands."""

    def test_arithmetic(self):
        rng = random.Random(6101)
        for _ in range(120):
            x, y = random_operand(rng), random_operand(rng)
            bx, rx = both(x, rng.choice(PRECS))
            by, ry = both(y, rng.choice(PRECS))
            ops = [operator.add, operator.sub, operator.mul]
            if y != 0:
                ops.append(operator.truediv)
            for op in ops:
                exact = op(Fraction(x), Fraction(y))
                assert_same(op(bx, by), op(rx, ry), exact)
                assert_same(op(bx, y), op(rx, y), exact)
                if op is not operator.truediv:
                    assert_same(op(x, by), op(x, ry), exact)
            assert_same(-bx, -rx, -x)
            assert bx.gt(by) == rx.gt(ry)
            assert bx.gt(y) == rx.gt(y)
            assert bx.gt(x) == rx.gt(x)  # endpoints touch when x is exact
            # conversion keeps the endpoints at either precision
            prec = rng.choice(PRECS)
            assert_same(Ball(bx, prec), ReferenceBall(rx, prec), x)

    def test_abs(self):
        rng = random.Random(6102)
        for _ in range(60):
            x = random_operand(rng)
            prec = rng.choice(PRECS)
            bx, rx = both(x, prec)
            assert_same(abs(bx), abs(rx), abs(x))
            bs, rs, lo, hi = straddling(rng, prec)
            assert_same(abs(bs), abs(rs), 0)
            assert abs(bs).hi >= max(-lo, hi)

    def test_powers(self):
        # x**2 is the square and a fractional power exp(e log x), both
        # endpoint for endpoint; any other int power is exp(k log x) too,
        # so it is checked by containment and width, and refused for x <= 0
        rng = random.Random(6103)
        for _ in range(60):
            x = random_operand(rng)
            prec = rng.choice(PRECS)
            bx, rx = both(x, prec)
            k = rng.randint(-6, 7)
            if k == 2:
                assert_same(bx ** k, rx ** k, Fraction(x) ** k)
            elif x > 0:
                got, exact = bx ** k, Fraction(x) ** k
                assert got.lo <= exact <= got.hi
                assert got.hi - got.lo <= exact * Fraction(1, 2 ** (prec - 16))
            else:
                with pytest.raises(ValueError):
                    bx ** k
            e = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            bp, rp = both(abs(x) or 1, rng.choice(PRECS))
            assert_same(bp ** e, rp ** e)
        # a negative base, and a straddling one
        assert_same(Ball(Fraction(-7, 3), 64) ** 2,
                    ReferenceBall(Fraction(-7, 3), 64) ** 2, Fraction(49, 9))
        bs, rs, _, _ = straddling(rng, 256)
        assert_same(bs ** 2, rs ** 2)
        for k in (3, 4, -2, -3):
            for b in (Ball(Fraction(-7, 3), 64), bs):
                with pytest.raises(ValueError):
                    b ** k

    def test_transcendental(self):
        rng = random.Random(6104)
        for _ in range(40):
            x = abs(random_operand(rng)) or 1
            bx, rx = both(x, rng.choice(PRECS))
            assert_same(bx.log(), rx.log())
            assert_same(bx.sqrt(), rx.sqrt())
            small = Fraction(rng.randint(-2000, 2000), rng.randint(1, 50))
            bs, rs = both(small, rng.choice(PRECS))
            assert_same(bs.exp(), rs.exp())
        assert_same(Ball(Fraction(49, 4)).sqrt(),
                    ReferenceBall(Fraction(49, 4)).sqrt(), Fraction(7, 2))

    def test_max_min(self):
        rng = random.Random(6105)
        for _ in range(40):
            values = [random_operand(rng) for _ in range(rng.randint(1, 5))]
            pairs = [both(v, rng.choice(PRECS)) for v in values]
            balls = [b for b, _ in pairs]
            refs = [r for _, r in pairs]
            tail = random_operand(rng)  # a plain number joins at the first precision
            assert_same(ball_max(*balls, tail), reference_max(*refs, tail),
                        max(map(Fraction, values + [tail])))
            assert_same(ball_min(*balls, tail), reference_min(*refs, tail),
                        min(map(Fraction, values + [tail])))
            assert_same(ball_max(tail, *balls), reference_max(tail, *refs))

    def test_from_endpoints(self):
        rng = random.Random(6106)
        for _ in range(40):
            lo, hi = sorted(Fraction(random_operand(rng)) for _ in range(2))
            prec = rng.choice(PRECS)
            got = from_endpoints(lo, hi, prec)
            assert_same(got, ReferenceBall.from_endpoints(lo, hi, prec), lo)
            assert got.hi >= hi

    def test_atan2(self):
        # endpoint for endpoint, except where mpf_atan2, which rounds an
        # angle taken from y/x at prec + 4 bits, is not correctly rounded
        rng = random.Random(6107)
        faults = []
        for _ in range(40):
            y = Fraction(random_operand(rng))
            x = Fraction(random_operand(rng))
            by, ry = both(y, rng.choice(PRECS))
            bx, rx = both(x, rng.choice(PRECS))
            assert_same_angle(ball_atan2(by, bx), reference_atan2(ry, rx), by, bx, faults)
            # on the branch cut: y straddles zero, x reaches zero or below
            bs, rs, _, _ = straddling(rng, rng.choice(PRECS))
            bn, rn = both(-abs(x), rng.choice(PRECS))
            assert_same(ball_atan2(bs, bn), reference_atan2(rs, rn))
            # off it: y straddles zero in the right half-plane
            bp, rp = both(abs(x) or 1, rng.choice(PRECS))
            assert_same_angle(ball_atan2(bs, bp), reference_atan2(rs, rp), bs, bp, faults)
        for y, x in ((0, -3), (0, 0), (0, 2)):
            assert_same(ball_atan2(Ball(y), Ball(x)),
                        reference_atan2(ReferenceBall(y), ReferenceBall(x)))
        assert len(faults) <= 8, faults


# ---------------------------------------------------------------------------
# the integer kernel against the libmpi calls it replaces: every step must
# return, bit for bit, the endpoints of its libmpi call (mpi_mul in all
# nine sign cases, mpi_add and mpi_sub with the perturbation branch,
# mpi_div by an int of any width, mpi_square, mpi_sqrt), on every finite
# input; polynomial values, which libmpi takes by Horner's rule
# (reference_horner_at), must meet its enclosure


def endpoint(rng: random.Random, prec: int, sign: int):
    """A random mpf of at most prec bits with the given sign, of widely
    varying size and bit count."""
    if sign == 0:
        return libmp.fzero
    bits = rng.choice((1, 2, 7, prec // 2, prec - 1, prec, 2 * prec))
    man = rng.getrandbits(bits) | 1
    exp = rng.randint(-3 * prec, 2 * prec)
    return libmp.from_man_exp(-man if sign < 0 else man, exp, prec, libmp.round_floor)


def interval(rng: random.Random, prec: int, kind: str):
    """A random libmpi interval: kind "pos" (lower end >= 0), "neg" (upper
    end <= 0) or "mixed" (straddling 0); pos and neg may have a zero
    endpoint, or both."""
    if kind == "mixed":
        return endpoint(rng, prec, -1), endpoint(rng, prec, 1)
    sign = 1 if kind == "pos" else -1
    shape = rng.randrange(6)
    if shape == 0:
        return libmp.fzero, libmp.fzero
    if shape == 1:
        ends = [libmp.fzero, endpoint(rng, prec, sign)]
    elif shape == 2:
        v = endpoint(rng, prec, sign)
        ends = [v, v]
    elif shape == 3:
        # a narrow interval, as Horner's accumulators are
        v = endpoint(rng, prec, sign)
        w = libmp.mpf_add(v, libmp.mpf_shift(v, -prec // 2), prec, libmp.round_floor)
        ends = [v, w]
    else:
        ends = [endpoint(rng, prec, sign), endpoint(rng, prec, sign)]
    lo, hi = sorted(ends, key=BY_VALUE)
    return lo, hi


KINDS = ("pos", "neg", "mixed")


def kernel(op, *mpis, prec):
    """op on the kernel form of the given libmpi intervals, back as mpf."""
    return mpfs(op(*map(ints, mpis), prec))


@pytest.mark.parametrize("prec", PRECS)
class TestKernelSteps:
    def test_mul_in_every_sign_case(self, prec):
        rng = random.Random(5100 + prec)
        for kx in KINDS:
            for ky in KINDS:
                for _ in range(30):
                    x, y = interval(rng, prec, kx), interval(rng, prec, ky)
                    assert kernel(realalg._mul, x, y, prec=prec) == libmp.mpi_mul(x, y, prec), (x, y)

    def test_outward_is_round_on_both_ends(self, prec):
        # the pair helper floors the low end and ceils the high end exactly
        # as _round does, for every sign and for widths below, at and
        # above prec
        rng = random.Random(5150 + prec)
        widths = (0, 1, prec - 1, prec, prec + 1, prec + 2, 2 * prec + 7)
        for lw in widths:
            for hw in widths:
                for ls in (-1, 1):
                    for hs in (-1, 1):
                        lm = ls * (rng.getrandbits(lw) | (1 << lw >> 1))
                        hm = hs * (rng.getrandbits(hw) | (1 << hw >> 1))
                        le, he = rng.randint(-600, 600), rng.randint(-600, 600)
                        want = (*realalg._round(lm, le, prec, False),
                                *realalg._round(hm, he, prec, True))
                        assert realalg._outward(lm, le, hm, he, prec) == want, (lm, le, hm, he)

    def test_add_and_sub(self, prec):
        rng = random.Random(5200 + prec)
        for _ in range(150):
            x = interval(rng, prec, rng.choice(KINDS))
            y = interval(rng, prec, rng.choice(KINDS))
            if rng.random() < 0.3:
                # cancellation: y close to -x or to x
                y = libmp.mpi_neg(x) if rng.random() < 0.5 else x
            assert kernel(realalg._add, x, y, prec=prec) == libmp.mpi_add(x, y, prec)
            assert kernel(realalg._sub, x, y, prec=prec) == libmp.mpi_sub(x, y, prec)

    def test_add_and_sub_far_apart(self, prec):
        # offsets beyond 100 bits: gaps past prec + 4 take mpf_add's
        # perturbation branch, narrower ones the exact sum
        rng = random.Random(5300 + prec)
        perturbed = exact = 0
        for _ in range(200):
            bbits = rng.choice((1, 3, prec))
            man = (rng.getrandbits(bbits) | 1 << (bbits - 1) | 1) * rng.choice((-1, 1))
            big = libmp.from_man_exp(man, rng.randint(-prec, prec))
            _, _, bexp, bbc = big
            sbits = rng.choice((1, 5, prec))
            gap = rng.choice((prec + 5, prec + 6, prec + rng.randint(7, 400), rng.randint(prec - 2, prec + 4)))
            sexp = bexp + bbc - gap - sbits
            small = libmp.from_man_exp((rng.getrandbits(sbits) | 1 << (sbits - 1)) * rng.choice((-1, 1)), sexp)
            offset = bexp - small[2]
            if offset <= 100:
                continue
            if bbc + bexp - small[3] - small[2] > prec + 4:
                perturbed += 1
            else:
                exact += 1
            for x, y in (((big, big), (small, small)), ((small, big), (big, big)), ((big, big), (small, big))):
                if libmp.mpf_gt(x[0], x[1]) or libmp.mpf_gt(y[0], y[1]):
                    continue
                assert kernel(realalg._add, x, y, prec=prec) == libmp.mpi_add(x, y, prec)
                assert kernel(realalg._sub, x, y, prec=prec) == libmp.mpi_sub(x, y, prec)
                assert kernel(realalg._add, y, x, prec=prec) == libmp.mpi_add(y, x, prec)
        assert perturbed >= 20 and exact >= 3, (perturbed, exact)

    def test_div_by_ints_of_every_width(self, prec):
        # past prec bits the int interval of den is no longer a point
        rng = random.Random(5400 + prec)
        for bits in range(1, 2 * prec + 2):
            den = rng.getrandbits(bits) | 1 << (bits - 1)
            if rng.random() < 0.1:
                den = 1 << (bits - 1)  # a power of two divides exactly
            x = interval(rng, prec, rng.choice(KINDS))
            want = libmp.mpi_div(x, int_interval(den, prec), prec)
            got = mpfs(realalg._div(ints(x), realalg._const(den, prec), prec))
            assert got == want, (x, den)

    def test_ball_from_int_and_fraction(self, prec):
        # Ball(n) and Ball(Fraction(n, d)) are libmp's int interval and
        # mpi_div of two int intervals, and lo/hi read back their endpoints
        rng = random.Random(5450 + prec)
        for bits in range(1, 2 * prec + 2):
            n, d = (1 << b - 1 | rng.getrandbits(b - 1) for b in (bits, rng.randint(1, 2 * prec + 1)))
            n *= rng.choice((-1, -1, 0, 1, 1))
            got = Ball(n, prec)
            assert mpi(got) == int_interval(n, prec), n
            assert (got.lo, got.hi) == tuple(map(endpoint_fraction, mpi(got)))
            q = Fraction(n, d)
            got = Ball(q, prec)
            want = libmp.mpi_div(int_interval(q.numerator, prec), int_interval(q.denominator, prec), prec)
            assert mpi(got) == want, q
            assert (got.lo, got.hi) == tuple(map(endpoint_fraction, want))

    def test_square_in_its_three_cases(self, prec):
        rng = random.Random(5500 + prec)
        for kind in KINDS:
            for _ in range(60):
                x = interval(rng, prec, kind)
                assert kernel(realalg._square, x, prec=prec) == libmp.mpi_pow_int(x, 2, prec)

    def test_sqrt(self, prec):
        rng = random.Random(5600 + prec)
        for _ in range(100):
            x = interval(rng, prec, "pos")
            assert kernel(realalg._sqrt, x, prec=prec) == libmp.mpi_sqrt(x, prec)
        for _ in range(60):
            # exact squares at even and odd exponents, and one bit off
            root = rng.getrandbits(rng.randint(1, prec // 2)) | 1
            exp = rng.randint(-prec, prec)
            sq = libmp.from_man_exp(root * root, exp)
            off = libmp.from_man_exp(root * root + 1, exp, prec, libmp.round_ceiling)
            for x in ((sq, sq), (sq, off), (libmp.fzero, sq)):
                assert kernel(realalg._sqrt, x, prec=prec) == libmp.mpi_sqrt(x, prec)

    def test_round_nearest_ties_to_even(self, prec):
        # the root centres' rounding, against libmp's round_nearest, on
        # exact ties of both parities and on values of every width
        rng = random.Random(5750 + prec)
        for _ in range(300):
            if rng.random() < 0.4:
                n = rng.randint(1, prec)
                m = (rng.getrandbits(prec) | 1 << prec - 1) << n | 1 << n - 1
            else:
                bits = rng.choice((1, prec - 1, prec, prec + 1, prec + 2, 2 * prec))
                m = rng.getrandbits(bits) | 1 << bits - 1
            m *= rng.choice((-1, 1))
            shift = rng.randint(-prec, 3 * prec)
            want = libmp.from_man_exp(m, -shift, prec, libmp.round_nearest)
            assert realalg._round_nearest(m, shift, prec) == endpoint_fraction(want), (m, shift)

    def test_div_in_every_sign_case(self, prec):
        # by a divisor of either sign; one that reaches zero leaves libmpi
        # with an infinite endpoint, and the kernel raises
        rng = random.Random(5650 + prec)
        for kx in KINDS:
            for ky in KINDS:
                for _ in range(30):
                    x, y = interval(rng, prec, kx), interval(rng, prec, ky)
                    want = libmp.mpi_div(x, y, prec)
                    if any(not man and exp for _, man, exp, _ in want):
                        with pytest.raises(ValueError, match="nonfinite"):
                            realalg._div(ints(x), ints(y), prec)
                    else:
                        assert kernel(realalg._div, x, y, prec=prec) == want, (x, y)


# ---------------------------------------------------------------------------
# log, exp, atan2 and pi on the kernel against libmpi, endpoint for
# endpoint.  Each kernel endpoint is the correctly rounded one.  mpf_log,
# mpf_exp and mpf_atan2 round a value taken with a fixed number of guard
# bits, so where an endpoint differs, the kernel's must be the correctly
# rounded one (decided at 4 * prec) and libmpi's not (check_ends).


def positive_ball(rng: random.Random, prec: int) -> Ball:
    """A Ball > 0 at prec: a point, an interval, one close to 1 (or at 1),
    a narrow one, or one with endpoints wider than prec."""
    kind = rng.randrange(5)
    v = abs(Fraction(random_operand(rng))) or Fraction(1)
    if kind == 0:
        return Ball(v, prec)
    if kind == 1:
        u = abs(Fraction(random_operand(rng))) or Fraction(1)
        return from_endpoints(min(u, v), max(u, v), prec)
    if kind == 2:
        near = 1 + Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 2 ** rng.randint(7, 3 * prec))
        return from_endpoints(min(near, 1), max(near, 1), prec)
    if kind == 3:
        return from_endpoints(v, v * (1 + Fraction(1, 2 ** (prec // 2))), prec)
    return Ball(Ball(v, 512), prec)


def exponent_ball(rng: random.Random, prec: int) -> Ball:
    """A Ball at prec for exp: 0, a small power of two times an odd int,
    as far down as 2**-(3 prec), a moderate value, or an interval around 0."""
    kind = rng.randrange(4)
    if kind == 0:
        return Ball(0, prec)
    if kind == 1:
        v = Fraction(rng.choice((-1, 1)) * (2 * rng.randint(0, 500) + 1), 2 ** rng.randint(1, 3 * prec))
        return Ball(v, prec)
    if kind == 2:
        return Ball(Fraction(rng.randint(-3000, 3000), rng.randint(1, 60)), prec)
    return from_endpoints(-Fraction(rng.randint(1, 900), 7), Fraction(1, rng.randint(1, 10**9)), prec)


def off_cut_box(rng: random.Random, prec: int):
    """(y, x) Balls at prec for a box that ball_atan2 does not send to the
    full range: in the right half-plane (x >= 0, y of any sign), in the
    upper one (y > 0) or in the lower one (y < 0)."""
    def part(sign, axis=True):
        a, b = sorted(abs(Fraction(random_operand(rng))) + 1 - axis for _ in range(2))
        if sign == 0:
            return from_endpoints(-a, b, prec)
        if axis and rng.random() < 0.2:
            a = 0  # an endpoint on the axis
        return from_endpoints(a, b, prec) if sign > 0 else from_endpoints(-b, -a, prec)

    half = rng.randrange(3)
    if half == 0:
        # y around 0 needs x > 0, or the box meets the cut
        y = part(rng.choice((-1, 0, 1)))
        return y, part(1, axis=not y.lo <= 0 <= y.hi)
    return part(1 if half == 1 else -1, axis=False), part(rng.choice((-1, 0)))


@pytest.mark.parametrize("prec", PRECS)
class TestTranscendentals:
    def test_log(self, prec):
        rng = random.Random(7100 + prec)
        faults = []
        for _ in range(80):
            x = positive_ball(rng, prec)
            ends = mpi(x)
            values = [lambda p, rnd, a=a: libmp.mpf_log(a, p, rnd) for a in ends]
            check_ends(x.log()._iv, libmp.mpi_log(ends, prec), values, prec, faults)
        assert len(faults) <= 8, faults

    def test_exp(self, prec):
        rng = random.Random(7200 + prec)
        faults = []
        for _ in range(80):
            x = exponent_ball(rng, prec)
            ends = mpi(x)
            values = [lambda p, rnd, a=a: libmp.mpf_exp(a, p, rnd) for a in ends]
            check_ends(x.exp()._iv, libmp.mpi_exp(ends, prec), values, prec, faults)
        assert len(faults) <= 8, faults

    def test_atan2(self, prec):
        rng = random.Random(7300 + prec)
        faults = []
        for _ in range(80):
            y, x = off_cut_box(rng, prec)
            want = libmp.mpi_atan2(mpi(y), mpi(x), prec)
            check_ends(ball_atan2(y, x)._iv, want, corner_angles(y, x), prec, faults)
        assert len(faults) <= 16, faults

    def test_pi(self, prec):
        hull = realalg._pi_hull(prec)
        pi_hi = libmp.mpf_pi(prec, libmp.round_ceiling)
        assert mpi(hull) == (libmp.mpf_neg(pi_hi), pi_hi)
        assert hull.prec == prec

    def test_exact_values(self, prec):
        # log 1 = 0, exp 0 = 1 and atan2(0, x > 0) = 0 stay exact: the
        # height clamps log|x| at 0, and the tables round up from there
        for b in (Ball(1, prec), from_endpoints(Fraction(1, 3), 1, prec)):
            assert b.log().hi == 0
        assert Ball(1, prec).log().lo == 0
        assert from_endpoints(1, 5, prec).log().lo == 0
        assert (Ball(0, prec).exp().lo, Ball(0, prec).exp().hi) == (1, 1)
        assert from_endpoints(-1, 0, prec).exp().hi == 1
        assert from_endpoints(0, 1, prec).exp().lo == 1
        angle = ball_atan2(Ball(0, prec), Ball(Fraction(5, 7), prec))
        assert (angle.lo, angle.hi) == (0, 0)
        assert ball_atan2(from_endpoints(0, 1, prec), Ball(2, prec)).lo == 0


def true_value(f, args, wp: int) -> Fraction:
    """f's exact value at the kernel endpoints args, from mpmath at wp bits."""
    ends = [libmp.from_man_exp(m, e) for m, e in zip(args[::2], args[1::2])]
    return endpoint_fraction(f(*ends, wp, libmp.round_nearest))


@pytest.mark.parametrize("w", [4, 9, 16, 40, 96, 300])
def test_point_functions_keep_their_error_bounds(w):
    # (v, e, err) holds the exact value within err * 2**e, down to guard
    # bits too few to round with, where the bounds are tightest
    rng = random.Random(7400 + w)
    funcs = ((realalg._log_at, libmp.mpf_log), (realalg._exp_at, libmp.mpf_exp),
             (realalg._atan2_at, libmp.mpf_atan2))
    for _ in range(60):
        for kernel_f, mp_f in funcs:
            if kernel_f is realalg._log_at:
                args = positive_ball(rng, 64)._iv[:2]
            elif kernel_f is realalg._exp_at:
                args = exponent_ball(rng, 64)._iv[:2]
            else:
                y, x = off_cut_box(rng, 64)
                args = y._iv[:2] + x._iv[2:]
            v, e, err = kernel_f(*args, w)
            exact = true_value(mp_f, args, 4 * w + 600)
            assert abs(exact - realalg._fraction(v, e)) <= realalg._fraction(err, e), (kernel_f, args, w)


@pytest.mark.parametrize("w", [4, 9, 16, 40, 96, 300])
def test_one_series_steps_keep_their_error_bounds(w):
    # the upper end derived from the lower end's (v, e, err) holds the
    # exact value within its own err, at guard bits as few as the point
    # functions are checked with
    rng = random.Random(7450 + w)
    taken = {realalg._log_step: 0, realalg._exp_step: 0}
    for _ in range(60):
        for step, point, mp_f, ball in (
            (realalg._log_step, realalg._log_at, libmp.mpf_log, positive_ball),
            (realalg._exp_step, realalg._exp_at, libmp.mpf_exp, exponent_ball),
        ):
            am, ae = ball(rng, 64)._iv[:2]
            shift = rng.randint(w // 2, 2 * w + 64)
            a = (am << shift, ae - shift)
            b = (a[0] + rng.randint(1, 2 ** rng.randint(1, 40)), a[1])
            got = step(a, b, *point(*a, w))
            if got is None:
                continue
            taken[step] += 1
            v, e, err = got
            exact = true_value(mp_f, b, 4 * w + 600)
            assert abs(exact - realalg._fraction(v, e)) <= realalg._fraction(err, e), (step, a, b, w)
    assert min(taken.values()) >= 10, taken


def test_ends_enclose_where_libmpi_does_not():
    # libmpi's upper ends of log(1 + 2**-52) at 53 bits and exp(593 *
    # 2**-56) at 64 bits lie below the true values: mpf_log and mpf_exp
    # round a sum that drops the second-order term below their guard bits.
    # The kernel's ends are one unit in the last place apart around them.
    log_arg, exp_arg = Ball(1 + Fraction(1, 2**52), 53), Ball(Fraction(593, 2**56), 64)
    for got, exact, ulp in (
        (log_arg.log(), true_value(libmp.mpf_log, log_arg._iv[:2], 600), Fraction(1, 2**105)),
        (exp_arg.exp(), true_value(libmp.mpf_exp, exp_arg._iv[:2], 600), Fraction(1, 2**63)),
    ):
        assert got.lo < exact < got.hi == got.lo + ulp


@pytest.mark.parametrize("w", [1, 2, 7, 64, 255, 1000])
def test_constants_within_three_halves(w):
    wp = w + 64
    for fixed, exact in ((realalg._ln2, libmp.mpf_ln2(wp, libmp.round_nearest)),
                         (realalg._pi, libmp.mpf_pi(wp, libmp.round_nearest))):
        assert abs(fixed(w) - endpoint_fraction(exact) * 2 ** w) < Fraction(3, 2)


# The upper end of a log or exp interval is derived from the lower end's
# series (_log_step, _exp_step) unless the interval is wide or an end is
# exact.  Either way it must be the end two series give.


def two_series_log(iv, prec):
    return realalg._ziv(realalg._log_at, iv[:2], iv[2:], prec)


def two_series_exp(iv, prec):
    return realalg._ziv(realalg._exp_at, iv[:2], iv[2:], prec)


def first_step(step, point, iv, prec):
    """step's result at the first guard of _ziv, or None for the fallback."""
    return step(iv[:2], iv[2:], *point(*iv[:2], prec + 32))


@pytest.mark.parametrize("prec", PRECS)
class TestOneSeriesEnds:
    def test_log_narrow_balls(self, prec, deadline):
        rng = random.Random(7500 + prec)
        checked = 0
        with deadline(60):
            for _ in range(60):
                lo = abs(Fraction(random_operand(rng))) or Fraction(1, 3)
                width = Fraction(rng.randint(1, 999), 2 ** rng.randint(prec, 3 * prec))
                iv = from_endpoints(lo, lo * (1 + width), prec)._iv
                if iv[:2] == iv[2:] or 1 in (realalg._fraction(*iv[:2]), realalg._fraction(*iv[2:])):
                    continue
                assert first_step(realalg._log_step, realalg._log_at, iv, prec) is not None, iv
                assert realalg._log(iv, prec) == two_series_log(iv, prec), iv
                checked += 1
        assert checked >= 30, checked

    def test_log_wide_balls_take_the_fallback(self, prec, deadline):
        rng = random.Random(7600 + prec)
        with deadline(60):
            for _ in range(60):
                lo = abs(Fraction(random_operand(rng))) or Fraction(1, 3)
                width = Fraction(rng.randint(1, 999), 2 ** rng.randint(0, prec // 4))
                iv = from_endpoints(lo, lo * (1 + width), prec)._iv
                assert first_step(realalg._log_step, realalg._log_at, iv, prec) is None, iv
                assert realalg._log(iv, prec) == two_series_log(iv, prec), iv

    def test_log_balls_with_an_end_at_one(self, prec, deadline):
        # endpoints kept from a finer ball can lie much nearer 1 than prec
        # bits, where the lower end's series is narrow enough to step from
        rng = random.Random(7700 + prec)
        with deadline(60):
            for _ in range(40):
                near = Fraction(rng.randint(1, 999), 2 ** rng.randint(10, 3 * prec))
                for lo, hi in ((1, 1 + near), (1 - near, 1)):
                    iv = Ball(from_endpoints(lo, hi, rng.choice((prec, 4 * prec))), prec)._iv
                    assert first_step(realalg._log_step, realalg._log_at, iv, prec) is None
                    got = realalg._log(iv, prec)
                    assert got == two_series_log(iv, prec), iv
                    assert 0 in (realalg._fraction(*got[:2]), realalg._fraction(*got[2:]))

    def test_exp_narrow_balls(self, prec, deadline):
        rng = random.Random(7800 + prec)
        checked = 0
        with deadline(60):
            for _ in range(60):
                x = Fraction(rng.randint(-3000, 3000), rng.randint(1, 60))
                tiny = rng.random() < 0.3
                if tiny:
                    # exp x is 1 + x, taken far below 2**-w, and so finely
                    # that the bracket may exceed it: either way is allowed
                    x = Fraction(rng.choice((-1, 1)) * (2 * rng.randint(0, 500) + 1),
                                 2 ** rng.randint(1, 3 * prec))
                width = Fraction(rng.randint(1, 999), 2 ** rng.randint(prec, 3 * prec))
                iv = from_endpoints(x, x + width, prec)._iv
                if iv[:2] == iv[2:] or not iv[0] or not iv[2]:
                    continue
                if not tiny:
                    assert first_step(realalg._exp_step, realalg._exp_at, iv, prec) is not None, iv
                assert realalg._exp(iv, prec) == two_series_exp(iv, prec), iv
                checked += 1
        assert checked >= 30, checked

    def test_exp_wide_balls_take_the_fallback(self, prec, deadline):
        rng = random.Random(7900 + prec)
        with deadline(60):
            for _ in range(60):
                x = Fraction(rng.randint(-3000, 3000), rng.randint(1, 60))
                width = Fraction(rng.randint(1, 999), 2 ** rng.randint(0, prec // 4))
                iv = from_endpoints(x, x + width, prec)._iv
                if not iv[0] or not iv[2]:
                    continue
                assert first_step(realalg._exp_step, realalg._exp_at, iv, prec) is None, iv
                assert realalg._exp(iv, prec) == two_series_exp(iv, prec), iv

    def test_exp_balls_with_an_end_at_zero(self, prec, deadline):
        rng = random.Random(8000 + prec)
        with deadline(60):
            for _ in range(40):
                near = Fraction(rng.randint(1, 999), 2 ** rng.randint(1, 3 * prec))
                for lo, hi in ((0, near), (-near, 0)):
                    iv = from_endpoints(lo, hi, prec)._iv
                    assert first_step(realalg._exp_step, realalg._exp_at, iv, prec) is None
                    got = realalg._exp(iv, prec)
                    assert got == two_series_exp(iv, prec), iv
                    assert 1 in (realalg._fraction(*got[:2]), realalg._fraction(*got[2:]))


# _log and _exp are memoised; a correctly rounded end is unique, so a
# cached result is the one a fresh evaluation gives.


@pytest.mark.parametrize("prec", PRECS)
def test_memoised_log_and_exp_equal_fresh_evaluations(prec):
    rng = random.Random(2804 + prec)
    for _ in range(20):
        for kernel, x in ((realalg._log, positive_ball(rng, prec)),
                          (realalg._exp, exponent_ball(rng, prec))):
            first = kernel(x._iv, prec)
            hits = kernel.cache_info().hits
            assert kernel(x._iv, prec) == first
            assert kernel.cache_info().hits == hits + 1
            kernel.cache_clear()
            assert kernel(x._iv, prec) == first == kernel.__wrapped__(x._iv, prec)


def test_a_proof_evaluates_each_log_and_exp_once():
    # 15-41 asks for 64 interval logs and exps, and 19 of them repeat an
    # earlier one (log 41, and the log 2 and log 41 at the roots' precision
    # that each eta's log a - d*log|sigma_i(beta)| asks for, among them):
    # 45 are evaluated.  ConjugateData keeps each log|sigma_i| it takes, so
    # a later stage that reads one again asks for nothing.  The roots of
    # integers (2^(1/d), p^(1/d), (r+1)^(11/2), bound^(1/(r-2))) are
    # integer roots, not exp of a log
    kernels = (realalg._log, realalg._exp)
    for kernel in kernels:
        kernel.cache_clear()
    solve_case(get_case("15-41"))
    infos = [kernel.cache_info() for kernel in kernels]
    assert sum(info.misses for info in infos) == 45
    assert sum(info.hits + info.misses for info in infos) == 64


def seeded_ball(rng: random.Random) -> Ball:
    """A Ball at one of PRECS: an int or Fraction of either sign, an
    interval between two of them (often straddling zero), or one of those
    kept at a lower precision, so that its endpoints are wider than prec."""
    kind = rng.randrange(4)
    if kind == 0:
        return Ball(random_operand(rng), rng.choice(PRECS))
    if kind == 3:
        return Ball(seeded_ball(rng), rng.choice(PRECS))
    lo, hi = sorted(Fraction(random_operand(rng)) for _ in range(2))
    return from_endpoints(lo, hi, rng.choice(PRECS))


def libmpi_max(*balls):
    """ball_max as it stood on libmpi: the greater lower and the greater
    upper endpoint by value, then mpi_pos at the widest precision."""
    ends = [mpi(b) for b in balls]
    prec = max(b.prec for b in balls)
    top = (max((e[0] for e in ends), key=BY_VALUE), max((e[1] for e in ends), key=BY_VALUE))
    return libmp.mpi_pos(top, prec), prec


class TestBallAgainstLibmpi:
    """Every Ball operator on seeded balls at mixed precisions, against the
    libmpi call it stood on, endpoint for endpoint."""

    def check(self, got, want, prec):
        assert (mpi(got), got.prec) == (want, prec)

    def test_arithmetic(self):
        rng = random.Random(6501)
        for _ in range(300):
            a, b = seeded_ball(rng), seeded_ball(rng)
            x = random_operand(rng)
            A, B, X = mpi(a), mpi(b), mpi(Ball(x, a.prec))
            prec = max(a.prec, b.prec)
            self.check(a + b, libmp.mpi_add(A, B, prec), prec)
            self.check(a - b, libmp.mpi_sub(A, B, prec), prec)
            self.check(a * b, libmp.mpi_mul(A, B, prec), prec)
            self.check(x + a, libmp.mpi_add(A, X, a.prec), a.prec)
            self.check(x - a, libmp.mpi_sub(X, A, a.prec), a.prec)
            self.check(x * a, libmp.mpi_mul(A, X, a.prec), a.prec)
            self.check(-a, libmp.mpi_neg(A, a.prec), a.prec)
            self.check(abs(a), libmp.mpi_abs(A, a.prec), a.prec)
            self.check(b ** 2, libmp.mpi_pow_int(B, 2, b.prec), b.prec)
            # other int powers are exp(k log b): containment for b > 0
            for k in (3, -2):
                if b.lo > 0:
                    got = b ** k
                    assert got.lo <= min(b.lo ** k, b.hi ** k)
                    assert got.hi >= max(b.lo ** k, b.hi ** k)
                else:
                    with pytest.raises(ValueError):
                        b ** k
            if a.lo >= 0:
                self.check(a.sqrt(), libmp.mpi_sqrt(A, a.prec), a.prec)
            assert a.gt(b) == libmp.mpf_gt(A[0], B[1])
            assert a.gt(x) == libmp.mpf_gt(A[0], X[1])

    def test_division(self):
        # by balls, ints and Fractions; a divisor that reaches zero, which
        # leaves libmpi with an infinite endpoint, raises
        rng = random.Random(6502)
        for _ in range(300):
            a, b = seeded_ball(rng), seeded_ball(rng)
            A, B = mpi(a), mpi(b)
            prec = max(a.prec, b.prec)
            if b.lo <= 0 <= b.hi:
                with pytest.raises(ValueError, match="nonfinite"):
                    a / b
            else:
                self.check(a / b, libmp.mpi_div(A, B, prec), prec)
            n = random_operand(rng)
            if n == 0:
                continue
            q = n if isinstance(n, int) else n.numerator
            self.check(a / q, libmp.mpi_div(A, mpi(Ball(q, a.prec)), a.prec), a.prec)
            self.check(a / abs(q), libmp.mpi_div(A, int_interval(abs(q), a.prec), a.prec), a.prec)
            self.check(a / n, libmp.mpi_div(A, mpi(Ball(n, a.prec)), a.prec), a.prec)

    def test_max_and_min(self):
        rng = random.Random(6503)
        for _ in range(200):
            balls = [seeded_ball(rng) for _ in range(rng.randint(1, 5))]
            want, prec = libmpi_max(*balls)
            self.check(ball_max(*balls), want, prec)
            negs = [from_mpi(libmp.mpi_neg(mpi(b), b.prec), b.prec) for b in balls]
            want, prec = libmpi_max(*negs)
            self.check(ball_min(*balls), libmp.mpi_neg(want, prec), prec)


def random_box(rng: random.Random, prec: int) -> ComplexBall:
    parts = []
    for _ in range(2):
        kind = rng.choice(("narrow", "narrow", "mixed", "point"))
        if kind == "point":
            v = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            parts.append(Ball(v, prec))
        elif kind == "narrow":
            v = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            parts.append(from_endpoints(v, v + Fraction(1, 10**rng.randint(3, 40)), prec))
        else:
            parts.append(from_endpoints(Fraction(-rng.randint(1, 99), 100),
                                             Fraction(rng.randint(1, 99), 100), prec))
    return ComplexBall(*parts)


def random_poly(rng: random.Random) -> IntPoly:
    size = 10 ** rng.choice((1, 3, 12, 30, 90))
    return IntPoly(*(rng.choice((0, rng.randint(-size, size))) for _ in range(rng.randint(0, 9))))


def holds_abs(a: Ball, value) -> bool:
    """|value| lies in a, for a point value = (re, im), on squares."""
    sq = value[0] ** 2 + value[1] ** 2
    return max(a.lo, 0) ** 2 <= sq <= a.hi ** 2


@pytest.mark.parametrize("prec", PRECS)
def test_horner_abs_and_division_match_libmpi(prec):
    # random boxes, some straddling zero (so mixed x mixed products),
    # point parts, and denominators of 1 to past prec bits: the kernel
    # meets libmpi's Horner, and holds f / den at the box's corners and
    # centre, as its magnitude holds theirs
    rng = random.Random(5700 + prec)
    for _ in range(40):
        z = random_box(rng, prec)
        f = random_poly(rng)
        den = rng.choice((1, 1, 3, 2**20 + 7, 2**prec - 1, 2**prec + 1, 3**(prec // 2)))
        want = reference_horner_at(f, z)
        if den != 1:
            want = oracle_div(want, den)
        got = kernel_at(f, z, den)
        assert meets(got, want), (f, den)
        mag = abs(got)
        assert mag.lo <= oracle_abs(want).hi and oracle_abs(want).lo <= mag.hi
        for point in box_points(z):
            value = tuple(v / den for v in exact_value(f.coeffs, point))
            assert holds(got, value), (f, den, point)
            assert holds_abs(mag, value), (f, den, point)


def test_horner_at_certified_roots_matches_libmpi():
    rng = random.Random(5800)
    for cid in ("15-41", "10-271"):
        for z in certified_roots(get_case(cid).f, 64):
            centre = (z.re.mid, z.im.mid)
            for _ in range(15):
                f, den = random_poly(rng), rng.choice((1, 2, 17, 2**200 + 1))
                want = reference_horner_at(f, z)
                if den != 1:
                    want = oracle_div(want, den)
                got = kernel_at(f, z, den)
                assert meets(got, want), (cid, f, den)
                value = tuple(v / den for v in exact_value(f.coeffs, centre))
                assert holds(got, value), (cid, f, den)


@pytest.mark.parametrize("ends", [(-1, 1), (0, 1), (-1, 0)])
def test_nonfinite_endpoints_are_refused(ends):
    # a Ball's endpoints are finite: a quotient by a divisor that reaches
    # zero, where libmpi returns an infinite endpoint, raises instead
    divisor = from_endpoints(*ends, 64)
    for x in (Ball(1, 64), Ball(0, 64), from_endpoints(-2, 3, 64)):
        with pytest.raises(ValueError, match="nonfinite"):
            x / divisor
        with pytest.raises(ValueError, match="nonfinite"):
            realalg._div(x._iv, divisor._iv, 64)
    with pytest.raises(ValueError, match="nonfinite"):
        Ball(1, 64) / 0


def test_parts_of_different_precisions():
    # |z| squares each part at its own precision and adds at the wider
    rng = random.Random(5900)
    for _ in range(30):
        re = Ball(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)), rng.choice(PRECS))
        im = Ball(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)), rng.choice(PRECS))
        z = ComplexBall(re, im)
        assert same_ball(abs(z), oracle_abs(z))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _gamma_logs_digest(rnd: _RoundInputs) -> str:
    # per gamma: its own row, then the delta and unit rows, then its radius
    out = []
    for lam2, rad in zip(rnd.lam2, rnd.max_rad):
        for b in lam2 + [b for row in rnd.lam1 + rnd.lam_units for b in row]:
            out.append(f"{b.lo}:{b.hi}")
        out.append(str(rad))
    return _digest("|".join(out))


# SHA-256 of the exact endpoints of every log enclosure in a round's
# _RoundInputs, read per gamma as _gamma_logs_digest does, and of
# repr(constants), recorded when Ball still ran on mpmath's interval
# context; the log enclosures re-pinned when embeddings moved from Horner's
# rule to power tables, which widened them (15-41's largest radius 3.1e-69
# to 9.8e-69) and left every rounded constant as it was, and again when the
# etas' logs came from log a - d*log|sigma_i(beta)| (15-41's largest radius
# 9.8e-69 to 4.5e-74, 15-5581's 8.0e-69 to 3.2e-74, 10-271's unchanged)
PINNED_DIGESTS = {
    ("15-41", 256): (
        "9048489a54baea77ce68515f0937c97167202879dd6af9d3ddaf79a4e8d60333",
        "888b29af850f7464511642047f7242c300910cceb1a021ff9800e9ed8780a50b",
    ),
    ("15-5581", 256): (
        "105b9013607178b97b1043f991419ce3ecb0f19be639a4d18e80edaf3163c029",
        "33d94c3f2e685ef9df45bef58b557ab42ca9c9ed6595b83e563cbcb7653a68f6",
    ),
    ("10-271", 256): (
        "4b3c40a02737dac5431d0aad6a49d810ddeacbce0f86834b61acc9e30d7fca80",
        "e89aef0bbb41cea8393311774ad39465038a83be0c1344ff43a675d4a0bfb47a",
    ),
    # 64 bits: the roots are 96-bit balls, and the embeddings built from
    # them run at that precision too
    ("10-271", 64): (
        "e256b82f7f16ca11c19c98d683f9cf8d0f488f7bf19382d7798572e7ea0dc26f",
        "e89aef0bbb41cea8393311774ad39465038a83be0c1344ff43a675d4a0bfb47a",
    ),
}


def test_enclosures_match_pinned_digests(chains):
    for (cid, prec), (logs_digest, constants_digest) in PINNED_DIGESTS.items():
        ch = chains[cid]
        conj, constants = ch.conj, ch.constants
        if prec != conj.prec:
            conj = ConjugateData(ch.cfg, prec)
            constants = compute_constants(conj, ch.n_lower)
        rnd = _RoundInputs(conj, constants, ch.abs_bound)
        assert _gamma_logs_digest(rnd) == logs_digest, (cid, prec)
        assert _digest(repr(constants)) == constants_digest, (cid, prec)


@pytest.mark.parametrize("prec", [64, 128, 512])
def test_rounded_constants_do_not_depend_on_precision(chains, prec):
    # the rounded table reproduces the pinned 256-bit digest at each precision
    for cid, ch in chains.items():
        conj = ConjugateData(ch.cfg, prec)
        constants = compute_constants(conj, ch.n_lower)
        assert _digest(repr(constants)) == PINNED_DIGESTS[(cid, 256)][1], (cid, prec)


def reference_nearest_int(x: Fraction) -> int:
    """Nearest integer, ties away from zero, decided by Fraction comparisons:
    the reference for round_div."""
    f = math.floor(x)
    rem = x - f
    if rem > Fraction(1, 2):
        return f + 1
    if rem < Fraction(1, 2):
        return f
    return f + 1 if x > 0 else f


class TestRoundDiv:
    def test_matches_reference(self):
        rng = random.Random(45)
        for _ in range(20000):
            n = rng.randint(-(10 ** rng.randint(0, 45)), 10 ** rng.randint(0, 45))
            d = rng.randint(1, 10 ** rng.randint(0, 45))
            want = reference_nearest_int(Fraction(n, d))
            assert round_div(n, d) == want, (n, d)

    def test_exact_halves_round_away_from_zero(self):
        rng = random.Random(46)
        for _ in range(5000):
            q = rng.randint(0, 10 ** rng.randint(0, 45))
            k = rng.randint(1, 10 ** rng.randint(0, 45))
            # n / d = +-(q + 1/2) exactly
            for n, want in (((2 * q + 1) * k, q + 1), (-(2 * q + 1) * k, -q - 1)):
                assert round_div(n, 2 * k) == want, (n, k)
                assert reference_nearest_int(Fraction(n, 2 * k)) == want


def reference_dec_exp(a: Fraction) -> int:
    """The e with 10**(e-1) <= a < 10**e, for a > 0, on Fractions."""
    e = len(str(a.numerator)) - len(str(a.denominator)) + 1
    while Fraction(10) ** (e - 1) > a:
        e -= 1
    while Fraction(10) ** e <= a:
        e += 1
    return e


def reference_round_sig(x: Fraction, sig: int) -> dict:
    """round_sig as it stood on Fraction powers of ten, for every mode."""
    if x == 0:
        return dict.fromkeys(("nearest", "up", "down", "trunc"), x)
    neg = x < 0
    a = -x if neg else x
    scale = Fraction(10) ** (sig - reference_dec_exp(a))
    m = a * scale
    floor, ceil = math.floor(m), math.ceil(m)
    ints = {"nearest": reference_nearest_int(m), "trunc": floor,
            "up": floor if neg else ceil, "down": ceil if neg else floor}
    return {mode: -Fraction(mi) / scale if neg else Fraction(mi) / scale
            for mode, mi in ints.items()}


def round_sig_operand(rng: random.Random) -> Fraction:
    """A dyadic with a denominator up to 2**400, a decimal tie at the
    fourth or fifth digit, a power of ten, a value just off one, or a
    ratio of two random ints; of either sign, or 0."""
    kind = rng.randrange(6)
    if kind == 0:
        x = Fraction(rng.getrandbits(rng.randint(1, 400)), 1 << rng.randint(0, 400))
    elif kind == 1:
        digits = rng.choice((4, 5))
        tie = 10 * rng.randrange(10 ** (digits - 1), 10 ** digits) + 5
        x = tie * Fraction(10) ** rng.randint(-30, 30)
    elif kind == 2:
        x = Fraction(10) ** rng.randint(-40, 40)
    elif kind == 3:
        x = Fraction(10) ** rng.randint(-40, 40) * (1 + Fraction(rng.choice((-1, 1)), 2 ** rng.randint(1, 200)))
    elif kind == 4:
        x = Fraction(rng.getrandbits(rng.randint(1, 300)), rng.getrandbits(rng.randint(1, 300)) or 1)
    else:
        x = Fraction(rng.choice((0, 99995, 9999, 10 ** 5 - 1)), 10 ** rng.randint(0, 6))
    return -x if rng.random() < 0.5 else x


class TestRounding:
    def test_round_sig_matches_the_fraction_version(self):
        rng = random.Random(9107)
        values = [Fraction(0), Fraction(99995, 10), Fraction(-99995, 10)]
        values += [round_sig_operand(rng) for _ in range(10_000)]
        for x in values:
            for sig in (4, 5):
                for mode, want in reference_round_sig(x, sig).items():
                    got = round_sig(x, sig, mode)
                    assert got == want and type(got) is Fraction, (x, sig, mode)

    def test_round_div_ties_away_from_zero(self):
        assert round_div(1, 2) == 1
        assert round_div(-1, 2) == -1
        assert round_div(3, 2) == 2
        assert round_div(-3, 2) == -2
        assert round_div(7, 5) == 1
        assert round_div(-7, 5) == -1
        assert round_div(0, 1) == 0

    def test_round_sig_modes(self):
        x = Fraction("1234.56")
        assert round_sig(x, 4, "nearest") == 1235
        assert round_sig(x, 4, "down") == 1234
        assert round_sig(x, 4, "up") == 1235
        assert round_sig(x, 4, "trunc") == 1234

    def test_round_sig_negative(self):
        x = Fraction("-1234.56")
        assert round_sig(x, 4, "nearest") == -1235
        assert round_sig(x, 4, "down") == -1235   # toward -inf
        assert round_sig(x, 4, "up") == -1234     # toward +inf
        assert round_sig(x, 4, "trunc") == -1234  # toward zero

    def test_round_sig_small_values(self):
        x = Fraction("0.00012349")
        assert round_sig(x, 4, "nearest") == Fraction("0.0001235")
        assert round_sig(x, 4, "trunc") == Fraction("0.0001234")

    def test_round_sig_exact_values_fixed(self):
        for x in (Fraction(1), Fraction("0.1"), Fraction(1000), Fraction("2.252")):
            for mode in ("nearest", "up", "down", "trunc"):
                assert round_sig(x, 4, mode) == x

    def test_round_sig_zero_and_mode_guard(self):
        assert round_sig(Fraction(0), 4, "nearest") == 0
        with pytest.raises(ValueError):
            round_sig(Fraction(1), 4, "sideways")

    def test_round_sig_direction_envelope(self):
        rng = random.Random(9013)
        for _ in range(200):
            x = random_fraction(rng, span=10**6)
            if x == 0:
                continue
            up = round_sig(x, 3, "up")
            down = round_sig(x, 3, "down")
            near = round_sig(x, 3, "nearest")
            trunc = round_sig(x, 3, "trunc")
            assert down <= x <= up
            assert down <= near <= up
            assert abs(trunc) <= abs(x)
            assert abs(near - x) <= abs(x) * Fraction(1, 100)


class TestCertifiedRoots:
    def test_frozen_decimals(self):
        for cid, pins in (("15-41", F15_ROOTS), ("10-271", F10_ROOTS)):
            f = get_case(cid).f
            roots = certified_roots(f)
            assert len(roots) == len(pins) == f.degree() // 2
            for z, (re, im) in zip(roots, pins):
                assert abs(z.re.mid - re) < Fraction(101, 10**6)
                assert abs(z.im.mid - im) < Fraction(101, 10**6)

    def test_structure(self):
        f = get_case("15-41").f
        roots = certified_roots(f)
        assert len(roots) == 4
        for i in range(4):
            assert roots[i].im.lo > 0
        for i in range(3):
            assert roots[i].re.mid > roots[i + 1].re.mid

    def test_enclosures_are_tight(self):
        for z in certified_roots(get_case("10-271").f):
            assert z.re.rad < Fraction(1, 10**50)
            assert z.im.rad < Fraction(1, 10**50)

    def test_roots_satisfy_polynomial(self):
        f = get_case("10-271").f
        for z in certified_roots(f):
            val = kernel_at(f, z)
            assert val.re.lo <= 0 <= val.re.hi
            assert val.im.lo <= 0 <= val.im.hi

    def test_product_of_roots_is_constant_term(self):
        # the upper roots times their conjugates
        f = get_case("15-41").f
        roots = certified_roots(f)
        prod = oracle_mul(*roots, *(ComplexBall(z.re, -z.im) for z in roots))
        assert prod.re.lo <= 2 <= prod.re.hi
        assert prod.im.lo <= 0 <= prod.im.hi

    def test_low_precision_still_certifies(self):
        roots = certified_roots(get_case("10-271").f, prec=64)
        assert len(roots) == 2
        for z in roots:
            assert z.re.rad < Fraction(1, 10**9)


def reference_root_centres(f, work: int):
    """The centres certified_roots took from mpmath.polyroots at work bits:
    the roots with positive imaginary part, by decreasing real part."""
    coeffs_desc = [int(c) for c in reversed(f.coeffs)]
    with mpmath.workprec(work):
        found = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=work)
        found = [mpmath.mpc(z) for z in found]

    def exact(x):
        return Fraction(*mpmath.libmp.to_rational(x._mpf_))

    upper = [(exact(z.real), exact(z.imag)) for z in found]
    return sorted((t for t in upper if t[1] > 0), reverse=True)


def reference_sqrt_up(q: Fraction, prec: int) -> Fraction:
    """sqrt(q) ceiled to prec significant bits, for a Fraction q >= 0, by
    Fraction comparisons alone: with 4^(e-1) <= q < 4^e, the least
    multiple of 2^(e - prec) whose square is at least q."""
    if not q:
        return Fraction(0)
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    while Fraction(4) ** e <= q:
        e += 1
    while Fraction(4) ** (e - 1) > q:
        e -= 1
    unit = Fraction(2) ** (e - prec)
    n = math.isqrt(math.floor(q / unit**2))
    while (n * unit) ** 2 < q:
        n += 1
    return n * unit


def reference_certify_roots(f, upper, work):
    """realalg._certify_roots in Fraction arithmetic: the enclosures, and
    those of the radius it used to take, sqrt of the squared radius
    rounded to prec bits as a Ball, then square-rooted and rounded up."""
    d = f.degree()
    half = d // 2
    prec = work + 32

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def ceval(z):
        acc = (Fraction(f.coeffs[-1]), Fraction(0))
        for c in reversed(f.coeffs[:-1]):
            acc = cmul(acc, z)
            acc = (acc[0] + c, acc[1])
        return acc

    rad_sq = []
    for i in range(half):
        zi = upper[i]
        num = ceval(zi)
        den = (Fraction(1), Fraction(0))
        for j in range(half):
            zj = upper[j]
            if j != i:
                den = cmul(den, (zi[0] - zj[0], zi[1] - zj[1]))
            den = cmul(den, (zi[0] - zj[0], zi[1] + zj[1]))
        w_sq = (num[0] ** 2 + num[1] ** 2) / (den[0] ** 2 + den[1] ** 2)
        rad_sq.append(d * d * w_sq)

    def separated(dx, dy, i, j):
        return dx * dx + dy * dy > 2 * (rad_sq[i] + rad_sq[j])

    for i in range(half):
        xi, yi = upper[i]
        if yi <= 0 or yi * yi <= rad_sq[i]:
            return None
        for j in range(half):
            xj, yj = upper[j]
            if j > i and not separated(xi - xj, yi - yj, i, j):
                return None
            if j != i and not separated(xi - xj, yi + yj, i, j):
                return None
    for i in range(half - 1):
        xi, yi = upper[i]
        xj, yj = upper[i + 1]
        if xi <= xj or not separated(xi - xj, Fraction(0), i, i + 1):
            return None

    out, old = [], []
    for i in range(half):
        x, y = upper[i]
        for r, ends in ((reference_sqrt_up(rad_sq[i], prec), out),
                        (Ball(rad_sq[i], prec).sqrt().hi, old)):
            re = from_endpoints(x - r, x + r, prec)
            im = from_endpoints(y - r, y + r, prec)
            ends.append((re.lo, re.hi, im.lo, im.hi))
    return out, old


def _endpoints(roots):
    return [(z.re.lo, z.re.hi, z.im.lo, z.im.hi) for z in roots]


def _mul(*polys):
    out = IntPoly(1)
    for g in polys:
        out = out * g
    return out


class TestRootCentres:
    @pytest.mark.parametrize("cid", ["15-41", "10-271"])
    @pytest.mark.parametrize("work", [64, 256, 512])
    def test_match_reference_on_case_polynomials(self, cid, work):
        f = get_case(cid).f
        coeffs = [int(c) for c in reversed(f.coeffs)]
        starts, scale = realalg._float_roots(coeffs)
        got = realalg._root_centres(coeffs, starts, scale, work)
        ref = reference_root_centres(f, work)
        assert sorted(got, reverse=True) == ref
        # the first work tried certifies, so the enclosures are those the
        # reference centres give
        assert _endpoints(certified_roots(f, work)) == _endpoints(
            realalg._certify_roots(f, ref, work)
        )

    @pytest.mark.parametrize("cid", ["15-41", "10-271"])
    def test_disc_test_matches_reference(self, cid):
        # the integer disc test against the Fraction one it replaced, on
        # centres moved by seeded amounts from 2^-work to about 32: large
        # moves are refused by both, and what both accept must agree.  The
        # radius is sqrt(A/B) ceiled to prec bits, exactly; each disc lies
        # inside the one the radius rounded from A/B as a Ball gave
        f = get_case(cid).f
        rng = random.Random(cid)
        accepted = refused = 0
        for work in (64, 128):
            centres = reference_root_centres(f, work)
            for k in [*range(-3, 13), *range(-3, 13), work]:
                # moves of up to 4 * 2^-k
                unit = Fraction(2) ** -k
                moved = [
                    (x + rng.randint(-4, 4) * unit, y + rng.randint(-4, 4) * unit)
                    for x, y in centres
                ]
                got = realalg._certify_roots(f, moved, work)
                ref = reference_certify_roots(f, moved, work)
                if ref is None:
                    assert isinstance(got, str)
                    refused += 1
                else:
                    new, old = ref
                    assert _endpoints(got) == new
                    for (a, b, c, e), (a0, b0, c0, e0) in zip(new, old):
                        assert a0 <= a and b <= b0 and c0 <= c and e <= e0
                    accepted += 1
        assert accepted > 10 and refused > 10, (accepted, refused)

    def test_disc_test_refuses_repeated_centres(self):
        f = get_case("10-271").f
        centres = reference_root_centres(f, 64)
        assert realalg._certify_roots(f, [centres[0], centres[0]], 64) == realalg._NOT_CONVERGED

    def test_tiny_real_part_is_zero_as_in_reference(self):
        # i*sqrt(2) is a root; Newton leaves its real part near 2^-147 at
        # 64 bits, and a part below 2^(1 - work) is taken as exactly 0, as
        # polyroots did
        f = _mul(IntPoly(2, 0, 1), IntPoly(3, 1, 1))
        coeffs = [int(c) for c in reversed(f.coeffs)]
        starts, scale = realalg._float_roots(coeffs)
        for work in (64, 256):
            got = realalg._root_centres(coeffs, starts, scale, work)
            assert sorted(got, reverse=True) == reference_root_centres(f, work)
            assert max(got)[0] == 0

    @pytest.mark.parametrize(
        "f",
        [
            # close roots: i*sqrt(99) and -1/2 + i*sqrt(403)/2
            _mul(IntPoly(99, 0, 1), IntPoly(101, 1, 1)),
            # a close pair: x^2 = -10^6 +- i, roots 10^-3 apart at size 10^3
            _mul(IntPoly(10**6, 0, 1), IntPoly(10**6, 0, 1)) + IntPoly(1),
            # large coefficients, roots of size 1, 10^10 and 10^20
            _mul(IntPoly(1, 1, 1), IntPoly(10**20, 3, 1), IntPoly(10**40, 5, 1)),
            # a constant term beyond float range
            IntPoly(10**400, 1, 1),
        ],
    )
    def test_toys_certify(self, f):
        for prec in (64, 256):
            roots = certified_roots(f, prec)
            half = f.degree() // 2
            assert len(roots) == half
            for z in roots:
                assert z.im.lo > 0
                val = kernel_at(f, z)
                assert val.re.lo <= 0 <= val.re.hi
                assert val.im.lo <= 0 <= val.im.hi
            for i in range(half - 1):
                assert roots[i].re.lo > roots[i + 1].re.hi

    def test_tied_real_parts_are_refused(self):
        # (x^2 + 99)(x^2 + 101): both upper roots have real part 0, so no
        # disc proves the order by decreasing real part that numbers the
        # embeddings; the reference centres were refused the same way, and
        # the error names the order test, the only one that fails
        f = _mul(IntPoly(99, 0, 1), IntPoly(101, 0, 1))
        assert [t[0] for t in reference_root_centres(f, 64)] == [0, 0]
        with pytest.raises(ArithmeticError, match="only at the order by real part"):
            certified_roots(f, 64)

    @pytest.mark.parametrize("stub, value", [("_apart", False), ("_root_centres", None)])
    def test_unconverged_certification_is_refused(self, monkeypatch, stub, value):
        # discs that never separate, or Newton that never settles, on
        # every try: the error is the generic one, not the order test's
        monkeypatch.setattr(realalg, stub, lambda *args: value)
        with pytest.raises(ArithmeticError) as err:
            certified_roots(get_case("10-271").f, 64)
        assert str(err.value) == "root certification did not converge"

    def test_real_root_is_refused(self):
        with pytest.raises(ValueError, match="real root"):
            certified_roots(_mul(IntPoly(-2, 0, 1), IntPoly(3, 1, 1)))


def disc_operand(rng: random.Random, bits: int) -> int:
    """A positive int of exactly `bits` bits, often at either end of its
    range, where the bit-length bounds are tight."""
    pick = rng.randrange(3)
    if pick == 0:
        return 1 << bits - 1
    if pick == 1:
        return (1 << bits) - 1
    return rng.getrandbits(bits) | 1 << bits - 1


class TestDiscDecision:
    @pytest.mark.parametrize("size, trials", [(1, 20000), (3000, 2000)])
    def test_bit_lengths_agree_with_the_exact_products(self, size, trials):
        # seeded operands of size bits and up, their bit lengths drawn so
        # that the two sides often lie within 2^4 of each other, with the
        # two products on the right alike in size or one far below
        rng = random.Random(size)
        close = {True: 0, False: 0}
        for _ in range(trials):
            ls, lbi, lbj = (size + rng.randrange(16) for _ in range(3))
            lai = max(1, ls + lbi - 1 + rng.randrange(-6, 7))
            laj = max(1, lai + lbj - lbi + rng.choice((-40, -2, -1, 0, 1, 2)))
            s, ai, bi, aj, bj = (disc_operand(rng, n) for n in (ls, lai, lbi, laj, lbj))
            want = s * bi * bj > 2 * (ai * bj + aj * bi)
            assert realalg._apart(s, ai, bi, aj, bj) == want, (s, ai, bi, aj, bj)
            left, right = (s * bi * bj).bit_length(), (2 * (ai * bj + aj * bi)).bit_length()
            if abs(left - right) <= 4:
                close[want] += 1
        assert min(close.values()) > trials // 20, close

    def test_zero_operands_take_the_exact_products(self):
        # a zero distance, A = 0 or B = 0 would break the bounds, since a
        # zero has no leading bit: bit lengths that would call the discs
        # apart, or not, must not decide then
        rng = random.Random(77)
        big, small = (disc_operand(rng, 4000) for _ in range(2)), (disc_operand(rng, 8) for _ in range(2))
        (b1, b2), (a1, a2) = big, small
        cases = [
            (0, a1, b1, a2, b2),      # a repeated centre
            (1 << 500, a1, 0, a2, b2),  # B_i = 0
            (1 << 500, a1, b1, a2, 0),  # B_j = 0
            (1, 0, b1, 0, b2),        # two discs of radius 0
            (1, 0, b1, a2, b2),
            (1, a1, b1, 0, b2),
            (0, 0, b1, 0, b2),
            (0, 0, 0, 0, 0),
        ]
        for args in cases:
            s, ai, bi, aj, bj = args
            assert realalg._apart(*args) == (s * bi * bj > 2 * (ai * bj + aj * bi)), args
        assert realalg._apart(0, a1, b1, a2, b2) is False
        assert realalg._apart(1 << 500, a1, 0, a2, b2) is False
        assert realalg._apart(1, 0, b1, 0, b2) is True

    def test_conjugate_discs_apart_is_the_half_plane_test(self):
        # disc i against its conjugate's is y*y*b > a*scale*scale with both
        # sides over scale^2, the upper-half-plane test it replaced
        rng = random.Random(78)
        for size in (1, 2000):
            for _ in range(5000):
                y = disc_operand(rng, size + rng.randrange(8))
                b = disc_operand(rng, size + rng.randrange(8))
                a = disc_operand(rng, max(1, 2 * y.bit_length() + b.bit_length() + rng.randrange(-5, 3)))
                assert realalg._apart(4 * y * y, a, b, a, b) == (y * y * b > a), (y, a, b)


# the widest ratio of an embedding's radius to the four-product Horner's
# over every case element and derivative of f at 64 and 256 bits is 5.5
# (15-41): the dot product's radius adds up |c_k| times each power's,
# while Horner's grows with its partial sums, which cancel
RADIUS_FACTOR = 6


class TestConjugateData:
    def test_generator_embeds_to_roots(self, chains):
        ch = chains["15-41"]
        gen = FieldElement(IntPoly(0, 1))
        assert len(ch.conj.roots) == ch.cfg.d // 2
        for i in range(ch.cfg.d // 2):
            z = ch.conj.embed(gen, i)
            assert z.re.mid == ch.conj.roots[i].re.mid

    def test_embedding_is_multiplicative(self, chains):
        ch = chains["10-271"]
        cfg = ch.cfg
        from cyclobound.numberfield import nf_mul

        a = FieldElement(IntPoly(1, 2, 0, -1))
        b = FieldElement(IntPoly(0, 1, 1), 3)
        for i in range(cfg.d // 2):
            lhs = ch.conj.embed(nf_mul(a, b, cfg.f), i)
            rhs = oracle_mul(ch.conj.embed(a, i), ch.conj.embed(b, i))
            # both enclose the same exact value, so they must intersect
            assert lhs.re.lo <= rhs.re.hi and rhs.re.lo <= lhs.re.hi
            assert lhs.im.lo <= rhs.im.hi and rhs.im.lo <= lhs.im.hi

    @pytest.mark.parametrize("prec", [realalg.DEFAULT_PREC, 64])
    def test_embeddings_are_horner_at_the_roots(self, chains, prec):
        # embedding i comes from root i's power table; for every case
        # element and every derivative of f, at every upper root, it must
        # meet the four-product Horner at the root divided by the
        # denominator on Balls, also at 64 bits, where the roots run at
        # 96, and stay within RADIUS_FACTOR of its radius; so must its
        # magnitude meet Horner's
        for ch in chains.values():
            cfg = ch.cfg
            conj = ConjugateData(cfg, prec)
            eta1, eta2, _ = case_etas(cfg)
            g, derivatives = cfg.f, []
            for _ in range(1, cfg.d):
                g = poly_derivative(g)
                derivatives.append(FieldElement(g))
            for e in (*cfg.units, *cfg.gammas, *cfg.deltas, *eta1, *eta2, *derivatives):
                for i in range(cfg.d // 2):
                    want = oracle_div(oracle_horner(e.num, conj.roots[i]), e.den)
                    got = conj.embed(e, i)
                    assert meets(got, want), (e, i)
                    for part, other in ((got.re, want.re), (got.im, want.im)):
                        assert part.rad <= RADIUS_FACTOR * other.rad, (e, i)
                    mag, oracle = conj.embed_abs(e, i), oracle_abs(want)
                    assert mag.lo <= oracle.hi and oracle.lo <= mag.hi, (e, i)

    def test_one_power_table_per_root(self, monkeypatch):
        # a whole proof builds d/2 tables of d powers each, in the
        # ConjugateData, and no other
        built = []
        table = realalg._power_table

        def counted(z, n):
            built.append(n)
            return table(z, n)

        monkeypatch.setattr(realalg, "_power_table", counted)
        for cid in ("15-41", "15-5581", "10-271"):
            built.clear()
            solve_case(cid)
            d = get_case(cid).d
            assert built == [d] * (d // 2), cid

    @pytest.mark.parametrize("prec", [8, 64, 512])
    def test_embeddings_run_at_the_roots_precision(self, chains, prec):
        cfg = chains["10-271"].cfg
        conj = ConjugateData(cfg, prec)
        work = conj.roots[0].re.prec  # the certified roots carry guard bits
        assert work == max(prec, 64) + 32
        for elem in (cfg.units[0], *case_etas(cfg)[0]):
            assert conj.embed_abs(elem, 0).prec == work
            assert conj.log_abs(elem, 1).prec == work
        # a multiplicand's logs come from its beta's, at the same precision
        for elem in conj.etas[0]:
            assert conj.log_abs(elem, 1).prec == work

    def test_embed_abs_cached(self, chains):
        ch = chains["10-271"]
        a = FieldElement(IntPoly(5, 1))
        assert ch.conj.embed_abs(a, 0) is ch.conj.embed_abs(a, 0)

    def test_max_abs_root(self, chains):
        box15 = chains["15-41"].conj.max_abs_root()
        assert Fraction("1.166") < box15.lo and box15.hi < Fraction("1.167")
        box10 = chains["10-271"].conj.max_abs_root()
        assert Fraction("1.251") < box10.lo and box10.hi < Fraction("1.252")


class TestHeights:
    def test_rational_integer_height(self, chains):
        ch = chains["10-271"]
        h = log_height(FieldElement(7), ch.conj)
        lo, hi = float(h.lo), float(h.hi)
        assert lo <= math.log(7) <= hi

    def test_half_has_height_log_two(self, chains):
        ch = chains["10-271"]
        h = log_height(FieldElement(IntPoly(1), 2), ch.conj)
        assert float(h.lo) <= math.log(2) <= float(h.hi)

    def test_unit_heights(self, chains):
        # frozen five-digit values of the unit heights
        pins = {
            "15-41": (Fraction("0.54626"), Fraction("0.53083"), Fraction("0.37191")),
            "10-271": (Fraction("0.59205"),),
        }
        for cid, values in pins.items():
            ch = chains[cid]
            for u, pin in zip(ch.cfg.units, values):
                h = log_height(u, ch.conj)
                assert abs(h.mid - pin) < Fraction(101, 10**7)

    def test_height_of_zero_rejected(self, chains):
        ch = chains["10-271"]
        with pytest.raises(ValueError):
            log_height(FieldElement(0), ch.conj)


def reference_log_height(elem, conj) -> Ball:
    """log_height as it stood before it read the cached logs: each term
    is log max(|sigma_i|, 1) taken afresh, and the leading coefficient
    comes from a charpoly of its own."""
    total = Ball(abs(charpoly(elem, conj.cfg.f).lc()), conj.prec).log()
    one = Ball(1, conj.prec)
    terms = [ball_max(conj.embed_abs(elem, i), one).log() for i in range(conj.d // 2)]
    for term in terms + terms:
        total = total + term
    return total / conj.d


def reference_matveev_a(elem, conj, height=None) -> Ball:
    """compute_constants' Baker height as it stood before the angle was
    skipped: every angle is taken.  height defaults to
    reference_log_height's, which needs a field element."""
    d = conj.d
    best_b = (height or reference_log_height(elem, conj)) * d
    for i in range(d // 2):
        arg = conj.arg(elem, i)
        term = (conj.log_abs(elem, i) ** 2 + arg ** 2).sqrt()
        best_b = ball_max(best_b, term)
    return ball_max(best_b, Ball(Fraction(4, 25), conj.prec))


def _case_elements(cfg, conj):
    # the etas as field elements; conj builds them as Multiplicands
    eta1, eta2, _ = case_etas(cfg)
    return (*cfg.units, *cfg.gammas, *cfg.deltas, *eta1, *eta2)


@functools.lru_cache(maxsize=None)
def fine_conj(cid: str) -> ConjugateData:
    """The case's embeddings at 1,024 bits, against which a coarser
    enclosure must hold the value."""
    return ConjugateData(get_case(cid), 1024)


def contains(outer: Ball, inner: Ball) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


class TestBakerHeights:
    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_match_reference_on_case_elements(self, chains, prec):
        # log heights bit for bit, and the upper end of every Baker height,
        # the only end compute_constants reads
        for ch in chains.values():
            conj = ConjugateData(ch.cfg, prec)
            for e in _case_elements(ch.cfg, conj):
                got, want = log_height(e, conj), reference_log_height(e, conj)
                assert same_ball(got, want), (ch.cfg.case_id, e)
                got = matveev_a(e, conj)
                assert got.hi == reference_matveev_a(e, conj).hi, e
                assert got.lo <= got.hi
            # the Multiplicand records against the field-element etas at
            # 1,024 bits: each log height holds theirs, and each Baker
            # height's upper end bounds theirs
            cid, fine = ch.cfg.case_id, fine_conj(ch.cfg.case_id)
            eta1, eta2, _ = case_etas(ch.cfg)
            for rec, e in zip(conj.etas[0] + conj.etas[1], eta1 + eta2):
                assert contains(log_height(rec, conj), reference_log_height(e, fine)), (cid, rec)
                assert matveev_a(rec, conj).hi >= reference_matveev_a(e, fine).hi, (cid, rec)

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_match_reference_on_seeded_products(self, chains, prec):
        # products of case elements and their inverses, with embeddings
        # whose magnitude lies below 1, above it, or on both sides across
        # the embeddings, and the constants 1, -1, 1/2 and 3
        rng = random.Random(6300 + prec)
        for ch in chains.values():
            cfg = ch.cfg
            conj = ConjugateData(cfg, prec)
            pool = list(_case_elements(cfg, conj))
            elems = [FieldElement(1), FieldElement(-1), FieldElement(IntPoly(1), 2), FieldElement(3)]
            for _ in range(6):
                e = FieldElement(1)
                for _ in range(rng.randint(1, 3)):
                    factor = rng.choice(pool)
                    if rng.random() < 0.5:
                        factor = nf_inverse(factor, cfg.f)
                    e = nf_mul(e, factor, cfg.f)
                elems.append(e)
            sides = set()
            for e in elems:
                mags = [conj.embed_abs(e, i) for i in range(cfg.d // 2)]
                sides.add((any(m.hi < 1 for m in mags), any(m.lo > 1 for m in mags)))
                got, want = log_height(e, conj), reference_log_height(e, conj)
                assert same_ball(got, want), e
                assert matveev_a(e, conj).hi == reference_matveev_a(e, conj).hi
            assert {(True, False), (False, True), (True, True)} <= sides

    def test_enclosures_across_one_and_reaching_zero(self, chains):
        # an enclosure of |sigma_i| that contains 1 has its log clamped at
        # 0 below; one that reaches 0 has no log and takes the max first
        ch = chains["10-271"]
        work = ch.conj.roots[0].re.prec
        for lo, hi in ((Fraction(999, 1000), Fraction(1001, 1000)), (Fraction(0), Fraction(2)),
                       (Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1))):
            conj = ConjugateData(ch.cfg, ch.conj.prec)
            e = FieldElement(IntPoly(3, 1))
            conj._abs[(e, 0)] = from_endpoints(lo, hi, work)
            got, want = log_height(e, conj), reference_log_height(e, conj)
            assert same_ball(got, want), (lo, hi)

    def test_angles_taken_per_proof(self, monkeypatch):
        # the certified angle is taken only where the bound |arg| <= pi,
        # or |arg| <= pi/2 for a certified positive real part, could raise
        # a Baker height: 1, 1 and 3 per built-in proof, not 24/28/8
        calls = []
        angle = realalg.ball_atan2

        def counted(y, x):
            calls.append(1)
            return angle(y, x)

        monkeypatch.setattr(realalg, "ball_atan2", counted)
        for cid, pin in (("15-41", 1), ("15-5581", 1), ("10-271", 3)):
            calls.clear()
            solve_case(cid)
            assert len(calls) == pin, cid

    # angles taken per Baker height, in the order eta1, eta2, units: the
    # skip decisions of the square-root form of the test, at every precision
    ANGLES = {"15-41": [0, 0, 0, 0, 0, 1], "15-5581": [0, 0, 0, 0, 0, 0, 1], "10-271": [2, 0, 0, 1]}

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_angles_taken_per_element(self, chains, monkeypatch, prec):
        calls = []
        angle = realalg.ball_atan2
        monkeypatch.setattr(realalg, "ball_atan2", lambda y, x: calls.append(1) or angle(y, x))
        for cid, pin in self.ANGLES.items():
            conj = ConjugateData(chains[cid].cfg, prec)
            eta1, eta2, units = conj.etas
            got = []
            for e in (*eta1, *eta2, *units):
                calls.clear()
                matveev_a(e, conj)
                got.append(len(calls))
            assert got == pin, (cid, prec)

    def test_skip_test_is_the_root_test(self):
        # _sqrt_within(v, b) == (v.sqrt().hi <= b.hi): at b on either side
        # of the rounded root, exact squares, and b of fewer and more bits
        # than v
        rng = random.Random(6500)
        seen = set()
        for _ in range(400):
            prec = rng.choice((53, 64, 256, 288))
            x = Fraction(rng.randint(0, 10**12), rng.randint(1, 10**6))
            v = rng.choice((Ball(x, prec), Ball(x * x, prec), from_endpoints(x / 2, x, prec)))
            root = v.sqrt().hi
            for t in (root, root * (1 + Fraction(1, 2**rng.randint(40, 400))),
                      root * (1 - Fraction(1, 2**rng.randint(40, 400))), x, x / 3, 0):
                b = Ball(t, rng.choice((53, prec, 2 * prec)))
                assert realalg._sqrt_within(v, b) == (root <= b.hi), (v, t)
                seen.add((root < b.hi) - (root > b.hi))
        assert seen == {-1, 0, 1}

    def test_exact_angle_decides_for_10_271(self, chains):
        # 10-271's first eta1 and its unit: the largest exact |log sigma_i|
        # (2.73 and 2.63) exceeds d*h (2.49 and 2.37), so the angle sets A
        ch = chains["10-271"]
        cfg, conj = ch.cfg, ch.conj
        eta1, _, units = conj.etas
        for elem, dh_pin, term_pin in ((eta1[0], "2.49", "2.73"), (units[0], "2.37", "2.63")):
            dh = log_height(elem, conj) * cfg.d
            terms = [(conj.log_abs(elem, i) ** 2 + conj.arg(elem, i) ** 2).sqrt()
                     for i in range(cfg.d // 2)]
            top = ball_max(*terms)
            assert round_sig(dh.mid, 3, "nearest") == Fraction(dh_pin)
            assert round_sig(top.mid, 3, "nearest") == Fraction(term_pin)
            assert top.gt(dh)
            assert matveev_a(elem, conj).hi == top.hi

    def test_pi_is_taken_once_per_proof(self):
        # every Baker height's hull and every angle read one memoised pi
        # ball at the roots' precision, where Ziv's loop ran for each before
        for cid in ("15-41", "15-5581", "10-271"):
            realalg._pi_ball.cache_clear()
            solve_case(cid)
            info = realalg._pi_ball.cache_info()
            assert (info.misses, info.currsize) == (1, 1) and info.hits >= 5, (cid, info)

    def test_every_angle_lies_within_pi_hi(self):
        # the bound the skip rests on, on boxes in every quadrant and
        # hugging the negative real axis from both sides
        rng = random.Random(6400)
        for prec in PRECS:
            pi_hi = libmp.mpf_pi(prec, libmp.round_ceiling)
            for _ in range(60):
                x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
                y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), 10 ** rng.randint(0, prec // 2))
                for bx in (Ball(x, prec), from_endpoints(x - 1, x, prec)):
                    for by in (Ball(y, prec), from_endpoints(min(y, 0), max(y, 0), prec)):
                        arg = ball_atan2(by, bx)
                        lo, hi = mpi(arg)
                        assert libmp.mpf_le(libmp.mpf_neg(pi_hi), lo)
                        assert libmp.mpf_le(hi, pi_hi)


class TestMultiplicands:
    """The records Multiplicand(a, beta) for eta = a/beta^d against eta
    built in the field, at seeded integral beta."""

    @staticmethod
    def seeded(rng, cfg, count):
        for _ in range(count):
            beta = FieldElement(IntPoly(*[rng.randint(-3, 3) for _ in range(cfg.d)]))
            if not beta.is_zero():
                yield rng.choice((2, 3, 41, 5581)), beta

    def test_lead_equals_the_field_element_lead(self):
        rng = random.Random(7301)
        for cid in ("15-41", "10-271"):
            cfg = get_case(cid)
            conj = ConjugateData(cfg, 64)
            for a, beta in self.seeded(rng, cfg, 40):
                eta = nf_mul(FieldElement(a), nf_pow(beta, -cfg.d, cfg.f), cfg.f)
                assert conj.lead(Multiplicand(a, beta)) == charpoly(eta, cfg.f).lc(), (a, beta)

    def test_logs_and_angles_hold_the_fine_field_element_ones(self):
        # at every embedding the 256-bit log holds eta's 1,024-bit one, and
        # the angle holds eta's 1,024-bit atan2 or is the hull; most angles
        # are -d*arg sigma_i(beta) shifted by a nonzero multiple of 2*pi
        rng = random.Random(7302)
        shifted = total = 0
        for cid in ("15-41", "10-271"):
            cfg = get_case(cid)
            conj, fine = ConjugateData(cfg), fine_conj(cid)
            for a, beta in self.seeded(rng, cfg, 8):
                rec = Multiplicand(a, beta)
                eta = nf_mul(FieldElement(a), nf_pow(beta, -cfg.d, cfg.f), cfg.f)
                for i in range(cfg.d // 2):
                    assert contains(conj.log_abs(rec, i), fine.log_abs(eta, i)), (cid, rec, i)
                    got, hull = conj.arg(rec, i), realalg._pi_hull(conj.roots[0].re.prec)
                    assert same_ball(got, hull) or contains(got, fine.embed(eta, i).arg()), (cid, rec, i)
                    raw = conj.embed(beta, i).arg() * -cfg.d
                    shifted += abs(raw.mid - got.mid) > 1
                    total += 1
        assert shifted > total // 2, (shifted, total)


class TestRegulator:
    def test_independent_of_embedding_choice(self, chains):
        # any three of 15-41's four embedding pairs give the same |det|
        ch = chains["15-41"]
        units = ch.cfg.units
        want = regulator(ch.conj)
        for idxs in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            v = abs(det([[ch.conj.log_abs(u, i) for u in units] for i in idxs]))
            assert abs(v.mid - want.mid) < Fraction(1, 10**40)

    def test_certified_nonzero(self, chains):
        for ch in chains.values():
            assert regulator(ch.conj).lo > 0


class TestConstantChain:
    def test_rounded_table_15_41(self, chains):
        cc = chains["15-41"].constants
        assert cc.margin == Fraction("2.252")
        assert cc.max_abs_root == Fraction("1.167")
        assert cc.deriv_bounds == (
            Fraction("16.40"), Fraction("56.37"), Fraction("109.6"),
            Fraction("126.7"), Fraction("90.07"), Fraction("39.00"),
            Fraction("9.489"),
        )
        assert (cc.c1, cc.c2, cc.c3, cc.c4) == (
            Fraction("1.090"), Fraction("9.490"), Fraction("8.706"),
            Fraction("1.091"),
        )
        assert (cc.c5, cc.c6) == (Fraction("1.213"), Fraction("1.392"))
        assert (cc.c7, cc.c8) == (Fraction("2.368"), Fraction("2.717"))
        assert cc.delta_abs_range == (Fraction("0.2714"), Fraction("2.124"))
        assert cc.gamma_abs_range == (Fraction("0.5676"), Fraction("5.349"))
        assert cc.unit_minor_bound == Fraction("2.747")
        assert cc.unit_minor_triple == (0, 1, 2)
        assert cc.a_values == (
            Fraction("25.02"), Fraction("47.80"), Fraction("4.371"),
            Fraction("4.247"), Fraction("2.976"),
        )
        assert cc.a0_eta1 == (128, 16)
        assert cc.a0_eta2 == (41**7,)
        assert cc.rank == 5

    def test_rounded_table_15_5581(self, chains):
        cc = chains["15-5581"].constants
        # shares the field with 15-41, so field-only constants coincide
        base = chains["15-41"].constants
        assert (cc.c1, cc.c2, cc.c3, cc.c4) == (base.c1, base.c2, base.c3, base.c4)
        assert cc.deriv_bounds == base.deriv_bounds
        assert cc.delta_abs_range == base.delta_abs_range
        assert (cc.c5, cc.c6) == (Fraction("0.6584"), Fraction("1.392"))
        assert (cc.c7, cc.c8) == (Fraction("1.286"), Fraction("2.717"))
        assert cc.gamma_abs_range == (Fraction("1.522"), Fraction("5.531"))
        assert cc.a_values == (
            Fraction("25.02"), Fraction("74.22"), Fraction("4.371"),
            Fraction("4.247"), Fraction("2.976"),
        )
        assert cc.a0_eta2 == (5581**7, 5581**7)

    def test_rounded_table_10_271(self, chains):
        cc = chains["10-271"].constants
        assert cc.margin == Fraction("2.252")
        assert cc.max_abs_root == Fraction("1.252")
        assert cc.deriv_bounds == (
            Fraction("6.977"), Fraction("9.261"), Fraction("5.021"),
        )
        assert (cc.c1, cc.c2, cc.c3, cc.c4) == (
            Fraction("1.189"), Fraction("5.022"), Fraction("4.223"),
            Fraction("1.190"),
        )
        assert (cc.c5, cc.c6) == (Fraction("0.5884"), Fraction("0.4126"))
        assert (cc.c7, cc.c8) == (Fraction("0.4970"), Fraction("0.3485"))
        assert cc.delta_abs_range == (Fraction("0.7877"), Fraction("1.796"))
        assert cc.gamma_abs_range == (Fraction("2.253"), Fraction("7.307"))
        assert cc.unit_minor_bound is None
        assert cc.a_values == (
            Fraction("3.988"), Fraction("21.52"), Fraction("2.634"),
        )
        assert cc.a0_eta1 == (8, 2)
        assert cc.a0_eta2 == (271**3,)
        assert cc.rank == 3

    def test_regulator_displays(self, chains):
        assert chains["15-41"].constants.regulator == Fraction("4.2219")
        assert chains["15-41"].constants.regulator_standard == Fraction("33.775")
        assert chains["10-271"].constants.regulator == Fraction("1.1840")
        assert chains["10-271"].constants.regulator_standard == Fraction("2.3681")

    def test_ranges_bracket_the_exact_values(self, chains):
        # each range must contain every |delta| and |gamma| embedding value
        for ch in chains.values():
            cc, cfg = ch.constants, ch.cfg
            lo, hi = cc.delta_abs_range
            for dd in cfg.deltas:
                for i in range(cfg.d // 2):
                    v = ch.conj.embed_abs(dd, i)
                    assert lo <= v.lo and v.hi <= hi
            glo, ghi = cc.gamma_abs_range
            for g in cfg.gammas:
                for i in range(cfg.d // 2):
                    v = ch.conj.embed_abs(g, i)
                    assert glo <= v.lo and v.hi <= ghi

    def test_one_charpoly_per_element(self, chains, monkeypatch):
        # every eta a/beta^d needs the characteristic polynomial of beta^d
        # once, for its height and its leading coefficient a0; a fresh
        # ConjugateData has no leading coefficient cached yet.  A unit is
        # integral, so its leading coefficient is 1 without one
        seen = []

        def recording_charpoly(elem, f):
            seen.append(elem)
            return charpoly(elem, f)

        monkeypatch.setattr(realalg, "charpoly", recording_charpoly)
        ch = chains["15-41"]
        cfg = ch.cfg
        conj = ConjugateData(cfg)
        assert compute_constants(conj, ch.n_lower) == ch.constants
        assert seen == [nf_pow(b, cfg.d, cfg.f) for b in cfg.deltas + cfg.gammas]
        assert len(seen) == 3
        # a second chain on the same ConjugateData reads the cached leads
        assert compute_constants(conj, ch.n_lower) == ch.constants
        assert len(seen) == 3

    def test_lead_matches_charpoly(self, chains):
        rng = random.Random(2207)
        for ch in chains.values():
            cfg, conj = ch.cfg, ConjugateData(ch.cfg, 64)
            eta1, eta2, units = case_etas(cfg)
            elements = [*units, *cfg.gammas, *cfg.deltas, *eta1, *eta2]
            for den in (1, 1, 2, 3, 6):
                num = IntPoly(*[rng.randint(-9, 9) for _ in range(cfg.d)])
                elements.append(FieldElement(num or IntPoly(1), den))
            for elem in elements:
                assert conj.lead(elem) == charpoly(elem, cfg.f).lc(), elem
            # the Multiplicand records lead as their field elements do
            for rec, elem in zip(conj.etas[0] + conj.etas[1], eta1 + eta2):
                assert conj.lead(rec) == charpoly(elem, cfg.f).lc(), rec

    def test_etas_match_inverse_of_the_power(self, chains):
        # case_etas inverts delta and gamma before raising them to the d-th
        # power; inverting delta^d and gamma^d gives the same elements
        for ch in chains.values():
            cfg = ch.cfg
            f, d = cfg.f, cfg.d
            eta1, eta2, units = case_etas(cfg)
            assert eta1 == [nf_mul(FieldElement(2), nf_inverse(nf_pow(dl, d, f), f), f)
                            for dl in cfg.deltas]
            assert eta2 == [nf_mul(FieldElement(cfg.p), nf_inverse(nf_pow(g, d, f), f), f)
                            for g in cfg.gammas]
            assert units == list(cfg.units)

    def test_unit_bounds_scale_with_the_unit_count(self, chains):
        # Cramer's rule over u units sums u minors, so dropping 15-41's
        # third unit leaves factor 2, where a fixed 3 gave 5.227 / 5.998
        ch = chains["15-41"]
        cfg = ch.cfg._replace(units=ch.cfg.units[:2])
        cc = compute_constants(ConjugateData(cfg), ch.n_lower)
        assert (cc.c7, cc.c8) == (Fraction("3.485"), Fraction("3.999"))
        assert cc.unit_minor_triple is not None

    def test_each_unit_minor_formed_once(self, chains, monkeypatch):
        # a minor keeps u - 1 rows of a conjugate triple and deletes one
        # column, so 15-41's C(4, 2) row pairs and 3 columns give 18
        # minors; forming them per triple took 4 * 9 = 36.  The choice and
        # the constants built on it are the per-triple ones
        ch = chains["15-41"]
        want = ch.constants
        units = ch.cfg.units
        u = len(units)
        sizes = []

        def counting_det(rows, one=1):
            sizes.append(len(rows))
            return det(rows, one)

        monkeypatch.setattr(realalg, "det", counting_det)
        cc = compute_constants(ConjugateData(ch.cfg), ch.n_lower)
        assert cc == want
        assert sizes.count(u - 1) == 18
        best = None
        for triple in itertools.combinations(range(ch.cfg.d // 2), u):
            rows = [[ch.conj.log_abs(unit, i) for unit in units] for i in triple]
            vol = abs(det(rows))
            minors = [
                abs(det([r[:cj] + r[cj + 1:] for r in rows[:ri] + rows[ri + 1:]], Ball(1)))
                for ri in range(u)
                for cj in range(u)
            ]
            r2 = ball_max(*minors)
            if vol.lo > 0 and (best is None or r2.hi < best[0]):
                best = (r2.hi, triple, r2, vol)
        _, triple, r2, vol = best
        assert (cc.unit_minor_triple, cc.unit_minor_bound) == (triple, round_sig(r2.hi, 4, "up"))
        assert cc.c7 == round_sig((r2 * u * cc.c5 / vol).hi, 4, "up")
        assert cc.c8 == round_sig((r2 * u * cc.c6 / vol).hi, 4, "up")

    def test_small_lower_bound_rejected(self, chains):
        ch = chains["15-41"]
        with pytest.raises(ValueError, match="too small"):
            compute_constants(ch.conj, 10)

    def test_tail_check_is_the_power_comparison(self, chains):
        # _power_exceeds(p, n, y) == p**n > y around each boundary, where
        # bit lengths cannot decide, and far from it, where they do
        rng = random.Random(6600)
        for _ in range(600):
            p = rng.choice((2, 3, 4, 41, 271, 5581, rng.randint(2, 10**30)))
            n = rng.randint(0, 300)
            y = max(1, p**n + rng.choice((-1, 0, 1, rng.randint(-p**n, p**n))))
            if rng.random() < 0.3:
                y = rng.randint(1, 2**rng.randint(1, 3000))
            assert realalg._power_exceeds(p, n, y) == (p**n > y), (p, n, y)
        # the three proofs' floors clear (2*10**10)**d by bit lengths alone,
        # so 15-5581's check builds no 49,972-bit power
        for ch in chains.values():
            cfg = ch.cfg
            y_bits = ((2 * 10**10) ** cfg.d).bit_length()
            assert ch.n_lower * (cfg.p.bit_length() - 1) >= y_bits, cfg.case_id
            assert realalg._power_exceeds(cfg.p, ch.n_lower, (2 * 10**10) ** cfg.d)
            assert not realalg._power_exceeds(cfg.p, 10, (2 * 10**10) ** cfg.d)

    def test_to_dict_is_json_friendly(self, chains):
        d = chains["15-41"].constants.to_dict()
        assert d["c7"] == 2.368
        assert d["case_id"] == "15-41"
        assert isinstance(d["a_values"], list)


# ---------------------------------------------------------------------------
# kernels that stop at the bits the proof keeps, each against the form it
# replaced: the same centres, the same correctly rounded ends, the same
# bounds, and integer roots inside the exp of a log they replaced


def no_real_root_poly(rng: random.Random) -> IntPoly:
    """A seeded monic product of 2 to 4 distinct quadratics x^2 + bx + c
    with b^2 < 4c, so of degree 4 to 8 with no real root."""
    quads = set()
    while len(quads) < rng.randint(2, 4):
        b = rng.randint(-30, 30)
        quads.add((b * b // 4 + rng.randint(1, 10**rng.randint(1, 6)), b))
    return _mul(*(IntPoly(c, b, 1) for c, b in quads))


def centres_at_both_targets(f, work, monkeypatch):
    """_root_centres as it stands (Newton polished to work + 40 bits) and
    with the polish asked for the 2*work + 20 bits it used to reach."""
    coeffs = [int(c) for c in reversed(f.coeffs)]
    starts, scale = realalg._float_roots(coeffs)
    new = realalg._root_centres(coeffs, starts, scale, work)
    polish = realalg._polish

    def old_target(c, z, sc, bits):
        assert bits == work + 40
        return polish(c, z, sc, 2 * work + 20)

    with monkeypatch.context() as m:
        m.setattr(realalg, "_polish", old_target)
        old = realalg._root_centres(coeffs, starts, scale, work)
    return new, old


class TestLeanKernels:
    @pytest.mark.parametrize("cid", ["15-41", "10-271"])
    @pytest.mark.parametrize("work", [64, 128, 256, 512])
    def test_polish_targets_give_the_same_centres(self, cid, work, monkeypatch):
        new, old = centres_at_both_targets(get_case(cid).f, work, monkeypatch)
        assert new is not None and new == old

    def test_polish_targets_agree_on_seeded_polynomials(self, monkeypatch):
        rng = random.Random(6900)
        settled = 0
        for _ in range(12):
            f = no_real_root_poly(rng)
            for work in (64, 128, 256, 512):
                new, old = centres_at_both_targets(f, work, monkeypatch)
                assert new == old, (f, work)
                settled += new is not None
        assert settled >= 40

    def test_ln2_within_three_halves_of_the_direct_series(self):
        # each w shifts the series of the next multiple of 64 bits; the
        # direct series at w itself is the one _ln2 used to be
        for w in range(33, 2101):
            assert 2 * abs(realalg._ln2(w) - realalg._ln2_series.__wrapped__(w)) <= 3, w
        # and within 5/4 of ln 2 itself, read from a series 80 bits wider
        for w in (33, 64, 255, 288, 289, 301, 319, 320, 1000, 2100):
            wide = realalg._ln2_series.__wrapped__(w + 80)
            assert 4 * abs((realalg._ln2(w) << 80) - wide) <= 5 * 2**80 + 6, w

    def test_log_and_exp_ends_equal_the_direct_series_kernel(self, monkeypatch):
        # TestAgainstReference's seeded logs, exps and fractional powers,
        # then seeded balls at every precision: each end with the shifted
        # ln 2 is the end the direct series at each w gave
        calls = []
        rng = random.Random(6103)  # test_powers: bp ** e is exp(e log bp)
        for _ in range(60):
            x, prec, _ = random_operand(rng), rng.choice(PRECS), rng.randint(-6, 7)
            e = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            calls.append((operator.pow, Ball(abs(x) or 1, rng.choice(PRECS)), e))
        rng = random.Random(6104)  # test_transcendental
        for _ in range(40):
            x = abs(random_operand(rng)) or 1
            calls.append((Ball.log, Ball(x, rng.choice(PRECS))))
            small = Fraction(rng.randint(-2000, 2000), rng.randint(1, 50))
            calls.append((Ball.exp, Ball(small, rng.choice(PRECS))))
        rng = random.Random(6901)
        for prec in PRECS:
            for _ in range(15):
                calls.append((Ball.log, positive_ball(rng, prec)))
                calls.append((Ball.exp, exponent_ball(rng, prec)))

        def ends():
            realalg._log.cache_clear()
            realalg._exp.cache_clear()
            return [fn(*args)._iv for fn, *args in calls]

        new = ends()
        asked = []
        monkeypatch.setattr(realalg, "_ln2", lambda w: asked.append(w) or realalg._ln2_series(w))
        old = ends()
        realalg._log.cache_clear()
        realalg._exp.cache_clear()
        assert new == old
        assert len({w % 64 for w in asked}) > 10

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_baker_heights_equal_the_full_angle_form(self, chains, prec):
        # every eta and unit: the upper end with the angles that the pi and
        # pi/2 bounds skip left out is the one with every angle taken, on
        # the same log height
        for ch in chains.values():
            conj = ConjugateData(ch.cfg, prec)
            eta1, eta2, units = conj.etas
            for e in (*eta1, *eta2, *units):
                want = reference_matveev_a(e, conj, log_height(e, conj))
                assert matveev_a(e, conj).hi == want.hi, (ch.cfg.case_id, e)

    def test_baker_heights_equal_the_full_angle_form_at_seeded_points(self, chains):
        # the element 1 with its embeddings replaced by seeded boxes, some
        # of them wide, of either sign of real part or across 0, so that a
        # skipped angle can decide the height: where the pi/2 bound, or pi,
        # lets an angle be skipped, taking it would not have raised it
        ch = chains["15-41"]
        conj = ConjugateData(ch.cfg, ch.conj.prec)
        one = FieldElement(1)
        rng = random.Random(6903)
        for _ in range(300):
            conj._embeds.clear()
            conj._abs.clear()
            conj._logs.clear()
            for i in range(conj.d // 2):
                r, t = math.exp(rng.uniform(-0.9, 0.6)), rng.uniform(-math.pi, math.pi)
                x, y, w = Fraction(r * math.cos(t)), Fraction(r * math.sin(t)), Fraction(rng.choice((0, 0, 1)), 4)
                conj._embeds[one, i] = ComplexBall(from_endpoints(x - w, x + w, conj.prec),
                                                   from_endpoints(y - w, y + w, conj.prec))
            assert matveev_a(one, conj).hi == reference_matveev_a(one, conj).hi

    @pytest.mark.parametrize("prec", [64, 256, 512])
    def test_derivative_bounds_equal_the_per_root_form(self, chains, prec):
        # one square root and one division by i! of the largest squared
        # magnitude, against the largest of the per-root |f^(i)| / i!
        for ch in chains.values():
            conj = ConjugateData(ch.cfg, prec)
            got = realalg._derivative_bounds(conj)
            g, fact = ch.cfg.f, 1
            for i in range(1, conj.d):
                g = poly_derivative(g)
                fact *= i
                want = ball_max(*(abs(realalg._dot_at(g, t)) / fact for t in conj.tables))
                assert same_ball(got[i - 1], want), (ch.cfg.case_id, i)

    def test_integer_roots_lie_inside_exp_of_log(self, chains):
        # the roots the proof takes, 2^(1/d), p^(1/d), (r+1)^(11/2) and
        # bound^(1/(r-2)), then seeded ones: each end correctly rounded,
        # so the ball lies inside the exp(log t / k) it replaced
        roots = []
        for ch in chains.values():
            cc = ch.constants
            roots += [(2, cc.d), (cc.p, cc.d), ((cc.rank + 1) ** 11, 2), (ch.abs_bound, cc.rank - 2)]
        rng = random.Random(6902)
        roots += [(rng.getrandbits(rng.randint(1, 900)) or 1, rng.randint(1, 12)) for _ in range(60)]
        roots += [(r ** k, k) for r, k in ((3, 3), (2**70 + 1, 5), (7, 1))]
        for t, k in roots:
            for prec in PRECS:
                got = int_root(t, k, prec)
                old = Ball(t, prec) ** Fraction(1, k)
                assert old.lo <= got.lo and got.hi <= old.hi, (t, k, prec)
                if got.lo == got.hi:
                    assert got.lo ** k == t
                    continue
                assert got.lo ** k < t < got.hi ** k, (t, k, prec)
                m, e = got._iv[:2]
                assert m.bit_length() == prec and got.hi - got.lo == Fraction(2) ** e
