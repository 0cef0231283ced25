"""Exact integer polynomial arithmetic.

Coefficient vectors are stored lowest degree first.  Everything here is
plain ``int`` arithmetic, so results are exact; the resultant uses the
subresultant polynomial remainder sequence to keep intermediate
coefficients polynomially sized.
"""
from __future__ import annotations

import dataclasses
import functools
import math


@dataclasses.dataclass(init=False, eq=True)
class IntPoly:
    """Polynomial over ZZ, coefficients lowest degree first.

    >>> IntPoly(2, -1, 1).coeffs   # x^2 - x + 2
    (2, -1, 1)
    >>> IntPoly(1, 0, 0).degree()  # trailing zeros are trimmed
    0
    """

    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
            coeffs = tuple(coeffs[0])
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = tuple(int(c) for c in coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __neg__(self) -> "IntPoly":
        return IntPoly(*(-c for c in self.coeffs))

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(*(self[i] + other[i] for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "IntPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(*(other * c for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(*out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out, base = IntPoly(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other) -> tuple["IntPoly", "IntPoly"]:
        """Exact-quotient division by a monic divisor.

        >>> divmod(IntPoly(-1, 0, 1), IntPoly(1, 1))   # (x^2-1) / (x+1)
        (IntPoly(coeffs=(-1, 1)), IntPoly(coeffs=()))
        """
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.lc() not in (1, -1):
            raise ValueError("integer divmod needs a monic divisor")
        rem = list(self.coeffs)
        db = other.degree()
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] * other.lc()
            if c:
                q[i - db] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - db + j] -= c * b
        return IntPoly(*q), IntPoly(*rem[:db])

    def __floordiv__(self, other) -> "IntPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "IntPoly":
        return divmod(self, other)[1]

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if not c:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = "" if abs(c) == 1 and i else str(abs(c))
            parts.append(("-" if c < 0 else "+" if parts else "") + mag + term)
        return "".join(parts)


def _coerce(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to IntPoly")


def poly_eval(f: IntPoly, x):
    """Horner evaluation.  ``x`` may be any value supporting + and * with int
    (ints, Fractions, balls, even another IntPoly for composition)."""
    if f.is_zero():
        return 0 * x
    acc = f.coeffs[-1] + 0 * x
    for c in reversed(f.coeffs[:-1]):
        acc = acc * x + c
    return acc


def det(rows):
    """Determinant by cofactor expansion along the first row.

    Ring-generic like ``poly_eval``: only +, - and * are used, so entries
    may be ints (exact result), Fractions or balls.  Cost grows as n!, which
    suits the bound chain's matrices of order at most 4.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, a in enumerate(rows[0]):
        term = a * det([row[:j] + row[j + 1 :] for row in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def poly_derivative(f: IntPoly) -> IntPoly:
    return IntPoly(*(i * c for i, c in enumerate(f.coeffs) if i))


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    # prem(a, b): lc(b)^(deg a - deg b + 1) * a = q*b + prem, deg prem < deg b
    da, db = a.degree(), b.degree()
    lcb = b.lc()
    e = da - db + 1
    r = a
    while not r.is_zero() and r.degree() >= db:
        shift = r.degree() - db
        r = r * lcb - IntPoly(*([0] * shift + [r.lc()])) * b
        e -= 1
    return r * lcb**e


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over ZZ via the subresultant PRS (Collins/Brown-Traub).

    >>> resultant(IntPoly(-2, 1), IntPoly(-3, 1))   # Res(x-2, x-3)
    -1
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return 0
    if f.degree() == 0:
        return f.lc() ** g.degree()
    if g.degree() == 0:
        return g.lc() ** f.degree()
    sign = 1
    a, b = f, g
    if a.degree() < b.degree():
        a, b = b, a
        if a.degree() % 2 and b.degree() % 2:
            sign = -sign
    gg, hh = 1, 1
    while b.degree() > 0:
        delta = a.degree() - b.degree()
        if a.degree() % 2 and b.degree() % 2:
            sign = -sign
        rem = _pseudo_rem(a, b)
        divisor = gg * hh**delta
        a, b = b, IntPoly(*(c // divisor for c in rem.coeffs))
        assert all(c % divisor == 0 for c in rem.coeffs)
        if b.is_zero():
            return 0  # common factor of positive degree
        gg = a.lc()
        if delta > 0:
            hh = gg**delta // hh ** (delta - 1)
    da = a.degree()
    num, den = b.lc() ** da, hh ** (da - 1)
    assert num % den == 0
    return sign * (num // den)


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f).

    >>> discriminant(IntPoly(1, 0, 1))   # x^2 + 1
    -4
    """
    d = f.degree()
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, poly_derivative(f))
    s = -1 if (d * (d - 1) // 2) % 2 else 1
    assert r % f.lc() == 0
    return s * (r // f.lc())


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1.

    >>> str(cyclotomic(15))
    'x^8-x^7+x^5-x^4+x^3-x+1'
    >>> str(cyclotomic(10))
    'x^4-x^3+x^2-x+1'
    """
    if m < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = IntPoly(*([-1] + [0] * (m - 1) + [1]))  # x^m - 1
    for d in _divisors(m)[:-1]:
        q, r = divmod(num, cyclotomic(d))
        assert r.is_zero()
        num = q
    return num
