"""Exact integer polynomial arithmetic, over ZZ and mod q.

Coefficient vectors are stored lowest degree first.  Everything here is
plain ``int`` arithmetic, so results are exact.  Norms and discriminants
come from one characteristic polynomial: Newton's identities on the powers
of an element, each the last times its multiplication matrix.
Arithmetic mod q (F_q[x], roots mod p, residue tables and the primality
proof) runs on the same division and product kernels as ZZ[x].
"""
from __future__ import annotations

import functools
import math
import operator


class IntPoly:
    """Polynomial over ZZ, coefficients lowest degree first.

    >>> IntPoly(2, -1, 1).coeffs   # x^2 - x + 2
    (2, -1, 1)
    >>> IntPoly(1, 0, 0).degree()  # trailing zeros are trimmed
    0
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        if len(coeffs) == 1 and isinstance(coeffs[0], (tuple, list)):
            coeffs = tuple(coeffs[0])
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = tuple(int(c) for c in coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly(coeffs={self.coeffs!r})"

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

    def __divmod__(self, other) -> tuple["IntPoly", "IntPoly"]:
        """Exact-quotient division by a monic divisor.

        >>> divmod(IntPoly(-1, 0, 1), IntPoly(1, 1))   # (x^2-1) / (x+1)
        (IntPoly(coeffs=(-1, 1)), IntPoly(coeffs=()))
        """
        other = _coerce(other)
        rem = list(self.coeffs)
        q = _reduce(rem, other.coeffs)
        return IntPoly(*q), IntPoly(*rem[: other.degree()])

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


def _reduce(rem: list, f) -> list:
    """Divide the coefficient list rem by the coefficient sequence f, whose
    leading coefficient is +-1, in place: rem[:deg f] is left holding the
    remainder.  Returns the quotient's coefficients."""
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    lc, db = f[-1], len(f) - 1
    if lc not in (1, -1):
        raise ValueError("integer divmod needs a monic divisor")
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * lc
        if c:
            q[i - db] = c
            for j, b in enumerate(f, i - db):
                rem[j] -= c * b
    return q


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


def det(rows, one=1):
    """Determinant by cofactor expansion along the first row.

    Ring-generic like ``poly_eval``: only +, - and * are used, so entries
    may be ints (exact result), Fractions or balls.  Cost grows as n!, which
    suits the bound chain's matrices of order at most 4.  The empty matrix
    has determinant ``one``, the ring's unit.
    """
    if not rows:
        return one
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


def mulmod(a: IntPoly, b: IntPoly, f: IntPoly) -> IntPoly:
    """(a * b) % f in one pass: the product and its reduction by f (leading
    coefficient +-1) run on one coefficient list, and only the remainder
    becomes an IntPoly.

    >>> mulmod(IntPoly(1, 1), IntPoly(-1, 1), IntPoly(1, 0, 1))   # x^2-1 mod x^2+1
    IntPoly(coeffs=(-2,))
    """
    return IntPoly(_mul_reduce(a.coeffs, b.coeffs, f.coeffs))


def _mul_reduce(a, b, f) -> list:
    """The coefficients of (a * b) % f, for coefficient sequences a, b and
    f (leading coefficient +-1): the core of mulmod over ZZ and F_q."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    _reduce(out, f)
    return out[: len(f) - 1]


def charpoly_mod(a: IntPoly, f: IntPoly) -> IntPoly:
    """Characteristic polynomial of multiplication by a on ZZ[x]/(f), f monic.

    Newton's identities, twice: the power sums P_j of the roots of f come
    from its coefficients, Tr(a^k) is the sum of coeff_j(a^k mod f) * P_j,
    and those traces give the coefficients.  Every value is an integer, so
    each division by k is exact.  The result is monic of degree deg f, and
    its constant term is (-1)^deg f times the norm of a, that is Res(f, a).
    The coefficients are memoised on the coefficient tuples of a and f (a
    proof norms and then inverts the same deltas and gammas), and every
    call returns its own IntPoly.

    >>> charpoly_mod(IntPoly(0, 2), IntPoly(1, 0, 1))   # 2i: x^2 + 4
    IntPoly(coeffs=(4, 0, 1))
    """
    if f.lc() != 1:
        raise ValueError("characteristic polynomial requires monic f")
    return IntPoly(*_charpoly(a.coeffs, f.coeffs))


@functools.lru_cache(maxsize=256)
def _charpoly(a: tuple, f: tuple) -> tuple:
    """The coefficients of charpoly_mod, highest degree last.

    Column j of the multiplication matrix of a is x^j * a mod f, each the
    previous one times x and reduced once by the monic f, so each next
    power a^(k+1) = a * a^k is one matrix-vector product.
    """
    d = len(f) - 1
    sums = [d]  # P_j, sums of j-th powers of the roots of f
    for k in range(1, d):
        sums.append(-k * f[d - k] - sum(f[d - i] * sums[k - i] for i in range(1, k)))
    cs = [1]  # cs[k]: coefficient of x^(d-k)
    traces = []  # Tr(a^k) = sum_j coeff_j(a^k) * P_j
    a = list(a)
    _reduce(a, f)
    cols = [(a + [0] * d)[:d]]
    for _ in range(1, d):
        col = [0] + cols[-1]
        top = col.pop()
        cols.append([c - top * b for c, b in zip(col, f)] if top else col)
    rows = list(zip(*cols))
    power = cols[0]
    for k in range(1, d + 1):
        traces.append(sum(map(operator.mul, power, sums)))
        cs.append(-sum(cs[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
        if k < d:
            power = [sum(map(operator.mul, row, power)) for row in rows]
    return tuple(reversed(cs))


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * N(f'(x)) in ZZ[x]/(f), for monic f.

    The norm is read from the constant term of charpoly_mod.

    >>> discriminant(IntPoly(1, 0, 1))   # x^2 + 1
    -4
    """
    d = f.degree()
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    norm_sign = -1 if (d * (d - 1) // 2 + d) % 2 else 1
    return norm_sign * charpoly_mod(poly_derivative(f), f)[0]


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
    for d in range(1, m):
        if m % d == 0:  # x^m - 1 is the product of Phi_d over all d | m
            num, r = divmod(num, cyclotomic(d))
            assert r.is_zero()
    return num


# Arithmetic mod q.  A polynomial over F_q is a plain coefficient list,
# lowest degree first, each entry in 0..q-1 and no trailing zeros; the zero
# polynomial is [].  Every divisor is made monic first, so division is
# _reduce over ZZ followed by one reduction mod q: reducing mod q commutes
# with division by a monic polynomial.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES: a proof below _MR_PROVEN_BELOW, False from it up.

    >>> [is_prime(n) for n in (271, 341, 5581)]
    [True, False, True]
    """
    if n < 2 or n >= _MR_PROVEN_BELOW:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    r, s = n - 1, 0
    while r % 2 == 0:
        r, s = r // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def values_mod(f: IntPoly, q: int) -> frozenset[int]:
    """The values of f mod q at every residue, by Horner's rule mod q.

    Memoised on the coefficient tuple of f and q, so a field's sieve sets
    are built once for all the primes p it is searched at.

    >>> sorted(values_mod(IntPoly(2, -1, 1, -1, 1), 5))
    [1, 2]
    """
    return _values_mod(f.coeffs, q)


@functools.lru_cache(maxsize=256)
def _values_mod(f: tuple, q: int) -> frozenset:
    values = set()
    for x in range(q):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % q
        values.add(acc)
    return frozenset(values)


def _fq(coeffs, q: int) -> list[int]:
    """The integer coefficient sequence coeffs as a polynomial over F_q."""
    out = [c % q for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _fq_monic(a: list[int], q: int) -> list[int]:
    """The nonzero a over F_q divided by its leading coefficient."""
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _fq_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic b over F_q."""
    rem = list(a)
    quo = _reduce(rem, b)
    return _fq(quo, q), _fq(rem[: len(b) - 1], q)


def _fq_powmod(a: list[int], e: int, m: list[int], q: int) -> list[int]:
    """a^e mod a monic m over F_q, by square-and-multiply."""
    result, base = _fq_divmod([1], m, q)[1], _fq_divmod(a, m, q)[1]
    while e:
        if e & 1:
            result = _fq(_mul_reduce(result, base, m), q)
        base = _fq(_mul_reduce(base, base, m), q)
        e >>= 1
    return result


def _fq_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """The monic gcd of a monic a and any b over F_q."""
    while b:
        b = _fq_monic(b, q)
        a, b = b, _fq_divmod(a, b, q)[1]
    return a


def _split_linear(g: list[int], q: int) -> list[int]:
    """The roots of a monic g over F_q, q odd, g a product of distinct
    linear factors: equal-degree factorisation (Cohen, GTM 138, §3.4)
    with the shifts a = 0, 1, 2, ... in turn instead of random ones.

    gcd((x + a)^((q-1)/2) - 1, g) keeps the roots r of g with r + a a
    nonzero square.  For roots r != s the Legendre symbols of
    (r + a)(s + a) sum to -1 over all a, so some a puts r + a and s + a
    on opposite sides, and the loop over a always splits g.
    """
    if len(g) <= 2:
        return [-g[0] % q] if len(g) == 2 else []
    for a in range(q):
        w = _fq_powmod([a, 1], (q - 1) // 2, g, q)
        w[0] -= 1
        s = _fq_gcd(g, _fq(w, q), q)
        if 1 < len(s) < len(g):
            return _split_linear(s, q) + _split_linear(_fq_divmod(g, s, q)[0], q)
    raise AssertionError("no shift splits g")  # unreachable, see above


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """All roots of f mod p, sorted, for a prime p.

    Exact over the field F_p: x^p - x is the product of x - r over all r
    in F_p, so g = gcd(x^p - x, f mod p) vanishes at exactly the roots of
    f mod p, each a simple root of g.  x^p is reduced mod f by
    square-and-multiply, and g is split into its linear factors.  When
    g = x^p - x (f mod p is zero, or divisible by x^p - x) every residue
    is a root.  A p not proved prime is refused: if Z/p is no field,
    Hensel lifts need not be unique and a floor built on them is not
    proved.  The roots are memoised on the coefficient tuple of f and p
    (a proof's verification and its digit scan both ask), and every call
    returns its own list.

    >>> roots_mod_p(IntPoly(2, -1, 1, -1, 1), 271)   # x^4 - x^3 + x^2 - x + 2
    [241]
    """
    return list(_roots_mod_p(f.coeffs, p))


@functools.lru_cache(maxsize=256)
def _roots_mod_p(f: tuple, p: int) -> tuple:
    """The roots of roots_mod_p, as a sorted tuple."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a proven prime; roots mod p need a field")
    fp = _fq(f, p)
    if not fp:
        return tuple(range(p))
    fp = _fq_monic(fp, p)
    h = _fq_powmod([0, 1], p, fp, p) + [0, 0]
    h[1] -= 1
    g = _fq_gcd(fp, _fq(h, p), p)
    if len(g) == p + 1:
        return tuple(range(p))
    return tuple(sorted(_split_linear(g, p)))
