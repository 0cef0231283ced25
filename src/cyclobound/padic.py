"""p-adic root lifting and the digit-scan lower bound.

If f(x) = 2*p^n then x is a root of f modulo p^n, so x agrees modulo p^n
with a Hensel lift of some root of f mod p.  Since |x| is roughly
(2*p^n)^(1/d), the base-p expansion of x (or of p^n - |x| when x < 0) has
all digits equal to 0 (resp. p-1) from index floor((n+1)/d)+1 up to n-1.
The lifted root's digits are x's digits in that range, so the first lifted
digit index k0 >= 1 whose digit lies in {0, p-1} yields the lower bound
n >= d*(k0-1) - 1 for every solution large enough that the digit window is
nonempty (small n is covered separately by the direct search).
"""
from __future__ import annotations

from collections import namedtuple

from .numberfield import CaseConfig
from .polyarith import IntPoly, poly_derivative, poly_eval, roots_mod_p


class PAdicRoot(namedtuple("PAdicRoot", ("p", "digits"))):
    """A root of f modulo p^depth, as base-p digits, lowest first; immutable."""

    __slots__ = ()

    @property
    def r0(self) -> int:
        return self.digits[0]

    @property
    def depth(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        v = 0
        for a in reversed(self.digits):
            v = v * self.p + a
        return v

    def first_extreme_index(self) -> int | None:
        """Least k >= 1 with digit in {0, p-1}, or None if no computed digit hits."""
        digits = self.digits
        end = len(digits)
        for extreme in (0, self.p - 1):
            try:
                end = digits.index(extreme, 1, end)
            except ValueError:
                pass
        return end if end < len(digits) else None


def _digits(x: int, p: int, n: int) -> list[int]:
    """The n base-p digits of 0 <= x < p^n, lowest first.

    Splitting at p^(n//2) halves the operands at every level, where peeling
    one digit at a time would pass over all of x once per digit.
    """
    if n <= 32:
        out = []
        for _ in range(n):
            x, a = divmod(x, p)
            out.append(a)
        return out
    h = n // 2
    hi, lo = divmod(x, p**h)
    return _digits(lo, p, h) + _digits(hi, p, n - h)


def _precisions(depth: int) -> list[int]:
    """The Newton precisions ceil(depth/2^k), ..., ceil(depth/2), depth.

    Ascending from 1, each at most twice the one before, so every step
    doubles and the last one starts from ceil(depth/2) digits; there are
    ceil(log2(depth)) + 1 of them.
    """
    out = [depth]
    while out[-1] > 1:
        out.append((out[-1] + 1) // 2)
    return out[::-1]


# Newton steps whose modulus p^E has at least this many bits reduce with
# _Barrett, smaller ones with %; hensel_lift gives the measured crossover
BARRETT_MIN_BITS = 8000


class _Barrett:
    """Reduction modulo m of the integers a with |a| < 2^h * m (P. Barrett,
    CRYPTO '86), with a reciprocal only as wide as the quotient.

    With n = m.bit_length() and recip = 2^(n+h) // m, taken once, the
    quotient of a >= 0 by m is estimated as q = ((a >> (n-1)) * recip) >> (h+1).
    Each floor only lowers it, so q <= a // m.  The first two take less
    than 1 from a factor each, which takes less than 2^(n-1) / m <= 1 and
    a / 2^(n+h) < 1 (as a < 2^h * m < 2^(n+h)) from a/m, and the last
    less than 1 more, so a // m <= q + 2: a - q*m needs at most two
    subtractions of m.  A third would mean an operand past the bound, and
    raises ArithmeticError.
    """

    __slots__ = ("m", "n", "h", "recip")

    def __init__(self, m: int, h: int):
        self.m, self.n, self.h = m, m.bit_length(), h
        self.recip = (1 << (self.n + h)) // m

    def quotient(self, a: int) -> int:
        """The estimate q of a // m, for 0 <= a < 2^h * m."""
        return (a >> (self.n - 1)) * self.recip >> (self.h + 1)

    def __call__(self, a: int) -> int:
        """a % m: |a| is reduced, and its sign folded back in as % does."""
        m = self.m
        r = abs(a)
        r -= self.quotient(r) * m
        for _ in range(2):
            if r >= m:
                r -= m
        if r >= m:
            raise ArithmeticError("Barrett quotient estimate off by more than 2")
        return m - r if a < 0 and r else r


def hensel_lift(f: IntPoly, p: int, r0: int, depth: int) -> PAdicRoot:
    """Lift a simple root of f mod p to a root mod p^depth.

    Newton iteration on the precisions of _precisions(depth), which halve
    from depth down to 1: every step exactly doubles, and the last one
    starts from ceil(depth/2) digits, so a depth just above a power of two
    costs no second near-full step.  A step from a root x mod p^e to one
    mod p^E, E <= 2e, is x <- x - f(x)*y and needs y = f'(root)^(-1) only
    mod p^e.  So y is carried along and refined by y <- y*(2 - f'(x)*y)
    mod p^e before x moves (f'(x) = f'(root) mod p^e), which doubles its
    precision too; one modular inverse mod p starts it.  Each step builds
    one table of x^k mod p^E, k <= deg f, and takes f(x) mod p^E and
    f'(x) mod p^e from it as sums with the small coefficients.  A simple
    root mod p has exactly one lift mod p^depth, so the digits equal those
    of any other correct lift.

    A step whose modulus p^E has BARRETT_MIN_BITS bits or more reduces
    its d - 1 table products and the x update with one _Barrett(p^E, h),
    h = bitlen(w * p^e) for w the sum of the |coefficients| of f: each
    product is below p^E * p^e and |x - f(x)*y| < (w * p^e + 1) * p^E, so
    every quotient is below 2^h, and each reduction takes at most the two
    corrections _Barrett proves.  Its reciprocal costs one division with an
    h-bit quotient, about what one of the d reductions it replaces costs.
    Per step, on CPython 3.11 on a 2-core Xeon, against %: deg f = 8 gains
    from about 5,000 bits (-7%; -11% at 8,000, -20% at 12,000); deg f = 4
    breaks even near 9,000 (-5 to -7% at 10,000-12,000).  The cutoff,
    8,000 bits, sits between the two and keeps every lift of the paper's
    proofs at their default depths (at most 6,261 bits) on %, which also
    reduces y mod p^e and splits _digits at every size.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if poly_eval(f, r0) % p != 0:
        raise ValueError(f"{r0} is not a root of f mod {p}")
    fprime = poly_derivative(f)
    fprime_r0 = poly_eval(fprime, r0)
    if fprime_r0 % p == 0:
        raise ValueError(f"root {r0} of f mod {p} is not simple: p divides disc(f)")
    x, y = r0 % p, pow(fprime_r0, -1, p)
    weight = sum(abs(c) for c in f.coeffs)
    precisions = _precisions(depth)
    for e, E in zip(precisions, precisions[1:]):
        mod, mod_e = p**E, p**e
        if mod.bit_length() < BARRETT_MIN_BITS:
            reduce = mod.__rmod__  # a -> a % mod
        else:
            reduce = _Barrett(mod, (weight * mod_e).bit_length())
        powers = [1, x]
        for _ in range(f.degree() - 1):
            powers.append(reduce(powers[-1] * x))
        fpx = sum(c * w for c, w in zip(fprime.coeffs, powers))
        y = y * (2 - fpx % mod_e * y) % mod_e
        fx = sum(c * w for c, w in zip(f.coeffs, powers))
        x = reduce(x - fx * y)
    return PAdicRoot(p, tuple(_digits(x, p, depth)))


def digit_scan_bound(root: PAdicRoot, d: int) -> int:
    """Lower bound d*(k0-1) - 1 on n for solutions passing through this root.

    k0 is the first digit index >= 1 with digit in {0, p-1}; if none of the
    computed digits hits, the first index that *could* hit is root.depth, so
    the bound uses k0 = root.depth.
    """
    k0 = root.first_extreme_index()
    if k0 is None:
        k0 = root.depth
    return d * (k0 - 1) - 1


def scan_case(cfg: CaseConfig, depth: int) -> list[PAdicRoot]:
    """Lift every root of f mod p to depth+1 digits (digit indices 0..depth).

    f with no root mod p, or a repeated one, has no digit to scan and
    raises ValueError.
    """
    f, p = cfg.f, cfg.p
    roots = roots_mod_p(f, p)
    if not roots:
        raise ValueError(f"f has no roots mod {p}: no solutions exist for n >= 1 at all")
    return [hensel_lift(f, p, r, depth + 1) for r in roots]


def combined_lower_bound(cfg: CaseConfig, depth: int) -> tuple[list[PAdicRoot], int]:
    """The lifted roots, and the min over them of the digit-scan bound,
    scanning indices 1..depth."""
    lifts = scan_case(cfg, depth)
    return lifts, min(digit_scan_bound(r, cfg.d) for r in lifts)
