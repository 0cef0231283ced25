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


def _digits(x: int, p: int, n: int, powers: dict) -> list[int]:
    """The n base-p digits of 0 <= x < p^n, lowest first.

    Splitting at p^ceil(n/2) halves the operands at every level, where
    peeling one digit at a time would pass over all of x once per digit.
    powers maps e to p^e for every e in _precisions(n), as hensel_lift
    leaves it.  Level j of the split has lengths ceil(n/2^j) and that
    minus 1, so every split point is such an e or one less than one, and
    each missing power is taken once from the next by dividing by p.
    """
    if n <= 32:
        out = []
        for _ in range(n):
            x, a = divmod(x, p)
            out.append(a)
        return out
    h = (n + 1) // 2
    if h not in powers:
        powers[h] = powers[h + 1] // p
    hi, lo = divmod(x, powers[h])
    return _digits(lo, p, h, powers) + _digits(hi, p, n - h, powers)


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
BARRETT_MIN_BITS = 5000


def _newton_reciprocal(m: int, n: int, h: int) -> int:
    """2^(n+h) / m, less than 3 units off, for 2^(n-1) <= m < 2^n.

    Dropping all but the top h + 2 bits of m moves the quotient by less
    than 1.  Up to 1,000 quotient bits one division then gives the floor.
    Above, one step of Newton's iteration x <- x + x*(2^(n+h) - m*x)/2^(n+h)
    (Brent and Zimmermann, Modern Computer Arithmetic, 3.4.1) lifts the
    reciprocal to g = h//2 + 4 bits, found the same way, to h bits: its
    error e becomes e^2 * 2^(h-2g) <= e^2/128, plus less than 2.25 from
    the truncations, so it stays below 3.  The correction reads only the top bits of 2^(n+g) - m*x, so
    both products are about as wide as the quotient.
    """
    if n > h + 2:
        m, n = m >> (n - h - 2), h + 2
    if h <= 1000:
        return (1 << (n + h)) // m
    g = h // 2 + 4
    x = _newton_reciprocal(m, n, g)
    j = max(n + g - h - 3, 0)  # e's low bits move the correction < 1/4
    e = (1 << (n + g)) - m * x >> j
    return (x << (h - g)) + (x * e >> (n + 2 * g - h - j))


def _reciprocal(m: int, h: int) -> int:
    """2^(n+h) // m for m > 0 of n bits, by multiplications above 1,000 bits.

    m loses all but its top k = h + 32 bits, t = m >> s.  That lowers
    2^(n+h)/m by less than 2^(n+h) / (t * m) <= 2^(h-k+2) = 2^-30, so one
    remainder r of 2^(k+h) by t makes _newton_reciprocal's estimate q the
    floor of 2^(k+h)/t, and that is the answer unless r/t < 2^-30, where
    one product with the whole of m decides between q and q - 1.
    """
    n = m.bit_length()
    s = max(n - h - 32, 0)
    t, k = m >> s, n - s
    q = _newton_reciprocal(t, k, h)
    r = (1 << (k + h)) - q * t
    while r < 0:
        q, r = q - 1, r + t
    while r >= t:
        q, r = q + 1, r - t
    if s and r << 30 < t and q * m > 1 << (n + h):
        q -= 1
    return q


class _Barrett:
    """Reduction modulo m of the integers a with |a| < 2^h * m (P. Barrett,
    CRYPTO '86), with a reciprocal only as wide as the quotient.

    With n = m.bit_length() and recip = 2^(n+h) // m, taken once by
    _reciprocal, the quotient of a >= 0 by m is estimated as
    q = ((a >> (n-1)) * recip) >> (h+1).  Each floor only lowers it, so
    q <= a // m.  The first two take less than 1 from a factor each,
    which takes less than 2^(n-1) / m <= 1 and a / 2^(n+h) < 1 (as
    a < 2^h * m < 2^(n+h)) from a/m, and the last less than 1 more, so
    a // m <= q + 2: a - q*m needs at most two subtractions of m.  A third
    would mean an operand past the bound, and raises ArithmeticError.
    """

    __slots__ = ("m", "n", "h", "recip")

    def __init__(self, m: int, h: int):
        self.m, self.n, self.h = m, m.bit_length(), h
        self.recip = _reciprocal(m, h)

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
    mod p^e.  So y is carried along, one modular inverse mod p starts it,
    and each step refines it from its last precision e' to e before x
    moves: f'(x) = f'(root) mod p^e, so z = f'(x)*y mod p^e is 1 + p^e'*s,
    and y - p^e'*(y*s mod p^(e-e')) is the inverse mod p^e (e <= 2e'),
    taken in [0, p^e) as y + p^e'*(-y*s mod p^(e-e')).  Each step builds
    one table of x^k mod p^E, k <= deg f, and takes f(x) mod p^E and
    f'(x) mod p^e from it as sums with the small coefficients.  Every
    modulus is the last one squared, divided by p when E = 2e - 1, and
    the table of them splits the digits at the end (_digits).  A simple
    root mod p has exactly one lift mod p^depth, so the digits equal those
    of any other correct lift.

    A step whose modulus p^E has BARRETT_MIN_BITS bits or more reduces
    its d - 1 table products and the x update with one _Barrett(p^E, h),
    h = bitlen(w * p^e) for w the sum of the |coefficients| of f: each
    product is below p^E * p^e and |x - f(x)*y| < (w * p^e + 1) * p^E, so
    every quotient is below 2^h, and each reduction takes at most the two
    corrections _Barrett proves.  Its reciprocal, built by Newton's
    iteration, costs less than one of the d reductions it replaces.  Per
    step, the time ratio Barrett / % on CPython 3.11 on a 2-core Xeon
    (median over 8 primes 2,000 < p < 20,000, three draws): deg f = 4
    breaks even at 5,000 bits (1.07 at 4,000, 1.00 at 5,000, 0.97 at
    6,000, 0.95 at 8,000, 0.85 at 10,000); deg f = 8 at 2,500 (1.09 at
    2,000, 0.97 at 4,000, 0.91 at 5,000, 0.87 at 8,000, 0.77 at 10,000).
    Below 5,000 bits deg f = 8 gains at most 5% on steps that cost a small
    share of a lift, so one cutoff serves both: 5,000 bits.  The
    refinement of y stays on %.
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
    moduli = {1: p}  # p^e for every precision e, each from the one before
    e_y = 1  # y's precision
    for e, E in zip(precisions, precisions[1:]):
        mod_e = moduli[e]
        mod = mod_e * mod_e if E == 2 * e else mod_e * mod_e // p
        moduli[E] = mod
        if mod.bit_length() < BARRETT_MIN_BITS:
            reduce = mod.__rmod__  # a -> a % mod
        else:
            reduce = _Barrett(mod, (weight * mod_e).bit_length())
        powers = [1, x]
        for _ in range(f.degree() - 1):
            powers.append(reduce(powers[-1] * x))
        if e_y < e:
            mod_y = moduli[e_y]
            fpx = sum(c * w for c, w in zip(fprime.coeffs, powers))
            s = fpx % mod_e * y % mod_e // mod_y  # f'(x)*y = 1 + p^e_y * s
            y += mod_y * (-y * s % (mod_y if e == 2 * e_y else mod_y // p))
            e_y = e
        fx = sum(c * w for c, w in zip(f.coeffs, powers))
        x = reduce(x - fx * y)
    return PAdicRoot(p, tuple(_digits(x, p, depth, moduli)))


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
