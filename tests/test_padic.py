"""Hensel lifting and the digit-scan lower bound.

The digit prefixes below are frozen: they pin the exact lifted expansions
that the published lower bounds 415, 4015 and 239 rest on.
"""

import math
import random

import pytest

from cyclobound import padic
from cyclobound.numberfield import get_case
from cyclobound.padic import (
    BARRETT_MIN_BITS,
    PAdicRoot,
    _Barrett,
    _digits,
    _precisions,
    _reciprocal,
    combined_lower_bound,
    digit_scan_bound,
    hensel_lift,
    scan_case,
)
from cyclobound.polyarith import (
    IntPoly,
    cyclotomic,
    discriminant,
    poly_derivative,
    poly_eval,
    roots_mod_p,
)

PREFIX_41 = (8, 18, 3, 17, 9, 14, 12, 38, 31, 35, 19, 25, 19, 38, 25, 24, 1,
             18, 25, 10, 14, 29, 31, 18, 36, 2, 24)
PREFIX_5581_A = (257, 64, 5438, 1453, 629, 833, 3090, 5096, 4809, 1493, 4462,
                 1922, 4807, 782, 3819, 2190, 99, 2554, 3603, 4471, 1034,
                 1407, 3688)
PREFIX_5581_B = (4477, 3993, 3590, 3157, 3667, 3404, 2233, 3440, 3784, 2333,
                 900, 2522, 184, 1707, 5103, 2005, 5325, 1780, 4765, 2645,
                 3577)
PREFIX_271 = (241, 8, 147, 250, 135, 263, 1, 126, 89, 262, 149, 20, 147, 78,
              220, 219, 176, 148, 206, 255, 38, 115, 186, 178, 235)


def reference_hensel_lift(f, p, r0, depth):
    """Newton lifting with a fresh modular inverse of f'(x) at every step."""
    fprime = poly_derivative(f)
    x, e = r0 % p, 1
    while e < depth:
        e = min(2 * e, depth)
        mod = p**e
        fx = poly_eval(f, x) % mod
        fpx = poly_eval(fprime, x) % mod
        x = (x - fx * pow(fpx, -1, mod)) % mod
    digits = []
    for _ in range(depth):
        x, a = divmod(x, p)
        digits.append(a)
    return PAdicRoot(p, tuple(digits))


def reference_digits(x, p, n):
    """The n base-p digits of x, split at p^(n//2) with p**h taken afresh."""
    if n <= 32:
        out = []
        for _ in range(n):
            x, a = divmod(x, p)
            out.append(a)
        return out
    h = n // 2
    hi, lo = divmod(x, p**h)
    return reference_digits(lo, p, h) + reference_digits(hi, p, n - h)


def barrett_depth(p):
    """The least depth whose modulus p^depth reaches BARRETT_MIN_BITS bits."""
    return next(D for D in range(1, 10**5) if (p**D).bit_length() >= BARRETT_MIN_BITS)


def reference_roots_mod_p(f, p):
    """All roots of f mod p, by exhaustive scan of the p residues."""
    return [r for r in range(p) if poly_eval(f, r) % p == 0]


def is_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def seeded_primes(f, count, rng):
    """Primes below 1000 where f has a simple root, drawn from rng."""
    disc = discriminant(f)
    out = []
    while len(out) < count:
        p = rng.randrange(50, 1000)
        if is_prime(p) and disc % p and roots_mod_p(f, p):
            out.append(p)
    return out


class TestRootsModP:
    def test_counts_and_values(self):
        assert roots_mod_p(get_case("15-41").f, 41) == [8]
        assert roots_mod_p(get_case("15-5581").f, 5581) == [257, 4477]
        assert roots_mod_p(get_case("10-271").f, 271) == [241]

    def test_rootless_polynomial(self):
        assert roots_mod_p(IntPoly(1, 0, 1), 7) == []

    def test_matches_reference_on_case_polynomials(self):
        primes = [p for p in range(2, 2000) if is_prime(p)]
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            for p in primes:
                assert roots_mod_p(f, p) == reference_roots_mod_p(f, p), (cid, p)

    @pytest.mark.parametrize(
        "f, p",
        [
            (IntPoly(1, 1, 1), 2),  # no root mod 2
            (IntPoly(0, 1, 1), 2),  # both residues
            (IntPoly(1, 0, 1), 2),  # (x + 1)^2
            (IntPoly(0, -1, 0, 1), 3),  # x^3 - x: every residue
            (IntPoly(2, 1, 1), 3),
            (IntPoly(4, -4, 1), 7),  # (x - 2)^2, a repeated root
            (IntPoly(4, -4, 1), 2),  # x^2 mod 2
            (IntPoly(1, 1, 7), 7),  # leading coefficient divisible by p
            (IntPoly(5, 7, 7), 7),  # ... leaving a nonzero constant
            (IntPoly(13, 26, 0, 13), 13),  # f = 0 mod p
            (IntPoly(0, -1, 0, 0, 0, 0, 0, 0, 0, 1), 5),  # x^9 - x, a multiple of x^5 - x
        ],
    )
    def test_matches_reference_on_toys(self, f, p):
        assert roots_mod_p(f, p) == reference_roots_mod_p(f, p)

    @pytest.mark.parametrize(
        "f",
        [
            IntPoly(4, -11, 7, 30),  # 30x^3 + 7x^2 - 11x + 4: lc 0 mod 2, 3, 5
            IntPoly(-2, 1) * IntPoly(-2, 1) * IntPoly(3, 1, 1),  # (x - 2)^2 (x^2 + x + 3)
        ],
    )
    def test_matches_reference_below_200(self, f):
        for p in range(2, 200):
            if is_prime(p):
                assert roots_mod_p(f, p) == reference_roots_mod_p(f, p), p

    def test_refuses_composite_modulus(self):
        with pytest.raises(ValueError, match="p = 9 is not a proven prime"):
            roots_mod_p(get_case("10-271").f, 9)


class TestHenselLift:
    def test_every_level_is_consistent(self):
        # f(truncation to j digits) = 0 mod p^j for every j up to the depth
        for cid in ("15-41", "15-5581", "10-271"):
            cfg = get_case(cid)
            for root in scan_case(cfg, 24):
                x = 0
                for j in range(1, root.depth + 1):
                    x += root.digits[j - 1] * cfg.p ** (j - 1)
                    assert poly_eval(cfg.f, x) % cfg.p**j == 0

    def test_matches_brute_force_mod_p_squared(self):
        cfg = get_case("15-41")
        lifted = {r.value() % cfg.p**2 for r in scan_case(cfg, 1)}
        brute = {x for x in range(cfg.p**2) if poly_eval(cfg.f, x) % cfg.p**2 == 0}
        assert lifted == brute

    def test_rejects_non_root(self):
        cfg = get_case("15-41")
        with pytest.raises(ValueError, match="not a root"):
            hensel_lift(cfg.f, cfg.p, 9, 5)

    def test_rejects_multiple_root(self):
        # 2 is a double root of (x-2)^2 mod every p
        with pytest.raises(ValueError, match="not simple"):
            hensel_lift(IntPoly(4, -4, 1), 7, 2, 5)

    def test_rejects_zero_depth(self):
        cfg = get_case("15-41")
        with pytest.raises(ValueError, match="depth"):
            hensel_lift(cfg.f, cfg.p, 8, 0)

    def test_matches_reference(self):
        # every root of the paper's primes and of seeded primes, for both
        # case polynomials, then a non-monic cubic with negative
        # coefficients and a linear f; depth 1 takes no Newton step, 3 and
        # 7 end on a capped step in the reference, 63 / 64 / 65 and 1025
        # sit on both sides of a power of two, and 1500 splits its digits
        # at several levels
        rng = random.Random(60607)
        polys = [
            (get_case(cid).f, paper_primes)
            for cid, paper_primes in (("15-41", (41, 5581)), ("10-271", (271,)))
        ]
        polys = [(f, (*primes, *seeded_primes(f, 1, rng))) for f, primes in polys]
        polys += [(IntPoly(2, -7, -5, 3), (31, 10007)), (IntPoly(-3, 5), (7, 101))]
        for f, primes in polys:
            for p in primes:
                roots = roots_mod_p(f, p)
                assert roots, (f, p)
                for r in roots:
                    for depth in (1, 2, 3, 7, 63, 64, 65, 1025, 1500):
                        got = hensel_lift(f, p, r, depth)
                        assert got == reference_hensel_lift(f, p, r, depth), (f, p, r, depth)

    def test_matches_reference_across_depths(self):
        # every depth up to 40, then seeded depths up to 3000: each ends on
        # its own chain of carried moduli, inverse refinements and digit
        # splits, and the deep ones cross the Barrett cutoff
        rng = random.Random(30011)
        depths = [*range(1, 41), *sorted(rng.sample(range(41, 3000), 8)), 3000]
        for m, p in ((10, 3), (15, 41), (10, 271)):
            f = cyclotomic(m) + IntPoly(1)
            (r,) = roots_mod_p(f, p)
            for depth in depths:
                got = hensel_lift(f, p, r, depth)
                assert got == reference_hensel_lift(f, p, r, depth), (m, p, depth)

    @pytest.mark.parametrize("p", [3, 31, 41, 271, 2111, 5581, 15173, 17093])
    def test_matches_reference_around_barrett_cutoff(self, p, monkeypatch):
        # p^depth one digit below the cutoff, at it and one digit above:
        # only the last Newton step crosses it, and only from the second
        # depth on does that step reduce with _Barrett
        built = []

        class Counted(_Barrett):
            def __init__(self, m, h):
                built.append(m)
                super().__init__(m, h)

        monkeypatch.setattr(padic, "_Barrett", Counted)
        at = barrett_depth(p)
        lifted = 0
        for m in (10, 15):
            f = cyclotomic(m) + IntPoly(1)
            for r in roots_mod_p(f, p):
                for depth in (at - 1, at, at + 1):
                    built.clear()
                    got = hensel_lift(f, p, r, depth)
                    assert got == reference_hensel_lift(f, p, r, depth), (m, p, r, depth)
                    assert built == ([] if depth < at else [p**depth]), (m, p, depth)
                    lifted += 1
        assert lifted >= 3

    def test_value_digit_roundtrip(self):
        root = hensel_lift(get_case("10-271").f, 271, 241, 12)
        assert root.depth == 12
        rebuilt = PAdicRoot(271, root.digits)
        assert rebuilt.value() == root.value() < 271**12


class TestBarrett:
    @staticmethod
    def operands(m, h, rng):
        """0, multiples of m, the largest |a| < 2^h * m, and seeded draws,
        each with both signs."""
        top = (m << h) - 1
        base = [0, m, 2 * m, (top // m) * m, top, top - m, m - 1, m + 1]
        base += [rng.randrange(top) for _ in range(40)]
        base += [rng.randrange(m) * rng.randrange(1 << h) for _ in range(10)]
        return base + [-a for a in base]

    def moduli(self, rng):
        # Newton-step moduli on both sides of the cutoff, with the h that
        # hensel_lift gives them (w = 8 for Phi_15 + 1), and the extremes
        # 2^(n-1) and 2^n - 1 of a bit length
        out = []
        for p in (3, 41, 5581, 17093):
            for E in (1, 2, 7, barrett_depth(p), 2001):
                e = -(-E // 2)
                out.append((p**E, (8 * p**e).bit_length()))
        for n in (1, 2, 64, 8000, 8001):
            out += [(1 << (n - 1), rng.randrange(1, n + 2)), ((1 << n) - 1, n // 2 + 4)]
        return out

    def test_matches_mod_within_the_correction_bound(self):
        rng = random.Random(90521)
        corrections = set()
        for m, h in self.moduli(rng):
            reduce = _Barrett(m, h)
            for a in self.operands(m, h, rng):
                assert reduce(a) == a % m, (m, h, a)
                count = abs(a) // m - reduce.quotient(abs(a))
                assert 0 <= count <= 2, (m, h, a)
                corrections.add(count)
        assert corrections == {0, 1, 2}

    def test_operand_past_the_bound_raises(self):
        m = 3**5000
        reduce = _Barrett(m, 16)
        with pytest.raises(ArithmeticError, match="off by more than 2"):
            reduce(m << 64)


class TestReciprocal:
    def test_equals_the_division(self):
        # m = p^E from 64 bits to 50 kbit and h from 1 to n, past the
        # 1,000-bit switch to Newton's iteration, then 2^(n-1), 2^(n-1) + 1
        # and 2^n - 1: 2^(n-1) and 2^(n-1) + 1 make the remainder of the
        # truncated division 0, so the whole of m decides
        rng = random.Random(77031)
        moduli = []
        for p in (3, 41, 271, 5581, 17093):
            for bits in (64, 100, 1000, 2500, 8000, 20000, 50000):
                moduli.append(p ** max(1, bits // p.bit_length()))
        for n in (64, 3000, 20000):
            moduli += [1 << (n - 1), (1 << (n - 1)) + 1, (1 << n) - 1]
        for m in moduli:
            n = m.bit_length()
            hs = {1, 2, 3, 1000, 1001, n // 2, n - 1, n}
            hs.update(rng.randrange(1, n + 1) for _ in range(3))
            for h in sorted(h for h in hs if 1 <= h <= n):
                assert _reciprocal(m, h) == (1 << (n + h)) // m, (m.bit_length(), h)


class TestDigits:
    def test_matches_the_floor_split(self):
        # n <= 32 (no split), odd and even n, x = 0 and x = p^n - 1
        rng = random.Random(52213)
        for p in (2, 3, 41, 5581, 17093):
            for n in (1, 2, 31, 32, 33, 34, 65, 97, 128, 1001, 2999, 3000):
                powers = {e: p**e for e in _precisions(n)}
                for x in (0, p**n - 1, rng.randrange(p**n), rng.randrange(p ** (n // 2 + 1))):
                    assert _digits(x, p, n, dict(powers)) == reference_digits(x, p, n), (p, n)


class TestPrecisions:
    def test_pinned_schedules(self):
        assert _precisions(1) == [1]
        assert _precisions(2) == [1, 2]
        assert _precisions(64) == [1, 2, 4, 8, 16, 32, 64]
        assert _precisions(65) == [1, 2, 3, 5, 9, 17, 33, 65]
        assert _precisions(1025) == [1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 513, 1025]
        assert _precisions(2333)[-3:] == [584, 1167, 2333]

    def test_every_step_at_most_doubles_from_the_half(self):
        for depth in range(1, 5000):
            precs = _precisions(depth)
            assert len(precs) == (depth - 1).bit_length() + 1  # ceil(log2 depth) + 1
            assert precs[0] == 1 and precs[-1] == depth
            for e, E in zip(precs, precs[1:]):
                assert e == -(-E // 2), depth


class TestDigitPrefixes:
    def test_prefix_41(self, chains):
        (root,) = chains["15-41"].roots
        assert root.digits[: len(PREFIX_41)] == PREFIX_41

    def test_prefixes_5581(self, chains):
        a, b = chains["15-5581"].roots
        assert a.digits[: len(PREFIX_5581_A)] == PREFIX_5581_A
        assert b.digits[: len(PREFIX_5581_B)] == PREFIX_5581_B

    def test_prefix_271(self, chains):
        (root,) = chains["10-271"].roots
        assert root.digits[: len(PREFIX_271)] == PREFIX_271

    def test_prefixes_hold_above_barrett_cutoff(self, chains):
        # deeper lifts whose last two steps reduce with _Barrett extend the
        # default-depth digits, frozen prefixes first
        prefixes = {"15-41": [PREFIX_41], "15-5581": [PREFIX_5581_A, PREFIX_5581_B],
                    "10-271": [PREFIX_271]}
        for cid, ch in chains.items():
            p = ch.cfg.p
            depth = 2 * barrett_depth(p)
            for root, prefix in zip(ch.roots, prefixes[cid]):
                deep = hensel_lift(ch.cfg.f, p, root.r0, depth)
                assert deep.digits[: root.depth] == root.digits, cid
                assert deep.digits[: len(prefix)] == prefix, cid


class TestScanBounds:
    def test_first_extreme_indices(self, chains):
        (r41,) = chains["15-41"].roots
        assert r41.first_extreme_index() == 53
        assert r41.digits[53] == 40
        assert r41.digits[54] == 15

        (r271,) = chains["10-271"].roots
        assert r271.first_extreme_index() == 61
        assert r271.digits[61] == 270

        for root in chains["15-5581"].roots:
            assert root.first_extreme_index() is None

    def test_lower_bounds(self, chains):
        assert chains["15-41"].n_lower == 415
        assert chains["15-5581"].n_lower == 4015
        assert chains["10-271"].n_lower == 239

    def test_first_extreme_index_matches_loop(self):
        def loop(root):
            for k in range(1, root.depth):
                if root.digits[k] in (0, root.p - 1):
                    return k
            return None

        rng = random.Random(41017)
        roots = [
            PAdicRoot(41, (0, 5, 3, 7)),  # no hit: index 0 does not count
            PAdicRoot(41, (8, 40, 0, 7)),  # a hit at index 1
            PAdicRoot(41, (8, 5, 3, 0)),  # a hit only at the last index
            PAdicRoot(41, (8,)),
            PAdicRoot(2, (1, 0, 1)),  # p = 2: every digit is extreme
        ]
        for _ in range(300):
            p = rng.choice((3, 5, 41, 271))
            depth = rng.randrange(1, 60)
            digits = [rng.randrange(1, p - 1) for _ in range(depth)]
            for _ in range(rng.randrange(3)):
                digits[rng.randrange(depth)] = rng.choice((0, p - 1))
            roots.append(PAdicRoot(p, tuple(digits)))
        for root in roots:
            assert root.first_extreme_index() == loop(root), root
        hits = [loop(r) for r in roots]
        assert None in hits and 1 in hits
        assert any(k == r.depth - 1 for k, r in zip(hits, roots))

    def test_bound_formula(self):
        # d*(k0 - 1) - 1, with k0 falling back to the scan depth
        root = PAdicRoot(41, (8, 5, 0, 7))
        assert digit_scan_bound(root, 8) == 8 * (2 - 1) - 1
        clean = PAdicRoot(41, (8, 5, 3, 7))
        assert digit_scan_bound(clean, 8) == 8 * (4 - 1) - 1

    def test_combined_bound_is_min_over_roots(self):
        cfg = get_case("15-5581")
        roots, floor = combined_lower_bound(cfg, 502)
        assert roots == scan_case(cfg, 502)
        assert floor == min(digit_scan_bound(r, cfg.d) for r in roots)

    def test_scan_depth_plus_one_digits(self, chains):
        for ch in chains.values():
            for root in ch.roots:
                assert root.depth == ch.cfg.default_scan_depth + 1

    def test_scan_refuses_rootless_case(self):
        cfg = get_case("10-271")._replace(p=7, f=IntPoly(1, 0, 1))
        with pytest.raises(ValueError, match="no roots"):
            scan_case(cfg, 5)
