"""Integer polynomial arithmetic against independent oracles."""

import math
import random
from fractions import Fraction

import pytest

from cyclobound import polyarith
from cyclobound.numberfield import FieldElement, nf_norm
from cyclobound.polyarith import (
    IntPoly,
    _mul_reduce,
    _reduce,
    cyclotomic,
    det,
    discriminant,
    is_prime,
    mulmod,
    poly_derivative,
    poly_eval,
    values_mod,
)


def elimination_det(rows) -> Fraction:
    """Determinant by Fraction-exact Gaussian elimination."""
    size = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    return det


def sylvester_det(f: IntPoly, g: IntPoly) -> Fraction:
    """Resultant as the determinant of the Sylvester matrix.

    Fraction-exact Gaussian elimination; independent of the Newton-identity
    norms under test.
    """
    m, n = f.degree(), g.degree()
    rows = []
    fh = list(reversed(f.coeffs))
    gh = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fh + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gh + [0] * (m - 1 - i))
    return elimination_det(rows)


def random_poly(rng: random.Random, max_deg: int = 5, span: int = 9) -> IntPoly:
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-span, span)
    return IntPoly(*coeffs, lead)


def random_monic(rng: random.Random, max_deg: int = 6, span: int = 9) -> IntPoly:
    deg = rng.randint(1, max_deg)
    return IntPoly(*[rng.randint(-span, span) for _ in range(deg)], 1)


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly(1, 0, 0).coeffs == (1,)
        assert IntPoly(0, 0).coeffs == ()
        assert IntPoly(0).degree() == -1

    def test_list_constructor(self):
        assert IntPoly([2, -1, 1]) == IntPoly(2, -1, 1)

    def test_arithmetic(self):
        f = IntPoly(2, -1, 1)
        g = IntPoly(-3, 1)
        assert (f + g).coeffs == (-1, 0, 1)
        assert (f - g).coeffs == (5, -2, 1)
        assert (f * g) == IntPoly(-6, 5, -4, 1)
        assert (-f).coeffs == (-2, 1, -1)
        assert 2 + g == IntPoly(-1, 1)
        assert f * 0 == IntPoly()

    def test_eval_matches_horner_sum(self):
        rng = random.Random(1101)
        for _ in range(50):
            f = random_poly(rng)
            x = rng.randint(-10, 10)
            expect = sum(c * x**i for i, c in enumerate(f.coeffs))
            assert poly_eval(f, x) == expect

    def test_eval_fraction(self):
        f = IntPoly(2, -1, 1)
        assert poly_eval(f, Fraction(1, 2)) == Fraction(7, 4)

    def test_derivative(self):
        assert poly_derivative(IntPoly(2, -1, 0, 5)) == IntPoly(-1, 0, 15)
        assert poly_derivative(IntPoly(7)) == IntPoly()


class TestMulmod:
    def test_matches_multiply_then_reduce(self):
        # divisors with leading coefficient 1 and -1, of degree 0 to 6,
        # and operands that are zero, shorter or longer than the divisor
        rng = random.Random(4409)
        for _ in range(300):
            f = IntPoly(*(rng.randint(-9, 9) for _ in range(rng.randint(0, 6))), rng.choice((1, -1)))
            a = IntPoly(*(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 12))))
            b = IntPoly(*(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 12))))
            assert mulmod(a, b, f) == (a * b) % f, (a, b, f)

    def test_zero_operands(self):
        f = IntPoly(2, -1, 1)
        for a, b in ((IntPoly(), IntPoly(3, 1)), (IntPoly(3, 1), IntPoly()), (IntPoly(), IntPoly())):
            assert mulmod(a, b, f) == (a * b) % f == IntPoly()

    def test_divisor_errors_match_divmod(self):
        a, b = IntPoly(1, 1), IntPoly(2, 3)
        for f, err in ((IntPoly(), ZeroDivisionError), (IntPoly(1, 2), ValueError)):
            with pytest.raises(err):
                (a * b) % f
            with pytest.raises(err):
                mulmod(a, b, f)


class TestResultant:
    """Res(f, g) for monic f is the norm of g in Q[x]/(f), which nf_norm
    reads from the characteristic polynomial; the Sylvester determinant is
    the oracle."""

    @staticmethod
    def res(f: IntPoly, g: IntPoly) -> Fraction:
        return nf_norm(FieldElement(g), f)

    def test_linear_pair(self):
        # Res(x-2, x-3) = 2 - 3 with the row-of-f-coefficients convention
        assert self.res(IntPoly(-2, 1), IntPoly(-3, 1)) == -1

    def test_shared_root_vanishes(self):
        f = IntPoly(-1, 1) * IntPoly(2, 1)
        g = IntPoly(5, 3)
        assert self.res(f, IntPoly(-1, 1) * g) == 0

    def test_matches_sylvester_determinant(self):
        # random monic f, random g of lower degree over a random denominator
        rng = random.Random(2203)
        for _ in range(80):
            f = random_monic(rng)
            g = random_poly(rng, max_deg=f.degree() - 1) if f.degree() > 1 else IntPoly(7)
            den = rng.randint(1, 5)
            want = sylvester_det(f, g) / den ** f.degree()
            assert nf_norm(FieldElement(g, den), f) == want

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(2740)
        for _ in range(30):
            f = random_monic(rng, max_deg=4)
            g, h = (random_poly(rng, max_deg=4) for _ in range(2))
            assert self.res(f, g * h) == self.res(f, g) * self.res(f, h)

    def test_degenerate_inputs(self):
        f = IntPoly(1, 2, 1)
        assert self.res(f, IntPoly(5)) == 25
        assert self.res(f, IntPoly()) == 0
        with pytest.raises(ValueError, match="monic"):
            self.res(IntPoly(1, 2, 3), IntPoly(1, 1))


def product_charpoly(a: tuple, f: tuple) -> tuple:
    """polyarith._charpoly with each power a^(k+1) taken as the full
    product a^k * a reduced mod f, as it was computed before the
    multiplication matrix."""
    d = len(f) - 1
    sums = [d]
    for k in range(1, d):
        sums.append(-k * f[d - k] - sum(f[d - i] * sums[k - i] for i in range(1, k)))
    cs = [1]
    traces = []
    a = list(a)
    _reduce(a, f)
    power = a = a[:d]
    for k in range(1, d + 1):
        traces.append(sum(c * s for c, s in zip(power, sums)))
        cs.append(-sum(cs[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
        if k < d:
            power = _mul_reduce(power, a, f)
    return tuple(reversed(cs))


class TestCharpolyMatrix:
    def test_matches_products_mod_f(self):
        # monic f of degree 2-9 and both case fields, coefficients of 1-400
        # bits with zeros among them; a zero, constant, of degree < d, or
        # of degree >= d, which the first reduction brings below d
        rng = random.Random(2801)
        fields = [(cyclotomic(m) + 1).coeffs for m in (15, 10)]

        def coeff(bits):
            return rng.choice((0, rng.getrandbits(bits) * rng.choice((1, -1))))

        reduced = 0
        for _ in range(600):
            bits = rng.choice((1, 2, 8, 30, 90, 400))
            if rng.random() < 0.25:
                f = rng.choice(fields)
            else:
                f = tuple(coeff(bits) for _ in range(rng.randint(2, 9))) + (1,)
            d = len(f) - 1
            size = rng.choice((0, 1, d - 1, d, d + 1, 2 * d + 1))
            a = tuple(coeff(bits) for _ in range(size - 1)) + (rng.getrandbits(bits) + 1,) * (size > 0)
            reduced += size > d
            assert polyarith._charpoly.__wrapped__(a, f) == product_charpoly(a, f), (a, f)
        assert reduced >= 100

    def test_edge_elements(self):
        for f in ((cyclotomic(15) + 1).coeffs, (cyclotomic(10) + 1).coeffs, (3, 0, 1)):
            d = len(f) - 1
            for a in ((), (0,), (7,), (0,) * d + (1,), (1,) * (2 * d + 1), (0, 1)):
                assert polyarith._charpoly.__wrapped__(a, f) == product_charpoly(a, f), (a, f)


class TestDet:
    def test_matches_elimination(self):
        rng = random.Random(7717)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            got = det(rows)
            assert isinstance(got, int)
            assert got == elimination_det(rows)

    def test_empty_matrix_is_the_unit(self):
        from cyclobound.realalg import Ball

        assert det([]) == 1
        unit = Ball(1, 64)
        assert det([], unit) is unit

    def test_fraction_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
        assert det(rows) == Fraction(1, 10) - Fraction(1, 12)

    def test_ball_entries_enclose_exact_value(self):
        from cyclobound.realalg import Ball

        rng = random.Random(7718)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [
                [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
                for _ in range(n)
            ]
            box = det([[Ball(v) for v in row] for row in rows])
            assert box.lo <= elimination_det(rows) <= box.hi


class TestDiscriminant:
    def test_quadratic_formula(self):
        rng = random.Random(3307)
        for _ in range(40):
            b, c = rng.randint(-9, 9), rng.randint(-9, 9)
            assert discriminant(IntPoly(c, b, 1)) == b * b - 4 * c

    def test_case_polynomials(self):
        # frozen integer invariants of the two defining polynomials
        f15 = IntPoly(2, -1, 0, 1, -1, 1, 0, -1, 1)
        f10 = IntPoly(2, -1, 1, -1, 1)
        assert discriminant(f15) == 682862912
        assert discriminant(f10) == 1396

    def test_repeated_root_vanishes(self):
        assert discriminant(IntPoly(1, 2, 1)) == 0

    def test_matches_sylvester_determinant(self):
        # disc(f) = (-1)^(d(d-1)/2) Res(f, f') for monic f
        rng = random.Random(3319)
        for _ in range(60):
            f = random_monic(rng)
            d = f.degree()
            want = (-1) ** (d * (d - 1) // 2) * sylvester_det(f, poly_derivative(f))
            assert discriminant(f) == want

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            discriminant(IntPoly(1, 0, 2))


class TestCyclotomic:
    def test_small_indices(self):
        assert cyclotomic(1) == IntPoly(-1, 1)
        assert cyclotomic(2) == IntPoly(1, 1)
        assert cyclotomic(6) == IntPoly(1, -1, 1)
        assert cyclotomic(10) == IntPoly(1, -1, 1, -1, 1)
        assert cyclotomic(15) == IntPoly(1, -1, 0, 1, -1, 1, 0, -1, 1)

    def test_prime_index_is_geometric_sum(self):
        for p in (3, 5, 7, 11, 13):
            assert cyclotomic(p) == IntPoly(*([1] * p))

    def test_product_over_divisors(self):
        # prod_{d | n} Phi_d = x^n - 1, the defining identity
        for n in range(1, 21):
            prod = IntPoly(1)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPoly(*([-1] + [0] * (n - 1) + [1]))

    def test_case_polynomials_are_shifted_cyclotomics(self, chains):
        for ch in chains.values():
            assert ch.cfg.f == cyclotomic(ch.cfg.m) + IntPoly(1)


# strong pseudoprime to the bases 2..37, = 399165290221 * 798330580441
PSP_37 = 318_665_857_834_031_151_167_461
# strong pseudoprime to the bases 2..41, the first p the test cannot decide
PSP_41 = 3_317_044_064_679_887_385_961_981


class TestIsPrime:
    def test_small_numbers_match_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

        assert [n for n in range(3000) if is_prime(n)] == [
            n for n in range(3000) if trial(n)
        ]

    def test_pseudoprimes_rejected(self):
        assert 399_165_290_221 * 798_330_580_441 == PSP_37
        assert is_prime(399_165_290_221) and is_prime(798_330_580_441)
        assert not is_prime(PSP_37)
        assert not is_prime(PSP_41)

    def test_primes_below_the_bound_accepted(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_no_certificate_at_or_above_the_bound(self):
        # 2^89 - 1 is a Mersenne prime, but above the deterministic range
        assert 2**89 - 1 > PSP_41
        assert not is_prime(2**89 - 1)


class TestValuesMod:
    def test_matches_evaluation_and_is_shared(self):
        # the set of f(x) mod q over every residue x, built once per
        # (coefficients, q) and handed out frozen to every equal f
        rng = random.Random(7793)
        for _ in range(40):
            f = random_poly(rng)
            q = rng.choice((2, 3, 5, 7, 11, 13, 59))
            got = values_mod(f, q)
            assert got == {poly_eval(f, x) % q for x in range(q)}, (f, q)
            assert isinstance(got, frozenset)
            assert values_mod(IntPoly(*f.coeffs), q) is got
