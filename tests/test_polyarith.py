"""Integer polynomial arithmetic against independent oracles."""

import random
from fractions import Fraction

import pytest

from cyclobound.polyarith import (
    IntPoly,
    cyclotomic,
    det,
    discriminant,
    poly_derivative,
    poly_eval,
    resultant,
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

    Fraction-exact Gaussian elimination; independent of the subresultant
    code path under test.
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


class TestResultant:
    def test_linear_pair(self):
        # Res(x-2, x-3) = 2 - 3 with the row-of-f-coefficients convention
        assert resultant(IntPoly(-2, 1), IntPoly(-3, 1)) == -1

    def test_shared_root_vanishes(self):
        f = IntPoly(-1, 1) * IntPoly(2, 1)
        g = IntPoly(-1, 1) * IntPoly(5, 3)
        assert resultant(f, g) == 0

    def test_matches_sylvester_determinant(self):
        rng = random.Random(2203)
        checked = 0
        for _ in range(80):
            f, g = random_poly(rng), random_poly(rng)
            assert resultant(f, g) == sylvester_det(f, g)
            checked += 1
        assert checked == 80

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(2740)
        for _ in range(30):
            f, g, h = (random_poly(rng, max_deg=4) for _ in range(3))
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_degenerate_inputs(self):
        f = IntPoly(1, 2, 1)
        assert resultant(f, IntPoly(5)) == 25
        assert resultant(IntPoly(5), f) == 25
        assert resultant(f, IntPoly()) == 0
        with pytest.raises(ValueError):
            resultant(IntPoly(), IntPoly())


class TestDet:
    def test_matches_elimination(self):
        rng = random.Random(7717)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            got = det(rows)
            assert isinstance(got, int)
            assert got == elimination_det(rows)

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
