"""The explicit linear-forms coefficient and the absolute exponent bound."""

import dataclasses
from fractions import Fraction

import pytest

from cyclobound.matveev import (
    absolute_bound,
    inequality_coefficients,
    matveev_c9,
    _collision_test,
)
from cyclobound.realalg import DEFAULT_PREC

C9_PINS = {
    "15-41": Fraction("1.465") * 10**25,
    "15-5581": Fraction("2.275") * 10**25,
    "10-271": Fraction("1.160") * 10**18,
}

# frozen outputs of certified runs; the reduction stage starts from these
ABS_PINS = {
    "15-41": 2161587644044444572023596068,
    "15-5581": 1423219565628751255524310735,
    "10-271": 39684521926569444032,
}

COEFF_PINS = {
    "15-41": ("0.4641", "2.165", "94.72", "108.7"),
    "15-5581": ("1.078", "2.165", "51.44", "108.7"),
    "10-271": ("1.400", "1.441", "5.964", "4.182"),
}


class TestC9:
    def test_pinned_values(self, chains):
        for cid, want in C9_PINS.items():
            assert chains[cid].c9 == want

    def test_rejects_wrong_height_count(self, chains):
        cc = chains["10-271"].constants
        bad = dataclasses.replace(cc, a_values=cc.a_values[:-1])
        with pytest.raises(ValueError, match="per multiplicand"):
            matveev_c9(bad)

    def test_monotone_in_heights(self, chains):
        cc = chains["10-271"].constants
        bigger = dataclasses.replace(cc, a_values=tuple(2 * a for a in cc.a_values))
        assert matveev_c9(bigger) > chains["10-271"].c9


class TestAbsoluteBound:
    def test_pinned_values(self, chains):
        for cid, want in ABS_PINS.items():
            assert chains[cid].abs_bound == want

    def test_least_certified_collision(self, chains):
        # N collides, N-1 does not: the bisection returned the least point
        for ch in chains.values():
            collides = _collision_test(ch.constants, ch.c9, DEFAULT_PREC)
            assert collides(ch.abs_bound)
            assert not collides(ch.abs_bound - 1)

    def test_collision_persists_past_bound(self, chains):
        for ch in chains.values():
            collides = _collision_test(ch.constants, ch.c9, DEFAULT_PREC)
            for n in (ch.abs_bound + 1, ch.abs_bound + 1000, 2 * ch.abs_bound):
                assert collides(n)

    def test_small_exponents_do_not_collide(self, chains):
        ch = chains["15-41"]
        assert not _collision_test(ch.constants, ch.c9, DEFAULT_PREC)(1000)

    def test_rejects_small_unit_slope(self, chains):
        bad = dataclasses.replace(
            chains["10-271"].constants,
            d=1, p=3, rank=3, c3=Fraction(2), c7=Fraction(1, 2),
            c8=Fraction(1), a_values=(Fraction(1), Fraction(1), Fraction(1)),
        )
        with pytest.raises(ValueError, match="d\\*c7"):
            absolute_bound(bad)

    def test_determinism_across_precision(self, chains):
        cc = chains["10-271"].constants
        assert absolute_bound(cc, 256) == absolute_bound(cc, 512)


class TestInequalityCoefficients:
    def test_pinned_display_values(self, chains):
        for cid, (slope, shift, cn, c1) in COEFF_PINS.items():
            got = inequality_coefficients(chains[cid].constants)
            assert got["lhs_slope"] == Fraction(slope)
            assert got["lhs_shift"] == Fraction(shift)
            assert got["log_coeff_n"] == Fraction(cn)
            assert got["log_coeff_1"] == Fraction(c1)
            assert got["c9"] == C9_PINS[cid]

    def test_display_form_holds_above_bound(self, chains):
        # display rounding weakens both sides by ~1e-4 relative, so the
        # printed inequality is only claimed clear of the exact threshold;
        # 2 percent above it the linear gap dwarfs the rounding slack
        import math

        for ch in chains.values():
            got = inequality_coefficients(ch.constants)
            n = ch.abs_bound + ch.abs_bound // 50
            lhs = float(got["lhs_slope"]) * n - float(got["lhs_shift"])
            arg = float(got["log_coeff_n"]) * n + float(got["log_coeff_1"])
            rhs = float(got["c9"]) * (1 + math.log(arg))
            assert lhs > rhs
