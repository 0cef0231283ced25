"""The explicit linear-forms coefficient and the absolute exponent bound."""

import random
from fractions import Fraction

import pytest

from cyclobound import matveev
from cyclobound.matveev import (
    absolute_bound,
    inequality_coefficients,
    matveev_c9,
    _collision_test,
)
from cyclobound.realalg import DEFAULT_PREC, Ball

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


def reference_absolute_bound(cc, prec=DEFAULT_PREC):
    """absolute_bound as it searched before its float-estimated start:
    doubling from lo just past n_star, then bisecting [lo, hi]."""
    c9 = matveev_c9(cc, prec)
    log_p = Ball(cc.p, prec).log()
    n_star = (Ball(c9, prec) * cc.c7 * cc.d / log_p - cc.c8) / cc.c7
    lo = max(int(n_star.hi) + 2, 2)
    collides = _collision_test(cc, c9, prec)
    hi = lo
    while not collides(hi):
        hi *= 2
        if hi > lo * 2 ** 64:
            raise ArithmeticError("no collision found; constants look wrong")
    while lo < hi:
        mid = (lo + hi) // 2
        if collides(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def perturbed_constants(chains, count, seed):
    """Seeded variants of the three cases' constants: c3, c7, c8 and the
    heights each scaled by a factor between 1/4 and 4, keeping d*c7 >= 1."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        cc = chains[("15-41", "15-5581", "10-271")[k % 3]].constants

        def scale(x):
            return x * Fraction(rng.randint(250, 4000), 1000)

        out.append(cc._replace(
            c3=scale(cc.c3),
            c7=max(scale(cc.c7), Fraction(1, cc.d)),
            c8=scale(cc.c8),
            a_values=tuple(scale(a) for a in cc.a_values),
        ))
    return out


def count_collides(monkeypatch):
    """Patch matveev._collision_test to count certified collides calls."""
    calls = []
    real = matveev._collision_test

    def counting(*args):
        collides = real(*args)

        def counted(n):
            calls.append(n)
            return collides(n)

        return counted

    monkeypatch.setattr(matveev, "_collision_test", counting)
    return calls


class TestC9:
    def test_pinned_values(self, chains):
        for cid, want in C9_PINS.items():
            assert chains[cid].c9 == want

    def test_rejects_wrong_height_count(self, chains):
        cc = chains["10-271"].constants
        bad = cc._replace(a_values=cc.a_values[:-1])
        with pytest.raises(ValueError, match="per multiplicand"):
            matveev_c9(bad)

    def test_monotone_in_heights(self, chains):
        cc = chains["10-271"].constants
        bigger = cc._replace(a_values=tuple(2 * a for a in cc.a_values))
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
        bad = chains["10-271"].constants._replace(
            d=1, p=3, rank=3, c3=Fraction(2), c7=Fraction(1, 2),
            c8=Fraction(1), a_values=(Fraction(1), Fraction(1), Fraction(1)),
        )
        with pytest.raises(ValueError, match="d\\*c7"):
            absolute_bound(bad, matveev_c9(bad))

    def test_matches_reference_bisection(self, chains):
        for ch in chains.values():
            cc = ch.constants
            assert absolute_bound(cc, matveev_c9(cc)) == reference_absolute_bound(cc)
        for cc in perturbed_constants(chains, 54, 5323):
            assert absolute_bound(cc, matveev_c9(cc)) == reference_absolute_bound(cc), cc

    @pytest.mark.parametrize(
        "guess",
        [lambda n: 0, lambda n: n - 10**6, lambda n: 10**6 * n, lambda n: 10**100],
        ids=["below_lo", "below", "far_above", "past_the_runaway_limit"],
    )
    def test_bad_guess_gives_the_same_bound(self, chains, monkeypatch, guess):
        # the estimate only picks the first exponent tried: below lo, below
        # the crossing, far above it, or past the runaway limit
        for cid, want in ABS_PINS.items():
            monkeypatch.setattr(matveev, "_collision_guess", lambda *args: guess(want))
            cc = chains[cid].constants
            assert absolute_bound(cc, matveev_c9(cc)) == want

    def test_few_certified_calls(self, chains, monkeypatch):
        calls = count_collides(monkeypatch)
        for cid, want in ABS_PINS.items():
            calls.clear()
            cc = chains[cid].constants
            assert absolute_bound(cc, matveev_c9(cc)) == want
            assert len(calls) <= 4, (cid, calls)

    def test_runaway_guard(self, chains, monkeypatch):
        monkeypatch.setattr(matveev, "_collision_test", lambda *args: lambda n: False)
        with pytest.raises(ArithmeticError, match="no collision found"):
            cc = chains["10-271"].constants
            absolute_bound(cc, matveev_c9(cc))

    def test_determinism_across_precision(self, chains):
        cc = chains["10-271"].constants
        c9_256, c9_512 = matveev_c9(cc, 256), matveev_c9(cc, 512)
        assert absolute_bound(cc, c9_256, 256) == absolute_bound(cc, c9_512, 512)


class TestInequalityCoefficients:
    def test_pinned_display_values(self, chains):
        for cid, (slope, shift, cn, c1) in COEFF_PINS.items():
            got = inequality_coefficients(chains[cid].constants)
            assert got["lhs_slope"] == Fraction(slope)
            assert got["lhs_shift"] == Fraction(shift)
            assert got["log_coeff_n"] == Fraction(cn)
            assert got["log_coeff_1"] == Fraction(c1)

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
            rhs = float(ch.c9) * (1 + math.log(arg))
            assert lhs > rhs
