"""Exact LLL, the distance lemma, and the certified bound reduction.

The LLL and distance-lemma properties are checked against independent
oracles: a from-scratch postcondition verifier, an LLL that recomputes its
Gram-Schmidt after every step (in Cohen's order and in the eager one), and
an exact sphere enumeration that finds the true closest lattice point.  The case runs pin frozen first-run values
that later runs must reproduce bit for bit.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from cyclobound import numberfield, realalg, reduction
from cyclobound.numberfield import get_case
from cyclobound.pipeline import solve_case
from cyclobound.polyarith import det
from cyclobound.realalg import (
    Ball,
    ConjugateData,
    Multiplicand,
    compute_constants,
)
from cyclobound.reduction import (
    MAX_ROUNDING_SLACK,
    PrecisionError,
    SHORT_DISTANCE,
    distance_lower_bound,
    lll_reduce,
    reduce_case_bound,
    reduction_loop,
    verify_lll_reduced,
    _RoundInputs,
    _futile,
    _gram,
    _swap_det,
    _theta,
)
from test_realalg import from_endpoints, reference_nearest_int


def random_columns(rng: random.Random, n: int, span: int = 15) -> list:
    """A nonsingular integer basis, drawn until independent."""
    while True:
        cols = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        try:
            _gram(cols)
        except ValueError:
            continue
        return cols


def solve_columns(columns, y) -> list:
    """Exact solution t of sum_j columns[j] * t_j = y, by Gaussian elimination.

    The oracle's own solver, so the distance-lemma checks share no linear
    algebra with the code under test.
    """
    n = len(columns)
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(n)]
    v = [Fraction(x) for x in y]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        v[col], v[piv] = v[piv], v[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * w for x, w in zip(a[r], a[col])]
            v[r] -= factor * v[col]
    t = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        t[i] = (v[i] - sum(a[i][j] * t[j] for j in range(i + 1, n))) / a[i][i]
    return t


def gram(cols):
    """The oracles' own Gram-Schmidt, in integer form (Cohen, Alg. 2.6.7).

    dets[i] is the Gram determinant of the first i columns and
    lam[i][j] = dets[j + 1] * mu[i][j].  Written apart from reduction._gram
    so the oracles below share no code with the routines they check.
    """
    n = len(cols)
    dets, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = sum(x * y for x, y in zip(cols[i], cols[j]))
            for t in range(j):
                v = (dets[t + 1] * v - lam[i][t] * lam[j][t]) // dets[t]
            if j < i:
                lam[i][j] = v
            else:
                dets[i + 1] = v
    return lam, dets


def reference_lll(columns, eager=False, ties=None, delta=Fraction(3, 4)):
    """Textbook LLL that recomputes all Gram-Schmidt data after every step.

    Runs on the integral gram above.  Same loop order as lll_reduce,
    Cohen's: size-reduce column k against k-1, Lovasz test, then either
    size-reduce against k-2 down to 0 and advance or swap and step back,
    so the two must return the same basis and transform.  eager=True
    size-reduces against k-1 down to 0 before the test instead, the order
    lll_reduce ran before; the two orders part only where a size
    reduction meets an exact tie 2|lam_kj| = d_(j+1), and each such
    reduction is appended to ties, when given, as (k, j).
    """

    def size_reduce(k, js):
        nonlocal lam, dets
        for j in js:
            mu = Fraction(lam[k][j], dets[j + 1])
            q = math.floor(abs(mu) + Fraction(1, 2))  # ties away from zero
            if q == 0:
                continue
            if ties is not None and abs(mu) == Fraction(1, 2):
                ties.append((k, j))
            q = q if mu > 0 else -q
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            u[k] = [x - q * y for x, y in zip(u[k], u[j])]
            lam, dets = gram(b)

    n = len(columns)
    b = [list(col) for col in columns]
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    lam, dets = gram(b)
    k = 1
    while k < n:
        size_reduce(k, range(k - 1, -1, -1) if eager else (k - 1,))
        mu = Fraction(lam[k][k - 1], dets[k])
        norm_k = Fraction(dets[k + 1], dets[k])
        if norm_k >= (delta - mu**2) * Fraction(dets[k], dets[k - 1]):
            if not eager:
                size_reduce(k, range(k - 2, -1, -1))
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            lam, dets = gram(b)
            k = max(k - 1, 1)
    return b, u


def exact_min_distance_sq(reduced, y) -> Fraction:
    """True squared distance from y to the lattice, by sphere enumeration.

    Exact branch-and-bound over Gram-Schmidt coordinates, seeded with the
    Babai rounding distance; enumerates every lattice point within the
    current radius, so the returned minimum is exact.
    """
    n = len(reduced)
    lam, dets = gram(reduced)
    mu = [[Fraction(lam[i][j], dets[j + 1]) for j in range(n)] for i in range(n)]
    norms = [Fraction(dets[j + 1], dets[j]) for j in range(n)]
    t = solve_columns(reduced, y)

    def dist_sq(coeffs) -> Fraction:
        e = [Fraction(c) - ti for c, ti in zip(coeffs, t)]
        total = Fraction(0)
        for j in range(n):
            w = e[j] + sum(mu[i][j] * e[i] for i in range(j + 1, n))
            total += norms[j] * w * w
        return total

    best = dist_sq([reference_nearest_int(ti) for ti in t])

    def descend(level: int, tail: dict, bound: Fraction, partial: Fraction):
        nonlocal best
        if level < 0:
            best = min(best, partial)
            return
        center = -t[level] + sum(
            mu[i][level] * tail[i] for i in range(level + 1, n)
        )
        start = reference_nearest_int(-center)
        for direction in (0, 1):
            k = start + direction  # scan 0,-1,-2,... and +1,+2,...
            step = -1 if direction == 0 else 1
            while True:
                term = norms[level] * (k + center) ** 2
                if partial + term > bound:
                    break
                tail[level] = Fraction(k) - t[level]
                descend(level - 1, tail, min(bound, best), partial + term)
                k += step

    descend(n - 1, {}, best, Fraction(0))
    return best


class TestLLL:
    def test_identity_basis_is_fixed(self):
        cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        reduced, transform = lll_reduce(cols)
        assert reduced == cols
        assert transform == cols
        assert verify_lll_reduced(cols, reduced, transform) == []

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            lll_reduce([[1, 2], [2, 4]])

    def test_postconditions_on_random_bases(self):
        # size reduction, the exchange condition, and unimodularity of the
        # transform, re-derived from scratch on every draw
        rng = random.Random(31101)
        checked = 0
        for trial in range(120):
            n = 2 + trial % 3
            cols = random_columns(rng, n)
            reduced, transform = lll_reduce(cols)
            assert verify_lll_reduced(cols, reduced, transform) == []
            checked += 1
        assert checked == 120

    def test_matches_reference_on_random_bases(self):
        # the incremental Gram-Schmidt must reproduce the recomputing
        # oracle step for step, so the basis and transform are identical
        rng = random.Random(33013)
        for trial in range(48):
            n = 2 + trial % 4
            cols = random_columns(rng, n, span=10 ** rng.choice((2, 12, 40)))
            assert lll_reduce(cols) == reference_lll(cols)

    def test_first_vector_is_near_shortest(self):
        # ||b_1||^2 <= 2^(n-1) * lambda_1^2, via the exact enumerator
        rng = random.Random(31207)
        for trial in range(25):
            n = 2 + trial % 2
            cols = random_columns(rng, n, span=9)
            reduced, _ = lll_reduce(cols)
            b1_sq = sum(x * x for x in reduced[0])
            # a box of small coefficient vectors bounds lambda_1 from above,
            # which is all the LLL guarantee needs
            best = None
            for c0 in range(-4, 5):
                for c1 in range(-4, 5):
                    for c2 in range(-4, 5) if n == 3 else (0,):
                        coeffs = (c0, c1, c2)[:n]
                        if not any(coeffs):
                            continue
                        vec = [
                            sum(coeffs[j] * reduced[j][i] for j in range(n))
                            for i in range(n)
                        ]
                        vsq = sum(x * x for x in vec)
                        best = vsq if best is None else min(best, vsq)
            assert b1_sq <= 2 ** (n - 1) * best


    def test_orders_part_only_at_ties(self):
        # Cohen's order and the eager one give the same basis and transform
        # unless a size reduction meets an exact tie in one of the runs;
        # entries up to 3 make ties common, so the orders do part
        rng = random.Random(33119)
        parted = 0
        for trial in range(300):
            cols = random_columns(rng, 3 + trial % 2, span=3)
            ties, eager_ties = [], []
            if reference_lll(cols, ties=ties) != reference_lll(
                cols, eager=True, ties=eager_ties
            ):
                assert ties or eager_ties
                parted += 1
        assert parted >= 20

    def test_orders_part_on_a_tie(self):
        # mu_10 = -1/2 exactly at the first size reduction: lll_reduce
        # follows Cohen's order, and the eager order ends elsewhere
        cols = [[0, -1, -1], [1, -1, 0], [1, 1, 1]]
        cohen = ([[0, 0, -1], [0, -1, 0], [1, 0, 0]], [[2, -1, 1], [-1, 1, -1], [1, 0, 1]])
        eager = ([[0, 1, 0], [0, 0, -1], [1, 0, 0]], [[1, -1, 1], [2, -1, 1], [1, 0, 1]])
        ties = []
        assert lll_reduce(cols) == reference_lll(cols, ties=ties) == cohen
        assert ties == [(1, 0), (1, 0)]
        assert reference_lll(cols, eager=True) == eager

    def test_ties_round_away_from_zero(self):
        # mu = +-1/2 exactly: LLL rounds ties away from zero, so both
        # bases are size-reduced once more; half-up rounding would leave
        # the first one alone
        assert lll_reduce([[2, 0], [1, 5]]) == ([[2, 0], [-1, 5]], [[1, 0], [-1, 1]])
        assert lll_reduce([[2, 0], [-1, 5]]) == ([[2, 0], [1, 5]], [[1, 0], [1, 1]])


class TestLovaszDecision:
    """_swap_det against the exact Lovasz inequality it decides."""

    @staticmethod
    def exact(dm, dk, dp, m):
        s = dp * dm + m * m
        return 0 if 4 * s >= 3 * dk * dk else s // dk

    def test_bit_lengths_agree_with_the_exact_products(self):
        # Gram triples with 4 (dp dm + m^2) and 3 dk^2 within a factor 2^4
        # of each other, small and up to 700-bit dk, with |m| <= dk / 2 as
        # after size reduction.  b = bl(dp) + bl(dm) - 2 bl(dk) settles the
        # test at b >= 2 and b <= -3; the edges are the outcomes one bit
        # inside either cut that the bit lengths would get wrong
        rng = random.Random(35011)

        def draw(bits):
            # uniform among numbers of that bit length, or within 1/8 of either end
            lo, hi = 2 ** (bits - 1), 2**bits - 1
            return rng.choice((rng.randint(lo, hi), lo + rng.randint(0, lo // 8),
                               hi - rng.randint(0, lo // 8)))

        seen = dict.fromkeys(("swap", "stay", "b>=2", "b<=-3", "swap at 1", "stay at -2"), 0)
        while seen["swap"] + seen["stay"] < 6000:
            bk = rng.randint(1, 12 if rng.random() < 0.5 else 700)
            bm = rng.randint(1, bk)
            bp = 2 * bk - bm + rng.randint(-4, 3)
            if bp < 1:
                continue
            dk, dm, dp = draw(bk), draw(bm), draw(bp)
            m = rng.randint(-(dk // 2), dk // 2) >> rng.choice((0, 0, bk // 2, bk))
            left, right = 4 * (dp * dm + m * m), 3 * dk * dk
            if not (right < 16 * left and left < 16 * right):
                continue
            got = _swap_det(dm, dk, dp, m)
            assert got == self.exact(dm, dk, dp, m), (dm, dk, dp, m)
            b = bp + bm - 2 * bk
            seen["swap" if got else "stay"] += 1
            seen["b>=2"] += b >= 2
            seen["b<=-3"] += b <= -3
            seen["swap at 1"] += bool(got) and b == 1
            seen["stay at -2"] += not got and b == -2
        assert min(seen.values()) >= 30, seen

    def test_zero_margin_does_not_swap(self):
        # once column 1 is size-reduced, 4 (d_2 d_0 + lam_10^2) = 3 d_1^2
        # exactly: the Lovasz condition holds with equality, so no swap
        reduced = [[2, 0, 0], [-1, 1, 1]]
        lam, d = _gram(reduced)
        assert (d, lam[1][0]) == ([1, 4, 8], -2)
        assert 4 * (d[2] * d[0] + lam[1][0] ** 2) == 3 * d[1] ** 2
        assert _swap_det(d[0], d[1], d[2], lam[1][0]) == 0
        cols = [[2, 0, 0], [1, 1, 1]]
        assert lll_reduce(cols) == reference_lll(cols) == (reduced, [[1, 0], [-1, 1]])


class TestVerifier:
    """verify_lll_reduced must name each failed postcondition."""

    IDENTITY = [[1, 0], [0, 1]]

    def check(self, reduced, columns=None, transform=IDENTITY):
        return verify_lll_reduced(columns or reduced, reduced, transform)

    def test_wrong_image(self):
        got = self.check([[2, 0], [1, 6]], columns=[[2, 0], [1, 5]])
        assert got == ["column 1 is not the transform image"]

    def test_transform_not_unimodular(self):
        got = self.check([[1, 0], [0, 2]], [[1, 0], [0, 1]], [[1, 0], [0, 2]])
        assert got == ["transform is not unimodular"]

    def test_dependent_columns(self):
        assert self.check([[2, 0], [4, 0]]) == ["reduced columns are dependent"]

    def test_size_reduction_failure(self):
        # mu_10 = 1
        assert self.check([[2, 0], [2, 5]]) == ["size reduction fails at (1,0)"]

    def test_exchange_failure(self):
        # ||b*_1||^2 = 4 < 3/4 * 25
        assert self.check([[0, 5], [2, 0]]) == ["exchange condition fails at column 1"]

    def test_boundaries_accepted(self):
        # |mu_10| = 1/2 exactly, and Lovasz with equality: 3 = 3/4 * 4
        assert self.check([[2, 0], [1, 5]]) == []
        assert self.check([[2, 0, 0, 0], [0, 1, 1, 1]]) == []

    def test_given_gram_reads_the_same(self):
        # the caller's _gram of the reduced columns stands in for a fresh one
        for reduced in ([[2, 0], [2, 5]], [[0, 5], [2, 0]], [[2, 0], [1, 5]]):
            got = verify_lll_reduced(reduced, reduced, self.IDENTITY, _gram(reduced))
            assert got == self.check(reduced)


class TestDistanceLemma:
    def test_lower_bounds_true_distance(self):
        # the certified bound must never exceed the exact distance
        rng = random.Random(32309)
        checked = 0
        while checked < 110:
            n = 2 + checked % 2
            cols = random_columns(rng, n, span=12)
            reduced, transform = lll_reduce(cols)
            assert verify_lll_reduced(cols, reduced, transform) == []
            y = [rng.randint(-40, 40) for _ in range(n)]
            got = distance_lower_bound(reduced, y)
            if got is None:
                continue
            bound_sq, frac = got
            assert 0 < frac <= Fraction(1, 2)
            true_sq = exact_min_distance_sq(reduced, y)
            assert bound_sq <= true_sq
            checked += 1

    def test_lattice_point_gives_none(self):
        rng = random.Random(32417)
        cols = random_columns(rng, 3)
        reduced, _ = lll_reduce(cols)
        point = [
            2 * reduced[0][i] - 5 * reduced[1][i] + reduced[2][i]
            for i in range(3)
        ]
        assert distance_lower_bound(reduced, point) is None
        assert exact_min_distance_sq(reduced, point) == 0

    def test_oracle_agrees_with_babai_on_orthogonal_basis(self):
        reduced = [[4, 0], [0, 4]]
        assert exact_min_distance_sq(reduced, [1, 2]) == 1 + 4

    def test_matches_two_determinant_formula(self):
        # the shared last-column cofactors give exactly what two full
        # determinants give, on bases that need not be reduced
        rng = random.Random(32611)
        nones = 0
        for trial in range(160):
            n = 2 + trial % 4
            cols = random_columns(rng, n, span=10 ** rng.choice((1, 6, 30)))
            if trial % 5 == 0:
                # a lattice point has an integral last coordinate: the None path
                coeffs = [rng.randint(-9, 9) for _ in range(n)]
                y = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
            else:
                y = [rng.randint(-10**20, 10**20) for _ in range(n)]
            s_n = Fraction(det([*cols[:-1], y]), det(cols))
            frac = abs(s_n - reference_nearest_int(s_n))
            got = distance_lower_bound(cols, y)
            if frac == 0:
                assert got is None
                nones += 1
                continue
            c1_sq = sum(x * x for x in cols[0])
            assert got == (frac * frac * Fraction(c1_sq, 2 ** (n - 1)), frac)
        assert nones >= 32

    def test_dependent_columns_rejected(self):
        for cols in ([[1, 2], [2, 4]], [[1, 0, 2], [0, 1, 1], [2, 2, 6]]):
            with pytest.raises(ValueError, match="dependent"):
                distance_lower_bound(cols, [1] * len(cols))


def window(x, lo: str, hi: str) -> bool:
    return Fraction(lo) < Fraction(x) < Fraction(hi)


def by_key(report, round_index: int):
    return {
        (a.gamma_index, a.delta_index, a.choice, a.K): a
        for a in report.rounds[round_index].attempts
    }


class TestCaseReduction41:
    def test_single_round_to_final_bound(self, chains, reductions):
        report = reductions["15-41"]
        assert report.ok
        assert report.start_bound == chains["15-41"].abs_bound
        assert len(report.rounds) == 1
        assert report.rounds[0].scale == 10**39
        assert report.final_bound == 59

    def test_frozen_attempt_values(self, reductions):
        atts = by_key(reductions["15-41"], 0)
        a0 = atts[(0, 0, (1, 3, 4), 10**39)]
        a1 = atts[(0, 1, (1, 3, 4), 10**39)]
        assert a0.ok and a1.ok
        assert window(a0.c1_norm_sq, "1.3178e60", "1.3180e60")
        assert a1.c1_norm_sq == a0.c1_norm_sq  # same lattice, other target
        assert window(a0.s_fractional, "0.2505", "0.2507")
        assert window(a1.s_fractional, "0.0809", "0.0811")
        assert window(a0.distance_sq, "1.0345e58", "1.0347e58")
        assert window(a1.distance_sq, "1.0799e57", "1.0801e57")
        assert window(a0.c_lower, "0.06458", "0.06460")
        assert window(a1.c_lower, "0.013154", "0.013156")
        assert a0.new_bound == 55
        assert a1.new_bound == 59

    def test_rounding_slack_is_tiny(self, reductions):
        # far below the 1/1000 gate that forces a precision retry
        for att in reductions["15-41"].rounds[0].attempts:
            assert att.rho < Fraction(1, 10**20)


class TestCaseReduction5581:
    def test_single_round_to_final_bound(self, reductions):
        report = reductions["15-5581"]
        assert report.ok
        assert len(report.rounds) == 1
        assert report.final_bound == 23

    def test_frozen_attempt_values(self, reductions):
        atts = by_key(reductions["15-5581"], 0)
        g0d0 = atts[(0, 0, (2, 3, 4), 10**39)]
        g0d1 = atts[(0, 1, (2, 3, 4), 10**39)]
        g1d0 = atts[(1, 0, (1, 3, 4), 10**39)]
        g1d1 = atts[(1, 1, (1, 3, 4), 10**39)]
        assert all(a.ok for a in (g0d0, g0d1, g1d0, g1d1))
        assert window(g0d0.c1_norm_sq, "1.2631e60", "1.2633e60")
        assert window(g1d0.c1_norm_sq, "4.7265e59", "4.7267e59")
        assert window(g0d0.s_fractional, "0.4489", "0.4491")
        assert window(g0d1.s_fractional, "0.3511", "0.3513")
        assert window(g1d0.s_fractional, "0.3849", "0.3851")
        assert window(g1d1.s_fractional, "0.4225", "0.4227")
        assert window(g0d0.distance_sq, "3.1830e58", "3.1832e58")
        assert window(g0d1.distance_sq, "1.9478e58", "1.9480e58")
        assert window(g1d0.distance_sq, "8.7558e57", "8.7560e57")
        assert window(g1d1.distance_sq, "1.0550e58", "1.0552e58")
        assert window(g0d0.c_lower, "0.1119", "0.1120")
        assert window(g0d1.c_lower, "0.08674", "0.08675")
        assert window(g1d0.c_lower, "0.05687", "0.05688")
        assert window(g1d1.c_lower, "0.06281", "0.06282")
        assert {a.new_bound for a in (g0d0, g0d1, g1d0, g1d1)} == {23}


class TestCaseReduction271:
    def test_final_bound(self, reductions):
        report = reductions["10-271"]
        assert report.ok
        assert report.final_bound == 38
        assert report.final_bound <= 60
        assert report.final_bound < 239

    def test_first_delta_needs_escalation(self, reductions):
        # at the starting scale the margin fails for one eta pair under
        # both conjugate choices; two orders of magnitude more fixes it
        attempts = reductions["10-271"].rounds[0].attempts
        failed = [a for a in attempts if not a.ok]
        assert {(a.delta_index, a.K) for a in failed} == {(0, 10**41)}
        assert {a.choice for a in failed} == {(1,), (2,)}
        for a in failed:
            assert a.reason == "rounding slack swallows the distance margin"

        rescued = [a for a in attempts if a.ok and a.delta_index == 0]
        assert len(rescued) == 1 and rescued[0].K == 10**43
        assert rescued[0].c_lower > 0

    def test_frozen_attempt_values(self, reductions):
        atts = by_key(reductions["10-271"], 0)
        easy = atts[(0, 1, (2,), 10**41)]
        hard = atts[(0, 0, (2,), 10**43)]
        assert window(easy.c1_norm_sq, "7.9881e40", "7.9883e40")
        assert window(easy.s_fractional, "0.2565", "0.2567")
        assert window(easy.distance_sq, "2.6291e39", "2.6293e39")
        assert window(easy.c_lower, "1.0977e-3", "1.0979e-3")
        assert easy.new_bound == 38
        assert window(hard.c1_norm_sq, "3.4102e43", "3.4104e43")
        assert window(hard.s_fractional, "0.2658", "0.2660")
        assert window(hard.distance_sq, "1.2052e42", "1.2054e42")
        assert window(hard.c_lower, "4.2360e-3", "4.2362e-3")
        assert hard.new_bound == 37


# first-round K inside each case's `escalate` benchmark window
ESCALATE_K = {"15-41": 3162 * 10**31, "15-5581": 3162 * 10**31, "10-271": 10**36}


def round_lattices(ch, report):
    """The columns of every lattice each round of report tried, in order:
    one per distinct (gamma, choice, K) of its attempts, whether it was
    reduced, rejected or settled by _futile without LLL."""
    out = []
    for rnd in report.rounds:
        inputs = _RoundInputs(ch.conj, ch.constants, rnd.start_bound)
        keys = dict.fromkeys((a.gamma_index, a.choice, a.K) for a in rnd.attempts)
        out += [inputs.columns(*key) for key in keys]
    return out


def test_case_lattices_match_reference(chains):
    # every lattice the proofs consider, at the default K and at a lower K
    # that forces escalation, reduces exactly as the recomputing oracle in
    # either order: no size reduction there meets a tie.  The columns are
    # rebuilt from the attempts, so the lattices that _futile settles
    # without LLL are checked as well
    lattices = []
    for cid, ch in chains.items():
        for K in (ch.cfg.default_K, ESCALATE_K[cid]):
            report = reduction_loop(ch.conj, ch.constants, ch.abs_bound,
                                    stop_below=ch.n_lower, scale=K)
            lattices += round_lattices(ch, report)
    # default K: 1 + 2 + 3 lattices; escalation windows: 9 + 18 + 7
    assert len(lattices) == 40
    for cols in lattices:
        ties = []
        assert lll_reduce(cols) == reference_lll(cols, ties=ties) == reference_lll(cols, eager=True, ties=ties)
        assert ties == []


# the `escalate` benchmark's first-round K grid per case (perfbench's
# k_grid, written out), and the SHA-256 of the concatenated
# repr(solve_case(cid, scale=K).to_dict()) without timings, in grid order
ESCALATE_GRID_DIGESTS = {
    "15-41": (
        (3162 * 10**31, 5623 * 10**31, 10**35, 1778 * 10**32),
        "985883b7c774064769150127304a94dabc9a914106d86796e4e6d87e5870d478",
    ),
    "15-5581": (
        (3162 * 10**31, 5623 * 10**31, 10**35),
        "7e025643e43b93204f0614c8fdcd959ee5d9935b902cb9c8660bc629c474cf28",
    ),
    "10-271": (
        (10**36, 1778 * 10**33, 3162 * 10**33, 5623 * 10**33, 10**37),
        "4cbe9e9ff33b51de9b8a3b0f088147381e3f8bff42a8e7b271559a8a7021bc1d",
    ),
}


@pytest.mark.parametrize("cid", list(ESCALATE_GRID_DIGESTS))
def test_escalate_grid_reports_reproduce_bit_for_bit(cid):
    # below the default K most attempts fail and K escalates: every
    # lattice, attempt value and bound there must reproduce as well
    grid, pin = ESCALATE_GRID_DIGESTS[cid]
    digest = hashlib.sha256()
    for K in grid:
        report = solve_case(cid, scale=K).to_dict()
        del report["timings"]
        digest.update(repr(report).encode())
    assert digest.hexdigest() == pin


def proof_shaped_columns(rng: random.Random, n: int) -> list:
    """n columns like a case lattice's: random K-scale entries over a last
    row (0, ..., 0, 1)."""
    span = 10 ** rng.randint(3, 30)
    cols = [[rng.randint(-span, span) for _ in range(n - 1)] + [0] for _ in range(n)]
    cols[-1][-1] = 1
    return cols


def threshold(n: int, bound_n: int) -> int:
    """The largest d_n with (2^(n(n-1)/2) d_n)^(1/n) / 2^(n+1) <= bound_n^2,
    i.e. the largest Gram determinant whose LLL-bounded distance bound
    cannot exceed bound_n^2."""
    return (2 ** (n + 1) * bound_n**2) ** n // 2 ** (n * (n - 1) // 2)


def smallest_futile_bound(d_n: int, n: int) -> int:
    """The least bound the rule fires for at d_n, by bisection."""
    lo, hi = 0, 1
    while not _futile(d_n, n, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _futile(d_n, n, mid) else (mid, hi)
    return hi


class TestFutileLattices:
    """_futile settles a lattice from its Gram determinant d_n alone, when
    no reduced basis can certify a distance above the bound."""

    def test_threshold_is_inclusive(self):
        for n in range(2, 6):
            for bound_n in (1, 2, 3, 59, 10**27 + 7):
                t = threshold(n, bound_n)
                assert t == bound_n ** (2 * n) * 2 ** (n * (n + 3) // 2)
                assert _futile(t, n, bound_n)
                assert not _futile(t + 1, n, bound_n)
                assert _futile(1, n, bound_n)

    def test_zero_determinant_is_never_futile(self):
        for n in range(2, 6):
            for bound_n in (1, 59, 10**27):
                assert not _futile(0, n, bound_n)

    def test_dependent_units_still_rejected(self, chains, monkeypatch):
        # two equal unit rows make every lattice's d_n zero: LLL must still
        # see each one and reject it, rather than the rule settling it
        class DependentUnits(_RoundInputs):
            def __init__(self, *args):
                super().__init__(*args)
                self.mid_units[1] = self.mid_units[0]

        monkeypatch.setattr(reduction, "_RoundInputs", DependentUnits)
        ch = chains["15-41"]
        got = reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, ch.scale)
        assert not got.ok and got.attempts
        assert {a.reason for a in got.attempts} == {
            "lattice rejected: columns are linearly dependent"}

    def test_reduced_bases_obey_the_rule(self):
        # every LLL output has d_1^n <= 2^(n(n-1)/2) d_n, and at the
        # smallest bound the rule fires for, no target's certified distance
        # exceeds the bound; the largest ratio shows the check has teeth
        rng = random.Random(36011)
        fired, worst = 0, Fraction(0)
        for trial in range(160):
            n = 2 + trial % 4
            if trial % 2:
                cols = proof_shaped_columns(rng, n)
            else:
                cols = random_columns(rng, n, span=99)
            d_n = gram(cols)[1][-1]
            reduced, _ = lll_reduce(cols)
            d_1 = sum(x * x for x in reduced[0])
            assert d_1**n <= 2 ** (n * (n - 1) // 2) * d_n
            bound_n = smallest_futile_bound(d_n, n)
            assert not _futile(d_n, n, bound_n - 1)
            span = 3 * max(abs(x) for col in cols for x in col)
            for _ in range(12):
                y = [rng.randint(-span, span) for _ in range(n)]
                got = distance_lower_bound(reduced, y)
                if got is None:
                    continue
                fired += 1
                assert got[0] <= bound_n**2
                worst = max(worst, got[0] / bound_n**2)
        assert fired >= 1500
        assert worst > Fraction(1, 2)

    def test_gram_determinant_reaches_the_rule(self, chains, monkeypatch):
        # the d_n the rule reads is the Gram determinant of the lattice's
        # own columns, for every lattice of an escalating proof
        seen = []

        def recording(d_n, n, bound_n):
            seen.append((d_n, n))
            return _futile(d_n, n, bound_n)

        monkeypatch.setattr(reduction, "_futile", recording)
        ch = chains["15-5581"]
        report = reduction_loop(ch.conj, ch.constants, ch.abs_bound,
                                stop_below=ch.n_lower, scale=ESCALATE_K["15-5581"])
        lattices = round_lattices(ch, report)
        assert len(seen) == len(lattices) == 18
        assert seen == [(gram(cols)[1][-1], len(cols)) for cols in lattices]

    @pytest.mark.parametrize("cid", list(ESCALATE_GRID_DIGESTS))
    def test_settled_attempts_match_the_full_path(self, cid, chains, monkeypatch):
        # with the rule switched off, every lattice is reduced: each attempt
        # the rule settled fails there with the same reason, and the rest
        # of the report is the same
        ch = chains[cid]
        grid, _ = ESCALATE_GRID_DIGESTS[cid]

        def run(K):
            return reduction_loop(ch.conj, ch.constants, ch.abs_bound,
                                  stop_below=ch.n_lower, scale=K)

        settled = 0
        for K in grid:
            pruned = run(K)
            with monkeypatch.context() as m:
                m.setattr(reduction, "_futile", lambda d_n, n, bound_n: False)
                full = run(K)
            assert pruned.to_dict() == full.to_dict()
            for rp, rf in zip(pruned.rounds, full.rounds):
                for a, b in zip(rp.attempts, rf.attempts):
                    if a.s_fractional is None and b.s_fractional is not None:
                        assert a.reason == b.reason == SHORT_DISTANCE
                        assert a == b._replace(s_fractional=None, distance_sq=None)
                        settled += 1
                    else:
                        assert a == b
        # the grid's 125 lattices hold 60 that the rule settles, 2 attempts each
        assert settled == {"15-41": 32, "15-5581": 48, "10-271": 40}[cid]


def midpoint(ball: Ball) -> Fraction:
    """The oracle's midpoint, from the endpoints as Fractions."""
    return (ball.lo + ball.hi) / 2


class TestIntegerTheta:
    """_theta on a dyadic midpoint equals K * mid rounded to nearest, ties
    away from zero."""

    def test_case_enclosures(self, chains):
        # every log enclosure of the three cases, on a quarter-decade K
        # grid from 10^30 to 10^45
        scales = [m * 10 ** (e - 3) for e in range(30, 46) for m in (1000, 1778, 3162, 5623)]
        checked = 0
        for ch in chains.values():
            rnd = _RoundInputs(ch.conj, ch.constants, ch.abs_bound)
            for gi in range(len(ch.cfg.gammas)):
                rows = [(rnd.lam2[gi], rnd.mid2[gi])]
                rows += zip(rnd.lam1, rnd.mid1)
                rows += zip(rnd.lam_units, rnd.mid_units)
                for balls, mids in rows:
                    for ball, mid in zip(balls, mids):
                        assert mid == ball.dyadic_mid()
                        for K in scales:
                            assert _theta(mid, K) == reference_nearest_int(K * midpoint(ball))
                            checked += 1
        assert checked >= 64 * 20

    def test_random_balls(self):
        rng = random.Random(34019)
        ties = negative = unequal = whole = 0
        for trial in range(900):
            prec = rng.choice((53, 64, 256))
            kind = trial % 3
            if kind == 0:
                # dyadic endpoints a/2^s, b/2^s with a + b odd and K an odd
                # multiple of 2^s: K * mid lies exactly halfway
                s = rng.randint(0, 90)
                a = rng.randint(-2**40, 2**40)
                b = a + 2 * rng.randint(0, 2**20) + 1
                ball = from_endpoints(Fraction(a, 2**s), Fraction(b, 2**s), prec)
                K = 2**s * (2 * rng.randint(0, 10**6) + 1)
            elif kind == 1:
                value = Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30))
                ball = Ball(value, prec)
                K = rng.randint(1, 10**45)
            else:
                # large integers rounded to prec bits: midpoint exponents >= 0
                ball = Ball(rng.randint(-2**400, 2**400), prec)
                K = rng.randint(1, 10**12)
            if trial // 3 % 2:
                # the same endpoints stripped of trailing zero bits, as a
                # normalising format such as mpmath's mpf stores them
                ball = Ball._make(stripped(ball._iv), prec)
            mid = ball.dyadic_mid()
            want = K * midpoint(ball)
            assert _theta(mid, K) == reference_nearest_int(want)
            _, e1, _, e2 = ball._iv
            ties += want.denominator == 2
            negative += want < 0
            unequal += e1 != e2
            whole += mid[1] >= 0
        assert min(ties, negative, unequal, whole) >= 100, (ties, negative, unequal, whole)


def stripped(iv):
    """A kernel interval with the trailing zero bits of each endpoint moved
    into its exponent."""
    out = ()
    for m, e in (iv[:2], iv[2:]):
        z = (m & -m).bit_length() - 1 if m else 0
        out += (m >> z, e + z)
    return out


def _count_field_ops(monkeypatch, modules=(realalg,)):
    """The names of every nf_pow and nf_inverse call made through the given
    modules' globals, in order (realalg's nf_inverse is set even where
    realalg no longer imports it)."""
    calls = []
    for module in modules:
        for name in ("nf_pow", "nf_inverse"):
            def counted(*args, _name=name, _fn=getattr(numberfield, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_one_case_etas_per_round(chains, monkeypatch):
    # 15-5581 has two norm-p gammas; every round reads the Multiplicand
    # records that ConjugateData.etas builds once per ConjugateData, and
    # no round raises, inverts or embeds a field element of its own
    ch = chains["15-5581"]
    cfg, cc, bound_n = ch.cfg, ch.constants, ch.abs_bound
    calls = _count_field_ops(monkeypatch, (realalg, numberfield))
    conj = ConjugateData(cfg, ch.conj.prec)
    for _ in range(2):
        rnd = reduce_case_bound(conj, cc, bound_n, ch.scale)
        assert rnd.bound == 23
    assert calls == []
    assert conj.etas[:2] == ([Multiplicand(2, dl) for dl in cfg.deltas],
                             [Multiplicand(cfg.p, g) for g in cfg.gammas])
    assert {elem for elem, _ in conj._embeds} == {*cfg.deltas, *cfg.gammas, *cfg.units}


def test_one_log_per_embedding(chains, monkeypatch):
    # the regulator, the unit minors and every reduction round read the
    # same log|embedding| enclosures, those of the deltas and gammas for
    # the etas; ConjugateData keeps each, so _log is asked for each once
    ch = chains["15-5581"]
    cfg = ch.cfg
    conj = ConjugateData(cfg, ch.conj.prec)
    real = realalg._log
    seen = []
    monkeypatch.setattr(realalg, "_log", lambda x, prec: seen.append((x, prec)) or real(x, prec))
    real.cache_clear()
    cc = compute_constants(conj, ch.n_lower)
    for _ in range(2):
        assert reduce_case_bound(conj, cc, ch.abs_bound, ch.scale).bound == 23
    assert real.cache_info().misses == len(set(seen)) < len(seen)
    half = cfg.d // 2
    mags = [(conj.embed_abs(e, i)._iv, conj.embed_abs(e, i).prec)
            for e in (*cfg.deltas, *cfg.gammas, *cfg.units) for i in range(half)]
    assert all(seen.count(key) == 1 for key in mags)


@pytest.mark.parametrize("scale", [None, 3162 * 10**31])
def test_one_case_etas_per_proof(monkeypatch, scale):
    # the constant chain and every reduction round, including those of a
    # first-round K below the default, invert nothing: each delta^d and
    # gamma^d is raised once per proof, for the characteristic polynomial
    # that its eta's leading coefficient reads
    calls = _count_field_ops(monkeypatch)
    report = solve_case("15-5581", scale=scale)
    assert report.verdict == "no_solutions"
    cfg = get_case("15-5581")
    assert calls == ["nf_pow"] * (len(cfg.deltas) + len(cfg.gammas))


@pytest.mark.parametrize("cid", ["15-41", "15-5581", "10-271"])
def test_constants_and_reduction_invert_nothing(chains, monkeypatch, cid):
    # the etas a/beta^d are read from beta's embeddings, so the constant
    # chain and the reduction call nf_inverse nowhere
    ch = chains[cid]
    calls = _count_field_ops(monkeypatch, (realalg, numberfield))
    conj = ConjugateData(ch.cfg, ch.conj.prec)
    cc = compute_constants(conj, ch.n_lower)
    report = reduction_loop(conj, cc, ch.abs_bound, ch.n_lower, ch.scale)
    assert (cc, report) == (ch.constants, ch.reduction)
    assert "nf_inverse" not in calls


@pytest.mark.parametrize("cid", ["15-41", "15-5581"])
def test_degree_8_cases_prove_at_k_1e70(cid):
    # the etas' log enclosures, at most 4.6e-74 wide on the octic field,
    # keep K * radius below 0.001 at K = 1e70
    report = solve_case(cid, scale=10**70)
    assert report.verdict == "no_solutions", report.reason


def test_one_record_per_round(chains, monkeypatch):
    # 15-5581's two gammas, their lattices and every attempt read one
    # _RoundInputs per round
    ch = chains["15-5581"]
    built = []

    class CountingInputs(_RoundInputs):
        def __init__(self, conj, cc, bound_n):
            built.append(bound_n)
            super().__init__(conj, cc, bound_n)

    monkeypatch.setattr(reduction, "_RoundInputs", CountingInputs)
    for _ in range(2):
        assert reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, ch.scale).bound == 23
    assert built == [ch.abs_bound, ch.abs_bound]


def test_distance_reads_the_given_gram(chains):
    # a lattice's Gram data comes from its reduced basis once, and the
    # lemma gives the same pair with it as with a fresh _gram
    ch = chains["10-271"]
    rnd = _RoundInputs(ch.conj, ch.constants, ch.abs_bound)
    lattice = reduction._ReducedLattice(rnd, 0, (2,), 10**41)
    assert lattice.gram == _gram(lattice.reduced)
    for di in range(len(ch.cfg.deltas)):
        y = lattice.target(rnd, di)
        got = distance_lower_bound(lattice.reduced, y, lattice.gram)
        assert got is not None and got == distance_lower_bound(lattice.reduced, y)


def test_bound_terms_once_per_round(chains, monkeypatch):
    # bound_n ** (1/(r-2)) and log bound_n are taken once per round, by
    # the first attempt that reaches them, however many attempts do
    ch = chains["15-41"]
    point = Ball(ch.abs_bound, ch.conj.prec)._iv
    taken = []
    root, log = reduction.int_root, Ball.log

    def counting_root(t, k, prec):
        if t == ch.abs_bound:
            taken.append("root")
        return root(t, k, prec)

    def counting_log(self):
        if self._iv == point:
            taken.append("log")
        return log(self)

    monkeypatch.setattr(reduction, "int_root", counting_root)
    monkeypatch.setattr(Ball, "log", counting_log)
    rnd = reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, ch.scale)
    assert sum(a.ok for a in rnd.attempts) >= 2
    assert sorted(taken) == ["log", "root"]


def swap_always(dm, dk, dp, m):
    """A wrong Lovasz decision that swaps at every test: d_k after the swap."""
    return (dp * dm + m * m) // dk


class TestSwapBound:
    """Each swap multiplies the product of d_1 .. d_(n-1) by less than 3/4,
    so lll_reduce stops with an error where a wrong decision would loop."""

    def test_endless_swaps_raise(self, monkeypatch, deadline):
        monkeypatch.setattr(reduction, "_swap_det", swap_always)
        with deadline(60), pytest.raises(ArithmeticError, match="swap bound"):
            lll_reduce([[2, 0, 0], [1, 1, 1]])

    def test_the_proof_ends_inconclusive_instead_of_hanging(self, monkeypatch, deadline):
        monkeypatch.setattr(reduction, "_swap_det", swap_always)
        with deadline(60):
            report = solve_case("10-271")
        assert (report.verdict, report.reason) == (
            "inconclusive", "reduction produced no certified bound")
        reasons = {a.reason for rnd in report.reduction.rounds for a in rnd.attempts}
        assert reasons == {"lattice rejected: LLL exceeded its swap bound"}


class TestRobustness:
    def test_stable_under_doubled_precision(self, chains):
        # the rounded inputs absorb precision, so every lattice, target
        # and bound must come out identical at 512 bits
        ch = chains["10-271"]
        conj512 = ConjugateData(ch.cfg, 512)
        cc512 = compute_constants(conj512, ch.n_lower)
        assert cc512 == ch.constants
        round512 = reduce_case_bound(conj512, cc512, ch.abs_bound, ch.scale)
        assert round512.ok
        assert round512.bound == 38
        easy = {
            (a.gamma_index, a.delta_index, a.choice, a.K): a
            for a in round512.attempts
        }[(0, 1, (2,), 10**41)]
        assert window(easy.c1_norm_sq, "7.9881e40", "7.9883e40")

    def test_small_scale_fails_without_exception(self, chains):
        # at 64 bits the log enclosures stop the escalation from K = 100
        # long before 10-271 certifies: the round fails instead of raising,
        # and K went as far as the enclosures allow and no further
        ch = chains["10-271"]
        conj64 = ConjugateData(ch.cfg, 64)
        got = reduce_case_bound(conj64, ch.constants, ch.abs_bound,
                                scale=100)
        assert not got.ok
        assert got.bound is None
        assert got.attempts
        assert all(not a.ok for a in got.attempts)
        assert all(a.rho <= MAX_ROUNDING_SLACK for a in got.attempts)
        assert max(a.rho for a in got.attempts) * 100 > MAX_ROUNDING_SLACK

    def test_oversized_scale_raises_precision_error(self, chains, monkeypatch):
        # the slack is checked once per gamma, before any lattice is built
        built = []
        monkeypatch.setattr(reduction, "lll_reduce", lambda cols: built.append(cols))
        ch = chains["10-271"]
        with pytest.raises(PrecisionError, match=r"K\*radius = 3\.90e\+25 exceeds 0\.001"):
            reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, scale=10**100)
        assert built == []

    def test_precision_error_names_any_scale(self, chains):
        # K*radius past float range is still written out, from its integers
        ch = chains["10-271"]
        with pytest.raises(PrecisionError, match=r"^K\*radius = 3\.90e\+325 exceeds 0\.001$"):
            reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, scale=10**400)

    def test_oversized_scale_raises_precision_error_15_5581(self, chains, monkeypatch):
        # the same check on a case with two norm-p gammas: the first one
        # already fails, and no lattice of either is built
        built = []
        monkeypatch.setattr(reduction, "lll_reduce", lambda cols: built.append(cols))
        ch = chains["15-5581"]
        with pytest.raises(PrecisionError, match=r"K\*radius = 3\.16e\+26 exceeds 0\.001"):
            reduce_case_bound(ch.conj, ch.constants, ch.abs_bound, scale=10**100)
        assert built == []

    def test_distance_bound_shrinks_no_further(self, chains, reductions):
        # one round suffices: the loop stopped because the bound cleared
        # the scan floor, not because it stalled
        for cid in ("15-41", "15-5581", "10-271"):
            assert reductions[cid].final_bound < chains[cid].n_lower
