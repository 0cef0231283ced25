"""Field arithmetic, case data integrity, and the exact verification layer."""

import json
import math
import random
from fractions import Fraction

import pytest

from cyclobound.numberfield import (
    FieldElement,
    case_to_dict,
    charpoly,
    get_case,
    list_case_ids,
    load_case_config,
    nf_inverse,
    nf_mul,
    nf_norm,
    nf_pow,
    verify_case_data,
    _config_from_dict,
    _envelope_certificate,
    _root_match,
)
from cyclobound.pipeline import solve_case
from cyclobound.polyarith import IntPoly, cyclotomic, poly_eval
from test_polyarith import PSP_37, PSP_41, sylvester_det


def power(g: IntPoly, k: int) -> IntPoly:
    """g**k by repeated multiplication."""
    out = IntPoly(1)
    for _ in range(k):
        out = out * g
    return out


def case_etas(cfg):
    """The multiplicands of the unit inequality as field elements, the
    reference for realalg's Multiplicand records: 2/delta^d per delta and
    p/gamma^d per gamma, each by one inversion, followed by the units."""
    f, d = cfg.f, cfg.d
    return ([nf_mul(FieldElement(2), nf_pow(nf_inverse(dl, f), d, f), f) for dl in cfg.deltas],
            [nf_mul(FieldElement(cfg.p), nf_pow(nf_inverse(g, f), d, f), f) for g in cfg.gammas],
            list(cfg.units))


def random_element(rng: random.Random, d: int, span: int = 5) -> FieldElement:
    coeffs = [rng.randint(-span, span) for _ in range(d)]
    if not any(coeffs):
        coeffs[0] = 1
    return FieldElement(IntPoly(*coeffs), rng.randint(1, 4))


def reference_charpoly(a: FieldElement, f: IntPoly) -> IntPoly:
    """Faddeev-LeVerrier on the exact multiplication matrix of a.

    The oracle builds the matrix column by column (x^j * a reduced mod f)
    with its own reduction, then runs the recurrence
    N_k = M N_(k-1) + c_k I with c_k = -tr(M N_(k-1)) / k.
    """
    d = f.degree()
    col = [Fraction(a.num[i], a.den) for i in range(d)]
    cols = []
    for _ in range(d):
        cols.append(col)
        top = col[-1]
        col = [Fraction(0)] + col[:-1]
        col = [c - top * Fraction(f[i], f.lc()) for i, c in enumerate(col)]
    m = [[cols[j][i] for j in range(d)] for i in range(d)]
    n = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    cs = [Fraction(1)]
    for k in range(1, d + 1):
        mn = [[sum(m[i][t] * n[t][j] for t in range(d)) for j in range(d)]
              for i in range(d)]
        c = -sum(mn[i][i] for i in range(d)) / k
        cs.append(c)
        n = [[mn[i][j] + (c if i == j else 0) for j in range(d)] for i in range(d)]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in reversed(cs)]
    g = math.gcd(*ints)
    return IntPoly(*(c // g for c in ints))


def reference_inverse(a: FieldElement, f: IntPoly) -> FieldElement:
    """Extended Euclid over Q[x] on dense Fraction coefficient lists.

    The oracle shares nothing with charpoly: it runs the remainder sequence
    of (f, a.num), keeping the Bezout coefficient of a.num, and scales it
    by the final constant remainder.
    """
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def sub(p, q):
        out = [Fraction(0)] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] -= c
        return trim(out)

    def mul(p, q):
        out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
        for i, c in enumerate(p):
            for j, e in enumerate(q):
                out[i + j] += c * e
        return trim(out)

    def divmod_(p, q):
        p = p[:]
        quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
        while len(p) >= len(q):
            c = p[-1] / q[-1]
            k = len(p) - len(q)
            quot[k] = c
            for j, e in enumerate(q):
                p[k + j] -= c * e
            p.pop()  # leading term cancelled exactly
            trim(p)
        return trim(quot), p

    r0 = [Fraction(c) for c in f.coeffs]
    r1 = [Fraction(c) for c in a.num.coeffs]
    s0, s1 = [], [Fraction(1)]
    while True:
        q, r = divmod_(r0, r1)
        if not r:
            break
        s0, s1 = s1, sub(s0, mul(q, s1))
        r0, r1 = r1, r
    assert len(r1) == 1, "element not invertible modulo f"
    inv = [c / r1[0] for c in s1]
    den = math.lcm(*(c.denominator for c in inv))
    num = IntPoly(*(int(c * den) for c in inv))
    return FieldElement(num * a.den, den)


class TestFieldElement:
    def test_normalization(self):
        a = FieldElement(IntPoly(2, 4), 6)
        assert a.num == IntPoly(1, 2) and a.den == 3
        b = FieldElement(IntPoly(1), -2)
        assert b.num == IntPoly(-1) and b.den == 2

    def test_reduction_modulo_f(self):
        f = get_case("10-271").f
        # x^4 = x^3 - x^2 + x - 2 in this field
        x2 = FieldElement(IntPoly(0, 0, 1))
        assert nf_mul(x2, x2, f).num == IntPoly(-2, 1, -1, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FieldElement(IntPoly(1), 0)

    def test_inverse_roundtrip(self):
        rng = random.Random(404)
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            for _ in range(25):
                a = random_element(rng, f.degree())
                assert nf_mul(a, nf_inverse(a, f), f) == FieldElement(1)

    def test_inverse_of_zero_rejected(self):
        f = get_case("10-271").f
        with pytest.raises(ZeroDivisionError):
            nf_inverse(FieldElement(0), f)

    def test_inverse_matches_reference(self):
        rng = random.Random(8117)
        for cid in list_case_ids():
            cfg = get_case(cid)
            f, d = cfg.f, cfg.d
            eta1, eta2, _ = case_etas(cfg)
            generators = [*cfg.units, *cfg.gammas, *cfg.deltas]
            elements = generators + [nf_pow(g, d, f) for g in generators]
            elements += eta1 + eta2
            while len(elements) < 60:
                a = random_element(rng, d, span=9)
                if a.den > 1:
                    elements.append(a)
            for a in elements:
                assert nf_inverse(a, f) == reference_inverse(a, f)

    def test_zero_divisor_rejected(self):
        # over the reducible f = x^2 - 1, x - 1 divides zero
        f = IntPoly(-1, 0, 1)
        with pytest.raises(ValueError, match="not invertible"):
            nf_inverse(FieldElement(IntPoly(-1, 1)), f)

    def test_pow_negative_exponent(self):
        f = get_case("10-271").f
        a = FieldElement(IntPoly(1, 1))
        assert nf_mul(nf_pow(a, -3, f), nf_pow(a, 3, f), f) == FieldElement(1)


class TestNorm:
    def test_multiplicative_on_random_elements(self):
        # exact identity N(ab) = N(a) N(b), checked on 120 random pairs
        rng = random.Random(5501)
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            for _ in range(60):
                a = random_element(rng, f.degree())
                b = random_element(rng, f.degree())
                assert nf_norm(nf_mul(a, b, f), f) == nf_norm(a, f) * nf_norm(b, f)

    def test_rational_scalars(self):
        f = get_case("15-41").f
        assert nf_norm(FieldElement(3), f) == 3**8
        assert nf_norm(FieldElement(IntPoly(1), 2), f) == Fraction(1, 256)
        assert nf_norm(FieldElement(0), f) == 0

    def test_agrees_with_embedding_product(self, chains):
        # |N(a)| = prod over conjugate pairs of |a|^2; the certified
        # enclosures must contain the exact rational norm
        rng = random.Random(5739)
        for ch in chains.values():
            half = ch.cfg.d // 2
            for _ in range(55):
                a = random_element(rng, ch.cfg.d, span=3)
                box = ch.conj.embed_abs(a, 0) ** 2
                for i in range(1, half):
                    box = box * ch.conj.embed_abs(a, i) ** 2
                norm = nf_norm(a, ch.cfg.f)
                assert norm > 0
                assert box.lo <= norm <= box.hi

    def test_norms_of_case_generators(self, chains):
        for ch in chains.values():
            cfg = ch.cfg
            for u in cfg.units:
                assert abs(nf_norm(u, cfg.f)) == 1
            for g in cfg.gammas:
                assert abs(nf_norm(g, cfg.f)) == cfg.p
            for dd in cfg.deltas:
                assert abs(nf_norm(dd, cfg.f)) == 2


class TestCharpoly:
    def test_generator_recovers_defining_polynomial(self):
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            assert charpoly(FieldElement(IntPoly(0, 1)), f) == f

    def test_rational_element(self):
        f = get_case("10-271").f
        assert charpoly(FieldElement(3), f) == power(IntPoly(-3, 1), 4)

    def test_cayley_hamilton(self):
        rng = random.Random(6607)
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            for _ in range(10):
                a = random_element(rng, f.degree())
                cp = charpoly(a, f)
                terms, power = [], FieldElement(1)
                for c in cp.coeffs:
                    terms.append(nf_mul(FieldElement(c), power, f))
                    power = nf_mul(power, a, f)
                den = math.lcm(*(t.den for t in terms))
                assert sum((t.num * (den // t.den) for t in terms), IntPoly(0)).is_zero()

    def test_matches_reference_on_case_elements(self):
        rng = random.Random(7013)
        for cid in list_case_ids():
            cfg = get_case(cid)
            eta1, eta2, _ = case_etas(cfg)  # the third part is cfg.units
            elements = [*cfg.units, *cfg.gammas, *cfg.deltas, *eta1, *eta2]
            while len(elements) < 30:
                a = random_element(rng, cfg.d, span=9)
                if a.den > 1:
                    elements.append(a)
            for a in elements:
                assert charpoly(a, cfg.f) == reference_charpoly(a, cfg.f)

    def test_non_monic_f_rejected(self):
        # as in nf_norm: the power sums of a non-monic f are not integers
        with pytest.raises(ValueError, match="monic"):
            charpoly(FieldElement(IntPoly(0, 1)), IntPoly(2, -1, 1, -1, 2))

    def test_constant_term_is_norm_for_integral_elements(self):
        # the norm of an integral element is Res(f, num), here the Sylvester
        # determinant; even degree makes the sign drop out
        rng = random.Random(6881)
        for cid in ("15-41", "10-271"):
            f = get_case(cid).f
            for _ in range(20):
                a = FieldElement(IntPoly(*[rng.randint(-4, 4) for _ in range(f.degree())]))
                if a.is_zero():
                    continue
                assert charpoly(a, f)[0] == sylvester_det(f, a.num)


class TestIsPrime:
    def test_verify_refuses_pseudoprime_p(self):
        for p in (PSP_37, PSP_41):
            cfg = get_case("10-271")._replace(p=p)
            failed = {c.name for c in verify_case_data(cfg).checks if not c.ok}
            assert "p is an odd prime" in failed


class TestCaseData:
    def test_builtin_ids(self):
        assert list_case_ids() == ["15-41", "15-5581", "10-271"]
        with pytest.raises(KeyError):
            get_case("15-7")

    def test_defining_polynomials(self):
        assert get_case("15-41").f == cyclotomic(15) + IntPoly(1)
        assert get_case("15-5581").f == cyclotomic(15) + IntPoly(1)
        assert get_case("10-271").f == cyclotomic(10) + IntPoly(1)

    def test_degree_follows_f(self):
        # d is read from f, so a copy with another f has that f's degree
        cfg = get_case("10-271")
        assert cfg.d == 4
        assert cfg._replace(f=IntPoly(1, 0, 1)).d == 2
        assert cfg._replace(f=cyclotomic(15) + IntPoly(1)).d == 8

    def test_verification_passes_for_all_builtins(self):
        for cid in list_case_ids():
            report = verify_case_data(get_case(cid))
            assert report.passed, [c for c in report.checks if not c.ok]
            assert all(c.ok for c in report.checks)
            assert len(report.trusted) == 1

    def test_builtin_primes_have_their_own_generators(self):
        # (p, alpha - r) <-> gamma and (2, alpha - r) <-> delta, one to one
        want = {
            "15-41": "root 8: gamma 1",
            "15-5581": "root 257: gamma 2; root 4477: gamma 1",
            "10-271": "root 241: gamma 1",
        }
        for cid, detail in want.items():
            checks = {c.name: c for c in verify_case_data(get_case(cid)).checks}
            p_side = checks["each root of f mod p has its own norm-p gamma"]
            two_side = checks["each root of f mod 2 has its own delta"]
            assert (p_side.ok, p_side.detail) == (True, detail)
            assert (two_side.ok, two_side.detail) == (True, "root 0: delta 1; root 1: delta 2")

    def test_generator_of_a_higher_degree_prime_fails_verification(self):
        # 15-41's former second gamma generates the prime of norm 41^7 (f
        # mod 41 is a linear factor times an irreducible septic): it has no
        # root mod 41, so it is neither a norm-p gamma nor root-matched, and
        # the proof stops at verification
        extra = FieldElement(IntPoly(1, 15, 7, -14, 8, -19, 13, -4))
        cfg = get_case("15-41")
        cfg = cfg._replace(gammas=cfg.gammas + (extra,))
        assert abs(nf_norm(extra, cfg.f)) == 41 ** 7
        report = verify_case_data(cfg)
        failed = {c.name: c.detail for c in report.checks if not c.ok}
        assert failed == {
            "gamma 2 has norm +-p": f"N({extra}) = {41 ** 7}",
            "each root of f mod p has its own norm-p gamma": "root 8: gamma 1; gamma 2: no root",
        }
        solved = solve_case(cfg)
        assert (solved.verdict, solved.reason) == ("inconclusive", "case data failed verification")

    def test_root_match_needs_one_generator_per_root(self):
        # x^2 + 1 mod 5 has the roots 2 and 3; a - 2 and a + 2 vanish at one
        # each, and 1 + a (norm 2) at neither
        f = IntPoly(1, 0, 1)
        at_2, at_3, nowhere = (FieldElement(IntPoly(*c)) for c in ([-2, 1], [2, 1], [1, 1]))
        assert _root_match(f, 5, {"g1": at_2, "g2": at_3}) == (True, "root 2: g1; root 3: g2")
        assert _root_match(f, 5, {"g1": at_2, "g2": at_3, "g3": nowhere}) == (
            False, "root 2: g1; root 3: g2; g3: no root")
        assert _root_match(f, 5, {"g1": at_2, "g2": nowhere}) == (
            False, "root 2: g1; root 3: none; g2: no root")
        assert _root_match(f, 5, {"g1": at_2, "g2": FieldElement(IntPoly(3, 1))}) == (
            False, "root 2: g1, g2; root 3: none")

    def test_verification_report_shape(self):
        report = verify_case_data(get_case("15-41"))
        names = [c.name for c in report.checks]
        assert names[0] == "defining polynomial"
        assert "decomposition of 2 multiplies out" in names
        assert any(n.startswith("growth envelope") for n in names)
        d = report.to_dict()
        assert d["passed"] is True and d["case_id"] == "15-41"

    def test_roundtrip_through_json(self, tmp_path):
        for cid in list_case_ids():
            cfg = get_case(cid)
            path = tmp_path / f"{cid}.json"
            path.write_text(json.dumps(case_to_dict(cfg)))
            loaded = load_case_config(str(path))
            assert loaded == cfg
            assert verify_case_data(loaded).passed

    def test_missing_field_rejected(self, tmp_path):
        raw = case_to_dict(get_case("10-271"))
        del raw["deltas"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="deltas"):
            load_case_config(str(path))

    def test_conjugate_choice_keys_name_every_norm_p_gamma(self, tmp_path):
        # one key per gamma, 0..k-1, or the loader refuses
        for choice in ({}, {"1": [2]}, {"0": [2], "1": [1]}):
            raw = case_to_dict(get_case("10-271"))
            raw["default_conjugate_choice"] = choice
            path = tmp_path / "choice.json"
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match="default_conjugate_choice"):
                load_case_config(str(path))

    def test_tampered_sign_fails_verification(self):
        raw = case_to_dict(get_case("15-41"))
        raw["two_decomposition"]["sign"] = -raw["two_decomposition"]["sign"]
        report = verify_case_data(_config_from_dict("15-41", raw))
        assert not report.passed
        bad = {c.name for c in report.checks if not c.ok}
        assert bad == {"decomposition of 2 multiplies out"}

    def test_tampered_unit_fails_verification(self):
        raw = case_to_dict(get_case("10-271"))
        raw["units"][0] = [0, 3]
        report = verify_case_data(_config_from_dict("10-271", raw))
        assert any(
            c.name == "unit 1 has norm +-1" and not c.ok for c in report.checks
        )

    def test_unproved_p_rejected_at_load(self, tmp_path):
        for p in (9, PSP_37):
            raw = case_to_dict(get_case("10-271"))
            raw["p"] = p
            path = tmp_path / "composite.json"
            path.write_text(json.dumps(raw))
            with pytest.raises(ValueError, match=f"p = {p} is not a proven prime"):
                load_case_config(str(path))

    def test_missing_case_id_rejected(self, tmp_path):
        raw = case_to_dict(get_case("10-271"))
        del raw["case_id"]
        path = tmp_path / "anonymous.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="case_id"):
            load_case_config(str(path))


class TestEnvelope:
    def test_case_polynomials_certify(self):
        for cid in list_case_ids():
            assert _envelope_certificate(get_case(cid).f)

    def test_positive_control(self):
        assert _envelope_certificate(IntPoly(1, 0, 1))  # x^2 + 1

    def test_negative_control(self):
        # x^2 - 9 vanishes at x = 3, inside the claimed envelope
        assert not _envelope_certificate(IntPoly(-9, 0, 1))

    def test_matches_intpoly_composition(self):
        rng = random.Random(2802)
        certified = 0
        for _ in range(3000):
            d = rng.randint(1, 9)
            span = rng.choice((1, 1, 2, 3 ** d))
            f = IntPoly(*[rng.randint(-span, span) for _ in range(d)], 1)
            got = _envelope_certificate(f)
            assert got == composed_envelope(f), f
            certified += got
        assert 300 <= certified <= 2700, certified


def composed_envelope(f: IntPoly) -> bool:
    """_envelope_certificate by IntPoly composition and powers, as it was
    computed before the Taylor shift."""
    d = f.degree()
    low_ref = power(IntPoly(1, 1), d)
    high_ref = power(IntPoly(3, 1), d)
    for shifted in (poly_eval(f, IntPoly(2, 1)), poly_eval(f, IntPoly(-2, -1))):
        for q in (shifted - low_ref, high_ref - shifted):
            if q[0] <= 0 or any(c < 0 for c in q.coeffs):
                return False
    return True


def signed_product(cfg) -> tuple[bool, str]:
    """(ok, detail) of the witness for 2 from the signed product, inverses
    and all, as verify_case_data formed it before the two-sided check."""
    prod = FieldElement(cfg.two_sign)
    for fa, e in cfg.two_factors:
        prod = nf_mul(prod, nf_pow(fa, e, cfg.f), cfg.f)
    return prod == FieldElement(2), f"product = {prod}"


def two_check(cfg):
    return next(c for c in verify_case_data(cfg).checks
                if c.name == "decomposition of 2 multiplies out")


class TestTwoWitness:
    def test_builtin_witnesses_print_product_2(self):
        for cid in list_case_ids():
            check = two_check(get_case(cid))
            assert (check.ok, check.detail) == (True, "product = 2") == signed_product(get_case(cid))

    def test_seeded_edits_fail_with_the_signed_product(self):
        # one exponent changed, one factor dropped, the sign flipped
        rng = random.Random(2803)
        for cid in list_case_ids():
            cfg = get_case(cid)
            factors = list(cfg.two_factors)
            for _ in range(4):
                i = rng.randrange(len(factors))
                fa, e = factors[i]
                changed = (fa, e + rng.choice((-2, -1, 1, 2)))
                for edited in (
                    cfg._replace(two_factors=tuple(factors[:i] + [changed] + factors[i + 1:])),
                    cfg._replace(two_factors=tuple(factors[:i] + factors[i + 1:])),
                    cfg._replace(two_sign=-cfg.two_sign),
                ):
                    check = two_check(edited)
                    assert not check.ok
                    assert (check.ok, check.detail) == signed_product(edited)

    def test_factor_without_inverse_is_refused(self):
        # in Q[x]/((x^2+1)^2), x^2 + 1 has norm 0 and no inverse, so
        # 2 * (x^2+1) * (x^2+1)^-1 is no product at all, though both sides
        # of 2 * (x^2+1) = 2 * (x^2+1) agree
        zero_divisor = FieldElement(IntPoly(1, 0, 1))
        cfg = get_case("10-271")._replace(
            f=IntPoly(1, 0, 2, 0, 1), two_sign=2,
            two_factors=((zero_divisor, 1), (zero_divisor, -1)),
        )
        with pytest.raises(ValueError, match="not invertible"):
            signed_product(cfg)
        with pytest.raises(ValueError, match="not invertible"):
            verify_case_data(cfg)
