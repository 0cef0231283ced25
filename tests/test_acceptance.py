"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion re-checks a stage of the proof chain against its pinned
reference values at the stated tolerance.  Reference values are written
as exact decimal strings; "sig" tolerances mean within one unit in the
last counted significant digit, "pct" tolerances are relative.
"""

import hashlib
import random
from fractions import Fraction

from cyclobound.numberfield import get_case, nf_mul, nf_norm, verify_case_data
from cyclobound.padic import scan_case
from cyclobound.pipeline import SEARCH_FLOOR, direct_search, solve_case
from cyclobound.polyarith import IntPoly, discriminant, poly_eval
from cyclobound.reduction import distance_lower_bound, lll_reduce, verify_lll_reduced

import test_numberfield
import test_padic
import test_realalg
import test_reduction


def finish(label: str, failures: list):
    print(f"[{'FAIL' if failures else 'PASS'}] {label}")
    assert not failures, "; ".join(str(f) for f in failures)


def check(failures: list, ok: bool, what: str):
    if not ok:
        failures.append(what)


def within_sig(x, pin: str, sig: int) -> bool:
    pin = Fraction(pin)
    unit = Fraction(10) ** (test_realalg.reference_dec_exp(abs(pin)) - sig)
    return abs(Fraction(x) - pin) <= unit


def within_pct(x, pin: str, pct: int) -> bool:
    pin = Fraction(pin)
    return abs(Fraction(x) - pin) <= abs(pin) * Fraction(pct, 100)


def test_criterion_1_exact_field_data_and_regulators(chains):
    failures = []
    check(failures, discriminant(get_case("15-41").f) == 682862912, "disc m=15")
    check(failures, discriminant(get_case("10-271").f) == 1396, "disc m=10")
    for cid, ch in chains.items():
        cfg = ch.cfg
        for i, g in enumerate(cfg.gammas):
            got = abs(nf_norm(g, cfg.f))
            check(failures, got == cfg.p, f"{cid} gamma {i} norm")
        rep = verify_case_data(cfg)
        two = [c for c in rep.checks if c.name == "decomposition of 2 multiplies out"]
        check(failures, len(two) == 1 and two[0].ok, f"{cid} decomposition of 2")
    check(failures, within_sig(chains["15-41"].constants.regulator, "4.2219", 4),
          "regulator m=15")
    check(failures, within_sig(chains["10-271"].constants.regulator, "1.1840", 4),
          "regulator m=10")
    finish("criterion 1: exact field data; regulators to 4 significant digits",
           failures)


def test_criterion_2_digit_prefixes_and_scan_bounds(chains):
    failures = []
    (r41,) = chains["15-41"].roots
    a, b = chains["15-5581"].roots
    (r271,) = chains["10-271"].roots
    check(failures, r41.digits[:27] == test_padic.PREFIX_41, "prefix 15-41")
    check(failures, a.digits[:23] == test_padic.PREFIX_5581_A, "prefix 15-5581 a")
    check(failures, b.digits[:21] == test_padic.PREFIX_5581_B, "prefix 15-5581 b")
    check(failures, r271.digits[:25] == test_padic.PREFIX_271, "prefix 10-271")
    for cid, depth, bound in (("15-41", 60, 415), ("15-5581", 502, 4015),
                              ("10-271", 70, 239)):
        ch = chains[cid]
        check(failures, ch.cfg.default_scan_depth == depth, f"{cid} depth")
        check(failures, ch.n_lower == bound, f"{cid} lower bound")
    finish("criterion 2: digit prefixes exact; lower bounds 415/4015/239",
           failures)


def test_criterion_3_constant_chain_tables(chains):
    failures = []
    tables = {
        "15-41": {
            "c": ("1.090", "9.490", "8.706", "1.091", "1.213", "1.392",
                  "2.369", "2.718"),
            "deriv": ("16.40", "56.37", "109.6", "126.7", "90.07", "39.00",
                      "9.489"),
            "delta_range": ("0.2714", "2.124"),
            "gamma_range": ("0.5676", "5.349"),
            "a": ("25.02", "47.80", "4.371", "4.247", "2.976"),
        },
        "15-5581": {
            "c": ("1.090", "9.490", "8.706", "1.091", "0.6584", "1.392",
                  "1.286", "2.718"),
            "deriv": ("16.40", "56.37", "109.6", "126.7", "90.07", "39.00",
                      "9.489"),
            "delta_range": ("0.2714", "2.124"),
            "gamma_range": ("1.522", "5.531"),
            "a": ("25.02", "74.22", "4.371", "4.247", "2.976"),
        },
        "10-271": {
            "c": ("1.189", "5.022", "4.223", "1.190", "0.5884", "0.4126",
                  "0.4970", "0.3485"),
            "deriv": ("6.977", "9.261", "5.021"),
            "delta_range": ("0.7877", "1.796"),
            "gamma_range": ("2.253", "7.307"),
            "a": ("3.988", "21.52", "2.634"),
        },
    }
    for cid, want in tables.items():
        cc = chains[cid].constants
        got_c = (cc.c1, cc.c2, cc.c3, cc.c4, cc.c5, cc.c6, cc.c7, cc.c8)
        for k, (g, w) in enumerate(zip(got_c, want["c"]), 1):
            check(failures, within_sig(g, w, 4), f"{cid} c{k}: {g} vs {w}")
        for k, (g, w) in enumerate(zip(cc.deriv_bounds, want["deriv"]), 1):
            check(failures, within_sig(g, w, 4), f"{cid} derivative {k}")
        for g, w in zip(cc.delta_abs_range, want["delta_range"]):
            check(failures, within_sig(g, w, 4), f"{cid} delta range {w}")
        for g, w in zip(cc.gamma_abs_range, want["gamma_range"]):
            check(failures, within_sig(g, w, 4), f"{cid} gamma range {w}")
        for k, (g, w) in enumerate(zip(cc.a_values, want["a"]), 1):
            check(failures, within_sig(g, w, 4), f"{cid} height bound {k}")
    for cid in ("15-41", "15-5581"):
        check(failures, within_pct(chains[cid].constants.unit_minor_bound, "2.746", 1),
              f"{cid} unit minor bound")
    finish("criterion 3: rounded constant tables to 4 significant digits;"
           " unit minor bound within 1 percent", failures)


def test_criterion_4_linear_form_coefficient_and_absolute_bound(chains):
    failures = []
    c9_pins = {"15-41": "1.465e25", "15-5581": "2.275e25", "10-271": "1.160e18"}
    n_pins = {"15-41": "2.163e27", "15-5581": "1.424e27", "10-271": "3.970e19"}
    for cid, ch in chains.items():
        check(failures, within_sig(ch.c9, c9_pins[cid], 4), f"{cid} c9")
        check(failures, within_pct(ch.abs_bound, n_pins[cid], 1), f"{cid} bound")
    finish("criterion 4: c9 to 4 significant digits; absolute bound within"
           " 1 percent", failures)


def test_criterion_5_degree_eight_reduction(chains, reductions):
    failures = []

    def attempt(cid, key):
        return {
            (a.gamma_index, a.delta_index): a
            for a in reductions[cid].rounds[0].attempts
        }[key]

    pins = (
        ("15-41", (0, 0), "1.148e30", "0.2505", "1.017e29", "0.0650"),
        ("15-41", (0, 1), "1.148e30", "0.0809", "3.286e28", "0.0125"),
        ("15-5581", (0, 0), "1.123e30", "0.4489", "1.784e29", "0.1119"),
        ("15-5581", (0, 1), "1.123e30", "0.3512", "1.395e29", "0.0867"),
        ("15-5581", (1, 0), "6.875e29", "0.3849", "9.357e28", "0.0568"),
        ("15-5581", (1, 1), "6.875e29", "0.4225", "1.027e29", "0.0628"),
    )
    for cid, key, c1_pin, s_pin, dist_pin, c_pin in pins:
        att = attempt(cid, key)
        tag = f"{cid} branch {key}"
        check(failures, att.ok, f"{tag} certified")
        c1_len = Fraction(float(att.c1_norm_sq) ** 0.5)
        dist = Fraction(float(att.distance_sq) ** 0.5)
        check(failures, within_sig(c1_len, c1_pin, 3), f"{tag} first vector")
        check(failures, within_sig(att.s_fractional, s_pin, 3), f"{tag} fraction")
        check(failures, within_sig(dist, dist_pin, 3), f"{tag} distance")
        check(failures, within_pct(att.c_lower, c_pin, 10), f"{tag} c")
    check(failures, reductions["15-41"].final_bound == 59, "final bound 15-41")
    check(failures, reductions["15-5581"].final_bound == 23, "final bound 15-5581")
    finish("criterion 5: degree-8 lattice branches to 3 significant digits,"
           " c within 10 percent, final bounds 59 and 23", failures)


def test_criterion_6_degree_four_reduction_certifies(reductions):
    # the corrected rounding-slack constant makes the published branch
    # values unreachable here, so this criterion is behavioural: every
    # branch must end certified, escalating the scale where needed
    failures = []
    report = reductions["10-271"]
    check(failures, report.ok, "reduction certified")
    attempts = report.rounds[0].attempts
    rescued = [a for a in attempts if a.ok and a.delta_index == 0]
    check(failures, len(rescued) == 1, "exactly one rescue for the hard branch")
    if rescued:
        check(failures, rescued[0].K > 10**41, "rescue used an escalated scale")
        check(failures, rescued[0].c_lower > 0, "certified c is positive")
    check(failures, report.final_bound <= 60, "final bound at most 60")
    check(failures, report.final_bound < 239, "final bound below the scan floor")
    finish("criterion 6: degree-4 reduction certifies a positive c at an"
           " escalated scale; final bound 38 <= 60", failures)


def test_criterion_7_all_cases_conclude_no_solutions():
    failures = []
    for cid in ("15-41", "15-5581", "10-271"):
        rep = solve_case(cid)
        check(failures, rep.verdict == "no_solutions", f"{cid} verdict")
        check(failures, rep.reduced_bound < rep.n_lower, f"{cid} gap closed")
        check(failures, rep.search_max >= SEARCH_FLOOR, f"{cid} search depth")
        check(failures, rep.solutions == [], f"{cid} search empty")
        cfg = get_case(cid)
        check(failures, direct_search(cfg.f, cfg.p, 500) == [],
              f"{cid} direct search to 500")
    finish("criterion 7: all three cases conclude no_solutions with the"
           " exponent range emptied", failures)


def test_criterion_8_property_suites():
    failures = []
    rng = random.Random(90001)

    # Hensel consistency at every level
    for cid in ("15-41", "15-5581", "10-271"):
        cfg = get_case(cid)
        for root in scan_case(cfg, 20):
            value = root.value()
            for j in range(1, root.depth + 1):
                if poly_eval(cfg.f, value % cfg.p**j) % cfg.p**j != 0:
                    failures.append(f"{cid} inconsistent at level {j}")
                    break

    # LLL postconditions, re-verified from scratch
    lll_checked = 0
    for trial in range(100):
        n = 2 + trial % 3
        cols = test_reduction.random_columns(rng, n)
        reduced, transform = lll_reduce(cols)
        problems = verify_lll_reduced(cols, reduced, transform)
        if problems:
            failures.append(f"LLL violation on trial {trial}: {problems}")
        lll_checked += 1
    check(failures, lll_checked >= 100, "LLL sample size")

    # distance lemma against exact closest-point enumeration
    cvp_checked = 0
    while cvp_checked < 100:
        n = 2 + cvp_checked % 2
        cols = test_reduction.random_columns(rng, n, span=12)
        reduced, _ = lll_reduce(cols)
        y = [rng.randint(-40, 40) for _ in range(n)]
        got = distance_lower_bound(reduced, y)
        if got is None:
            continue
        bound_sq, _ = got
        true_sq = test_reduction.exact_min_distance_sq(reduced, y)
        if bound_sq > true_sq:
            failures.append(f"distance lemma violation on sample {cvp_checked}")
        cvp_checked += 1

    # norm multiplicativity and agreement with the embedding product
    from cyclobound.realalg import ConjugateData

    norm_checked = 0
    for cid in ("15-41", "10-271"):
        cfg = get_case(cid)
        conj = ConjugateData(cfg)
        half = cfg.d // 2
        for _ in range(55):
            a = test_numberfield.random_element(rng, cfg.d, span=3)
            b = test_numberfield.random_element(rng, cfg.d, span=3)
            if nf_norm(nf_mul(a, b, cfg.f), cfg.f) != nf_norm(a, cfg.f) * nf_norm(b, cfg.f):
                failures.append(f"{cid} norm not multiplicative")
            box = conj.embed_abs(a, 0) ** 2
            for i in range(1, half):
                box = box * conj.embed_abs(a, i) ** 2
            norm = nf_norm(a, cfg.f)
            if not (box.lo <= norm <= box.hi):
                failures.append(f"{cid} embedding product misses the norm")
            norm_checked += 1
    check(failures, norm_checked >= 100, "norm sample size")

    finish("criterion 8: Hensel, LLL, distance-lemma and norm property"
           " suites clean", failures)


# SHA-256 of repr(solve_case(cid).to_dict()) without its timings: every
# verdict, floor, bound, rounded constant and attempt value of the report
REPORT_DIGESTS = {
    "15-41": "f0e99ef999dc7f740d63118a6d0f614131acfab57052204d783e7ec712bc42a9",
    "15-5581": "0a4146e927b3f000ff17bf089d42d4535b53d2747c3532de27c5dc7a5eed8dac",
    "10-271": "0860fff4f9fbc42c471b83b3e00a6bf9a4e4c2fa0e1d2093360bf97413234461",
}


def test_criterion_9_reports_reproduce_bit_for_bit():
    failures = []
    for cid, pin in REPORT_DIGESTS.items():
        report = solve_case(cid).to_dict()
        del report["timings"]
        got = hashlib.sha256(repr(report).encode()).hexdigest()
        check(failures, got == pin, f"{cid} report digest {got}")
    finish("criterion 9: every solve report reproduces bit for bit", failures)


# SHA-256 of repr(solve_case(cid, scale=K).to_dict()) without its timings
# and its verification block, at the default K (None) and at every K of
# test_reduction.ESCALATE_GRID_DIGESTS: the proof alone, so a change to the
# data checks moves REPORT_DIGESTS and ESCALATE_GRID_DIGESTS but not these
PROOF_DIGESTS = {
    ("15-41", None): "bea593f71279e6d5e6a95609b7f2dbd12f333bea6fc872b60938503a5a4b1e05",
    ("15-41", 3162 * 10**31): "d75e1ad127137f035d03efbd924fea3cdc894e8219ab567dbc50b9a9e839826c",
    ("15-41", 5623 * 10**31): "7fd335e9c6cf6fe4afb71a040d0911b22090592aa290c22e2dbd68aeaf736cf0",
    ("15-41", 10**35): "ec352763ac4d552bcfbd2473c181eac500594920ff7d68ba1cf5685cc194d4b2",
    ("15-41", 1778 * 10**32): "b7d5e9e36d1a7bf09bdc86b86d9952c659931cc7646c16b649bdc8d0956ba053",
    ("15-5581", None): "444afec599fa740e245444c23a59a342cc6c07d2771e815119f619091cba282b",
    ("15-5581", 3162 * 10**31): "49491ba62633c5c684df484c2b0e030aba89cb8d6905b7b25642d1570f0dfac2",
    ("15-5581", 5623 * 10**31): "cd87333bd89c85f49d29d03f9fc2bdf4bc55ff847efb849c58e3e8bed82e750a",
    ("15-5581", 10**35): "ebc1eb849d1e958da99f69c5bae7fca8c56292876a5f1ad14ebd4f411c15879d",
    ("10-271", None): "4daab330e8c1e01e18d539587475df266f30dd5030d7a208b43e193a3c5613a3",
    ("10-271", 10**36): "2a6909e42f81b77a20a20e7ee1a917b257b8f86067f608b2302fdb7e5efc6172",
    ("10-271", 1778 * 10**33): "e3a5ff4477df6281c562bc03073c1b625ecf898bee08fd965685a715806f7d22",
    ("10-271", 3162 * 10**33): "021a51b468fd1ef4c3498a9ea0835134157dad5b89b4714d4f6a1b06fab3916a",
    ("10-271", 5623 * 10**33): "899b9226bad71e0910371c221a5a3605e993514818d15296c891f58a960ddc11",
    ("10-271", 10**37): "e6fe29ddd13ffe8efb0b5bd736e26609f4096b77d5bc545a4543612eb940274c",
}


def test_proofs_reproduce_without_the_verification_block():
    failures = []
    for (cid, K), pin in PROOF_DIGESTS.items():
        report = solve_case(cid, scale=K).to_dict()
        del report["timings"], report["verification"]
        got = hashlib.sha256(repr(report).encode()).hexdigest()
        check(failures, got == pin, f"{cid} at K = {K}: proof digest {got}")
    grids = test_reduction.ESCALATE_GRID_DIGESTS
    assert set(PROOF_DIGESTS) == {(cid, K) for cid, (grid, _) in grids.items() for K in (None, *grid)}
    finish("every proof reproduces bit for bit outside the verification block", failures)
