"""End-to-end solve runs, the direct search, and the command line."""

import copy
import importlib.util
import json
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cyclobound
from cyclobound import matveev, numberfield, padic, pipeline, polyarith
from cyclobound.cli import main
from cyclobound.matveev import absolute_bound, matveev_c9
from cyclobound.realalg import ConjugateData
from cyclobound.numberfield import (
    _config_from_dict, case_to_dict, get_case, nf_inverse, nf_pow, verify_case_data,
)
from cyclobound.pipeline import (
    SEARCH_FLOOR,
    direct_search,
    emit_report,
    solve_case,
)
from cyclobound.polyarith import IntPoly, charpoly_mod, iroot, poly_eval, roots_mod_p


def brute_force_search(f, p, n_max, x_span=2000):
    out = []
    for n in range(1, n_max + 1):
        target = 2 * p**n
        for x in range(-x_span, x_span + 1):
            if poly_eval(f, x) == target:
                out.append((n, x))
    return sorted(out)


def reference_iroot(t, d):
    """Floor of the d-th root by Newton's iteration alone, for every d."""
    if t == 0:
        return 0
    x = 1 << -(-t.bit_length() // d)
    while True:
        y = ((d - 1) * x + t // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    while x**d > t:
        x -= 1
    while (x + 1) ** d <= t:
        x += 1
    return x


def seeded_primes(count, rng):
    """Primes below 20,000, drawn from rng."""
    out = []
    while len(out) < count:
        p = rng.randrange(100, 20_000)
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            out.append(p)
    return out


def reference_direct_search(f, p, n_max):
    """The sweep without any sieve: every candidate of every exponent in full."""
    d = f.degree()
    out = []
    for n in range(1, n_max + 1):
        target = 2 * p**n
        x0 = reference_iroot(target, d)
        candidates = {-2, -1, 0, 1, 2}
        for base in (x0 - 1, x0, x0 + 1):
            candidates.update((base, -base))
        out += [(n, x) for x in candidates if poly_eval(f, x) == target]
    return sorted(out)


class TestIRoot:
    def test_exact_powers(self):
        assert iroot(27, 3) == 3
        assert iroot(26, 3) == 2
        assert iroot(28, 3) == 3
        assert iroot(0, 5) == 0
        assert iroot(1, 7) == 1

    def test_floor_property_on_random_inputs(self):
        import random

        rng = random.Random(41011)
        for _ in range(200):
            d = rng.randint(2, 9)
            t = rng.randint(0, 10**30)
            r = iroot(t, d)
            assert r**d <= t < (r + 1) ** d

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            iroot(16, 0)

    def test_matches_reference(self):
        # radicands up to 20,000 bits for every index 1..16, with the exact
        # powers r^d and their neighbours, where a floor is easiest to miss
        rng = random.Random(50521)
        for d in range(1, 17):
            for bits in (1, 7, 64, 700, rng.randint(2, 20_000)):
                t = rng.getrandbits(bits)
                r = rng.getrandbits(max(bits // d, 1)) + 1
                for u in (t, r**d - 1, r**d, r**d + 1):
                    assert iroot(u, d) == reference_iroot(u, d), (u, d)


def reference_sieve(f, p, n_max):
    """pipeline._sieve as it stood on a bytearray: one period of 2*p^n mod
    q per q, each excluded class of n cleared by a slice assignment."""
    alive = bytearray([0]) + bytearray([1]) * n_max
    for q in pipeline.SIEVE_PRIMES:
        if p % q == 0:
            continue
        values = {poly_eval(f, x) % q for x in range(q)}
        residues, u = [], 1
        while not residues or u != 1:
            u = u * p % q
            residues.append(2 * u % q)
        step = len(residues)
        for n, t in enumerate(residues, 1):
            if t not in values:
                alive[n::step] = bytes(len(alive[n::step]))
    return [n for n in range(1, n_max + 1) if alive[n]]


def screen_items(seeds):
    """(m, p, n_max) of every item of the `screen` benchmark's first pass
    at each seed, as perfbench/workloads.py deals them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(item["m"], item["p"], item["n_max"]) for seed in seeds
            for job in workloads.pass_inputs("screen", seed, 0) for item in job["items"]]


class TestSieve:
    def test_matches_reference_on_seeded_inputs(self):
        # both fields and a toy, every p below 400 (those sharing a factor
        # with a sieve prime included) and seeded p up to 10^6, at n_max
        # from below 1 to past a period of every q
        rng = random.Random(7101)
        fields = {10: get_case("10-271").f, 15: get_case("15-41").f}
        for f in (*fields.values(), IntPoly(2, 1, 1)):
            for p in [*range(-3, 400), *(rng.randrange(2, 10**6) for _ in range(200))]:
                n_max = rng.choice((-2, 0, 1, 2, 7, 58, 60, 500, 1200))
                assert pipeline._sieve(f, p, n_max) == reference_sieve(f, p, n_max), (f, p, n_max)

    def test_matches_reference_on_screen_items(self):
        fields = {10: get_case("10-271").f, 15: get_case("15-41").f}
        items = screen_items(range(1, 4))
        assert len(items) == 3 * 12
        for m, p, n_max in items:
            assert pipeline._sieve(fields[m], p, n_max) == reference_sieve(fields[m], p, n_max)


class TestDirectSearch:
    def test_toy_case_with_solutions(self):
        # x^2 + x + 2 = 2*7^1 at x = 3 and x = -4
        toy = IntPoly(2, 1, 1)
        got = direct_search(toy, 7, 5)
        assert got == [(1, -4), (1, 3)]
        assert got == brute_force_search(toy, 7, 5)

    def test_toy_case_without_solutions(self):
        toy = IntPoly(2, -1, 1)
        assert direct_search(toy, 5, 6) == brute_force_search(toy, 5, 6)
        assert direct_search(toy, 5, 6) == []

    def test_builtin_cases_empty_to_floor(self):
        for cid in ("15-41", "15-5581", "10-271"):
            cfg = get_case(cid)
            assert direct_search(cfg.f, cfg.p, SEARCH_FLOOR) == []

    def test_matches_reference_where_solutions_exist(self):
        # (10, 3) and (10, 31) have the solutions (1, -1) and (1, 3); the
        # toy x^2 + 2 = 2*3^n has (1, +-2) at |x| <= 2, (2, +-4) and (5, +-22);
        # x^3 - x + 6 = 2*3^n (odd degree, Newton root) has (1, 0), (1, +-1);
        # x^2 + 2 = 2*9^n has (1, +-4), with the sieve prime 3 dividing p
        f10 = get_case("10-271").f
        for f, p, n_max in (
            (f10, 3, 200),
            (f10, 31, 200),
            (IntPoly(2, 0, 1), 3, 60),
            (IntPoly(6, -1, 0, 1), 3, 60),
            (IntPoly(2, 0, 1), 9, 40),
        ):
            expected = reference_direct_search(f, p, n_max)
            assert expected
            assert direct_search(f, p, n_max) == expected
        # and seeded primes below 20,000, where the sieve removes most exponents
        rng = random.Random(70001)
        for f in (f10, get_case("15-41").f):
            for p in seeded_primes(3, rng):
                assert direct_search(f, p, 300) == reference_direct_search(f, p, 300), p

    def test_candidate_filter_matches_reference_on_composite_p(self):
        # p | 2*p^n for composite p too, so the filter f(x) = 0 mod p is
        # exact there; x^2 + 2 = 2*3^n has its solutions (1, +-2) at
        # |x| <= 2, which skip the filter and are evaluated once per call
        f10, f15 = get_case("10-271").f, get_case("15-41").f
        toys = (IntPoly(2, 0, 1), IntPoly(6, -1, 0, 1), IntPoly(2, 1, 1))
        for p in (9, 15, 25):
            for f in (f10, f15, *toys):
                assert direct_search(f, p, 60) == reference_direct_search(f, p, 60), (f, p)
        got = direct_search(IntPoly(2, 0, 1), 3, 60)
        assert got == reference_direct_search(IntPoly(2, 0, 1), 3, 60)
        assert (1, -2) in got and (1, 2) in got

    def test_full_evaluation_only_past_the_filter(self, monkeypatch):
        # poly_eval never sees a candidate with |x| > 2 and f(x) != 0 mod p,
        # and sees each |x| <= 2 once per call
        seen = []
        real = pipeline.poly_eval

        def recording(f, x):
            seen.append(x)
            return real(f, x)

        monkeypatch.setattr(pipeline, "poly_eval", recording)
        rng = random.Random(80233)
        cases = [(get_case(cid).f, get_case(cid).p) for cid in ("15-41", "10-271")]
        cases += [(get_case("10-271").f, p) for p in (3, 31, 9, 15, *seeded_primes(4, rng))]
        cases += [(IntPoly(2, 0, 1), 3), (IntPoly(2, 0, 1), 25)]
        for f, p in cases:
            seen.clear()
            direct_search(f, p, 200)
            small = [x for x in seen if abs(x) <= 2]
            assert small in ([], [-2, -1, 0, 1, 2]), (f, p)
            for x in seen:
                assert abs(x) <= 2 or poly_eval(f, x) % p == 0, (f, p, x)

    def test_sieve_leaves_few_roots_to_take(self, monkeypatch):
        # every exponent up to SEARCH_FLOOR of 15-5581 fails a congruence,
        # so no root is taken; 15-41 keeps 2 exponents and 10-271 keeps 4
        calls = []

        def counting_iroot(t, d):
            calls.append(d)
            return iroot(t, d)

        monkeypatch.setattr(pipeline, "iroot", counting_iroot)
        for cid, expected in (("15-41", 2), ("15-5581", 0), ("10-271", 4)):
            cfg = get_case(cid)
            calls.clear()
            assert direct_search(cfg.f, cfg.p, SEARCH_FLOOR) == []
            assert len(calls) == expected, cid

    def test_matches_brute_force_on_builtin_prefix(self):
        cfg = get_case("10-271")
        assert direct_search(cfg.f, cfg.p, 3) == brute_force_search(
            cfg.f, cfg.p, 3
        )


class TestSolveCase:
    def test_all_cases_prove_no_solutions(self, chains):
        for cid, ch in chains.items():
            rep = solve_case(cid)
            assert rep.verdict == "no_solutions"
            assert rep.ok
            assert rep.verification is not None and rep.verification.passed
            assert rep.n_lower == ch.n_lower
            assert rep.abs_bound == ch.abs_bound
            assert rep.reduced_bound < rep.n_lower
            assert rep.search_max == SEARCH_FLOOR
            assert rep.solutions == []
            assert f"n >= {rep.n_lower}" in rep.reason
            assert list(rep.timings) == [
                "verify", "scan", "constants", "absolute_bound",
                "reduction", "search",
            ]

    def test_report_is_deterministic(self):
        first = solve_case("10-271").to_dict()
        second = solve_case("10-271").to_dict()
        del first["timings"], second["timings"]
        assert first == second

    def test_report_serializes(self):
        rep = solve_case("10-271")
        blob = json.dumps(rep.to_dict())
        parsed = json.loads(blob)
        assert parsed["verdict"] == "no_solutions"
        assert parsed["reduced_bound"] == 38
        assert parsed["constants"]["c7"] == 0.497
        text = emit_report(rep)
        assert "case 10-271: no_solutions" in text
        assert "reduced bound:    n <= 38" in text

    def test_text_report_names_every_stage_time(self):
        rep = solve_case("10-271")
        (line,) = [t for t in emit_report(rep).splitlines() if "time:" in t]
        assert len(rep.timings) == 6
        for stage, seconds in rep.timings.items():
            assert f"{stage} {seconds:.3f}s" in line, stage

    def test_ceiling_above_search_floor_still_searches_to_it(self, monkeypatch):
        # a reduced ceiling of 1000 lies above SEARCH_FLOOR but below the
        # 15-5581 floor 4015: the search still stops at SEARCH_FLOOR, since
        # the floor rules out every exponent above it
        reduction_loop, direct_search = pipeline.reduction_loop, pipeline.direct_search
        searched = []

        def loose_reduction(*args, **kwargs):
            report = reduction_loop(*args, **kwargs)
            return report._replace(final_bound=1000)

        def recording_search(f, p, n_max):
            searched.append(n_max)
            return direct_search(f, p, n_max)

        monkeypatch.setattr(pipeline, "reduction_loop", loose_reduction)
        monkeypatch.setattr(pipeline, "direct_search", recording_search)
        rep = solve_case("15-5581")
        assert rep.reduced_bound == 1000
        assert SEARCH_FLOOR < rep.reduced_bound < rep.n_lower == 4015
        assert searched == [SEARCH_FLOOR]
        assert rep.search_max == SEARCH_FLOOR
        assert rep.verdict == "no_solutions"
        assert "n <= 1000" in rep.reason

    def test_failed_verification_returns_early(self):
        raw = case_to_dict(get_case("10-271"))
        raw["two_decomposition"]["sign"] = -raw["two_decomposition"]["sign"]
        rep = solve_case(_config_from_dict("10-271", raw))
        assert rep.verdict == "inconclusive"
        assert rep.reason == "case data failed verification"
        assert set(rep.timings) == {"verify"}

    def test_verification_runs_once(self, monkeypatch):
        # the verify stage and the constant chain's gate share one report
        calls = []
        verify = pipeline.verify_case_data

        def counting_verify(cfg, *rest):
            calls.append(cfg.case_id)
            return verify(cfg, *rest)

        monkeypatch.setattr(pipeline, "verify_case_data", counting_verify)
        assert solve_case("10-271").verdict == "no_solutions"
        assert calls == ["10-271"]

    def test_small_scale_is_inconclusive(self, monkeypatch):
        # a small first-round K escalates until the proof concludes, but
        # at 64 bits the log enclosures stop the escalation first
        assert solve_case("10-271", scale=100).verdict == "no_solutions"
        monkeypatch.setattr(pipeline, "ConjugateData", lambda cfg: ConjugateData(cfg, 64))
        rep = solve_case("10-271", scale=100)
        assert rep.verdict == "inconclusive"
        assert "no certified bound" in rep.reason

    def test_report_and_bounds_use_the_chain_precision(self, monkeypatch):
        # c9, the absolute bound and the report follow the precision the
        # conjugate data ran at; at 64 bits the bound is 16 above 256 bits'
        at_256 = solve_case("10-271")
        assert at_256.precision_bits == 256
        monkeypatch.setattr(pipeline, "ConjugateData", lambda cfg: ConjugateData(cfg, 64))
        rep = solve_case("10-271")
        assert rep.precision_bits == 64
        c9 = matveev_c9(rep.constants, 64)
        assert rep.c9 == c9
        assert rep.abs_bound == absolute_bound(rep.constants, c9, 64)
        assert rep.abs_bound == at_256.abs_bound + 16

    def test_one_c9_per_proof(self, monkeypatch):
        # the reported c9 is the one the absolute bound uses, computed once
        calls = []

        def counting_c9(cc, prec):
            calls.append(prec)
            return matveev_c9(cc, prec)

        monkeypatch.setattr(pipeline, "matveev_c9", counting_c9)
        monkeypatch.setattr(matveev, "matveev_c9", counting_c9)
        rep = solve_case("10-271")
        assert rep.verdict == "no_solutions"
        assert calls == [256]


def proof_record(cid: str) -> dict:
    """solve_case's report for cid without its timings."""
    report = solve_case(cid).to_dict()
    del report["timings"]
    return report


class TestExactAlgebraOnce:
    """A proof finds the roots of f mod p once, for the verification and
    the digit scan, and computes each characteristic polynomial once."""

    def test_one_root_finding_per_proof(self, monkeypatch):
        # verify and the scan both ask for the roots of f mod p, verify
        # also for those mod 2 (its deltas); the memo finds each once
        real = polyarith._roots_mod_p
        seen = []
        monkeypatch.setattr(polyarith, "_roots_mod_p", lambda f, q: seen.append((f, q)) or real(f, q))
        for cid in ("15-41", "15-5581", "10-271"):
            cfg = get_case(cid)
            real.cache_clear()
            seen.clear()
            assert solve_case(cid).verdict == "no_solutions"
            assert sorted(seen) == sorted([(cfg.f.coeffs, cfg.p)] * 2 + [(cfg.f.coeffs, 2)]), cid
            assert real.cache_info().misses == len(set(seen)) == 2, cid
            real.cache_clear()
            seen.clear()
            assert main(["scan", "--case", cid]) == 0
            assert seen == [(cfg.f.coeffs, cfg.p)]
            assert real.cache_info().misses == 1

    def test_one_charpoly_per_distinct_numerator(self, monkeypatch):
        # verify asks for one norm twice, and the memo answers the second
        real = polyarith._charpoly
        seen = []
        monkeypatch.setattr(polyarith, "_charpoly", lambda a, f: seen.append((a, f)) or real(a, f))
        for cid in ("15-41", "15-5581", "10-271"):
            real.cache_clear()
            seen.clear()
            assert solve_case(cid).verdict == "no_solutions"
            assert real.cache_info().misses == len(set(seen)) < len(seen), cid

    def test_mutated_results_do_not_poison_a_later_proof(self):
        cfg = get_case("15-5581")
        want = proof_record(cfg.case_id)
        elems = (*cfg.units, *cfg.gammas, *cfg.deltas)
        charpolys = [charpoly_mod(e.num, cfg.f) for e in elems]
        for chi in charpolys:
            chi.coeffs = (1,)
        roots = roots_mod_p(cfg.f, cfg.p)
        roots.append(0)
        roots.reverse()
        assert roots_mod_p(cfg.f, cfg.p) == [257, 4477]
        assert [charpoly_mod(e.num, cfg.f) for e in elems] == [
            IntPoly(*polyarith._charpoly.__wrapped__(e.num.coeffs, cfg.f.coeffs)) for e in elems
        ]
        assert proof_record(cfg.case_id) == want

    def test_a_p_that_roots_mod_p_refuses_fails_only_the_scan(self):
        # the verification asks for no roots mod a p it cannot prove
        # prime, and the scan fails as it always did; the memo keeps no
        # refusal, so a second read refuses the same way
        cfg = get_case("10-271")._replace(p=9)
        chain = pipeline.ProofChain(cfg)
        assert not chain.verification.passed
        for _ in range(2):
            with pytest.raises(pipeline.StageFailed, match="digit scan failed: p = 9 is not a proven prime"):
                pipeline.ProofChain(cfg).n_lower


# The open soundness defect (ROADMAP direction 1): verify cannot yet prove
# that the units are a fundamental system, so a unit system of index 2 or 3
# still passes it and still proves no_solutions.  Each edit replaces one
# unit (numbered from 1) by a power of it; the certificate, once built,
# makes these pass and the strict marker then fails until it is removed.
@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: no certificate that the units"
                   " are fundamental, so a unit system of index 2 or 3 still proves no_solutions")
@pytest.mark.parametrize("cid, unit, power", [
    ("15-41", 3, 2), ("15-41", 2, -2), ("15-41", 1, 3), ("15-5581", 3, 2),
])
def test_non_fundamental_units_prove_nothing(cid, unit, power):
    cfg = get_case(cid)
    raw = copy.deepcopy(numberfield._BUILTIN_RAW[cid])
    raw["units"][unit - 1] = list(nf_pow(cfg.units[unit - 1], power, cfg.f).num.coeffs)
    report = solve_case(_config_from_dict(cid, raw))
    assert report.verdict != "no_solutions", report.reduced_bound


class TestRecords:
    def test_frozen_records_compare_hash_and_refuse_assignment(self, chains):
        ch = chains["15-5581"]
        root, rnd = ch.roots[0], ch.reduction.rounds[0]
        attempt = rnd.attempts[0]
        check = ch.verification.checks[0]
        report = solve_case("10-271")
        records = [
            (ch.cfg, ch.cfg._replace(), "p"),
            (ch.verification, ch.verification._replace(), "checks"),
            (report, report._replace(), "verdict"),
            (check, check._replace(), "ok"),
            (root, padic.PAdicRoot(root.p, root.digits), "digits"),
            (ch.constants, ch.constants._replace(), "c7"),
            (ch.reduction, ch.reduction._replace(), "final_bound"),
            (rnd, rnd._replace(), "bound"),
            (attempt, attempt._replace(), "new_bound"),
        ]
        for rec, twin, field in records:
            assert twin == rec and twin is not rec, field
            assert copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec, field
            before = getattr(rec, field)
            with pytest.raises(AttributeError):
                setattr(rec, field, 0)
            assert getattr(rec, field) == before
        for rec, twin, _ in records[3:]:
            assert hash(twin) == hash(rec)
        for rec, _, _ in records[:3]:
            with pytest.raises(TypeError):  # a dict or a list inside
                hash(rec)
        assert ch.constants._replace(c7=0) != ch.constants
        assert padic.PAdicRoot(root.p, root.digits[:-1]) != root


# 15-41's three units take three distinct indices; this choice repeats one
DUPLICATE_CHOICE = {"0": [1, 1, 3]}


class TestCLI:
    def test_verify_all_builtins(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "case 15-41: ok" in out
        assert "[ok  ]" in out
        assert "FAIL" not in out
        assert "[ext ]" in out

    def test_scan_text(self, capsys):
        assert main(["scan", "--case", "15-41"]) == 0
        out = capsys.readouterr().out
        assert "n >= 415" in out
        assert "digit 53 = 40" in out

    def test_scan_json_all(self, capsys):
        assert main(["scan", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["lower_bound"] for c in data["cases"]] == [415, 4015, 239]

    def test_scan_lifts_each_root_once(self, monkeypatch, capsys):
        # the floor and the per-root lines share one lift of each root
        lifted = []
        lift = padic.hensel_lift

        def counting_lift(*args):
            lifted.append(args[2])
            return lift(*args)

        monkeypatch.setattr(padic, "hensel_lift", counting_lift)
        assert main(["scan", "--case", "15-5581"]) == 0
        assert "n >= 4015" in capsys.readouterr().out
        assert sorted(lifted) == [257, 4477]

    def test_scan_depth_override(self, capsys):
        assert main(["scan", "--case", "15-5581", "--depth", "30"]) == 0
        out = capsys.readouterr().out
        assert "n >= 239" in out  # 8*(31-1) - 1 with a clean 30-digit window

    def test_bound_json(self, capsys):
        assert main(["bound", "--case", "10-271", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        (entry,) = data["cases"]
        assert entry["absolute_bound"] == 39684521926569444032
        assert entry["c9"] == 1.16e18

    def test_reduce_text(self, capsys):
        assert main(["reduce", "--case", "10-271"]) == 0
        out = capsys.readouterr().out
        assert "-> 38" in out
        assert "rounding slack swallows the distance margin" in out
        assert "n <= 37" in out

    def test_all_json(self, capsys):
        assert main(["all", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["cases"]) == 3
        assert all(c["verdict"] == "no_solutions" for c in data["cases"])

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["scan", "--case", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stage_key_error_is_not_a_usage_error(self, monkeypatch):
        # a KeyError from a bug inside a stage must surface, not exit 2
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr(pipeline, "combined_lower_bound", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["scan", "--case", "10-271"])

    def test_stage_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        # only argument and case-file validation may turn a ValueError
        # into exit 2; one raised inside a stage fails that stage, exit 1,
        # with the error as the reason
        def broken(*args):
            raise ValueError("internal bug")

        monkeypatch.setattr(pipeline, "combined_lower_bound", broken)
        assert main(["scan", "--case", "10-271"]) == 1
        assert capsys.readouterr().out == "case 10-271: digit scan failed: internal bug\n"

    @pytest.mark.parametrize(
        "path, field",
        [
            (("two_decomposition",), "sign"),
            (("two_decomposition", "factors", 1), "exponent"),
        ],
    )
    def test_missing_nested_field_is_usage_error(self, tmp_path, capsys, path, field):
        raw = case_to_dict(get_case("10-271"))
        node = raw
        for key in path:
            node = node[key]
        del node[field]
        config = tmp_path / "nested.json"
        config.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(config)]) == 2
        assert f"missing field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_old_schema_gamma_is_usage_error(self, tmp_path, capsys, command):
        # a gamma is a coefficient list; the old {"coeffs", "norm_exponent"}
        # form is refused at load, naming the case, exit 2, with no traceback
        raw = case_to_dict(get_case("10-271"))
        raw["gammas"] = [{"coeffs": g, "norm_exponent": 1} for g in raw["gammas"]]
        config = tmp_path / "old_schema.json"
        config.write_text(json.dumps(raw))
        assert main([command, "--config", str(config)]) == 2
        out = capsys.readouterr()
        assert "case 10-271: gamma must be a non-empty list of integers" in out.err
        assert "Traceback" not in out.out + out.err

    def test_config_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case_to_dict(get_case("10-271"))))
        assert main(["scan", "--config", str(path)]) == 0
        assert "n >= 239" in capsys.readouterr().out

    def test_tampered_config_fails_verify(self, tmp_path, capsys):
        raw = case_to_dict(get_case("10-271"))
        raw["two_decomposition"]["sign"] = -raw["two_decomposition"]["sign"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_too_few_units_fail_verify_and_solve(self, tmp_path, capsys):
        # 15-41 has unit rank 3; with two units every norm still checks out
        # and the constant chain runs, so without the unit count this file
        # proved "no solutions"
        raw = case_to_dict(get_case("15-41"))
        del raw["units"][2]
        raw["default_conjugate_choice"] = {"0": [1, 3]}
        path = tmp_path / "two_units.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 1
        assert "[FAIL] as many units as the unit rank 3 (2 listed" in out
        assert main(["solve", "--config", str(path)]) == 1
        assert "inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("cid, field, failed", [
        ("15-5581", "gammas", "each root of f mod p has its own norm-p gamma"),
        ("15-41", "deltas", "each root of f mod 2 has its own delta"),
    ])
    def test_prime_without_generator_fails_verify_and_solve(self, tmp_path, capsys,
                                                            cid, field, failed):
        # the second gamma (delta) replaced by the first: every norm still
        # checks out, but the prime above p at the root 257 (the prime
        # (2, alpha - 1)) has no generator, and these files proved "no
        # solutions" from the ceilings 26 and 55
        raw = case_to_dict(get_case(cid))
        raw[field][1] = raw[field][0]
        cfg = _config_from_dict(cid, raw)
        assert [c.name for c in verify_case_data(cfg).checks if not c.ok] == [failed]
        rep = solve_case(cfg)
        assert (rep.verdict, rep.reason) == ("inconclusive", "case data failed verification")
        path = tmp_path / "prime_without_generator.json"
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "no_solutions" not in out and "Traceback" not in out + err

    @pytest.mark.parametrize("command", ["bound", "reduce"])
    def test_stage_commands_gate_on_verification(self, tmp_path, capsys, command):
        # the file of the test above fails verify, so its constants and
        # reduced bound rest on nothing and are not printed
        raw = case_to_dict(get_case("15-41"))
        del raw["units"][2]
        raw["default_conjugate_choice"] = {"0": [1, 3]}
        path = tmp_path / "two_units.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().out == "case 15-41: case data failed verification\n"
        assert main([command]) == 0
        assert "verification" not in capsys.readouterr().out

    def test_closed_pipe_ends_without_a_traceback(self):
        # a reader that stops after one line, like `cyclobound verify |
        # head -1`; unbuffered, so every later line meets the closed pipe
        src = str(Path(cyclobound.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        argv = [sys.executable, "-u", "-m", "cyclobound.cli", "verify"]
        proc = subprocess.Popen(
            argv + ["--case", "15-5581"] * 20,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        assert proc.stdout.readline() == "case 15-5581: ok\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err, err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for text in ("{", "5", "null", '"text"'):
            path.write_text(text)
            assert main(["verify", "--config", str(path)]) == 2, text
            assert "error" in capsys.readouterr().err
        assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("command", ["scan", "bound", "reduce"])
    def test_no_root_mod_p_fails_the_scan_stage(self, tmp_path, capsys, command):
        # f = x^4 - x^3 + x^2 - x + 2 has no root mod 5, so there is no
        # digit to scan, and a p dividing disc(f) gives a repeated root,
        # which has no unique lift: the stage fails for the case instead
        # of raising
        for case, p, reason in (
            ("10-271", 5, "f has no roots mod 5: no solutions exist for n >= 1 at all"),
            ("10-271", 349, "root 172 of f mod 349 is not simple: p divides disc(f)"),
            ("15-41", 83, "root 28 of f mod 83 is not simple: p divides disc(f)"),
            ("10-271", 2, "root 1 of f mod 2 is not simple: p divides disc(f)"),
        ):
            raw = case_to_dict(get_case(case))
            raw["p"] = p
            path = tmp_path / "unscannable.json"
            path.write_text(json.dumps(raw))
            assert main([command, "--config", str(path)]) == 1, (case, p)
            assert capsys.readouterr().out == f"case {case}: digit scan failed: {reason}\n"

    @pytest.mark.parametrize("command", ["verify", "scan", "bound", "reduce", "solve"])
    def test_non_monic_f_is_usage_error(self, tmp_path, capsys, command):
        # the norm, the characteristic polynomial and the root enclosures
        # all need a monic f, so the loader refuses the file
        raw = case_to_dict(get_case("10-271"))
        raw["f"] = [2, -1, 1, -1, 2]
        path = tmp_path / "nonmonic.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert "case 10-271: f must be monic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, status",
        [("verify", 1), ("scan", 0), ("bound", 1), ("reduce", 1), ("solve", 1)],
    )
    def test_real_root_ends_without_a_traceback(self, tmp_path, capsys, command, status):
        # f = x^4 - x^3 + x^2 - x - 2 has a real root, so the field has no
        # conjugate pairs to embed: verify and solve fail the data checks,
        # the scan still proves a floor, and bound and reduce fail the
        # constant chain for the case
        raw = case_to_dict(get_case("10-271"))
        raw["f"] = [-2, -1, 1, -1, 1]
        path = tmp_path / "realroot.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == status
        out = capsys.readouterr().out
        if command in ("bound", "reduce"):
            assert out == (
                "case 10-271: constant chain failed:"
                " polynomial appears to have a real root\n"
            )

    @pytest.mark.parametrize("power", [2, 3, -2])
    def test_unit_power_fails_a_stage_without_a_traceback(self, tmp_path, capsys, power):
        # 10-271 with its unit eps replaced by eps**2, eps**3 or eps**-2
        # passes verify, whose norm checks hold for any unit; the unit
        # exponents then need c7 < 1/d, so bound and solve end with the
        # absolute bound stage failed, exit 1, and no traceback
        cfg = get_case("10-271")
        base = cfg.units[0] if power > 0 else nf_inverse(cfg.units[0], cfg.f)
        raw = case_to_dict(cfg)
        raw["units"] = [list(nf_pow(base, abs(power), cfg.f).num.coeffs)]
        path = tmp_path / "unit_power.json"
        path.write_text(json.dumps(raw))
        for command, status in (("verify", 0), ("bound", 1), ("solve", 1)):
            assert main([command, "--config", str(path)]) == status, command
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err, command
            if status:
                assert "absolute bound failed: bound on B needs d*c7 >= 1" in out, command
        if power == 2:
            assert raw["units"] == [[3, 1, -4, 3]]

    def test_bad_scale_rejected_by_parser(self):
        for flags in (
            ["reduce", "--K", "-5"],
            ["scan", "--depth", "0"],
            ["scan", "--depth", "-3"],
            ["bound", "--precision-bits", "0"],
            ["solve", "--precision-bits", "2.5"],
            ["solve", "--search-max", "0"],
            ["all", "--search-max", "-3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*flags, "--case", "10-271"])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("units", 5),
            ("units", []),
            ("deltas", []),
            ("f", None),
            ("f", [2, -1, 1, -1, 1, 1]),
            ("default_K", 0),
            ("default_scan_depth", 0),
            ("default_conjugate_choice", {"0": [1, 2]}),
            ("default_conjugate_choice", {"0": [9]}),
            ("default_conjugate_choice", {}),
            ("default_conjugate_choice", {"1": [2]}),
            ("default_conjugate_choice", DUPLICATE_CHOICE),
            # phi(m) >= sqrt(m/2) refuses this m before phi is counted
            ("m", 10**12),
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, field, value):
        # a repeated index needs a case whose choices take more than one
        raw = case_to_dict(get_case("15-41" if value is DUPLICATE_CHOICE else "10-271"))
        raw[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path)]) == 2
        # every refusal names the case, a malformed element or number too
        assert f"error: case {raw['case_id']}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys, command):
        # past the JSON parser's recursion limit: a usage error, not a
        # RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: case file is nested too deeply to parse\n"
        assert "Traceback" not in out

    def test_reason_at_a_scale_past_float_range(self, capsys):
        assert main(["solve", "--case", "10-271", "--K", "1e400"]) == 1
        reason = capsys.readouterr().out.splitlines()[1].strip()
        assert reason == "reduction failed: K*radius = 3.90e+325 exceeds 0.001"

    @pytest.mark.parametrize("command", ["verify", "scan", "bound", "reduce", "solve"])
    def test_composite_p_is_usage_error(self, tmp_path, capsys, command):
        # Hensel uniqueness needs a field, so no floor is proved mod 9; the
        # loader refuses the file before any command runs
        raw = case_to_dict(get_case("10-271"))
        raw["p"] = 9
        path = tmp_path / "composite.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert "p = 9 is not a proven prime" in capsys.readouterr().err

    def test_reduce_reports_failed_stage(self, capsys):
        argv = ["--case", "10-271", "--K", "1e100"]
        assert main(["reduce", *argv]) == 1
        reduced = capsys.readouterr().out
        assert main(["solve", *argv]) == 1
        solved = capsys.readouterr().out
        reason = solved.splitlines()[1].strip()
        assert reason.startswith("reduction failed: ")
        assert reduced == f"case 10-271: {reason}\n"

    def test_solve_exit_one_when_inconclusive(self, capsys):
        assert main(["solve", "--case", "10-271", "--K", "1e100"]) == 1
        assert "inconclusive" in capsys.readouterr().out
