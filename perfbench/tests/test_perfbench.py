"""Tests of the benchmark itself: inputs, reference checks and spans.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = [workloads.pass_inputs(workload, 7, i) for i in range(4)]
    again = [workloads.pass_inputs(workload, 7, i) for i in range(4)]
    other = [workloads.pass_inputs(workload, 8, i) for i in range(4)]
    assert first == again
    assert first != other
    assert workloads.inputs_digest(workload, 7) == workloads.inputs_digest(workload, 7)
    assert workloads.inputs_digest(workload, 7) != workloads.inputs_digest(workload, 8)


def test_escalate_draws_k_below_the_configured_scale():
    defaults = {"15-41": 10**39, "15-5581": 10**39, "10-271": 10**41}
    for i in range(40):
        for job in workloads.pass_inputs("escalate", 3, i):
            assert job["scale"] in workloads.k_grid(job["case_id"])
            assert job["scale"] < defaults[job["case_id"]]


def test_screen_primes_meet_the_conditions():
    for i in range(8):
        (job,) = workloads.pass_inputs("screen", 5, i)
        pairs = {(it["m"], it["p"]) for it in job["items"]}
        assert set(workloads.SCREEN_FIXED) <= pairs
        for it in job["items"]:
            m, p = it["m"], it["p"]
            assert workloads._is_prime(p) and p < 20000
            assert workloads.DISCRIMINANTS[m] % p
            assert workloads.count_roots_mod_p(workloads.POLYS[m], p) >= 1


@pytest.mark.parametrize("m", [10, 15])
def test_root_count_matches_residue_scan(m):
    coeffs = workloads.POLYS[m]
    for p in (3, 5, 7, 11, 31, 41, 101, 271, 1009, 5581):
        scan = sum(workloads._horner(coeffs, r) % p == 0 for r in range(p))
        assert workloads.count_roots_mod_p(coeffs, p) == scan, p


def test_reference_polynomials_and_discriminants_match_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from cyclobound.polyarith import IntPoly, cyclotomic, discriminant

    for m, coeffs in workloads.POLYS.items():
        phi = cyclotomic(m).coeffs
        assert coeffs == tuple(c + (i == 0) for i, c in enumerate(phi))
        assert discriminant(IntPoly(coeffs)) == workloads.DISCRIMINANTS[m]


# ---------------------------------------------------------------------------
# tiny runs through real workers


def test_tiny_prove_and_escalate_jobs_pass_their_checks():
    job = {"kind": "proof", "case_id": "10-271", "scale": None}
    _, out = run.run_job(ROOT, job)
    assert workloads.check_proof("prove", job, out) == []
    assert len(out["calib_s"]) == 2 and min(out["calib_s"]) > 0
    job = {"kind": "proof", "case_id": "10-271", "scale": workloads.k_grid("10-271")[0]}
    _, out = run.run_job(ROOT, job)
    assert workloads.check_proof("escalate", job, out) == []


def tiny_screen_job():
    items = [
        {"m": 10, "p": 3, "depth": 40, "n_max": 30},
        {"m": 10, "p": 31, "depth": 40, "n_max": 30},
        {"m": 15, "p": 41, "depth": 80, "n_max": 30},
        {"m": 10, "p": 271, "depth": 80, "n_max": 30},
    ]
    return {"kind": "screen", "items": items}


def test_tiny_screen_job_passes_its_checks():
    job = tiny_screen_job()
    _, out = run.run_job(ROOT, job)
    for item, item_out in zip(job["items"], out["items"]):
        assert workloads.check_screen_item(item, item_out) == []
    # one kernel run before the first prime and one after each
    assert len(out["calib_s"]) == len(job["items"]) + 1


# ---------------------------------------------------------------------------
# calibration


def test_scaled_time_ignores_a_uniform_slowdown():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(0.5, ref, ref) == pytest.approx(0.5)
    base = calibrate.scale(0.5, 0.03, 0.04)
    assert calibrate.scale(1.0, 0.06, 0.08) == pytest.approx(base)
    # a program twice as slow on the same machine reads twice as slow
    assert calibrate.scale(1.0, 0.03, 0.04) == pytest.approx(2 * base)


def test_kernel_does_not_load_the_program():
    code = "import sys, calibrate; calibrate.calibrate(); print('cyclobound' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "False"


def test_full_prove_run_prints_every_declared_metric(capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "prove", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and last["correct"] and last["failed"] == 0
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {m["name"] for m in declared[key]}


# ---------------------------------------------------------------------------
# corrupted outputs must count as failures


GOOD_PROOF = {
    "case_s": 0.1,
    "calib_s": [0.035, 0.035],
    "verdict": "no_solutions",
    "n_lower": 239,
    "abs_bound": workloads.ABS_BOUND["10-271"],
    "reduced_bound": 38,
    "solutions": [],
}


@pytest.mark.parametrize(
    "change",
    [
        {"n_lower": 240},
        {"reduced_bound": 239},
        {"reduced_bound": 37},
        {"verdict": "inconclusive"},
        {"solutions": [[3, 5]]},
    ],
)
def test_corrupted_proof_is_a_failure(change, monkeypatch):
    job = {"kind": "proof", "case_id": "10-271", "scale": None}
    assert workloads.check_proof("prove", job, GOOD_PROOF) == []
    bad = dict(GOOD_PROOF, **change)
    assert workloads.check_proof("prove", job, bad)

    monkeypatch.setattr(run, "run_job", lambda root, job: (0.1, dict(bad, maxrss_kb=1024)))
    bench = run.Run("prove")
    bench.run_pass(ROOT, [job, job], traced=False)
    assert (bench.attempted, bench.failed) == (2, 2)


def test_ceiling_below_floor_is_enough_for_escalate():
    job = {"kind": "proof", "case_id": "10-271", "scale": 10**36}
    assert workloads.check_proof("escalate", job, dict(GOOD_PROOF, reduced_bound=37)) == []
    assert workloads.check_proof("escalate", job, dict(GOOD_PROOF, reduced_bound=239))


def test_fake_solution_and_bad_lift_are_failures():
    job = tiny_screen_job()
    _, out = run.run_job(ROOT, job)
    item, good = job["items"][1], out["items"][1]
    assert workloads.check_screen_item(item, good) == []
    fake = dict(good, solutions=good["solutions"] + [[2, 17]])
    assert workloads.check_screen_item(item, fake)
    missing = dict(good, solutions=[])
    assert workloads.check_screen_item(item, missing)
    digits = list(good["lifts"][0])
    digits[5] = (digits[5] + 1) % item["p"]
    assert workloads.check_screen_item(item, dict(good, lifts=[digits]))
    assert workloads.check_screen_item(item, dict(good, bounds=[good["bounds"][0] + 4]))
    assert workloads.check_screen_item(item, {"error": "boom"})


# ---------------------------------------------------------------------------
# spans


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["case", 0.0, 10.0, None, "x"],
        ["constants", 1.0, 5.0, 0, "x"],
        ["numberfield.charpoly", 2.0, 3.0, 1, "x"],
        ["numberfield.charpoly", 3.5, 4.0, 1, "x"],
        ["reduction", 6.0, 9.0, 0, "x"],
    ]
    assert spans.self_times(tree) == [3.0, 2.5, 1.0, 0.5, 3.0]
    layers = spans.layer_times(tree)
    assert layers["numberfield.charpoly"] == {"busy_s": 1.5, "self_s": 1.5, "calls": 2}


def test_traced_spans_self_time_never_exceeds_duration():
    job = {"kind": "proof", "case_id": "10-271", "scale": None, "trace": True}
    _, out = run.run_job(ROOT, job)
    recorded = out["spans"]
    assert {s[0] for s in recorded} >= set(spans.STAGES)
    for span, self_s in zip(recorded, spans.self_times(recorded)):
        duration = span[2] - span[1]
        assert -1e-9 <= self_s <= duration
        assert span[4] == "10-271"
    for entry in spans.layer_times(recorded).values():
        assert entry["self_s"] <= entry["busy_s"] + 1e-12


def test_work_counts_repeat_exactly():
    job = {"kind": "proof", "case_id": "10-271", "scale": None, "trace": True}
    counts = [run.run_job(ROOT, job)[1]["counters"] for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["reduction.attempts"] >= counts[0]["reduction.attempts_ok"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    os.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "prove", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
