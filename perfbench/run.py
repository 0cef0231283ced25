"""cyclobound benchmark: time to a correct verdict, end to end and per layer.

Run from the root of a checkout (the directory holding src/cyclobound):

    python3 perfbench/run.py --workload prove --seed 1 --seconds 30 --trace 0

Workloads are `prove`, `escalate` and `screen` (see workloads.py and
NOTES.md).  The load is a closed loop with one client: one worker
interpreter runs one job at a time, so at most two processes run.  Every
output is checked against reference values the benchmark holds.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics from a traced run with --trace 1.  A record with provenance,
sample counts and (when traced) every span goes to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT = 120.0
OUT_DIR = ".perfbench-out"
CASE_OF = {mp: cid for cid, mp in workloads.CASE_MP.items()}


class WorkerError(RuntimeError):
    """The worker interpreter died or hung before producing a result."""


def run_job(root: Path, job: dict) -> tuple[float, dict]:
    """Run one job in a fresh interpreter; returns (set-up seconds, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py")],
        cwd=root,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job) + "\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {(ready + err).strip()[-2000:]}")
    return setup_s, json.loads(out)


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; or 'none'."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cyclobound").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    """Samples, checks and spans collected over one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples = {"pass_s": [], "setup_s": [], "peak_rss_mb": []}
        for cid in workloads.CASE_IDS:
            self.samples[f"case_s.{cid}"] = []
        # the same times in wall seconds, before scaling, and the kernel's
        self.wall = {name: [] for name in self.samples if name != "peak_rss_mb"}
        self.wall["calibrate.kernel_s"] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traced_pass_s: list[float] = []
        self.layers: list[dict] = []
        self.counters: list[dict] = []
        self.spans: list = []

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run_pass(self, root: Path, jobs: list[dict], traced: bool) -> None:
        """Run one pass; times are scaled to reference speed (calibrate.py)."""
        pass_s = wall_pass_s = 0.0
        case_s = []
        layers: dict = {}
        counters = dict.fromkeys(spans.COUNTERS, 0)
        for job in jobs:
            job = dict(job, trace=traced)
            try:
                setup_s, out = run_job(root, job)
            except WorkerError as err:
                n = len(job.get("items", [job]))
                for _ in range(n):
                    self._record([str(err)])
                continue
            calib = out["calib_s"]
            self.wall["calibrate.kernel_s"].extend(calib)
            # set-up and spans have no readings of their own around them:
            # they take the worker's median reading
            factor = calibrate.REFERENCE_S / median(calib)
            self.samples["setup_s"].append(setup_s * factor)
            self.wall["setup_s"].append(setup_s)
            self.samples["peak_rss_mb"].append(out["maxrss_kb"] / 1024)
            timed = []  # (case id or None, seconds, reading before, reading after)
            if job["kind"] == "proof":
                self._record(workloads.check_proof(self.workload, job, out))
                if "error" not in out:
                    timed.append((job["case_id"], out["case_s"], *calib))
            else:
                for i, (item, item_out) in enumerate(zip(job["items"], out["items"])):
                    self._record(workloads.check_screen_item(item, item_out))
                    if "error" not in item_out:
                        cid = CASE_OF.get((item["m"], item["p"]))
                        timed.append((cid, item_out["case_s"], calib[i], calib[i + 1]))
            for cid, seconds, before, after in timed:
                scaled = calibrate.scale(seconds, before, after)
                pass_s += scaled
                wall_pass_s += seconds
                if cid is not None:
                    case_s.append((cid, scaled, seconds))
            if traced:
                for name, entry in spans.layer_times(out["spans"]).items():
                    agg = layers.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
                    agg["busy_s"] += entry["busy_s"] * factor
                    agg["self_s"] += entry["self_s"] * factor
                    agg["calls"] += entry["calls"]
                for key, value in out["counters"].items():
                    counters[key] += value
                self.spans.append(out["spans"])
        if traced:
            self.traced_pass_s.append(pass_s)
            self.layers.append(layers)
            self.counters.append(counters)
            return
        self.samples["pass_s"].append(pass_s)
        self.wall["pass_s"].append(wall_pass_s)
        for cid, scaled, seconds in case_s:
            self.samples[f"case_s.{cid}"].append(scaled)
            self.wall[f"case_s.{cid}"].append(seconds)

    def end_to_end(self) -> dict:
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        return {
            name: (median(values), units.get(name, "s"), len(values))
            for name, values in self.samples.items()
        }

    def wall_times(self) -> dict:
        """Unscaled medians of the timed samples, for the record."""
        return {name: median(values) for name, values in self.wall.items()}

    def work_counts(self, index: int) -> dict:
        """The deterministic counts of traced pass `index`."""
        counts = dict(self.counters[index])
        for name, entry in self.layers[index].items():
            counts[f"{name}.calls"] = entry["calls"]
        return counts

    def per_layer(self) -> dict:
        """Medians over traced passes; counts from the first traced pass."""
        n = len(self.layers)
        out = {}

        def times(name, key):
            return median([layers.get(name, {}).get(key, 0.0) for layers in self.layers])

        for stage in spans.STAGES:
            out[f"{stage}.busy_s"] = (times(stage, "busy_s"), "s", n)
            out[f"{stage}.self_s"] = (times(stage, "self_s"), "s", n)
        counts = self.work_counts(0)
        for kernel in spans.KERNEL_NAMES:
            out[f"{kernel}.busy_s"] = (times(kernel, "busy_s"), "s", n)
            out[f"{kernel}.self_s"] = (times(kernel, "self_s"), "s", n)
            out[f"{kernel}.calls"] = (counts.get(f"{kernel}.calls", 0), "count", n)
        for key in spans.COUNTERS:
            out[key] = (counts[key], "count", n)
        attempts = counts["reduction.attempts"]
        out["reduction.useful_ratio"] = (
            counts["reduction.attempts_ok"] / attempts if attempts else 0.0, "ratio", n
        )
        traced = median(self.traced_pass_s)
        untraced = median(self.samples["pass_s"])
        out["trace.pass_s"] = (traced, "s", n)
        out["trace.untraced_pass_s"] = (untraced, "s", len(self.samples["pass_s"]))
        out["trace.overhead"] = (traced / untraced if untraced else 0.0, "ratio", n)
        return out


def check_checkout(root: Path) -> None:
    if not (root / "src" / "cyclobound" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: {root} holds no src/cyclobound; run from the root of a checkout"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    check_checkout(root)

    # the first worker compiles bytecode and reports the machine; untimed
    _, info = run_job(root, {"kind": "info"})
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": info["python"],
        "mpmath": info["mpmath"],
        "mpmath_backend": info["backend"],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "inputs_digest": workloads.inputs_digest(args.workload, args.seed),
    }

    run = Run(args.workload)
    start = time.perf_counter()
    index = 0
    # a traced run repeats pass 0, alternating untraced and traced, so the
    # overhead compares equal work and the counts must repeat exactly
    while (
        index < (2 if args.trace else 1)
        or time.perf_counter() - start < args.seconds
    ):
        traced = bool(args.trace) and index % 2 == 1
        jobs = workloads.pass_inputs(args.workload, args.seed, 0 if args.trace else index)
        run.run_pass(root, jobs, traced)
        index += 1
    if args.trace:
        first = run.work_counts(0)
        for i in range(1, len(run.layers)):
            if run.work_counts(i) != first:
                run.failed += 1
                run.problems.append(f"traced pass {i} did other work than pass 0")

    metrics = run.per_layer() if args.trace else run.end_to_end()
    fail_share = run.failed / run.attempted if run.attempted else 1.0
    for problem in run.problems[:20]:
        print(f"FAIL {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:42s} {value:>14.6g} {unit:6s} (n={n})")
    if not args.trace:
        for name, value in run.wall_times().items():
            print(f"{'wall.' + name:42s} {value:>14.6g} s      (unscaled)")
    print(f"{'fail_share':42s} {fail_share:>14.6g} ratio  ({run.failed}/{run.attempted})")
    print(json.dumps({"provenance": provenance}, sort_keys=True))

    record = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "fail_share": fail_share,
        "problems": run.problems,
    }
    if args.trace:
        record["work_counts"] = run.work_counts(0)
        record["spans"] = run.spans
    else:
        record["wall"] = run.wall_times()
        record["samples"] = {"scaled": run.samples, "wall": run.wall}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, sort_keys=True) + "\n")

    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
