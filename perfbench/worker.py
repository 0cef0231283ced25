"""One benchmark job in a fresh interpreter.

Protocol on stdio: the worker imports cyclobound, prints "ready", reads
one JSON job line, runs it and prints one JSON result line.  The parent
times spawn-to-"ready" as set-up; the job is timed here around calls to
the package's public functions, with a reading of the calibration
kernel (calibrate.py) before and after each timed call.  Outputs are
returned unchecked: the parent checks them, outside the process under
test.
"""
import json
import resource
import sys
import time


def run_proof(job, tracer, mods):
    pipeline = mods["pipeline"]
    calibrate = mods["calibrate"].calibrate
    cid = job["case_id"]
    calib_s = [calibrate()]
    if tracer:
        tracer.proof = cid
        root = tracer.open("case")
    t0 = time.perf_counter()
    try:
        report = pipeline.solve_case(cid, scale=job["scale"])
    except Exception as err:  # a crash is a failed operation, not a dead run
        return {"error": repr(err), "calib_s": calib_s}
    finally:
        if tracer:
            tracer.close(root)
    case_s = time.perf_counter() - t0
    calib_s.append(calibrate())
    return {
        "case_s": case_s,
        "calib_s": calib_s,
        "verdict": report.verdict,
        "n_lower": report.n_lower,
        "abs_bound": report.abs_bound,
        "reduced_bound": report.reduced_bound,
        "solutions": [list(s) for s in report.solutions],
    }


def screen_item(item, f, tracer, mods):
    padic, pipeline = mods["padic"], mods["pipeline"]
    p, depth, d = item["p"], item["depth"], f.degree()
    if tracer:
        span = tracer.open("scan")
    try:
        roots = padic.roots_mod_p(f, p)
        lifts = [padic.hensel_lift(f, p, r, depth) for r in roots]
        bounds = [padic.digit_scan_bound(root, d) for root in lifts]
    finally:
        if tracer:
            tracer.close(span)
    solutions = pipeline.direct_search(f, p, item["n_max"])
    return roots, lifts, bounds, solutions


def run_screen(job, tracer, mods, polys):
    calibrate = mods["calibrate"].calibrate
    outs = []
    elapsed = 0.0
    calib_s = [calibrate()]
    for item in job["items"]:
        f = mods["polyarith"].IntPoly(polys[item["m"]])
        if tracer:
            tracer.proof = f"{item['m']}-{item['p']}"
            root = tracer.open("case")
        t0 = time.perf_counter()
        try:
            roots, lifts, bounds, solutions = screen_item(item, f, tracer, mods)
        except Exception as err:  # a crash is a failed operation, not a dead run
            outs.append({"error": repr(err)})
            continue
        finally:
            item_s = time.perf_counter() - t0
            elapsed += item_s
            if tracer:
                tracer.close(root)
            calib_s.append(calibrate())
        outs.append({
            "case_s": item_s,
            "roots": roots,
            "lifts": [list(root.digits) for root in lifts],
            "bounds": bounds,
            "solutions": [list(s) for s in solutions],
        })
    return {"pass_s": elapsed, "calib_s": calib_s, "items": outs}


def main():
    import cyclobound

    print("ready", flush=True)
    # everything below is imported after the set-up clock stops
    import calibrate
    import mpmath
    import spans
    from workloads import POLYS
    from cyclobound import matveev, numberfield, padic, pipeline, polyarith, realalg, reduction

    mods = {
        "calibrate": calibrate,
        "matveev": matveev,
        "numberfield": numberfield,
        "padic": padic,
        "pipeline": pipeline,
        "polyarith": polyarith,
        "realalg": realalg,
        "reduction": reduction,
    }
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer, mods)
    if job["kind"] == "proof":
        result = run_proof(job, tracer, mods)
    elif job["kind"] == "screen":
        result = run_screen(job, tracer, mods, POLYS)
    else:
        result = {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                  "backend": mpmath.libmp.BACKEND, "cyclobound": cyclobound.__file__}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
