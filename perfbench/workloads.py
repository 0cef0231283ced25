"""Seeded inputs and reference checks for the three benchmark workloads.

Nothing here imports cyclobound: the inputs are plain data, and every
check compares the program's outputs with values this file holds (the
paper's verdicts, floors and ceilings) or recomputes with plain-integer
Horner evaluation.  The code under test never grades itself.
"""
from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("prove", "escalate", "screen")
CASE_IDS = ("15-41", "15-5581", "10-271")

# f = Phi_m + 1, lowest degree first, and its discriminant
POLYS = {
    10: (2, -1, 1, -1, 1),
    15: (2, -1, 0, 1, -1, 1, 0, -1, 1),
}
DISCRIMINANTS = {10: 1396, 15: 682862912}
CASE_MP = {"15-41": (15, 41), "15-5581": (15, 5581), "10-271": (10, 271)}

# at the default depth, precision, K and search range: the paper's
# digit-scan floors and reduced ceilings, and the absolute bounds, which
# a correct change leaves bit for bit unchanged
FLOOR = {"15-41": 415, "15-5581": 4015, "10-271": 239}
ABS_BOUND = {
    "15-41": 2161587644044444572023596068,
    "15-5581": 1423219565628751255524310735,
    "10-271": 39684521926569444032,
}
CEILING = {"15-41": 59, "15-5581": 23, "10-271": 38}

# first-round K for `escalate`: a quarter-decade grid of exponents of ten
# in [lo, hi).  Every grid point of 10^33-10^38 (degree 8) and 10^36-10^40
# (10-271) ends in no_solutions at the seed commit.  Inside these windows
# every K builds the same number of lattices (9, 18 and 7) and makes the
# same number of attempts (18, 36 and 12), so the K drawn changes the
# lattices but not how many there are.  Their cost may still vary with
# K, so a run walks each case's grid in a seeded order instead of
# drawing K afresh: every seed's first passes hold the same K values.  A
# 10-271 proof is short and noisy, so each pass proves it
# ESCALATE_REPEATS times, each with its own K
ESCALATE_K_RANGE = {"15-41": (34.5, 35.5), "15-5581": (34.5, 35.25), "10-271": (36, 37.25)}
ESCALATE_REPEATS = {"15-41": 1, "15-5581": 1, "10-271": 3}
K_STEPS_PER_DECADE = 4

# `screen`: primes that every pass includes, with their known solutions
SCREEN_FIXED = ((10, 3), (10, 31), (15, 41), (15, 5581), (10, 271))
SCREEN_SOLUTIONS = {(10, 3): [(1, -1)], (10, 31): [(1, 3)]}
SCREEN_FIXED_SIZE = (1500, 900)  # (lift depth, n_max) for the fixed primes
# the paper's primes give screen its case_s samples; each pass times them
# this many times, since one sample per pass leaves too few in a run
SCREEN_CASE_REPEATS = 2
# drawn primes: one per log-p stratum and m, with 1 or 2 roots of f mod p.
# Search cost grows with n_max and log p, lifting cost with depth and the
# number of roots, so every pass draws the same strata, root counts and
# sizes, dealt out in seeded order, to keep the pass-to-pass spread small
SCREEN_STRATA = ((2000, 7000), (7000, 20000))
SCREEN_ROOT_COUNTS = (1, 2)
SCREEN_DEPTH = (1000, 3000)
SCREEN_NMAX = (500, 1200)
BRUTE_X = 600  # the brute-force sweep tests every |x| <= BRUTE_X

DIGEST_PASSES = 32


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def k_grid(case_id: str) -> list[int]:
    """Every first-round K the `escalate` workload may draw for a case."""
    lo, hi = ESCALATE_K_RANGE[case_id]
    out = []
    for step in range(round(lo * K_STEPS_PER_DECADE), round(hi * K_STEPS_PER_DECADE)):
        whole, part = divmod(step, K_STEPS_PER_DECADE)
        mantissa = round(10 ** (3 + part / K_STEPS_PER_DECADE))
        out.append(mantissa * 10 ** (whole - 3))
    return out


def _escalate_ks(seed: int, case_id: str, index: int) -> list[int]:
    """The K values of `case_id` in `escalate` pass `index`."""
    grid = k_grid(case_id)
    random.Random(f"escalate-k:{seed}:{case_id}").shuffle(grid)
    n = ESCALATE_REPEATS[case_id]
    return [grid[(index * n + j) % len(grid)] for j in range(n)]


def _horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# counting roots of f mod p without scanning residues


def _pmod_mul(a, b, f, p):
    """a*b mod (f, p) for coefficient lists, lowest first; f monic."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    d = len(f) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(d + 1):
                prod[k - d + j] -= c * f[j]
    return [c % p for c in prod[:d]]


def _ptrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _pgcd(a, b, p):
    a, b = _ptrim([x % p for x in a]), _ptrim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - c * y) % p
            a = _ptrim(a)
        a, b = b, a
    return a


def count_roots_mod_p(coeffs, p: int) -> int:
    """Number of distinct roots of f mod p: deg gcd(x^p - x, f) over F_p."""
    d = len(coeffs) - 1
    result, base, e = [1] + [0] * (d - 1), [0, 1] + [0] * (d - 2), p
    while e:
        if e & 1:
            result = _pmod_mul(result, base, coeffs, p)
        base = _pmod_mul(base, base, coeffs, p)
        e >>= 1
    result[1] = (result[1] - 1) % p
    return max(len(_pgcd(list(coeffs), result, p)) - 1, 0)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _screen_prime(rng: random.Random, m: int, lo: int, hi: int, n_roots: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if (
            _is_prime(p)
            and DISCRIMINANTS[m] % p
            and count_roots_mod_p(POLYS[m], p) == n_roots
        ):
            return p


# ---------------------------------------------------------------------------
# inputs


def pass_inputs(workload: str, seed: int, index: int) -> list[dict]:
    """The jobs of pass `index`, in the order they run.

    `prove` and `escalate` give one proof job per case; `screen` gives one
    job holding every prime of the pass.  Same arguments, same jobs.
    """
    rng = _rng(workload, seed, index)
    if workload == "prove":
        order = list(CASE_IDS)
        rng.shuffle(order)
        return [{"kind": "proof", "case_id": c, "scale": None} for c in order]
    if workload == "escalate":
        order = [c for c in CASE_IDS for _ in range(ESCALATE_REPEATS[c])]
        rng.shuffle(order)
        draws = {c: _escalate_ks(seed, c, index) for c in CASE_IDS}
        return [{"kind": "proof", "case_id": c, "scale": draws[c].pop()} for c in order]
    if workload == "screen":
        fixed = list(SCREEN_FIXED) + list(CASE_MP.values()) * (SCREEN_CASE_REPEATS - 1)
        items = [
            {"m": m, "p": p, "depth": SCREEN_FIXED_SIZE[0], "n_max": SCREEN_FIXED_SIZE[1]}
            for m, p in fixed
        ]
        drawn = []
        for m in POLYS:
            counts = list(SCREEN_ROOT_COUNTS)
            rng.shuffle(counts)
            drawn += [(m, lo, hi, n) for (lo, hi), n in zip(SCREEN_STRATA, counts)]
        k = len(drawn)
        depths = [SCREEN_DEPTH[0] + (SCREEN_DEPTH[1] - SCREEN_DEPTH[0]) * i // (k - 1) for i in range(k)]
        nmaxes = [SCREEN_NMAX[0] + (SCREEN_NMAX[1] - SCREEN_NMAX[0]) * i // (k - 1) for i in range(k)]
        rng.shuffle(depths)
        rng.shuffle(nmaxes)
        for (m, lo, hi, n_roots), depth, n_max in zip(drawn, depths, nmaxes):
            p = _screen_prime(rng, m, lo, hi, n_roots)
            items.append({"m": m, "p": p, "depth": depth, "n_max": n_max})
        rng.shuffle(items)
        return [{"kind": "screen", "items": items}]
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(workload: str, seed: int) -> str:
    """sha256 over the first DIGEST_PASSES passes' inputs."""
    blob = json.dumps(
        [pass_inputs(workload, seed, i) for i in range(DIGEST_PASSES)],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# reference checks: each returns a list of problems, empty when correct


def check_proof(workload: str, job: dict, out: dict) -> list[str]:
    """Check one solve_case outcome against the paper's numbers."""
    cid = job["case_id"]
    if "error" in out:
        return [f"{cid}: crashed: {out['error']}"]
    problems = []
    if out["verdict"] != "no_solutions":
        problems.append(f"{cid}: verdict {out['verdict']}")
    if out["n_lower"] != FLOOR[cid]:
        problems.append(f"{cid}: floor {out['n_lower']} != {FLOOR[cid]}")
    if out["abs_bound"] != ABS_BOUND[cid]:
        problems.append(f"{cid}: absolute bound {out['abs_bound']} != {ABS_BOUND[cid]}")
    ceiling = out["reduced_bound"]
    if ceiling is None or ceiling >= FLOOR[cid]:
        problems.append(f"{cid}: ceiling {ceiling} is not below the floor {FLOOR[cid]}")
    if workload == "prove" and ceiling != CEILING[cid]:
        problems.append(f"{cid}: ceiling {ceiling} != {CEILING[cid]}")
    if out["solutions"]:
        problems.append(f"{cid}: solutions {out['solutions']}")
    return problems


def _power_of(v: int, p: int) -> int | None:
    """n with v == p^n, n >= 1, or None."""
    n = 0
    while v > 1 and v % p == 0:
        v //= p
        n += 1
    return n if v == 1 and n >= 1 else None


def brute_force_solutions(coeffs, p: int, n_max: int, x_max: int = BRUTE_X):
    """Every (n, x) with |x| <= x_max, 1 <= n <= n_max and f(x) = 2*p^n."""
    out = []
    for x in range(-x_max, x_max + 1):
        v = _horner(coeffs, x)
        if v > 0 and v % 2 == 0:
            n = _power_of(v // 2, p)
            if n is not None and n <= n_max:
                out.append((n, x))
    return sorted(out)


def check_screen_item(item: dict, out: dict) -> list[str]:
    """Check roots, lifts, scan bounds and search results for one prime."""
    m, p, depth, n_max = item["m"], item["p"], item["depth"], item["n_max"]
    tag = f"({m},{p})"
    if "error" in out:
        return [f"{tag}: crashed: {out['error']}"]
    coeffs = POLYS[m]
    d = len(coeffs) - 1
    problems = []
    roots = out["roots"]
    if len(set(roots)) != len(roots) or len(roots) != count_roots_mod_p(coeffs, p):
        problems.append(f"{tag}: roots {roots} are not all the roots mod p")
    modulus = p**depth
    for r, digits, bound in zip(roots, out["lifts"], out["bounds"]):
        if _horner(coeffs, r) % p:
            problems.append(f"{tag}: {r} is not a root mod p")
        if len(digits) != depth or digits[0] != r or not all(0 <= a < p for a in digits):
            problems.append(f"{tag}: lift of {r} has malformed digits")
            continue
        value = 0
        for a in reversed(digits):
            value = value * p + a
        if _horner(coeffs, value) % modulus:
            problems.append(f"{tag}: lift of {r} is not a root mod p^{depth}")
        k0 = next((k for k in range(1, depth) if digits[k] in (0, p - 1)), depth)
        if bound != d * (k0 - 1) - 1:
            problems.append(f"{tag}: scan bound {bound} for root {r}, expected {d * (k0 - 1) - 1}")
    if len(out["lifts"]) != len(roots) or len(out["bounds"]) != len(roots):
        problems.append(f"{tag}: not every root was lifted and scanned")
    sols = [tuple(s) for s in out["solutions"]]
    for n, x in sols:
        if not 1 <= n <= n_max or _horner(coeffs, x) != 2 * p**n:
            problems.append(f"{tag}: ({n}, {x}) is not a solution")
    brute = brute_force_solutions(coeffs, p, n_max)
    if [s for s in sols if abs(s[1]) <= BRUTE_X] != brute:
        problems.append(f"{tag}: search found {sols}, brute force {brute}")
    if (m, p) in SCREEN_SOLUTIONS and sols != SCREEN_SOLUTIONS[(m, p)]:
        problems.append(f"{tag}: solutions {sols} != {SCREEN_SOLUTIONS[(m, p)]}")
    for cid, mp in CASE_MP.items():
        if mp != (m, p) or not roots:
            continue
        if sols:
            problems.append(f"{tag}: solutions {sols} contradict the theorem")
        floor = min(out["bounds"])
        # a deeper lift can only push a digit hit later, never earlier
        if floor < FLOOR[cid] or (cid != "15-5581" and floor != FLOOR[cid]):
            problems.append(f"{tag}: floor {floor}, paper {FLOOR[cid]}")
    return problems
