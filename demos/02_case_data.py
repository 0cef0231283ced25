"""Check the algebraic data behind a case before trusting any bound.

Each case file carries units, elements gamma of norm +-p, elements delta
of norm +-2, and a factorization of 2.  The proof only needs these to
satisfy their norm equations and to vanish, one each, at the roots of f
mod p and mod 2, which is checked here by exact integer arithmetic (each
norm is the constant term of a characteristic polynomial); where the
elements came from does not matter.
"""

from cyclobound import get_case, list_case_ids
from cyclobound.numberfield import nf_norm, verify_case_data
from cyclobound.polyarith import discriminant

for cid in list_case_ids():
    cfg = get_case(cid)
    print(f"case {cid}: degree {cfg.d}, disc(f) = {discriminant(cfg.f)}")
    report = verify_case_data(cfg)
    for check in report.checks:
        mark = "ok" if check.ok else "FAIL"
        print(f"  [{mark:4s}] {check.name}")
    for name in report.trusted:
        print(f"  [ext ] {name}")
    print()

# the norms themselves, for one case
cfg = get_case("15-41")
print(f"norms in the degree-{cfg.d} field of case {cfg.case_id}:")
for i, u in enumerate(cfg.units, 1):
    print(f"  unit {i}:  N = {nf_norm(u, cfg.f)}")
for g in cfg.gammas:
    print(f"  gamma:   N = {nf_norm(g, cfg.f)}")
for d in cfg.deltas:
    print(f"  delta:   N = {nf_norm(d, cfg.f)}")

# taking norms in f(x) = 2*p^n forces x - theta into finitely many shapes
# (one norm-p gamma for the prime above p, one delta for the prime above 2)
branches = len(cfg.gammas) * len(cfg.deltas)
print(f"\n{branches} (gamma, delta) branches cover every solution shape")
