"""Follow one case from rounded constants to the reduced exponent ceiling.

Stage one turns certified root enclosures into a table of constants, each
rounded outward so the printed value is still a true bound.  Stage two
feeds their heights into the linear-forms inequality and bisects for the
least exponent it permits.  Stage three reduces that astronomical ceiling
with lattice basis reduction, branch by branch.
"""

from cyclobound import ProofChain

chain = ProofChain("15-41")
cfg, n_lower = chain.cfg, chain.n_lower
print(f"case {cfg.case_id}: digit scan gives n >= {n_lower}")

cc = chain.constants
print("\nconstants (outward-rounded, 4 significant digits):")
for k in range(1, 9):
    print(f"  c{k} = {float(getattr(cc, f'c{k}')):.4g}")
print(f"  regulator        = {float(cc.regulator):.5g}")
print(f"  unit minor bound = {float(cc.unit_minor_bound):.4g}")
print(f"  height bounds A  = {[float(a) for a in cc.a_values]}")

print(f"\nlinear-forms coefficient c9 = {float(chain.c9):.4g}")
print(f"absolute ceiling: n <= {chain.abs_bound}  (~{float(chain.abs_bound):.3e})")

report = chain.reduction
print("\nlattice reduction:")
for rnd in report.rounds:
    print(f"  round at scale {rnd.scale:.0e}, start n <= {rnd.start_bound}")
    for att in rnd.attempts:
        tag = f"gamma {att.gamma_index + 1}, delta {att.delta_index + 1}"
        if att.ok:
            print(f"    {tag}: c >= {float(att.c_lower):.4f}, "
                  f"new bound n <= {att.new_bound}")
        else:
            print(f"    {tag}: {att.reason}")
    print(f"  -> n <= {rnd.bound}")

print(f"\nfinal ceiling n <= {report.final_bound} "
      f"against the floor n >= {n_lower}: the range is empty")
