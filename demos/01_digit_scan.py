"""Walk through the p-adic digit scan that produces the exponent floor.

For f(x) = 2*p^n to have a solution, x must converge p-adically to a root
of f, and n is (up to a fixed offset) the number of leading digits of x
that agree with that root.  Scanning the root's digits for a 0 or p-1,
where a short solution could still hide, turns a digit prefix into a
certified lower bound on n.
"""

from cyclobound import get_case
from cyclobound.padic import digit_scan_bound, scan_case

cfg = get_case("10-271")
print(f"case {cfg.case_id}: f = {cfg.f}, p = {cfg.p}")

roots = scan_case(cfg, cfg.default_scan_depth)
root = roots[0]
print(f"\nf has one simple root mod {cfg.p}, lifted to {root.depth} digits")
print(f"lowest digits: {root.digits[:10]} ...")

k0 = root.first_extreme_index()
print(f"\nfirst digit equal to 0 or p-1 = {cfg.p - 1}: index {k0}")
print(f"digits around it: {root.digits[k0 - 2:k0 + 3]}")

bound = digit_scan_bound(root, cfg.d)
print(f"\nevery digit below index {k0} is interior, so any solution")
print(f"needs n >= d*(k0 - 1) - 1 = {cfg.d}*{k0 - 1} - 1 = {bound}")

# deeper scans can only raise the bound, never lower it
for depth in (20, 40, cfg.default_scan_depth):
    b = digit_scan_bound(scan_case(cfg, depth)[0], cfg.d)
    print(f"  scan depth {depth:3d}: n >= {b}")
