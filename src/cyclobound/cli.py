"""Command line front end.

Subcommands mirror the pipeline stages: verify checks the case data;
scan, bound and reduce read pipeline.ProofChain up to their stage; solve
runs the whole chain, and all is solve over every built-in case.  Exit
status 0 means every requested check or proof succeeded, 1 means at least
one did not (a stage that cannot finish counts), 2 means the invocation or
config was unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .numberfield import get_case, list_case_ids, load_case_config
from .padic import digit_scan_bound
from .pipeline import ProofChain, StageFailed, emit_report, solve_case


def _positive_int(text: str) -> int:
    value = Fraction(text)
    if value.denominator != 1 or value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value.numerator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclobound",
        description="Certified non-existence proofs for f(x) = 2*p^n.",
    )
    parser.set_defaults(depth=None, scale=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, flags in (
        ("verify", "check the case data", ()),
        ("scan", "p-adic digit scan", ("depth",)),
        ("bound", "constant chain and absolute bound", ("depth",)),
        ("reduce", "lattice reduction of the bound", ("depth", "scale")),
        ("solve", "full proof chain", ("depth", "scale")),
        ("all", "solve every case", ("depth", "scale")),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "--case",
            action="append",
            help="case id (repeatable; default: all built-in cases)",
        )
        p.add_argument(
            "--config",
            action="append",
            help="path to a JSON case file (repeatable)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        if "depth" in flags:
            p.add_argument("--depth", type=_positive_int, help="p-adic scan depth")
        if "scale" in flags:
            p.add_argument(
                "--K",
                dest="scale",
                type=_positive_int,
                help="first-round lattice scale (e.g. 1e39)",
            )
    return parser


def _collect_cases(args) -> list:
    ids = args.case or ([] if args.config else list_case_ids())
    try:
        builtin = [get_case(cid) for cid in ids]
    except KeyError as err:  # unknown case id
        raise ValueError(err.args[0]) from None
    return builtin + [load_case_config(path) for path in args.config or []]


def _run(args, cases, command) -> int:
    """Run one subcommand over the requested cases.

    command(chain, args) prints the text output and returns (JSON entry,
    ok).  A stage that cannot finish is reported for its case with the
    reason solve gives, and fails the run.
    """
    payload = []
    ok = True
    for cfg in cases:
        chain = ProofChain(cfg, args.depth, args.scale)
        try:
            entry, case_ok = command(chain, args)
        except StageFailed as err:
            entry, case_ok = {"case_id": cfg.case_id, "reason": str(err)}, False
            if not args.json:
                print(f"case {cfg.case_id}: {err}")
        payload.append(entry)
        ok = ok and case_ok
    if args.json:
        print(json.dumps({"cases": payload}, indent=2, sort_keys=True))
    return 0 if ok else 1


def _verify(chain, args):
    rep = chain.verification
    if not args.json:
        print(f"case {chain.cfg.case_id}: {'ok' if rep.passed else 'FAILED'}")
        for chk in rep.checks:
            mark = "ok" if chk.ok else "FAIL"
            detail = f" ({chk.detail})" if chk.detail else ""
            print(f"  [{mark:4}] {chk.name}{detail}")
        for item in rep.trusted:
            print(f"  [ext ] {item}")
    return rep.to_dict(), rep.passed


def _scan(chain, args):
    cfg, depth = chain.cfg, chain.depth
    entry = {
        "case_id": cfg.case_id,
        "depth": depth,
        "lower_bound": chain.n_lower,
        "roots": [
            {
                "r0": r.r0,
                "first_extreme_index": r.first_extreme_index(),
                "bound": digit_scan_bound(r, cfg.d),
            }
            for r in chain.roots
        ],
    }
    if not args.json:
        print(f"case {cfg.case_id}: n >= {chain.n_lower} (depth {depth})")
        for r in chain.roots:
            k0 = r.first_extreme_index()
            where = f"digit {k0} = {r.digits[k0]}" if k0 else f"clean to {depth}"
            print(
                f"  root {r.r0} mod {cfg.p}: {where}"
                f" -> n >= {digit_scan_bound(r, cfg.d)}"
            )
    return entry, True


def _bound(chain, args):
    cc, coeffs = chain.constants, chain.coefficients
    entry = cc.to_dict()
    entry["c9"] = float(chain.c9)
    entry["absolute_bound"] = chain.abs_bound
    if not args.json:
        print(f"case {cc.case_id}:")
        for key in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"):
            print(f"  {key} = {float(getattr(cc, key))}")
        print(f"  heights: {[float(a) for a in cc.a_values]}")
        print(f"  c9 = {float(chain.c9):.4g}")
        print(
            f"  {float(coeffs['lhs_slope'])}*n - {float(coeffs['lhs_shift'])}"
            f" > c9*(1 + log({float(coeffs['log_coeff_n'])}*n"
            f" + {float(coeffs['log_coeff_1'])}))"
        )
        print(f"  absolute bound: n < {chain.abs_bound:.6g}")
    return entry, True


def _reduce(chain, args):
    rep = chain.reduction
    if not args.json:
        print(
            f"case {rep.case_id}: {rep.start_bound:.6g} -> {rep.final_bound}"
            f" in {len(rep.rounds)} round(s)"
        )
        for rnd in rep.rounds:
            for att in rnd.attempts:
                tag = (
                    f"gamma {att.gamma_index}, delta {att.delta_index},"
                    f" conjugates {list(att.choice)}, K = {att.K:.0e}"
                )
                if att.ok:
                    print(f"  {tag}: c >= {float(att.c_lower):.4g}"
                          f" -> n <= {att.new_bound}")
                else:
                    print(f"  {tag}: {att.reason}")
    return rep.to_dict(), rep.ok


def _solve(chain, args):
    rep = solve_case(chain.cfg, chain.depth, chain.scale)
    if not args.json:
        print(emit_report(rep))
    return rep.to_dict(), rep.ok


_COMMANDS = {
    "verify": _verify,
    "scan": _scan,
    "bound": _bound,
    "reduce": _reduce,
    "solve": _solve,
    "all": _solve,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cases = _collect_cases(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        status = _run(args, cases, _COMMANDS[args.command])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: as in the recipe of Python's signal
        # docs, send what is left to devnull so that the interpreter's
        # final flush cannot fail again, and report the failed write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
