"""A seeded case-file fuzzer: every edit of a built-in case, run through
the command line, ends in a verdict or a clean usage error.

Each edit of numberfield._BUILTIN_RAW is written to a temporary case file
and run through cli.main in this process.  The run must return 0, 1 or 2
(argparse's exit 2 included), print no traceback, and finish within
BUDGET_S.  There are three kinds of edit:
- syntactic: wrong types, flipped signs, out-of-range values and wrong
  lengths, anywhere in the case data, run through verify, and through
  scan too when the scan depth keeps its size;
- algebraic but valid: a unit replaced by its power 2, 3 or -2, run
  through bound, and a gamma times a unit, which generates the same
  prime, run through verify;
- control: the lattice scale K from 1 to 10**200, run through verify and
  on 10-271 through reduce, and the scan depth from 1, run through scan.

A huge scan depth asks for that many digits, so the size edits of the
depth run verify alone.  The soundness oracle, that data made incomplete
(a unit raised to a power, a gamma or delta replaced) never ends
no_solutions, is not here: a unit system of index 2 still proves
no_solutions today, and the oracle lands once every unit system is proved
fundamental (ROADMAP direction 2).
"""

import copy
import json
import random
import time

import pytest

from cyclobound import cli
from cyclobound.numberfield import FieldElement, _BUILTIN_RAW, nf_mul, nf_pow
from cyclobound.polyarith import IntPoly

SEED = 24
SYNTACTIC_EDITS = 60
BUDGET_S = 10.0
ODD_VALUES = ("7", 1.5, None, True, [], {}, [1], -1, 0, 10**30)


def _paths(node, prefix=()):
    """Every path of keys and indices below node, node's own excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _get(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _syntactic(rng, raw):
    """One edit of kind type, sign, range or length at a random path; the
    description, and whether it may have changed the scan depth's size."""
    path = rng.choice(list(_paths(raw)))
    old = _get(raw, path)
    kinds = ["type"]
    if isinstance(old, int) and not isinstance(old, bool):
        kinds += ["sign", "range"]
    if isinstance(old, list):
        kinds.append("length")
    kind = rng.choice(kinds)
    if kind == "type":
        new = copy.deepcopy(rng.choice(ODD_VALUES))
    elif kind == "sign":
        new = -old if old else -1
    elif kind == "range":
        new = rng.choice((0, 1, 2, 10**30))
    elif not old or rng.random() < 0.4:
        new = old + copy.deepcopy(old[-1:] or [1])
    else:
        new = rng.choice((old[:-1], old[1:], []))
    _set(raw, path, new)
    return f"{kind} at {path}: {old!r} -> {new!r}", "default_scan_depth" in path


def _coeffs(elem):
    """elem's numerator as a case file's coefficient list; a unit's powers,
    and its products with a gamma, are integral, so the denominator is 1."""
    assert elem.den == 1
    return list(elem.num.coeffs)


def _edits():
    """(case id, description, edited raw case, commands), seeded."""
    rng = random.Random(SEED)
    out = []
    for k in range(SYNTACTIC_EDITS):
        cid = rng.choice(list(_BUILTIN_RAW))
        raw = copy.deepcopy(_BUILTIN_RAW[cid])
        what, depth_edited = _syntactic(rng, raw)
        out.append((cid, what, raw, ("verify",) if depth_edited else ("verify", "scan")))
    for cid, spec in _BUILTIN_RAW.items():
        f = IntPoly(*spec["f"])
        for power in (2, 3, -2):
            raw = copy.deepcopy(spec)
            t = rng.randrange(len(raw["units"]))
            unit = nf_pow(FieldElement(IntPoly(*raw["units"][t])), power, f)
            raw["units"][t] = _coeffs(unit)
            out.append((cid, f"unit {t + 1} to the power {power}", raw, ("bound",)))
        raw = copy.deepcopy(spec)
        i, t = rng.randrange(len(raw["gammas"])), rng.randrange(len(raw["units"]))
        gamma = FieldElement(IntPoly(*raw["gammas"][i]))
        unit = FieldElement(IntPoly(*raw["units"][t]))
        raw["gammas"][i] = _coeffs(nf_mul(gamma, unit, f))
        out.append((cid, f"gamma {i + 1} times unit {t + 1}", raw, ("verify",)))
    for K in (1, 10, 10**20, 10**39, 10**100, 10**200):
        raw = copy.deepcopy(_BUILTIN_RAW["10-271"])
        raw["default_K"] = K
        out.append(("10-271", f"K = {K:.0e}", raw, ("verify", "reduce")))
    for depth in (1, 2, 3, 5, 17, rng.randrange(30, 200)):
        cid = rng.choice(list(_BUILTIN_RAW))
        raw = copy.deepcopy(_BUILTIN_RAW[cid])
        raw["default_scan_depth"] = depth
        out.append((cid, f"depth {depth}", raw, ("scan",)))
    return out


EDITS = _edits()


def test_edits_cover_every_kind():
    kinds = {what.split()[0] for _, what, _, _ in EDITS}
    assert {"type", "sign", "range", "length", "unit", "gamma", "K", "depth"} <= kinds
    assert sum("scan" in commands for *_, commands in EDITS) >= SYNTACTIC_EDITS // 2


@pytest.mark.parametrize("index", range(len(EDITS)))
def test_edit_ends_cleanly(index, tmp_path, capsys):
    cid, what, raw, commands = EDITS[index]
    raw = dict(raw, case_id=f"{cid} edit {index}")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(raw))
    for command in commands:
        t0 = time.perf_counter()
        try:
            status = cli.main([command, "--config", str(path)])
        except SystemExit as err:
            status = err.code
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert status in (0, 1, 2), (command, what, status)
        assert "Traceback" not in out.out + out.err, (command, what)
        assert elapsed < BUDGET_S, (command, what, elapsed)
