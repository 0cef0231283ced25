"""Spans and work counters recorded from outside the program.

The tracer replaces public names with timing wrappers at the place the
caller looks them up (`pipeline.reduction_loop`, `realalg.charpoly`,
`reduction.lll_reduce`, ...), so `src/` is untouched and an untraced
worker runs the program exactly as shipped.  Spans stay in memory until
the job ends.
"""
from __future__ import annotations

import time

# (module, attribute, span name): kernels are wrapped first, so when a
# stage and a kernel wrap the same name the stage span is the parent
KERNELS = (
    ("realalg", "certified_roots", "realalg.certified_roots"),
    ("realalg", "log_height", "realalg.log_height"),
    ("realalg", "regulator", "realalg.regulator"),
    ("realalg", "charpoly", "numberfield.charpoly"),
    ("pipeline", "absolute_bound", "matveev.absolute_bound"),
    ("reduction", "lll_reduce", "reduction.lll_reduce"),
    ("reduction", "verify_lll_reduced", "reduction.verify_lll_reduced"),
    ("reduction", "distance_lower_bound", "reduction.distance_lower_bound"),
    ("padic", "roots_mod_p", "padic.roots_mod_p"),
    ("padic", "hensel_lift", "padic.hensel_lift"),
    ("pipeline", "direct_search", "pipeline.direct_search"),
)
# stage spans carry the keys of SolveReport.timings
STAGE_WRAPS = (
    ("pipeline", "verify_case_data", "verify"),
    ("pipeline", "combined_lower_bound", "scan"),
    ("pipeline", "ConjugateData", "constants"),
    ("pipeline", "compute_constants", "constants"),
    ("pipeline", "matveev_c9", "absolute_bound"),
    ("pipeline", "absolute_bound", "absolute_bound"),
    ("pipeline", "reduction_loop", "reduction"),
    ("pipeline", "direct_search", "search"),
)
STAGES = ("verify", "scan", "constants", "absolute_bound", "reduction", "search")
KERNEL_NAMES = tuple(dict.fromkeys(name for _, _, name in KERNELS))
COUNTERS = (
    "reduction.attempts",
    "reduction.attempts_ok",
    "reduction.rounds",
    "padic.digits",
    "search.exponents",
    "search.candidates",
    "search.solutions",
)


class Tracer:
    """Spans as [name, start, end, parent index, proof id], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.proof = None
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.proof]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, counter: str) -> None:
        fn = getattr(module, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)


def _count_reduction(counters, args, report):
    attempts = [a for rnd in report.rounds for a in rnd.attempts]
    counters["reduction.attempts"] += len(attempts)
    counters["reduction.attempts_ok"] += sum(a.ok for a in attempts)
    counters["reduction.rounds"] += len(report.rounds)


def _count_digits(counters, args, root):
    counters["padic.digits"] += root.depth


def _count_search(counters, args, solutions):
    counters["search.exponents"] += args[2]
    counters["search.solutions"] += len(solutions)


HOOKS = {
    "padic.hensel_lift": _count_digits,
    "pipeline.direct_search": _count_search,
    "reduction": _count_reduction,
}


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every traced name in the given {short name: module} map."""
    for mod, attr, name in KERNELS + STAGE_WRAPS:
        tracer.wrap(modules[mod], attr, name, HOOKS.get(name))
    tracer.count_calls(modules["pipeline"], "poly_eval", "search.candidates")


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so the children of one span run one
    after another and their durations add up to the time they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_times(spans) -> dict:
    """busy_s, self_s and calls per span name."""
    own = self_times(spans)
    out: dict = {}
    for span, self_s in zip(spans, own):
        name, start, end = span[0], span[1], span[2]
        entry = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["busy_s"] += end - start
        entry["self_s"] += self_s
        entry["calls"] += 1
    return out
