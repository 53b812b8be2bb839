"""Span recording around trimoduli's public functions, installed from outside.

A function imported by name into another module (``concomitants.transvectant``
comes from ``poly_engine``) is looked up by its caller in the caller's module,
so every trimoduli module attribute bound to the original function is replaced
by the same wrapper.  Spans stay in memory as ``[name, start, end, parent,
op]`` lists and are summarised or written out when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (home module, function); a span is named "<home module>.<function>"
TRACED_FUNCTIONS = (
    ("poly_engine", "transvectant"),
    ("qutrit_state", "apply_local"),
    ("qutrit_state", "reduced_density"),
    ("concomitants", "calibration"),
    ("concomitants", "invariants"),
    ("concomitants", "invariant_raws"),
    ("concomitants", "aronhold"),
    ("form_problem", "classify"),
    ("form_problem", "solve"),
    ("form_problem", "solve_psi_system"),
    ("form_problem", "enumerate_triples"),
    ("form_problem", "filter_sign"),
    ("reflection_group", "group_k"),
    ("reflection_group", "group_h"),
    ("reflection_group", "orbit"),
    ("reflection_group", "stabilizer"),
    ("reflection_group", "stabilizer_type"),
    ("reflection_group", "verify_invariance"),
    ("slocc_normalize", "normalize_slocc"),
    ("slocc_normalize", "verify_vinberg"),
    ("cli", "main"),
)
TRACED_METHODS = (("qutrit_state", "State", "form"),)

# cached after their first call in a process, so reported as a cold cost
COLD_SPANS = ("concomitants.calibration", "reflection_group.group_k",
              "reflection_group.group_h")


def _count_normalize(counters, args, result):
    _, trace = result
    counters["slocc_normalize.steps"] += len(trace.steps) - 1
    counters["slocc_normalize.floor_events"] += len(trace.floor_events)


def _count_enumerate(counters, args, result):
    counters["form_problem.candidates_kept"] += result.raw_count
    counters["form_problem.candidates_dropped"] += result.dropped


def _count_filter(counters, args, result):
    counters["form_problem.sign_offered"] += len(args[0].triples)
    counters["form_problem.sign_kept"] += len(result.triples)


COUNTER_HOOKS = {
    "slocc_normalize.normalize_slocc": _count_normalize,
    "form_problem.enumerate_triples": _count_enumerate,
    "form_problem.filter_sign": _count_filter,
}


class Tracer:
    """Records spans and counters while installed; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def _plan(self):
        """Every (owner, attribute, original, wrapper) binding to replace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trimoduli" or n.startswith("trimoduli."))]
        plan = []
        for home, attr in TRACED_FUNCTIONS:
            home_mod = sys.modules.get(f"trimoduli.{home}")
            if home_mod is None:
                continue
            original = getattr(home_mod, attr)
            wrapper = self._wrap(f"{home}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, key, original, wrapper))
        for home, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"trimoduli.{home}"], cls_name)
            original = cls.__dict__[attr]
            plan.append((cls, attr, original, self._wrap(f"{home}.{cls_name}.{attr}", original)))
        return plan

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)


def summarize(spans):
    """Per (op, name): calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because the run is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[tuple[int, str], list[float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        row = table.setdefault((op, name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


def top_level_share(spans, root=None):
    """Seconds per span name among the spans directly under ``root`` (a span
    name) or, when ``root`` is None, among the spans with no parent."""
    roots = {i for i, s in enumerate(spans) if s[0] == root} if root else {-1}
    out: dict[str, float] = {}
    for name, start, end, parent, op in spans:
        if parent in roots:
            out[name] = out.get(name, 0.0) + end - start
    return out
