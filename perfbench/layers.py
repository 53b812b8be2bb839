"""Per-layer metrics from recorded spans and counters.

Per-op figures divide totals over the timed operations by their number.  The
first call of a cached set-up function (calibration, group closures) is a cold
cost: it is taken from the set-up spans of a warm run, or averaged over the
processes that called it in a cold-CLI run, where each command is one op.
"""
from __future__ import annotations

import statistics

from tracing import COLD_SPANS, summarize

# metric-name suffix -> unit, first match wins
UNITS = (("_ratio", "ratio"), ("worst_rel_err", "ratio"), ("us_per_step", "us"),
         ("ms", "ms"), ("import_s", "s"), ("overhead_pct", "%"), ("", "count"))

# (span name, field) of the per-op metrics, field in calls / ms / self_ms
PER_OP = (
    ("poly_engine.transvectant", "calls"),
    ("poly_engine.transvectant", "self_ms"),
    ("qutrit_state.apply_local", "calls"),
    ("qutrit_state.apply_local", "self_ms"),
    ("qutrit_state.reduced_density", "calls"),
    ("qutrit_state.reduced_density", "self_ms"),
    ("qutrit_state.State.form", "ms"),
    ("concomitants.invariants", "ms"),
    ("concomitants.invariants", "calls"),
    ("concomitants.invariant_raws", "self_ms"),
    ("concomitants.aronhold", "ms"),
    ("form_problem.solve_psi_system", "ms"),
    ("form_problem.enumerate_triples", "ms"),
    ("form_problem.filter_sign", "ms"),
    ("form_problem.solve", "calls"),
    ("reflection_group.stabilizer", "ms"),
    ("reflection_group.stabilizer_type", "ms"),
    ("reflection_group.verify_invariance", "ms"),
    ("reflection_group.orbit", "ms"),
    ("slocc_normalize.normalize_slocc", "ms"),
    ("slocc_normalize.verify_vinberg", "self_ms"),
    ("cli.main", "self_ms"),
)


def unit_of(metric: str) -> str:
    return next(unit for suffix, unit in UNITS if metric.endswith(suffix))


def layer_metrics(spans, counters, n_ops: int, cold_from_setup: bool) -> dict:
    """Every per-layer metric of the run, by name; values are floats."""
    table = summarize(spans)
    per_op: dict[str, list[float]] = {}
    setup: dict[str, float] = {}
    cold_ops: dict[str, set] = {}
    for (op, name), (calls, incl, own) in table.items():
        if op < 0:
            setup[name] = setup.get(name, 0.0) + incl
            continue
        row = per_op.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += incl
        row[2] += own
        cold_ops.setdefault(name, set()).add(op)

    out: dict[str, float] = {}
    for name, field in PER_OP:
        calls, incl, own = per_op.get(name, (0, 0.0, 0.0))
        value = {"calls": calls, "ms": 1e3 * incl, "self_ms": 1e3 * own}[field]
        out[f"{name}.{field}"] = value / n_ops
    for name in COLD_SPANS:
        if cold_from_setup:
            out[f"{name}.ms"] = 1e3 * setup.get(name, 0.0)
        else:
            callers = len(cold_ops.get(name, ()))
            out[f"{name}.ms"] = 1e3 * per_op.get(name, (0, 0.0))[1] / callers if callers else 0.0

    steps = counters.get("slocc_normalize.steps", 0.0)
    out["slocc_normalize.steps"] = steps / n_ops
    out["slocc_normalize.floor_events"] = counters.get("slocc_normalize.floor_events", 0.0) / n_ops
    nf_ms = per_op.get("slocc_normalize.normalize_slocc", (0, 0.0))[1] * 1e3
    out["slocc_normalize.us_per_step"] = 1e3 * nf_ms / steps if steps else 0.0
    # a ratio with nothing offered reads 0, so the result stays valid JSON
    kept = counters.get("form_problem.candidates_kept", 0.0)
    dropped = counters.get("form_problem.candidates_dropped", 0.0)
    out["form_problem.candidates_kept_ratio"] = kept / (kept + dropped) if kept + dropped else 0.0
    offered = counters.get("form_problem.sign_offered", 0.0)
    out["form_problem.sign_kept_ratio"] = (counters.get("form_problem.sign_kept", 0.0) / offered
                                           if offered else 0.0)
    return out


def command_self_ms(spans, commands: list[str]) -> dict:
    """Mean self time of ``cli.main`` for each command of a warm CLI run,
    where op ``i`` ran ``commands[i]``."""
    times: dict[str, list[float]] = {}
    for (op, name), (_, _, own) in summarize(spans).items():
        if name == "cli.main" and op >= 0:
            times.setdefault(commands[op], []).append(1e3 * own)
    return {f"cli.{command}.self_ms": statistics.mean(v) for command, v in times.items()}
