"""Child process of the benchmark; ``run.py`` starts it with the thread pins
and ``PYTHONPATH`` set.  Modes:

  warm <workload> --seed N --seconds S --trace 0|1 [--probe] [--corrupt-reference]
      import, warm up, print READY (set-up ends here), then build the seeded
      inputs, run the closed loop and print one JSON result line.  With
      --probe it exits after READY.
  cli-reference --seed N --workdir DIR
      write the seeded state file and print the warm library results the
      CLI reports are compared with.
  cli-traced --spans FILE -- ARGV...
      run ``trimoduli.cli.main(ARGV)`` with spans recorded and written to FILE.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from collections import Counter

# a run stops early past this many seconds, to stay inside its time limit
WALL_CAP_S = 120.0
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _write_spans(name: str, payload) -> str:
    """Write a traced run's spans as JSON under ``perfbench/out``; returns the path."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _corrupt(case) -> None:
    """Shift every reference answer so that a correct output fails the gate."""
    ref = case.ref
    if "inv" in ref:
        ref["inv"] = {d: v * 1.001 + 1e-3 for d, v in ref["inv"].items()}
    if "count" in ref:
        ref["count"] += 1
    if "status" in ref:
        ref["status"] = "corrupted"


def run_warm(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        return _run_warm(args, workdir)


def _run_warm(args, workdir: str) -> int:
    import trimoduli  # noqa: F401  (set-up: the import is part of it)
    import workloads
    from speed import probe_ms
    from tracing import Tracer, top_level_share

    spec = workloads.WARM[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    for arg in spec.warmup_args(workdir):
        spec.op(arg)
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.probe:
        return 0

    cases = spec.cases(args.seed, max(1, math.ceil(args.seconds / spec.BLOCK_SECONDS)), workdir)
    if args.corrupt_reference:
        for case in cases:
            _corrupt(case)

    ops_ms, ok, probes, failures, failed = [], [], [], {}, []
    worst_err = None
    untraced = 0.0
    wall_cap = time.perf_counter() + WALL_CAP_S
    for n, case in enumerate(cases):
        probes.append(probe_ms())
        if tracer:
            tracer.op = n
            tracer.install()
        start = time.perf_counter()
        try:
            out, error = spec.op(case.arg), None
        except Exception as exc:  # a refused op is counted, not fatal
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            start = time.perf_counter()
            try:
                spec.op(case.arg)
            except Exception:  # same outcome as the traced call
                pass
            untraced += time.perf_counter() - start
        if error is not None:
            reason, err = workloads.failure_reason(error), math.nan
        else:
            reason, err = spec.check(case, out)
        if math.isfinite(err):
            worst_err = err if worst_err is None else max(worst_err, err)
        ops_ms.append(1e3 * elapsed)
        if reason is None:
            ok.append(n)
        else:
            key = f"{case.kind}: {reason}"
            failures[key] = failures.get(key, 0) + 1
            failed.append((case, reason, n))
        if time.perf_counter() > wall_cap:
            break
    n = len(ops_ms)

    probes.append(probe_ms())
    attempted = Counter(case.kind for case in cases[:n])
    unexpected = workloads.unexpected_failures(args.workload, failed, attempted)
    result = {"attempted": n, "failed": n - len(ok), "failures": failures,
              "unexpected": [f"op {i} {c.kind}: {r}" for c, r, i in unexpected[:10]],
              "n_unexpected": len(unexpected),
              "unexpected_kinds": sorted({c.kind for c, _, _ in unexpected}),
              "ops_ms": ops_ms, "ok": ok, "probes_ms": probes,
              "worst_rel_err": worst_err, "env": _environment()}
    if tracer:
        from layers import command_self_ms, layer_metrics

        metrics = layer_metrics(tracer.spans, tracer.counters, n, cold_from_setup=True)
        if args.workload == "cli-warm":
            metrics.update(command_self_ms(tracer.spans, [case.kind for case in cases[:n]]))
        if worst_err is not None:
            metrics["concomitants.invariants.worst_rel_err"] = worst_err
        timed = 1e-3 * sum(ops_ms)
        metrics["trace.overhead_pct"] = 100.0 * (timed / untraced - 1.0)
        op_spans = [s for s in tracer.spans if s[4] >= 0]
        result["layers"] = metrics
        # a CLI op is one cli.main span: its share is split among the calls under it
        root = "cli.main" if args.workload == "cli-warm" else None
        result["shares"] = {k: v / timed for k, v in top_level_share(op_spans, root).items()}
        result["spans_file"] = _write_spans(f"{args.workload}-{args.seed}",
                                            {"spans": tracer.spans, "counters": tracer.counters})
    print(json.dumps(result), flush=True)
    return 0


def run_cli_reference(args) -> int:
    """Warm library results for the cold-CLI commands on the seeded state."""
    import workloads
    from trimoduli import concomitants, form_problem, qutrit_state, reflection_group
    from trimoduli import slocc_normalize
    from trimoduli.form_problem import FormProblemInput

    rng = workloads.Rng(args.seed, 4)
    triple = qutrit_state.random_parameter_triple(rng.subseed())
    state, _ = workloads.scrambled_state(triple, rng.subseed())
    path = os.path.join(args.workdir, f"state-{args.seed}.json")
    qutrit_state.write_state(path, state)
    state = qutrit_state.read_state(path)  # the CLI sees the rounded file

    inv = concomitants.invariants(state)
    oc = form_problem.classify(FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
    _, trace = slocc_normalize.normalize_slocc(state, tol=workloads.NF_TOL,
                                               max_iter=workloads.NF_MAX_ITER)
    a, b, c, i9 = 12, 0, 0, -2
    soc = form_problem.classify(FormProblemInput(a, b, c, i9=i9))
    sol = form_problem.solve(FormProblemInput(a, b, c, i9=soc.i9_used))
    group = reflection_group.group_k()
    point = (1, -1, 0)
    stab = reflection_group.stabilizer(group, point)

    def pair(z):
        return [complex(z).real, complex(z).imag]

    ref = {
        "state": path,
        "invariants": {"I6": pair(inv.i6), "I9": pair(inv.i9), "I12": pair(inv.i12),
                       "I18": pair(inv.i18), "Delta": pair(inv.delta)},
        "classify": {"count": oc.count, "stabilizer_label": oc.stabilizer_label,
                     "stabilizer_order": oc.stabilizer_order},
        "normal-form": {"status": trace.status, "steps": len(trace.steps) - 1},
        "solve": {"count": soc.count, "raw_count": sol.raw_count,
                  "stabilizer_label": soc.stabilizer_label},
        "orbit": {"orbit_size": len(reflection_group.orbit(group, point)),
                  "stabilizer_order": stab.order,
                  "stabilizer_label": reflection_group.stabilizer_type(stab)},
        "env": _environment(),
    }
    print(json.dumps(ref), flush=True)
    return 0


def run_cli_traced(args) -> int:
    start = time.perf_counter()
    from trimoduli import cli
    import_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = cli.main(args.argv)
    finally:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("warm")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--corrupt-reference", action="store_true")
    p.set_defaults(func=run_warm)
    p = sub.add_parser("cli-reference")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=run_cli_reference)
    p = sub.add_parser("cli-traced")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli_traced)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
