#!/usr/bin/env python3
"""Benchmark of the trimoduli package, measured from outside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
without installing it.  Workloads:

  invariants-classify  warm loop of invariants + classify on scrambled states
  solve-strata         warm loop of classify + solve on exact invariant values
  normal-form          warm loop of the ``trimoduli normal-form`` body
  cli-warm             warm loop of ``trimoduli.cli.main(argv)`` calls on
                       seeded state files, one command per op
  cli-cold             one fresh ``python -m trimoduli.cli`` process per command,
                       whole rounds of six commands, at least two rounds

``BENCHMARK.json`` lists the four warm workloads.  cli-cold is too slow and
too noisy on a shared two-core machine for the repeated runs of that file;
run it by hand for the cold wall time of each command (``cold_*_s``) and,
with ``--trace 1``, the cold ``cli.*`` layer figures.

A warm workload runs in one child process with one closed-loop client and
BLAS threads pinned to 1.  It does a fixed amount of work for a given
``--seconds``: whole blocks of inputs, about that long on the package as
first benchmarked (see ``workloads.py``).  ``setup_s`` is the median, over
``SETUP_REPEATS`` fresh processes, of the wall time from process start to the
first timed op (import and one warm-up op of each kind, which pays
calibration and group closure where the op needs them); a
``--corrupt-reference`` or ``--smoke`` run takes one sample.  For cli-cold it
is a cold ``import trimoduli``.  Every time is converted to a reference
machine speed with the probe in ``speed.py``; the report also prints the raw
figures.

Every op is checked against a reference computed before timing.  An op that
raises or fails its check is counted in ``failed``; its latency is left out
of the latency metrics but its time counts against throughput.  Inputs that
hit a known defect of the package stay in the mix, so ``failed`` is nonzero
on the seed; ``correct`` is false when an op fails in a way that no
documented defect explains (``KNOWN_DEFECTS`` and ``RARE_DEFECTS`` in
``workloads.py``).

Earlier lines of standard output are a readable report (every metric with its
unit, failure classes, environment); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``BENCHMARK.json`` with
``--trace 1``.  ``--smoke`` runs every workload briefly and checks the output
format; ``--corrupt-reference`` shifts every reference so the gate must fail.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None

WORKLOADS = ("invariants-classify", "solve-strata", "normal-form", "cli-warm", "cli-cold")
SETUP_REPEATS = 2
IMPORT_REPEATS = 5
CLI_MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
from cli_cold import COMMANDS, check_report  # noqa: E402
from layers import layer_metrics, unit_of  # noqa: E402
from speed import REF_PROBE_MS, at_reference, ops_at_reference, probe_ms  # noqa: E402
from tracing import top_level_share  # noqa: E402


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest whole percentile, by
    nearest rank, with at least ten samples above it.  With fewer than twenty
    samples that percentile would lie below the median, so the maximum is
    reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    p = math.floor(100 * (n - 10) / n)
    k = math.ceil(p * n / 100)
    return xs[k - 1], float(p), n - k


def end_to_end(res: dict) -> dict:
    """The end-to-end metrics from reference-speed times (see speed.py)."""
    ops = res["ops_ms"]
    lat = [ops[i] for i in res["ok"]]
    return {
        "setup_s": statistics.median(res["setups"]),
        "throughput_ops_s": len(lat) / (1e-3 * sum(ops)),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail(lat)[0],
    }


def probes(n: int = 3) -> list[float]:
    return [probe_ms() for _ in range(n)]


def timed_child(argv, stop_at_ready: bool):
    """Start a child; return (process, seconds until it printed READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child {argv} did not reach READY (exit {proc.returncode})")
    if stop_at_ready:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    return proc, ready


def run_warm(args) -> dict:
    base = [str(HERE / "worker.py"), "warm", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_reference:
        base.append("--corrupt-reference")
    # a corrupted-reference or smoke run reports no set-up figure that matters
    repeats = 1 if args.corrupt_reference or args.smoke else SETUP_REPEATS
    setups = []
    for _ in range(repeats - 1):
        before = probes()
        ready = timed_child(base + ["--probe"], True)[1]
        setups.append(at_reference(ready, before + probes()))
    before = probes()
    proc, ready = timed_child(base, False)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    # the worker's first op probes close the bracket around its own set-up
    setups.append(at_reference(ready, before + res["probes_ms"][:3]))
    res.update(setups=setups, measured_ops_ms=res["ops_ms"],
               ops_ms=ops_at_reference(res["ops_ms"], res["probes_ms"]))
    return res


def run_cli_cold(args, min_rounds: int = CLI_MIN_ROUNDS) -> dict:
    env = child_env()
    setups = []
    for _ in range(IMPORT_REPEATS):
        before = probes()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import trimoduli"], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        setups.append(at_reference(time.perf_counter() - start, before + probes()))

    OUT.mkdir(exist_ok=True)
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), "cli-reference",
                           "--seed", str(args.seed), "--workdir", str(OUT)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    ref = json.loads(done.stdout.strip().splitlines()[-1])
    if args.corrupt_reference:
        for entry in ref.values():
            if isinstance(entry, dict) and "count" in entry:
                entry["count"] += 1
        ref["normal-form"]["steps"] += 1
        ref["orbit"]["orbit_size"] += 1

    walls: dict[str, list[float]] = {name: [] for name, _ in COMMANDS}
    ops_ms, measured_ms, ok, all_probes, failures, unexpected = [], [], [], [], {}, []
    untraced = 0.0
    traces = []
    spans_file = OUT / f"spans-{os.getpid()}.json"
    while True:
        for name, argv in COMMANDS:
            argv = [a.format(state=ref["state"]) for a in argv]
            before = probes()
            start = time.perf_counter()
            if args.trace:
                cmd = [str(HERE / "worker.py"), "cli-traced", "--spans", str(spans_file), "--", *argv]
            else:
                cmd = ["-m", "trimoduli.cli", *argv]
            done = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
            after = probes()
            all_probes += before + after
            if args.trace:
                data = json.loads(spans_file.read_text())
                data.update(command=name, wall=wall)
                traces.append(data)
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "trimoduli.cli", *argv], cwd=ROOT, env=env,
                               capture_output=True, timeout=CHILD_TIMEOUT_S)
                untraced += time.perf_counter() - start
            measured_ms.append(1e3 * wall)
            ops_ms.append(1e3 * at_reference(wall, before + after))
            reason = check_report(name, done.returncode, done.stdout, ref)
            if reason is None:
                ok.append(len(ops_ms) - 1)
                walls[name].append(ops_ms[-1] / 1e3)
            else:
                failures[f"{name}: {reason}"] = failures.get(f"{name}: {reason}", 0) + 1
                # normal-form exits 2 when the iteration reaches max_iter, a known
                # defect, excused where the warm library run reached it too
                if not (name == "normal-form" and done.returncode == 2
                        and ref["normal-form"]["status"] == "max-iterations"):
                    unexpected.append(f"{name}: {reason} {done.stderr.strip()[-200:]}")
        # whole rounds only, and at least two, so every command has a median
        if len(ops_ms) >= min_rounds * len(COMMANDS) and sum(measured_ms) >= 1e3 * args.seconds:
            break
    if spans_file.exists():
        spans_file.unlink()

    res = {"attempted": len(ops_ms), "failed": len(ops_ms) - len(ok), "failures": failures,
           "unexpected": unexpected[:10], "n_unexpected": len(unexpected),
           "ops_ms": ops_ms, "measured_ops_ms": measured_ms, "ok": ok, "probes_ms": all_probes,
           "setups": setups, "env": ref["env"],
           "cold": {f"cold_{n.replace('-', '_')}_s": statistics.median(w)
                    for n, w in walls.items() if w}}
    if args.trace:
        res.update(cli_layers(traces, sum(measured_ms) / 1e3, untraced))
        res["spans_file"] = str(OUT / f"spans-cli-cold-{args.seed}.json")
        Path(res["spans_file"]).write_text(json.dumps(traces))
    return res


def cli_layers(traces, timed: float, untraced: float) -> dict:
    """Per-layer metrics of a traced cold-CLI run, one op per command."""
    spans, counters = [], {}
    by_command: dict[str, list[dict]] = {}
    for op, data in enumerate(traces):
        offset = len(spans)
        for name, start, end, parent, _ in data["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        by_command.setdefault(data["command"], []).append(data)
    metrics = layer_metrics(spans, counters, len(traces), cold_from_setup=False)
    metrics["cli.import_s"] = statistics.mean(t["import_s"] for t in traces)
    metrics["trace.overhead_pct"] = 100.0 * (timed / untraced - 1.0)
    shares = {}
    for command, runs in by_command.items():
        children = [top_level_share(t["spans"], root="cli.main") for t in runs]
        metrics[f"cli.{command}.self_ms"] = statistics.mean(
            1e3 * (t["wall"] - sum(c.values())) for t, c in zip(runs, children))
        shares[command] = {name: statistics.mean(c.get(name, 0.0) / t["wall"]
                                                 for t, c in zip(runs, children))
                           for name in set().union(*children)}
    return {"layers": metrics, "command_shares": shares}


def report(args, res: dict) -> dict:
    """Print the readable report and return the JSON result object."""
    env = dict(res["env"], git_commit=git_commit(), seed=args.seed, workload=args.workload,
               seconds=args.seconds, trace=args.trace, platform=platform.platform())
    print(f"# trimoduli benchmark: {json.dumps(env, sort_keys=True)}")
    ok = res["ok"]
    metrics = end_to_end(res) if ok else {}
    if ok:
        _, pct, beyond = tail([res["ops_ms"][i] for i in ok])
        measured = [res["measured_ops_ms"][i] for i in ok]
        print(f"# ops: {res['attempted']} attempted, {res['failed']} failed, "
              f"failure_rate {res['failed'] / res['attempted']:.4f}; tail is p{pct:g} "
              f"of {len(ok)} successful ops, {beyond} beyond it")
        print(f"# as measured, before scaling to reference speed: p50 "
              f"{statistics.median(measured):.4f} ms, throughput "
              f"{len(ok) / (1e-3 * sum(res['measured_ops_ms'])):.4f} ops/s; speed probe "
              f"median {statistics.median(res['probes_ms']):.4f} ms (reference {REF_PROBE_MS} ms)")
    print(f"# set-up samples at reference speed (s): {', '.join(f'{s:.4f}' for s in res['setups'])}")
    for key, count in sorted(res["failures"].items()):
        print(f"# failure {count:5d} x {key}")
    for line in res["unexpected"]:
        print(f"# UNEXPECTED {line}")
    if res["n_unexpected"]:
        print(f"# unexpected failures: {res['n_unexpected']}, on kinds "
              f"{', '.join(res.get('unexpected_kinds', []))}")
    if "spans_file" in res:
        print(f"# spans written to {Path(res['spans_file']).relative_to(ROOT)}")
    units = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms"}
    if not args.trace:
        for name, value in {**metrics, **res.get("cold", {})}.items():
            print(f"metric {name} = {value:.6g} {units.get(name, 's')}")
    if res.get("worst_rel_err") is not None:
        print(f"metric concomitants.invariants.worst_rel_err = {res['worst_rel_err']:.3e} ratio")
    for name, value in sorted(res.get("layers", {}).items()):
        print(f"layer {name} = {value:.6g} {unit_of(name)}")
    for name, share in sorted(res.get("shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"share of op time {100 * share:6.2f}% {name} (children included)")
    for command, shares in sorted(res.get("command_shares", {}).items()):
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"share of cold {command} wall {100 * share:6.2f}% {name}")

    if args.trace:
        chosen = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                  for m in SPEC["per_layer"]}
    else:
        chosen = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    return {"correct": bool(ok) and res["n_unexpected"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": chosen}


def run_one(args, cli_rounds: int = CLI_MIN_ROUNDS) -> dict:
    res = run_cli_cold(args, cli_rounds) if args.workload == "cli-cold" else run_warm(args)
    return report(args, res)


def smoke(args) -> int:
    """Every workload briefly, traced and untraced: every metric named in
    BENCHMARK.json must come out with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.trace, sub.seconds = workload, trace, 0.5
            result = run_one(sub, cli_rounds=1)
            print(json.dumps(result), flush=True)
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], float):
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or wrong unit")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{workload} trace={trace}: unexpected metric names")
    for p in problems:
        print(f"# SMOKE {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trimoduli benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "trimoduli" / "__init__.py").is_file() or SPEC is None:
        print(f"error: run from a trimoduli source checkout ({SRC} and BENCHMARK.json needed)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_one(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
