"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They start real benchmark runs, so the smoke test takes a couple of minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_smoke_emits_every_metric_with_its_unit():
    done = bench("--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 10  # five workloads, untraced and traced
    for result in results:
        assert result["correct"] is True
        assert result["attempted"] >= 1


def test_corrupted_reference_fails_the_gate():
    # the corrupted invariants fail on every kind, the kinds whose other
    # failures are documented defects too
    for workload, kinds in (("invariants-classify", ("degenerate", "generic", "scaled")),
                            ("solve-strata", ("degenerate", "generic", "origin"))):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--corrupt-reference")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == result["attempted"]
        assert f"on kinds {', '.join(kinds)}" in done.stdout


def _failure(kind, reason, **ref):
    return workloads.Case(kind, None, ref), reason


def test_only_documented_defects_are_excused():
    cases = {
        "invariants-classify": [
            (_failure("degenerate", "count 648 != 27", count=27, norm=1.0), True),
            (_failure("degenerate", "count 648 != 72", count=72, norm=1.0), False),
            (_failure("degenerate", "invariants rel err 1.0e-02", count=27, norm=1.0), False),
            (_failure("scaled", "OverflowError: (34, 'Numerical result out of range')",
                      count=648, norm=1e3), True),
            (_failure("scaled", "OverflowError: (34, 'Numerical result out of range')",
                      count=648, norm=1e2), False),
            (_failure("scaled", "invariants rel err 3.0e-01", count=648, norm=1e-9), False),
        ],
        "solve-strata": [
            (_failure("degenerate", "count 216/216 != 27", count=27), True),
            (_failure("degenerate", "count 216/216 != 72", count=72), False),
        ],
        "normal-form": [
            (_failure("generic", "max-iterations", corpus=90), True),
            (_failure("generic", "max-iterations", corpus=3), False),
            (_failure("product", "converged"), False),
            (_failure("w-type", "converged"), True),
        ],
    }
    for workload, failures in cases.items():
        unexpected = workloads.unexpected_failures(workload, [f for f, _ in failures], {})
        assert [f for f, excused in failures if not excused] == unexpected, workload


def test_rare_defects_are_excused_only_at_their_rate():
    reason = "FormProblemError: enumerated count 342 is outside the admissible strata"
    twice = [_failure("generic", reason, count=648, norm=1.0) for _ in range(2)]
    assert len(workloads.unexpected_failures("invariants-classify", twice, {"generic": 100})) == 1
    assert not workloads.unexpected_failures("invariants-classify", twice,
                                             {"generic": 2 * workloads.RARE_OPS})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "solve-strata", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
