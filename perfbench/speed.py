"""Machine-speed probe.

On a shared machine the speed of one core drifts by a quarter or more over
tens of seconds, which swamps the run-to-run differences the benchmark is
meant to resolve.  A fixed pure-Python loop, timed between operations, slows
down with the package code, so times divided by the probe's median and
multiplied by ``REF_PROBE_MS`` are times at one reference speed.  The loop is
the benchmark's own code, so a change to the package does not move it.
"""
from __future__ import annotations

import statistics
import time

# probe time, in ms, that defines the reference speed (a typical figure on
# the 2-core x86-64 machine where the benchmark was written)
REF_PROBE_MS = 3.5


def probe_ms() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(50000):
        x += i * i
    return 1e3 * (time.perf_counter() - start)


def at_reference(seconds: float, probes: list[float]) -> float:
    """A time measured while ``probes`` (taken just before and after it) ran,
    converted to reference speed."""
    return seconds * REF_PROBE_MS / statistics.median(probes)


def ops_at_reference(ops_ms: list[float], probes: list[float]) -> list[float]:
    """Per-op times at reference speed; ``probes[i]`` ran just before op i
    and the last one after the final op.  Each op is scaled by the median of
    the six probes around it."""
    return [at_reference(ms, probes[max(0, i - 2):i + 4]) for i, ms in enumerate(ops_ms)]
