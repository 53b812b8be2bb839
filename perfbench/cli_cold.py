"""Commands of the cli-cold workload and the check of their JSON reports.

Each report is compared with the warm library result that
``worker.py cli-reference`` computed for the same input before timing.
``group-verify`` is compared with the known group orders and zero residuals,
which are what the warm library returns too.
"""
from __future__ import annotations

import json

# (name, argv after "python -m trimoduli.cli"); {state} is the seeded state file
COMMANDS = (
    ("invariants", ("invariants", "{state}")),
    ("classify", ("classify", "{state}")),
    ("normal-form", ("normal-form", "{state}")),
    ("solve", ("solve", "--a", "12", "--b", "0", "--c", "0", "--i9=-2")),
    ("orbit", ("orbit", "--u", "1", "--v=-1", "--w", "0")),
    ("group-verify", ("group-verify",)),
)

REL_TOL = 1e-9


def _close(got, want) -> bool:
    scale = max(1e-300, abs(complex(*want)))
    return abs(complex(*got) - complex(*want)) <= REL_TOL * scale


def check_report(name: str, returncode: int, stdout: str, ref: dict) -> str | None:
    """None when the command succeeded and agrees with the reference, else
    the reason it did not."""
    if returncode != 0:
        return f"exit {returncode}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "report is not JSON"
    if report.get("command") != name:
        return f"report of {report.get('command')!r}"
    if name == "invariants":
        bad = [k for k, want in ref[name].items() if not _close(report[k], want)]
        return f"{', '.join(bad)} differ" if bad else None
    if name == "normal-form":
        want = ref[name]
        if report["status"] != want["status"] or report["steps"] != want["steps"]:
            return f"status {report['status']} after {report['steps']} steps"
        return None if report["verdict"] and report["verdict"]["ok"] else "verdict not ok"
    if name == "group-verify":
        residuals = [r for entry in report["invariance_residuals"].values() for r in entry.values()]
        ok = (report["K_order"] == 648 and report["H_order"] == 1296 and report["K_unitary"]
              and all(r == 0 for r in residuals))
        return None if ok else "group orders or invariance residuals wrong"
    bad = [k for k, want in ref[name].items() if report.get(k) != want]
    return f"{', '.join(bad)} differ" if bad else None
