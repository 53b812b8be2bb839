"""Iterative local filtering toward the normal form.

Each step replaces one party's reduced density rho by a multiple of the
identity, using the unit-determinant filter det(rho)**(1/6) * rho**(-1/2).
The squared norm never increases; for states outside the null cone the
iteration converges to a state whose three reduced densities are all
proportional to the identity, with the fundamental invariants preserved.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import concomitants
from .qutrit_state import LocalTransform, State, apply_local, reduced_density

CONVERGED = "converged"
UNSTABLE = "unstable"
MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class IterationStep:
    step: int
    party: int          # 0 for the initial record, else the party updated
    norm_sq: float
    max_rel_deviation: float


@dataclass
class IterationTrace:
    steps: list[IterationStep] = field(default_factory=list)
    status: str = ""
    floor_events: list[int] = field(default_factory=list)

    def step_records(self) -> list[dict]:
        return [
            {"step": st.step, "party": st.party, "norm_sq": st.norm_sq,
             "max_rel_deviation": st.max_rel_deviation}
            for st in self.steps
        ]

    def steps_json(self) -> str:
        """The per-step records alone, as a JSON array."""
        return json.dumps(self.step_records())

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "floor_events": self.floor_events,
            "steps": self.step_records(),
        }
        return json.dumps(payload)


class ConditioningError(RuntimeError):
    """A reduced density went numerically singular while the state norm had
    not collapsed; carries the offending party."""

    def __init__(self, party: int, message: str):
        super().__init__(message)
        self.party = party


def _max_rel_deviation(s: State) -> float:
    worst = 0.0
    for party in (1, 2, 3):
        rho = reduced_density(s, party)
        tr = rho.trace().real
        if tr <= 0.0:
            return math.inf
        dev = np.linalg.norm(rho - (tr / 3.0) * np.eye(3), "fro") / tr
        worst = max(worst, float(dev))
    return worst


def _filter_matrix(rho: np.ndarray, floor: float):
    """Unit-determinant inverse square root of a Hermitian psd matrix.

    Eigenvalues below `floor` are lifted to it; returns (g, floored_flag).
    """
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    floored = bool(np.any(evals < floor))
    evals = np.maximum(evals, floor)
    det = float(np.prod(evals))
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return det ** (1.0 / 6.0) * inv_sqrt, floored


def normalize_slocc(s: State, tol: float = 1e-10, max_iter: int = 10000):
    """Run the filtering iteration; returns (limit_state, trace).

    Parties are updated round-robin 1, 2, 3.  Stops when every reduced
    density is within `tol` of a multiple of the identity (converged), when
    the norm falls below 1e-12 of the input norm (unstable: null-cone
    input), or after max_iter steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    norm0 = math.sqrt(s.norm_sq)
    if norm0 == 0.0:
        raise ValueError("cannot normalize the zero state")

    trace = IterationTrace()
    current = s
    dev = _max_rel_deviation(current)
    trace.steps.append(IterationStep(0, 0, current.norm_sq, dev))

    eye = np.eye(3, dtype=complex)
    for step in range(1, max_iter + 1):
        if dev < tol:
            trace.status = CONVERGED
            return current, trace
        if math.sqrt(current.norm_sq) < 1e-12 * norm0:
            trace.status = UNSTABLE
            return current, trace
        party = (step - 1) % 3 + 1
        rho = reduced_density(current, party)
        floor = 1e-14 * max(rho.trace().real, 1e-300)
        g, floored = _filter_matrix(rho, floor)
        if floored:
            trace.floor_events.append(step)
        mats = [eye, eye, eye]
        mats[party - 1] = g
        current = apply_local(current, LocalTransform(*mats))
        dev = _max_rel_deviation(current)
        trace.steps.append(IterationStep(step, party, current.norm_sq, dev))

    if dev < tol:
        trace.status = CONVERGED
    elif math.sqrt(current.norm_sq) < 1e-12 * norm0:
        trace.status = UNSTABLE
    else:
        trace.status = MAX_ITERATIONS
        if trace.floor_events:
            party = (trace.floor_events[0] - 1) % 3 + 1
            raise ConditioningError(
                party,
                f"reduced density of party {party} went numerically singular "
                f"while the norm had not collapsed",
            )
    return current, trace


def verify_vinberg(limit: State, candidates, norm_rel_tol: float = 1e-5,
                   invariant_rel_tol: float = 1e-4,
                   limit_inv: concomitants.InvariantSet | None = None) -> dict:
    """Check a filtering limit against the solved normal-form candidates.

    All candidates of one solution set share the squared norm
    3(|u|^2+|v|^2+|w|^2) because the normal-form symmetry group is unitary;
    the limit must match it, and the limit's invariants must match the
    closed formulas of the candidates.  The candidates must come from the
    original state's own invariants including its sign datum; the mirror
    sign class is reported as a mismatch.  `limit_inv` passes the limit's
    invariants when the caller has them already.
    """
    triples = list(getattr(candidates, "triples", candidates))
    if not triples:
        return {"ok": False, "reason": "no candidates supplied"}

    norms = [3.0 * sum(abs(c) ** 2 for c in t) for t in triples]
    norm_spread = (max(norms) - min(norms)) / max(max(norms), 1e-300)
    norm_err = abs(limit.norm_sq - norms[0]) / max(norms[0], 1e-300)

    inv = concomitants.invariants(limit) if limit_inv is None else limit_inv
    u, v, w = triples[0]
    cv = concomitants.c_formulas(u, v, w)
    targets = {"I6": cv.c6, "I9": cv.c9, "I12": cv.c12, "I18": cv.c18}
    got = {"I6": inv.i6, "I9": inv.i9, "I12": inv.i12, "I18": inv.i18}
    scale = max(abs(t) for t in targets.values())
    inv_errs = {k: abs(got[k] - targets[k]) / max(scale, 1e-300) for k in targets}

    ok = (norm_err < norm_rel_tol
          and norm_spread < 10 * norm_rel_tol
          and all(e < invariant_rel_tol for e in inv_errs.values()))
    return {
        "ok": bool(ok),
        "norm_rel_error": norm_err,
        "candidate_norm_spread": norm_spread,
        "invariant_rel_errors": {k: float(v) for k, v in inv_errs.items()},
        "candidate_count": len(triples),
    }
