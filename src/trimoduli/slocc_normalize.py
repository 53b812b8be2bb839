"""Local filtering toward the normal form by Newton steps.

A normal form is a point of minimal norm in its SLOCC orbit (Kempf and Ness
1979), so filtering minimises f = log ||g . psi||^2 over g in SL(3)^3, which
is convex along every geodesic exp(t H1) x exp(t H2) x exp(t H3) with
traceless Hermitian H_p.  Each step is a Newton step over the 24 Gell-Mann
directions of the three parties, taken along that geodesic (unit
determinant, so the invariants are kept) with Armijo backtracking on log N
(Buergisser, Franks, Garg, Oliveira, Walter and Wigderson, FOCS 2018).  At
the minimum all three reduced densities are proportional to the identity.
The Newton system is solved by Cholesky, or by least squares where the
Hessian is singular or ill-conditioned (`CHOLESKY_MIN_RATIO`).

Before any step the null cone, I6 = I9 = I12 = 0 by Hilbert-Mumford, is
decided once (`concomitants.leading_degree`); a state in it is unstable,
with the zero state (the closed orbit in its orbit closure) as its limit.
The test and the iteration run on the state at unit size
(`reflection_group.unit_size`), an exact power of two times it, so no input
scale changes the result.  The trace carries the decision and the invariants
computed there, which `IterationTrace.input_invariants` scales back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import concomitants
from .qutrit_state import GELL_MANN, LocalTransform, State, apply_local, tangent_rows
from .reflection_group import ldexp, scalar_ldexp, unit_size

CONVERGED = "converged"
UNSTABLE = "unstable"
MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class IterationStep:
    # of the state at unit size, the input's squared norm times 4**-exponent
    norm_sq: float
    max_rel_deviation: float


@dataclass
class IterationTrace:
    # the invariants of the input times 2**-exponent, the state the iteration runs on
    unit_invariants: concomitants.InvariantSet
    exponent: int
    # that state's `concomitants.leading_degree`, None on the null cone
    degree: int | None
    status: str
    steps: list[IterationStep]
    floor_events: list[int]

    def input_invariants(self) -> concomitants.InvariantSet:
        """The invariants of the input, each of degree d times 2**(d * exponent),
        exactly; OverflowError naming the first one that overflows."""
        inv, out = self.unit_invariants, []
        for name, d, z in zip(inv._fields, concomitants.INVARIANT_DEGREES, inv):
            try:
                out.append(scalar_ldexp(z, d * self.exponent))
            except OverflowError:
                raise OverflowError(f"input invariant {name.capitalize()} overflows") from None
        return concomitants.InvariantSet(*out)


# below this Newton decrement -g.d, rounding in log N fails the Armijo test
# at every step length, so the full step is taken
FULL_STEP_DECREMENT = 1e-6
# a Newton direction whose decrement -g.d is below this times |g|^4 has lost
# the gradient: next to the null cone the Hessian's condition number reaches
# 1e16, least squares drops its soft directions, which hold the gradient, and
# the step would move nothing; the negative gradient is followed instead
GRADIENT_FALLBACK = 1e-6
# (min / max of the Cholesky diagonal)^2 bounds the Hessian's inverse condition
# number from above; below this (next to the null cone) a solve moved the step
# counts, so least squares keeps the step there, as on a singular Hessian
CHOLESKY_MIN_RATIO = 1e-4
ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 60
# far from the minimum a Newton step can overshoot by orders of magnitude; no
# step moves an eigenvalue of a party's generator by more than this
STEP_RADIUS = 1.0
# a verified limit's squared norm matches the candidates' within this relative
# error; the candidates' own norms, equal in exact arithmetic, within 10 times it
NORM_REL_TOL = 1e-5


def _derivatives(a: np.ndarray):
    """Gradient 2<psi, l psi>/N and Hessian 4 Re<l psi, m psi>/N - g g^T of
    log N at psi = a, over the Gell-Mann matrices l, m of parties 1, 2, 3."""
    rows, flat = tangent_rows(a), a.ravel()
    norm_sq = np.vdot(flat, flat).real
    grad = 2.0 * (rows @ flat.conj()).real / norm_sq
    return grad, 4.0 * (rows.conj() @ rows.T).real / norm_sq - np.outer(grad, grad)


def _geodesic(d: np.ndarray):
    """t -> exp(t H_p) on each party, H_p = sum_a d[p, a] l_a, and the step
    length at which the largest |t w| over the eigenvalues w reaches STEP_RADIUS."""
    w, v = np.linalg.eigh(np.einsum("pa,aij->pij", d.reshape(3, 8), GELL_MANN))
    vh = v.conj().transpose(0, 2, 1)
    return (lambda t: LocalTransform(*((v * np.exp(t * w)[:, None, :]) @ vh)),
            STEP_RADIUS / float(np.max(np.abs(w))))


def normalize_slocc(s: State, tol: float = 1e-10, max_iter: int = 10000):
    """Run the filtering iteration; returns (limit_state, trace).

    Null-cone inputs stop at once with status unstable and the zero state as
    the limit.  Otherwise each step is one Newton step on all three parties;
    the iteration stops when every reduced density is within `tol` of a
    multiple of the identity (converged) or after max_iter steps.  A step
    whose Newton decrement -g.d is not above GRADIENT_FALLBACK |g|^4 (no
    descent, or a direction that has lost the gradient) follows the negative
    gradient instead and is recorded in `floor_events`.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    if not np.any(s.amplitudes):
        raise ValueError("cannot normalize the zero state")

    unit, e = unit_size(s.amplitudes)
    current = State(unit)
    inv = concomitants.invariants(current)
    degree = concomitants.leading_degree(unit, inv)
    trace = IterationTrace(inv, e, degree, UNSTABLE if degree is None else MAX_ITERATIONS, [], [])
    for step in range(max_iter + 1):
        grad, hess = _derivatives(current.amplitudes)
        # party p's gradient block is 2 tr(l_a rho_p) / tr(rho_p), so its norm
        # over sqrt(8) is ||rho_p - tr(rho_p)/3||_F / tr(rho_p)
        dev = float(np.max(np.linalg.norm(grad.reshape(3, 8), axis=1))) / math.sqrt(8.0)
        trace.steps.append(IterationStep(current.norm_sq, dev))
        if degree is None:
            return State(np.zeros((3, 3, 3), dtype=complex)), trace
        if dev < tol or step == max_iter:
            trace.status = CONVERGED if dev < tol else trace.status
            break
        # a solve where the Cholesky factor shows the Hessian well conditioned,
        # else least squares: at a positive-dimensional stabilizer the Hessian
        # is singular, and the minimal step leaves that orbit alone
        try:
            diag = np.diagonal(np.linalg.cholesky(hess))
            well = (diag.min() / diag.max()) ** 2 >= CHOLESKY_MIN_RATIO
        except np.linalg.LinAlgError:
            well = False
        d = -(np.linalg.solve(hess, grad) if well else np.linalg.lstsq(hess, grad, rcond=None)[0])
        slope = float(grad @ d)
        newton = slope < -GRADIENT_FALLBACK * float(grad @ grad) ** 2
        if not newton:
            d, slope = -grad, -float(grad @ grad)
            trace.floor_events.append(step + 1)
        along, t_max = _geodesic(d)
        t, log_n = min(1.0, t_max), math.log(trace.steps[-1].norm_sq)
        candidate = apply_local(current, along(t))
        if not newton or -slope > FULL_STEP_DECREMENT:
            for _ in range(MAX_HALVINGS):
                if math.log(candidate.norm_sq) <= log_n + ARMIJO_SLOPE * t * slope:
                    break
                t /= 2.0
                candidate = apply_local(current, along(t))
        current = candidate
    return State(ldexp(current.amplitudes, e)), trace


def verify_vinberg(limit: State, candidates,
                   limit_inv: concomitants.InvariantSet | None = None) -> dict:
    """Check a filtering limit against the solved normal-form candidates.

    All candidates of one solution set share the squared norm
    3(|u|^2+|v|^2+|w|^2) because the normal-form symmetry group is unitary;
    the limit must match it within NORM_REL_TOL, and the limit's invariants
    must match the closed formulas of the candidates within 1e-4 of the
    largest of them.  The candidates must come from the original state's own
    invariants including its sign datum; the mirror sign class is reported
    as a mismatch.  `limit_inv` passes the limit's invariants when the
    caller has them already.
    """
    pts = np.asarray(getattr(candidates, "triples", candidates), dtype=complex).reshape(-1, 3)
    if len(pts) == 0:
        return {"ok": False, "reason": "no candidates supplied"}

    norms = 3.0 * np.sum(np.abs(pts) ** 2, axis=1)
    norm_spread = float(np.ptp(norms)) / max(float(norms.max()), 1e-300)
    first = float(norms[0])
    norm_err = abs(limit.norm_sq - first) / max(first, 1e-300)

    inv = concomitants.invariants(limit) if limit_inv is None else limit_inv
    cv = concomitants.c_formulas(*pts[0].tolist())
    scale = max(abs(t) for t in cv)
    inv_errs = {k: abs(g - t) / max(scale, 1e-300)
                for k, g, t in zip(("I6", "I9", "I12", "I18"), inv, cv)}

    ok = (norm_err < NORM_REL_TOL and norm_spread < 10 * NORM_REL_TOL
          and all(e < 1e-4 for e in inv_errs.values()))
    return {
        "ok": bool(ok),
        "norm_rel_error": norm_err,
        "candidate_norm_spread": norm_spread,
        "invariant_rel_errors": {k: float(v) for k, v in inv_errs.items()},
        "candidate_count": len(pts),
    }
