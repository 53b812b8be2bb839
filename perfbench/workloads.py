"""Seeded inputs, timed operations and correctness gates of the warm workloads.

Every input is a ``Case``: its kind, the argument of the timed operation and
the reference answer, all computed before timing starts.  References come
from the closed normal-form formulas ``concomitants.c_formulas`` of the
generating triple, rescaled by weighted homogeneity, or from the orbit sizes
of the strata, never from the code path being timed.

Inputs come in fixed blocks, so every run sees the same mix of kinds whatever
its seed.  A run does ``ceil(seconds / BLOCK_SECONDS)`` blocks, where
``BLOCK_SECONDS`` is about what one block took at reference speed when the
benchmark was written: the amount of work is fixed, and the same on every
commit, for a given ``--seconds``.

Inputs that hit a defect of the package as it stands stay in the mix and
count as failures.  ``KNOWN_DEFECTS`` lists each documented defect as a kind
of input, a condition on its reference and a pattern of the failure reason;
only a failure that matches all three is excused, and ``RARE_DEFECTS`` are
excused only up to the rate seen when the benchmark was written.  Any other
failure is unexpected and makes the run incorrect.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from trimoduli import cli, concomitants, form_problem, qutrit_state, slocc_normalize
from trimoduli.form_problem import FormProblemInput

# invariants against the closed formulas, relative to the weighted size S**d
# of the reference.  Scrambling with an ill-conditioned transform leaves inputs
# whose float amplitudes fix I12 only to about 1e-5 of S**12 (a 1e-16 relative
# change of the amplitudes moved it that much), so the gate asks for 1e-4: it
# catches wrong results, and the trace reports the worst error as measured.
INVARIANT_REL_TOL = 1e-4
# a solved triple matches the generating one within this share of its size
TRIPLE_REL_TOL = 1e-6
NF_TOL = 1e-10
NF_MAX_ITER = 10000

# one point of each degenerate stratum; its complex multiples stay on it
STRATUM_POINTS = {27: (0, 1, -1), 72: (1, 0, 0), 216: (1, 1, 0)}
DOWN_SCALES = (1e-3, 1e-6, 1e-9)
UP_SCALES = (1e1, 1e2, 1e3)

DEGREES = (6, 9, 12, 18)


@dataclass
class Case:
    kind: str
    arg: object
    ref: dict


class Rng:
    """Sub-seeds for the package's seeded constructors, from one PCG64 stream."""

    def __init__(self, seed: int, stream: int):
        self._gen = np.random.Generator(np.random.PCG64([seed, stream]))

    def subseed(self) -> int:
        return int(self._gen.integers(0, 2**31))

    def unit_multiple(self) -> complex:
        """A complex factor of modulus in [0.5, 2] and uniform phase."""
        return float(self._gen.uniform(0.5, 2.0)) * cmath.exp(2j * math.pi * float(self._gen.random()))

    def vector(self) -> np.ndarray:
        return self._gen.standard_normal(3) + 1j * self._gen.standard_normal(3)


def reference_invariants(triple, factor: complex) -> dict:
    """I6, I9, I12, I18 of ``factor`` times an SL-scrambled normal form."""
    cv = concomitants.c_formulas(*triple)
    return {6: cv.c6 * factor ** 6, 9: cv.c9 * factor ** 9,
            12: cv.c12 * factor ** 12, 18: cv.c18 * factor ** 18}


def scrambled_state(triple, transform_seed: int, scale: float = 1.0):
    """Normal form of ``triple`` under a det-normalised random local transform,
    rescaled to norm ``scale``; returns the state and its reference invariants."""
    s = qutrit_state.apply_local(qutrit_state.normal_form_state(triple),
                                 qutrit_state.random_local_transform(transform_seed))
    factor = scale / math.sqrt(s.norm_sq)
    return s.scaled(factor), reference_invariants(triple, factor)


def by_degree(inv) -> dict:
    return {6: inv.i6, 9: inv.i9, 12: inv.i12, 18: inv.i18}


def invariant_rel_err(got: dict, ref: dict, norm: float) -> float:
    """Worst |I_d - ref_d| / S**d over the degrees d, S the weighted size of
    the reference or, on the nullcone where every reference is zero, the
    state norm."""
    scale = max(abs(ref[d]) ** (1.0 / d) for d in DEGREES) or norm
    errs = [abs(complex(got[d]) - ref[d]) / scale ** d for d in DEGREES]
    return max(errs) if all(math.isfinite(e) for e in errs) else math.inf


def failure_reason(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


def _triple_found(triples, target) -> bool:
    size = max(1.0, max(abs(z) for z in target))
    return any(max(abs(a - b) for a, b in zip(t, target)) <= TRIPLE_REL_TOL * size
               for t in triples)


# --- invariants-classify -------------------------------------------------------

class InvariantsClassify:
    """``invariants`` then ``classify``: the body of ``trimoduli classify``."""

    name = "invariants-classify"
    # g generic, - scaled down, + scaled up, d degenerate stratum
    BLOCK = "gggggg-gggdggg+d"
    BLOCK_SECONDS = 1.5

    @staticmethod
    def op(s):
        inv = concomitants.invariants(s)
        try:
            oc = form_problem.classify(FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
        except Exception as exc:  # the invariants are still checked
            oc = exc
        return inv, oc

    @classmethod
    def cases(cls, seed: int, blocks: int, workdir: str) -> list[Case]:
        rng = Rng(seed, 1)
        out = []
        for b in range(blocks):
            degenerate = 0
            for slot in cls.BLOCK:
                if slot == "d":
                    count = (27, 72, 216)[(2 * b + degenerate) % 3]
                    degenerate += 1
                    z = rng.unit_multiple()
                    triple = tuple(z * c for c in STRATUM_POINTS[count])
                    s, ref = scrambled_state(triple, rng.subseed())
                    out.append(Case("degenerate", s, {"inv": ref, "count": count, "norm": 1.0}))
                    continue
                triple = qutrit_state.random_parameter_triple(rng.subseed())
                scale = {"g": 1.0, "-": DOWN_SCALES[b % 3], "+": UP_SCALES[b % 3]}[slot]
                s, ref = scrambled_state(triple, rng.subseed(), scale)
                out.append(Case("generic" if slot == "g" else "scaled", s,
                                {"inv": ref, "count": 648, "norm": scale}))
        return out

    @staticmethod
    def warmup_args(workdir: str) -> list:
        return [scrambled_state(qutrit_state.random_parameter_triple(0), 1)[0]]

    @staticmethod
    def check(case: Case, out) -> tuple[str | None, float]:
        inv, oc = out
        err = invariant_rel_err(by_degree(inv), case.ref["inv"], case.ref["norm"])
        if not err <= INVARIANT_REL_TOL:
            return f"invariants rel err {err:.1e}", err
        if isinstance(oc, Exception):
            return failure_reason(oc), err
        if oc.count != case.ref["count"]:
            return f"count {oc.count} != {case.ref['count']}", err
        return None, err


# --- solve-strata --------------------------------------------------------------

class SolveStrata:
    """``classify`` then ``solve`` with its i9: what ``trimoduli solve`` runs."""

    name = "solve-strata"
    # g generic triple, a number: a multiple of that stratum's point, o origin
    BLOCK = ("g", 27, "g", 72, "g", 216, "g", "o")
    BLOCK_SECONDS = 0.45

    @staticmethod
    def op(inp):
        oc = form_problem.classify(inp)
        sol = form_problem.solve(FormProblemInput(inp.a, inp.b, inp.c, i9=oc.i9_used))
        return oc, sol

    @staticmethod
    def _case(kind, triple, count) -> Case:
        cv = concomitants.c_formulas(*triple)
        inp = FormProblemInput(complex(cv.c6), complex(cv.c12), complex(cv.c18),
                               i9=complex(cv.c9))
        return Case(kind, inp, {"count": count, "triple": tuple(complex(z) for z in triple)})

    @classmethod
    def cases(cls, seed: int, blocks: int, workdir: str) -> list[Case]:
        rng = Rng(seed, 2)
        out = []
        for _ in range(blocks):
            for slot in cls.BLOCK:
                if slot == "g":
                    triple = tuple(qutrit_state.random_parameter_triple(rng.subseed()))
                    out.append(cls._case("generic", triple, 648))
                elif slot == "o":
                    out.append(cls._case("origin", (0j, 0j, 0j), 1))
                else:
                    z = rng.unit_multiple()
                    triple = tuple(z * c for c in STRATUM_POINTS[slot])
                    out.append(cls._case("degenerate", triple, slot))
        return out

    @staticmethod
    def warmup_args(workdir: str) -> list:
        return [SolveStrata._case("generic", (1.0, 0.5 + 0.25j, -0.75j), 648).arg]

    @staticmethod
    def check(case: Case, out) -> tuple[str | None, float]:
        oc, sol = out
        want = case.ref["count"]
        if oc.count != want or sol.filtered_count != want:
            return f"count {oc.count}/{sol.filtered_count} != {want}", math.nan
        if not _triple_found(sol.triples, case.ref["triple"]):
            return "generating triple not among the solutions", math.nan
        return None, math.nan


# --- normal-form ---------------------------------------------------------------

_W = np.zeros((3, 3, 3), dtype=complex)
_W[0, 0, 1] = _W[0, 1, 0] = _W[1, 0, 0] = 1.0


class NormalForm:
    """The body of ``trimoduli normal-form``: invariants, the filtering
    iteration, solve and ``verify_vinberg`` (which computes the limit's
    invariants; an unconverged run computes them directly instead).

    The step count of the iteration depends on the normal-form parameters
    almost alone (about 5% spread over local transforms of one orbit, 160 to
    10000 steps over orbits), so the parameters come from a fixed corpus and
    the seed draws the local transforms and the nullcone states.  A seeded
    draw of parameters made the tail and throughput of a run depend mostly on
    which slow orbits it happened to get."""

    name = "normal-form"
    # g generic, p random product state, w W-type state under a random transform
    BLOCK = "g" * 47 + "p" + "g" * 47 + "w"
    BLOCK_SECONDS = 32.0
    CORPUS_SEED = 0

    @staticmethod
    def op(s):
        inv = concomitants.invariants(s)
        try:
            limit, trace = slocc_normalize.normalize_slocc(s, tol=NF_TOL, max_iter=NF_MAX_ITER)
        except Exception as exc:  # the invariants are still checked
            return inv, exc, None
        verdict = None
        if trace.status == slocc_normalize.CONVERGED:
            sol = form_problem.solve(FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
            verdict = slocc_normalize.verify_vinberg(limit, sol)
        else:
            concomitants.invariants(limit)
        return inv, trace.status, verdict

    @staticmethod
    def _unit(s):
        return s.scaled(1.0 / math.sqrt(s.norm_sq))

    @staticmethod
    def corpus(seed: int, n: int) -> list[tuple[int, object]]:
        """The first ``n`` normal forms of the fixed corpus, each with its
        index in the corpus, scrambled by transforms drawn from ``seed``."""
        rng, corpus = Rng(seed, 3), Rng(NormalForm.CORPUS_SEED, 3)
        out = []
        for index in range(n):
            triple = qutrit_state.random_parameter_triple(corpus.subseed())
            out.append((index, *scrambled_state(triple, rng.subseed())))
        return out

    @classmethod
    def cases(cls, seed: int, blocks: int, workdir: str) -> list[Case]:
        rng = Rng(seed, 5)
        generic = iter(cls.corpus(seed, blocks * cls.BLOCK.count("g")))
        zero = {d: 0j for d in DEGREES}
        out = []
        for _ in range(blocks):
            for slot in cls.BLOCK:
                if slot == "g":
                    index, s, ref = next(generic)
                    out.append(Case("generic", s, {"inv": ref, "status": "converged", "norm": 1.0,
                                                   "corpus": index}))
                elif slot == "p":
                    amp = np.einsum("i,j,k->ijk", rng.vector(), rng.vector(), rng.vector())
                    out.append(Case("product", cls._unit(qutrit_state.State(amp)),
                                    {"inv": zero, "status": "unstable", "norm": 1.0}))
                else:
                    s = qutrit_state.apply_local(qutrit_state.State(_W),
                                                 qutrit_state.random_local_transform(rng.subseed()))
                    out.append(Case("w-type", cls._unit(s),
                                    {"inv": zero, "status": "unstable", "norm": 1.0}))
        return out

    warmup_args = InvariantsClassify.warmup_args

    @staticmethod
    def check(case: Case, out) -> tuple[str | None, float]:
        inv, status, verdict = out
        err = invariant_rel_err(by_degree(inv), case.ref["inv"], case.ref["norm"])
        if not err <= INVARIANT_REL_TOL:
            return f"invariants rel err {err:.1e}", err
        if isinstance(status, Exception):
            return failure_reason(status), err
        if status != case.ref["status"]:
            return status, err
        if verdict is not None and not verdict["ok"]:
            return "verify_vinberg not ok", err
        return None, err


# --- cli-warm ------------------------------------------------------------------

class CliWarm:
    """One ``trimoduli.cli.main(argv)`` call per op in a warm process: the CLI
    layer (argument parsing, state-file reading, the JSON report) around the
    library calls each command makes.  The import, calibration and group
    closure that a fresh ``python -m trimoduli.cli`` pays on every command are
    paid once here, in set-up; the cli-cold workload of ``run.py`` measures
    them per command.  ``group-verify`` is left out: warm, it re-runs the
    exact invariance proof, and its first call doubles the set-up time.

    The state files hold scrambled normal forms of the normal-form corpus;
    ``solve`` takes exact invariant values in the mix of solve-strata and
    ``orbit`` takes a generic point or a multiple of a stratum point."""

    name = "cli-warm"
    # each state file is read by invariants and classify, the first of a block
    # also by normal-form, and followed by one solve and one orbit.  With
    # fewer than ten normal-form ops in a run, the tail is the invariants
    # command, 24 ops of about the same time; the slowest normal-form orbits
    # of the corpus are spread out and made the tail unsteady.
    STATES_PER_BLOCK = 3
    BLOCK_SECONDS = 1.6
    ORBIT_POINTS = ("g", 27, 72, 216)

    @staticmethod
    def op(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _complex_args(names, values) -> tuple[str, ...]:
        return tuple(f"--{n}={complex(v)!r}" for n, v in zip(names, values))

    @classmethod
    def cases(cls, seed: int, blocks: int, workdir: str) -> list[Case]:
        rng = Rng(seed, 6)
        n_states = blocks * cls.STATES_PER_BLOCK
        solves = iter(SolveStrata.cases(seed, math.ceil(n_states / len(SolveStrata.BLOCK)), workdir))
        out = []
        for index, s, inv in NormalForm.corpus(seed, n_states):
            path = os.path.join(workdir, f"state-{index}.json")
            qutrit_state.write_state(path, s)
            ref = {"inv": inv, "count": 648, "status": "converged", "norm": 1.0, "corpus": index}
            commands = ("invariants", "classify")
            if index % cls.STATES_PER_BLOCK == 0:
                commands += ("normal-form",)
            out += [Case(command, (command, path), dict(ref)) for command in commands]

            solve = next(solves)
            inp = solve.arg
            out.append(Case("solve", ("solve", *cls._complex_args("abc", (inp.a, inp.b, inp.c)),
                                      *cls._complex_args(["i9"], [inp.i9]), "--full"), solve.ref))

            slot = cls.ORBIT_POINTS[index % len(cls.ORBIT_POINTS)]
            if slot == "g":
                point, count = tuple(rng.vector()), 648
            else:
                z = rng.unit_multiple()
                point, count = tuple(z * c for c in STRATUM_POINTS[slot]), slot
            out.append(Case("orbit", ("orbit", *cls._complex_args("uvw", point)), {"count": count}))
        return out

    @classmethod
    def warmup_args(cls, workdir: str) -> list:
        path = os.path.join(workdir, "warmup.json")
        qutrit_state.write_state(path, InvariantsClassify.warmup_args(workdir)[0])
        return [("invariants", path), ("classify", path), ("normal-form", path),
                ("solve", "--a=12", "--b=0", "--c=0", "--i9=-2", "--full"),
                ("orbit", "--u=1", "--v=-1", "--w=0")]

    @staticmethod
    def check(case: Case, out) -> tuple[str | None, float]:
        code, stdout, stderr = out
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            lines = stderr.strip().splitlines()
            return f"exit {code}: {lines[-1] if lines else 'no report'}", math.nan
        ref, err = case.ref, math.nan
        if case.kind in ("invariants", "classify", "normal-form"):
            # classify reports I6, I9, I12, I18 as a, i9, b, c
            keys = ("a", "i9", "b", "c") if case.kind == "classify" else ("I6", "I9", "I12", "I18")
            values = report["input_invariants"] if case.kind == "normal-form" else report
            got = {d: complex(*values[k]) for d, k in zip(DEGREES, keys)}
            err = invariant_rel_err(got, ref["inv"], ref["norm"])
            if not err <= INVARIANT_REL_TOL:
                return f"invariants rel err {err:.1e}", err
        if code != 0:
            return report.get("status") or f"exit {code}", err
        if case.kind == "invariants":
            return (None if report["semistable"] else "not semistable"), err
        if case.kind == "classify" and report["count"] != ref["count"]:
            return f"count {report['count']} != {ref['count']}", err
        if case.kind == "normal-form":
            if report["status"] != ref["status"]:
                return report["status"], err
            if report["candidate_count"] != ref["count"] or not report["verdict"]["ok"]:
                return "verify_vinberg not ok", err
        if case.kind == "solve":
            triples = [tuple(complex(*z) for z in t) for t in report["triples"]]
            if report["count"] != ref["count"] or len(triples) != ref["count"]:
                return f"count {report['count']}/{len(triples)} != {ref['count']}", err
            if not _triple_found(triples, ref["triple"]):
                return "generating triple not among the solutions", err
        if case.kind == "orbit" and (report["orbit_size"] != ref["count"]
                                     or report["stabilizer_order"] * ref["count"] != 648):
            return f"orbit {report['orbit_size']} != {ref['count']}", err
        return None, err


WARM = {w.name: w for w in (InvariantsClassify, SolveStrata, NormalForm, CliWarm)}


# --- known defects ---------------------------------------------------------------

# per workload: (kind, condition on the reference, pattern of the failure
# reason).  Each is a defect of the package as it stands, reproduced when the
# benchmark was written; a failure is excused only when all three match.
_OVERFLOW = r"^OverflowError: "  # s ** 168 in classify's case-tree prediction
_STAB_ORDER = r"^FormProblemError: stabilizer order \d+ does not match"
# seen: 342 and 540 on the 72 and 216 strata, 324 on the 27 stratum
_INADMISSIBLE = r"^FormProblemError: enumerated count \d+ is outside the admissible strata$"
# corpus orbits of NormalForm whose filtering iteration reaches max_iter
SLOW_CORPUS_ORBITS = frozenset({90})
_SLOW_ORBIT = (lambda ref: ref["corpus"] in SLOW_CORPUS_ORBITS, r"^max-iterations$")
_ANY = lambda ref: True  # noqa: E731

KNOWN_DEFECTS = {
    "invariants-classify": (
        ("scaled", lambda ref: ref["norm"] >= 1e3, _OVERFLOW),
        ("scaled", lambda ref: ref["norm"] <= 1e-6, _STAB_ORDER),
        ("degenerate", _ANY, _INADMISSIBLE),
        ("degenerate", lambda ref: ref["count"] == 27, r"^count 648 != 27$"),
    ),
    "solve-strata": (
        ("degenerate", lambda ref: ref["count"] == 27, r"^count 216/216 != 27$"),
    ),
    "normal-form": (
        ("generic", *_SLOW_ORBIT),
        ("product", _ANY, r"^ConditioningError: reduced density of party \d went numerically singular"),
        ("w-type", _ANY, r"^converged$"),
    ),
    "cli-warm": (
        ("normal-form", *_SLOW_ORBIT),
        ("solve", lambda ref: ref["count"] == 27, r"^count 216/216 != 27$"),
    ),
}

# (kind, pattern): failures seen now and then on inputs that otherwise pass,
# excused up to one in RARE_OPS ops of that kind (at least one per run)
RARE_DEFECTS = (
    ("generic", _INADMISSIBLE),  # once in about 1600 scrambled generic states
    ("degenerate", _INADMISSIBLE),  # once in about 850 multiples of stratum points
    ("solve", _INADMISSIBLE),
)
RARE_OPS = 500


def unexpected_failures(workload: str, failed: list[tuple], attempted: dict[str, int]) -> list[tuple]:
    """The failures that no documented defect explains.  ``failed`` holds
    tuples that start with (case, reason); ``attempted`` counts the ops of
    each kind."""
    known = KNOWN_DEFECTS[workload]
    rare_left = {kind: max(1, math.ceil(attempted.get(kind, 0) / RARE_OPS))
                 for kind, _ in RARE_DEFECTS}
    out = []
    for item in failed:
        case, reason = item[:2]
        if any(kind == case.kind and when(case.ref) and re.search(pattern, reason)
               for kind, when, pattern in known):
            continue
        if any(kind == case.kind and re.search(pattern, reason) for kind, pattern in RARE_DEFECTS) \
                and rare_left[case.kind] > 0:
            rare_left[case.kind] -= 1
            continue
        out.append(item)
    return out
