"""Command-line interface tying the pipeline together.

Every command prints one JSON report to stdout (floats with 17 significant
digits, complex values as [re, im] pairs) and diagnostics to stderr.
Exit codes: 0 success, 1 invalid input (argparse rejections and unwritable
output paths included), 2 numerical failure, 3 internal verification mismatch.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import __version__, concomitants, form_problem, reflection_group, slocc_normalize
from .qutrit_state import StateIOError, random_state, read_state, write_state

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


def _fmt(value) -> str:
    if isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == complex:
        # a triple set: each distinct float (by its bits) formatted once, one % fills the rows
        bits, index = np.unique(np.ascontiguousarray(value).view(np.uint64), return_inverse=True)
        texts = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
        row = "[" + ", ".join(["[%s, %s]"] * value.shape[1]) + "]"
        return "[" + ", ".join([row] * len(value)) % tuple(texts[index.ravel()].tolist()) + "]"
    if isinstance(value, complex):
        return f"[{value.real:.17g}, {value.imag:.17g}]"
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        inner = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_report(command: str, payload: dict) -> None:
    sys.stdout.write(_fmt({"command": command, "version": __version__, **payload}) + "\n")


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite complex number: {text!r}")
    return value


def _invariants_payload(inv: concomitants.InvariantSet) -> dict:
    """The invariants by name; ArithmeticError naming the first one that is
    not finite, which JSON cannot carry."""
    payload = dict(zip(("I6", "I9", "I12", "I18", "Delta"), inv))
    for name, value in payload.items():
        if not cmath.isfinite(value):
            raise ArithmeticError(f"invariant {name} is not finite: {value}")
    return payload


def cmd_invariants(args) -> int:
    s = read_state(args.path)
    inv = concomitants.invariants(s)
    payload = _invariants_payload(inv)
    degree = concomitants.leading_degree(s.amplitudes, inv)
    payload["semistable"] = degree is not None
    payload["witness"] = None if degree is None else f"I{degree}"
    payload["projective"] = (None if degree is None
                             else list(concomitants.projective_point(inv, degree)))
    emit_report("invariants", payload)
    return EXIT_OK


def cmd_classify(args) -> int:
    inv = concomitants.invariants(read_state(args.path))
    _invariants_payload(inv)  # a non-finite invariant is a numerical failure
    oc = form_problem.classify(form_problem.FormProblemInput(
        inv.i6, inv.i12, inv.i18, i9=inv.i9))
    emit_report("classify", _orbit_class_payload(inv.i6, inv.i12, inv.i18, oc))
    return EXIT_OK


def _orbit_class_payload(a, b, c, oc: form_problem.OrbitClass) -> dict:
    return {
        "a": complex(a), "b": complex(b), "c": complex(c), "i9": oc.i9_used,
        "D": oc.d_discriminant, "delta": oc.delta,
        "count": oc.count, "polytope_label": oc.polytope_label,
        "stabilizer_label": oc.stabilizer_label,
        "stabilizer_order": oc.stabilizer_order,
    }


def cmd_normal_form(args) -> int:
    if args.max_candidates < 0:
        raise ValueError("--max-candidates must be non-negative")
    s = read_state(args.path)
    limit, trace = slocc_normalize.normalize_slocc(s, tol=args.tol, max_iter=args.max_iter)
    inv = trace.input_invariants()
    limit_inv = concomitants.invariants(limit)
    norm_sq = {}
    for name, step in (("initial_norm_sq", trace.steps[0]), ("final_norm_sq", trace.steps[-1])):
        try:
            norm_sq[name] = math.ldexp(step.norm_sq, 2 * trace.exponent)
        except OverflowError:
            raise OverflowError(f"{name} leaves the float range") from None
    payload = {
        "status": trace.status,
        "steps": len(trace.steps) - 1,
        **norm_sq,
        "final_max_rel_deviation": trace.steps[-1].max_rel_deviation,
        "input_invariants": _invariants_payload(inv),
        "limit_invariants": _invariants_payload(limit_inv),
    }
    if trace.status != slocc_normalize.CONVERGED:
        payload["verdict"] = None
        emit_report("normal-form", payload)
        if trace.status == slocc_normalize.UNSTABLE:
            return EXIT_OK
        # off the null cone, yet not converged: name how far the leading
        # invariant of the state the iteration ran on stands above rounding
        unit, _ = reflection_group.unit_size(s.amplitudes)
        margins = concomitants.invariant_margins(unit, trace.unit_invariants)
        margin = dict(zip(concomitants.INVARIANT_DEGREES, margins))[trace.degree]
        print(f"numerical failure: filtering stopped at max-iterations after "
              f"{payload['steps']} steps with deviation {payload['final_max_rel_deviation']:.3g} "
              f"> tol {args.tol:.3g}; leading invariant I{trace.degree} stands {margin:.3g} "
              f"eps times its error bound", file=sys.stderr)
        return EXIT_NUMERICAL
    sol = form_problem.solve(form_problem.FormProblemInput(
        inv.i6, inv.i12, inv.i18, i9=inv.i9))
    report = slocc_normalize.verify_vinberg(limit, sol, limit_inv=limit_inv)
    payload["candidate_count"] = sol.filtered_count
    payload["candidates_sample"] = sol.triples[:args.max_candidates]
    payload["verdict"] = report
    emit_report("normal-form", payload)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def cmd_solve(args) -> int:
    inp = form_problem.FormProblemInput(args.a, args.b, args.c, i9=args.i9)
    sol = form_problem.solve(inp)
    oc = form_problem.classify(inp)
    payload = _orbit_class_payload(args.a, args.b, args.c, oc)
    payload["raw_count"] = sol.raw_count
    if args.full:
        payload["triples"] = sol.triples
    else:
        payload["triples_sample"] = sol.triples[:5]
    emit_report("solve", payload)
    return EXIT_OK


def cmd_orbit(args) -> int:
    group = reflection_group.group_k()
    triple = (args.u, args.v, args.w)
    points = reflection_group.orbit(group, triple)
    stab = reflection_group.stabilizer(group, triple)
    label = reflection_group.stabilizer_type(stab)
    if len(points) * stab.order != group.order:
        raise RuntimeError(
            f"orbit-stabilizer mismatch: {len(points)} * {stab.order} != {group.order}")
    payload = {
        "orbit_size": len(points),
        "stabilizer_order": stab.order,
        "stabilizer_label": label,
    }
    if args.full:
        payload["points"] = points
    emit_report("orbit", payload)
    return EXIT_OK


def cmd_group_verify(args) -> int:
    k = reflection_group.group_k()
    h = reflection_group.group_h()
    residuals = reflection_group.verify_invariance(k)
    unitary = reflection_group.is_unitary(k)
    payload = {
        "K_order": k.order,
        "H_order": h.order,
        "K_unitary": unitary,
        "invariance_residuals": residuals,
    }
    emit_report("group-verify", payload)
    ok = (k.order == 648 and h.order == 1296 and unitary
          and all(r == 0 for entry in residuals.values() for r in entry.values()))
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_syzygies(args) -> int:
    s = random_state(args.seed)
    results = concomitants.syzygy_residuals(s, seed=args.seed + 1)
    payload = {
        "seed": args.seed,
        "residuals": {name: res for name, res in results},
        "max_residual": max(res for _, res in results),
    }
    emit_report("syzygies", payload)
    return EXIT_OK if payload["max_residual"] < 1e-9 else EXIT_VERIFICATION


def cmd_random(args) -> int:
    s = random_state(args.seed)
    write_state(args.out, s)
    emit_report("random", {"seed": args.seed, "out": str(args.out),
                           "norm_sq": s.norm_sq})
    return EXIT_OK


def cmd_emit_points(args) -> int:
    points = form_problem.emit_configuration(args.case, path=args.out)
    emit_report("emit-points", {"case": args.case, "out": str(args.out),
                                "count": len(points)})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections exit with EXIT_INVALID_INPUT."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; its subcommand parsers
    are of the same class."""
    parser = _Parser(
        prog="trimoduli",
        description="Invariants, normal forms and the form problem for three-qutrit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="fundamental invariants of a state file")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", help="solution stratum of a state file")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("normal-form", help="run the filtering iteration and verify")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--max-candidates", type=int, default=5)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("solve", help="solve the form problem for (a, b, c [, i9])")
    p.add_argument("--a", type=_parse_complex, required=True)
    p.add_argument("--b", type=_parse_complex, required=True)
    p.add_argument("--c", type=_parse_complex, required=True)
    p.add_argument("--i9", type=_parse_complex, default=None)
    p.add_argument("--full", action="store_true", help="print the full triple list")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("orbit", help="symmetry-group orbit and stabilizer of a triple")
    p.add_argument("--u", type=_parse_complex, required=True)
    p.add_argument("--v", type=_parse_complex, required=True)
    p.add_argument("--w", type=_parse_complex, required=True)
    p.add_argument("--full", action="store_true", help="print all orbit points")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("group-verify", help="group orders and exact invariance checks")
    p.set_defaults(func=cmd_group_verify)

    p = sub.add_parser("syzygies", help="evaluate the twelve syzygies on a seeded state")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_syzygies)

    p = sub.add_parser("random", help="write a seeded random state file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("out")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("emit-points", help="write a polytope point configuration as CSV")
    p.add_argument("--case", required=True, choices=sorted(form_problem.CANONICAL_CASES))
    p.add_argument("out")
    p.set_defaults(func=cmd_emit_points)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StateIOError, form_problem.FormProblemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RuntimeError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
