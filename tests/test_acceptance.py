"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints an ACCEPTANCE line (visible with -s / -rA).
"""
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from trimoduli import concomitants as con
from trimoduli import form_problem as fp
from trimoduli import reflection_group as rg
from trimoduli import slocc_normalize as sn
from trimoduli.qutrit_state import (
    State,
    apply_local,
    normal_form_state,
    random_local_transform,
    random_parameter_triple,
    random_state,
)

from oracles import (
    calibration_report,
    element_rows,
    exponent,
    is_abelian,
    jacobian_check,
    set_distance,
    slice_cubic,
    solve_for_triple,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

STATE_SEEDS = [1000 + i for i in range(20)]
TRIPLE_SEEDS = [3000 + i for i in range(100)]
GENERIC_SOLVE_SEEDS = [4000 + i for i in range(10)]
ROUND_TRIP_SEEDS = [5000 + i for i in range(10)]
NORMALIZE_SEEDS = [6000 + i for i in range(10)]


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_group_orders():
    gens = rg.generators()
    start = time.monotonic()
    k = rg.generate_closure((gens["A"], gens["C"], gens["D"], gens["E"]))
    h = rg.generate_closure((gens["A"], gens["B"], gens["C"], gens["D"], gens["E"]))
    elapsed = time.monotonic() - start
    assert k.order == 648
    assert h.order == 1296
    assert elapsed < 10.0
    _report(1, f"group orders 648/1296 in {elapsed:.2f}s")


def test_criterion_02_slocc_invariance():
    worst = 0.0
    for i, seed in enumerate(STATE_SEEDS):
        s = random_state(seed)
        base = con.invariants(s)
        for j in range(10):
            g = random_local_transform(2000 + 17 * i + j)
            moved = con.invariants(apply_local(s, g))
            for a, b in zip((base.i6, base.i9, base.i12),
                            (moved.i6, moved.i9, moved.i12)):
                drift = abs(a - b) / abs(a)
                worst = max(worst, drift)
                assert drift < 1e-8
    _report(2, f"SLOCC invariance drift (worst {worst:.2e} < 1e-8)")


def test_criterion_03_calibration_specialization():
    # the committed report must be what the exact calibration derives, in
    # the writer's serialisation: indent 2, sorted keys, a trailing newline
    committed = (REPO_ROOT / "calibration_report.json").read_text(encoding="utf-8")
    assert committed == json.dumps(calibration_report(), indent=2, sort_keys=True) + "\n"
    worst = 0.0
    for seed in TRIPLE_SEEDS:
        t = random_parameter_triple(seed)
        inv = con.invariants(normal_form_state(t))
        cv = con.c_formulas(*t)
        for got, want in ((inv.i6, cv.c6), (inv.i9, cv.c9),
                          (inv.i12, cv.c12), (inv.i18, cv.c18)):
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            assert rel < 1e-9
    _report(3, f"normal-form specialization of I6/I9/I12/I18 (worst {worst:.2e} < 1e-9)")


def test_criterion_04_syzygies():
    worst = 0.0
    for i in range(10):
        s = random_state(7000 + i)
        residuals = con.syzygy_residuals(s, seed=7100 + i)
        assert len(residuals) == 12
        for name, res in residuals:
            worst = max(worst, res)
            assert res < 1e-9, name
    _report(4, f"12 syzygies at random points (worst residual {worst:.2e} < 1e-9)")


def test_criterion_05_form_problem_counts():
    timings = []
    for seed in GENERIC_SOLVE_SEEDS:
        t = random_parameter_triple(seed)
        cv = con.c_formulas(*t)
        start = time.monotonic()
        sol = fp.solve(fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=cv.c9))
        timings.append(time.monotonic() - start)
        assert sol.filtered_count == 648
    for args, want in (((12, 0, 0, -2), 27), ((0, 0, 0, 0), 1),
                       ((1, 1, 1, 0), 72), ((1, 0.25, -0.125, 0), 216)):
        start = time.monotonic()
        sol = fp.solve(fp.FormProblemInput(*args))
        timings.append(time.monotonic() - start)
        assert sol.filtered_count == want, args
    assert max(timings) < 5.0
    _report(5, f"solution counts 648/27/1/72/216 (slowest run {max(timings):.2f}s < 5s)")


def test_criterion_06_round_trip():
    group = rg.group_k()
    for seed in ROUND_TRIP_SEEDS:
        t = random_parameter_triple(seed)
        sol = solve_for_triple(t)
        contains = min(max(abs(a - b) for a, b in zip(tr, t)) for tr in sol.triples)
        assert contains < 1e-7
        orbit_pts = rg.orbit(group, tuple(t))
        assert set_distance(orbit_pts, sol.triples) < 1e-6
    _report(6, "round trip: solution sets equal group orbits and contain the seed triple")


def test_criterion_07_cubic_geometry():
    worst_st = worst_s12 = 0.0
    for i in range(20):
        s = random_state(8000 + i)
        pairs = [con.aronhold(slice_cubic(s, axis)) for axis in ("x", "y", "z")]
        scale = max(abs(pairs[0].s), abs(pairs[0].t))
        for p in pairs[1:]:
            worst_st = max(worst_st, abs(p.s - pairs[0].s) / scale,
                           abs(p.t - pairs[0].t) / scale)
        assert worst_st < 1e-9
        # -6^4 S against the closed C12 of a det-1-scrambled normal form
        t = random_parameter_triple(8000 + i)
        scrambled = apply_local(normal_form_state(t), random_local_transform(8100 + i))
        i12 = con.c_formulas(*t).c12
        rel = abs(1296 * con.aronhold(slice_cubic(scrambled, "x")).s + i12) / abs(i12)
        worst_s12 = max(worst_s12, rel)
        assert rel < 1e-9
    worst_delta = 0.0
    for seed in TRIPLE_SEEDS:
        t = random_parameter_triple(seed)
        delta = con.invariants(normal_form_state(t)).delta
        want = con.c12_prime(*t) ** 3
        rel = abs(delta - want) / abs(want)
        worst_delta = max(worst_delta, rel)
        assert rel < 1e-9
    _report(7, "slice cubics share (S,T); 6^4 S = -I12; Delta = C12'^3 "
               f"(worst {max(worst_st, worst_s12, worst_delta):.2e} < 1e-9)")


def test_criterion_08_normalization():
    for seed in NORMALIZE_SEEDS:
        t = random_parameter_triple(seed)
        g = random_local_transform(seed + 500)
        s = apply_local(normal_form_state(t), g)
        inv_in = con.invariants(s)
        limit, trace = sn.normalize_slocc(s, tol=1e-10)
        assert trace.status == sn.CONVERGED
        norms = [st.norm_sq for st in trace.steps]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        from trimoduli.qutrit_state import reduced_density

        for party in (1, 2, 3):
            rho = reduced_density(limit, party)
            dev = np.linalg.norm(rho - rho.trace() / 3 * np.eye(3), "fro") / rho.trace().real
            assert dev < 1e-10
        inv_out = con.invariants(limit)
        for a, b in zip((inv_in.i6, inv_in.i9, inv_in.i12),
                        (inv_out.i6, inv_out.i9, inv_out.i12)):
            assert abs(a - b) <= 1e-6 * abs(a)
        sol = fp.solve(fp.FormProblemInput(inv_in.i6, inv_in.i12, inv_in.i18,
                                           i9=inv_in.i9))
        report = sn.verify_vinberg(limit, sol)
        assert report["ok"]

    product = np.zeros((3, 3, 3), dtype=complex)
    product[0, 0, 0] = 1.0
    limit, trace = sn.normalize_slocc(State(product))
    assert trace.status == sn.UNSTABLE
    inv = con.invariants(State(product))
    assert max(abs(v) for v in inv) < 1e-12
    _report(8, "filtering converges on scrambled normal forms and flags the null cone")


def test_criterion_09_degenerate_identities():
    # exact rational vanishing of delta on the invariants of N(1,1,-1)
    cv = con.c_formulas(Fraction(1), Fraction(1), Fraction(-1))
    assert (cv.c6, cv.c12, cv.c18) == (13, -215, -5291)
    a, b, c = Fraction(13), Fraction(-215), Fraction(-5291)
    assert a ** 3 - 3 * a * b + 2 * c == 0

    worst = 0.0
    for i in range(50):
        t = random_parameter_triple(9000 + i)
        v = con.c_formulas(*t)
        delta = v.c6 ** 3 - 3 * v.c6 * v.c12 + 2 * v.c18
        rel = abs(delta - 432 * v.c9 ** 2) / abs(delta)
        worst = max(worst, rel)
        assert rel < 1e-8

    ratios = [jacobian_check(random_parameter_triple(9500 + i)).ratio
              for i in range(20)]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) < 1e-8 * abs(ratios[0])
    _report(9, f"delta(13,-215,-5291) = 0 exactly; delta = 432 C9^2 "
               f"(worst {worst:.2e}); Jacobian/C12'^2 constant")


def test_criterion_10_stabilizers():
    group = rg.group_k()
    strata = [
        (random_parameter_triple(9900), 648, 1),
        (None, 216, 3),
        (None, 72, 9),
        (None, 27, 24),
    ]
    inputs = {216: (1, 0.25, -0.125, 0), 72: (1, 1, 1, 0), 27: (12, 0, 0, -2)}
    for triple, count, order in strata:
        if triple is None:
            sol = fp.solve(fp.FormProblemInput(*inputs[count]))
            assert sol.filtered_count == count
            triple = sol.triples[0]
        else:
            sol = solve_for_triple(triple)
            assert sol.filtered_count == count
            triple = tuple(triple)
        stab = rg.stabilizer(group, triple, tol=1e-6)
        assert stab.order == order
        assert count * order == 648
        if order == 9:
            assert is_abelian(element_rows(stab))
            assert exponent(element_rows(stab)) == 3
        if order == 24:
            assert not is_abelian(element_rows(stab))
    _report(10, "stabilizer orders 1/3/9/24 with count x order = 648 and structure checks")
