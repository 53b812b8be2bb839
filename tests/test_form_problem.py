import cmath
import csv
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimoduli import form_problem as fp
from trimoduli import reflection_group as rg
from trimoduli.concomitants import c_formulas, invariants
from trimoduli.poly_engine import Poly
from trimoduli.qutrit_state import (apply_local, normal_form_state, random_local_transform,
                                    random_parameter_triple, random_state)

from oracles import (companion_roots, enumerate_triples_array, filter_sign_array, poly_diff,
                     poly_eval, set_distance, solve_enumerated, solve_for_triple, solve_loop)


def poly_residual(coeffs, roots):
    scale = max(abs(complex(c)) for c in coeffs)
    return max(abs(fp._poly_eval(list(coeffs), r)) for r in roots) / scale


class TestRadicalSolvers:
    def test_cube_roots_of_unity(self):
        roots = fp.solve_cubic_radicals(1, 0, 0, -1)
        want = [1, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
        for w in want:
            assert min(abs(r - w) for r in roots) < 1e-12

    def test_quartic_with_triple_root(self):
        # 27 P^4 - 18 P^2 - 8 P - 1 = 27 (P - 1)(P + 1/3)^3
        roots = fp.solve_quartic_radicals(27, 0, -18, -8, -1)
        clustered = fp.cluster_roots(roots, [27, 0, -18, -8, -1])
        values = sorted(clustered, key=lambda rm: rm[0].real)
        assert [m for _, m in values] == [3, 1]
        assert abs(values[0][0] + 1 / 3) < 1e-10
        assert abs(values[1][0] - 1) < 1e-12

    def test_degenerate_quartic_with_zero_root(self):
        # b = 0: the quartic is P(27 P^3 - 8c)
        c = 2.0 + 1.0j
        roots = fp.solve_quartic_radicals(27, 0, 0, -8 * c, 0)
        assert min(abs(r) for r in roots) < 1e-12
        for r in roots:
            if abs(r) > 1e-9:
                assert abs(27 * r ** 3 - 8 * c) < 1e-9

    def test_residuals_random_cubics(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            coeffs = [complex(a, b) for a, b in rng.standard_normal((4, 2))]
            roots = fp.solve_cubic_radicals(*coeffs)
            assert poly_residual(coeffs, roots) < 1e-9

    def test_residuals_random_quartics(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            coeffs = [complex(a, b) for a, b in rng.standard_normal((5, 2))]
            roots = fp.solve_quartic_radicals(*coeffs)
            assert poly_residual(coeffs, roots) < 1e-9

    def test_matches_companion_oracle(self):
        rng = np.random.default_rng(57)
        for degree in (3, 4):
            for _ in range(20):
                coeffs = [complex(a, b) for a, b in rng.standard_normal((degree + 1, 2))]
                if degree == 3:
                    mine = fp.solve_cubic_radicals(*coeffs)
                else:
                    mine = fp.solve_quartic_radicals(*coeffs)
                oracle = companion_roots(coeffs)
                assert len(mine) == len(oracle)
                used = set()
                for r in mine:
                    best = min((i for i in range(len(oracle)) if i not in used),
                               key=lambda i: abs(oracle[i] - r))
                    assert abs(oracle[best] - r) < 1e-8
                    used.add(best)


# one point each of the 27-, 72- and 216-point strata
STRATUM_POINTS = ((0, 1, -1), (1, 0, 0), (1, 1, 0))
SEEDS = st.integers(0, 2 ** 32 - 1)


def _stratum_multiple(point, r, theta, exponent):
    z = r * 10.0 ** exponent * cmath.exp(1j * theta)
    return tuple(z * c for c in point)


TRIPLES = st.one_of(SEEDS.map(random_parameter_triple),
                    st.builds(_stratum_multiple, st.sampled_from(STRATUM_POINTS),
                              st.floats(0.5, 2.0), st.floats(0.0, 2 * cmath.pi),
                              st.integers(-9, 3)))


def _closed_form_input(t):
    cv = c_formulas(*t)
    return fp.FormProblemInput(cv.c6, cv.c12, cv.c18)


def _scrambled_input(t, seed):
    inv = invariants(apply_local(normal_form_state(t), random_local_transform(seed)))
    return fp.FormProblemInput(inv.i6, inv.i12, inv.i18)


PSI_INPUTS = st.one_of(TRIPLES.map(_closed_form_input),
                       st.builds(_scrambled_input, TRIPLES, SEEDS))


class TestPsiSystem:
    @settings(max_examples=300, deadline=None)
    @given(PSI_INPUTS)
    def test_branches_are_distinct(self, inp):
        # the branches are not merged: no two agree to 1e-8 of the largest
        # |psi| and |lam| in both psi and lam
        branches = fp.solve_psi_system(inp)
        psi_tol = 1e-8 * max((abs(br.psi) for br in branches), default=1e-300)
        lam_tol = 1e-8 * max((abs(br.lam) for br in branches), default=1e-300)
        for i, one in enumerate(branches):
            for other in branches[:i]:
                assert abs(one.psi - other.psi) > psi_tol or abs(one.lam - other.lam) > lam_tol

    def test_hessian_vertex_inputs(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(12, 0, 0))
        assert len(branches) == 1
        br = branches[0]
        assert br.psi == 0 and br.lam == 0
        assert abs(br.chi + 1) < 1e-12

    def test_origin(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(0, 0, 0))
        assert len(branches) == 1
        assert branches[0].psi == 0 and branches[0].lam == 0 and branches[0].chi == 0

    def test_generic_eight_branches(self):
        for seed in (60, 61, 62):
            t = random_parameter_triple(seed)
            cv = c_formulas(*t)
            branches = fp.solve_psi_system(fp.FormProblemInput(cv.c6, cv.c12, cv.c18))
            assert len(branches) == 8
            for br in branches:
                assert max(br.residuals) < 1e-9

    def test_b_zero_c_nonzero_has_eight_branches(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(1.0, 0.0, 2.0))
        assert len(branches) == 8  # two zero-psi branches plus six others
        zero = [br for br in branches if br.psi == 0]
        assert len(zero) == 2


# the invariants of a det-1-scrambled complex multiple of (0, 1, -1)
SCRAMBLED_HESSIAN_VERTEX = fp.FormProblemInput(
    a=9.307212412610708e-05 + 0.00010749439372213353j,
    b=2.9282033533835793e-69 + 1.0628997197533647e-68j, c=0j,
    i9=2.2937005673183452e-08 + 7.82831649828589e-08j)


class TestEnumeration:
    def test_hessian_vertex_raw_count(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(12, 0, 0))
        raw = enumerate_triples_array(branches, fp.FormProblemInput(12, 0, 0))
        assert raw.raw_count == 54

    def test_origin_raw_count(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(0, 0, 0))
        raw = enumerate_triples_array(branches, fp.FormProblemInput(0, 0, 0))
        assert raw.raw_count == 1
        assert np.array_equal(raw.triples, [(0, 0, 0)])

    def test_generic_raw_count(self):
        t = random_parameter_triple(63)
        cv = c_formulas(*t)
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18)
        raw = enumerate_triples_array(fp.solve_psi_system(inp), inp)
        assert raw.raw_count == 1296

    def test_scrambled_hessian_vertices(self):
        # invariants of a det-1-scrambled point of the 27 stratum: b is float
        # noise near 1e-68, not zero, so eight nearly equal psi-branches
        # survive and their checked rows coincide in groups of eight; the
        # case analysis takes the closed form, whose orbit holds them all
        inp = SCRAMBLED_HESSIAN_VERTEX
        branches = fp.solve_psi_system(inp)
        raw = enumerate_triples_array(branches, inp)
        assert len(branches) == 8
        assert raw.raw_count == len(raw.triples) == 432
        sol = fp.solve(inp)
        assert (sol.filtered_count, sol.raw_count, sol.dropped) == (27, 54, 0)
        rows = filter_sign_array(raw, inp.i9).triples
        assert set_distance(sol.triples, rows) < 1e-6 * np.abs(sol.triples).max()
        oc = fp.classify(inp)
        assert (oc.count, oc.stabilizer_label) == (27, "G4")


class TestSignFilter:
    def test_hessian_vertex_filter(self):
        inp = fp.FormProblemInput(12, 0, 0)
        raw = enumerate_triples_array(fp.solve_psi_system(inp), inp)
        sol = filter_sign_array(raw, -2.0)
        assert sol.filtered_count == 27
        assert min(max(abs(z - w) for z, w in zip(t, (1, -1, 0)))
                   for t in sol.triples) < 1e-9
        other = filter_sign_array(raw, +2.0)
        assert other.filtered_count == 27

    def test_generic_half(self):
        t = random_parameter_triple(64)
        sol = solve_for_triple(t)
        assert sol.raw_count == 1296
        assert sol.filtered_count == 648

    def test_origin(self):
        sol = fp.solve(fp.FormProblemInput(0, 0, 0, i9=0))
        assert sol.filtered_count == 1

    def test_inconsistent_sign_reported(self):
        inp = fp.FormProblemInput(12, 0, 0)
        raw = enumerate_triples_array(fp.solve_psi_system(inp), inp)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            filter_sign_array(raw, 5.0)


def _bits(sol):
    """The triples of a solution set as raw float bits, row by row."""
    return np.array(sol.triples, dtype=complex).reshape(-1, 3).view(np.uint64)


def _oracle_cases():
    """Seeded inputs on every stratum as (t, tol, input): generic triples,
    complex multiples of one point of each degenerate stratum and the
    origin, each triple t with its invariants from `c_formulas` (tol 1e-10)
    and det-1-scrambled and read back through `invariants` (tol 1e-6, the
    rounding of the scramble); then, with t None, a sign datum that matches
    no solution and a scrambled point of the 27 stratum whose chain rows
    coincide in groups of eight."""
    rng = np.random.default_rng(808)
    triples = [tuple(random_parameter_triple(300 + k)) for k in range(6)]
    for point in ((0, 1, -1), (1, 0, 0), (1, 1, 0)):
        for _ in range(4):
            z = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 3)
            triples.append(tuple(z * c for c in point))
    triples.append((0j, 0j, 0j))
    cases = []
    for t in triples:
        cv = c_formulas(*t)
        c6, c12, c18, c9 = (complex(x) for x in (cv.c6, cv.c12, cv.c18, cv.c9))
        cases.append((t, 1e-10, fp.FormProblemInput(c6, c12, c18, i9=c9)))
        cases.append((t, 1e-10, fp.FormProblemInput(c6, c12, c18)))
    cases.append((None, 1e-10, fp.FormProblemInput(12, 0, 0, i9=5.0)))
    scrambled = [tuple(random_parameter_triple(320 + k)) for k in range(4)]
    for point in ((0, 1, -1), (1, 0, 0), (1, 1, 0)):
        for _ in range(4):
            z = complex(*rng.standard_normal(2))
            scrambled.append(tuple(z * c for c in point))
    for k, t in enumerate(scrambled):
        inv = invariants(apply_local(normal_form_state(t), random_local_transform(340 + k)))
        cases.append((t, 1e-6, fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9)))
    cases.append((None, 1e-6, SCRAMBLED_HESSIAN_VERTEX))
    return cases


def _oracle_inputs():
    return [inp for _, _, inp in _oracle_cases()]


class TestLoopOracle:
    """The array enumeration and sign filter of tests/oracles.py against its
    scalar loops: the arithmetic that builds the candidates is the same, so
    the solution sets agree bit for bit."""

    @pytest.mark.parametrize("inp", _oracle_inputs())
    def test_solve_matches_loop(self, inp):
        try:
            want = solve_loop(inp)
        except fp.FormProblemError as exc:
            with pytest.raises(fp.FormProblemError) as got:
                solve_enumerated(inp)
            assert str(got.value) == str(exc)
            return
        got = solve_enumerated(inp)
        assert (got.raw_count, got.filtered_count, got.dropped) \
            == (want.raw_count, want.filtered_count, want.dropped)
        assert np.array_equal(_bits(got), _bits(want))
        assert got.triples.dtype == np.complex128
        assert got.triples.shape == (got.filtered_count, 3)


def _same_points(a, b, rel):
    """Whether the rows of a and b are the same points up to rel times their
    largest entry: each row of b within that radius of exactly one row of a,
    the rows of a further apart."""
    flat = np.concatenate([a, b]).view(float)
    labels = rg.cluster_points(flat, rel * np.abs(flat).max())
    n = len(a)
    return (len(b) == n and np.array_equal(labels[:n], np.arange(n))
            and np.array_equal(np.sort(labels[n:]), np.arange(n)))


def _random_triple_inputs(count, seed):
    """Random complex triples at scales 1e-6..1e3 with the float invariants
    of each, every other one without i9."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        t = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 10 ** rng.uniform(-6, 3)
        c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
        out.append((t, fp.FormProblemInput(c6, c12, c18, i9=c9 if k % 2 else None)))
    return out


# the oracle cases and the normal form (1, 1, -1), where delta = 0
ENUMERATION_CASES = _oracle_cases() + [
    ((1, 1, -1), 1e-10, fp.FormProblemInput(13, -215, -5291, i9=0))]


class TestOrbitRoute:
    """Off the mirrors `solve` returns the K-orbit of the polished row of the
    first psi-branch; the enumeration of all branches is its oracle."""

    @staticmethod
    def _offered(monkeypatch):
        """The number of branches of each `enumerate_triples` call, as a list."""
        offered = []
        enumerate_triples = fp.enumerate_triples
        monkeypatch.setattr(fp, "enumerate_triples", lambda branches, inp: offered.append(
            len(branches)) or enumerate_triples(branches, inp))
        return offered

    def test_one_branch_then_the_orbit(self, monkeypatch, group_k):
        cv = c_formulas(*random_parameter_triple(68))
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=cv.c9)
        assert len(fp.solve_psi_system(inp)) == 8
        offered = self._offered(monkeypatch)
        sol = fp.solve(inp)
        assert offered == [1]
        assert np.array_equal(_bits(sol), rg.orbit(group_k, sol.triples[0]).view(np.uint64))
        wrong = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=2 * cv.c9)
        with pytest.raises(fp.FormProblemError,
                           match=r"no solutions match the sign datum .*: inconsistent input"):
            fp.solve(wrong)

    def test_jacobian_is_the_derivative_of_c_formulas(self):
        # the closed form against the exact partial derivatives of
        # `c_formulas` on the variables of `Poly`, evaluated at a row
        invariants_of_x = c_formulas(*(Poly.variable(i) for i in (1, 2, 3)))
        row = random_parameter_triple(70)
        want = np.array([[complex(poly_eval(poly_diff(c, i), row)) for i in (1, 2, 3)]
                         for c in invariants_of_x])
        assert np.abs(fp._jacobian(list(row)) - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_polished_row_per_branch(self, group_k):
        # every psi-branch holds points of both sign classes, so each gives
        # one row of the sign, on K.t; a sign datum that matches no
        # solution drops every row, as C18 then misses c
        t = np.array(random_parameter_triple(69))
        c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
        inp = fp.FormProblemInput(c6, c12, c18, i9=c9)
        branches = fp.solve_psi_system(inp)
        raw = fp.enumerate_triples(branches, inp)
        assert (raw.raw_count, raw.dropped, raw.triples.shape) == (8, 0, (8, 3))
        orbit = rg.orbit(group_k, t)
        for row in raw.triples:
            assert np.abs(orbit - row).max(axis=1).min() <= 1e-12 * np.abs(t).max()
        assert fp.filter_sign(raw, c9).filtered_count == 8
        wrong = fp.enumerate_triples(branches, fp.FormProblemInput(c6, c12, c18, i9=2 * c9))
        assert (wrong.raw_count, wrong.dropped, wrong.triples.shape) == (0, 8, (0, 3))
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.filter_sign(wrong, 2 * c9)

    def test_near_b_mirror_row_from_the_first_branch(self, monkeypatch, group_k):
        # v and w 4e-6 apart, next to the mirror v = w of B: the polished row
        # of the first branch has the sign of i9, and its orbit holds t and
        # is the set of the enumeration of all branches, whose clustered
        # near-double root puts v = w in its rows, |v - w| / sqrt(2) off K.t
        t = (1.5099831293121058e-05 - 1.014468137602427j,
             1.1888306785373703 + 0.6666833259020761j, 1.1888277812544144 + 0.666682548793781j)
        c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
        inp = fp.FormProblemInput(c6, c12, c18, i9=c9)
        want = solve_enumerated(inp)
        offered = self._offered(monkeypatch)
        got = fp.solve(inp)
        assert offered == [1]
        # the polished row keeps C9 = i9, so its sign class is not that of
        # -i9; the enumeration's rows have C9 near 0 and match either sign
        assert (got.raw_count, got.filtered_count, got.dropped) == (1296, 648, 0)
        assert (want.raw_count, want.filtered_count) == (648, 648)
        assert np.array_equal(_bits(got), rg.orbit(group_k, got.triples[0]).view(np.uint64))
        assert set_distance(got.triples, want.triples) <= abs(t[1] - t[2])
        assert np.abs(got.triples - t).max(axis=1).min() <= 1e-12 * np.abs(got.triples).max()

    def test_descent_that_never_settles_raises(self, monkeypatch):
        # images whose first row is never the point keep the descent moving:
        # it stops after |K| steps with an error instead of looping forever
        cv = c_formulas(*random_parameter_triple(68))
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=cv.c9)
        image_keys = rg.image_keys
        monkeypatch.setattr(rg, "image_keys", lambda group, t: (
            lambda vals, key: (vals + 1, key))(*image_keys(group, t)))
        with pytest.raises(fp.FormProblemError,
                           match=r"^the descent to a solved point.s first image did not settle "
                                 r"in 648 steps$"):
            fp.solve(inp)

    @pytest.mark.parametrize("t, tol, inp", ENUMERATION_CASES,
                             ids=[f"inp{k}" for k in range(len(ENUMERATION_CASES))])
    def test_matches_enumeration(self, t, tol, inp, group_k):
        # K.t is the oracle, and so is the enumeration where it lies on K.t
        # (on a stratum its rows may split and miscount)
        try:
            want = solve_enumerated(inp).triples
        except fp.FormProblemError as exc:
            with pytest.raises(fp.FormProblemError) as got:
                fp.solve(inp)
            assert str(got.value) == str(exc)
            return
        got = fp.solve(inp).triples
        radius = tol * np.abs(got).max()
        if t is not None:
            # without i9 the inferred sign class holds t or its swap of v and w
            found = [t] if inp.i9 is not None else [t, (t[0], t[2], t[1])]
            orbit = min((rg.orbit(group_k, x) for x in found), key=lambda o: set_distance(o, got))
            assert len(got) == len(orbit)
            assert set_distance(got, orbit) <= radius
            if set_distance(want, orbit) > radius:
                return
        assert set_distance(got, want) <= radius

    @pytest.mark.parametrize("chunk", range(12))
    def test_matches_enumeration_on_random_triples(self, chunk, group_k):
        off_oracle = 0
        for t, inp in _random_triple_inputs(250, 812 + chunk):
            got, want = fp.solve(inp), solve_enumerated(inp)
            assert (got.raw_count, got.filtered_count) == (want.raw_count, want.filtered_count)
            # with i9 the set holds t to 1e-12 of its scale.  Without it the
            # inferred sign class holds t or its swap of v and w, and the
            # inferred i9 carries the cancellation in delta: where two cubes
            # are small, |delta| is far below |c| and the gap reaches 4.1e-11
            # (chunk 11)
            found, rel = ([t], 1e-12) if inp.i9 is not None else ([t, t[[0, 2, 1]]], 1e-10)
            scale = np.abs(got.triples).max()
            assert _gap(got.triples, found) <= rel * scale
            # the enumeration is the oracle where it holds t as well
            if _gap(want.triples, found) <= 1e-10 * scale:
                assert _same_points(want.triples, got.triples, 1e-10)
            else:
                off_oracle += 1
            assert np.array_equal(_bits(got), rg.orbit(group_k, got.triples[0]).view(np.uint64))
        # one input of chunk 11, without i9, leaves the enumeration 1.1e-10 off t
        assert off_oracle == (1 if chunk == 11 else 0)


class TestClassify:
    def test_delta_zero_stratum(self):
        # invariants of the normal form (1, 1, -1): delta vanishes exactly
        a, b, c = Fraction(13), Fraction(-215), Fraction(-5291)
        assert a ** 3 - 3 * a * b + 2 * c == 0
        oc = fp.classify(fp.FormProblemInput(13, -215, -5291, i9=0))
        assert oc.count == 648
        assert oc.stabilizer_label == "trivial"
        assert abs(oc.delta) < 1e-9

    def test_strata_table(self):
        cases = [
            ((12, 0, 0, -2), 27, "hessian-vertices", "G4", 24),
            ((1, 1, 1, 0), 72, "hessian-edge-centers", "C3xC3", 9),
            ((1, 0.25, -0.125, 0), 216, "edges-2{4}3{3}3", "C3", 3),
            ((0, 0, 0, 0), 1, "origin", "full", 648),
        ]
        for args, count, label, stab, order in cases:
            oc = fp.classify(fp.FormProblemInput(*args))
            assert oc.count == count
            assert oc.polytope_label == label
            assert oc.stabilizer_label == stab
            assert oc.stabilizer_order == order
            assert oc.count * oc.stabilizer_order == 648
            assert fp.solve(fp.FormProblemInput(*args)).filtered_count == count

    def test_b_zero_c_nonzero_always_648(self):
        # 648 solutions whatever the value of a, as long as c != 0
        for a in (1.0, 0.0, 5.0):
            inp = fp.FormProblemInput(a, 0, 2)
            sol = fp.solve(inp)
            assert sol.raw_count == 1296
            assert sol.filtered_count == 648

    def test_b_cubed_equals_c_squared_with_sign(self):
        # b^3 = c^2 with nonzero alternating invariant: the 216-point
        # stratum reached through the C9 != 0 branch of the case analysis
        for args in ((1, 1, -1), (2, 1, 1)):
            oc = fp.classify(fp.FormProblemInput(*args))
            assert oc.count == 216
            assert oc.stabilizer_label == "C3"
            assert abs(oc.i9_used) > 0
            assert fp.solve(fp.FormProblemInput(*args)).filtered_count == 216

    def test_generic_classification(self):
        t = random_parameter_triple(65)
        cv = c_formulas(*t)
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=cv.c9)
        oc = fp.classify(inp)
        assert oc.count == 648
        assert oc.polytope_label == "generic"
        assert fp.solve(inp).filtered_count == 648

    def test_d_in_float_range_is_the_direct_formula(self):
        # scaling by powers of two is exact, so where b^2 (b^3 - c^2)^4
        # stays in float range D is that value bit for bit
        from trimoduli.concomitants import invariants
        from trimoduli.qutrit_state import random_state

        inputs = [fp.FormProblemInput(*(complex(x) for x in (cv.c6, cv.c12, cv.c18, cv.c9)))
                  for cv in (c_formulas(*random_parameter_triple(s)) for s in (66, 67))]
        inv = invariants(random_state(7))
        inputs.append(fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
        for inp in inputs:
            b, c = complex(inp.b), complex(inp.c)
            direct = b ** 2 * (b ** 3 - c ** 2) ** 4
            assert fp.classify(inp).d_discriminant == direct

    def test_d_and_delta_reported(self):
        oc = fp.classify(fp.FormProblemInput(12, 0, 0, -2))
        assert oc.d_discriminant == 0
        assert abs(oc.delta - 1728) < 1e-9


def _state_input(state, with_i9=True):
    inv = invariants(state)
    return fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9 if with_i9 else None)


# random states scaled across the range `classify` meets, with and without i9
SCALED_GENERIC_INPUTS = [_state_input(random_state(k).scaled(scale), with_i9)
                         for k in (7, 22, 41) for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3)
                         for with_i9 in (True, False)]


class _Solved(Exception):
    """Raised by a stand-in for `solve` or `enumerate_triples`: the call
    reached the radical chain."""


def _raise_solved(*args):
    raise _Solved


def _classified(inp):
    """`classify` with `solve` and `enumerate_triples` replaced by stand-ins
    that raise `_Solved`."""
    with mock.patch.object(fp, "solve", _raise_solved), \
            mock.patch.object(fp, "enumerate_triples", _raise_solved):
        return fp.classify(inp)


class TestGenericFastPath:
    """`classify` is the case analysis alone: it never solves, and answers
    648 only off the mirrors."""

    @pytest.mark.parametrize("inp", _oracle_inputs() + SCALED_GENERIC_INPUTS)
    def test_fast_path_matches_solved_classification(self, inp):
        try:
            sol = fp.solve(inp)
        except fp.FormProblemError as exc:
            # a sign datum that matches no solution: `classify` rejects it too
            with pytest.raises(fp.FormProblemError) as got:
                _classified(inp)
            assert str(got.value) == str(exc)
            return
        got = _classified(inp)
        assert got.count * got.stabilizer_order == 648
        assert got.count == sol.filtered_count

    @pytest.mark.parametrize("inp", SCALED_GENERIC_INPUTS)
    def test_generic_states_take_the_fast_path(self, inp):
        oc = _classified(inp)
        assert (oc.count, oc.polytope_label, oc.stabilizer_label, oc.stabilizer_order) \
            == (648, "generic", "trivial", 1)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(_stratum_multiple, st.sampled_from(STRATUM_POINTS + ((0, 0, 0),)),
                     st.floats(0.5, 2.0), st.floats(0.0, 2 * cmath.pi), st.integers(-9, 3)),
           SEEDS)
    # a multiple of (1, 1, 0) whose scramble has condition number 689: the
    # rounding of its invariants puts b^3 - c^2 at 1.5e-6 relative, and the
    # radical chain finds 648 solutions; the point test finds the stratum
    @example((-0.8714417262060287 - 0.696132140258386j,) * 2 + (-0j,), 310960661)
    def test_never_fires_on_the_strata(self, t, seed):
        # a multiple of (0, 1, -1), (1, 0, 0), (1, 1, 0) or the origin
        nonzero = [z for z in t if z != 0]
        want = 1 if not nonzero else 72 if len(nonzero) == 1 else \
            216 if nonzero[0] == nonzero[1] else 27
        assert _classified(_closed_form_input(t)).count == want
        assert _classified(_scrambled_input(t, seed)).count == want

    def test_inconsistent_sign_datum(self):
        cv = c_formulas(*random_parameter_triple(66))
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=2 * cv.c9)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.classify(inp)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.solve(inp)

    @pytest.mark.parametrize("args", [(12, 0, 0, 5.0), (1, 1, 1, 0.5), (1, 0.25, -0.125, 0.3),
                                      (0, 0, 0, 1.0), (1, 1, -1, 3.0)],
                             ids=["27", "72", "216", "origin", "mirror"])
    def test_inconsistent_sign_datum_on_the_strata(self, args):
        # the closed-form representative is checked against i9, as in `solve`
        inp = fp.FormProblemInput(*args)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            _classified(inp)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.solve(inp)

    def test_case_tree_agrees_on_random_states(self):
        # an absolute 1e-9 on the degree-168 D once mispredicted 216 on 9 of these
        for k in range(200):
            inp = _state_input(random_state(k))
            assert (fp.classify(inp).count, fp.solve(inp).filtered_count) == (648, 648), k


STRATUM_COUNTS = dict(zip(STRATUM_POINTS, (27, 72, 216)))


def _sign_classes(t, inp):
    """The triples whose K-orbit the solutions of inp are: t, and without
    i9 also its swap of v and w (the inferred sign may be either)."""
    return [t] if inp.i9 is not None else [t, (t[0], t[2], t[1])]


def _gap(pts, found):
    """The distance from the nearest triple of found to the rows of pts."""
    return min(np.abs(pts - np.array(x)).max(axis=1).min() for x in found)


def _mirror_rel(t):
    """|b^3 - c^2| / max(|b|^3, |c|^2) for the invariants of t at unit
    weighted size: the quantity of the mirror test."""
    _, (_, b, c, _) = fp._unit_invariants(_closed_form_input(t))
    return abs(b ** 3 - c ** 2) / max(abs(b) ** 3, abs(c) ** 2)


def _rounding_within_the_mirror_test(inp, t):
    """Whether the first-order change of b^3 - c^2 under the rounding of b
    and c in inp, against the invariants of t, stays inside both bounds of
    the mirror test: |3 b^2 db - 2 c dc| <= 5 max(|b|^2, |c|) max(|db|, |dc|)."""
    _, (_, b, c, _) = fp._unit_invariants(inp)
    _, (_, exact_b, exact_c, _) = fp._unit_invariants(_closed_form_input(t))
    change = 5 * max(abs(b) ** 2, abs(c)) * max(abs(b - exact_b), abs(c - exact_c))
    return change <= min(fp.RESIDUAL_TOL * max(abs(b) ** 3, abs(c) ** 2),
                         fp.MIRROR_TOL * max(abs(b) ** 2, abs(c)))


def _near_a_hessian_vertex(inp):
    """Whether b and c at unit weighted size are within RESIDUAL_TOL of 0,
    where the point test calls the input 27: invariants of degree 12 and 18
    that near zero leave the triple within about 1% of a Hessian vertex."""
    _, (_, b, c, _) = fp._unit_invariants(inp)
    return max(abs(b), abs(c)) <= fp.RESIDUAL_TOL


def _mirror_triples(count, seed, rel_range=None):
    """Triples s * g.(d, v, w) with g in K, v and w complex normal and s
    log-uniform in 1e-3..1e3: on the mirror u = 0 and its images (d = 0),
    or, given rel_range, off it by the d whose `_mirror_rel` is log-uniform
    in that range (it grows as d^3)."""
    rng = np.random.default_rng(seed)
    group = rg.group_k()
    out = []
    for _ in range(count):
        v, w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g, s = group.matrices[rng.integers(group.order)], 10 ** rng.uniform(-3, 3)
        phase = cmath.exp(2j * cmath.pi * rng.random())

        def build(d):
            return tuple(s * (g @ np.array([d * phase, v, w])))

        if rel_range is None:
            out.append(build(0.0))
            continue
        target = 10 ** rng.uniform(*np.log10(rel_range))
        out.append(build(1e-2 * (target / _mirror_rel(build(1e-2))) ** (1 / 3)))
    return out


def _near_b_mirror_triples(count, seed, e=None):
    """Triples (u, v, v + e z) next to the mirror v = w of B: u, v and z from
    one draw of `standard_normal(3) + 1j * standard_normal(3)` each, then the
    e of all triples, log-uniform in 1e-6..1e-4, unless e is given."""
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(count)]
    es = 10 ** rng.uniform(-6, -4, count) if e is None else np.full(count, e)
    return [np.array([u, v, v + ek * z]) for (u, v, z), ek in zip(draws, es)]


class TestStrataCorpora:
    """Seeded corpora of the degenerate strata, of the mirrors and of the
    band next to them: `classify` never reaches the chain, and no count is
    wrong."""

    def test_closed_forms_on_rationals(self):
        # the identities that the representatives of `_stratum` invert
        for t, v, w in ((Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3)),
                        (Fraction(-1), Fraction(5, 4), Fraction(1, 6))):
            assert tuple(c_formulas(0, t, -t)) == (12 * t ** 6, -2 * t ** 9, 0, 0)
            assert tuple(c_formulas(t, 0, 0)) == (t ** 6, 0, t ** 12, t ** 18)
            assert tuple(c_formulas(t, t, 0)) == (-8 * t ** 6, 0, 16 * t ** 12, 64 * t ** 18)
            s, p = v ** 3 + w ** 3, v ** 3 * w ** 3
            assert tuple(c_formulas(0, v, w)) == (s * s - 12 * p, p * (v ** 3 - w ** 3),
                                                  s ** 4, s ** 6)

    def test_exact_multiples(self):
        # the invariants of t from `c_formulas`: the solutions hold t to
        # 1e-12, and as the K-orbit of their first row (K is unitary) they
        # are then K.t to 1e-12
        rng = np.random.default_rng(2801)
        for k in range(600):
            point = STRATUM_POINTS[k % 3]
            t = _stratum_multiple(point, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi),
                                  int(rng.integers(-3, 4)))
            cv = c_formulas(*t)
            c6, c9, c12, c18 = (complex(x) for x in cv)
            inp = fp.FormProblemInput(c6, c12, c18, i9=c9 if k % 2 else None)
            assert _classified(inp).count == STRATUM_COUNTS[point], (k, t)
            sol = fp.solve(inp)
            assert sol.filtered_count == STRATUM_COUNTS[point], (k, t)
            assert _gap(sol.triples, _sign_classes(t, inp)) <= 1e-12 * max(map(abs, t)), (k, t)

    def test_scrambled_multiples(self):
        # det-1 scrambles read back through `invariants`, as the benchmark
        # draws them: the solutions hold t within 1e-6 of its size
        rng = np.random.default_rng(2802)
        for k in range(450):
            point = STRATUM_POINTS[k % 3]
            t = _stratum_multiple(point, rng.uniform(0.5, 2.0), rng.uniform(0, 2 * cmath.pi),
                                  int(rng.integers(-2, 3)))
            inv = invariants(apply_local(normal_form_state(t),
                                         random_local_transform(int(rng.integers(2 ** 31)))))
            inp = fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9 if k % 2 else None)
            assert _classified(inp).count == STRATUM_COUNTS[point], (k, t)
            sol = fp.solve(inp)
            assert sol.filtered_count == STRATUM_COUNTS[point], (k, t)
            # two sign classes on the 27 stratum; C9 vanishes on the others,
            # whatever rounding noise the scrambled i9 carries
            assert sol.raw_count == STRATUM_COUNTS[point] * (2 if point == (0, 1, -1) else 1)
            assert _gap(sol.triples, _sign_classes(t, inp)) <= 1e-6 * max(map(abs, t)), (k, t)
            # a stabilizer image may round below the first row; `solve` steps past it
            orbit = rg.orbit(rg.group_k(), sol.triples[0])
            assert np.array_equal(_bits(sol), orbit.view(np.uint64)), (k, t)

    def test_mirror_points(self):
        # C9 != 0 on these: the mirror test, not a point test, finds 216,
        # except within the 27 test's tolerance of a Hessian vertex
        near = 0
        for k, t in enumerate(_mirror_triples(300, 2803)):
            c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
            inp = fp.FormProblemInput(c6, c12, c18, i9=c9)
            if _near_a_hessian_vertex(inp):
                near += 1
                assert _classified(inp).count == 27, (k, t)
                continue
            assert _classified(inp).count == 216, (k, t)
            sol = fp.solve(inp)
            assert sol.filtered_count == 216, (k, t)
            assert _gap(sol.triples, [t]) <= 1e-10 * max(map(abs, t)), (k, t)
        assert near <= 3

    def test_scrambled_mirror_points(self):
        # det-1 scrambles read back through `invariants`: the mirror test
        # finds 216 wherever the rounding of b and c keeps b^3 - c^2 inside
        # both of its bounds (on 20,000 such states it left them on 0.2%)
        rng = np.random.default_rng(2805)
        near = noisy = 0
        for k, t in enumerate(_mirror_triples(300, 2806)):
            state = apply_local(normal_form_state(t),
                                random_local_transform(int(rng.integers(2 ** 31))))
            inp = _state_input(state, with_i9=bool(k % 2))
            if _near_a_hessian_vertex(inp):
                near += 1
                continue
            if not _rounding_within_the_mirror_test(inp, t):
                noisy += 1
                continue
            assert _classified(inp).count == 216, (k, t)
            sol = fp.solve(inp)
            assert sol.filtered_count == 216, (k, t)
            assert _gap(sol.triples, _sign_classes(t, inp)) <= 1e-6 * max(map(abs, t)), (k, t)
        assert near <= 3 and noisy <= 3, (near, noisy)

    def test_next_to_the_mirrors(self):
        # b^3 - c^2 between 1e-4 and 1e-3 relative: off the mirrors, except
        # within the 27 test's tolerance of a Hessian vertex
        near = 0
        for k, t in enumerate(_mirror_triples(300, 2804, (1e-4, 1e-3))):
            c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
            inp = fp.FormProblemInput(c6, c12, c18, i9=c9 if k % 2 else None)
            near += _near_a_hessian_vertex(inp)
            want = 27 if _near_a_hessian_vertex(inp) else 648
            assert _classified(inp).count == want, (k, t, _mirror_rel(t))
        assert near <= 3
        # 1e-7..1e-6 relative, inside the relative bound, and away from the
        # Hessian vertices (|b| >= 0.05 at unit size): MIRROR_TOL's bound
        # keeps these off the mirrors
        far = 0
        for k, t in enumerate(_mirror_triples(300, 2807, (1e-7, 1e-6))):
            inp = _closed_form_input(t)
            _, (_, b, _, _) = fp._unit_invariants(inp)
            if abs(b) >= 0.05:
                far += 1
                assert _classified(inp).count == 648, (k, t, _mirror_rel(t))
        assert far >= 200


    def test_next_to_a_mirror_of_b(self):
        # each triple solved with its own C9 as i9: the polished row keeps
        # the near-double cube root apart, and the set holds the triple to
        # 1e-12 of its scale; the eleventh triple at e = 1e-5 is the solve
        # input of the CI workflow
        triples = _near_b_mirror_triples(2000, 5) + _near_b_mirror_triples(11, 5, 1e-5)[-1:]
        for k, t in enumerate(triples):
            c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
            sol = fp.solve(fp.FormProblemInput(c6, c12, c18, i9=c9))
            assert sol.filtered_count == 648, k
            assert _gap(sol.triples, [t]) <= 1e-12 * np.abs(sol.triples).max(), k

    def test_off_the_mirrors_next_to_them(self):
        # b^3 - c^2 between 1e-8 and 1e-7 relative: where the case analysis
        # answers 648, the polished row stays off the mirror, and the set
        # holds t; the inputs it calls 216 or 27 are left to its tolerances
        called = 0
        for k, t in enumerate(_mirror_triples(400, 2, (1e-8, 1e-7))):
            c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
            inp = fp.FormProblemInput(c6, c12, c18, i9=c9)
            if _classified(inp).count != 648:
                continue
            called += 1
            sol = fp.solve(inp)
            assert sol.filtered_count == 648, (k, t)
            assert _gap(sol.triples, [t]) <= 1e-9 * max(map(abs, t)), (k, t)
        assert called == 284


class TestRoundTrip:
    def test_solution_set_is_group_orbit(self, group_k):
        for seed in (70, 71, 72):
            t = random_parameter_triple(seed)
            sol = solve_for_triple(t)
            assert sol.filtered_count == 648
            contains = min(max(abs(a - b) for a, b in zip(tr, t)) for tr in sol.triples)
            assert contains < 1e-7
            orb = rg.orbit(group_k, tuple(t))
            assert set_distance(orb, sol.triples) < 1e-6

    def test_reproduction_of_invariants(self):
        t = random_parameter_triple(73)
        cv = c_formulas(*t)
        sol = solve_for_triple(t)
        scale = max(1.0, abs(cv.c6), abs(cv.c12), abs(cv.c18))
        for tr in sol.triples[::50]:
            got = c_formulas(*tr)
            assert abs(got.c6 - cv.c6) < 1e-6 * scale
            assert abs(got.c12 - cv.c12) < 1e-6 * scale
            assert abs(got.c18 - cv.c18) < 1e-6 * scale

    def test_stratum_multiples_keep_their_count(self):
        # the invariants are taken exactly, so b = c = 0 holds on the
        # multiples of (0, 1, -1) and no rounding noise splits their roots
        rng = np.random.default_rng(75)
        for point, count in (((0, 1, -1), 27), ((1, 0, 0), 72), ((1, 1, 0), 216)):
            for _ in range(20):
                z = rng.uniform(0.5, 2) * cmath.exp(2j * cmath.pi * rng.random())
                assert solve_for_triple(tuple(z * c for c in point)).filtered_count == count

    def test_delta_law_across_solution_set(self):
        t = random_parameter_triple(74)
        cv = c_formulas(*t)
        delta = cv.c6 ** 3 - 3 * cv.c6 * cv.c12 + 2 * cv.c18
        sol = solve_for_triple(t)
        for tr in sol.triples[::40]:
            c9 = c_formulas(*tr).c9
            assert abs(432 * c9 ** 2 - delta) < 1e-8 * abs(delta)


class TestScaleRobustness:
    def test_generic_round_trip_across_scales(self):
        base = random_parameter_triple(77)
        for scale in (1e3, 1e-3, 1e5, 1e-5):
            t = tuple(scale * z for z in base)
            sol = solve_for_triple(t)
            assert sol.raw_count == 1296
            assert sol.filtered_count == 648
            contains = min(max(abs(a - b) for a, b in zip(tr, t)) for tr in sol.triples)
            assert contains < 1e-9 * scale

    def test_degenerate_strata_across_scales(self):
        for s in (1e-3, 1e3):
            sol = fp.solve(fp.FormProblemInput(12 * s ** 6, 0, 0, i9=-2 * s ** 9))
            assert sol.filtered_count == 27
            sol = fp.solve(fp.FormProblemInput(s ** 6, s ** 12, s ** 18, i9=0))
            assert sol.filtered_count == 72

    def test_classify_state_across_scales(self):
        from trimoduli.concomitants import invariants
        from trimoduli.qutrit_state import random_state

        s = random_state(7)
        for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e5, 1e8):
            inv = invariants(s.scaled(scale))
            inp = fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9)
            oc = fp.classify(inp)
            assert (oc.count, fp.solve(inp).filtered_count, oc.stabilizer_label) \
                == (648, 648, "trivial"), scale

    def test_solver_scaling_extreme_coefficients(self):
        roots = fp.solve_quartic_radicals(1.0, 0.0, 0.0, 0.0, -1e120)
        for r in roots:
            assert abs(abs(r) - 1e30) < 1e18
        roots = fp.solve_cubic_radicals(1.0, 0.0, 0.0, -8e-90)
        for r in roots:
            assert abs(abs(r) - 2e-30) < 1e-40

    def test_cubic_whose_p_cubed_underflows(self):
        # the resolvent cubic of a near-real multiple of (1, 1, 0): a triple
        # root at 1/3 whose reduced p ~ 1e-128 has p^3 = 0 in floats, and q = 0
        roots = fp.solve_cubic_radicals(8, -8.000000000000002 - 2.8787540890557695e-128j,
                                        2.666666666666668 + 1.9191693927038465e-128j,
                                        -0.2962962962962964 - 3.198615654506411e-129j)
        assert max(abs(r - 1 / 3) for r in roots) < 1e-12

    def test_underflowed_coefficient_of_the_rescaled_quartic(self):
        # b = 1e-200: b^2 underflows to 0 in the psi quartic, and so does
        # lam^4 at its root scale lam ~ 1e-100
        oc = fp.classify(fp.FormProblemInput(1.0, 1e-200, 0.0))
        assert (oc.count, oc.stabilizer_label) == (27, "G4")


class TestEmission:
    @pytest.mark.parametrize("case,count", [
        ("hessian-vertices", 27),
        ("hessian-edge-centers", 72),
        ("edges-2{4}3{3}3", 216),
    ])
    def test_counts_and_csv(self, tmp_path, case, count):
        path = tmp_path / "points.csv"
        pts = fp.emit_configuration(case, path=path)
        assert len(pts) == count
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re_u", "im_u", "re_v", "im_v", "re_w", "im_w"]
        assert len(rows) == count + 1

    def test_unknown_case(self, tmp_path):
        with pytest.raises(fp.FormProblemError, match="unknown case"):
            fp.emit_configuration("icosahedron", tmp_path / "points.csv")
