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
from trimoduli.qutrit_state import (apply_local, normal_form_state, random_local_transform,
                                    random_parameter_triple, random_state)

from oracles import companion_roots, dedup_triples_loop, solve_for_triple, solve_loop


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
        raw = fp.enumerate_triples(branches, fp.FormProblemInput(12, 0, 0))
        assert raw.raw_count == 54

    def test_origin_raw_count(self):
        branches = fp.solve_psi_system(fp.FormProblemInput(0, 0, 0))
        raw = fp.enumerate_triples(branches, fp.FormProblemInput(0, 0, 0))
        assert raw.raw_count == 1
        assert np.array_equal(raw.triples, [(0, 0, 0)])

    def test_generic_raw_count(self):
        t = random_parameter_triple(63)
        cv = c_formulas(*t)
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18)
        raw = fp.enumerate_triples(fp.solve_psi_system(inp), inp)
        assert raw.raw_count == 1296

    def test_scrambled_hessian_vertices_need_the_merge(self, monkeypatch):
        # invariants of a det-1-scrambled point of the 27 stratum: b is float
        # noise near 1e-68, not zero, so eight nearly equal psi-branches
        # survive and their checked rows coincide in groups of eight
        inp = SCRAMBLED_HESSIAN_VERTEX
        branches = fp.solve_psi_system(inp)
        raw = fp.enumerate_triples(branches, inp)
        assert len(branches) == 8
        assert len(fp._candidates(branches)) - raw.dropped == 432
        assert raw.raw_count == 54
        sol = fp.solve(inp)
        assert sol.filtered_count == 27
        oc = fp.classify(inp)
        assert (oc.count, oc.stabilizer_label) == (27, "G4")
        monkeypatch.setattr(fp, "_merge_close", lambda pts: pts)
        assert fp.solve(inp).filtered_count == 216


class TestSignFilter:
    def test_hessian_vertex_filter(self):
        inp = fp.FormProblemInput(12, 0, 0)
        raw = fp.enumerate_triples(fp.solve_psi_system(inp), inp)
        sol = fp.filter_sign(raw, -2.0)
        assert sol.filtered_count == 27
        assert min(max(abs(z - w) for z, w in zip(t, (1, -1, 0)))
                   for t in sol.triples) < 1e-9
        other = fp.filter_sign(raw, +2.0)
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
        raw = fp.enumerate_triples(fp.solve_psi_system(inp), inp)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.filter_sign(raw, 5.0)


def _bits(sol):
    """The triples of a solution set as raw float bits, row by row."""
    return np.array(sol.triples, dtype=complex).reshape(-1, 3).view(np.uint64)


def _oracle_inputs():
    """Seeded inputs on every stratum: generic triples, complex multiples of
    one point of each degenerate stratum, the same points and generic
    triples det-1-scrambled and read back through `invariants`, the origin,
    a sign datum that matches no solution, and an input whose candidates
    must be merged."""
    rng = np.random.default_rng(808)
    triples = [tuple(random_parameter_triple(300 + k)) for k in range(6)]
    for point in ((0, 1, -1), (1, 0, 0), (1, 1, 0)):
        for _ in range(4):
            z = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 3)
            triples.append(tuple(z * c for c in point))
    triples.append((0j, 0j, 0j))
    inputs = []
    for t in triples:
        cv = c_formulas(*t)
        c6, c12, c18, c9 = (complex(x) for x in (cv.c6, cv.c12, cv.c18, cv.c9))
        inputs.append(fp.FormProblemInput(c6, c12, c18, i9=c9))
        inputs.append(fp.FormProblemInput(c6, c12, c18))
    inputs.append(fp.FormProblemInput(12, 0, 0, i9=5.0))
    scrambled = [random_parameter_triple(320 + k) for k in range(4)]
    for point in ((0, 1, -1), (1, 0, 0), (1, 1, 0)):
        for _ in range(4):
            z = complex(*rng.standard_normal(2))
            scrambled.append(tuple(z * c for c in point))
    for k, t in enumerate(scrambled):
        inv = invariants(apply_local(normal_form_state(t), random_local_transform(340 + k)))
        inputs.append(fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
    inputs.append(SCRAMBLED_HESSIAN_VERTEX)
    return inputs


def _enumerated(inp):
    """All psi-branches enumerated, merged and sign-filtered: what `solve`
    runs on the mirrors, and off them the oracle of its orbit."""
    i9, _ = fp._unit_invariants(inp)
    return fp.filter_sign(fp.enumerate_triples(fp.solve_psi_system(inp), inp), i9)


class TestLoopOracle:
    """The array enumeration, merge and sign filter against the scalar loops
    in tests/oracles.py: the arithmetic that builds the candidates is
    unchanged, so the solution sets agree bit for bit."""

    @pytest.mark.parametrize("inp", _oracle_inputs())
    def test_solve_matches_loop(self, inp):
        try:
            want = solve_loop(inp)
        except fp.FormProblemError as exc:
            with pytest.raises(fp.FormProblemError) as got:
                _enumerated(inp)
            assert str(got.value) == str(exc)
            return
        got = _enumerated(inp)
        assert (got.raw_count, got.filtered_count, got.dropped) \
            == (want.raw_count, want.filtered_count, want.dropped)
        assert np.array_equal(_bits(got), _bits(want))
        assert got.triples.dtype == np.complex128
        assert got.triples.shape == (got.filtered_count, 3)

    def test_dedup_means_and_order_match_loop(self):
        # clusters of 1 to 5 near copies, signed zeros, and ties in the
        # leading coordinates of the sort key
        rng = np.random.default_rng(809)
        base = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
        base[:10, 0] = base[0, 0]
        base[10:14, :2] = complex(-0.0, -0.0)
        pts = np.repeat(base, rng.integers(1, 6, len(base)), axis=0)
        jitter = rng.standard_normal(pts.shape) + 1j * rng.standard_normal(pts.shape)
        pts += 1e-12 * jitter * (rng.random(len(pts)) < 0.7)[:, None]
        pts = pts[rng.permutation(len(pts))]
        got = rg.sort_rows(fp._merge_close(pts))
        want = dedup_triples_loop([tuple(row) for row in pts.tolist()])
        assert len(got) == len(base)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    def test_merge_without_close_pair_returns_rows_unchanged(self):
        rng = np.random.default_rng(810)
        pts = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        assert fp._merge_close(pts) is pts


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


class TestOrbitRoute:
    """Off the mirrors `solve` returns the K-orbit of one row of the first
    psi-branch; the enumeration of all branches is its oracle."""

    @staticmethod
    def _offered(monkeypatch):
        """The number of branches of each `_candidates` call, as a list."""
        offered = []
        candidates = fp._candidates
        monkeypatch.setattr(fp, "_candidates",
                            lambda branches: offered.append(len(branches)) or candidates(branches))
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

    def test_first_branch_without_a_row_of_the_sign(self, monkeypatch):
        # v and w 4e-6 apart, next to the mirror v = w of B: the first branch
        # clusters its near-double cube root, keeps no row with this i9, and
        # all branches are enumerated, as on the mirrors of K
        t = (1.5099831293121058e-05 - 1.014468137602427j,
             1.1888306785373703 + 0.6666833259020761j, 1.1888277812544144 + 0.666682548793781j)
        c6, c9, c12, c18 = (complex(x) for x in c_formulas(*t))
        inp = fp.FormProblemInput(c6, c12, c18, i9=c9)
        want = _enumerated(inp)
        offered = self._offered(monkeypatch)
        got = fp.solve(inp)
        assert offered == [1, 8]
        assert (got.raw_count, got.filtered_count, got.dropped) \
            == (want.raw_count, want.filtered_count, want.dropped)
        assert got.filtered_count == 648
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("inp", _oracle_inputs()
                             + [fp.FormProblemInput(13, -215, -5291, i9=0)])
    def test_matches_enumeration(self, inp):
        try:
            want = _enumerated(inp)
        except fp.FormProblemError as exc:
            with pytest.raises(fp.FormProblemError) as got:
                fp.solve(inp)
            assert str(got.value) == str(exc)
            return
        got = fp.solve(inp)
        assert (got.raw_count, got.filtered_count) == (want.raw_count, want.filtered_count)
        assert _same_points(want.triples, got.triples, 1e-10)

    @pytest.mark.parametrize("chunk", range(8))
    def test_matches_enumeration_on_random_triples(self, chunk, group_k):
        for t, inp in _random_triple_inputs(250, 812 + chunk):
            got, want = fp.solve(inp), _enumerated(inp)
            assert (got.raw_count, got.filtered_count) == (want.raw_count, want.filtered_count)
            assert _same_points(want.triples, got.triples, 1e-10)
            # without i9 the inferred sign class holds t or its swap of v and w
            found = [t] if inp.i9 is not None else [t, t[[0, 2, 1]]]
            gap = min(np.abs(got.triples - x).max(axis=1).min() for x in found)
            assert gap <= 1e-10 * np.abs(got.triples).max()
            assert np.array_equal(_bits(got), rg.orbit(group_k, got.triples[0]).view(np.uint64))


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
            assert oc.case_tree_agrees

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
            assert oc.case_tree_prediction == 216

    def test_generic_classification(self):
        t = random_parameter_triple(65)
        cv = c_formulas(*t)
        oc = fp.classify(fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=cv.c9))
        assert oc.count == 648
        assert oc.polytope_label == "generic"
        assert oc.case_tree_prediction == 648

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
    """Raised by a stand-in for `solve`: the call reached the radical chain."""


def _raise_solved(*args):
    raise _Solved


class TestGenericFastPath:
    """`classify` answers 648 off the mirrors (b^3 != c^2) without solving."""

    @pytest.mark.parametrize("inp", _oracle_inputs() + SCALED_GENERIC_INPUTS)
    def test_fast_path_matches_solved_classification(self, inp, monkeypatch):
        solve = fp.solve
        monkeypatch.setattr(fp, "solve", _raise_solved)
        try:
            got = fp.classify(inp)
        except _Solved:
            return  # the solved path, pinned by the tests above
        assert got == fp.classify(inp, sol=solve(inp))

    @pytest.mark.parametrize("inp", SCALED_GENERIC_INPUTS)
    def test_generic_states_take_the_fast_path(self, inp, monkeypatch):
        monkeypatch.setattr(fp, "solve", _raise_solved)
        monkeypatch.setattr(fp, "enumerate_triples", _raise_solved)
        oc = fp.classify(inp)
        assert (oc.count, oc.polytope_label, oc.stabilizer_label, oc.stabilizer_order) \
            == (648, "generic", "trivial", 1)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(_stratum_multiple, st.sampled_from(STRATUM_POINTS + ((0, 0, 0),)),
                     st.floats(0.5, 2.0), st.floats(0.0, 2 * cmath.pi), st.integers(-9, 3)),
           SEEDS)
    # a multiple of (1, 1, 0) whose scramble has condition number 689: the
    # rounding of its invariants puts b^3 - c^2 at 1.5e-6 relative, and the
    # radical chain, too, finds 648 solutions
    @example((-0.8714417262060287 - 0.696132140258386j,) * 2 + (-0j,), 310960661)
    def test_never_fires_on_the_strata(self, t, seed):
        with mock.patch.object(fp, "solve", _raise_solved), pytest.raises(_Solved):
            fp.classify(_closed_form_input(t))
        # a scramble may round a stratum point off its mirror by more than
        # the band; the fast path then answers what the chain answers
        inp = _scrambled_input(t, seed)
        with mock.patch.object(fp, "solve", _raise_solved):
            try:
                got = fp.classify(inp)
            except _Solved:
                return
        assert got == fp.classify(inp, sol=fp.solve(inp))

    def test_inconsistent_sign_datum(self):
        cv = c_formulas(*random_parameter_triple(66))
        inp = fp.FormProblemInput(cv.c6, cv.c12, cv.c18, i9=2 * cv.c9)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.classify(inp)
        with pytest.raises(fp.FormProblemError, match="inconsistent"):
            fp.solve(inp)

    def test_case_tree_agrees_on_random_states(self):
        # the first test of the case tree is the fast path's b^3 != c^2 rule;
        # an absolute 1e-9 on the degree-168 D mispredicted 216 on 9 of these
        for k in range(200):
            oc = fp.classify(_state_input(random_state(k)))
            assert (oc.count, oc.case_tree_prediction, oc.case_tree_agrees) == (648, 648, True), k


class TestRoundTrip:
    def test_solution_set_is_group_orbit(self, group_k):
        for seed in (70, 71, 72):
            t = random_parameter_triple(seed)
            sol = solve_for_triple(t)
            assert sol.filtered_count == 648
            contains = min(max(abs(a - b) for a, b in zip(tr, t)) for tr in sol.triples)
            assert contains < 1e-7
            orb = rg.orbit(group_k, tuple(t))
            assert fp.set_distance(orb, sol.triples) < 1e-6

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
            oc = fp.classify(fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
            assert (oc.count, oc.case_tree_prediction, oc.stabilizer_label) \
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
