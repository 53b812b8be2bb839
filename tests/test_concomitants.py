import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from trimoduli import concomitants as con
from trimoduli.poly_engine import GROUPS, PERMS3, Form, transvectant
from trimoduli.qutrit_state import (
    State,
    normal_form_amplitudes,
    normal_form_state,
    random_parameter_triple,
    random_state,
    trilinear_form,
)
from trimoduli.reflection_group import EPS_COMPLEX

from oracles import (
    MultiPoly,
    VariableRef,
    aronhold_raws_loop,
    bracket_einsum,
    bundle_sparse,
    c12_prime_mirrors,
    calibration_report,
    dense_raws_einsum,
    form_to_poly,
    group_catalog,
    jacobian_check,
    jacobian_polynomial,
    poly_eval,
    slice_cubic,
    slice_cubic_expansion,
    slice_tensor_einsum,
    write_calibration_report,
)

ZERO_STATE = State(np.zeros((3, 3, 3), dtype=complex))
PRODUCT_111 = np.zeros((3, 3, 3), dtype=complex)
PRODUCT_111[0, 0, 0] = 1.0


def int_array(amplitudes):
    """An object array of Python ints, on which the concomitants are exact."""
    return np.array(amplitudes, dtype=object)


def poly_close(p, q, tol=1e-9):
    a, b = dict(p.term_items()), dict(q.term_items())
    scale = max((abs(complex(c)) for c in b.values()), default=1.0)
    return all(abs(complex(a.get(k, 0)) - complex(b.get(k, 0))) <= tol * scale
               for k in set(a) | set(b))


class TestCalibration:
    def test_fitted_constants(self, calibrated):
        assert calibrated["i6_scale"] == Fraction(1, 96)
        assert calibrated["i9_scale"] == Fraction(1, 576)
        assert calibrated["i12_scale"] == Fraction(-1, 124416)
        assert calibrated["i18_coeff_i6_cubed"] == Fraction(-1, 2)
        assert calibrated["i18_coeff_i6_i12"] == Fraction(3, 2)
        assert calibrated["i18_coeff_i9_sq"] == Fraction(216)
        assert calibrated["i18_vs_66t_scale"] == Fraction(-1, 8)
        assert calibrated["delta_vs_c9_sq"] == Fraction(432)
        assert calibrated["delta_scale"] == Fraction(-19683)
        assert calibrated["i9_variant"] == "e_alpha,e_beta,e_beta"

    def test_pinned_constants_equal_calibration(self, calibrated):
        for name in ("aronhold_s_scale", "aronhold_t_scale", "delta_scale",
                     "i18_coeff_i6_cubed", "i18_coeff_i6_i12", "i18_coeff_i9_sq"):
            pinned = getattr(con, name.upper())
            assert isinstance(pinned, Fraction) and pinned == calibrated[name], name

    def test_report_round_trips(self, calibrated):
        report = calibration_report()
        assert Fraction(report["i12_scale"]) == calibrated["i12_scale"]
        assert set(report) == set(calibrated)

    def test_report_file(self, tmp_path, calibrated):
        path = tmp_path / "calibration.json"
        write_calibration_report(path)
        import json

        data = json.loads(path.read_text())
        assert Fraction(data["i6_scale"]) == Fraction(1, 96)


class TestBundle:
    def test_zero_state_all_zero(self):
        bundle = con.bundle_from_form(ZERO_STATE.amplitudes)
        for name, form in bundle.items():
            if name.startswith("p_"):
                continue
            assert not form.tensor.any(), name

    def test_b_alpha_of_diagonal_form(self):
        bundle = con.bundle_from_form(int_array(normal_form_amplitudes(1, 0, 0)))
        sig = dict(form_to_poly(bundle["b_alpha"]).term_items())
        assert len(sig) == 1
        ((key, coeff),) = sig.items()
        assert coeff == 6
        assert {(v.group, v.index) for v, _ in key} == {("x", 1), ("x", 2), ("x", 3)}

    def test_syzygy_exact_polynomial_identity(self):
        # 3*C_ab - B_gamma*P_beta vanishes identically, checked exactly
        b = con.bundle_from_form(int_array(normal_form_amplitudes(1, 2, 3)))
        lhs = b["c_alpha_beta"] * 3 + -(b["b_gamma"] * b["p_beta"])
        assert form_to_poly(lhs).is_zero()

    def test_all_syzygies_vanish_exactly(self):
        amp = np.random.default_rng(44).integers(-3, 4, size=(3, 3, 3))
        forms = con.bundle_from_form(amp.astype(object))
        for name in con.SYZYGY_NAMES:
            terms = con.syzygy_terms(forms, name)
            assert not any(form_to_poly(t).is_zero() for t in terms), name
            assert form_to_poly(sum(terms[1:], terms[0])).is_zero(), name

    def test_matches_sparse_recipes(self):
        # each of the 26 concomitants equals the old recipes on the sparse
        # engine, exactly, on a random integer array and a normal form
        amp = np.random.default_rng(45).integers(-3, 4, size=(3, 3, 3))
        for a in (amp.astype(object), int_array(normal_form_amplitudes(1, 2, -3))):
            dense = con.bundle_from_form(a)
            sparse = bundle_sparse(form_to_poly(trilinear_form(a)))
            assert set(dense) == set(sparse)
            for name, form in dense.items():
                assert form_to_poly(form) == sparse[name], name

    def test_degree_profiles(self):
        s = random_state(50)
        b = con.bundle_from_form(s.amplitudes)
        profiles = {
            "f": (1, 1, 1, 0, 0, 0),
            "q_alpha": (2, 0, 0, 0, 1, 1),
            "b_alpha": (3, 0, 0, 0, 0, 0),
            "c_alpha_beta": (0, 1, 3, 0, 1, 0),
            "d_alpha": (0, 1, 1, 0, 1, 1),
            "e_alpha": (1, 1, 1, 1, 1, 1),
            "g_alpha": (3, 1, 1, 0, 1, 1),
            "h": (1, 1, 1, 1, 1, 1),
        }
        for name, want in profiles.items():
            got = tuple(b[name].groups.count(g) for g in GROUPS)
            assert got == want, name


class TestInvariants:
    def test_diagonal_unit(self):
        inv = con.invariants(normal_form_state((1, 0, 0)))
        assert abs(inv.i6 - 1) < 1e-12
        assert abs(inv.i9) < 1e-12
        assert abs(inv.i12 - 1) < 1e-12

    def test_all_ones(self):
        inv = con.invariants(normal_form_state((1, 1, 1)))
        assert abs(inv.i6 + 27) < 1e-10
        assert abs(inv.i12 - 729) < 1e-9

    def test_homogeneity(self):
        s = random_state(51)
        inv1 = con.invariants(s)
        inv2 = con.invariants(s.scaled(2.0))
        assert abs(inv2.i6 - 64 * inv1.i6) < 1e-9 * abs(inv2.i6)
        assert abs(inv2.i9 - 512 * inv1.i9) < 1e-9 * abs(inv2.i9)
        assert abs(inv2.i12 - 4096 * inv1.i12) < 1e-9 * abs(inv2.i12)
        assert abs(inv2.delta - 2.0 ** 36 * inv1.delta) < 1e-9 * abs(inv2.delta)

    def test_product_state_nilpotent(self):
        inv = con.invariants(State(PRODUCT_111))
        assert max(abs(v) for v in inv) < 1e-12

    def test_specialization_matches_closed_forms(self):
        for seed in range(60, 80):
            t = random_parameter_triple(seed)
            inv = con.invariants(normal_form_state(t))
            cv = con.c_formulas(*t)
            for got, want in ((inv.i6, cv.c6), (inv.i9, cv.c9),
                              (inv.i12, cv.c12), (inv.i18, cv.c18)):
                assert abs(got - want) <= 1e-9 * max(abs(want), 1e-12)

    def test_dual_i6_expressions_agree(self, calibrated):
        for seed in (81, 82):
            f_ = Form(random_state(seed).amplitudes, ("x", "y", "z"))
            pa, pb, pg = (con.pairing_form(n) for n in ("alpha", "beta", "gamma"))
            qa = transvectant(f_, f_, pb * pg, upper=(0, 1, 1))
            qb = transvectant(f_, f_, pa * pg, upper=(1, 0, 1))
            qg = transvectant(f_, f_, pa * pb, upper=(1, 1, 0))
            via_a = transvectant(qa, qa, qa, upper=(2, 0, 0), lower=(0, 1, 1)).tensor.item() / 96
            via_b = transvectant(qb, qb, qb, upper=(0, 2, 0), lower=(1, 0, 1)).tensor.item() / 96
            via_g = transvectant(qg, qg, qg, upper=(0, 0, 2), lower=(1, 1, 0)).tensor.item() / 96
            f2 = f_ * f_
            via_f = transvectant(f2, f2, f2, upper=(2, 2, 2)).tensor.item() / 1152
            base = abs(via_a)
            assert abs(via_a - via_b) < 1e-10 * base
            assert abs(via_a - via_g) < 1e-10 * base
            assert abs(via_a - via_f) < 1e-10 * base

    def test_exact_and_float_contractions_agree(self):
        # the same raw contractions through the exact and float code paths
        rng = np.random.default_rng(89)
        amp_int = rng.integers(-3, 4, size=(3, 3, 3))
        raw_exact = con.invariant_raws(amp_int.astype(object))
        raw_float = con.invariant_raws(amp_int.astype(complex))
        for key in ("i6", "i9", "i12"):
            want = complex(Fraction(raw_exact[key]))
            assert abs(raw_float[key] - want) <= 1e-10 * max(abs(want), 1.0)

    def test_i18_matches_slice_cubic_route(self):
        # I18 = -(6^6 T)/8 for the Aronhold T of any slice cubic: both sides
        # are invariants of degree 18 agreeing on the normal-form section
        for seed in (87, 88):
            s = random_state(seed)
            inv = con.invariants(s)
            pair = con.aronhold(slice_cubic(s, "x"))
            want = -(46656 * pair.t) / 8
            assert abs(inv.i18 - want) < 1e-9 * abs(want)

    def test_slocc_invariance(self):
        from trimoduli.qutrit_state import apply_local, random_local_transform

        s = random_state(83)
        base = con.invariants(s)
        for seed in (84, 85, 86):
            g = random_local_transform(seed)
            moved = con.invariants(apply_local(s, g))
            for a, b in zip(base[:4], moved[:4]):
                assert abs(a - b) < 1e-8 * abs(a)


class TestDenseContraction:
    def test_integer_arrays_pin_calibration(self, calibrated):
        # integer amplitudes contract exactly on both routes
        rng = np.random.default_rng(140)
        for _ in range(3):
            amp = rng.integers(-3, 4, size=(3, 3, 3))
            raw6, raw9 = con.dense_raws(amp)
            assert isinstance(raw6, np.integer) and isinstance(raw9, np.integer)
            exact = con.invariant_raws(amp.astype(object))
            assert exact["i9"] != 0
            assert int(raw6) * con.I6_DENSE_SCALE == calibrated["i6_scale"] * exact["i6"]
            assert int(raw9) * con.I9_DENSE_SCALE == calibrated["i9_scale"] * exact["i9"]

    def test_matches_transvectant_route(self, calibrated):
        from trimoduli.qutrit_state import apply_local, random_local_transform

        for seed in (141, 142):
            s = apply_local(normal_form_state(random_parameter_triple(seed)),
                            random_local_transform(seed + 10))
            inv = con.invariants(s)
            raws = con.invariant_raws(s.amplitudes)
            for key, got in (("i6", inv.i6), ("i9", inv.i9), ("i12", inv.i12)):
                want = complex(calibrated[f"{key}_scale"]) * raws[key]
                assert abs(got - want) <= 1e-9 * abs(want), key

    def test_runtime_path_builds_no_polynomials(self, monkeypatch):
        from trimoduli import form_problem, poly_engine, qutrit_state

        def refuse(*args, **kwargs):
            raise AssertionError("Poly or ground form built, or transvectant run, "
                                 "on the runtime path")

        s = random_state(3)
        monkeypatch.setattr(poly_engine.Poly, "__init__", refuse)
        for module in (poly_engine, con):
            monkeypatch.setattr(module, "transvectant", refuse)
        for module in (qutrit_state, con):
            monkeypatch.setattr(module, "trilinear_form", refuse)
        inv = con.invariants(s)
        oc = form_problem.classify(form_problem.FormProblemInput(
            inv.i6, inv.i12, inv.i18, i9=inv.i9))
        assert oc.count == 648

    def test_fields_are_complex_on_the_null_cone(self):
        for s in (ZERO_STATE, State(PRODUCT_111)):
            inv = con.invariants(s)
            assert all(type(v) is complex for v in inv)


def _scrambled_normal_form(seed):
    from trimoduli.qutrit_state import apply_local, random_local_transform

    return apply_local(normal_form_state(random_parameter_triple(seed)),
                       random_local_transform(seed + 10))


def _max_rel(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


class TestMonomialSums:
    """`dense_raws` against the einsum contractions it replaced."""

    def test_integer_arrays_exact(self):
        rng = np.random.default_rng(150)
        for _ in range(20):
            amp = rng.integers(-3, 4, size=(3, 3, 3))
            got, want = con.dense_raws(amp), dense_raws_einsum(amp)
            assert all(isinstance(v, np.integer) for v in got)
            assert got == want

    def test_fraction_array_exact(self):
        rng = np.random.default_rng(151)
        amp = np.array([Fraction(int(n), int(d)) for n, d in
                        zip(rng.integers(-9, 10, 27), rng.integers(1, 8, 27))],
                       dtype=object).reshape(3, 3, 3)
        got = con.dense_raws(amp)
        assert all(isinstance(v, Fraction) for v in got)
        assert got == dense_raws_einsum(amp)
        assert got[1] != 0

    def test_float_states(self):
        states = [random_state(seed) for seed in range(20)]
        states += [_scrambled_normal_form(seed) for seed in (152, 153, 154, 155)]
        for s in states:
            assert _max_rel(con.dense_raws(s.amplitudes),
                            dense_raws_einsum(s.amplitudes)) <= 1e-13

    def test_absolute_symbol_gives_the_same_bound(self):
        e = np.abs(con.LEVI_CIVITA)
        for s in [random_state(seed) for seed in range(10)] + [_scrambled_normal_form(156)]:
            a = np.abs(s.amplitudes)
            assert _max_rel(con.dense_raws(a, e), dense_raws_einsum(a, e)) <= 1e-14

    def test_party_permutations(self):
        # I6 and I12 do not change when the parties are permuted and I9 picks
        # up the sign of the permutation; without the slot rotation rho, I9
        # does not
        for s in (random_state(157), _scrambled_normal_form(158)):
            base = con.invariants(s)
            for perm, sign in PERMS3:
                moved = con.invariants(State(np.transpose(s.amplitudes, perm)))
                assert abs(moved.i6 - base.i6) <= 1e-12 * abs(base.i6)
                assert abs(moved.i9 - sign * base.i9) <= 1e-12 * abs(base.i9)
                assert abs(moved.i12 - base.i12) <= 1e-12 * abs(base.i12)


class TestMixedAdjugate:
    """`slice_tensor` and `bracket` on the mixed adjugate against the einsum
    chains they replaced: K, S = (K K K K) and T = (K K K H), H the slice
    tensor of K."""

    @staticmethod
    def _contractions(amp, symbol, slice_tensor, bracket):
        k = slice_tensor(amp, symbol)
        return k, bracket(k, k, k, k, symbol), bracket(k, k, k, slice_tensor(k, symbol), symbol)

    def test_integer_and_fraction_arrays_exact(self):
        rng = np.random.default_rng(161)
        arrays = [int_array(rng.integers(-3, 4, size=(3, 3, 3))) for _ in range(10)]
        arrays.append(np.array([Fraction(int(n), int(d)) for n, d in
                                zip(rng.integers(-9, 10, 27), rng.integers(1, 8, 27))],
                               dtype=object).reshape(3, 3, 3))
        for symbol in (con.LEVI_CIVITA, np.abs(con.LEVI_CIVITA)):
            for amp in arrays:
                k, s_raw, t_raw = self._contractions(amp, symbol, con.slice_tensor, con.bracket)
                want_k, want_s, want_t = self._contractions(amp, symbol, slice_tensor_einsum,
                                                            bracket_einsum)
                assert k.dtype == object and np.array_equal(k, want_k)
                assert (s_raw, t_raw) == (want_s, want_t) and s_raw != 0
                assert type(s_raw) is type(want_s) and type(t_raw) is type(want_t)
                # exact S and T give an exact Delta
                assert isinstance(con.discriminant_delta(s_raw * con.ARONHOLD_S_SCALE,
                                                         t_raw * con.ARONHOLD_T_SCALE), Fraction)

    def test_float_states(self):
        for seed in range(10):
            amp = random_state(seed).amplitudes
            k, s_raw, t_raw = self._contractions(amp, con.LEVI_CIVITA, con.slice_tensor,
                                                 con.bracket)
            want_k, want_s, want_t = self._contractions(amp, con.LEVI_CIVITA,
                                                        slice_tensor_einsum, bracket_einsum)
            assert np.max(np.abs(k - want_k)) <= 1e-13 * np.max(np.abs(want_k))
            assert _max_rel((s_raw, t_raw), (want_s, want_t)) <= 1e-13


class TestMinorSums:
    """The tables of `dense_raws`: grouped monomials in the minors of the
    flattening, and Delta from S and I18."""

    def test_grouped_term_counts(self):
        # 84 minors, or 165 column triples with repeats under |eps|; each
        # term's coordinates sorted; coefficients 6, 12, 18 up to sign
        for symbol, n, n6, n9 in ((con.LEVI_CIVITA, 84, 84, 384),
                                  (np.abs(con.LEVI_CIVITA), 165, 147, 3434)):
            support, values, pairs, c6, triples, c9 = con._minor_tables(
                np.asarray(symbol, np.int64).tobytes())
            assert support.shape == (3, 6, n) and values.shape == (6,)
            assert pairs.shape == (2, n6) and triples.shape == (3, n9)
            assert np.all(np.diff(pairs, axis=0) >= 0) and np.all(np.diff(triples, axis=0) >= 0)
            if symbol is con.LEVI_CIVITA:
                assert set(np.abs(c6)) == {6, 12, 18} and set(np.abs(c9)) == {18}
            else:
                assert c6.min() > 0 and c9.min() > 0

    def test_tables_built_once_per_symbol(self):
        con._minor_tables.cache_clear()
        for seed in (0, 1, 2):
            s = random_state(seed)
            con.invariants(s)
            con.invariant_bounds(s.amplitudes)
        info = con._minor_tables.cache_info()
        assert (info.misses, info.currsize, info.hits) == (2, 2, 4)

    def test_symbol_neither_alternating_nor_symmetric(self):
        e = np.zeros((3, 3, 3), dtype=np.int64)
        e[0, 1, 2] = 1
        with pytest.raises(ValueError, match="neither alternating nor symmetric"):
            con.dense_raws(np.ones((3, 3, 3)), e)

    @staticmethod
    def _exact_i18(amp):
        raw6, raw9 = con.dense_raws(amp)
        s_raw, t_raw = con.aronhold_raws(con.slice_tensor(amp))
        i18 = con.i18_from_fundamentals(raw6 * con.I6_DENSE_SCALE, raw9 * con.I9_DENSE_SCALE,
                                        s_raw * con.ARONHOLD_S_SCALE * con.I12_FROM_S)
        return i18, t_raw * con.ARONHOLD_T_SCALE

    def test_t_from_i18_on_exact_arrays(self):
        rng = np.random.default_rng(159)
        arrays = [rng.integers(-3, 4, size=(3, 3, 3)).astype(object) for _ in range(10)]
        arrays.append(np.array([Fraction(int(n), int(d)) for n, d in
                                zip(rng.integers(-9, 10, 27), rng.integers(1, 8, 27))],
                               dtype=object).reshape(3, 3, 3))
        for amp in arrays:
            i18, t = self._exact_i18(amp)
            assert isinstance(i18, Fraction) and i18 != 0
            assert t == con.T_FROM_I18 * i18

    def test_t_from_i18_equals_calibration(self, calibrated):
        assert isinstance(con.T_FROM_I18, Fraction)
        assert con.T_FROM_I18 == calibrated["t_from_i18"] == Fraction(-1, 5832)

    def test_invariants_run_one_bracket_and_one_slice_tensor(self, monkeypatch):
        calls = []
        for name in ("bracket", "slice_tensor"):
            def counted(*args, _name=name, _f=getattr(con, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(con, name, counted)
        s = random_state(160)
        inv = con.invariants(s)
        assert sorted(calls) == ["bracket", "slice_tensor"]
        monkeypatch.undo()
        pair = con.aronhold(slice_cubic(s, "x"))
        want = con.discriminant_delta(pair.s, pair.t)
        assert abs(inv.delta - want) <= 1e-9 * abs(want)


class TestCFormulas:
    def test_all_ones(self):
        cv = con.c_formulas(1, 1, 1)
        assert (cv.c6, cv.c9, cv.c12) == (-27, 0, 729)

    def test_mirror_plane_point(self):
        cv = con.c_formulas(1, -1, 0)
        assert (cv.c6, cv.c9, cv.c12, cv.c18) == (12, -2, 0, 0)
        assert con.c12_prime(1, -1, 0) == 0

    def test_exact_mode(self):
        cv = con.c_formulas(Fraction(1), Fraction(2), Fraction(3))
        assert cv.c6 == -1716
        assert cv.c9 == -3458
        assert cv.c12 == 3359232
        assert isinstance(cv.c18, Fraction)

    def test_equivalent_symmetric_function_forms(self):
        rng = np.random.default_rng(90)
        for _ in range(100):
            u, v, w = (complex(a, b) for a, b in rng.standard_normal((3, 2)))
            cv = con.c_formulas(u, v, w)
            psi = u ** 3 + v ** 3 + w ** 3
            chi = (u * v) ** 3 + (u * w) ** 3 + (v * w) ** 3
            lam = 216 * (u * v * w) ** 3
            assert abs(cv.c6 - (psi ** 2 - 12 * chi)) < 1e-10 * max(abs(cv.c6), 1)
            assert abs(cv.c12 - (psi ** 4 + lam * psi)) < 1e-10 * max(abs(cv.c12), 1)

    def test_complex_values_are_the_term_by_term_sums(self):
        # the benchmark's degenerate references rely on these exact bits: on
        # multiples of (0, 1, -1) the sums leave rounding noise in C12
        def msym(exps):
            return sum(u ** p[0] * v ** p[1] * w ** p[2] for p in set(permutations(exps)))

        rng = np.random.default_rng(93)
        points = [(0, 1, -1), (1, 0, 0), (1, 1, 0)]
        for k in range(400):
            z = complex(*rng.standard_normal(2))
            if k % 4 < 3:
                u, v, w = (z * c for c in points[k % 4])
            else:
                u, v, w = (z * complex(*rng.standard_normal(2)) for _ in range(3))
            psi, lam = u ** 3 + v ** 3 + w ** 3, 216 * (u * v * w) ** 3
            want = (msym((6, 0, 0)) - 10 * msym((3, 3, 0)),
                    (u ** 3 - v ** 3) * (u ** 3 - w ** 3) * (v ** 3 - w ** 3),
                    msym((12, 0, 0)) + 4 * msym((9, 3, 0)) + 6 * msym((6, 6, 0))
                    + 228 * msym((6, 3, 3)),
                    psi ** 6 - Fraction(5, 2) * lam * psi ** 3 - Fraction(1, 8) * lam ** 2)
            assert tuple(con.c_formulas(u, v, w)) == want

    def test_scalar_array_and_polynomial_forms_agree(self):
        rng = np.random.default_rng(92)
        pts = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        rows = con.c_formulas(*pts.T)
        polys = con.c_polynomials()
        for k, t in enumerate(pts.tolist()):
            for got, want in zip(con.c_formulas(*t), rows):
                assert type(got) is complex
                assert abs(got - want[k]) <= 1e-13 * abs(got)
            exact = tuple(Fraction(int(z.real * 64), 64) for z in t)
            cv = con.c_formulas(*exact)
            assert all(isinstance(x, Fraction) for x in cv)
            assert tuple(cv[:3]) == tuple(poly_eval(p, exact) for p in polys)
        assert all(r.dtype == np.complex128 and r.shape == (50,) for r in rows)

    def test_polynomials_match_the_sparse_oracle(self):
        # c_polynomials and the Jacobian, term for term, against c_formulas
        # and the determinant of derivatives on the oracle's MultiPoly
        # variables, whose exponent vectors are (x1, x2, x3) too
        cat = group_catalog(("x",))
        xs = [VariableRef("x", i) for i in (1, 2, 3)]
        sparse = con.c_formulas(*(MultiPoly.variable(x, cat) for x in xs))[:3]
        for dense, want in zip(con.c_polynomials(), sparse):
            assert dense.terms == want.terms and want.terms
        cols = [[p.diff(x) for x in xs] for p in sparse]
        det = MultiPoly.zero(cat)
        for sigma, sign in PERMS3:
            term = cols[0][sigma[0]] * cols[1][sigma[1]] * cols[2][sigma[2]]
            det = det + (term if sign > 0 else -term)
        assert jacobian_polynomial().terms == det.terms and det.terms

    def test_c12_prime_equals_twelve_mirror_product_exactly(self):
        rng = np.random.default_rng(92)
        triples = [(1, -1, 0), (0, 0, 0), (1, 1, 1), (2, 0, 5)]
        triples += [tuple(Fraction(int(p), int(q)) for p, q in zip(rng.integers(-40, 41, 3),
                                                                  rng.integers(1, 13, 3)))
                    for _ in range(60)]
        for t in triples:
            got, want = con.c12_prime(*t), c12_prime_mirrors(*t)
            assert isinstance(want, Fraction) and got == want, t

    def test_c12_prime_product_equals_closed_form(self):
        # the closed form against the twelve mirror forms u v w (eps^a u +
        # eps^b v + w) multiplied out in complex arithmetic
        rng = np.random.default_rng(91)
        for _ in range(20):
            u, v, w = (complex(a, b) for a, b in rng.standard_normal((3, 2)))
            want = u * v * w
            for a in range(3):
                for b in range(3):
                    want *= EPS_COMPLEX ** a * u + EPS_COMPLEX ** b * v + w
            got = con.c12_prime(u, v, w)
            assert abs(got - want) < 1e-10 * max(abs(want), 1)


def _cubic_form(coeffs: dict, exact: bool) -> Form:
    """The cubic sum coeffs[e] x^e as a one-group x `Form`, each coefficient
    on the one tensor entry (0,)*e1 + (1,)*e2 + (2,)*e3: an object tensor
    when exact, else complex."""
    tensor = np.zeros((3, 3, 3), dtype=object if exact else complex)
    for (e1, e2, e3), c in coeffs.items():
        tensor[(0,) * e1 + (1,) * e2 + (2,) * e3] = c
    return Form(tensor, ("x",) * 3)


def _hesse_cubic(phi, psi, exact=False):
    """-phi*(x1^3+x2^3+x3^3) + psi*x1x2x3 as a one-group form."""
    mk = Fraction if exact else complex
    return _cubic_form({(3, 0, 0): mk(-phi), (0, 3, 0): mk(-phi),
                        (0, 0, 3): mk(-phi), (1, 1, 1): mk(psi)}, exact)


class TestAronhold:
    def test_fermat_cubic(self):
        # phi = -1, psi = 0: the cubic is x^3+y^3+z^3; S = 0, T = 1
        pair = con.aronhold(_hesse_cubic(-1, 0))
        assert abs(pair.s) < 1e-12
        assert abs(pair.t - 1) < 1e-10
        assert abs(64 * pair.s ** 3 + pair.t ** 2 - 1) < 1e-9

    def test_triangle_cubic(self):
        # phi = 0, psi = 1: the cubic x1x2x3 is singular
        pair = con.aronhold(_hesse_cubic(0, 1))
        assert abs(pair.s + 1 / 1296) < 1e-12
        assert abs(pair.t + 8 / 46656) < 1e-12
        assert abs(64 * pair.s ** 3 + pair.t ** 2) < 1e-15

    def test_exact_mode_hesse_family(self):
        pair = con.aronhold(_hesse_cubic(1, 2, exact=True))
        assert pair.s == Fraction(-28, 81)
        assert pair.t == Fraction(1261, 729)

    def test_smooth_vs_singular_discriminant(self):
        # members of the pencil -(x^3+y^3+z^3) + psi*xyz are singular exactly
        # at psi^3 = 27; check one singular and one smooth member
        singular = con.aronhold(_hesse_cubic(1, 3))
        smooth = con.aronhold(_hesse_cubic(1, 2))
        assert abs(64 * singular.s ** 3 + singular.t ** 2) < 1e-12
        assert abs(64 * smooth.s ** 3 + smooth.t ** 2) > 1e-6

    def test_s_matches_degree12_invariant(self):
        # -6^4 S of a slice cubic against the closed C12 of the generating
        # triple of a det-1-scrambled normal form
        from trimoduli.qutrit_state import apply_local, random_local_transform

        for seed in (92, 93, 94):
            t = random_parameter_triple(seed)
            s = apply_local(normal_form_state(t), random_local_transform(seed + 10))
            pair = con.aronhold(slice_cubic(s, "x"))
            want = con.c_formulas(*t).c12
            assert abs(1296 * pair.s + want) < 1e-9 * abs(want)

    def test_slices_share_invariants(self):
        s = random_state(95)
        pairs = [con.aronhold(slice_cubic(s, axis)) for axis in ("x", "y", "z")]
        scale = max(abs(pairs[0].s), abs(pairs[0].t))
        for p in pairs[1:]:
            assert abs(p.s - pairs[0].s) < 1e-9 * scale
            assert abs(p.t - pairs[0].t) < 1e-9 * scale

    def test_delta_equals_twelve_plane_cube(self):
        for seed in range(96, 106):
            t = random_parameter_triple(seed)
            inv = con.invariants(normal_form_state(t))
            want = con.c12_prime(*t) ** 3
            assert abs(inv.delta - want) <= 1e-9 * max(abs(want), 1e-9)

    def test_hessian_tensor_is_slice_tensor(self):
        # the Hessian det(d^2F/dx_a dx_b) of an integer cubic, expanded as a
        # polynomial, has K tensor slice_tensor(K) for the K of the cubic
        from trimoduli.qutrit_state import slice_tensor

        cat = group_catalog(("x",))
        xs = [VariableRef("x", i) for i in (1, 2, 3)]
        amp = np.random.default_rng(107).integers(-3, 4, size=(3, 3, 3))
        k = slice_tensor(amp)
        cubic = MultiPoly(cat, {e: Fraction(c) for e, c in slice_cubic_expansion(amp, 0).items()})
        second = [[cubic.diff(a).diff(b) for b in xs] for a in xs]
        hessian = MultiPoly.zero(cat)
        for sigma, sign in PERMS3:
            term = second[0][sigma[0]] * second[1][sigma[1]] * second[2][sigma[2]]
            hessian = hessian + (term if sign > 0 else -term)
        kh = slice_tensor(k)
        assert kh.dtype == np.int64
        for idx in np.ndindex(3, 3, 3):
            exps = tuple(idx.count(i) for i in range(3))
            coeff = hessian.terms.get(exps, 0)
            assert kh[idx] == coeff * math.prod(map(math.factorial, exps))

    def test_matches_permutation_loops_exactly(self):
        rng = np.random.default_rng(108)
        exps = [e for e in np.ndindex(4, 4, 4) if sum(e) == 3]
        for _ in range(3):
            coeffs = {e: Fraction(int(c)) for e, c in zip(exps, rng.integers(-4, 5, len(exps)))}
            pair = con.aronhold(_cubic_form(coeffs, exact=True))
            s_raw, t_raw = aronhold_raws_loop(coeffs)
            assert pair.s == s_raw * con.ARONHOLD_S_SCALE != 0
            assert pair.t == t_raw * con.ARONHOLD_T_SCALE != 0

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            con.aronhold(Form(np.array([1, 0, 0], dtype=object), ("x",)))
        with pytest.raises(ValueError):
            con.aronhold(Form(np.ones((3, 3, 3)), ("x", "x", "y")))


class TestSyzygyResiduals:
    def test_random_state_small(self):
        s = random_state(110)
        res = con.syzygy_residuals(s, seed=111)
        assert len(res) == 12
        assert max(r for _, r in res) < 1e-9

    def test_zero_state_exact(self):
        res = con.syzygy_residuals(ZERO_STATE, seed=112)
        assert all(r == 0.0 for _, r in res)

    def test_scaled_state(self):
        s = random_state(113).scaled(3.7 - 0.2j)
        res = con.syzygy_residuals(s, seed=114)
        assert max(r for _, r in res) < 1e-9


class TestJacobian:
    def test_ratio_constant(self):
        checks = [jacobian_check(random_parameter_triple(s)) for s in (120, 121)]
        r0, r1 = checks[0].ratio, checks[1].ratio
        assert abs(r0 - r1) < 1e-9 * abs(r0)

    def test_exact_ratio_value(self, calibrated):
        chk = jacobian_check((Fraction(1), Fraction(2), Fraction(3)))
        assert chk.ratio == calibrated["jacobian_vs_c12_prime_sq"]

    def test_mirror_plane_flagged(self):
        chk = jacobian_check((1, -1, 0))
        assert abs(chk.jacobian) < 1e-9
        assert chk.ratio is None

    def test_scaling_degree_24(self):
        t = random_parameter_triple(122)
        chk1 = jacobian_check(t)
        chk2 = jacobian_check(tuple(2.0 * z for z in t))
        assert abs(chk2.jacobian - 2 ** 24 * chk1.jacobian) < 1e-9 * abs(chk2.jacobian)


class TestSemistability:
    def test_diagonal_unit(self):
        s = normal_form_state((1, 0, 0))
        assert con.leading_degree(s.amplitudes, con.invariants(s)) in (6, 12)

    def test_product_state(self):
        s = State(PRODUCT_111)
        assert con.leading_degree(s.amplitudes, con.invariants(s)) is None

    def test_zero_state(self):
        assert con.leading_degree(ZERO_STATE.amplitudes, con.invariants(ZERO_STATE)) is None


def _point(s):
    inv = con.invariants(s)
    return con.projective_point(inv, con.leading_degree(s.amplitudes, inv))


class TestProjectivePoint:
    def test_diagonal_unit(self):
        s = normal_form_state((1, 0, 0))
        p = _point(s)
        assert abs(p[0] - 1) < 1e-12
        assert abs(p[1]) < 1e-12
        assert abs(p[2] - 1) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(130)
        for seed in (131, 132):
            s = random_state(seed)
            t = complex(*rng.standard_normal(2))
            p1 = _point(s)
            p2 = _point(s.scaled(t))
            for a, b in zip(p1, p2):
                assert abs(a - b) < 1e-7 * max(abs(a), 1.0)

    def test_leading_invariant_vanishing_branch(self):
        # a point on the I6 = 0 hypersurface with I9 != 0: solve
        # C6(1, 2, w) = w^6 - 90 w^3 - 15 = 0 for w
        import cmath

        w = ((90 + cmath.sqrt(8160)) / 2) ** (1 / 3)
        s = normal_form_state((1, 2, w))
        assert abs(con.c_formulas(1, 2, w).c6) < 1e-9
        p = _point(s)
        assert p[0] == 0
        assert p[1] == 1
        assert abs(p[2]) > 1.0
        for t in (0.7 + 1.3j, -2.1 + 0.4j):
            q = _point(s.scaled(t))
            assert max(abs(a - b) for a, b in zip(p, q)) < 1e-7 * abs(p[2])

    def test_zero_state_rejected(self):
        inv = con.invariants(ZERO_STATE)
        degree = con.leading_degree(ZERO_STATE.amplitudes, inv)
        with pytest.raises(ValueError, match="not semi-stable"):
            con.projective_point(inv, degree)

    def test_null_cone_rejected(self):
        s = State(PRODUCT_111)
        inv = con.invariants(s)
        degree = con.leading_degree(s.amplitudes, inv)
        with pytest.raises(ValueError, match="not semi-stable"):
            con.projective_point(inv, degree)
