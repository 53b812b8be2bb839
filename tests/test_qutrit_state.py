import json
import math

import numpy as np
import pytest

from trimoduli import concomitants
from trimoduli.poly_engine import Form
from trimoduli.qutrit_state import (
    EVEN_TRIPLES,
    ODD_TRIPLES,
    LocalTransform,
    State,
    StateIOError,
    apply_local,
    normal_form_state,
    random_local_transform,
    random_state,
    read_state,
    reduced_density,
    slice_tensor,
    write_state,
)

from oracles import (
    MultiPoly,
    VariableRef,
    compose_local,
    form_to_poly,
    group_catalog,
    identity_local,
    orbit_dimension,
    slice_cubic,
    slice_cubic_expansion,
    states_close,
)

PRODUCT_111 = np.zeros((3, 3, 3), dtype=complex)
PRODUCT_111[0, 0, 0] = 1.0


class TestNormalForm:
    def test_diagonal_only(self):
        s = normal_form_state((1, 0, 0))
        want = np.zeros((3, 3, 3), dtype=complex)
        for i in range(3):
            want[i, i, i] = 1.0
        assert np.array_equal(s.amplitudes, want)

    def test_odd_permutation_support(self):
        s = normal_form_state((0, 1, 0))
        support = {idx for idx in np.ndindex(3, 3, 3) if s.amplitudes[idx] != 0}
        assert support == {(i - 1, j - 1, k - 1) for (i, j, k) in ODD_TRIPLES}

    def test_even_permutation_support(self):
        s = normal_form_state((0, 0, 1))
        support = {idx for idx in np.ndindex(3, 3, 3) if s.amplitudes[idx] != 0}
        assert support == {(i - 1, j - 1, k - 1) for (i, j, k) in EVEN_TRIPLES}

    def test_zero_triple(self):
        assert normal_form_state((0, 0, 0)).norm_sq == 0.0

    def test_norm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u, v, w = (complex(a, b) for a, b in rng.standard_normal((3, 2)))
            s = normal_form_state((u, v, w))
            want = 3 * (abs(u) ** 2 + abs(v) ** 2 + abs(w) ** 2)
            assert abs(s.norm_sq - want) < 1e-12 * max(want, 1.0)


class TestApplyLocal:
    def test_identity(self):
        s = random_state(11)
        out = apply_local(s, identity_local())
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_diagonal_action(self):
        g = LocalTransform(np.diag([2.0, 0.5, 1.0]).astype(complex),
                           np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        out = apply_local(normal_form_state((1, 0, 0)), g)
        assert out.amplitudes[0, 0, 0] == 2.0
        assert out.amplitudes[1, 1, 1] == 0.5
        assert out.amplitudes[2, 2, 2] == 1.0

    def test_invariant_preserved(self):
        s = random_state(12)
        g = random_local_transform(13)
        assert all(abs(np.linalg.det(m) - 1.0) < 1e-12 for m in (g.g1, g.g2, g.g3))
        i6_before = concomitants.invariants(s).i6
        i6_after = concomitants.invariants(apply_local(s, g)).i6
        assert abs(i6_after - i6_before) / abs(i6_before) < 1e-8

    def test_group_action_composition(self):
        rng_seeds = range(100, 150)
        s = random_state(14)
        for seed in rng_seeds:
            # non-unit determinants: scalar multiples of the seeded det-1 transforms
            g0, h0 = random_local_transform(seed), random_local_transform(seed + 1000)
            g = LocalTransform(*(k * m for k, m in zip((1.7, 0.4j, -2.3 + 0.5j), (g0.g1, g0.g2, g0.g3))))
            h = LocalTransform(*(k * m for k, m in zip((0.6 - 1.1j, 3.2, 0.9j), (h0.g1, h0.g2, h0.g3))))
            lhs = apply_local(apply_local(s, h), g)
            rhs = apply_local(s, compose_local(g, h))
            scale = float(np.max(np.abs(rhs.amplitudes)))
            assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-12 * scale


class TestSliceCubic:
    def test_diagonal_form(self):
        cubic = form_to_poly(slice_cubic(normal_form_state((1, 0, 0)), "x"))
        cat = group_catalog(("x",))
        want = (MultiPoly.variable(VariableRef("x", 1), cat)
                * MultiPoly.variable(VariableRef("x", 2), cat)
                * MultiPoly.variable(VariableRef("x", 3), cat))
        items = dict(cubic.term_items())
        want_items = dict(want.term_items())
        assert set(items) == set(want_items)
        for k, v in want_items.items():
            assert abs(items[k] - v) < 1e-12

    def test_hesse_shape_for_normal_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            u, v, w = (complex(a, b) for a, b in rng.standard_normal((3, 2)))
            phi, psi = u * v * w, u ** 3 + v ** 3 + w ** 3
            for axis in ("x", "y", "z"):
                cubic = form_to_poly(slice_cubic(normal_form_state((u, v, w)), axis))
                coeffs = {}
                for sig, c in cubic.term_items():
                    key = tuple(sorted((vr.index, e) for vr, e in sig))
                    coeffs[key] = c
                scale = max(abs(phi), abs(psi), 1.0)
                for i in (1, 2, 3):
                    assert abs(coeffs.get(((i, 3),), 0) + phi) < 1e-12 * scale
                assert abs(coeffs.get(((1, 1), (2, 1), (3, 1)), 0) - psi) < 1e-12 * scale

    def test_equals_sixth_of_covariant(self):
        s = random_state(22)
        cubic = slice_cubic(s, "x")
        b_alpha = concomitants.bundle_from_form(s.amplitudes)["b_alpha"]
        lhs = dict(form_to_poly(cubic).term_items())
        rhs = dict(form_to_poly(b_alpha).term_items())
        scale = max(abs(c) for c in rhs.values())
        for k in set(lhs) | set(rhs):
            assert abs(6 * lhs.get(k, 0) - rhs.get(k, 0)) < 1e-12 * scale

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            slice_cubic(random_state(1), "q")

    def test_is_a_one_group_form(self):
        s = random_state(24)
        for n, axis in enumerate("xyz"):
            cubic = slice_cubic(s, axis)
            assert isinstance(cubic, Form) and cubic.groups == (axis,) * 3
            k = slice_tensor(np.moveaxis(s.amplitudes, n, 0))
            assert np.array_equal(cubic.tensor, k / 6)

    def test_state_form_is_the_trilinear_form(self):
        s = random_state(25)
        f = s.form()
        assert isinstance(f, Form) and f.groups == ("x", "y", "z")
        assert np.array_equal(f.tensor, s.amplitudes)

    def test_tensor_is_six_times_the_determinant_expansion(self):
        # K[a,b,c] times the number of arrangements of its monomial is six
        # times that monomial's coefficient, exactly, in int64
        rng = np.random.default_rng(23)
        for _ in range(4):
            amp = rng.integers(-4, 5, size=(3, 3, 3))
            for axis in range(3):
                k = slice_tensor(np.moveaxis(amp, axis, 0))
                assert k.dtype == np.int64
                coeffs = slice_cubic_expansion(amp, axis)
                for idx in np.ndindex(3, 3, 3):
                    exps = tuple(idx.count(i) for i in range(3))
                    arrangements = 6 // math.prod(map(math.factorial, exps))
                    assert int(k[idx]) * arrangements == 6 * coeffs[exps]


class TestReducedDensity:
    def test_diagonal_state_maximally_mixed(self):
        rho = reduced_density(normal_form_state((1, 0, 0)), 1)
        assert np.allclose(rho, np.eye(3))

    def test_product_state(self):
        rho = reduced_density(State(PRODUCT_111), 1)
        assert np.allclose(rho, np.diag([1.0, 0.0, 0.0]))

    def test_normal_form_proportional_to_identity(self):
        rng = np.random.default_rng(31)
        u, v, w = (complex(a, b) for a, b in rng.standard_normal((3, 2)))
        expect = (abs(u) ** 2 + abs(v) ** 2 + abs(w) ** 2) * np.eye(3)
        for party in (1, 2, 3):
            rho = reduced_density(normal_form_state((u, v, w)), party)
            assert np.allclose(rho, expect)

    def test_trace_identity(self):
        for seed in range(40, 45):
            s = random_state(seed)
            total = sum(reduced_density(s, p).trace().real for p in (1, 2, 3))
            assert abs(total - 3 * s.norm_sq) < 1e-10 * s.norm_sq

    def test_hermitian_psd(self):
        s = random_state(46)
        for p in (1, 2, 3):
            rho = reduced_density(s, p)
            assert np.allclose(rho, rho.conj().T)
            assert np.linalg.eigvalsh(rho).min() > -1e-12


W_STATE = np.zeros((3, 3, 3), dtype=complex)
W_STATE[0, 0, 1] = W_STATE[0, 1, 0] = W_STATE[1, 0, 0] = 1.0


class TestOrbitDimension:
    @pytest.mark.parametrize("amplitudes, dim", [
        (normal_form_state((1, 1, -1)).amplitudes, 24),
        (normal_form_state((1, 0, 0)).amplitudes, 20),
        (normal_form_state((0, 1, -1)).amplitudes, 16),
        (normal_form_state((1, 1, 0)).amplitudes, 22),
        (W_STATE, 13),
        (PRODUCT_111, 7),
        (np.zeros((3, 3, 3), dtype=complex), 0),
    ], ids=["generic-normal-form", "normal-form-100", "normal-form-01m1",
            "normal-form-110", "w-state", "product-state", "zero-state"])
    def test_named_state(self, amplitudes, dim):
        assert orbit_dimension(State(amplitudes)) == dim


class TestStateIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        s = normal_form_state((1, 0, 0))
        write_state(path, s)
        assert states_close(read_state(path), s, tol=0.0)

    def test_round_trip_random(self, tmp_path):
        path = tmp_path / "state.json"
        s = random_state(99)
        write_state(path, s)
        assert states_close(read_state(path), s, tol=0.0)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "trimoduli-state-v1",
                                    "amplitudes": [[0.0, 0.0]] * 26}))
        with pytest.raises(StateIOError, match="27"):
            read_state(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.json"
        amps = [[0.0, 0.0]] * 26 + [[math.nan, 0.0]]
        path.write_text(json.dumps({"format": "trimoduli-state-v1", "amplitudes": amps}))
        with pytest.raises(StateIOError, match="finite"):
            read_state(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "amplitudes": [[0.0, 0.0]] * 27}))
        with pytest.raises(StateIOError, match="format"):
            read_state(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateIOError, match="JSON"):
            read_state(path)


class TestStateConstruction:
    def test_non_contiguous_arrays(self):
        a = random_state(5).amplitudes
        views = (np.transpose(a, (0, 2, 1)), np.moveaxis(a, 0, -1), a[..., ::-1],
                 np.asfortranarray(a.real))
        for view in views:
            s = State(view)
            assert s.amplitudes.flags.c_contiguous
            assert np.array_equal(s.amplitudes, view)

    def test_callers_array_is_copied(self):
        a = np.arange(27, dtype=complex).reshape(3, 3, 3)
        s = State(a)
        assert a.flags.writeable and not s.amplitudes.flags.writeable
        a[0, 0, 0] = 5.0
        assert s.amplitudes[0, 0, 0] == 0.0

    def test_non_finite_parts(self):
        for bad in (complex(math.inf, 0.0), complex(0.0, math.nan)):
            a = np.zeros((3, 3, 3), dtype=complex)
            a[1, 2, 0] = bad
            with pytest.raises(StateIOError, match="finite"):
                State(a)


class TestRandomState:
    def test_seed_determinism(self):
        a = random_state(7)
        b = random_state(7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_seeds_differ(self):
        a = random_state(7)
        b = random_state(8)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) > 0

    def test_generic_invariants_nonzero(self):
        for seed in (1, 2, 3):
            s = random_state(seed)
            inv = concomitants.invariants(s)
            norm = math.sqrt(s.norm_sq)
            assert abs(inv.i6) > 1e-8 * norm ** 6
            assert abs(inv.i9) > 1e-8 * norm ** 9
            assert abs(inv.i12) > 1e-8 * norm ** 12
