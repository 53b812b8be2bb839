from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimoduli.poly_engine import Form, Poly, PolyError, transvectant
from trimoduli.qutrit_state import normal_form_amplitudes, trilinear_form

from oracles import (
    EPS,
    Cyclo,
    MultiPoly,
    VariableRef,
    form_to_poly,
    group_catalog,
    make_catalog,
    omega_apply,
    poly_diff,
    poly_eval,
    reslot,
    trace_collapse,
    transvectant_naive,
    transvectant_sparse,
)

X1, X2, X3 = (VariableRef("x", i) for i in (1, 2, 3))
CAT_X = group_catalog(("x",))
CAT_X3 = make_catalog(VariableRef("x", i, s) for i in (1, 2, 3) for s in (1, 2, 3))
XYZ = ("x", "y", "z")

# the factor groups and omega budgets of every transvectant in the package:
# the recipes of `bundle_from_form` (f, P products, Q and the E inputs) and
# the full contractions of `invariant_raws`
SRC_SHAPES = (
    ((XYZ, XYZ, ("y", "z", "eta", "zeta")), (0, 1, 1), (0, 0, 0)),
    ((XYZ, XYZ, XYZ), (0, 1, 1), (0, 0, 0)),
    ((XYZ, XYZ, XYZ), (1, 0, 1), (0, 0, 0)),
    ((XYZ, XYZ, XYZ), (1, 1, 0), (0, 0, 0)),
    ((XYZ, XYZ, ("x", "y", "y", "z", "eta")), (1, 1, 0), (0, 0, 0)),
    ((("x", "y", "y", "z", "eta"), ("x", "y", "z", "z", "zeta"), XYZ), (1, 1, 1), (0, 0, 0)),
    ((("x", "x", "eta", "zeta"), XYZ, ("x", "xi")), (1, 0, 0), (0, 0, 0)),
    ((("x", "y", "y", "z", "z", "eta", "zeta"), XYZ, XYZ), (0, 1, 1), (0, 0, 0)),
    ((("x", "x", "y", "z", "xi"), ("x", "y", "y", "z", "eta"), ("x", "y", "z", "z", "zeta")),
     (1, 1, 1), (0, 0, 0)),
    ((("x", "x", "eta", "zeta"),) * 3, (2, 0, 0), (0, 1, 1)),
    ((("x", "y", "z", "xi", "eta", "zeta"),) * 3, (1, 1, 1), (1, 1, 1)),
    ((("x", "x", "x", "x", "y", "z"),) * 3, (4, 1, 1), (0, 0, 0)),
)


def var(v, catalog, coeff=1):
    return MultiPoly.variable(v, catalog, coeff)


def random_poly(rng, catalog, max_terms=8, max_exp=2, exact=True):
    n = rng.integers(1, max_terms + 1)
    terms = {}
    for _ in range(n):
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=len(catalog)))
        coeff = int(rng.integers(-5, 6))
        if coeff:
            terms[exps] = Fraction(coeff) if exact else complex(coeff)
    return MultiPoly(catalog, terms)


class TestScalars:
    def test_cyclotomic_defining_relation(self):
        assert EPS * EPS + EPS + 1 == Cyclo(0)
        assert EPS ** 3 == Cyclo(1)

    def test_conversion_is_ring_homomorphism(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = Cyclo(Fraction(int(rng.integers(-9, 10)), 7), Fraction(int(rng.integers(-9, 10)), 5))
            b = Cyclo(Fraction(int(rng.integers(-9, 10)), 3), Fraction(int(rng.integers(-9, 10)), 2))
            assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
            assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
        assert abs(EPS.to_complex() - complex(-0.5, 3 ** 0.5 / 2)) < 1e-15

    def test_inverse_and_conjugate(self):
        z = Cyclo(Fraction(2, 3), Fraction(-1, 4))
        assert z * z.inverse() == Cyclo(1)
        assert abs(z.conjugate().to_complex() - z.to_complex().conjugate()) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(*(st.fractions(min_value=-20, max_value=20) for _ in range(6)))
    def test_field_axioms_hypothesis(self, a1, b1, a2, b2, a3, b3):
        x, y, z = Cyclo(a1, b1), Cyclo(a2, b2), Cyclo(a3, b3)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if x:
            assert x * x.inverse() == Cyclo(1)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestPoly:
    X1, X2, X3 = (Poly.variable(i) for i in (1, 2, 3))

    def test_variables_and_products(self):
        assert self.X2.terms == {(0, 1, 0): 1}
        p = self.X1 * self.X1 * self.X3
        assert p.terms == {(2, 0, 1): 1}
        assert (p * self.X2).terms == {(2, 1, 1): 1}

    def test_scalar_on_either_side(self):
        for c in (3, Fraction(2, 7), EPS):
            assert (c * self.X1).terms == (self.X1 * c).terms == {(1, 0, 0): c}
        assert (self.X1 * 0).is_zero() and (Cyclo(0) * self.X2).is_zero()

    def test_cancellation_prunes_terms(self):
        assert (self.X1 - self.X1).is_zero()
        assert (self.X1 * self.X2 - self.X2 * self.X1).is_zero()
        assert ((self.X1 + self.X2) * (self.X1 - self.X2)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
        assert (-(self.X3 + self.X1)).terms == {(0, 0, 1): -1, (1, 0, 0): -1}
        assert Poly({(1, 0, 0): Fraction(0), (0, 1, 0): 2}).terms == {(0, 1, 0): 2}

    def test_formal_derivative(self):
        p = self.X1 * self.X1 * self.X2 * 5 + self.X3
        assert poly_diff(p, 1).terms == {(1, 1, 0): 10}
        assert poly_diff(p, 2).terms == {(2, 0, 0): 5}
        assert poly_diff(p, 3).terms == {(0, 0, 0): 1}
        assert poly_diff(self.X3, 1).is_zero()

    def test_eval_exact_and_complex(self):
        p = self.X1 * self.X1 * self.X2 - 4 * self.X3
        assert poly_eval(p, (2, 3, 5)) == -8
        assert poly_eval(p, (Fraction(1, 2), 4, Fraction(1, 4))) == 0
        assert poly_eval(p, (1j, 1, 0)) == -1
        assert poly_eval(Poly({}), (1, 2, 3)) == 0


class TestPolyCore:
    def test_formal_derivative(self):
        p = var(X1, CAT_X) * var(X1, CAT_X) * var(X2, CAT_X)
        assert p.diff(X1) == var(X1, CAT_X).scale(2) * var(X2, CAT_X)

    def test_eval_pairing_at_unit_point(self):
        cat = group_catalog(("x", "xi"))
        p = MultiPoly.zero(cat)
        for i in (1, 2, 3):
            p = p + var(VariableRef("x", i), cat) * var(VariableRef("xi", i), cat)
        point = {VariableRef("x", i): 1 if i == 1 else 0 for i in (1, 2, 3)}
        point.update({VariableRef("xi", i): 1 if i == 1 else 0 for i in (1, 2, 3)})
        assert p.eval(point) == 1

    def test_eval_requires_full_assignment(self):
        p = var(X1, CAT_X)
        with pytest.raises(PolyError):
            p.eval({})

    def test_catalog_mismatch_rejected(self):
        p = var(X1, CAT_X)
        q = var(VariableRef("y", 1), group_catalog(("y",)))
        with pytest.raises(PolyError):
            _ = p + q
        with pytest.raises(PolyError):
            _ = p * q

    def test_variable_outside_catalog_rejected(self):
        p = var(X1, CAT_X)
        with pytest.raises(PolyError):
            p.diff(VariableRef("y", 1))
        with pytest.raises(PolyError):
            MultiPoly.variable(VariableRef("y", 1), CAT_X)

    def test_serialization_deterministic(self):
        rng = np.random.default_rng(5)
        p = random_poly(rng, CAT_X)
        assert p.to_text() == MultiPoly(CAT_X, dict(p.terms)).to_text()
        assert p == MultiPoly(CAT_X, dict(reversed(list(p.terms.items()))))

    def test_zero_coefficients_pruned(self):
        p = MultiPoly(CAT_X, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
        assert len(p.terms) == 1

    def test_degree_queries_per_group_and_slot(self):
        p = var(VariableRef("x", 1, 1), CAT_X3) * var(VariableRef("x", 1, 1), CAT_X3) \
            * var(VariableRef("x", 2, 2), CAT_X3)
        assert p.degree() == 3
        assert p.degree(group="x") == 3
        assert p.degree(group="x", slot=1) == 2
        assert p.degree(group="x", slot=2) == 1
        assert p.degree(group="x", slot=3) == 0
        assert p.degree(group="y") == 0


class TestOmega:
    def test_identity_permutation_survives(self):
        p = var(VariableRef("x", 1, 1), CAT_X3) * var(VariableRef("x", 2, 2), CAT_X3) \
            * var(VariableRef("x", 3, 3), CAT_X3)
        assert omega_apply(p, "x").constant_value() == 1

    def test_repeated_column_vanishes(self):
        p = var(VariableRef("x", 1, 1), CAT_X3) * var(VariableRef("x", 1, 2), CAT_X3) \
            * var(VariableRef("x", 3, 3), CAT_X3)
        assert omega_apply(p, "x").is_zero()

    def test_degree_deficit_gives_zero(self):
        p = var(VariableRef("x", 1, 1), CAT_X3) * var(VariableRef("x", 2, 2), CAT_X3) \
            * var(VariableRef("x", 3, 3), CAT_X3)
        assert omega_apply(p, "x", 2).is_zero()

    def test_missing_slots_rejected(self):
        with pytest.raises(PolyError):
            omega_apply(var(X1, CAT_X), "x")

    def test_linearity_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_poly(rng, CAT_X3, max_terms=5)
            q = random_poly(rng, CAT_X3, max_terms=5)
            assert omega_apply(p + q, "x") == omega_apply(p, "x") + omega_apply(q, "x")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 1) for _ in range(9)]),
                  st.integers(-4, 4)),
        min_size=1, max_size=6))
    def test_linearity_hypothesis(self, raw_terms):
        terms = {}
        for exps, coeff in raw_terms:
            if coeff:
                terms[exps] = terms.get(exps, 0) + Fraction(coeff)
        p = MultiPoly(CAT_X3, terms)
        assert omega_apply(p.scale(Fraction(3)), "x") == omega_apply(p, "x").scale(Fraction(3))


class TestTrace:
    def test_slot_copies_identified(self):
        p = var(VariableRef("x", 1, 1), CAT_X3) * var(VariableRef("x", 1, 2), CAT_X3)
        traced = trace_collapse(p)
        assert traced == var(X1, CAT_X) * var(X1, CAT_X)

    def test_constant_unchanged(self):
        p = MultiPoly.constant(Fraction(7), CAT_X3)
        assert trace_collapse(p).constant_value() == 7

    def test_product_of_slotted_forms(self):
        amp = normal_form_amplitudes(Fraction(1), Fraction(2), Fraction(0))
        f = form_to_poly(trilinear_form(amp))
        cat = make_catalog(
            VariableRef(g, i, s) for g in ("x", "y", "z") for i in (1, 2, 3) for s in (1, 2, 3))
        prod = reslot(f, 1).with_catalog(cat) * reslot(f, 2).with_catalog(cat) \
            * reslot(f, 3).with_catalog(cat)
        assert trace_collapse(prod) == f * f * f


def random_form(rng, groups, nonzero, exact=True):
    """A form over the given groups whose tensor has `nonzero` random
    entries in -3..3, as Python ints (exact) or complex."""
    tensor = np.zeros((3,) * len(groups), dtype=object if exact else complex)
    for flat in rng.choice(tensor.size, size=min(nonzero, tensor.size), replace=False):
        value = int(rng.integers(-3, 4))
        tensor[np.unravel_index(flat, tensor.shape)] = value if exact else complex(value, value / 7)
    return Form(tensor, groups)


def naive(forms, upper, lower=(0, 0, 0)):
    return transvectant_naive(*map(form_to_poly, forms), upper=upper, lower=lower)


def int_form(amplitudes):
    return Form(np.array(amplitudes, dtype=object), XYZ)


class TestTransvectant:
    def test_zero_budget_is_product(self):
        f = int_form(normal_form_amplitudes(1, 0, 2))
        p = form_to_poly(f)
        product = transvectant(f, f, f, (0, 0, 0))
        assert product.groups == ("x",) * 3 + ("y",) * 3 + ("z",) * 3
        assert form_to_poly(product) == p * p * p == naive((f, f, f), (0, 0, 0))

    def test_ground_form_contraction_value(self):
        # (f^2, f^2, f^2)^{222} = 1152 for the diagonal unit normal form
        f = int_form(normal_form_amplitudes(1, 0, 0))
        f2 = f * f
        assert transvectant(f2, f2, f2, upper=(2, 2, 2)).tensor.item() == 1152
        assert naive((f2, f2, f2), (2, 2, 2)).constant_value() == 1152

    def test_factored_matches_naive_exact(self):
        # every budget shape of the package, on sparse random integer forms
        # (the naive expansion is exponential in the budget)
        rng = np.random.default_rng(23)
        for groups, upper, lower in SRC_SHAPES:
            nonzero = 0
            for _ in range(4):
                forms = [random_form(rng, g, 6) for g in groups]
                fast = form_to_poly(transvectant(*forms, upper, lower))
                assert fast == naive(forms, upper, lower), (groups, upper, lower)
                nonzero += not fast.is_zero()
            assert nonzero, (groups, upper, lower)

    def test_full_contractions_of_normal_form_concomitants(self):
        # the three full contractions of `invariant_raws` on the concomitants
        # of a sparse normal form, where none of them vanishes, against the
        # sparse engine and, but for the I9 one (4 s), the naive expansion
        from trimoduli import concomitants as con

        b = con.bundle_from_form(np.array(normal_form_amplitudes(1, 2, 0), dtype=object))
        baf = b["b_alpha"] * b["f"]
        e_a, e_b = b["e_alpha"], b["e_beta"]
        for forms, upper, lower in (((b["q_alpha"],) * 3, (2, 0, 0), (0, 1, 1)),
                                    ((e_a, e_b, e_b), (1, 1, 1), (1, 1, 1)),
                                    ((baf,) * 3, (4, 1, 1), (0, 0, 0))):
            fast = transvectant(*forms, upper, lower)
            assert fast.groups == ()
            polys = [form_to_poly(f) for f in forms]
            slow = transvectant_sparse(*polys, upper, lower).constant_value()
            assert fast.tensor.item() == slow != 0
            if upper != (1, 1, 1):
                assert naive(forms, upper, lower).constant_value() == slow

    def test_factored_matches_naive_with_duals(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            forms = [random_form(rng, ("x", "x", "xi", "xi"), 8) for _ in range(3)]
            fast = transvectant(*forms, upper=(1, 0, 0), lower=(1, 0, 0))
            assert form_to_poly(fast) == naive(forms, (1, 0, 0), (1, 0, 0))

    def test_factored_matches_naive_float(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            forms = [random_form(rng, ("x", "x", "y", "y"), 8, exact=False) for _ in range(3)]
            fast = transvectant(*forms, upper=(1, 1, 0))
            assert fast.tensor.dtype == complex
            fa = dict(form_to_poly(fast).term_items())
            sl = dict(naive(forms, (1, 1, 0)).term_items())
            scale = max((abs(c) for c in sl.values()), default=1.0)
            for k in set(fa) | set(sl):
                assert abs(fa.get(k, 0) - sl.get(k, 0)) <= 1e-12 * scale

    def test_degree_bookkeeping(self):
        # dense generic forms, so the top-degree part cannot die structurally
        rng = np.random.default_rng(37)

        def dense_form(degree):
            tensor = np.array([Fraction(int(rng.integers(10 ** 5, 10 ** 6))
                                        * (-1 if rng.integers(2) else 1), int(rng.integers(1, 97)))
                               for _ in range(3 ** degree)], dtype=object)
            return Form(tensor.reshape((3,) * degree), ("x",) * degree)

        for degrees, n1 in (((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 3, 3), 2),
                            ((3, 2, 2), 1), ((1, 1, 1), 1)):
            fs = [dense_form(d) for d in degrees]
            result = transvectant(*fs, upper=(n1, 0, 0))
            assert result.groups == ("x",) * (sum(degrees) - 3 * n1)
            poly = form_to_poly(result)
            assert not poly.is_zero()
            assert poly.degree(group="x") == len(result.groups)
            assert poly == naive(fs, (n1, 0, 0))

    def test_degree_deficit_raises(self):
        f = int_form(normal_form_amplitudes(1, 0, 0))
        with pytest.raises(PolyError):
            transvectant(f, f, f, upper=(2, 0, 0))
        with pytest.raises(PolyError):
            _ = f + f * f

    def test_exact_float_agreement(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            exact = [random_form(rng, ("x", "x", "y", "y"), 12) for _ in range(3)]
            floats = [Form(f.tensor.astype(complex), f.groups) for f in exact]
            r_exact = transvectant(*exact, upper=(1, 1, 0)).tensor.astype(complex)
            r_float = transvectant(*floats, upper=(1, 1, 0)).tensor
            scale = max(np.max(np.abs(r_exact)), 1.0)
            assert np.max(np.abs(r_exact - r_float)) <= 1e-10 * scale

    def test_value_matches_polynomial(self):
        rng = np.random.default_rng(43)
        f = random_form(rng, ("x", "y", "y", "xi"), 20)
        point = {g: rng.standard_normal(3) + 1j * rng.standard_normal(3) for g in ("x", "y", "xi")}
        want = form_to_poly(f).eval({VariableRef(g, i + 1): point[g][i]
                                     for g in point for i in range(3)})
        assert abs(f.value(point) - want) <= 1e-12 * max(abs(want), 1.0)
