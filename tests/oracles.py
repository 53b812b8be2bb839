"""Slow reference implementations that the tests compare the package with.

Nothing in the package calls these: `MultiPoly`, the sparse polynomial over
a catalog of variables `VariableRef(group, index, slot)`, and on it the
slot-copy omega calculus (expand the triple product, differentiate
symbolically, identify the slots), the sparse transvectant engine that the
dense `poly_engine.transvectant` replaced (omega expansions distributed over
a factored triple) with the concomitant recipes on it, a dense form written out as a sparse polynomial, the numpy
companion-matrix root finder, the slice cubic as a direct expansion of its
determinant, the Aronhold brackets as loops over permutations, the slice
tensor, the Aronhold bracket, I6 and I9 as chains of einsum contractions
against the Levi-Civita symbols, an all-pairs
union-find, the form problem's candidate enumeration, check and sign
filter, as whole arrays (the oracle of the orbit that `solve` returns) and
as scalar loops, the first-order round-robin filtering iteration
that the Newton steps of `slocc_normalize` replaced, the orbit dimension
of a state, the composition and the identity of local transforms,
`Cyclo`, the exact field Q(eps) of the group entries, with the 18 ints of
an element from its `Cyclo` rows (`pairs`) and back
(`exact_rows`) and C12' as the product of the twelve mirror forms, the
complex matrix of one group element entry by entry, the structure probes
of a group (commutation, element orders, pseudo-reflections), its orbits
and stabilizers in exact products of `Cyclo` rows and as products with the
whole complex matrix stack with a six-key `lexsort` of the rows (`orbit_stack`,
`stabilizer_stack`, `sort_rows`), and the form problem
solved on invariants taken exactly over Q(i).  Also `set_distance`
between two triple sets, `states_close`, the test comparison of two states, the derivative and the value of a `Poly`
with the Jacobian of (C6, C9, C12) on them (`jacobian_check`), the slice
cubic of a state as a one-group `Form` (`slice_cubic`), and the entries of
calibration_report.json that the package does not read, with the report
writer (`write_calibration_report`).
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from trimoduli import form_problem as fp
from trimoduli import reflection_group as rg
from trimoduli.concomitants import (
    _CAL_TRIPLES,
    _fit_constant,
    c12_prime,
    c9_formula,
    c_formulas,
    c_polynomials,
    calibration,
    is_exact,
)
from trimoduli.poly_engine import (
    _GROUP_RANK,
    GROUPS,
    PERMS3,
    Form,
    Poly,
    PolyError,
)
from trimoduli.qutrit_state import (
    LEVI_CIVITA,
    LocalTransform,
    State,
    apply_local,
    reduced_density,
    slice_tensor,
    tangent_rows,
)


# --- the sparse polynomial over catalogs of slotted variables ----------------

class VariableRef(NamedTuple):
    """One variable: group in {x,y,z,xi,eta,zeta}, index 1..3, slot 1..3."""

    group: str
    index: int
    slot: int = 1

    def key(self):
        return (_GROUP_RANK[self.group], self.slot, self.index)

    def __str__(self) -> str:
        if self.slot == 1:
            return f"{self.group}{self.index}"
        return f"{self.group}{self.index}({self.slot})"


def _check_var(v: VariableRef) -> VariableRef:
    if v.group not in _GROUP_RANK:
        raise PolyError(f"unknown variable group {v.group!r}")
    if v.index not in (1, 2, 3) or v.slot not in (1, 2, 3):
        raise PolyError(f"variable index/slot out of range: {v}")
    return v


def make_catalog(variables: Iterable[VariableRef]) -> tuple[VariableRef, ...]:
    """Canonical catalog: validated, deduplicated, sorted."""
    vs = sorted({_check_var(VariableRef(*v)) for v in variables}, key=VariableRef.key)
    return tuple(vs)


def group_catalog(groups: Sequence[str]) -> tuple[VariableRef, ...]:
    """Slot-1 catalog holding all three indices of the given groups."""
    return make_catalog(VariableRef(g, i) for g in groups for i in (1, 2, 3))


class MultiPoly:
    """Immutable sparse polynomial over a fixed variable catalog.

    Terms map dense exponent tuples (aligned with the catalog order) to
    nonzero coefficients.  Serialization order is the sorted order of the
    exponent tuples, which is deterministic for a fixed catalog.
    """

    __slots__ = ("catalog", "terms", "_pos")

    def __init__(self, catalog: tuple[VariableRef, ...], terms: Mapping[tuple, object] | None = None):
        self.catalog = catalog
        self._pos = {v: i for i, v in enumerate(catalog)}
        pruned = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != len(catalog):
                    raise PolyError("exponent vector length does not match catalog")
                if coeff:
                    pruned[tuple(exps)] = coeff
        self.terms = pruned

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, catalog) -> "MultiPoly":
        return cls(catalog, {})

    @classmethod
    def constant(cls, value, catalog) -> "MultiPoly":
        return cls(catalog, {(0,) * len(catalog): value})

    @classmethod
    def variable(cls, var: VariableRef, catalog, coeff=1) -> "MultiPoly":
        var = VariableRef(*var)
        mono = [0] * len(catalog)
        try:
            mono[list(catalog).index(var)] = 1
        except ValueError:
            raise PolyError(f"variable {var} outside catalog") from None
        return cls(catalog, {tuple(mono): coeff})

    # -- bookkeeping -------------------------------------------------------

    def _require_same_catalog(self, other: "MultiPoly"):
        if self.catalog != other.catalog:
            raise PolyError("catalog mismatch between operands")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and next(iter(self.terms)) == (0,) * len(self.catalog))

    def constant_value(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise PolyError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self, group: str | None = None, slot: int | None = None) -> int:
        """Max total degree, restricted to a group and/or slot if given."""
        best = 0
        for exps in self.terms:
            d = 0
            for v, e in zip(self.catalog, exps):
                if group is not None and v.group != group:
                    continue
                if slot is not None and v.slot != slot:
                    continue
                d += e
            best = max(best, d)
        return best

    def variables_present(self) -> tuple[VariableRef, ...]:
        used = set()
        for exps in self.terms:
            for v, e in zip(self.catalog, exps):
                if e:
                    used.add(v)
        return tuple(sorted(used, key=VariableRef.key))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_same_catalog(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = merged.get(exps)
            if acc is None:
                merged[exps] = coeff
            else:
                total = acc + coeff
                if total:
                    merged[exps] = total
                else:
                    del merged[exps]
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos, out.terms = self.catalog, self._pos, merged
        return out

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos = self.catalog, self._pos
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, value) -> "MultiPoly":
        if not value:
            return MultiPoly.zero(self.catalog)
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos = self.catalog, self._pos
        out.terms = {e: c * value for e, c in self.terms.items()}
        return out

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._require_same_catalog(other)
        prod: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = prod.get(key)
                if acc is None:
                    prod[key] = c
                else:
                    total = acc + c
                    if total:
                        prod[key] = total
                    else:
                        del prod[key]
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos = self.catalog, self._pos
        out.terms = {e: c for e, c in prod.items() if c}
        return out

    __rmul__ = __mul__

    def diff(self, var: VariableRef) -> "MultiPoly":
        """Formal partial derivative with respect to one catalog variable."""
        var = VariableRef(*var)
        pos = self._pos.get(var)
        if pos is None:
            raise PolyError(f"variable {var} outside catalog")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e:
                key = exps[:pos] + (e - 1,) + exps[pos + 1:]
                c = coeff * e
                acc = terms.get(key)
                terms[key] = c if acc is None else acc + c
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos = self.catalog, self._pos
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def diff_multi(self, orders: Mapping[VariableRef, int]) -> "MultiPoly":
        """Multi-derivative; equivalent to iterated diff but done per term."""
        order_vec = [0] * len(self.catalog)
        for var, k in orders.items():
            pos = self._pos.get(VariableRef(*var))
            if pos is None:
                raise PolyError(f"variable {var} outside catalog")
            order_vec[pos] += k
        terms = {}
        for exps, coeff in self.terms.items():
            factor = 1
            key = []
            for e, d in zip(exps, order_vec):
                if e < d:
                    factor = 0
                    break
                if d:
                    factor *= math.perm(e, d)
                key.append(e - d)
            if factor:
                k = tuple(key)
                c = coeff * factor
                acc = terms.get(k)
                terms[k] = c if acc is None else acc + c
        out = MultiPoly.__new__(MultiPoly)
        out.catalog, out._pos = self.catalog, self._pos
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def eval(self, assignment: Mapping[VariableRef, object]):
        """Evaluate at a point; every variable actually present must be set."""
        values = {VariableRef(*v): val for v, val in assignment.items()}
        missing = [v for v in self.variables_present() if v not in values]
        if missing:
            raise PolyError(f"assignment misses variables: {missing}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(self.catalog, exps):
                if e:
                    term = term * values[v] ** e
            total = total + term
        return total

    # -- structure maps ----------------------------------------------------

    def with_catalog(self, catalog: tuple[VariableRef, ...]) -> "MultiPoly":
        """Re-express over a (super)catalog; fails if variables would be lost."""
        new_pos = {v: i for i, v in enumerate(catalog)}
        terms = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(catalog)
            for v, e in zip(self.catalog, exps):
                if e:
                    if v not in new_pos:
                        raise PolyError(f"variable {v} not representable in target catalog")
                    key[new_pos[v]] = e
            terms[tuple(key)] = coeff
        return MultiPoly(catalog, terms)

    def to_complex(self) -> "MultiPoly":
        """Convert exact coefficients to complex floats."""
        return MultiPoly(self.catalog, {e: complex(c) for e, c in self.terms.items()})

    # -- canonical forms -----------------------------------------------------

    def term_items(self):
        """Catalog-independent canonical term list: ((var, exp), ...) -> coeff."""
        items = []
        for exps, coeff in self.terms.items():
            sig = tuple((v, e) for v, e in zip(self.catalog, exps) if e)
            items.append((sig, coeff))
        items.sort(key=lambda it: tuple((v.key(), e) for v, e in it[0]))
        return items

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for sig, coeff in self.term_items():
            mono = " ".join(str(v) if e == 1 else f"{v}^{e}" for v, e in sig)
            chunks.append(f"({coeff})" + (f" {mono}" if mono else ""))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly[{len(self.terms)} terms over {len(self.catalog)} vars]"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.term_items() == other.term_items()

    def __hash__(self):
        return hash(tuple(self.term_items()))



def map_variables(p: MultiPoly, mapping) -> MultiPoly:
    """Rename variables via mapping(var) -> var; exponents of collided
    variables add (this is what identifying slots means)."""
    image = {v: VariableRef(*mapping(v)) for v in p.catalog}
    catalog = make_catalog(image.values())
    pos = {v: i for i, v in enumerate(catalog)}
    terms: dict[tuple, object] = {}
    for exps, coeff in p.terms.items():
        key = [0] * len(catalog)
        for v, e in zip(p.catalog, exps):
            if e:
                key[pos[image[v]]] += e
        k = tuple(key)
        acc = terms.get(k)
        terms[k] = coeff if acc is None else acc + coeff
    return MultiPoly(catalog, terms)


def reslot(p: MultiPoly, slot: int) -> MultiPoly:
    """Move every variable of a polynomial into the given slot copy."""
    return map_variables(p, lambda v: VariableRef(v.group, v.index, slot))


def trace_collapse(p: MultiPoly) -> MultiPoly:
    """Identify all slot copies of every group (the multiplication map)."""
    return map_variables(p, lambda v: VariableRef(v.group, v.index, 1))


def omega_apply(p: MultiPoly, group: str, power: int = 1) -> MultiPoly:
    """Apply the omega operator of one group `power` times.

    Omega is the determinant of the 3x3 matrix of partials d/d(group_i^(slot));
    the polynomial must carry all three slot copies of the group in its
    catalog.  A degree deficit simply produces the zero polynomial.
    """
    if group not in _GROUP_RANK:
        raise PolyError(f"unknown variable group {group!r}")
    needed = {VariableRef(group, i, s) for i in (1, 2, 3) for s in (1, 2, 3)}
    if not needed.issubset(p.catalog):
        raise PolyError(f"catalog lacks slot copies 1..3 of group {group!r}")
    for _ in range(power):
        acc = MultiPoly.zero(p.catalog)
        for sigma, sign in PERMS3:
            q = p.diff_multi({VariableRef(group, sigma[s] + 1, s + 1): 1 for s in range(3)})
            acc = acc + (q if sign > 0 else -q)
        p = acc
    return p


def transvectant_naive(f1: MultiPoly, f2: MultiPoly, f3: MultiPoly,
                       upper: tuple[int, int, int] = (0, 0, 0),
                       lower: tuple[int, int, int] = (0, 0, 0)) -> MultiPoly:
    """Expand the triple product, then apply the omega operators symbolically
    and trace.  Exponential in the budget."""
    budget = {g: n for g, n in zip(GROUPS, (*upper, *lower)) if n}
    vs = set()
    slotted = []
    for s, f in enumerate((f1, f2, f3), start=1):
        fs = reslot(f, s)
        slotted.append(fs)
        vs.update(fs.catalog)
    for g in budget:
        vs.update(VariableRef(g, i, s) for i in (1, 2, 3) for s in (1, 2, 3))
    catalog = make_catalog(vs)
    prod = slotted[0].with_catalog(catalog)
    for fs in slotted[1:]:
        prod = prod * fs.with_catalog(catalog)
    for g in sorted(budget, key=_GROUP_RANK.get):
        prod = omega_apply(prod, g, budget[g])
    return trace_collapse(prod)


def form_to_poly(form: Form) -> MultiPoly:
    """The form as a sparse slot-1 polynomial: the monomial of each tensor
    entry, the entries of equal monomials added."""
    catalog = group_catalog(sorted(set(form.groups), key=_GROUP_RANK.get))
    pos = {v: n for n, v in enumerate(catalog)}
    tensor = form.tensor.astype(object)
    terms: dict[tuple, object] = {}
    for idx in np.ndindex(tensor.shape):
        key = [0] * len(catalog)
        for g, i in zip(form.groups, idx):
            key[pos[VariableRef(g, i + 1)]] += 1
        key = tuple(key)
        terms[key] = terms.get(key, 0) + tensor[idx]
    return MultiPoly(catalog, terms)


def degree_profile(p: MultiPoly) -> dict[str, int]:
    """Max degree per group, in one pass over the terms."""
    profile = {g: 0 for g in GROUPS}
    for exps in p.terms:
        per_group = {g: 0 for g in GROUPS}
        for v, e in zip(p.catalog, exps):
            if e:
                per_group[v.group] += e
        for g, d in per_group.items():
            if d > profile[g]:
                profile[g] = d
    return profile


@lru_cache(maxsize=None)
def _omega_expansion(power: int):
    """Expansion of omega^power as joint derivative assignments.

    Returns a tuple of ((m1, m2, m3), coeff): multi-indices (3-tuples over
    the group's indices) received by slots 1..3, with integer coefficients.
    """
    terms = {((0, 0, 0), (0, 0, 0), (0, 0, 0)): 1}
    for _ in range(power):
        new: dict[tuple, int] = {}
        for (m1, m2, m3), c in terms.items():
            for sigma, sign in PERMS3:
                ms = []
                for m, idx in zip((m1, m2, m3), sigma):
                    lst = list(m)
                    lst[idx] += 1
                    ms.append(tuple(lst))
                key = tuple(ms)
                new[key] = new.get(key, 0) + sign * c
        terms = {k: v for k, v in new.items() if v}
    return tuple(terms.items())


class FactoredTriple:
    """Three factors, one per slot, with a pending omega budget.

    Evaluation distributes the derivatives over the factors (six signed
    terms per omega application, memoized mixed partials per factor)
    instead of expanding the triple product, which keeps high-degree
    contractions feasible.
    """

    def __init__(self, f1: MultiPoly, f2: MultiPoly, f3: MultiPoly,
                 upper: tuple[int, int, int] = (0, 0, 0),
                 lower: tuple[int, int, int] = (0, 0, 0)):
        for f in (f1, f2, f3):
            for v in f.variables_present():
                if v.slot != 1:
                    raise PolyError("transvectant factors must live in slot 1")
        if len(upper) != 3 or len(lower) != 3 or min(*upper, *lower) < 0:
            raise PolyError("omega budgets must be three nonnegative integers each")
        self.factors = (f1, f2, f3)
        self.upper = tuple(upper)
        self.lower = tuple(lower)
        self.budget = {g: n for g, n in zip(GROUPS, (*upper, *lower)) if n}

    def output_catalog(self) -> tuple[VariableRef, ...]:
        vs = set()
        for f in self.factors:
            vs.update(f.catalog)
        return make_catalog(vs)

    def evaluate(self) -> MultiPoly:
        catalog = self.output_catalog()
        budget = self.budget
        if not budget:
            p = self.factors[0].with_catalog(catalog)
            for f in self.factors[1:]:
                p = p * f.with_catalog(catalog)
            return p

        profiles = [degree_profile(f) for f in self.factors]

        # a degree deficit in any factor kills every term
        for prof in profiles:
            for g, n in budget.items():
                if prof[g] < n:
                    return MultiPoly.zero(catalog)

        groups = sorted(budget, key=_GROUP_RANK.get)
        tables = [_omega_expansion(budget[g]) for g in groups]
        full_contraction = all(
            prof[g] == budget.get(g, 0) for prof in profiles for g in GROUPS
        )

        # positions of each group's three indices inside each factor catalog

        def group_positions(f: MultiPoly):
            pos = {}
            for g in groups:
                pos[g] = tuple(f._pos.get(VariableRef(g, i, 1)) for i in (1, 2, 3))
            return pos

        positions = [group_positions(f) for f in self.factors]

        def exponent_key(f_idx: int, assignment) -> tuple | None:
            """Dense derivative-order vector for one factor, or None if it
            requires a variable the factor does not carry."""
            f = self.factors[f_idx]
            vec = [0] * len(f.catalog)
            for g_idx, m in enumerate(assignment):
                pos3 = positions[f_idx][groups[g_idx]]
                for i in (0, 1, 2):
                    if m[i]:
                        p = pos3[i]
                        if p is None:
                            return None
                        vec[p] += m[i]
            return tuple(vec)

        if full_contraction:
            caches: list[dict] = [{}, {}, {}]

            def deriv_value(f_idx: int, assignment):
                cache = caches[f_idx]
                val = cache.get(assignment)
                if val is None:
                    key = exponent_key(f_idx, assignment)
                    if key is None:
                        val = 0
                    else:
                        coeff = self.factors[f_idx].terms.get(key, 0)
                        if coeff:
                            fact = 1
                            for e in key:
                                if e > 1:
                                    fact *= math.factorial(e)
                            val = coeff * fact
                        else:
                            val = 0
                    cache[assignment] = val
                return val

            total = 0
            for combo in itertools.product(*tables):
                coeff = 1
                for _, c in combo:
                    coeff *= c
                per_slot = tuple(zip(*(ms for ms, _ in combo)))
                v1 = deriv_value(0, per_slot[0])
                if not v1:
                    continue
                v2 = deriv_value(1, per_slot[1])
                if not v2:
                    continue
                v3 = deriv_value(2, per_slot[2])
                if not v3:
                    continue
                total = total + coeff * v1 * v2 * v3
            return MultiPoly.constant(total, catalog) if total else MultiPoly.zero(catalog)

        poly_caches: list[dict] = [{}, {}, {}]

        def deriv_poly(f_idx: int, assignment) -> MultiPoly:
            cache = poly_caches[f_idx]
            p = cache.get(assignment)
            if p is None:
                f = self.factors[f_idx]
                orders = {}
                for g_idx, m in enumerate(assignment):
                    for i in (0, 1, 2):
                        if m[i]:
                            orders[VariableRef(groups[g_idx], i + 1, 1)] = m[i]
                missing = [v for v in orders if v not in f._pos]
                if missing:
                    p = MultiPoly.zero(catalog)
                else:
                    p = f.diff_multi(orders).with_catalog(catalog)
                cache[assignment] = p
            return p

        accum: dict[tuple, object] = {}
        for combo in itertools.product(*tables):
            coeff = 1
            for _, c in combo:
                coeff *= c
            per_slot = tuple(zip(*(ms for ms, _ in combo)))
            p1 = deriv_poly(0, per_slot[0])
            if p1.is_zero():
                continue
            p2 = deriv_poly(1, per_slot[1])
            if p2.is_zero():
                continue
            p3 = deriv_poly(2, per_slot[2])
            if p3.is_zero():
                continue
            prod = p1 * p2 * p3
            for exps, c in prod.terms.items():
                add = coeff * c
                acc = accum.get(exps)
                if acc is None:
                    accum[exps] = add
                else:
                    total = acc + add
                    if total:
                        accum[exps] = total
                    else:
                        del accum[exps]
        return MultiPoly(catalog, accum)


def transvectant_sparse(f1: MultiPoly, f2: MultiPoly, f3: MultiPoly,
                        upper: tuple[int, int, int],
                        lower: tuple[int, int, int] = (0, 0, 0)) -> MultiPoly:
    """The multiple transvectant of three slot-1 polynomials on the sparse engine."""
    return FactoredTriple(f1, f2, f3, upper, lower).evaluate()


def bundle_sparse(f: MultiPoly) -> dict:
    """The 26 concomitants of a trilinear form by the recipes of
    `concomitants.bundle_from_form`, on the sparse engine."""
    catalog = group_catalog(GROUPS)
    pairs = {"alpha": ("x", "xi"), "beta": ("y", "eta"), "gamma": ("z", "zeta")}
    pa, pb, pg = (sum((MultiPoly.variable(VariableRef(cov, i), catalog)
                       * MultiPoly.variable(VariableRef(con, i), catalog) for i in (1, 2, 3)),
                      MultiPoly.zero(catalog)) for cov, con in pairs.values())
    f = f.with_catalog(catalog)
    tv = transvectant_sparse
    qa, qb, qg = (tv(f, f, pb * pg, (0, 1, 1)), tv(f, f, pa * pg, (1, 0, 1)),
                  tv(f, f, pa * pb, (1, 1, 0)))
    t38, t516 = Fraction(-3, 8), Fraction(5, 16)
    return {
        "f": f, "p_alpha": pa, "p_beta": pb, "p_gamma": pg,
        "q_alpha": qa, "q_beta": qb, "q_gamma": qg,
        "b_alpha": tv(f, f, f, (0, 1, 1)), "b_beta": tv(f, f, f, (1, 0, 1)),
        "b_gamma": tv(f, f, f, (1, 1, 0)),
        "c_alpha_beta": tv(f, f, f * pb, (1, 1, 0)).scale(Fraction(1, 4)),
        "c_beta_alpha": tv(f, f, f * pa, (1, 1, 0)).scale(Fraction(1, 4)),
        "c_alpha_gamma": tv(f, f, f * pg, (1, 0, 1)).scale(Fraction(1, 4)),
        "c_gamma_alpha": tv(f, f, f * pa, (1, 0, 1)).scale(Fraction(1, 4)),
        "c_beta_gamma": tv(f, f, f * pg, (0, 1, 1)).scale(Fraction(1, 4)),
        "c_gamma_beta": tv(f, f, f * pb, (0, 1, 1)).scale(Fraction(1, 4)),
        "d_alpha": tv(f * pb, f * pg, f, (1, 1, 1)).scale(Fraction(-2)),
        "d_beta": tv(f * pa, f * pg, f, (1, 1, 1)).scale(Fraction(2)),
        "d_gamma": tv(f * pa, f * pb, f, (1, 1, 1)).scale(Fraction(-2)),
        "e_alpha": tv(qa, f, pa, (1, 0, 0)), "e_beta": tv(qb, f, pb, (0, 1, 0)),
        "e_gamma": tv(qg, f, pg, (0, 0, 1)),
        "g_alpha": (tv(f * pb, f * pg, f, (0, 1, 1)).scale(t38)
                    + tv(f * pb * pg, f, f, (0, 1, 1)).scale(t516)),
        "g_beta": (tv(f * pa, f * pg, f, (1, 0, 1)).scale(t38)
                   + tv(f * pa * pg, f, f, (1, 0, 1)).scale(t516)),
        "g_gamma": (tv(f * pa, f * pb, f, (1, 1, 0)).scale(t38)
                    + tv(f * pa * pb, f, f, (1, 1, 0)).scale(t516)),
        "h": tv(f * pa, f * pb, f * pg, (1, 1, 1)).scale(Fraction(1, 2)),
    }


def companion_roots(coeffs) -> list[complex]:
    """Eigenvalue root-finder (numpy companion matrix)."""
    return [complex(r) for r in np.roots([complex(c) for c in coeffs])]


def slice_cubic_expansion(a, axis: int) -> dict:
    """Coefficients {(e1, e2, e3): c} of det(sum_i x_i M_i), where M_i is the
    matrix of the array with index i on the given axis, expanded term by term
    over the six permutations; integer arrays give integer coefficients."""
    m = np.moveaxis(np.asarray(a), axis, 0)
    coeffs: dict[tuple, int] = {}
    for sigma, sign in PERMS3:
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    key = [0, 0, 0]
                    for idx in (i, j, k):
                        key[idx] += 1
                    key = tuple(key)
                    term = m[i, 0, sigma[0]] * m[j, 1, sigma[1]] * m[k, 2, sigma[2]]
                    coeffs[key] = coeffs.get(key, 0) + sign * int(term)
    return coeffs


def _sym_tensor(coeffs: dict):
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (e1, e2, e3), val in coeffs.items():
        arrangements = set(permutations([0] * e1 + [1] * e2 + [2] * e3))
        for (i, j, k) in arrangements:
            c[i][j][k] = val / len(arrangements)
    return c


def _bracket_loop(t1, t2, t3, t4):
    """Full contraction of four symmetric cubic tensors against the bracket
    monomial (123)(124)(134)(234), summed over all sign-weighted permutations."""
    total = 0
    for s1, g1 in PERMS3:
        for s2, g2 in PERMS3:
            for s3, g3 in PERMS3:
                for s4, g4 in PERMS3:
                    total += (g1 * g2 * g3 * g4 * t1[s1[0]][s2[0]][s3[0]]
                              * t2[s1[1]][s2[1]][s4[0]] * t3[s1[2]][s3[1]][s4[1]]
                              * t4[s2[2]][s3[2]][s4[2]])
    return total


def _hessian_coeffs(coeffs: dict) -> dict:
    """Coefficient map of the Hessian cubic det(d^2 F / dx_a dx_b)."""
    h = [[[0] * 3 for _ in range(3)] for _ in range(3)]  # h[a][b][i] x_i
    for e, val in coeffs.items():
        for a in range(3):
            for b in range(3):
                ee = list(e)
                fac = ee[a]
                ee[a] -= 1
                fac *= ee[b]
                ee[b] -= 1
                if fac:
                    h[a][b][ee.index(1)] += val * fac
    out: dict = {}
    for sigma, sign in PERMS3:
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    key = [0, 0, 0]
                    for idx in (i, j, k):
                        key[idx] += 1
                    key = tuple(key)
                    v = h[0][sigma[0]][i] * h[1][sigma[1]][j] * h[2][sigma[2]][k]
                    out[key] = out.get(key, 0) + sign * v
    return out


def aronhold_raws_loop(coeffs: dict) -> tuple:
    """Raw Aronhold S and T of the cubic with coefficient map {(e1, e2, e3): c},
    as brackets of its symmetric tensor and its Hessian's."""
    c = _sym_tensor(coeffs)
    return (_bracket_loop(c, c, c, c),
            _bracket_loop(c, c, c, _sym_tensor(_hessian_coeffs(coeffs))))


def slice_tensor_einsum(a, symbol=LEVI_CIVITA) -> np.ndarray:
    """K[a,b,c] = eps_jlm eps_kno A[a,j,k] A[b,l,n] A[c,m,o] as a chain of
    einsums in a fixed order (the contraction that `qutrit_state.slice_tensor`
    replaced by a mixed adjugate), with `symbol` standing in for eps."""
    t = np.einsum("jlm,ajk->almk", symbol, a)
    t = np.einsum("almk,bln->amkbn", t, a)
    t = np.einsum("amkbn,kno->ambo", t, symbol)
    return np.einsum("ambo,cmo->abc", t, a)


def bracket_einsum(t1, t2, t3, t4, symbol=LEVI_CIVITA):
    """The bracket monomial (123)(124)(134)(234) of four 3x3x3 tensors,
    eps_abc eps_def eps_ghi eps_jkl t1[a,d,g] t2[b,e,j] t3[c,h,k] t4[f,i,l],
    as a chain of einsums in a fixed order (the contraction that
    `concomitants.bracket` replaced by two mixed adjugates); any four tensors,
    with `symbol` standing in for eps."""
    e = symbol
    u = np.einsum("adg,abc->dgbc", t1, e)
    u = np.einsum("dgbc,bej->dgcej", u, t2)
    u = np.einsum("dgcej,def->gcjf", u, e)
    u = np.einsum("gcjf,chk->gjfhk", u, t3)
    u = np.einsum("gjfhk,ghi->jfki", u, e)
    v = np.einsum("fil,jkl->fijk", t4, e)
    return np.einsum("jfki,fijk->", u, v)


def _triple_tensor(a, symbol=LEVI_CIVITA) -> np.ndarray:
    """T[b0,b1,b2,c0,c1,c2] = eps_{a0a1a2} A[a0,b0,c0] A[a1,b1,c1] A[a2,b2,c2]:
    three copies of the array with their party-1 legs antisymmetrized."""
    t = np.einsum("xyz,xbj->yzbj", symbol, a)
    t = np.einsum("yzbj,yck->zbjck", t, a)
    return np.einsum("zbjck,zdl->bcdjkl", t, a)


def dense_raws_einsum(a, symbol=LEVI_CIVITA) -> tuple:
    """Raw I6 and I9 as full contractions with eps symbols, each a chain of
    einsums in a fixed order (the contraction that `concomitants.dense_raws`
    replaced by signed monomial sums).

    Copy n of the array carries the legs (a_n, b_n, c_n) of the three
    parties.  I6 contracts six copies: party 1 on copies {0,1,2}, {3,4,5},
    party 2 on {0,1,3}, {2,4,5}, party 3 on {0,3,5}, {1,2,4}.  I9 contracts
    nine: party 1 on {0,1,2}, {3,4,5}, {6,7,8}, party 2 on {0,3,6}, {1,4,7},
    {2,5,8}, party 3 on {0,3,7}, {1,4,8}, {2,5,6}.  Every party-1 triple is
    one `_triple_tensor`.  The einsum letters name the legs b0..b8 as a..i
    and c0..c8 as j..r; `symbol` stands in for eps in every contraction.
    """
    e = symbol
    t = _triple_tensor(a, symbol)
    # I6 = sum T[b0 b1 b2 c0 c1 c2] T[b3 b4 b5 c3 c4 c5]
    #        eps(b0 b1 b3) eps(b2 b4 b5) eps(c0 c3 c5) eps(c1 c2 c4)
    u = np.einsum("abcjkl,abd->dcjkl", t, e)
    u = np.einsum("dcjkl,kln->dcjn", u, e)
    v = np.einsum("defmno,cef->dcmno", t, e)
    v = np.einsum("dcmno,jmo->dcjn", v, e)
    raw6 = np.einsum("dcjn,dcjn->", u, v)
    # I9: the party-2 symbols of copies 0, 1, 2 first, then the second
    # triple joined over b3 b4 b5, then the party-3 symbols, then the third
    x = np.einsum("abcjkl,adg->bcjkldg", t, e)
    x = np.einsum("bcjkldg,beh->cjkldgeh", x, e)
    x = np.einsum("cjkldgeh,cfi->jklghidef", x, e)
    y = np.tensordot(x, t, axes=3)
    y = np.einsum("jklghimno,jmq->klghinoq", y, e)
    y = np.einsum("klghinoq,knr->lghioqr", y, e)
    y = np.einsum("lghioqr,lop->ghipqr", y, e)
    raw9 = np.einsum("ghipqr,ghipqr->", y, t)
    return raw6, raw9


def cluster_labels_brute(flat, radius: float) -> np.ndarray:
    """Union-find over all pairs of rows at squared distance <= radius**2
    (summed over the columns in order); each label is the smallest row index
    of its cluster."""
    n = len(flat)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(n - 1):
        diff = flat[a + 1:] - flat[a]
        d2 = diff[:, 0] * diff[:, 0]
        for col in range(1, flat.shape[1]):
            d2 += diff[:, col] * diff[:, col]
        for b in np.flatnonzero(d2 <= radius * radius) + a + 1:
            ra, rb = find(a), find(int(b))
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(n)], dtype=int)


def cvalues_scalar(u, v, w):
    """(C6, C9, C12, C18) of one triple in Python complex arithmetic."""
    u3, v3, w3 = u ** 3, v ** 3, w ** 3
    psi = u3 + v3 + w3
    chi = u3 * v3 + u3 * w3 + v3 * w3
    lam = 216 * u3 * v3 * w3
    c6 = psi * psi - 12 * chi
    c9 = (u3 - v3) * (u3 - w3) * (v3 - w3)
    c12 = psi ** 4 + lam * psi
    c18 = psi ** 6 - 2.5 * lam * psi ** 3 - 0.125 * lam * lam
    return c6, c9, c12, c18


# the six orderings of the three cube roots, and for each the 27 cube-root
# choices (cu outer, cw inner) as rows of indices into a branch's 3x3 table
# of choices (root, choice)
_ORDERINGS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PICK_ORDERING = np.repeat(np.arange(6), 27)
_PICK_ROOT = np.repeat(np.array(_ORDERINGS), 27, axis=0)
_PICK_CHOICE = np.tile(np.indices((3, 3, 3)).reshape(3, 27).T, (6, 1))
_PICKS = 3 * _PICK_ROOT + _PICK_CHOICE


def _candidates(branches) -> np.ndarray:
    """The (u, v, w) candidates of the branch cubics as rows, branch by
    branch: distinct orderings of each branch's roots {u^3, v^3, w^3} times
    all cube-root choices."""
    table, n_choices, fresh = [], [], []  # table: (branch, root, choice)
    for br in branches:
        coeffs = [1.0, -br.psi, br.chi, -br.lam / 216]
        clustered = fp.cluster_roots(fp.solve_cubic_radicals(*coeffs), coeffs)
        cube_scale = max((abs(r) for r, _ in clustered), default=0.0)
        expanded = [r for r, m in clustered for _ in range(m)]
        for r in expanded:
            nonzero = abs(r) > 1e-9 * max(cube_scale, 1e-300)  # else one cube root, 0
            base = r ** (1.0 / 3.0) if nonzero else 0j
            table += (base, base * fp._OMEGA, base * fp._OMEGA ** 2)
            n_choices.append(3 if nonzero else 1)
        # repeated roots are identical floats after clustering, so exact
        # values dedup the orderings at any overall scale
        orders = [tuple(expanded[k] for k in perm) for perm in _ORDERINGS]
        fresh += (order not in orders[:i] for i, order in enumerate(orders))
    rows = (np.array(fresh, dtype=bool).reshape(-1, 6)[:, _PICK_ORDERING]
            & (_PICK_CHOICE < np.array(n_choices).reshape(-1, 3)[:, _PICK_ROOT]).all(axis=2))
    branch, pick = np.nonzero(rows)
    return np.array(table, dtype=complex).reshape(-1, 9)[branch[:, None], _PICKS[pick]]


def reproduces_rows(rows: np.ndarray, inp) -> np.ndarray:
    """Which rows of a complex (n, 3) array pass the check of
    `form_problem._reproduces`, in one pass of `c_formulas` on the columns."""
    (a, _, b, c), (den6, _, den12, den18) = fp._scales(inp, 0j)
    c6, _, c12, c18 = c_formulas(*rows.T)
    return ((np.abs(c6 - a) <= fp.RESIDUAL_TOL * den6)
            & (np.abs(c12 - b) <= fp.RESIDUAL_TOL * den12)
            & (np.abs(c18 - c) <= fp.RESIDUAL_TOL * den18))


def matches_sign_rows(rows: np.ndarray, i9: complex) -> np.ndarray:
    """Which rows of a complex (n, 3) array pass the sign test of
    `form_problem._matches_sign`, its scale taken over all the rows."""
    pt_scale = float(np.abs(rows).max(initial=0.0))
    threshold = fp.RESIDUAL_TOL * max(abs(i9), pt_scale ** 9, 1e-300)
    return np.abs(c9_formula(*rows.T) - i9) < threshold


def enumerate_triples_array(branches, inp) -> fp.SolutionSet:
    """All (u, v, w) from the branch cubics, as one complex array: orderings
    of {u^3, v^3, w^3} times all cube-root choices (162 rows per generic
    branch), the ones that reproduce (a, b, c) kept.  The rows are not
    sorted; `filter_sign_array` sorts the ones it keeps."""
    cands = _candidates(branches)
    ok = reproduces_rows(cands, inp)
    return fp.SolutionSet(triples=cands[ok], raw_count=int(np.count_nonzero(ok)),
                          dropped=int(np.count_nonzero(~ok)))


def filter_sign_array(raw: fp.SolutionSet, i9: complex) -> fp.SolutionSet:
    """Keep the rows of raw.triples whose alternating invariant matches i9,
    in `sort_rows` order."""
    kept = raw.triples[matches_sign_rows(raw.triples, i9)]
    if not len(kept):
        raise fp._sign_mismatch(i9)
    return fp.SolutionSet(triples=sort_rows(kept), raw_count=raw.raw_count,
                          dropped=raw.dropped)


def solve_enumerated(inp) -> fp.SolutionSet:
    """All psi-branches enumerated as arrays and sign-filtered: the oracle of
    the orbit that `form_problem.solve` returns."""
    i9, _ = fp._unit_invariants(inp)
    return filter_sign_array(enumerate_triples_array(fp.solve_psi_system(inp), inp), i9)


def enumerate_triples_loop(branches, inp):
    """The candidate enumeration and check, one candidate at a time."""
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    s = max(abs(a) ** (1 / 6), abs(b) ** (1 / 12), abs(c) ** (1 / 18), 1e-30)
    den6, den12, den18 = max(abs(a), s ** 6), max(abs(b), s ** 12), max(abs(c), s ** 18)
    candidates = []
    dropped = 0
    for br in branches:
        coeffs = [1.0, -br.psi, br.chi, -br.lam / 216]
        roots = fp.solve_cubic_radicals(*coeffs)
        clustered = fp.cluster_roots(roots, coeffs)
        cube_scale = max((abs(r) for r, _ in clustered), default=0.0)
        expanded = []
        for r, m in clustered:
            expanded.extend([r] * m)
        choices = []
        for r in expanded:
            if abs(r) <= 1e-9 * max(cube_scale, 1e-300):
                choices.append((0j,))
            else:
                base = r ** (1.0 / 3.0)
                choices.append((base, base * fp._OMEGA, base * fp._OMEGA ** 2))
        seen_orders = set()
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            order = (expanded[perm[0]], expanded[perm[1]], expanded[perm[2]])
            if order in seen_orders:
                continue
            seen_orders.add(order)
            pick = (choices[perm[0]], choices[perm[1]], choices[perm[2]])
            for cu in pick[0]:
                for cv in pick[1]:
                    for cw in pick[2]:
                        c6, _, c12, c18 = cvalues_scalar(cu, cv, cw)
                        if (abs(c6 - a) <= fp.RESIDUAL_TOL * den6
                                and abs(c12 - b) <= fp.RESIDUAL_TOL * den12
                                and abs(c18 - c) <= fp.RESIDUAL_TOL * den18):
                            candidates.append((cu, cv, cw))
                        else:
                            dropped += 1
    return fp.SolutionSet(triples=candidates, raw_count=len(candidates), dropped=dropped)


def filter_sign_loop(raw, i9: complex, tol: float = 1e-6):
    """The sign filter, one triple at a time."""
    pt_scale = max((abs(z) for t in raw.triples for z in t), default=0.0)
    threshold = tol * max(abs(i9), pt_scale ** 9, 1e-300)
    kept = [t for t in raw.triples if abs(cvalues_scalar(*t)[1] - i9) < threshold]
    if not kept:
        raise fp.FormProblemError(
            f"no solutions match the sign datum i9={i9}: inconsistent input")
    kept.sort(key=lambda t: tuple((z.real, z.imag) for z in t))
    return fp.SolutionSet(triples=kept, raw_count=raw.raw_count, dropped=raw.dropped)


def solve_loop(inp):
    """The enumeration of all branches with the check and the sign filter,
    as loops."""
    raw = enumerate_triples_loop(fp.solve_psi_system(inp), inp)
    i9, _ = fp._unit_invariants(inp)
    return filter_sign_loop(raw, i9, fp.RESIDUAL_TOL)


def _max_rel_deviation_rho(s: State) -> float:
    worst = 0.0
    for party in (1, 2, 3):
        rho = reduced_density(s, party)
        tr = rho.trace().real
        dev = np.linalg.norm(rho - (tr / 3.0) * np.eye(3), "fro") / tr
        worst = max(worst, float(dev))
    return worst


def normalize_round_robin(s: State, tol: float = 1e-10, max_iter: int = 20000):
    """Round-robin local filtering (Verstraete, Dehaene and De Moor 2003):
    each step replaces party p's reduced density rho by a multiple of the
    identity with the unit-determinant filter det(rho)**(1/6) rho**(-1/2),
    parties 1, 2, 3 in turn.  The norm never increases; outside the null
    cone it converges to the same minimal norm as the Newton iteration.
    Returns (limit, steps taken, converged flag)."""
    eye = np.eye(3, dtype=complex)
    current = s
    for step in range(max_iter):
        if _max_rel_deviation_rho(current) < tol:
            return current, step, True
        party = step % 3 + 1
        rho = reduced_density(current, party)
        evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
        evals = np.maximum(evals, 1e-14 * rho.trace().real)
        g = np.prod(evals) ** (1.0 / 6.0) * (evecs * evals ** -0.5) @ evecs.conj().T
        mats = [eye, eye, eye]
        mats[party - 1] = g
        current = apply_local(current, LocalTransform(*mats))
    return current, max_iter, False


def orbit_dimension(s: State) -> int:
    """Complex rank of the tangent map sl(3)^3 -> H at the state: the number
    of singular values of `tangent_rows` above 1e-8 times the largest (the
    Gell-Mann matrices span sl(3, C), so this is the orbit's dimension)."""
    sv = np.linalg.svd(tangent_rows(s.amplitudes), compute_uv=False)
    return int(np.count_nonzero(sv > 1e-8 * sv[0]))


def compose_local(g: LocalTransform, h: LocalTransform) -> LocalTransform:
    """The local transform g after h: the product of their matrices, party by
    party."""
    return LocalTransform(g.g1 @ h.g1, g.g2 @ h.g2, g.g3 @ h.g3)


def identity_local() -> LocalTransform:
    """The local transform with the identity matrix for each party."""
    eye = np.eye(3, dtype=complex)
    return LocalTransform(eye, eye, eye)


# --- exact arithmetic over the Eisenstein rationals Q(eps) --------------------

_RationalLike = (int, Fraction)


class Cyclo:
    """An element a + b*eps of Q(eps), eps = exp(2i*pi/3), with rational a, b,
    reduced by the defining relation eps**2 = -1 - eps: the exact field of
    the group entries, for the oracles of the group's integer pairs."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @classmethod
    def coerce(cls, value) -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        if isinstance(value, _RationalLike):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} into Q(eps)")

    def __add__(self, other):
        if isinstance(other, _RationalLike):
            return Cyclo(self.a + other, self.b)
        if isinstance(other, Cyclo):
            return Cyclo(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, (Cyclo, *_RationalLike)):
            return self + (-other if isinstance(other, Cyclo) else Cyclo(-other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RationalLike):
            return Cyclo(self.a * other, self.b * other)
        if isinstance(other, Cyclo):
            # (a + b eps)(c + d eps) with eps^2 = -1 - eps
            a, b, c, d = self.a, self.b, other.a, other.b
            return Cyclo(a * c - b * d, a * d + b * c - b * d)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclo":
        """Complex conjugation, which maps eps to eps**2 = -1 - eps."""
        return Cyclo(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm a**2 - a*b + b**2 (a nonnegative rational)."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyclo":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(eps)")
        conj = self.conjugate()
        return Cyclo(conj.a / n, conj.b / n)

    def __truediv__(self, other):
        if isinstance(other, _RationalLike):
            if other == 0:
                raise ZeroDivisionError("division by zero in Q(eps)")
            return Cyclo(self.a / other, self.b / other)
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return Cyclo.coerce(other) * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, _RationalLike):
            return self.b == 0 and self.a == other
        if isinstance(other, Cyclo):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def to_complex(self) -> complex:
        """Embed into C via eps -> (-1/2, +sqrt(3)/2), rounded as
        complex(a) + complex(b) * EPS_COMPLEX, as the package's
        `Eisenstein` pairs and group matrices are."""
        return complex(self.a) + complex(self.b) * rg.EPS_COMPLEX

    __complex__ = to_complex

    def __repr__(self) -> str:
        return f"Cyclo({self.a!r}, {self.b!r})"


EPS = Cyclo(0, 1)


def pairs(rows) -> tuple:
    """The 18 ints of a 3x3 matrix given by rows of ints, Fractions or
    `Cyclo` values: 3 * entry as the integer pair (a, b) of a + b*eps,
    row-major.  Raises unless every entry lies in (1/3)Z[eps]."""
    ints = []
    for e in (Cyclo.coerce(e) for row in rows for e in row):
        a, b = 3 * e.a, 3 * e.b
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"entry {e} of a group element is not in (1/3)Z[eps]")
        ints += (a.numerator, b.numerator)
    return tuple(ints)


def exact_rows(v) -> tuple:
    """The entries of one element, given by its 18 Python ints, as a 3x3
    tuple of exact `Cyclo` values."""
    return tuple(tuple(Cyclo(Fraction(v[k], 3), Fraction(v[k + 1], 3))
                       for k in range(i, i + 6, 2))
                 for i in (0, 6, 12))


def c12_prime_mirrors(u, v, w):
    """C12' as the product of the twelve linear forms u v w (eps^a u +
    eps^b v + w) in Q(eps), for exact u, v, w: the reference for the closed
    form of `concomitants.c12_prime`.  A rational product is returned as a
    Fraction."""
    total = Cyclo.coerce(u) * v * w
    for a in range(3):
        for b in range(3):
            total = total * (EPS ** a * u + EPS ** b * v + w)
    return total.as_fraction() if total.is_rational() else total


# --- exact group structure ---------------------------------------------------

IDENTITY_ROWS = tuple(tuple(Cyclo(int(i == j)) for j in range(3)) for i in range(3))


def element_rows(group: rg.MatrixGroup) -> list:
    """The elements of a group as 3x3 tuples of exact `Cyclo` values, in order."""
    return [exact_rows(g) for g in group.ints.tolist()]


@lru_cache(maxsize=1 << 14)
def mul_rows(x, y) -> tuple:
    """The exact product of two 3x3 matrices of `Cyclo` values.  Cached: the
    structure probes of conjugate subgroups meet the same products again."""
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] + x[i][2] * y[2][j]
                       for j in range(3)) for i in range(3))


def conjugate_transpose_rows(x) -> tuple:
    return tuple(tuple(x[j][i].conjugate() for j in range(3)) for i in range(3))


def inverse_rows(x) -> tuple:
    """The exact inverse, as the transposed cofactors over the determinant."""
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [x[a][b] for a in range(3) if a != i for b in range(3) if b != j]
            minor = sub[0] * sub[3] - sub[1] * sub[2]
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    det = x[0][0] * cof[0][0] + x[0][1] * cof[0][1] + x[0][2] * cof[0][2]
    return tuple(tuple(cof[j][i] / det for j in range(3)) for i in range(3))


def element_complex(x) -> np.ndarray:
    """The complex 3x3 matrix of one element, entry by entry by `Cyclo.to_complex`."""
    return np.array([[e.to_complex() for e in row] for row in x])


def element_order(x) -> int:
    """The least n >= 1 with x^n = 1, by exact products."""
    power = x
    for n in range(1, 2001):
        if power == IDENTITY_ROWS:
            return n
        power = mul_rows(power, x)
    raise RuntimeError("element order exceeds 2000")


def _rank3(m) -> int:
    rows = [list(r) for r in m]
    rank = 0
    for col in range(3):
        pivot = None
        for r in range(rank, 3):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(3):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fixed_space_dim(x) -> int:
    """Dimension of the fixed subspace, i.e. 3 - rank(x - I), exactly."""
    return 3 - _rank3([[x[i][j] - IDENTITY_ROWS[i][j] for j in range(3)] for i in range(3)])


def is_pseudo_reflection(x) -> bool:
    return x != IDENTITY_ROWS and fixed_space_dim(x) == 2


def is_abelian(elements) -> bool:
    return all(mul_rows(g, h) == mul_rows(h, g) for g in elements for h in elements)


def exponent(elements) -> int:
    """The least common multiple of the element orders."""
    exp = 1
    for g in elements:
        o = element_order(g)
        a, b = exp, o
        while b:
            a, b = b, a % b
        exp = exp * o // a
    return exp


def stabilizer_type_exact(elements) -> str:
    """`reflection_group.stabilizer_type` with its probes in exact products
    of the elements' `Cyclo` rows: commutation, the exponent and order-3
    pseudo-reflections."""
    order = len(elements)
    label = rg.STABILIZER_LABELS.get(order)
    if label is None:
        return f"unclassified(order={order})"
    if order == 3:
        if not is_abelian(elements):
            return "unclassified(order=3,nonabelian)"
    elif order == 9:
        if not is_abelian(elements) or exponent(elements) != 3:
            return "unclassified(order=9,structure)"
    elif order == 24:
        has_order3_reflection = any(
            is_pseudo_reflection(g) and element_order(g) == 3 for g in elements)
        if is_abelian(elements) or not has_order3_reflection:
            return "unclassified(order=24,structure)"
    return label


def _apply_rows(x, t) -> tuple:
    return tuple(x[i][0] * t[0] + x[i][1] * t[1] + x[i][2] * t[2] for i in range(3))


def orbit_exact(elements, triple) -> list:
    """The orbit of an exact triple (ints, Fractions or `Cyclo` values): the
    distinct exact points g.t, sorted by entry."""
    t = tuple(Cyclo.coerce(c) for c in triple)
    pts = {_apply_rows(g, t) for g in elements}
    return sorted(pts, key=lambda p: tuple((x.a, x.b) for x in p))


def stabilizer_exact(elements, triple) -> list:
    """The elements that fix an exact triple, by exact equality, in order."""
    t = tuple(Cyclo.coerce(c) for c in triple)
    return [g for g in elements if _apply_rows(g, t) == t]


def sort_rows(pts: np.ndarray) -> np.ndarray:
    """The rows sorted by (Re u, Im u, ..., Im w): numpy orders complex
    values by real part, then imaginary part, and lexsort's primary key is
    last.  The package's order of float triple sets before `image_keys`."""
    return pts[np.lexsort(pts.T[::-1])]


def matrix_stack(ints: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) complex matrices of an (n, 18) integer array, each entry
    a/3 + (b/3)*eps rounded as complex(a/3) + complex(b/3) * EPS_COMPLEX:
    the stack that `MatrixGroup` kept before its row table."""
    a, b = ints[:, 0::2] / 3, ints[:, 1::2] / 3
    return (a.astype(complex) + b.astype(complex) * rg.EPS_COMPLEX).reshape(-1, 3, 3)


def orbit_stack(stack: np.ndarray, triple) -> np.ndarray:
    """`reflection_group.orbit` as the product with a group's whole matrix
    stack (`matrix_stack`), sorted by `sort_rows` and clustered: the orbit
    before the row table."""
    t, e = rg.unit_size(triple)
    if not t.any():
        return np.zeros((1, 3), dtype=complex)
    pts = sort_rows(stack @ t)
    flat = np.column_stack([pts.real, pts.imag])
    labels = rg.cluster_points(flat, 1e-9 * float(np.max(np.abs(flat))))
    return rg.ldexp(pts[labels == np.arange(len(labels))], e)


def stabilizer_stack(stack: np.ndarray, triple, tol: float = 1e-9) -> np.ndarray:
    """The element indices that `reflection_group.stabilizer` selects, by the
    product with a group's whole matrix stack."""
    t, _ = rg.unit_size(triple)
    scale = float(np.max(np.abs(t)))
    return np.flatnonzero(np.max(np.abs(stack @ t - t), axis=1) <= tol * scale)


# --- the form problem on exact invariants -------------------------------------

def solve_for_triple(t) -> fp.SolutionSet:
    """Solve the form problem for the invariants of a known triple.  They
    are taken exactly on its float entries, as polynomials over Q in x1
    standing for i, and rounded once, so that on a degenerate stratum they
    meet its equations exactly where float sums leave rounding noise."""
    cat = make_catalog([VariableRef("x", 1)])
    i = MultiPoly.variable(VariableRef("x", 1), cat)
    cv = c_formulas(*(MultiPoly.constant(Fraction(z.real), cat) + i.scale(Fraction(z.imag))
                      for z in map(complex, t)))
    # sum q_k i^k, with i^2 = -1
    c6, c9, c12, c18 = (complex(sum(q * (1, 0, -1, 0)[k % 4] for (k,), q in p.terms.items()),
                                sum(q * (0, 1, 0, -1)[k % 4] for (k,), q in p.terms.items()))
                        for p in cv)
    return fp.solve(fp.FormProblemInput(c6, c12, c18, i9=c9))


def set_distance(points_a, points_b) -> float:
    """Two-sided max point-to-set distance between triple sets in C^3, by
    brute force over all pairs (the sets hold at most 648 points)."""
    fa = np.array(points_a, dtype=complex).reshape(-1, 3)
    fb = np.array(points_b, dtype=complex).reshape(-1, 3)
    dist = np.linalg.norm(fa[:, None, :] - fb[None, :, :], axis=2)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def states_close(s: State, t: State, tol: float) -> bool:
    """True when no amplitude of s and t differs by more than tol."""
    return bool(np.max(np.abs(s.amplitudes - t.amplitudes)) <= tol)


# --- the closed Jacobian, the slice cubic and the calibration report ----------

def poly_diff(p: Poly, i: int) -> Poly:
    """The partial derivative of p in x_i; distinct terms stay distinct."""
    k = i - 1
    return Poly({e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.terms.items() if e[k]})


def poly_eval(p: Poly, point):
    """The value of p at point = (x1, x2, x3), its terms added in order."""
    total = 0
    for exps, coeff in p.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term = term * x ** e
        total = total + term
    return total


@lru_cache(maxsize=None)
def jacobian_polynomial() -> Poly:
    """det d(C6,C9,C12)/d(u,v,w) as an exact polynomial."""
    c6, c9, c12 = c_polynomials()
    cols = [[poly_diff(p, i) for i in (1, 2, 3)] for p in (c6, c9, c12)]
    det = None
    for sigma, sign in PERMS3:
        term = cols[0][sigma[0]] * cols[1][sigma[1]] * cols[2][sigma[2]]
        term = term if sign > 0 else -term
        det = term if det is None else det + term
    return det


class JacobianCheck(NamedTuple):
    jacobian: complex
    c12_prime_sq: complex
    ratio: complex | None


def jacobian_check(t) -> JacobianCheck:
    """Jacobian of (C6, C9, C12) at t and its ratio to C12'**2; the ratio is
    None (flagged) on the twelve mirror planes where C12' vanishes."""
    u, v, w = t
    jac = poly_eval(jacobian_polynomial(), (u, v, w))
    c12p = c12_prime(u, v, w)
    c12p_sq = c12p * c12p
    if not c12p_sq:
        return JacobianCheck(jac, c12p_sq, None)
    ratio = Fraction(jac) / Fraction(c12p_sq) if is_exact((u, v, w)) else jac / c12p_sq
    return JacobianCheck(jac, c12p_sq, ratio)


def slice_cubic(s: State, axis: str) -> Form:
    """Determinant of the 3x3 matrix of linear forms obtained by contracting
    the chosen leg with its variables: a ternary cubic in that group, the
    one-group `Form` of K / 6 for `slice_tensor` K."""
    if axis not in ("x", "y", "z"):
        raise ValueError("axis must be one of 'x', 'y', 'z'")
    k = slice_tensor(np.moveaxis(s.amplitudes, "xyz".index(axis), 0))
    return Form(k / 6, (axis,) * 3)


def recorded_calibration() -> dict:
    """The entries of calibration_report.json that nothing in the package
    reads, on the calibration's normal forms: I18 over 6^6 T, the Jacobian
    of (C6, C9, C12) over C12'^2, delta = a^3 - 3ab + 2c over C9^2, and the
    I9 contraction variant that carries the invariant ((E_a, E_b, E_g)
    vanishes identically)."""
    targets = [c_formulas(*map(Fraction, t)) for t in _CAL_TRIPLES]
    t18_pairs = []
    for (u, v, w), t in zip(_CAL_TRIPLES, targets):
        uf, vf, wf = Fraction(u), Fraction(v), Fraction(w)
        phi, psi = uf * vf * wf, uf ** 3 + vf ** 3 + wf ** 3
        t66 = 46656 * phi ** 6 + 4320 * phi ** 3 * psi ** 3 - 8 * psi ** 6
        t18_pairs.append((t66, Fraction(t.c18)))
    j_pairs = []
    for (u, v, w) in ((1, 2, 3), (2, 1, -3)):
        chk = jacobian_check((Fraction(u), Fraction(v), Fraction(w)))
        j_pairs.append((chk.c12_prime_sq, Fraction(chk.jacobian)))
    dd_pairs = []
    for t in targets:
        a, b, c = Fraction(t.c6), Fraction(t.c12), Fraction(t.c18)
        dd_pairs.append((Fraction(t.c9) ** 2, a ** 3 - 3 * a * b + 2 * c))
    return {
        "i18_vs_66t_scale": _fit_constant(t18_pairs, "i18_vs_66t_scale"),
        "jacobian_vs_c12_prime_sq": _fit_constant(j_pairs, "jacobian_vs_c12_prime_sq"),
        "delta_vs_c9_sq": _fit_constant(dd_pairs, "delta_vs_c9_sq"),
        "i9_variant": "e_alpha,e_beta,e_beta",
    }


def calibration_entries() -> dict:
    """Every entry of calibration_report.json: `concomitants.calibration`
    and the recorded ones."""
    return {**calibration(), **recorded_calibration()}


def calibration_report() -> dict:
    """JSON-ready calibration report: exact constants as fraction strings."""
    return {name: str(value) if isinstance(value, Fraction) else value
            for name, value in calibration_entries().items()}


def write_calibration_report(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calibration_report(), fh, indent=2, sort_keys=True)
        fh.write("\n")
