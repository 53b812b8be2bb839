"""Sparse multivariate polynomial arithmetic with Cayley omega operators.

Polynomials live over six ternary variable groups: the covariant groups
x, y, z and the contravariant groups xi, eta, zeta.  Each group exists in
slot copies 1..3 so that a product of three forms can be differentiated
slot by slot; the omega operator of a group is the 3x3 determinant of
partial derivatives across the slots, and multiple transvectants are
omega powers applied to a factored triple followed by identification of
the slots ("trace").

Coefficients are either exact (fractions.Fraction or cyclotomic.Cyclo)
or complex floats; all operations are pure and the same code serves both
scalar modes.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cyclotomic import to_complex

GROUPS = ("x", "y", "z", "xi", "eta", "zeta")
_GROUP_RANK = {g: i for i, g in enumerate(GROUPS)}

# the six permutations of (1,2,3), zero-based, with signs
PERMS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


class PolyError(ValueError):
    """Raised for catalog mismatches and malformed polynomial operations."""


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


def group_catalog(groups: Sequence[str], slots: Sequence[int] = (1,)) -> tuple[VariableRef, ...]:
    """Catalog holding all three indices of the given groups and slots."""
    return make_catalog(
        VariableRef(g, i, s) for g in groups for i in (1, 2, 3) for s in slots
    )


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

    def degree_profile(self) -> dict[str, int]:
        """Max degree per group, in one pass over the terms."""
        profile = {g: 0 for g in GROUPS}
        for exps in self.terms:
            per_group = {g: 0 for g in GROUPS}
            for v, e in zip(self.catalog, exps):
                if e:
                    per_group[v.group] += e
            for g, d in per_group.items():
                if d > profile[g]:
                    profile[g] = d
        return profile

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
        return MultiPoly(self.catalog, {e: to_complex(c) for e, c in self.terms.items()})

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

        profiles = [f.degree_profile() for f in self.factors]

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


def transvectant(f1: MultiPoly, f2: MultiPoly, f3: MultiPoly,
                 upper: tuple[int, int, int] = (0, 0, 0),
                 lower: tuple[int, int, int] = (0, 0, 0)) -> MultiPoly:
    """Multiple transvectant of three single-slot forms.

    Places f_i in slot i, applies omega_x^n1 omega_y^n2 omega_z^n3 and
    omega_xi^m1 omega_eta^m2 omega_zeta^m3, and identifies the slots.
    """
    return FactoredTriple(f1, f2, f3, upper, lower).evaluate()
