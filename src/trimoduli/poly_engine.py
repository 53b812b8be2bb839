"""Forms over six ternary variable groups, dense and sparse.

The groups are the covariant x, y, z and the contravariant xi, eta, zeta.
A `Form` is a coefficient tensor with one axis of length 3 per variable:
the form sum T[i1..id] v1_i1 ... vd_id, the group of each axis named in
`groups`.  Multiple transvectants act on forms: Cayley's omega operator of
a group is the 3x3 determinant of partial derivatives across the three
factors, so omega^n contracts n derivative axes of each factor with n
Levi-Civita symbols (Olver, *Classical Invariant Theory*, 1999, ch. 6),
one numpy einsum per transvectant.  Integer object arrays stay exact and
complex arrays stay complex.

`MultiPoly` is an immutable sparse polynomial, exact (Fraction, Cyclo) or
complex, for the closed normal-form invariants, their Jacobian and
invariance proof, ternary cubics, and the trilinear form of a state.
"""
from __future__ import annotations

import math
import string
from itertools import permutations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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


def _levi_civita() -> np.ndarray:
    """The symbol eps_ijk; integer, so integer arrays contract exactly."""
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for sigma, sign in PERMS3:
        eps[sigma] = sign
    eps.setflags(write=False)
    return eps


# the one Levi-Civita symbol of the package
LEVI_CIVITA = _levi_civita()


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




class Form(NamedTuple):
    """A form as a coefficient tensor whose axis k carries a variable of
    group groups[k], the groups sorted in GROUPS order.  Any tensor whose
    symmetrization over the axes of each group is the form's coefficient
    tensor represents the form."""

    tensor: np.ndarray
    groups: tuple

    def __add__(self, other: "Form") -> "Form":
        if self.groups != other.groups:
            raise PolyError(f"cannot add forms over {self.groups} and {other.groups}")
        return Form(self.tensor + other.tensor, self.groups)

    def __neg__(self) -> "Form":
        return Form(-self.tensor, self.groups)

    def __mul__(self, other) -> "Form":
        """The product with a form, as an outer product with the axes
        stable-sorted by group, or with a scalar.  A complex tensor takes the
        scalar as complex, so that a Fraction keeps it a complex array."""
        if not isinstance(other, Form):
            if self.tensor.dtype.kind == "c":
                other = complex(other)
            return Form(self.tensor * other, self.groups)
        return _sorted_form(np.multiply.outer(self.tensor, other.tensor),
                            self.groups + other.groups)

    __rmul__ = __mul__

    def value(self, point: Mapping[str, np.ndarray]):
        """The form at a point that maps each group to its 3-vector."""
        t = self.tensor
        for g in reversed(self.groups):
            t = t @ point[g]
        return t


def _sorted_form(tensor: np.ndarray, groups: Sequence[str]) -> Form:
    order = sorted(range(len(groups)), key=lambda k: _GROUP_RANK[groups[k]])
    return Form(tensor.transpose(order), tuple(groups[k] for k in order))


def _differentiated(f: Form, budget: Mapping[str, int]) -> np.ndarray:
    """The tensor of f with n derivative axes first in the block of each
    group g with budget n: the sum over the ordered choices of n of the
    block's d axes, the others kept in order, which represents the n-th
    derivatives d^n f / dg_a1 ... dg_an.  It has d!/(d-n)! terms and no
    division, so integer tensors stay integer."""
    t = f.tensor
    for g, n in budget.items():
        block = [k for k, h in enumerate(f.groups) if h == g]
        if len(block) < n:
            raise PolyError(f"degree deficit: omega_{g}^{n} on a form of degree {len(block)}")
        axes = list(range(t.ndim))
        terms = []
        for chosen in permutations(block, n):
            axes[block[0]:block[-1] + 1] = [*chosen, *(k for k in block if k not in chosen)]
            terms.append(t.transpose(axes))
        t = sum(terms[1:], terms[0])
    return t


def transvectant(f1: Form, f2: Form, f3: Form, upper: tuple[int, int, int],
                 lower: tuple[int, int, int] = (0, 0, 0)) -> Form:
    """Multiple transvectant of three forms: omega_x^n1 omega_y^n2
    omega_z^n3 omega_xi^m1 omega_eta^m2 omega_zeta^m3 for upper = (n1, n2,
    n3) and lower = (m1, m2, m3), applied to f1 f2 f3 in separate variables,
    which are then identified.  The j-th derivative axes of group g of the
    three factors are joined by one Levi-Civita symbol; the free axes are
    stable-sorted by group.  PolyError on a degree deficit.

    The einsum path is fixed: f1, the first symbol, f2, the other symbols,
    f3.  A greedy or optimal path search picks orders that are far slower
    on the degree-12 contraction (seconds against tens of milliseconds)."""
    budget = {g: n for g, n in zip(GROUPS, (*upper, *lower)) if n}
    letters = iter(string.ascii_letters)
    joined: dict[tuple, str] = {(g, j): "" for g, n in budget.items() for j in range(n)}
    subs, free = [], []
    for f in (f1, f2, f3):
        sub, seen = "", dict.fromkeys(budget, 0)
        for g in f.groups:
            letter = next(letters)
            sub += letter
            if seen.get(g, 0) < budget.get(g, 0):
                joined[g, seen[g]] += letter
                seen[g] += 1
            else:
                free.append((g, letter))
        subs.append(sub)
    free.sort(key=lambda gl: _GROUP_RANK[gl[0]])
    symbols = list(joined.values())
    eps = [LEVI_CIVITA] * len(symbols)
    t1, t2, t3 = (_differentiated(f, budget) for f in (f1, f2, f3))
    subscripts = [subs[0], *symbols[:1], subs[1], *symbols[1:], subs[2]]
    path = ["einsum_path", (0, 1), *((0, k) for k in range(len(subscripts) - 2, 0, -1))]
    out = np.einsum(f"{','.join(subscripts)}->{''.join(l for _, l in free)}",
                    t1, *eps[:1], t2, *eps[1:], t3, optimize=path)
    return Form(np.asarray(out), tuple(g for g, _ in free))
