"""Forms over six ternary variable groups, and polynomials in three variables.

The groups are the covariant x, y, z and the contravariant xi, eta, zeta.
A `Form` is a coefficient tensor with one axis of length 3 per variable:
the form sum T[i1..id] v1_i1 ... vd_id, the group of each axis named in
`groups`.  Multiple transvectants act on forms: Cayley's omega operator of
a group is the 3x3 determinant of partial derivatives across the three
factors, so omega^n contracts n derivative axes of each factor with n
Levi-Civita symbols (Olver, *Classical Invariant Theory*, 1999, ch. 6),
one numpy einsum per transvectant.  Integer object arrays stay exact and
complex arrays stay complex.

Every form of a state is a `Form`: the trilinear ground form, its
concomitants and the ternary cubics whose Aronhold invariants are taken.
`Poly` is an exact polynomial in x1, x2, x3, keyed by exponent triples,
for the closed normal-form invariants of the parameters (u, v, w) and
their invariance proof.
"""
from __future__ import annotations

import string
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

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
    """Raised for malformed form operations: mismatched groups, degree deficits."""


class Poly:
    """An exact polynomial in x1, x2, x3 (the parameters u, v, w of the
    normal form): its terms map exponent triples to nonzero coefficients,
    ints, Fractions or `reflection_group.Eisenstein` pairs, in the order the
    operations make them."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object]):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def variable(cls, i: int) -> "Poly":
        """The variable x_i, i in 1, 2, 3."""
        return cls({tuple(int(k == i) for k in (1, 2, 3)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return Poly(merged)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        """The product with a polynomial, or with a scalar on either side."""
        if not isinstance(other, Poly):
            return Poly({e: c * other for e, c in self.terms.items()})
        prod: dict[tuple, object] = {}
        for (a1, a2, a3), c1 in self.terms.items():
            for (b1, b2, b3), c2 in other.terms.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                prod[key] = prod.get(key, 0) + c1 * c2
        return Poly(prod)

    __rmul__ = __mul__


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
