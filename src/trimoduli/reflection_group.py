"""The symmetry groups of the normal forms, exact and on complex matrices.

The order-1296 group is generated by the five matrices of Table `generators`;
dropping the bare swap B leaves the index-2 reflection subgroup of order 648
whose polynomial invariants are exactly the closed normal-form invariants
(G26 and G25 in the Shephard-Todd list).  Every entry of every group element
lies in (1/3)Z[eps], so an element is stored as 3 * entry in integer pairs and
closure runs in exact integer arithmetic; the exact orbit, stabilizer and
invariance computations see the entries as `Cyclo` values of Q(eps); the
invariance proof evaluates `concomitants.c_formulas` on the linear forms g.x.

A group's complex matrices are built once, as one (n, 3, 3) stack.  `orbit`
and `stabilizer` are exact on exact triples and use the stack on float or
complex ones; a stabilizer keeps its rows of the stack, and `stabilizer_type`
labels it by probes on those matrices, which decide exactly because their
entries are Eisenstein numbers with a bounded denominator.  A float triple
set is one complex (n, 3) array: `cluster_points` (candidate pairs from a
sort along one direction, then a union of the pairs within the radius)
merges near points and `sort_rows` orders the rows, here and in the form
problem.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclotomic import EPS, EPS_COMPLEX, Cyclo, is_exact, to_complex
from .poly_engine import MultiPoly, VariableRef, group_catalog


def _as_cyclo(values) -> tuple:
    return tuple(Cyclo.coerce(e) if not isinstance(e, Cyclo) else e for e in values)


def _product9(x, y) -> list:
    """9 * (g @ h) in integer pairs, row-major, for g and h given as their
    18 ints (3 * entry = a + b*eps as the pair a, b, row-major)."""
    out = []
    for i in (0, 6, 12):
        a0, b0, a1, b1, a2, b2 = x[i:i + 6]
        for j in (0, 2, 4):
            c0, d0 = y[j], y[j + 1]
            c1, d1 = y[j + 6], y[j + 7]
            c2, d2 = y[j + 12], y[j + 13]
            # (a + b eps)(c + d eps) with eps^2 = -1 - eps
            bd = b0 * d0 + b1 * d1 + b2 * d2
            out.append(a0 * c0 + a1 * c1 + a2 * c2 - bd)
            out.append(a0 * d0 + a1 * d1 + a2 * d2 + b0 * c0 + b1 * c1 + b2 * c2 - bd)
    return out


_IDENTITY9 = (9, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 9, 0)


@dataclass(frozen=True)
class GroupElement:
    """A 3x3 matrix over (1/3)Z[eps] acting on parameter triples (u, v, w).

    `ints` holds 3 * entry as the integer pair (a, b) of a + b*eps for the
    nine entries in row-major order, 18 ints in all."""

    ints: tuple

    @classmethod
    def from_rows(cls, rows) -> "GroupElement":
        rows = tuple(_as_cyclo(row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("group elements are 3x3 matrices")
        ints = []
        for row in rows:
            for e in row:
                a, b = 3 * e.a, 3 * e.b
                if a.denominator != 1 or b.denominator != 1:
                    raise ValueError(f"entry {e} of a group element is not in (1/3)Z[eps]")
                ints += (a.numerator, b.numerator)
        return cls(tuple(ints))

    @property
    def rows(self) -> tuple:
        """The entries as a 3x3 tuple of exact `Cyclo` values."""
        v = self.ints
        return tuple(tuple(Cyclo(Fraction(v[k], 3), Fraction(v[k + 1], 3))
                           for k in range(i, i + 6, 2))
                     for i in (0, 6, 12))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        p = _product9(self.ints, other.ints)
        if any(v % 3 for v in p):
            raise ArithmeticError("a product entry left (1/3)Z[eps]")
        return GroupElement(tuple(v // 3 for v in p))

    def apply(self, triple):
        """Matrix-vector action on an exact (u, v, w)."""
        u, v, w = triple
        rows = self.rows
        return tuple(rows[i][0] * u + rows[i][1] * v + rows[i][2] * w
                     for i in range(3))

    def det(self) -> Cyclo:
        r = self.rows
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def inverse(self) -> "GroupElement":
        d = self.det()
        r = self.rows
        cof = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                sub = [r[a][b] for a in range(3) if a != i for b in range(3) if b != j]
                minor = sub[0] * sub[3] - sub[1] * sub[2]
                cof[i][j] = minor if (i + j) % 2 == 0 else -minor
        inv = tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))
        return GroupElement.from_rows(inv)

    def conjugate_transpose(self) -> "GroupElement":
        # conj(a + b eps) = (a - b) - b eps
        v = self.ints
        out = []
        for i in range(3):
            for j in range(3):
                a, b = v[6 * j + 2 * i], v[6 * j + 2 * i + 1]
                out += (a - b, -b)
        return GroupElement(tuple(out))

    def is_unitary(self) -> bool:
        return tuple(_product9(self.ints, self.conjugate_transpose().ints)) == _IDENTITY9

    def sort_key(self):
        # (a, b) of 3 * entry orders entries as (a, b) of the entry itself
        return self.ints

    def entry_pairs(self):
        """Entries as (a, b) rational pairs meaning a + b*eps, row-major."""
        return [[[str(e.a), str(e.b)] for e in row] for row in self.rows]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


def _to_complex(ints: np.ndarray) -> np.ndarray:
    """Complex entries from integer pairs (a, b) of 3 * entry along the last
    axis, rounded as `Cyclo.to_complex` rounds a/3 + (b/3)*eps."""
    a, b = ints[..., 0::2] / 3, ints[..., 1::2] / 3
    return a.astype(complex) + b.astype(complex) * EPS_COMPLEX


@lru_cache(maxsize=None)
def identity() -> GroupElement:
    return GroupElement.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@lru_cache(maxsize=None)
def generators() -> dict:
    """The five generating transformations of the order-1296 group:
    A cycles (u,v,w); B swaps v,w; C and D rescale by cube roots of unity;
    E is the eps-Fourier matrix with exact prefactor 1/(i sqrt 3) = (eps^2-eps)/3.
    """
    e = EPS
    e2 = EPS * EPS
    pref = (e2 - e) / 3  # equals 1/(i*sqrt(3)); its square is -1/3
    a = GroupElement.from_rows(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    b = GroupElement.from_rows(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    c = GroupElement.from_rows(((1, 0, 0), (0, e, 0), (0, 0, e2)))
    d = GroupElement.from_rows(((1, 0, 0), (0, e, 0), (0, 0, e)))
    ee = GroupElement.from_rows((
        (pref, pref, pref),
        (pref, pref * e, pref * e2),
        (pref, pref * e2, pref * e),
    ))
    return {"A": a, "B": b, "C": c, "D": d, "E": ee}


@dataclass(frozen=True)
class MatrixGroup:
    """A finite matrix group: canonical sorted element tuple plus generators."""

    elements: tuple
    gens: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._element_set()

    def _element_set(self):
        cached = getattr(self, "_elements_frozen", None)
        if cached is None:
            cached = frozenset(self.elements)
            object.__setattr__(self, "_elements_frozen", cached)
        return cached

    def _complex_matrices(self) -> np.ndarray:
        cached = getattr(self, "_matrices", None)
        if cached is None:
            ints = np.array([g.ints for g in self.elements]).reshape(-1, 18)
            cached = _to_complex(ints).reshape(-1, 3, 3)
            object.__setattr__(self, "_matrices", cached)
        return cached

    def export_json(self) -> str:
        return json.dumps([g.entry_pairs() for g in self.elements])


def generate_closure(gens, cap: int = 100000) -> MatrixGroup:
    """Breadth-first closure of a generator set under multiplication, with
    exact equality; raises if the cap is exceeded (wrong generator)."""
    gens = tuple(gens)
    seen = {identity()}
    frontier = [identity()]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = g @ h
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > cap:
                        raise RuntimeError(f"closure exceeded cap {cap}")
        frontier = new
    elements = tuple(sorted(seen, key=GroupElement.sort_key))
    return MatrixGroup(elements, gens)


@lru_cache(maxsize=None)
def group_k() -> MatrixGroup:
    """The order-648 normal-form symmetry group (generators A, C, D, E)."""
    g = generators()
    grp = generate_closure((g["A"], g["C"], g["D"], g["E"]))
    return grp


@lru_cache(maxsize=None)
def group_h() -> MatrixGroup:
    """The order-1296 supergroup including the bare swap B."""
    g = generators()
    return generate_closure((g["A"], g["B"], g["C"], g["D"], g["E"]))


def orbit(group: MatrixGroup, triple):
    """The orbit {g.t} without repeats.  On an exact triple: the exact points,
    deduplicated by equality, as a sorted list.  On a float or complex triple:
    a complex (n, 3) array in `sort_rows` order, one point per cluster of the
    images within 1e-9 times their largest real or imaginary part, so its
    size does not depend on the scale of the triple."""
    if is_exact(triple):
        t = _as_cyclo(triple)
        pts = {g.apply(t) for g in group.elements}
        return sorted(pts, key=lambda p: tuple(x.sort_key() for x in p))
    pts = group._complex_matrices() @ np.array([complex(c) for c in triple])
    flat = np.column_stack([pts.real, pts.imag])
    labels = cluster_points(flat, 1e-9 * float(np.max(np.abs(flat))))
    return sort_rows(pts[labels == np.arange(len(labels))])


def sort_rows(pts: np.ndarray) -> np.ndarray:
    """The rows sorted by (Re u, Im u, ..., Im w); lexsort's primary key is last."""
    return pts[np.lexsort(pts.view(float)[:, ::-1].T)]


# a fixed unit direction with distinct, non-zero components, so that rows
# differing in any coordinate rarely project to the same value
_PROJECTION = np.linspace(1.0, 2.0, 6) / np.linalg.norm(np.linspace(1.0, 2.0, 6))


def cluster_points(flat: np.ndarray, radius: float) -> np.ndarray:
    """Cluster labels of the rows of flat (n x 6), joined by pairs at most
    radius apart in Euclidean distance; each label is the smallest row index
    of its cluster.

    The rows are sorted by their projection on a fixed unit direction.  The
    projection shrinks distances, so the projections of a close pair are at
    most radius apart, up to a rounding margin: `reach`.  One `searchsorted`
    on a window 2 * reach wide gives each row its candidates later in the
    sorted order, a candidate stays when its projected gap is at most reach,
    and a pair is kept when its full squared distance, summed column by
    column, is at most radius**2."""
    n = len(flat)
    labels = np.arange(n)
    if n < 2:
        return labels
    proj = flat @ _PROJECTION
    # a margin for the rounding of the projections and of the distances, so
    # that no pair within radius is missed (d * max|flat| bounds the 1-norm
    # of a row of d columns)
    d = flat.shape[1]
    rounding = 8 * d * np.finfo(float).eps * d * float(np.abs(flat).max())
    reach = radius * (1 + 1e-9) + rounding
    order = np.argsort(proj)
    ranked = proj[order]
    if not (ranked[1:] - ranked[:-1] <= reach).any():
        return labels  # no neighbouring gap within reach, so no pair at all
    # the wider window keeps the rounding of ranked + reach from dropping a
    # candidate; the gap test below is the exact one
    ends = np.searchsorted(ranked, ranked + 2 * reach, side="right")
    counts = ends - np.arange(1, n + 1)
    p = np.repeat(np.arange(n), counts)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    near = ranked[q] - ranked[p] <= reach
    i, j = order[p[near]], order[q[near]]
    cols = flat.T.copy()
    d2 = np.zeros(len(i))
    for col in cols:
        diff = col.take(i) - col.take(j)
        d2 += diff * diff
    keep = d2 <= radius * radius
    i, j = i[keep], j[keep]
    # propagate the smallest index along the pairs, jumping to the label's
    # label, until every pair agrees
    while True:
        low = np.minimum(labels[i], labels[j])
        np.minimum.at(labels, i, low)
        np.minimum.at(labels, j, low)
        labels = labels[labels]
        if np.array_equal(labels[i], labels[j]):
            return labels


def stabilizer(group: MatrixGroup, triple, tol: float = 1e-9) -> MatrixGroup:
    """Subgroup fixing a triple; exact when the triple is exact, otherwise
    selected numerically but returned as exact group elements.  The float
    test allows tol times the largest entry of the triple, so the subgroup
    does not depend on the scale of the triple.  The subgroup keeps its rows
    of the group's complex matrices."""
    if is_exact(triple):
        t = _as_cyclo(triple)
        fixed = [g.apply(t) == t for g in group.elements]
    else:
        t = np.array([complex(c) for c in triple])
        scale = float(np.max(np.abs(t)))
        fixed = np.max(np.abs(group._complex_matrices() @ t - t), axis=1) <= tol * scale
    # a subset of the sorted element tuple is sorted
    members = np.flatnonzero(fixed)
    sub = MatrixGroup(tuple(group.elements[i] for i in members), ())
    object.__setattr__(sub, "_matrices", group._complex_matrices()[members])
    return sub


STABILIZER_LABELS = {1: "trivial", 3: "C3", 9: "C3xC3", 24: "G4", 648: "full"}

# The probes compare products of at most three matrices with entries in
# (1/3)Z[eps].  Those lie in (1/27)Z[eps], where a non-zero value has modulus
# at least 1/27, so on matrices with entries of modulus about one (the
# unitary elements of a group) a 1e-9 threshold separates rounding from a
# true difference, and each probe is decided exactly.
_PROBE_TOL = 1e-9
_REFLECTION3_TRACES = np.array([2 + EPS_COMPLEX, 2 + EPS_COMPLEX.conjugate()])


def _near(x, y, axes=None) -> np.ndarray:
    return np.max(np.abs(x - y), axis=axes, initial=0.0) <= _PROBE_TOL


def stabilizer_type(subgroup: MatrixGroup) -> str:
    """Classify a stabilizer subgroup by order plus structural probes on its
    complex matrices: pairwise commutation, g^3 = 1, and the trace 2 + eps^(+-1)
    of an order-3 pseudo-reflection (a matrix with g^3 = 1 is diagonalisable
    with cube roots of unity as eigenvalues, and only the eigenvalues 1, 1,
    eps^(+-1) give that trace)."""
    order = subgroup.order
    label = STABILIZER_LABELS.get(order)
    if label is None:
        return f"unclassified(order={order})"
    if order not in (3, 9, 24):
        return label
    mats = subgroup._complex_matrices()
    # products[i, a, j, c] = (g_i g_j)[a, c], all pairs in one 2-d product
    products = (mats.reshape(3 * order, 3) @ mats.transpose(1, 0, 2).reshape(3, 3 * order)
                ).reshape(order, 3, order, 3)
    abelian = _near(products, products.transpose(2, 1, 0, 3))
    if order == 3:
        return label if abelian else "unclassified(order=3,nonabelian)"
    cube_is_one = _near(mats @ mats @ mats, np.eye(3), (1, 2))
    if order == 9:
        # exponent 3: every g^3 = 1 and some g != 1
        exponent3 = cube_is_one.all() and not _near(mats, np.eye(3))
        return label if abelian and exponent3 else "unclassified(order=9,structure)"
    traces = np.trace(mats, axis1=1, axis2=2)
    trace_fits = np.abs(traces[:, None] - _REFLECTION3_TRACES) <= _PROBE_TOL
    has_reflection3 = (cube_is_one & trace_fits.any(axis=1)).any()
    return label if has_reflection3 and not abelian else "unclassified(order=24,structure)"


def verify_invariance(group: MatrixGroup | None = None) -> dict:
    """Exact check that the closed invariants of degree 6, 9, 12 compose
    trivially with every generator of the order-648 group: `c_formulas` on
    the linear forms g.x against `c_polynomials`, for each generator g."""
    from .concomitants import c_formulas, c_polynomials

    if group is None:
        group = group_k()
    gens = group.gens if group.gens else tuple(group.elements)
    cat = group_catalog(("x",))
    xs = [MultiPoly.variable(VariableRef("x", i), cat) for i in (1, 2, 3)]
    report = {}
    for gi, g in enumerate(gens):
        gx = [sum((x.scale(e) for x, e in zip(xs, row)), MultiPoly.zero(cat)) for row in g.rows]
        entry = {}
        for name, composed, poly in zip(("C6", "C9", "C12"), c_formulas(*gx), c_polynomials()):
            diff = composed - poly
            entry[name] = 0 if diff.is_zero() else max(
                abs(to_complex(c)) for c in diff.terms.values())
        report[f"generator_{gi}"] = entry
    return report
