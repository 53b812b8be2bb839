"""The symmetry groups of the normal forms, in exact cyclotomic arithmetic.

The order-1296 group is generated by the five matrices of Table `generators`;
dropping the bare swap B leaves the index-2 reflection subgroup of order 648
whose polynomial invariants are exactly the closed normal-form invariants.
All closure, orbit and stabilizer computations run over Q(eps); floating
point enters only when matching group orbits against numerically solved
points.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import EPS, Cyclo
from .poly_engine import MultiPoly, VariableRef, group_catalog

_ZERO = Cyclo(0)
_ONE = Cyclo(1)


def _as_cyclo_rows(rows):
    return tuple(tuple(Cyclo.coerce(e) if not isinstance(e, Cyclo) else e for e in row)
                 for row in rows)


@dataclass(frozen=True)
class GroupElement:
    """A 3x3 matrix over Q(eps) acting on parameter triples (u, v, w)."""

    rows: tuple

    @classmethod
    def from_rows(cls, rows) -> "GroupElement":
        rows = _as_cyclo_rows(rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("group elements are 3x3 matrices")
        return cls(rows)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        a, b = self.rows, other.rows
        return GroupElement(tuple(
            tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                  for j in range(3))
            for i in range(3)))

    def apply(self, triple):
        """Matrix-vector action on an exact or numeric (u, v, w)."""
        u, v, w = triple
        return tuple(self.rows[i][0] * u + self.rows[i][1] * v + self.rows[i][2] * w
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
        return GroupElement(inv)

    def conjugate_transpose(self) -> "GroupElement":
        return GroupElement(tuple(
            tuple(self.rows[j][i].conjugate() for j in range(3)) for i in range(3)))

    def is_unitary(self) -> bool:
        return self @ self.conjugate_transpose() == identity()

    def order(self, cap: int = 2000) -> int:
        e = identity()
        g = self
        for n in range(1, cap + 1):
            if g == e:
                return n
            g = g @ self
        raise RuntimeError("element order exceeds cap")

    def fixed_space_dim(self) -> int:
        """Dimension of the fixed subspace, i.e. 3 - rank(g - I), exactly."""
        m = [[self.rows[i][j] - (_ONE if i == j else _ZERO) for j in range(3)]
             for i in range(3)]
        return 3 - _rank3(m)

    def is_pseudo_reflection(self) -> bool:
        return self != identity() and self.fixed_space_dim() == 2

    def to_complex(self) -> np.ndarray:
        return np.array([[e.to_complex() for e in row] for row in self.rows])

    def sort_key(self):
        return tuple(e.sort_key() for row in self.rows for e in row)

    def entry_pairs(self):
        """Entries as (a, b) rational pairs meaning a + b*eps, row-major."""
        return [[[str(e.a), str(e.b)] for e in row] for row in self.rows]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


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
            cached = np.array([g.to_complex() for g in self.elements])
            object.__setattr__(self, "_matrices", cached)
        return cached

    def is_abelian(self) -> bool:
        return all(g @ h == h @ g for g in self.elements for h in self.elements)

    def exponent(self) -> int:
        exp = 1
        for g in self.elements:
            o = g.order()
            # lcm
            a, b = exp, o
            while b:
                a, b = b, a % b
            exp = exp * o // a
        return exp

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


def orbit(group: MatrixGroup, triple, mode: str = "float", tol: float = 1e-9):
    """The orbit {g.t} as a deduplicated point list.

    exact mode: entries must be exact scalars, dedup is exact equality.
    float mode: complex arithmetic, dedup by distance tol.
    """
    if mode == "exact":
        pts = {g.apply(tuple(Cyclo.coerce(c) if not isinstance(c, Cyclo) else c
                             for c in triple)) for g in group.elements}
        return sorted(pts, key=lambda p: tuple(x.sort_key() for x in p))
    if mode != "float":
        raise ValueError("mode must be 'exact' or 'float'")
    t = np.array([complex(c) for c in triple])
    mats = _complex_matrices(group)
    pts = mats @ t
    return _dedup_points(pts, tol)


def _complex_matrices(group: MatrixGroup) -> np.ndarray:
    return group._complex_matrices()


def _dedup_points(pts: np.ndarray, tol: float):
    from scipy.spatial import cKDTree

    flat = np.column_stack([pts.real, pts.imag])
    scale = max(1.0, float(np.max(np.abs(flat))))
    tree = cKDTree(flat)
    pairs = tree.query_pairs(tol * scale)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    reps = sorted({find(i) for i in range(len(pts))})
    out = [tuple(pts[i]) for i in reps]
    out.sort(key=lambda p: tuple((z.real, z.imag) for z in p))
    return out


def stabilizer(group: MatrixGroup, triple, tol: float = 1e-9) -> MatrixGroup:
    """Subgroup fixing a triple; exact when the triple is exact, otherwise
    selected numerically but returned as exact group elements.  The float
    test allows tol times the largest entry of the triple, so the subgroup
    does not depend on the scale of the triple."""
    exact = not any(isinstance(c, (complex, float)) for c in triple)
    members = []
    if exact:
        t = tuple(Cyclo.coerce(c) if not isinstance(c, Cyclo) else c for c in triple)
        for g in group.elements:
            if g.apply(t) == t:
                members.append(g)
    else:
        t = np.array([complex(c) for c in triple])
        scale = float(np.max(np.abs(t)))
        for g, m in zip(group.elements, _complex_matrices(group)):
            if np.max(np.abs(m @ t - t)) <= tol * scale:
                members.append(g)
    return MatrixGroup(tuple(sorted(members, key=GroupElement.sort_key)), ())


STABILIZER_LABELS = {1: "trivial", 3: "C3", 9: "C3xC3", 24: "G4", 648: "full"}


def stabilizer_type(subgroup: MatrixGroup) -> str:
    """Classify a stabilizer subgroup by order plus structural probes."""
    order = subgroup.order
    label = STABILIZER_LABELS.get(order)
    if label is None:
        return f"unclassified(order={order})"
    if order == 3:
        if not subgroup.is_abelian():
            return "unclassified(order=3,nonabelian)"
    elif order == 9:
        if not subgroup.is_abelian() or subgroup.exponent() != 3:
            return "unclassified(order=9,structure)"
    elif order == 24:
        has_order3_reflection = any(
            g.is_pseudo_reflection() and g.order() == 3 for g in subgroup.elements)
        if subgroup.is_abelian() or not has_order3_reflection:
            return "unclassified(order=24,structure)"
    return label


def verify_invariance(group: MatrixGroup | None = None) -> dict:
    """Exact check that the closed invariants of degree 6, 9, 12 compose
    trivially with every generator of the order-648 group."""
    from .concomitants import c_polynomials

    if group is None:
        group = group_k()
    gens = group.gens if group.gens else tuple(group.elements)
    c6, c9, c12 = c_polynomials()
    cat = group_catalog(("x",))
    xs = [MultiPoly.variable(VariableRef("x", i), cat) for i in (1, 2, 3)]
    report = {}
    for gi, g in enumerate(gens):
        rows = g.rows
        replacements = {
            VariableRef("x", i + 1): sum(
                (xs[j].scale(rows[i][j]) for j in range(3)), MultiPoly.zero(cat))
            for i in range(3)
        }
        entry = {}
        for name, poly in (("C6", c6), ("C9", c9), ("C12", c12)):
            composed = poly.substitute(replacements)
            diff = composed - poly.with_catalog(composed.catalog)
            entry[name] = 0 if diff.is_zero() else max(
                abs(c.to_complex() if isinstance(c, Cyclo) else complex(c))
                for c in diff.terms.values())
        report[f"generator_{gi}"] = entry
    return report
