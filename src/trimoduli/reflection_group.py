"""The symmetry groups of the normal forms, as integer arrays and complex matrices.

The order-1296 group is generated by the five matrices of `generators`;
dropping the bare swap B leaves the index-2 reflection subgroup K of order
648 whose polynomial invariants are exactly the closed normal-form
invariants (G26 and G25 in the Shephard-Todd list).  Every entry of every
element lies in (1/3)Z[eps], so an element is 3 * entry in integer pairs,
18 ints, and one vectorised integer product, `_product`, serves the closure,
the coset K.B and `is_unitary`.  A group is one sorted (n, 18) int64 array of
its elements, the 72 distinct complex rows of their matrices and an index of
each element's rows; the invariance proof evaluates `concomitants.c_formulas`
on the linear forms 3g.x with `Eisenstein` coefficients.

`orbit` and `stabilizer` gather the images of a triple of any scalars that
convert to Python complex from the values of the rows on it; `stabilizer_type`
labels a stabilizer by exact probes on its matrices.  A float triple set is
one complex (n, 3) array in (Re u, Im u, ..., Im w) order; `cluster_points`
groups the near images of `orbit`, as the runs of a sort along one direction
where each run is a star, else by pair union.
"""
from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .poly_engine import Poly

# eps = exp(2 i pi / 3)
EPS_COMPLEX = complex(-0.5, 3.0 ** 0.5 / 2.0)


def _product(x, y) -> np.ndarray:
    """9 * (g @ h) in integer pairs, for arrays (..., 18) of the 18 ints of g
    and h (3 * entry = a + b*eps as the pair a, b, row-major), broadcast over
    the leading axes: four 3x3 products of the a and b parts, on int64 arrays
    and on object arrays of Python ints alike."""
    pairs_x = x.reshape(x.shape[:-1] + (3, 3, 2))
    pairs_y = y.reshape(y.shape[:-1] + (3, 3, 2))
    a, b = pairs_x[..., 0], pairs_x[..., 1]
    c, d = pairs_y[..., 0], pairs_y[..., 1]
    # (a + b eps)(c + d eps) with eps^2 = -1 - eps
    bd = b @ d
    out = np.stack([a @ c - bd, a @ d + b @ c - bd], axis=-1)
    return out.reshape(out.shape[:-3] + (18,))


_IDENTITY = (3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0)


class Eisenstein:
    """a + b*eps with eps^2 = -1 - eps, a and b ints or Fractions: one
    coefficient of the linear forms 3g.x of the invariance proof, a pair of
    the 18 ints of g."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        if isinstance(other, Eisenstein):
            return Eisenstein(self.a + other.a, self.b + other.b)
        return Eisenstein(self.a + other, self.b)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Eisenstein):
            a, b, c, d = self.a, self.b, other.a, other.b
            return Eisenstein(a * c - b * d, a * d + b * c - b * d)
        if isinstance(other, numbers.Rational):
            return Eisenstein(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __complex__(self) -> complex:
        return complex(self.a) + complex(self.b) * EPS_COMPLEX

    def __abs__(self) -> float:
        return abs(complex(self))


def _row_table(ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(forms, rows): the distinct matrix rows of an (n, 18) integer array, complex(a/3)
    + complex(b/3) * EPS_COMPLEX per entry, and each element's rows as an (n, 3) index."""
    six, rows = np.unique(ints.reshape(-1, 6), axis=0, return_inverse=True)
    return six[:, 0::2] / 3 + six[:, 1::2] / 3 * EPS_COMPLEX, rows.reshape(-1, 3)


@lru_cache(maxsize=None)
def generators() -> dict:
    """The five generating transformations of the order-1296 group, as 18
    ints each: A cycles (u,v,w); B swaps v,w; C and D rescale by cube roots
    of unity; E is the eps-Fourier matrix with exact prefactor
    1/(i sqrt 3) = (eps^2-eps)/3.  In 3 * entry: 1 is (3, 0), eps is (0, 3),
    eps^2 = -1 - eps is (-3, -3), and E's entries are 3 * (eps^2-eps)/3 times
    1, eps and eps^2, that is -1 - 2eps, 2 + eps and -1 + eps.
    """
    o, one, e, e2 = (0, 0), (3, 0), (0, 3), (-3, -3)
    p, q, r = (-1, -2), (2, 1), (-1, 1)
    entries = {
        "A": (o, one, o, o, o, one, one, o, o),
        "B": (one, o, o, o, o, one, o, one, o),
        "C": (one, o, o, o, e, o, o, o, e2),
        "D": (one, o, o, o, e, o, o, o, e),
        "E": (p, p, p, p, q, r, p, r, q),
    }
    return {name: sum(pairs, ()) for name, pairs in entries.items()}


class MatrixGroup(NamedTuple):
    """A finite matrix group: its elements as one sorted (n, 18) int64 array of 3 * entry
    in integer pairs; its generators as 18-int tuples; and its `_row_table`."""

    ints: np.ndarray
    gens: tuple
    forms: np.ndarray
    rows: np.ndarray

    @property
    def order(self) -> int:
        return len(self.ints)

    @property
    def matrices(self) -> np.ndarray:
        return self.forms[self.rows]


CLOSURE_CAP = 100000


def generate_closure(gens) -> MatrixGroup:
    """Breadth-first closure of a generator set under multiplication, with
    exact equality; raises if CLOSURE_CAP is exceeded (wrong generator).  Each
    round is one `_product` of the frontier with the generators: on int64
    while every entry of both is below 2**20 in magnitude, so that a sum of
    products stays below 2**43, and on object arrays of Python ints
    otherwise, so no entry wraps before the cap is met."""
    gens = tuple(tuple(g) for g in gens)
    right = np.array(gens).reshape(-1, 18)
    seen = {_IDENTITY}
    frontier = [_IDENTITY]
    while frontier:
        left = np.array(frontier)
        narrow = max(np.abs(left).max(), np.abs(right).max(initial=0)) < 2 ** 20
        dtype = np.int64 if narrow else object
        p = _product(left.astype(dtype)[:, None], right.astype(dtype))
        if (p % 3).any():
            raise ArithmeticError("a product entry left (1/3)Z[eps]")
        new = []
        for prod in map(tuple, (p // 3).reshape(-1, 18).tolist()):
            if prod not in seen:
                seen.add(prod)
                new.append(prod)
                if len(seen) > CLOSURE_CAP:
                    raise RuntimeError(f"closure exceeded cap {CLOSURE_CAP}")
        frontier = new
    # (a, b) of 3 * entry orders entries as (a, b) of the entry itself
    ints = np.array(sorted(seen), dtype=np.int64).reshape(-1, 18)
    return MatrixGroup(ints, gens, *_row_table(ints))


@lru_cache(maxsize=None)
def group_k() -> MatrixGroup:
    """The order-648 normal-form symmetry group (generators A, C, D, E)."""
    g = generators()
    return generate_closure((g["A"], g["C"], g["D"], g["E"]))


@lru_cache(maxsize=None)
def group_h() -> MatrixGroup:
    """The order-1296 supergroup including the bare swap B: K has index 2 in
    it and B is not in K, so it is K together with the coset K.B.  Its
    generators are K's and B, and its rows are sorted as `generate_closure`
    sorts them."""
    g = generators()
    k = group_k()
    ints = np.concatenate([k.ints, _product(k.ints, np.array(g["B"])) // 3])
    ints = ints[np.lexsort(ints.T[::-1])]
    return MatrixGroup(ints, (g["A"], g["B"], g["C"], g["D"], g["E"]), *_row_table(ints))


def is_unitary(group: MatrixGroup) -> bool:
    """Exact check that each element times its conjugate transpose is one:
    one `_product` of the elements with their transposes, each pair (a, b)
    of 3 * entry conjugated to (a - b, -b), against 9 times the identity."""
    m = group.ints.reshape(-1, 3, 3, 2).transpose(0, 2, 1, 3)
    a, b = m[..., 0], m[..., 1]
    adjoint = np.stack([a - b, -b], axis=-1).reshape(-1, 18)
    return bool((_product(group.ints, adjoint) == 3 * np.array(_IDENTITY)).all())


def ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2**e for a complex array, exact wherever the result is normal."""
    return np.ldexp(np.ascontiguousarray(a).view(float), e).view(complex)


def scalar_ldexp(z: complex, e: int) -> complex:
    """z * 2**e for a complex scalar, exact while the result stays in the
    normal float range; OverflowError above it."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def unit_size(a) -> tuple[np.ndarray, int]:
    """(t, e): a triple or amplitude array a as a complex array t times 2**e,
    where 2**-e brings its largest real or imaginary part into [1/2, 1),
    exactly (e = 0 for zeros): the package's one unit scaling."""
    t = np.array(a, dtype=complex)
    e = math.frexp(float(np.abs(t.view(float)).max()))[1]
    return ldexp(t, -e), e


def orbit(group: MatrixGroup, triple) -> np.ndarray:
    """The orbit {g.t} without repeats, of a triple of scalars that convert to Python
    complex numbers: a complex (n, 3) array in `image_keys` order, the first image of each
    cluster of the images within 1e-9 times their largest real or imaginary part, so its
    size does not depend on the scale of the triple.  The images are taken at unit size
    (`unit_size`), so that no squared distance leaves the float range, and scaled back,
    keeping their bits in the normal range; OverflowError beyond it.  Zero gives one row."""
    t, e = unit_size(triple)
    if not t.any():
        return np.zeros((1, 3), dtype=complex)
    vals, key = image_keys(group, t)
    pts = vals[group.rows[np.argsort(key, kind="stable")]]
    flat = np.column_stack([pts.real, pts.imag])
    if math.frexp(np.abs(flat).max())[1] + e > np.finfo(float).maxexp:
        raise OverflowError(f"orbit points leave the float range at scale 2**{e}")
    labels = cluster_points(flat, 1e-9 * float(np.max(np.abs(flat))))
    return ldexp(pts[labels == np.arange(len(labels))], e)


def image_keys(group: MatrixGroup, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vals, key) of a complex triple: image i is vals[rows[i]], and a stable sort of key,
    the base-m number of the ranks of its values in complex order, sorts by (Re u, ..., Im w)."""
    vals = group.forms @ t
    r, m = np.unique(vals, return_inverse=True)[1][group.rows], len(vals)
    return vals, (r[:, 0] * m + r[:, 1]) * m + r[:, 2]


# a unit direction with weights independent over Q(sqrt 3): orbit points project apart
_PROJECTION = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]) / np.sqrt(41.0)


def cluster_points(flat: np.ndarray, radius: float) -> np.ndarray:
    """Cluster labels of the rows of flat (n x 6), joined by pairs at most
    radius apart in Euclidean distance; each label is the smallest row index
    of its cluster.

    The rows are sorted by their projection on a fixed unit direction.  The
    projection shrinks distances, so the projections of a close pair are at
    most radius apart, up to a rounding margin: `reach`.  No pair crosses a
    gap above reach, so those gaps split the sorted rows into runs.  Where
    every row lies within radius of its run's first row, each run is a
    cluster; otherwise `_pair_labels` joins the pairs.  A distance is its
    square, summed column by column, against radius**2."""
    n = len(flat)
    labels = np.arange(n)
    proj = flat @ _PROJECTION
    # a margin for the rounding of the projections and of the distances, so
    # that no pair within radius is missed (d * max|flat| bounds the 1-norm
    # of a row of d columns)
    d = flat.shape[1]
    rounding = 8 * d * np.finfo(float).eps * d * float(np.abs(flat).max(initial=0.0))
    reach = radius * (1 + 1e-9) + rounding
    order = np.argsort(proj)
    ranked = proj[order]
    split = ~(ranked[1:] - ranked[:-1] <= reach)
    if split.all():
        return labels  # every run is one row, or there is at most one row
    starts = np.flatnonzero(np.concatenate([[True], split]))
    run = np.concatenate([[0], np.cumsum(split)])
    diff = flat[order] - flat[order[starts]][run]
    d2 = np.zeros(n)
    for col in diff.T:
        d2 += col * col
    if (d2 <= radius * radius).all():
        labels[order] = np.minimum.reduceat(order, starts)[run]
        return labels
    return _pair_labels(labels, flat, radius, order, ranked, reach)


def _pair_labels(labels, flat, radius, order, ranked, reach) -> np.ndarray:
    """`cluster_points` by a union of the pairs within radius among the rows
    whose projections lie at most reach apart."""
    n = len(labels)
    # candidates later in the sorted order from a window 2 * reach wide, so
    # that rounding drops none; the gap test below is the exact one
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
    """Subgroup fixing a triple of scalars that convert to Python complex numbers: the
    elements whose images, gathered from forms @ t, lie within tol times the largest entry
    of t, taken at unit size (`unit_size`) so that the subgroup does not depend on the scale
    and a subnormal triple keeps a tolerance above zero.  The subgroup keeps the group's
    forms and its own rows of ints and rows."""
    t, _ = unit_size(triple)
    moved = np.max(np.abs((group.forms @ t)[group.rows] - t), axis=1)
    # a subset of the sorted element array is sorted
    members = np.flatnonzero(moved <= tol * float(np.max(np.abs(t))))
    return MatrixGroup(group.ints[members], group.gens[:0], group.forms, group.rows[members])


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
    mats = subgroup.matrices
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


def verify_invariance(group: MatrixGroup) -> dict:
    """Exact check that the closed invariants of degree 6, 9, 12 compose
    trivially with every generator of a group: `c_formulas` on the linear
    forms 3g.x, with the 18 ints of g as `Eisenstein` coefficients, against
    3^d times `c_polynomials`, for each generator g.  An entry is 0, or the
    largest modulus of a coefficient of the difference, over 3^d."""
    from .concomitants import c_formulas, c_polynomials

    x1, x2, x3 = (Poly.variable(i) for i in (1, 2, 3))
    report = {}
    for gi, g in enumerate(group.gens):
        coeffs = [Eisenstein(g[k], g[k + 1]) for k in range(0, 18, 2)]
        gx = [x1 * coeffs[i] + x2 * coeffs[i + 1] + x3 * coeffs[i + 2] for i in (0, 3, 6)]
        entry = {}
        for name, d, composed, poly in zip(("C6", "C9", "C12"), (6, 9, 12),
                                           c_formulas(*gx), c_polynomials()):
            diff = composed - poly * 3 ** d
            entry[name] = 0 if diff.is_zero() else max(
                abs(c) for c in diff.terms.values()) / 3 ** d
        report[f"generator_{gi}"] = entry
    return report
