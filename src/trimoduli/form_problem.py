"""The form problem: normal-form parameters from invariant values.

Given (a, b, c) = (I6, I12, I18) and optionally the alternating I9, the
solutions (u, v, w) are one orbit of the order-648 group K, the vertices of
a regular complex polytope: 648 points off the reflection mirrors of K, where
K acts freely, and 216, 72, 27 or 1 on them.  The case analysis `_stratum`
decides which, and `classify` is that decision alone.  `solve` returns the
K-orbit of one point that reproduces (a, b, c) on `concomitants.c_formulas`
and the sign datum on `concomitants.c9_formula`: a closed form on a
degenerate stratum, and off the mirrors the row of a psi-branch of the
radical chain (a quartic for psi^2 = (u^3+v^3+w^3)^2, one cubic per branch
whose roots are {u^3, v^3, w^3}, their principal cube roots in the order of
the sign datum), polished by Gauss-Newton steps on the invariants.
"""
from __future__ import annotations

import cmath
import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import concomitants, reflection_group
from .reflection_group import scalar_ldexp

_OMEGA = cmath.exp(2j * cmath.pi / 3)

POLYTOPE_LABELS = {
    648: "generic",
    216: "edges-2{4}3{3}3",
    72: "hessian-edge-centers",
    27: "hessian-vertices",
    1: "origin",
}

CANONICAL_CASES = {
    "hessian-vertices": (12.0, 0.0, 0.0, -2.0),
    "hessian-edge-centers": (1.0, 1.0, 1.0, 0.0),
    "edges-2{4}3{3}3": (1.0, 0.25, -0.125, 0.0),
}


# relative residual within which a psi-branch or a row reproduces the input
# invariants, and a row's I9 the sign datum
RESIDUAL_TOL = 1e-6


class FormProblemError(ValueError):
    """Inconsistent input data or a failed internal verification."""


def _sign_mismatch(i9: complex) -> FormProblemError:
    return FormProblemError(f"no solutions match the sign datum i9={i9}: inconsistent input")


@dataclass(frozen=True)
class FormProblemInput:
    """Invariant values (a, b, c) = (I6, I12, I18) and the sign datum i9 = I9;
    without i9, `solve` infers one from delta = 432 * I9^2."""
    a: complex
    b: complex
    c: complex
    i9: complex | None = None


@dataclass(frozen=True)
class PsiBranch:
    psi: complex
    lam: complex
    chi: complex
    residuals: tuple[float, float, float]


@dataclass
class OrbitClass:
    count: int
    polytope_label: str
    stabilizer_label: str
    stabilizer_order: int
    d_discriminant: complex | None  # None where b^2 (b^3 - c^2)^4 leaves the normal float range
    delta: complex
    i9_used: complex


@dataclass
class SolutionSet:
    """Solutions of the form problem as the rows (u, v, w) of one complex
    (n, 3) array; after `solve`, sorted by (Re u, Im u, ..., Im w).
    raw_count counts the rows of both sign classes, dropped the chain rows
    that failed the check, and filtered_count is the number of rows."""
    triples: np.ndarray
    raw_count: int
    dropped: int

    @property
    def filtered_count(self) -> int:
        return len(self.triples)


# --- closed-root solvers ------------------------------------------------------

def solve_quadratic(a, b, c) -> list[complex]:
    """Roots of a x^2 + b x + c, complex coefficients, a != 0."""
    a, b, c = complex(a), complex(b), complex(c)
    sq = cmath.sqrt(b * b - 4 * a * c)
    # pick the branch that avoids cancellation in b +/- sq
    u = b + sq if abs(b + sq) >= abs(b - sq) else b - sq
    if u == 0:  # b == 0 and discriminant == 0
        return [0j, 0j]
    q = -u / 2
    return [q / a, c / q]


def _rescaled(solver, coeffs) -> list[complex] | None:
    """Roots of a_n x^n + ... + a_0, a_n != 0, at the characteristic root
    magnitude lam = max_k |a_{n-k} / a_n|^(1/k), which keeps the closed formulas
    in float range for badly scaled inputs: all zero if lam = 0; None if
    0.5 < lam < 2; else lam times solver's roots for the monic coefficients
    a_{n-k} / a_n / lam^k (0 where lam^k underflows, as |a_{n-k} / a_n| <= lam^k)."""
    lead = complex(coeffs[0])
    lam = max((abs(complex(c)) / abs(lead)) ** (1.0 / k)
              for k, c in enumerate(coeffs[1:], start=1))
    if lam == 0.0:
        return [0j] * (len(coeffs) - 1)
    if 0.5 < lam < 2.0:
        return None
    scaled = solver(1.0, *(complex(c) / lead / lam ** k if lam ** k else 0j
                           for k, c in enumerate(coeffs[1:], start=1)))
    return [lam * r for r in scaled]


def solve_cubic_radicals(a3, a2, a1, a0) -> list[complex]:
    """Roots of a cubic, a3 != 0, by the closed (Cardano) formula."""
    roots = _rescaled(solve_cubic_radicals, (a3, a2, a1, a0))
    if roots is not None:
        return roots
    lead = complex(a3)
    b, c, d = complex(a2) / lead, complex(a1) / lead, complex(a0) / lead
    p = c - b * b / 3
    q = 2 * b ** 3 / 27 - b * c / 3 + d
    shift = -b / 3
    if p == 0 and q == 0:
        return [shift, shift, shift]
    sq = cmath.sqrt(q * q + 4 * p ** 3 / 27)
    u3 = (-q + sq) / 2
    u3_alt = (-q - sq) / 2
    if abs(u3_alt) > abs(u3):
        u3 = u3_alt
    if u3 == 0:  # q = 0 and p^3 underflows: y (y^2 + p) = 0
        s = cmath.sqrt(-p)
        return [shift, s + shift, shift - s]
    u = u3 ** (1.0 / 3.0)
    return [uk - p / (3 * uk) + shift for uk in (u * _OMEGA ** k for k in range(3))]


def solve_quartic_radicals(a4, a3, a2, a1, a0) -> list[complex]:
    """Roots of a quartic, a4 != 0, by the closed (Ferrari) formula."""
    roots = _rescaled(solve_quartic_radicals, (a4, a3, a2, a1, a0))
    if roots is not None:
        return roots
    lead = complex(a4)
    b, c, d, e = complex(a3) / lead, complex(a2) / lead, complex(a1) / lead, complex(a0) / lead
    p = c - 3 * b * b / 8
    q = d - b * c / 2 + b ** 3 / 8
    r = e - b * d / 4 + b * b * c / 16 - 3 * b ** 4 / 256
    shift = -b / 4
    y0 = max(abs(p) ** 0.5, abs(q) ** (1 / 3), abs(r) ** 0.25)
    if y0 == 0.0:
        return [shift] * 4
    if abs(q) <= 1e-14 * y0 ** 3:  # biquadratic: y^2 solves a quadratic
        ys = [y for s in map(cmath.sqrt, solve_quadratic(1, p, r)) for y in (s, -s)]
    else:
        ms = solve_cubic_radicals(8, 8 * p, 2 * p * p - 8 * r, -q * q)
        m = max(ms, key=abs)
        s = cmath.sqrt(2 * m)
        half = p / 2 + m
        ys = (solve_quadratic(1, s, half - q / (2 * s))
              + solve_quadratic(1, -s, half + q / (2 * s)))
    return [y + shift for y in ys]


def _poly_eval(coeffs, x):
    total = 0j
    for c in coeffs:
        total = total * x + complex(c)
    return total


def _poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def cluster_roots(roots, coeffs):
    """Group nearly equal roots of the polynomial with coefficients coeffs
    into (value, multiplicity) clusters.

    Closed-form solvers split an exact m-fold root into m points spread by
    roughly eps**(1/m); clustering within 2e-5 of the largest root restores
    the multiplicity, and the cluster mean is polished by Newton steps on the
    (m-1)-th derivative.
    """
    scale = max(abs(r) for r in roots)
    tol = 2e-5 * max(scale, 1e-300)
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(r - cl[0] / cl[1]) <= tol:
                cl[0] += r
                cl[1] += 1
                break
        else:
            clusters.append([r, 1])
    means = [(total / mult, mult) for total, mult in clusters]
    return [(_refine_multiple_root(coeffs, x, m) if m > 1 else x, m) for x, m in means]


def _refine_multiple_root(coeffs, x, mult):
    """Four Newton steps on the (mult-1)-th derivative, where an m-fold root
    of the polynomial is a simple root."""
    d = [complex(c) for c in coeffs]
    for _ in range(mult - 1):
        d = _poly_derivative(d)
    dd = _poly_derivative(d)
    for _ in range(4):
        denom = _poly_eval(dd, x)
        if denom == 0:
            break
        step = _poly_eval(d, x) / denom
        x = x - step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


# --- the psi system -----------------------------------------------------------

def solve_psi_system(inp: FormProblemInput) -> list[PsiBranch]:
    """All consistent branches (psi, lambda, chi) of the invariant system, one
    or two per cluster of quartic roots psi^2: distinct, as the clusters are,
    so not merged."""
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    coeffs = [27.0, 0.0, -18 * b, -8 * c, -b * b]
    roots = solve_quartic_radicals(*coeffs)
    clustered = cluster_roots(roots, coeffs)
    root_scale = max(abs(r) for r, _ in clustered)

    branches = []
    for big_psi, _ in clustered:
        if abs(big_psi) <= 1e-9 * max(root_scale, 1e-300):
            # psi = 0 branch: lambda decouples to both square roots of -8c
            lam0 = cmath.sqrt(-8 * c)
            pairs = [(0j, lam) for lam in ([lam0] if lam0 == 0 else [lam0, -lam0])]
        else:
            psi0 = cmath.sqrt(big_psi)
            pairs = [(psi, (b - psi ** 4) / psi) for psi in (psi0, -psi0)]
        for psi, lam in pairs:
            chi = (psi * psi - a) / 12
            res1 = abs(psi * psi - 12 * chi - a) / max(abs(psi) ** 2, 12 * abs(chi), abs(a), 1.0)
            res2 = abs(psi ** 4 + lam * psi - b) / max(abs(psi) ** 4, abs(lam * psi), abs(b), 1.0)
            res3 = (abs(psi ** 6 - 2.5 * lam * psi ** 3 - 0.125 * lam * lam - c)
                    / max(abs(psi) ** 6, 2.5 * abs(lam) * abs(psi) ** 3,
                          0.125 * abs(lam) ** 2, abs(c), 1.0))
            if max(res1, res2, res3) <= RESIDUAL_TOL:
                branches.append(PsiBranch(psi, lam, chi, (res1, res2, res3)))
    return branches


def _scales(inp: FormProblemInput, i9: complex) -> tuple[tuple, tuple]:
    """(a, i9, b, c), and the scale of each in the check and the polish of a
    row: the larger of its modulus and the power of its degree of the
    characteristic parameter size s of (a, b, c)."""
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    s = max(abs(a) ** (1 / 6), abs(b) ** (1 / 12), abs(c) ** (1 / 18), 1e-30)
    return (a, i9, b, c), tuple(max(abs(x), s ** d) for x, d in zip((a, i9, b, c), (6, 9, 12, 18)))


def _reproduces(row, inp: FormProblemInput) -> bool:
    """Whether a row (u, v, w) of Python complex numbers reproduces (a, b, c)
    on `concomitants.c_formulas`, each within RESIDUAL_TOL of its `_scales`."""
    got, (want, dens) = concomitants.c_formulas(*row), _scales(inp, 0j)
    return all(abs(got[k] - want[k]) <= RESIDUAL_TOL * dens[k] for k in (0, 2, 3))


def _matches_sign(row, i9: complex) -> bool:
    """Whether a row of Python complex numbers has the alternating invariant i9
    within RESIDUAL_TOL of |i9| or, if larger, the row's degree-9 scale."""
    threshold = RESIDUAL_TOL * max(abs(i9), max(map(abs, row)) ** 9, 1e-300)
    return abs(concomitants.c9_formula(*row) - i9) < threshold


def _jacobian(row) -> np.ndarray:
    """d(C6, C9, C12, C18) / d(u, v, w) at a row: 3 x^2 times the partials in
    X = x^3, with (X, Y, Z) a cyclic shift of the cubes, through psi, chi
    (d chi = psi - X) and lam (d lam = 216 Y Z); d C9 = (Y - Z)(2X - Y - Z)."""
    cubes = [x * (x * x) for x in row]
    psi, lam = sum(cubes), 216 * (cubes[0] * cubes[1] * cubes[2])
    psi2, psi3 = psi * psi, psi * psi * psi
    cols = []
    for x, cx, cy, cz in zip(row, cubes, cubes[1:] + cubes[:1], cubes[2:] + cubes[:2]):
        dlam = 216 * (cy * cz)
        partials = (12 * cx - 10 * psi, (cy - cz) * (2 * cx - cy - cz),
                    4 * psi3 + lam + psi * dlam,
                    6 * psi3 * psi2 - 7.5 * lam * psi2 - (2.5 * psi3 + 0.25 * lam) * dlam)
        cols.append([3 * (x * x) * d for d in partials])
    return np.array(cols).T


def _chain_row(br: PsiBranch, inp: FormProblemInput, i9: complex) -> tuple:
    """The row of a psi-branch: the principal cube roots of its cubic's roots,
    unclustered, in the order (0, 1, 2) or (0, 2, 1) whose C9 is nearer i9,
    then two Gauss-Newton steps on (C6, C9, C12, C18) - (a, i9, b, c) over
    their `_scales`.  Off the mirrors the Jacobian has full rank: C9 parts
    cubes that nearly meet (next to a mirror of B), C18 holds the rest."""
    x = [r ** (1 / 3) for r in solve_cubic_radicals(1.0, -br.psi, br.chi, -br.lam / 216)]
    c9 = concomitants.c9_formula(*x)
    if abs(c9 - i9) > abs(c9 + i9):
        x = [x[0], x[2], x[1]]
    target, dens = map(np.array, _scales(inp, i9))
    for _ in range(2):
        res = (np.array(concomitants.c_formulas(*x)) - target) / dens
        jac = _jacobian(x) / dens[:, None]
        if not (np.isfinite(res).all() and np.isfinite(jac).all()):
            break  # the row then fails `_reproduces`
        x = [xj - d for xj, d in zip(x, np.linalg.lstsq(jac, res, rcond=None)[0].tolist())]
    return tuple(x)


def enumerate_triples(branches, inp: FormProblemInput) -> SolutionSet:
    """One `_chain_row` per psi-branch for the sign datum of `_unit_invariants`,
    kept where it reproduces (a, b, c), the others counted in dropped."""
    i9, _ = _unit_invariants(inp)
    rows = [_chain_row(br, inp, i9) for br in branches]
    kept = [row for row in rows if _reproduces(row, inp)]
    return SolutionSet(triples=np.array(kept, dtype=complex).reshape(-1, 3),
                       raw_count=len(kept), dropped=len(rows) - len(kept))


def filter_sign(raw: SolutionSet, i9: complex) -> SolutionSet:
    """Keep the rows of raw.triples whose alternating invariant matches i9."""
    kept = [row for row in raw.triples.tolist() if _matches_sign(row, i9)]
    if not kept:
        raise _sign_mismatch(i9)
    return replace(raw, triples=np.array(kept, dtype=complex))


def _delta(a: complex, b: complex, c: complex) -> complex:
    """delta = a^3 - 3ab + 2c, which equals 432 * I9^2."""
    return a ** 3 - 3 * a * b + 2 * c


# --- the strata ---------------------------------------------------------------

MIRROR_TOL = 1e-9  # of the mirror test on |b^3 - c^2| / max(|b|^2, |c|) at unit size


# closed-form representatives of the degenerate strata, from the input's
# (a, b, c, i9), each inverting an identity of `c_formulas`
def _origin(a, b, c, i9):
    return 0j, 0j, 0j


def _hessian_vertex(a, b, c, i9):
    """(0, t, -t): C6 = 12 t^6 and C9 = -2 t^9, so t^3 = -6 i9 / a."""
    t = (-6 * i9 / a) ** (1 / 3)
    return 0j, t, -t


def _hessian_edge_center(a, b, c, i9):
    """(t, 0, 0): C6 = t^6."""
    return a ** (1 / 6), 0j, 0j


def _edge_point(a, b, c, i9):
    """(t, t, 0): C6 = -8 t^6, C12 = 16 t^12, C18 = 64 t^18 and C9 = 0."""
    t = (-a / 8) ** (1 / 6)
    return t, t, 0j


def _mirror_point(a, b, c, i9):
    """(0, v, w) on the mirror u = 0: with s = v^3 + w^3 and p = v^3 w^3,
    C6 = s^2 - 12 p, C12 = s^4, C18 = s^6 and C9 = p (v^3 - w^3).  So
    s^2 = c / b, and v^3 and w^3 are the roots of x^2 - s x + p, in the
    order whose p (v^3 - w^3) is nearer i9 (the other sign of s swaps them)."""
    s2 = c / b
    s, p = cmath.sqrt(s2), (s2 - a) / 12
    x, y = solve_quadratic(1, -s, p)
    if abs(p * (x - y) - i9) > abs(p * (y - x) - i9):
        x, y = y, x
    return 0j, x ** (1 / 3), y ** (1 / 3)


def _stratum(a: complex, b: complex, c: complex, i9: complex):
    """The case analysis on invariants at unit weighted size: the count of
    the solution set, with the closed form of a representative on a
    degenerate stratum (None for 648).  The point tests come first, each at
    RESIDUAL_TOL; then b^3 = c^2 puts the point on a mirror of K, with 216
    solutions, where |b^3 - c^2| is within RESIDUAL_TOL of max(|b|^3, |c|^2),
    as a residual of the chain, and within MIRROR_TOL of max(|b|^2, |c|),
    the scale of its change 3 b^2 db - 2 c dc under the rounding of b and c.
    The first bound is the tighter next to a Hessian vertex, where b and c
    are small, the second elsewhere; anything else is off the mirrors."""
    def small(*xs):
        return max(map(abs, xs)) <= RESIDUAL_TOL

    if small(a, b, c):
        return 1, _origin
    if small(b, c):
        return 27, _hessian_vertex
    if small(i9, b - a * a, c - a ** 3):
        return 72, _hessian_edge_center
    if small(i9, b - a * a / 4, c + a ** 3 / 8):
        return 216, _edge_point
    if abs(b ** 3 - c ** 2) <= min(RESIDUAL_TOL * max(abs(b) ** 3, abs(c) ** 2),
                                   MIRROR_TOL * max(abs(b) ** 2, abs(c))):
        return 216, _mirror_point
    return 648, None


def _closed_form_row(inp: FormProblemInput, i9: complex, form) -> np.ndarray:
    """A stratum's closed-form point as a (1, 3) row, checked as a chain row is."""
    row = form(complex(inp.a), complex(inp.b), complex(inp.c), i9)
    if not (_reproduces(row, inp) and _matches_sign(row, i9)):
        raise _sign_mismatch(i9)
    return np.array([row])


def solve(inp: FormProblemInput) -> SolutionSet:
    """The K-orbit of one checked, sign-correct point, of the size that
    `_stratum` decides, with i9 inferred from delta when absent.  The point
    is a degenerate stratum's closed form, or off the mirrors the polished
    row of the first psi-branch.  The set is `orbit(group_k(), triples[0])`
    bit for bit: what `trimoduli orbit --full` prints for the first triple
    of `solve --full`."""
    i9, unit = _unit_invariants(inp)
    count, form = _stratum(*unit)
    if form is None:
        one = filter_sign(enumerate_triples(solve_psi_system(inp)[:1], inp), i9)
    else:
        one = SolutionSet(triples=_closed_form_row(inp, i9, form), raw_count=1, dropped=0)
    group = reflection_group.group_k()
    # descend to the first image (`orbit`'s first) until it is t: stabilizer images may round below
    t, e = reflection_group.unit_size(one.triples[0])
    for _ in range(group.order):
        vals, key = reflection_group.image_keys(group, t)
        first = vals[group.rows[np.argmin(key)]]
        if np.array_equal(first, t):
            break
        t = first
    else:
        raise FormProblemError(f"the descent to a solved point's first image did not settle "
                               f"in {group.order} steps")
    pts = reflection_group.orbit(group, reflection_group.ldexp(t, e))
    if len(pts) != count:
        raise FormProblemError(f"the orbit of a solved point has {len(pts)} points, not {count}")
    # the two sign classes coincide where the point also matches -i9
    sign_classes = 1 if _matches_sign(one.triples[0].tolist(), -i9) else 2
    return replace(one, triples=pts, raw_count=count * sign_classes)


def _at_unit_scale(x: complex, s: float, degree: int) -> complex:
    """x / s**degree, divided step by step: s**degree alone leaves the float
    range at scales where x / s**degree does not."""
    for _ in range(degree):
        x /= s
    return x


def _d_discriminant(b: complex, c: complex) -> complex | None:
    """D = b^2 (b^3 - c^2)^4, of weighted degree 168, formed on b / 2^(12e)
    and c / 2^(18e), 2^e the power of two just above the weighted size of b
    and c, and multiplied back by 2^(168e): exact, so the direct formula's
    value wherever that stays in float range; None where a nonzero D leaves
    the range of normal floats, above or below."""
    s = max(abs(b) ** (1 / 12), abs(c) ** (1 / 18))
    if s == 0:
        return 0j
    e = math.frexp(s)[1]
    ub, uc = scalar_ldexp(b, -12 * e), scalar_ldexp(c, -18 * e)
    d = ub ** 2 * (ub ** 3 - uc ** 2) ** 4
    if d == 0:
        return d
    try:
        d = scalar_ldexp(d, 168 * e)
    except OverflowError:
        return None
    return d if max(abs(d.real), abs(d.imag)) >= sys.float_info.min else None


def _unit_invariants(inp: FormProblemInput) -> tuple[complex, tuple[complex, ...]]:
    """The sign datum i9 and (a, b, c, i9) divided by s^6, s^12, s^18, s^9,
    where s is the weighted size of (a, b, c); unchanged at the origin, where
    s = 0.  Without inp.i9, i9 is a root of delta = 432 * I9^2 (either sign
    class gives the same solutions up to the swap of v and w), 0 where
    |delta| is below 1e-10 of max(|a|^3, |b|^1.5, |c|)."""
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    i9, delta = inp.i9, _delta(a, b, c)
    if i9 is None:
        small = abs(delta) <= 1e-10 * max(abs(a) ** 3, abs(b) ** 1.5, abs(c), 1e-300)
        i9 = 0j if small else cmath.sqrt(delta / 432)
    i9 = complex(i9)
    s = max(abs(a) ** (1 / 6), abs(b) ** (1 / 12), abs(c) ** (1 / 18))
    if not s:
        return i9, (a, b, c, i9)
    return i9, (_at_unit_scale(a, s, 6), _at_unit_scale(b, s, 12),
                _at_unit_scale(c, s, 18), _at_unit_scale(i9, s, 9))


def classify(inp: FormProblemInput) -> OrbitClass:
    """Count and label the solution stratum by `_stratum`, without solving:
    the stabilizer of a point of the stratum has order 648 / count.  The
    sign datum is checked on a degenerate stratum's closed-form point, as in
    `solve`, and off the mirrors against delta = 432 * I9^2."""
    i9, (ua, ub, uc, ui9) = _unit_invariants(inp)
    count, form = _stratum(ua, ub, uc, ui9)
    if form is not None:
        _closed_form_row(inp, i9, form)
    else:
        root = cmath.sqrt(_delta(ua, ub, uc) / 432)
        if min(abs(root - ui9), abs(root + ui9)) > RESIDUAL_TOL * max(abs(ui9), 1.0):
            raise _sign_mismatch(i9)
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    return OrbitClass(count=count, polytope_label=POLYTOPE_LABELS[count],
                      stabilizer_label=reflection_group.STABILIZER_LABELS[648 // count],
                      stabilizer_order=648 // count, d_discriminant=_d_discriminant(b, c),
                      delta=_delta(a, b, c), i9_used=i9)


def emit_configuration(case: str, path):
    """Solve the canonical inputs of a polytope case: the points as a
    complex (n, 3) array, written to path as CSV rows of its floats."""
    if case not in CANONICAL_CASES:
        raise FormProblemError(
            f"unknown case {case!r}; choose from {sorted(CANONICAL_CASES)}")
    a, b, c, i9 = CANONICAL_CASES[case]
    sol = solve(FormProblemInput(a, b, c, i9))
    expected = next(n for n, label in POLYTOPE_LABELS.items() if label == case)
    if sol.filtered_count != expected:
        raise FormProblemError(
            f"{case}: got {sol.filtered_count} points, expected {expected}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_u", "im_u", "re_v", "im_v", "re_w", "im_w"])
        writer.writerows([f"{q:.17g}" for q in row] for row in sol.triples.view(float))
    return sol.triples
