"""The form problem: normal-form parameters from invariant values.

Given (a, b, c) = (I6, I12, I18) and optionally the alternating I9, the
parameters (u, v, w) are recovered by a radical chain: a quartic for
psi^2 = (u^3+v^3+w^3)^2, then one cubic per psi-branch whose roots are
{u^3, v^3, w^3}, then cube roots.  The candidates of the branches form one
complex (n, 3) array, checked on `concomitants.c_formulas`, merged, and
sign-filtered on `concomitants.c9_formula`.

The solutions are one orbit of the order-648 group K, the vertices of a
regular complex polytope: 648 points off the reflection mirrors of K, where
K acts freely, and 216, 72, 27 or 1 on them.  At unit weighted size a point
is off the mirrors exactly when b^3 != c^2.  There `solve` returns the
K-orbit of one checked, sign-correct row of the first branch, and `classify`
answers 648 without solving.  Elsewhere `solve` enumerates all branches
(up to 1296 candidates), and `classify` counts the solved set and verifies
its stabilizer on a sample triple.
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


# relative residual within which a psi-branch or a candidate triple
# reproduces the input invariants, and a kept triple's I9 the sign datum
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
    case_tree_prediction: int | None
    case_tree_agrees: bool


@dataclass
class SolutionSet:
    """Solutions of the form problem as the rows (u, v, w) of one complex
    (n, 3) array; after `filter_sign`, sorted by (Re u, Im u, ..., Im w).
    raw_count counts both sign classes, dropped the candidates that failed
    the check (of the first branch only, where `solve` takes an orbit), and
    filtered_count is the number of rows."""
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


def _root_scale(coeffs) -> float:
    """Characteristic root magnitude max_k |a_k/a_n|^(1/(n-k)); keeps the
    closed formulas inside floating-point range for badly scaled inputs."""
    lead = abs(complex(coeffs[0]))
    return max((abs(complex(c)) / lead) ** (1.0 / k) for k, c in enumerate(coeffs[1:], start=1))


def _rescaled(solver, coeffs) -> list[complex] | None:
    """Roots of a_n x^n + ... + a_0, a_n != 0, at root scale lam: all zero if
    lam = 0; None if 0.5 < lam < 2; else lam times solver's roots for the
    monic a_k / a_n / lam^k (0 where lam^k underflows, as |a_k / a_n| <= lam^k)."""
    lam = _root_scale(coeffs)
    if lam == 0.0:
        return [0j] * (len(coeffs) - 1)
    if 0.5 < lam < 2.0:
        return None
    lead = complex(coeffs[0])
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
    so not merged (rows two branches share merge in `enumerate_triples`)."""
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
        clustered = cluster_roots(solve_cubic_radicals(*coeffs), coeffs)
        cube_scale = max((abs(r) for r, _ in clustered), default=0.0)
        expanded = [r for r, m in clustered for _ in range(m)]
        for r in expanded:
            nonzero = abs(r) > 1e-9 * max(cube_scale, 1e-300)  # else one cube root, 0
            base = r ** (1.0 / 3.0) if nonzero else 0j
            table += (base, base * _OMEGA, base * _OMEGA ** 2)
            n_choices.append(3 if nonzero else 1)
        # repeated roots are identical floats after clustering, so exact
        # values dedup the orderings at any overall scale
        orders = [tuple(expanded[k] for k in perm) for perm in _ORDERINGS]
        fresh += (order not in orders[:i] for i, order in enumerate(orders))
    rows = (np.array(fresh, dtype=bool).reshape(-1, 6)[:, _PICK_ORDERING]
            & (_PICK_CHOICE < np.array(n_choices).reshape(-1, 3)[:, _PICK_ROOT]).all(axis=2))
    branch, pick = np.nonzero(rows)
    return np.array(table, dtype=complex).reshape(-1, 9)[branch[:, None], _PICKS[pick]]


def enumerate_triples(branches, inp: FormProblemInput) -> SolutionSet:
    """All (u, v, w) from the branch cubics: orderings of {u^3, v^3, w^3}
    times all cube-root choices, each candidate verified to reproduce
    (a, b, c), close candidates merged.  The rows are not sorted;
    `filter_sign` sorts the ones it keeps."""
    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    # characteristic parameter size; relative errors are judged against it
    s = max(abs(a) ** (1 / 6), abs(b) ** (1 / 12), abs(c) ** (1 / 18), 1e-30)
    den6, den12, den18 = max(abs(a), s ** 6), max(abs(b), s ** 12), max(abs(c), s ** 18)
    cands = _candidates(branches)
    c6, _, c12, c18 = concomitants.c_formulas(*cands.T)
    ok = ((np.abs(c6 - a) <= RESIDUAL_TOL * den6)
          & (np.abs(c12 - b) <= RESIDUAL_TOL * den12)
          & (np.abs(c18 - c) <= RESIDUAL_TOL * den18))
    triples = _merge_close(cands[ok])
    return SolutionSet(triples=triples, raw_count=len(triples),
                       dropped=int(np.count_nonzero(~ok)))


def _merge_close(pts: np.ndarray) -> np.ndarray:
    """Merge the rows of pts closer than 1e-8 times the diameter of the
    set into their mean, summed in member order; the clusters in the order
    of their first members.  Without a close pair pts comes back as it is."""
    if len(pts) < 2:
        return pts
    flat = np.column_stack([pts.real, pts.imag])
    # ranges over a contiguous transpose: axis 0 of (n, 6) reduces ~6x slower
    diameter = float(np.linalg.norm(np.ptp(flat.T.copy(), axis=1)))
    labels = reflection_group.cluster_points(flat, 1e-8 * max(diameter, 1e-12))
    if np.array_equal(labels, np.arange(len(pts))):
        return pts
    _, group = np.unique(labels, return_inverse=True)
    counts = np.bincount(group)
    sums = np.zeros((len(counts), 3), dtype=complex)
    np.add.at(sums, group, pts)
    return sums / counts[:, None]


def filter_sign(raw: SolutionSet, i9: complex) -> SolutionSet:
    """Keep the rows of raw.triples whose alternating invariant matches i9,
    in `reflection_group.sort_rows` order.

    The comparison threshold is RESIDUAL_TOL times the natural degree-9 scale
    of the solution set (with |i9| as a lower bound), so the two sign classes
    stay separated whatever the overall normalization of the input."""
    pts = raw.triples
    pt_scale = float(np.abs(pts).max(initial=0.0))
    threshold = RESIDUAL_TOL * max(abs(i9), pt_scale ** 9, 1e-300)
    kept = pts[np.abs(concomitants.c9_formula(*pts.T) - i9) < threshold]
    if not len(kept):
        raise _sign_mismatch(i9)
    return replace(raw, triples=reflection_group.sort_rows(kept))


def _delta(a: complex, b: complex, c: complex) -> complex:
    """delta = a^3 - 3ab + 2c, which equals 432 * I9^2."""
    return a ** 3 - 3 * a * b + 2 * c


def solve(inp: FormProblemInput) -> SolutionSet:
    """The radical chain with the sign filter, i9 inferred from delta when
    absent.  Off the mirrors, where the first branch keeps a checked row of
    the sign, the solutions are the free K-orbit of that row: `orbit(group_k(),
    triples[0])` bit for bit.  Elsewhere all branches are enumerated."""
    branches = solve_psi_system(inp)
    i9, (_, ub, uc, _) = _unit_invariants(inp)
    one = None
    if _off_mirrors(ub, uc):
        try:
            one = filter_sign(enumerate_triples(branches[:1], inp), i9)
        except FormProblemError:  # near a mirror of B, clustered roots may leave none
            pass
    if one is None:
        return filter_sign(enumerate_triples(branches, inp), i9)
    group = reflection_group.group_k()
    # the row's image first in `sort_rows` order: its computed orbit starts with it
    u = (group.matrices[:, 0] @ one.triples[0]).real
    head = reflection_group.sort_rows(group.matrices[u == u.min()] @ one.triples[0])[0]
    pts = reflection_group.orbit(group, head)
    if len(pts) != group.order:
        raise FormProblemError(f"the orbit of a solved row has {len(pts)} points, not 648")
    # both sign classes, as many per sign-correct row as on the first branch
    return replace(one, triples=pts, raw_count=len(pts) * one.raw_count // one.filtered_count)


def _at_unit_scale(x: complex, s: float, degree: int) -> complex:
    """x / s**degree, divided step by step: s**degree alone leaves the float
    range at scales where x / s**degree does not."""
    for _ in range(degree):
        x /= s
    return x


def _d_discriminant(b: complex, c: complex) -> complex | None:
    """D = b^2 (b^3 - c^2)^4, of weighted degree 168, formed on b / 2^(12e)
    and c / 2^(18e), where 2^e is the power of two just above the weighted
    size of b and c, and multiplied back by 2^(168e).  Scaling by powers of
    two is exact, so D is the direct formula's value wherever that stays in
    float range; None where a nonzero D leaves the range of normal floats,
    above or below."""
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


def _off_mirrors(b: complex, c: complex) -> bool:
    """Whether b^3 - c^2, at unit weighted size, is clearly non-zero: the
    point lies off every mirror of K, away from the 27-point stratum and
    the origin (where b and c both vanish)."""
    return (max(abs(b), abs(c)) > RESIDUAL_TOL
            and abs(b ** 3 - c ** 2) > RESIDUAL_TOL * max(abs(b) ** 3, abs(c) ** 2))


def _case_tree_prediction(a: complex, b: complex, c: complex, i9: complex) -> int | None:
    """The printed case analysis on invariants at unit weighted size, where
    its fixed 1e-9 tests are meaningful at any input scale."""
    def near(x, y):
        return abs(x - y) <= 1e-9

    if _off_mirrors(b, c):
        return 648
    if near(b, 0):
        if not near(c, 0):
            return 648
        return 27 if not near(a, 0) else 1
    # b^3 = c^2 with b != 0
    if not near(i9, 0):
        return 216
    if near(b, a * a / 4) and near(c, -a ** 3 / 8):
        return 216
    if near(b, a * a) and near(c, a ** 3):
        return 72
    return None


def classify(inp: FormProblemInput, sol: SolutionSet | None = None) -> OrbitClass:
    """Count and label the solution stratum.  Off the mirrors (b^3 != c^2 at
    unit weighted size) the count is 648 and the stabilizer trivial, with
    only the sign datum checked against delta = 432 * I9^2; elsewhere, and
    whenever the caller passes `sol` = `solve(inp)`, the count is that of
    the solution set and the stabilizer is verified on a sample triple.
    The printed case tree is recorded beside the count."""
    i9, (ua, ub, uc, ui9) = _unit_invariants(inp)
    if sol is None and _off_mirrors(ub, uc):
        # the sign filter's test without the rows: i9 is a root of 432 x^2 = delta
        root = cmath.sqrt(_delta(ua, ub, uc) / 432)
        if min(abs(root - ui9), abs(root + ui9)) > RESIDUAL_TOL * max(abs(ui9), 1.0):
            raise _sign_mismatch(i9)
        count, stab_order = 648, 1
        label = reflection_group.STABILIZER_LABELS[1]
    else:
        if sol is None:
            sol = solve(FormProblemInput(inp.a, inp.b, inp.c, i9))
        count = sol.filtered_count
        if count not in POLYTOPE_LABELS:
            raise FormProblemError(
                f"enumerated count {count} is outside the admissible strata")
        group = reflection_group.group_k()
        expected_order = 648 // count
        stab = group if count == 1 else reflection_group.stabilizer(group, sol.triples[0], tol=1e-6)
        label, stab_order = reflection_group.stabilizer_type(stab), stab.order
        if stab_order != expected_order:
            raise FormProblemError(
                f"stabilizer order {stab_order} does not match 648/count={expected_order}")

    a, b, c = complex(inp.a), complex(inp.b), complex(inp.c)
    prediction = _case_tree_prediction(ua, ub, uc, ui9)
    return OrbitClass(
        count=count,
        polytope_label=POLYTOPE_LABELS[count],
        stabilizer_label=label,
        stabilizer_order=stab_order,
        d_discriminant=_d_discriminant(b, c),
        delta=_delta(a, b, c),
        i9_used=i9,
        case_tree_prediction=prediction,
        case_tree_agrees=(prediction == count) if prediction is not None else False,
    )


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

    # certify the points form a single orbit of the symmetry group
    group = reflection_group.group_k()
    orbit_pts = reflection_group.orbit(group, sol.triples[0])
    if len(orbit_pts) != expected:
        raise FormProblemError(f"{case}: sample point orbit has {len(orbit_pts)} points")
    dist = set_distance(orbit_pts, sol.triples)
    pt_scale = float(np.abs(sol.triples).max())
    if dist > 1e-6 * max(pt_scale, 1e-300):
        raise FormProblemError(f"{case}: solved points do not match the group orbit")

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_u", "im_u", "re_v", "im_v", "re_w", "im_w"])
        writer.writerows([f"{q:.17g}" for q in row] for row in sol.triples.view(float))
    return sol.triples


def set_distance(points_a, points_b) -> float:
    """Two-sided max point-to-set distance between triple sets in C^3, by
    brute force over all pairs (the sets hold at most 648 points)."""
    fa = np.array(points_a, dtype=complex).reshape(-1, 3)
    fb = np.array(points_b, dtype=complex).reshape(-1, 3)
    dist = np.linalg.norm(fa[:, None, :] - fb[None, :, :], axis=2)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
