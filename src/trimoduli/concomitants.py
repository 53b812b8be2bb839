"""Concomitants, fundamental invariants and the ternary-cubic invariants.

On the runtime path the invariants of a state are numpy sums over its 3x3x3
array A: I6 and I9 over the 84 3x3 minors of A.reshape(3, 9), from tables
built once (`dense_raws`); I12 from the Aronhold S of its slice tensor, one
bracket of mixed adjugates; I18 from I6, I9, I12; and Delta from S and
T = -I18 / 5832.  `aronhold` runs the brackets on any ternary cubic `Form`,
exactly on exact tensors.  The concomitants are transvectants of the ground
form f (`trilinear_form`) with the pairing forms P_alpha = sum xi_i x_i,
P_beta = sum eta_j y_j and P_gamma = sum zeta_k z_k (`bundle_from_form`),
exact on integer object arrays; the degree-6/9/12 invariants are full
contractions of them (`invariant_raws`), from which `calibration` derives
the pinned constants against the closed normal-form formulas.  They also
serve the twelve syzygies, evaluated at a random point, and the tests.

The closed invariants C6, C9, C12, C18 of the normal form are written once,
in `c_formulas` (C9 alone in `c9_formula`), for every scalar type; the form
problem and `verify_vinberg` evaluate it on numbers, `c_polynomials` and
`verify_invariance` on the exact `poly_engine.Poly` in x1, x2, x3.

This module also owns the one rule that decides when an invariant vanishes:
|I_d| at most NULL_CONE_ULPS eps times its forward error bound
(`invariant_bounds`).  The null cone is where I6, I9 and I12 all vanish
(Hilbert-Mumford).  `leading_degree` decides it once per state, and its
answer is carried along: `projective_point` takes it, and the trace of
`slocc_normalize.normalize_slocc` keeps the one made there.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .poly_engine import (
    GROUPS,
    LEVI_CIVITA,
    PERMS3,
    Form,
    Poly,
    transvectant,
)
from .qutrit_state import (
    State,
    mixed_adjugate,
    normal_form_amplitudes,
    slice_tensor,
    trilinear_form,
)

_PAIRS = {"alpha": ("x", "xi"), "beta": ("y", "eta"), "gamma": ("z", "zeta")}


class CalibrationError(RuntimeError):
    """A fitted constant failed to be constant across calibration inputs."""


class InvariantSet(NamedTuple):
    """Values of the fundamental invariants of one state."""

    i6: complex
    i9: complex
    i12: complex
    i18: complex
    delta: complex


# the degree of each field of an InvariantSet in the amplitudes
INVARIANT_DEGREES = (6, 9, 12, 18, 36)


class AronholdPair(NamedTuple):
    """Degree-4 and degree-6 invariants of a ternary cubic."""

    s: complex
    t: complex


class CValues(NamedTuple):
    """Closed-form invariant values of the normal form with parameters (u,v,w)."""

    c6: complex
    c9: complex
    c12: complex
    c18: complex


def pairing_form(name: str) -> Form:
    """P_alpha / P_beta / P_gamma: the pairing of a covariant group with its
    dual, the identity matrix.  Its int64 entries become Python ints in an
    object array and complex(1, 0) in a complex one, so either keeps its bits."""
    return Form(np.eye(3, dtype=np.int64), _PAIRS[name])


def bundle_from_form(a) -> dict:
    """All concomitants of the trilinear form of a 3x3x3 array, from their
    transvectant recipes, by the names that SYZYGY_NAMES uses."""
    f_ = trilinear_form(a)
    pa_, pb_, pg_ = (pairing_form(n) for n in ("alpha", "beta", "gamma"))
    qa = transvectant(f_, f_, pb_ * pg_, upper=(0, 1, 1))
    qb = transvectant(f_, f_, pa_ * pg_, upper=(1, 0, 1))
    qg = transvectant(f_, f_, pa_ * pb_, upper=(1, 1, 0))
    quarter = Fraction(1, 4)
    t38, t516 = Fraction(-3, 8), Fraction(5, 16)
    return {
        "f": f_, "p_alpha": pa_, "p_beta": pb_, "p_gamma": pg_,
        "q_alpha": qa, "q_beta": qb, "q_gamma": qg,
        "b_alpha": transvectant(f_, f_, f_, upper=(0, 1, 1)),
        "b_beta": transvectant(f_, f_, f_, upper=(1, 0, 1)),
        "b_gamma": transvectant(f_, f_, f_, upper=(1, 1, 0)),
        "c_alpha_beta": transvectant(f_, f_, f_ * pb_, upper=(1, 1, 0)) * quarter,
        "c_beta_alpha": transvectant(f_, f_, f_ * pa_, upper=(1, 1, 0)) * quarter,
        "c_alpha_gamma": transvectant(f_, f_, f_ * pg_, upper=(1, 0, 1)) * quarter,
        "c_gamma_alpha": transvectant(f_, f_, f_ * pa_, upper=(1, 0, 1)) * quarter,
        "c_beta_gamma": transvectant(f_, f_, f_ * pg_, upper=(0, 1, 1)) * quarter,
        "c_gamma_beta": transvectant(f_, f_, f_ * pb_, upper=(0, 1, 1)) * quarter,
        "d_alpha": transvectant(f_ * pb_, f_ * pg_, f_, upper=(1, 1, 1)) * -2,
        "d_beta": transvectant(f_ * pa_, f_ * pg_, f_, upper=(1, 1, 1)) * 2,
        "d_gamma": transvectant(f_ * pa_, f_ * pb_, f_, upper=(1, 1, 1)) * -2,
        "e_alpha": transvectant(qa, f_, pa_, upper=(1, 0, 0)),
        "e_beta": transvectant(qb, f_, pb_, upper=(0, 1, 0)),
        "e_gamma": transvectant(qg, f_, pg_, upper=(0, 0, 1)),
        "g_alpha": (transvectant(f_ * pb_, f_ * pg_, f_, upper=(0, 1, 1)) * t38
                    + transvectant(f_ * pb_ * pg_, f_, f_, upper=(0, 1, 1)) * t516),
        "g_beta": (transvectant(f_ * pa_, f_ * pg_, f_, upper=(1, 0, 1)) * t38
                   + transvectant(f_ * pa_ * pg_, f_, f_, upper=(1, 0, 1)) * t516),
        "g_gamma": (transvectant(f_ * pa_, f_ * pb_, f_, upper=(1, 1, 0)) * t38
                    + transvectant(f_ * pa_ * pb_, f_, f_, upper=(1, 1, 0)) * t516),
        "h": transvectant(f_ * pa_, f_ * pb_, f_ * pg_, upper=(1, 1, 1)) * Fraction(1, 2),
    }


# --- raw (uncalibrated) invariant contractions -----------------------------

def invariant_raws(a) -> dict:
    """The three fundamental full contractions of a 3x3x3 array, before
    normalization, on its concomitants: Python ints on an object array of
    ints, complex on a complex array."""
    c = bundle_from_form(a)
    qa, baf = c["q_alpha"], c["b_alpha"] * c["f"]
    return {
        "i6": transvectant(qa, qa, qa, upper=(2, 0, 0), lower=(0, 1, 1)).tensor.item(),
        "i9": transvectant(c["e_alpha"], c["e_beta"], c["e_beta"],
                           upper=(1, 1, 1), lower=(1, 1, 1)).tensor.item(),
        "i12": transvectant(baf, baf, baf, upper=(4, 1, 1)).tensor.item(),
    }


# --- dense invariant contractions (the runtime path) -----------------------

# raw `dense_raws` -> calibrated invariant, pinned exactly by the tests
I6_DENSE_SCALE = Fraction(-1, 6)
I9_DENSE_SCALE = Fraction(-1, 72)
# I12 = -6^4 S and T = -I18 / 5832 for the Aronhold S and T of any slice cubic
I12_FROM_S = -1296
T_FROM_I18 = Fraction(-1, 5832)
# the Aronhold scales, the discriminant scale and the I18 combination as
# pinned literals, so no runtime call derives them; the tests re-derive each
# one exactly with calibration()
ARONHOLD_S_SCALE = Fraction(-1, 24)
ARONHOLD_T_SCALE = Fraction(-1, 216)
DELTA_SCALE = Fraction(-19683)
I18_COEFF_I6_CUBED = Fraction(-1, 2)
I18_COEFF_I6_I12 = Fraction(3, 2)
I18_COEFF_I9_SQ = Fraction(216)
# each bracket of four K tensors carries the factor 6^4 of the symmetric tensors
_BRACKET_SCALE = Fraction(1, 1296)
_I18_COEFFS = (I18_COEFF_I6_CUBED, I18_COEFF_I6_I12, I18_COEFF_I9_SQ)
# the same constants as floats, converted once, for the complex path of `invariants`
_BRACKET_F, _S_F, _I6_F, _I9_F, _T_F, _DELTA_F, *_I18_COEFFS_F = map(float, (
    _BRACKET_SCALE, ARONHOLD_S_SCALE, I6_DENSE_SCALE, I9_DENSE_SCALE, T_FROM_I18, DELTA_SCALE,
    *_I18_COEFFS))


# the copies of the array whose legs each eps symbol of I6 and I9 joins:
# party 2 (legs b) in the first half, party 3 (legs c) in the second; copies
# 3m, 3m + 1, 3m + 2 make copy m of T
_JOINS = (((0, 1, 3), (2, 4, 5), (0, 3, 5), (1, 2, 4)),
          ((0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 3, 7), (1, 4, 8), (2, 5, 6)))


@lru_cache(maxsize=None)
def _minor_tables(symbol_bytes: bytes) -> tuple:
    """Gather and coefficient tables of `dense_raws` for the int64 symbol
    with these bytes, alternating or symmetric in its legs."""
    e = np.frombuffer(symbol_bytes, dtype=np.int64).reshape(3, 3, 3)
    alternating = np.array_equal(e, -e.transpose(1, 0, 2))
    if not (alternating or np.array_equal(e, e.transpose(1, 0, 2))) or \
            not np.array_equal(e, e.transpose(1, 2, 0)):
        raise ValueError("the symbol is neither alternating nor symmetric")
    # T at columns j = (j0, j1, j2), flat 81 j0 + 9 j1 + j2, is the coordinate
    # of the sorted columns, times the sign of the sort if e alternates (0
    # where a column repeats); the coordinates keep the flat sorted columns
    j = np.indices((9,) * 3).reshape(3, 729)
    sign = np.where(alternating, np.sign((j[1] - j[0]) * (j[2] - j[0]) * (j[2] - j[1])), 1)
    coord = np.zeros(729, np.int64)
    keys, coord[sign != 0] = np.unique(((81, 9, 1) @ np.sort(j, axis=0))[sign != 0],
                                       return_inverse=True)
    support, values = np.argwhere(e), e[e != 0]
    tables = [support.T[:, :, None] * 9 + keys // np.array([81, 9, 1])[:, None, None] % 9, values]
    for joins in _JOINS:
        # one monomial per choice of an entry of the support for each symbol:
        # the flat columns of each copy of T, and the product of the entries
        cols, signs = np.zeros((len(joins) // 2, 1), np.int64), np.ones(1, np.int64)
        for s, copies in enumerate(joins):
            weights = np.zeros((3, len(cols)), np.int64)
            for leg, n in enumerate(copies):
                weights[leg, n // 3] = 9 ** (2 - n % 3) * 3 ** (2 * s < len(joins))
            cols = (cols[:, :, None] + (support @ weights).T[:, None, :]).reshape(len(cols), -1)
            signs = np.outer(signs, values).ravel()
        # like monomials summed under one 1-D key of their sorted coordinates
        live = signs * sign[cols].prod(axis=0)
        shape = (len(keys),) * len(cols)
        terms, inverse = np.unique(np.ravel_multi_index(
            np.sort(coord[cols[:, live != 0]], axis=0), shape), return_inverse=True)
        coeff = np.bincount(inverse, live[live != 0]).astype(np.int64)
        tables += [np.stack(np.unravel_index(terms[coeff != 0], shape)), coeff[coeff != 0]]
    return tuple(tables)


def dense_raws(a, symbol=LEVI_CIVITA) -> tuple:
    """Raw I6 and I9 of a 3x3x3 array A as sums over the 84 3x3 minors of
    M = A.reshape(3, 9), column 3b + c being A[:, b, c].  Both contract copies
    of T[b0 b1 b2 c0 c1 c2] = eps_{a0a1a2} A[a0,b0,c0] A[a1,b1,c1] A[a2,b2,c2]
    (`_JOINS`), the minor of columns 3 b_n + c_n (Weyl's first fundamental
    theorem): their 1,296 and 46,656 monomials in T group to 84 products of
    two minors and 384 of three, with coefficients +-6, +-12, +-18.  `symbol`
    stands in for eps; with |eps| the 165 coordinates of the symmetric T may
    repeat a column (147 and 3,434 positive terms).  Integer arrays give numpy
    integers, object arrays stay exact, and sums beyond the float range are
    inf or nan; the callers silence numpy's warnings for them."""
    support, values, pairs, c6, triples, c9 = _minor_tables(np.asarray(symbol, np.int64).tobytes())
    g = np.reshape(a, 27).take(support)
    d = values @ (g[0] * g[1] * g[2])
    (x, y), (u, v, w) = d.take(pairs), d.take(triples)
    return (c6 * x) @ y, (c9 * u * v) @ w


# --- closed normal-form formulas -------------------------------------------

def _cube_powers(x):
    """x^3, x^6, x^9, x^12 by the products of Python's complex ** k (square
    and multiply), so that a complex scalar keeps the bits of x ** k."""
    x2 = x * x
    x4 = x2 * x2
    x8 = x4 * x4
    return x * x2, x2 * x4, x * x8, x4 * x8


def is_exact(values) -> bool:
    """True when none of the values is a float, a complex or a numpy array,
    so that they are computed on exactly (ints, Fractions, `Poly`)."""
    return not any(isinstance(x, (complex, float, np.ndarray)) for x in values)


def c9_formula(u, v, w):
    """C9 alone, for the sign filter; `c_formulas` takes its C9 from here."""
    u3, v3, w3 = u * (u * u), v * (v * v), w * (w * w)
    return (u3 - v3) * (u3 - w3) * (v3 - w3)


def c_formulas(u, v, w) -> CValues:
    """C6, C9, C12, C18 of the normal form with parameters (u, v, w), the
    only implementation, for Python complex, int, Fraction, Poly (with
    coefficients of any exact ring, such as `Eisenstein` pairs) and complex
    numpy arrays (one triple per entry) alike.  C6 and C12 are
    monomial sums, not psi^2 - 12 chi and psi^4 + lam psi: those cancel
    exactly on multiples of (0, 1, -1), where the invariants of a state
    carry rounding noise.  Complex scalars get the bits of the sums taken
    term by term in the order written."""
    (u3, u6, u9, u12), (v3, v6, v9, v12), (w3, w6, w9, w12) = map(_cube_powers, (u, v, w))
    psi = u3 + v3 + w3
    psi2 = psi * psi
    psi3, psi6 = psi * psi2, psi2 * (psi2 * psi2)
    phi = u * v * w
    lam = 216 * (phi * (phi * phi))
    # 5/2 and 1/8 are exact as floats; Fractions keep exact inputs exact
    half = Fraction(1, 2) if is_exact((u, v, w)) else 0.5
    c6 = w6 + v6 + u6 - 10 * (u3 * v3 + u3 * w3 + v3 * w3)
    c12 = (u12 + w12 + v12
           + 4 * (v9 * w3 + u3 * v9 + u9 * w3 + u3 * w9 + u9 * v3 + v3 * w9)
           + 6 * (u6 * v6 + v6 * w6 + u6 * w6)
           + 228 * (u3 * v3 * w6 + u6 * v3 * w3 + u3 * v6 * w3))
    c18 = psi6 - 5 * half * lam * psi3 - half ** 3 * (lam * lam)
    return CValues(c6, c9_formula(u, v, w), c12, c18)


def c12_prime(u, v, w):
    """Product of the twelve linear forms u v w (eps^a u + eps^b v + w), in
    closed form: the nine forms eps^a u + eps^b v + w multiply to
    psi^3 - 27 phi^3, with psi = u^3 + v^3 + w^3 and phi = u v w, so the
    product is phi psi^3 - 27 phi^4."""
    phi = u * v * w
    psi = u * u * u + v * v * v + w * w * w
    return phi * (psi * psi * psi) - 27 * (phi * phi) * (phi * phi)


@lru_cache(maxsize=None)
def c_polynomials():
    """C6, C9, C12 as exact polynomials in (u, v, w): `c_formulas` on the
    variables x1, x2, x3 of `Poly`."""
    c6, c9, c12, _ = c_formulas(*(Poly.variable(i) for i in (1, 2, 3)))
    return c6, c9, c12


# --- Aronhold invariants of a ternary cubic ---------------------------------

def bracket(t1, t2, t3, t4, symbol=LEVI_CIVITA):
    """The bracket monomial (123)(124)(134)(234) of four 3x3x3 tensors,
    eps_abc eps_def eps_ghi eps_jkl t1[a,d,g] t2[b,e,j] t3[c,h,k] t4[f,i,l]
    with `symbol` for eps, as two pairs of brackets (Sturmfels, *Algorithms in
    Invariant Theory*, 1993, ch. 3): the trace of M N for the mixed adjugates
    M of (t1, t2) and N of (t3, t4).  t3 and t4 must be symmetric."""
    m = mixed_adjugate(t1, t2, symbol)
    n = m if t3 is t1 and t4 is t2 else mixed_adjugate(t3, t4, symbol)
    return m.ravel() @ n.T.ravel()


def aronhold_raws(k) -> tuple:
    """Raw Aronhold S and T of the cubic with K tensor k, before the pinned
    scales.  The Hessian matrix d^2F/dx_a dx_b is sum_c K[a,b,c] x_c, so
    `slice_tensor(k)` is the K tensor of the Hessian cubic."""
    return (bracket(k, k, k, k) * _BRACKET_SCALE,
            bracket(k, k, k, slice_tensor(k)) * _BRACKET_SCALE)


def aronhold(cubic: Form) -> AronholdPair:
    """Aronhold S and T of a ternary cubic given as a one-group `Form`: the
    sum of the six axis transposes of any tensor that represents it is its K
    tensor, six times the symmetric one.  Exact on exact object tensors."""
    if len(cubic.groups) != 3 or len(set(cubic.groups)) != 1:
        raise ValueError(f"not a ternary cubic: a form over {cubic.groups}")
    k = sum(cubic.tensor.transpose(sigma) for sigma, _ in PERMS3)
    s_raw, t_raw = aronhold_raws(k)
    return AronholdPair(s_raw * ARONHOLD_S_SCALE, t_raw * ARONHOLD_T_SCALE)


def discriminant_delta(s_val, t_val):
    """The degree-36 discriminant invariant from a cubic's (S, T), exact on exact ones."""
    scale = DELTA_SCALE if is_exact((s_val, t_val)) else _DELTA_F
    return scale * (64 * s_val ** 3 + t_val ** 2)


# --- calibrated invariants ---------------------------------------------------

def invariants(s: State) -> InvariantSet:
    """Fundamental invariants (I6, I9, I12), the derived I18 and the discriminant
    Delta of a state as Python complex numbers, by the runtime path of the module
    docstring in a fixed order; inf or nan, with no warning, beyond the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        (raw6, raw9), k = dense_raws(s.amplitudes), slice_tensor(s.amplitudes)
        s_val = complex(bracket(k, k, k, k)) * _BRACKET_F * _S_F
    i6, i9 = complex(raw6) * _I6_F, complex(raw9) * _I9_F
    i12 = I12_FROM_S * s_val
    i18 = i18_from_fundamentals(i6, i9, i12)
    return InvariantSet(i6, i9, i12, i18, discriminant_delta(s_val, _T_F * i18))


def invariant_bounds(a) -> tuple:
    """Forward error bounds of the I6, I9, I12 that `invariants` computes
    from a: the same sums on |A| with |eps| (permanents for the minors) and
    positive coefficients, each at least the sum of the moduli of the terms
    `invariants` adds, so each rounding error is a modest multiple of eps
    times it (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3)."""
    a, e = np.abs(a), np.abs(LEVI_CIVITA)
    with np.errstate(over="ignore", invalid="ignore"):
        (raw6, raw9), k = dense_raws(a, e), slice_tensor(a, e)
        return (raw6 * abs(I6_DENSE_SCALE), raw9 * abs(I9_DENSE_SCALE),
                bracket(k, k, k, k, e) * abs(I12_FROM_S * ARONHOLD_S_SCALE / 1296))


def i18_from_fundamentals(i6, i9, i12):
    """I18 as the unique weighted-degree-18 combination of the fundamentals
    matching the normal-form equation system, exact on exact values."""
    p, q, r = _I18_COEFFS if is_exact((i6, i9, i12)) else _I18_COEFFS_F
    return p * i6 ** 3 + q * i6 * i12 + r * i9 ** 2


# I_d vanishes when |I_d| is at most this many eps times its forward error
# bound: rounding alone can leave that much of an exact zero (`leading_degree`)
NULL_CONE_ULPS = 64


def invariant_margins(a: np.ndarray, inv: InvariantSet) -> tuple:
    """|I_d| / (eps * bound_d) for d = 6, 9, 12, with bound_d from
    `invariant_bounds` of the amplitude array a: I_d vanishes when its
    margin is at most NULL_CONE_ULPS, and 0 / 0 (nan) vanishes too.  `inv`
    holds the invariants of a."""
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(float(np.float64(abs(value)) / (eps * np.float64(bound)))
                     for value, bound in zip(inv[:3], invariant_bounds(a)))


@lru_cache(maxsize=None)
def _all_ones_bound6() -> float:
    """bound_6 of the all-ones array.  A bound is a sum of monomials with
    non-negative coefficients, so bound_6(a) <= this * max|a|**6."""
    return float(invariant_bounds(np.ones((3, 3, 3)))[0])


def leading_degree(a: np.ndarray, inv: InvariantSet) -> int | None:
    """Degree of the first of I6, I9, I12 that does not vanish, or None when
    all three vanish: the null cone, the zero state included.  `inv` holds
    the invariants of the amplitude array a, and an invariant vanishes when
    its margin (`invariant_margins`) is at most NULL_CONE_ULPS.  bound_6 is
    at most the all-ones bound times max|a|**6, so an I6 above twice that (a
    factor no rounding in either undercuts) does not vanish, and the bounds
    are not computed: the common case, off the I6 = 0 hypersurface."""
    with np.errstate(over="ignore", under="ignore"):
        top6 = np.max(np.abs(a)) ** 6
    if abs(inv.i6) > 2 * NULL_CONE_ULPS * np.finfo(float).eps * _all_ones_bound6() * top6:
        return 6
    return next((degree for degree, margin in zip(INVARIANT_DEGREES, invariant_margins(a, inv))
                 if margin > NULL_CONE_ULPS), None)


def projective_point(inv: InvariantSet, degree: int | None):
    """Weighted projective coordinates (I6 : I9 : I12) of invariants `inv`,
    canonicalized so the invariant of the leading degree `degree` (from
    `leading_degree`) equals 1 and the residual root-of-unity ambiguity is
    fixed deterministically.  A degree of None (the null cone) raises ValueError."""
    def lex_max(candidates):
        return max(candidates, key=lambda c: (round(c.real, 12), round(c.imag, 12)))

    if degree == 6:
        i9n = inv.i9 * inv.i6 ** (-1.5)  # t**9 for t = i6**(-1/6)
        i9n = lex_max([i9n, -i9n])  # remaining sixth-root ambiguity is a sign
        return (1.0 + 0.0j, i9n, inv.i12 * inv.i6 ** (-2.0))  # t**12
    if degree == 9:
        i12n = inv.i12 * inv.i9 ** (-12.0 / 9.0)
        cube = cmath.exp(2j * cmath.pi / 3)
        i12n = lex_max([i12n, i12n * cube, i12n * cube ** 2])
        return (0.0 + 0.0j, 1.0 + 0.0j, i12n)
    if degree == 12:
        return (0.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j)
    raise ValueError("state is not semi-stable: all fundamental invariants vanish")


# --- syzygies ----------------------------------------------------------------

# the twelve syzygies among the concomitants, each a sum of terms that
# vanishes identically; `syzygy_terms` reads the terms from these names
SYZYGY_NAMES = (
    "h + e_alpha - e_gamma + d_beta*p_beta",
    "h + e_beta - e_alpha + d_gamma*p_gamma",
    "h + e_gamma - e_beta + d_alpha*p_alpha",
    "3*c_alpha_beta - b_gamma*p_beta",
    "3*c_beta_alpha - b_gamma*p_alpha",
    "3*c_alpha_gamma - b_beta*p_gamma",
    "3*c_gamma_alpha - b_beta*p_alpha",
    "3*c_beta_gamma - b_alpha*p_gamma",
    "3*c_gamma_beta - b_alpha*p_beta",
    "6*g_alpha - 3*q_alpha*f + b_alpha*p_beta*p_gamma",
    "6*g_beta - 3*q_beta*f + b_beta*p_alpha*p_gamma",
    "6*g_gamma - 3*q_gamma*f + b_gamma*p_alpha*p_beta",
)


def syzygy_terms(values: dict, name: str) -> list:
    """The terms of one syzygy of SYZYGY_NAMES, each read from the name as a
    sign, an integer coefficient and the factors multiplied left to right.
    `values` maps each concomitant name to its value at a point, or to its
    `Form`, which gives the terms as forms."""
    parts = []
    for term in name.replace(" - ", " + -").split(" + "):
        factors = term.lstrip("-").split("*")
        coeff = int(factors.pop(0)) if factors[0].isdigit() else 1
        part = math.prod((values[f] for f in factors[1:]), start=values[factors[0]])
        if coeff != 1:
            part = part * coeff
        parts.append(-part if term.startswith("-") else part)
    return parts


def random_evaluation_point(seed: int) -> dict:
    """Seeded standard-normal complex 3-vector of each group, drawn x1, x2,
    ..., zeta3, real part before imaginary part."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return {g: np.array([complex(rng.standard_normal(), rng.standard_normal())
                         for _ in range(3)]) for g in GROUPS}


def syzygy_residuals(s: State, seed: int):
    """Evaluate the twelve syzygies of SYZYGY_NAMES, as (name, residual)
    pairs, at `random_evaluation_point(seed)`: each concomitant is evaluated
    once and each term is the product of its factors' values.  Each residual
    is reported relative to the largest of its terms."""
    point = random_evaluation_point(seed)
    values = {name: complex(form.value(point))
              for name, form in bundle_from_form(s.amplitudes).items()}
    results = []
    for name in SYZYGY_NAMES:
        terms = syzygy_terms(values, name)
        scale = max(abs(v) for v in terms)
        results.append((name, 0.0 if scale == 0 else abs(sum(terms)) / scale))
    return results


# --- one-time exact calibration ----------------------------------------------

_CAL_TRIPLES = ((1, 2, 3), (2, 1, 1), (1, -1, 3), (3, 1, -2))


def _fit_constant(pairs, name):
    """pairs: (raw, target) exact values; returns target/raw, constant across
    all pairs with nonzero raw."""
    ratios = {Fraction(t) / Fraction(r) for r, t in pairs if r != 0}
    if any(r == 0 and t != 0 for r, t in pairs) or len(ratios) != 1:
        raise CalibrationError(f"constant {name} is not constant: {ratios}")
    return next(iter(ratios))


def _hesse_tensor(phi, psi) -> np.ndarray:
    """K tensor of the Hesse cubic -phi*(x^3+y^3+z^3) + psi*xyz, an object
    array of the type of phi and psi: -6 phi on the diagonal, psi on the six
    arrangements of (0, 1, 2)."""
    k = np.zeros((3, 3, 3), dtype=object)
    k[[0, 1, 2], [0, 1, 2], [0, 1, 2]] = -6 * phi
    for sigma, _ in PERMS3:
        k[sigma] = psi
    return k


@lru_cache(maxsize=None)
def calibration() -> dict:
    """Exact one-time calibration of the normalization constants that the
    package pins or the README quotes, done on rational normal forms and
    rational Hesse cubics: a dict of Fractions, against which the tests check
    the pinned literals."""
    data: dict = {}

    # Python int entries: Fraction entries make the contractions 100 times slower
    raws = [invariant_raws(np.array(normal_form_amplitudes(*t), dtype=object))
            for t in _CAL_TRIPLES]
    targets = [c_formulas(*map(Fraction, t)) for t in _CAL_TRIPLES]

    for key in ("i6", "i9", "i12"):
        data[f"{key}_scale"] = _fit_constant(
            [(r[key], getattr(t, "c" + key[1:])) for r, t in zip(raws, targets)], f"{key}_scale")

    # I18 = p*I6^3 + q*I6*I12 + r*I9^2, solved exactly from three normal forms
    # and verified on the fourth.
    rows, rhs = [], []
    for r, t in zip(raws, targets):
        i6, i9, i12 = (data[f"{key}_scale"] * r[key] for key in ("i6", "i9", "i12"))
        rows.append((i6 ** 3, i6 * i12, i9 ** 2))
        rhs.append(Fraction(t.c18))
    p, q, r_ = _solve3(rows[:3], rhs[:3])
    if any(p * a + q * b + r_ * c != target for (a, b, c), target in zip(rows, rhs)):
        raise CalibrationError("i18 combination failed verification")
    data["i18_coeff_i6_cubed"], data["i18_coeff_i6_i12"], data["i18_coeff_i9_sq"] = p, q, r_

    # Aronhold scales from exact Hesse cubics -phi*(x^3+y^3+z^3) + psi*xyz,
    # where 6^4 S = -psi(psi^3 + (6 phi)^3) and
    # 6^6 T = (6 phi)^6 + 20 (6 phi)^3 psi^3 - 8 psi^6.
    s_pairs, t_pairs = [], []
    # Python int entries, as for the normal forms above
    for (phi, psi) in ((0, 1), (1, 1), (1, 2), (-1, 0), (2, 3)):
        s_raw, t_raw = aronhold_raws(_hesse_tensor(phi, psi))
        t_target = Fraction(46656 * phi ** 6 + 4320 * phi ** 3 * psi ** 3 - 8 * psi ** 6, 46656)
        s_pairs.append((s_raw, Fraction(-psi * (psi ** 3 + 216 * phi ** 3), 1296)))
        t_pairs.append((t_raw, t_target))
    data["aronhold_s_scale"] = _fit_constant(s_pairs, "aronhold_s_scale")
    data["aronhold_t_scale"] = _fit_constant(t_pairs, "aronhold_t_scale")

    # Discriminant scale: Delta = delta_scale * (64 S^3 + T^2), pinned by
    # Delta = C12'^3 on normal forms, whose slice cubic is the Hesse cubic of
    # (u v w, u^3 + v^3 + w^3); and T = t_from_i18 * I18 on the same cubics.
    d_pairs, t18_pairs = [], []
    for (u, v, w), i18 in zip(_CAL_TRIPLES, rhs):
        s_raw, t_raw = aronhold_raws(_hesse_tensor(u * v * w, u ** 3 + v ** 3 + w ** 3))
        s_val, t_val = data["aronhold_s_scale"] * s_raw, data["aronhold_t_scale"] * t_raw
        d_pairs.append((64 * s_val ** 3 + t_val ** 2, Fraction(c12_prime(u, v, w)) ** 3))
        t18_pairs.append((i18, t_val))
    data["delta_scale"] = _fit_constant(d_pairs, "delta_scale")
    data["t_from_i18"] = _fit_constant(t18_pairs, "t_from_i18")

    return data


def _solve3(rows, rhs):
    """Exact 3x3 linear solve by Cramer's rule."""
    def det3(m):
        return sum(sign * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] for p, sign in PERMS3)

    d = det3(rows)
    if d == 0:
        raise CalibrationError("singular system while fitting i18 combination")
    # column col of the matrix replaced by the right-hand side
    return tuple(Fraction(det3([row[:col] + (b,) + row[col + 1:] for row, b in zip(rows, rhs)]))
                 / Fraction(d) for col in range(3))
