"""Three-qutrit states as 3x3x3 complex tensors.

A state is identified with the trilinear form sum_ijk A[i,j,k] x_i y_j z_k
(`trilinear_form`, a `poly_engine.Form`); the local group SL(3,C)^x3 acts by
contracting each tensor leg with the matching matrix.  This module also
holds the 9x9 mixed adjugate of two 3x3x3 tensors (`mixed_adjugate`) and on
it the slice tensor, the determinant of a slice as a symmetric 3x3x3 tensor; the
three-parameter normal-form family, reduced densities, the tangent map of
sl(3)^3 on the Gell-Mann matrices as one constant matrix (`TANGENT`, for the
filtering iteration's derivatives), and the JSON state file format.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .poly_engine import LEVI_CIVITA, PERMS3, Form

STATE_FORMAT = "trimoduli-state-v1"

# tuples (i,j,k) carrying v and w in the normal form, 1-based:
# v multiplies the odd arrangements of (1,2,3), w the even ones.
ODD_TRIPLES = ((1, 3, 2), (2, 1, 3), (3, 2, 1))
EVEN_TRIPLES = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


_E = np.eye(3)
# the Gell-Mann matrices, tr(l_a l_b) = 2 delta_ab
GELL_MANN = np.array(
    [c * np.outer(_E[i], _E[j]) + np.conj(c) * np.outer(_E[j], _E[i])
     for i, j in ((0, 1), (0, 2), (1, 2)) for c in (1.0, -1j)]
    + [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0)])


class StateIOError(ValueError):
    """Raised for malformed state files."""


@dataclass(frozen=True, eq=False)
class State:
    """Unnormalized pure state of three qutrits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex, order="C")
        if amp.shape != (3, 3, 3):
            raise StateIOError(f"amplitude tensor must be 3x3x3, got shape {amp.shape}")
        if not np.all(np.isfinite(amp)):
            raise StateIOError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def scaled(self, t: complex) -> "State":
        return State(self.amplitudes * t)

    def form(self) -> Form:
        """The trilinear form of the state."""
        return trilinear_form(self.amplitudes)


@dataclass(frozen=True, eq=False)
class LocalTransform:
    """A triple of 3x3 complex matrices, one per party."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3")
            m.setflags(write=False)
            object.__setattr__(self, name, m)


def trilinear_form(amplitudes) -> Form:
    """Trilinear form sum A[i,j,k] x_i y_j z_k of any 3x3x3 array or nested
    list of scalars (complex for numeric work, ints or Fractions for exact
    runs)."""
    return Form(np.asarray(amplitudes), ("x", "y", "z"))


def normal_form_amplitudes(u, v, w):
    """Normal-form coefficient layout as a nested 3x3x3 list, scalar-generic."""
    zero = u - u  # matches the scalar type of the inputs
    amp = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for c, triples in ((u, ((1, 1, 1), (2, 2, 2), (3, 3, 3))), (v, ODD_TRIPLES), (w, EVEN_TRIPLES)):
        for i, j, k in triples:
            amp[i - 1][j - 1][k - 1] = c
    return amp


def normal_form_state(t: tuple) -> State:
    """The state with u on the diagonal, v on odd and w on even arrangements
    of (1,2,3), zero elsewhere."""
    return State(np.array(normal_form_amplitudes(*map(complex, t)), dtype=complex))


def apply_local(s: State, g: LocalTransform) -> State:
    """Contract each tensor leg with the matching matrix."""
    return State(np.einsum("ip,jq,kr,pqr->ijk", g.g1, g.g2, g.g3, s.amplitudes))


def slice_tensor(a, symbol=LEVI_CIVITA) -> np.ndarray:
    """K[a,b,c] = eps_jlm eps_kno A[a,j,k] A[b,l,n] A[c,m,o] of a 3x3x3 array.

    det(sum_a x_a A[a]) = (1/6) sum_abc K[a,b,c] x_a x_b x_c and K is
    symmetric, so K is six times the symmetric coefficient tensor of that
    cubic.  K is the mixed adjugate of At[j,k,a] = A[a,j,k] with itself times A,
    with `symbol` for eps; integer arrays give an integer K, object arrays stay exact."""
    at = a.transpose(1, 2, 0)
    return (mixed_adjugate(at, at, symbol).T @ a.reshape(3, 9).T).reshape(3, 3, 3)


def reduced_density(s: State, party: int) -> np.ndarray:
    """Single-party reduced density matrix of the unnormalized state."""
    if party not in (1, 2, 3):
        raise ValueError("party must be 1, 2 or 3")
    A = s.amplitudes
    return np.einsum(("ijk,ljk->il", "ijk,ilk->jl", "ijk,ijl->kl")[party - 1], A, A.conj())


# the tangent map as one (648, 27) matrix on the flattened tensor: block 8p + k
# is l_k on leg p + 1, the Kronecker product of l_k with two identities; each
# row of a Gell-Mann matrix has one nonzero entry, so no entry sums two products
TANGENT = np.array([reduce(np.kron, [l if q == p else _E for q in range(3)])
                    for p in range(3) for l in GELL_MANN]).reshape(648, 27)


# term 2p + q of entry ((c, f), (g, j)) of `mixed_adjugate` joins (a, b, c) and
# (d, e, f) at 2c + p and 2f + q of the support of eps, sorted by last index:
# the flat indices of x[a,d,g], y[b,e,j], eps_abc and eps_def
_SUPPORT = sorted((sigma for sigma, _ in PERMS3), key=lambda sigma: sigma[2])
_a, _b, _c, _d, _e, _f = np.array([s + t for s in _SUPPORT for t in _SUPPORT]).reshape(
    3, 2, 3, 2, 6).transpose(4, 1, 3, 0, 2).reshape(6, 4, 9, 1)
ADJUGATE_X = 9 * _a + 3 * _d + np.repeat(np.arange(3), 3)
ADJUGATE_Y = 9 * _b + 3 * _e + np.tile(np.arange(3), 3)
ADJUGATE_EPS = np.array([9 * _a + 3 * _b + _c, 9 * _d + 3 * _e + _f])


def mixed_adjugate(x, y, symbol) -> np.ndarray:
    """The 9x9 M[(c,f),(g,j)] = sum eps_abc eps_def x[a,d,g] y[b,e,j] of two 3x3x3
    arrays, the mixed 2x2 cofactors of x[:,:,g] and y[:,:,j], exact on integer and
    object arrays; `symbol` stands in for eps and is read on its support."""
    eps = symbol.take(ADJUGATE_EPS)
    return np.add.reduce(x.take(ADJUGATE_X) * y.take(ADJUGATE_Y) * (eps[0] * eps[1]), axis=0)


def tangent_rows(a: np.ndarray) -> np.ndarray:
    """The tangent map of sl(3)^3 at a 3x3x3 array a, as the (24, 27) matrix
    whose row 8p + k is the Gell-Mann matrix l_k applied to leg p + 1 of a."""
    return (TANGENT @ a.ravel()).reshape(24, 27)


def write_state(path, s: State) -> None:
    # 27 [re, im] pairs in C order
    payload = {"format": STATE_FORMAT,
               "amplitudes": s.amplitudes.reshape(27, 1).view(float).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_state(path) -> State:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateIOError(f"malformed JSON in state file: {exc}") from exc
    except OSError as exc:
        raise StateIOError(f"cannot read state file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT:
        raise StateIOError(f"unknown state file format (expected {STATE_FORMAT!r})")
    amps = payload.get("amplitudes")
    if not isinstance(amps, list) or len(amps) != 27:
        n = len(amps) if isinstance(amps, list) else "none"
        raise StateIOError(f"amplitudes must be a list of 27 [re, im] pairs, got {n}")
    values = []
    for entry in amps:
        if not isinstance(entry, list) or len(entry) != 2:
            raise StateIOError("each amplitude must be an [re, im] pair")
        re, im = entry
        # JSON true and false load as bools, and an int may exceed the float range
        if not all(type(p) in (int, float) for p in (re, im)):
            raise StateIOError("amplitude components must be numbers")
        if not all(abs(p) <= sys.float_info.max for p in (re, im)):
            raise StateIOError("non-finite or out-of-range amplitude in state file")
        values.append(complex(re, im))
    return State(np.array(values, dtype=complex).reshape(3, 3, 3))


def random_state(seed: int) -> State:
    """Seeded generic state: PCG64 stream, 27 standard-normal real parts
    followed by 27 imaginary parts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    re, im = rng.standard_normal(27), rng.standard_normal(27)
    return State((re + 1j * im).reshape(3, 3, 3))


def random_parameter_triple(seed: int) -> tuple[complex, complex, complex]:
    rng = np.random.Generator(np.random.PCG64(seed))
    re, im = rng.standard_normal(3), rng.standard_normal(3)
    return tuple(complex(a, b) for a, b in zip(re, im))


def random_local_transform(seed: int) -> LocalTransform:
    """Seeded random local transform; each matrix is standard-normal complex,
    rescaled by det**(-1/3) (principal cube root) to unit determinant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = []
    for _ in range(3):
        while True:
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            d = np.linalg.det(m)
            if abs(d) > 1e-6:
                break
        mats.append(m / d ** (1.0 / 3.0))
    return LocalTransform(*mats)
