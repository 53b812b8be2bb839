"""Exact arithmetic over the Eisenstein rationals Q(eps), eps = exp(2i*pi/3).

Elements are stored as a + b*eps with rational a, b and reduced with the
defining relation eps**2 = -1 - eps.  This field carries the entries of the
reflection-group matrices and every calibration constant, where floating
point equality would be meaningless.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

_SQRT3 = 3.0 ** 0.5
EPS_COMPLEX = complex(-0.5, _SQRT3 / 2.0)

_RationalLike = (int, Fraction)


class Cyclo:
    """An element a + b*eps of Q(eps)."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @classmethod
    def coerce(cls, value) -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        if isinstance(value, _RationalLike):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} into Q(eps)")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _RationalLike):
            return Cyclo(self.a + other, self.b)
        if isinstance(other, Cyclo):
            return Cyclo(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, (Cyclo, *_RationalLike)):
            return self + (-other if isinstance(other, Cyclo) else Cyclo(-other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _RationalLike):
            return Cyclo(self.a * other, self.b * other)
        if isinstance(other, Cyclo):
            # (a + b eps)(c + d eps) with eps^2 = -1 - eps
            a, b, c, d = self.a, self.b, other.a, other.b
            return Cyclo(a * c - b * d, a * d + b * c - b * d)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclo(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclo":
        """Complex conjugation, which maps eps to eps**2 = -1 - eps."""
        return Cyclo(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm a**2 - a*b + b**2 (a nonnegative rational)."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyclo":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(eps)")
        conj = self.conjugate()
        return Cyclo(conj.a / n, conj.b / n)

    def __truediv__(self, other):
        if isinstance(other, _RationalLike):
            if other == 0:
                raise ZeroDivisionError("division by zero in Q(eps)")
            return Cyclo(self.a / other, self.b / other)
        if isinstance(other, Cyclo):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return Cyclo.coerce(other) * self.inverse()

    # -- predicates and conversions ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, _RationalLike):
            return self.b == 0 and self.a == other
        if isinstance(other, Cyclo):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def to_complex(self) -> complex:
        """Embed into C via eps -> (-1/2, +sqrt(3)/2)."""
        return complex(self.a) + complex(self.b) * EPS_COMPLEX

    def __repr__(self) -> str:
        return f"Cyclo({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*eps"
        return f"{self.a} + {self.b}*eps"


EPS = Cyclo(0, 1)


def to_complex(value) -> complex:
    """Embed an exact or floating scalar into a Python complex."""
    if isinstance(value, Cyclo):
        return value.to_complex()
    return complex(value)


def is_exact(values) -> bool:
    """True when none of the values is a float, a complex or a numpy array,
    so that they are computed on exactly (in Q or in Q(eps))."""
    return not any(isinstance(x, (complex, float, np.ndarray)) for x in values)
