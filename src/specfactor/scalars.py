"""Exact scalars: Gaussian rationals and points of the extended plane.

A scalar is a complex number ``a + b*i`` with exact rational parts, kept in
canonical reduced form by ``fractions.Fraction`` (coprime numerator and
denominator, positive denominator).  Equality is structural and canonical
forms are unique, so scalars are safe dictionary keys.

Points add a first-class infinity so that reciprocal pairs ``(z, 1/z)`` and
conjugate-reciprocal pairs ``(z, 1/conj(z))`` can be manipulated without a
change of chart; the pair maps swap 0 and infinity.

Text has one grammar, stated by the patterns below: a rational is digits
with an optional nonzero ``/denominator`` (no decimals, exponents or
underscores, which ``Fraction`` would take); a scalar is one or more terms,
each a rational, a rational times i (``3i``, ``3*i``) or i alone, the first
with an optional sign and every later one with exactly one.

Values are immutable after construction and freely shareable.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction

from .errors import ScalarParseError


class Comparison(enum.Enum):
    """Exact three-way comparison of a magnitude against 1."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


# the grammar of the module docstring; a rational string has no whitespace
_UNSIGNED = r"[0-9]+(?:/0*[1-9][0-9]*)?"
_RATIONAL = re.compile(rf"[+-]?{_UNSIGNED}")
_TERM = rf"([+-]?)(?:({_UNSIGNED})(\*?[iI])?|[iI])"
_TERMS = re.compile(_TERM)
_SCALAR = re.compile(rf"{_TERM}(?:(?=[+-]){_TERM})*")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if _RATIONAL.fullmatch(x) is None:
            raise ScalarParseError(f"not an exact rational: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class GaussianRational:
    """Immutable element of Q(i)."""

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        self._re = _as_fraction(re)
        self._im = _as_fraction(im)

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    @classmethod
    def from_string(cls, text: str) -> GaussianRational:
        """Parse the textual form ``a/b+c/d*i``.

        Whitespace is ignored, terms may appear in any order and number,
        the imaginary unit may be written ``i``, ``1*i``, ``3i`` or ``3*i``.
        Parsing is exact and round-trips the output of ``str``.
        """
        compact = "".join(text.split())
        if not compact:
            raise ScalarParseError("empty scalar string")
        if _SCALAR.fullmatch(compact) is None:
            raise ScalarParseError(f"malformed scalar term in {text!r}")
        re_part = im_part = Fraction(0)
        for sign, value, unit in _TERMS.findall(compact):
            term = Fraction(value or 1)
            if sign == "-":
                term = -term
            if value and not unit:
                re_part += term
            else:
                im_part += term
        return cls(re_part, im_part)

    def conj(self) -> GaussianRational:
        return GaussianRational(self._re, -self._im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2."""
        return self._re * self._re + self._im * self._im

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_one(self) -> bool:
        return self._re == 1 and not self._im

    def inverse(self) -> GaussianRational:
        n = self.abs2()
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return GaussianRational(self._re / n, -self._im / n)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self._re + o._re, self._im + o._im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self._re - o._re, self._im - o._im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self._re, -self._im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._im and not o._im:
            return GaussianRational(self._re * o._re)
        return GaussianRational(
            self._re * o._re - self._im * o._im,
            self._re * o._im + self._im * o._re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._re == o._re and self._im == o._im

    def __hash__(self):
        return hash((self._re, self._im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self._re:
            parts.append(str(self._re))
        if self._im:
            imag = f"{self._im}*i"
            if parts and self._im > 0:
                parts.append("+" + imag)
            else:
                parts.append(imag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussianRational({self._re!r}, {self._im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class Point:
    """A point of the extended complex plane: a Gaussian rational or infinity."""

    __slots__ = ("_value",)

    def __init__(self, value=None):
        if value is None:
            self._value = None
        elif isinstance(value, GaussianRational):
            self._value = value
        else:
            self._value = GaussianRational(value)

    @classmethod
    def infinity(cls) -> Point:
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> GaussianRational:
        if self._value is None:
            raise ValueError("the point at infinity has no finite value")
        return self._value

    def sort_key(self) -> tuple:
        """Order by (|p|^2, re, im), with infinity after every finite point."""
        if self._value is None:
            return (1, Fraction(0), Fraction(0), Fraction(0))
        v = self._value
        return (0, v.abs2(), v.re, v.im)

    def abs_vs_one(self) -> Comparison:
        """Compare |p| against 1 exactly; infinity compares GREATER."""
        if self._value is None:
            return Comparison.GREATER
        n = self._value.abs2()
        if n < 1:
            return Comparison.LESS
        if n == 1:
            return Comparison.EQUAL
        return Comparison.GREATER

    def symplectic_pair(self) -> Point:
        """Map p to 1/p, with 0 and infinity swapped."""
        if self._value is None:
            return Point(GaussianRational(0))
        if self._value.is_zero():
            return Point.infinity()
        return Point(self._value.inverse())

    def conj_pair(self) -> Point:
        """Map p to 1/conj(p), with 0 and infinity swapped."""
        return self.symplectic_pair().conj()

    def conj(self) -> Point:
        if self._value is None:
            return self
        return Point(self._value.conj())

    @classmethod
    def from_string(cls, text: str) -> Point:
        compact = "".join(text.split())
        if compact.lower() == "inf":
            return cls.infinity()
        return cls(GaussianRational.from_string(compact))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(("point", self._value))

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"Point({self._value!r})"


INFINITY = Point.infinity()
