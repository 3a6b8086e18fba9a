"""Exact scalars: Gaussian rationals and points of the extended plane.

A scalar is three integers ``(a, b, d)`` meaning ``(a + b*i) / d``, with
d > 0 and gcd(a, b, d) == 1: the layout of one ``Poly`` coefficient.  Every
operation works on these integers and reduces once, by one gcd; ``re`` and
``im`` are reduced ``Fraction``s built when read.  Canonical forms are
unique, so equality is structural and scalars are safe dictionary keys.

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
from math import gcd, lcm
from sys import hash_info

from .errors import ScalarParseError

_MODULUS, _HASH_INF = hash_info.modulus, hash_info.inf


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


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of an int, Fraction or string."""
    if isinstance(x, str):
        if _RATIONAL.fullmatch(x) is None:
            raise ScalarParseError(f"not an exact rational: {x!r}")
        x = Fraction(x)
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def scalar_parts(x) -> tuple[int, int, int] | None:
    """The canonical integers (a, b, d) of a GaussianRational, int or
    Fraction x, so that x == (a + b*i) / d; None for anything else."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The canonical GaussianRational (a + b*i) / d, for d > 0."""
    g = gcd(a, b, d)
    x = object.__new__(GaussianRational)
    x._a = a // g
    x._b = b // g
    x._d = d // g
    return x


class GaussianRational:
    """Immutable element of Q(i)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        p, q = _rational(re)
        r, s = _rational(im)
        # each part is in lowest terms, so over the lcm gcd(a, b, d) is 1
        d = lcm(q, s)
        self._a = p * (d // q)
        self._b = r * (d // s)
        self._d = d

    @classmethod
    def from_parts(cls, a: int, b: int, d: int) -> GaussianRational:
        """The scalar (a + b*i) / d for integers a, b and d > 0."""
        return _reduced(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

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
        return _reduced(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == self._d and not self._b

    def inverse(self) -> GaussianRational:
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return _reduced(a * d, -b * d, n)

    def __add__(self, other):
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        return _reduced(self._a * d + a * e, self._b * d + b * e, e * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        return _reduced(self._a * d - a * e, self._b * d - b * e, e * d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> GaussianRational:
        return _reduced(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        x, y = self._a, self._b
        return _reduced(x * a - y * b, x * b + y * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        x, y = self._a, self._b
        return _reduced((x * a + y * b) * d, (y * a - x * b) * d, self._d * n)

    def __rtruediv__(self, other):
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        return _reduced(*o) / self

    def __eq__(self, other) -> bool:
        o = scalar_parts(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == o

    def __hash__(self):
        # a real scalar equals an int or Fraction, so it hashes like one;
        # for a Fraction that is |a| / d mod the hash modulus, signed like
        # a, with -1 read as -2 and a denominator the modulus divides as inf
        a, d = self._a, self._d
        if self._b:
            return hash((a, self._b, d))
        if d == 1:
            return hash(a)
        h = abs(a) * pow(d, -1, _MODULUS) % _MODULUS if d % _MODULUS else _HASH_INF
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        return f"{re}+{im}*i" if im > 0 else f"{re}{im}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
        a, b, d = scalar_parts(self._value)
        n, dd = a * a + b * b, d * d
        return Comparison((n > dd) - (n < dd))

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
