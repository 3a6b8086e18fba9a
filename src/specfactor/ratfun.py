"""Reduced rational functions over Q(i).

A rational function is stored as num/den with den monic, gcd(num, den) = 1
and zero represented as 0/1; the canonical form is unique, so structural
equality is mathematical equality.  Valuations are exact at finite points
and at infinity, and paraconjugation g(z) -> conj(g(1/conj(z))) stays
inside the representation.
"""

from __future__ import annotations

from .errors import CirclePoleError
from .poly import Poly, as_poly, cleared_fraction, pairs
from .scalars import Comparison, GaussianRational, Point, scalar_parts


class RatFun:
    """Immutable reduced rational function."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        n = as_poly(num)
        if n is None:
            raise TypeError(f"cannot build a rational function from {type(num).__name__}")
        d = Poly.one() if den is None else as_poly(den)
        if d is None:
            raise TypeError(f"cannot build a rational function from {type(den).__name__}")
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self._num = Poly.zero()
            self._den = Poly.one()
            return
        self._den, (self._num,) = cleared_fraction(d, (n,))

    @classmethod
    def zero(cls) -> RatFun:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFun:
        return _RF_ONE

    @classmethod
    def constant(cls, c) -> RatFun:
        return cls(Poly((c,)))

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_one(self) -> bool:
        return self._num.is_one() and self._den.is_one()

    def is_constant(self) -> bool:
        return self._num.is_constant() and self._den.is_one()

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._num.coefficient(0)

    def has_real_coeffs(self) -> bool:
        return self._num.has_real_coeffs() and self._den.has_real_coeffs()

    def __add__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return RatFun(self._num + o._num, self._den)
        return RatFun(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return RatFun(self._num - o._num, self._den)
        return RatFun(self._num * o._den - o._num * self._den, self._den * o._den)

    def __rsub__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> RatFun:
        return RatFun(-self._num, self._den)

    def __mul__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        return RatFun(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other):
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            return self.inverse() ** (-n)
        return RatFun(self._num**n, self._den**n)

    def inverse(self) -> RatFun:
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFun(self._den, self._num)

    def paraconj(self) -> RatFun:
        """The function conj(f(1/conj(z))): conjugate coefficients, substitute 1/z.

        For real coefficients this is f(1/z).  Involution, multiplicative.
        """
        return _reciprocal(self._num.conj_coeffs(), self._den.conj_coeffs())

    def reciprocal_subs(self) -> RatFun:
        """The substitution f(1/z) without coefficient conjugation."""
        return _reciprocal(self._num, self._den)

    def valuation(self, point: Point) -> int:
        """Order at the point: +k for a zero of degree k, -k for a pole.

        At infinity the valuation is deg(den) - deg(num).
        """
        if self.is_zero():
            raise ValueError("valuation of the zero function")
        if point.is_infinite:
            return self._den.degree - self._num.degree
        return self._num.multiplicity(point) - self._den.multiplicity(point)

    def eval(self, alpha) -> GaussianRational:
        a = alpha if isinstance(alpha, GaussianRational) else GaussianRational(alpha)
        d = self._den.eval(a)
        if d.is_zero():
            raise ZeroDivisionError(f"evaluation at a pole: {a}")
        return self._num.eval(a) / d

    def eval_complex(self, z: complex) -> complex:
        return self._num.eval_complex(z) / self._den.eval_complex(z)

    def __eq__(self, other) -> bool:
        o = as_ratfun(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        # a fraction over 1 equals its numerator, so it hashes like it
        return hash(self._num if self._den.is_one() else (self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self._den.is_one():
            return str(self._num)
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RatFun[{self}]"


def _reciprocal(num: Poly, den: Poly) -> RatFun:
    """num(1/z) / den(1/z) as a reduced rational function."""
    if num.is_zero():
        return _RF_ZERO
    top = max(num.degree, den.degree)
    return RatFun(num.reversed(top), den.reversed(top))


def as_ratfun(x) -> RatFun | None:
    """x as a rational function: a RatFun itself, a Poly or a scalar as a
    quotient over 1; None for anything else."""
    if isinstance(x, RatFun):
        return x
    p = as_poly(x)
    return None if p is None else RatFun(p)


_RF_ZERO = RatFun(Poly.zero())
_RF_ONE = RatFun(Poly.one())


def blaschke(alpha: Point) -> RatFun:
    """The all-pass kernel (1 - conj(alpha) z) / (z - alpha), z at infinity,
    from ``blaschke_kernel``, which refuses a pole on the unit circle: b
    would not be all-pass there."""
    kn, kd = blaschke_kernel(alpha)
    return RatFun(Poly.from_parts(1, kn), Poly.from_parts(1, kd))


def blaschke_kernel(alpha: Point) -> tuple[list, list]:
    """``blaschke(alpha)`` as coprime Gaussian-integer coefficient lists,
    read from alpha = (a + bi)/delta: delta - (a - bi) z over delta z -
    (a + bi), z over 1 at infinity and 1 over z at 0 (no trailing zero
    pair).  Swapped, they are b~ = 1/b."""
    if not isinstance(alpha, Point):
        alpha = Point(alpha)
    if alpha.abs_vs_one() is Comparison.EQUAL:
        raise CirclePoleError(f"pole on the unit circle: {alpha}")
    if alpha.is_infinite:
        return [(0, 0), (1, 0)], [(1, 0)]
    a, b, delta = scalar_parts(alpha.value)
    return pairs([delta, -a], [0, b]), [(-a, -b), (delta, 0)]
