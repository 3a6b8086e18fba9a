"""Reduced rational functions over Q(i).

A rational function is stored as num/den with den monic, gcd(num, den) = 1
and zero represented as 0/1; the canonical form is unique, so structural
equality is mathematical equality.  Valuations are exact at finite points
and at infinity, and paraconjugation g(z) -> conj(g(1/conj(z))) stays
inside the representation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CirclePoleError
from .poly import Poly, monic_ratio, poly_gcd
from .scalars import Comparison, GaussianRational, Point, ONE


def _coerce_poly(x) -> Poly | None:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Poly((x,))
    return None


class RatFun:
    """Immutable reduced rational function."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        n = _coerce_poly(num)
        if n is None:
            raise TypeError(f"cannot build a rational function from {type(num).__name__}")
        d = Poly.one() if den is None else _coerce_poly(den)
        if d is None:
            raise TypeError(f"cannot build a rational function from {type(den).__name__}")
        if d.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero():
            self._num = Poly.zero()
            self._den = Poly.one()
            return
        if not n.is_constant() and not d.is_constant():
            g = poly_gcd(n, d)
            if not g.is_one():
                n = n.exact_div(g)
                d = d.exact_div(g)
        self._num, self._den = monic_ratio(n, d)

    @classmethod
    def zero(cls) -> RatFun:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFun:
        return _RF_ONE

    @classmethod
    def constant(cls, c) -> RatFun:
        return cls(Poly((c,)))

    @classmethod
    def from_poly(cls, p: Poly) -> RatFun:
        return cls(p)

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

    def is_polynomial(self) -> bool:
        return self._den.is_one()

    def has_real_coeffs(self) -> bool:
        return self._num.has_real_coeffs() and self._den.has_real_coeffs()

    def _coerce(self, other) -> RatFun | None:
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            return RatFun(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return RatFun(self._num + o._num, self._den)
        return RatFun(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._den == o._den:
            return RatFun(self._num - o._num, self._den)
        return RatFun(self._num * o._den - o._num * self._den, self._den * o._den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> RatFun:
        return RatFun(-self._num, self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        if self.is_zero():
            return self
        num_c = self._num.conj_coeffs().reversed()
        den_c = self._den.conj_coeffs().reversed()
        dn = self._num.degree
        dd = self._den.degree
        z = Poly.variable()
        if dd >= dn:
            return RatFun(num_c * z ** (dd - dn), den_c)
        return RatFun(num_c, den_c * z ** (dn - dd))

    def reciprocal_subs(self) -> RatFun:
        """The substitution f(1/z) without coefficient conjugation."""
        if self.is_zero():
            return self
        num_r = self._num.reversed()
        den_r = self._den.reversed()
        dn = self._num.degree
        dd = self._den.degree
        z = Poly.variable()
        if dd >= dn:
            return RatFun(num_r * z ** (dd - dn), den_r)
        return RatFun(num_r, den_r * z ** (dn - dd))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self._den.is_one():
            return str(self._num)
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RatFun[{self}]"


_RF_ZERO = RatFun(Poly.zero())
_RF_ONE = RatFun(Poly.one())


def blaschke(alpha: Point) -> RatFun:
    """The elementary all-pass kernel (1 - conj(alpha) z) / (z - alpha).

    Degenerates to z for alpha at infinity.  Poles on the unit circle are
    rejected at construction: the factor would not be all-pass there.
    """
    if not isinstance(alpha, Point):
        alpha = Point(alpha)
    if alpha.abs_vs_one() is Comparison.EQUAL:
        raise CirclePoleError(f"pole on the unit circle: {alpha}")
    if alpha.is_infinite:
        return RatFun(Poly.variable())
    a = alpha.value
    num = Poly((ONE, -a.conj()))
    den = Poly((-a, ONE))
    return RatFun(num, den)
