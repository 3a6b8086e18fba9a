"""Exact univariate polynomials over the Gaussian rationals.

A polynomial is stored as one positive integer denominator ``d`` and a
tuple of Gaussian-integer numerators ``(re, im)``, ascending by power of
z, so the coefficient of z**k is ``(re_k + im_k*i) / d`` (the layout of
FLINT's ``fmpq_poly``).  The form is canonical: the leading numerator is
nonzero and ``gcd(d, re_0, im_0, re_1, ...) == 1``; the zero polynomial
is the empty tuple over 1 and has degree -inf.  Canonical forms are
unique, so equality and hashing are structural.

Every arithmetic kernel runs in integers and reduces its result with one
gcd over the denominator and all numerator parts.  Every product of
Gaussian-integer coefficient lists in the package (``Poly``'s, the local
Smith elimination's, the all-pass update's) is one loop, ``mul_into``,
which adds x*y into lists the caller allocates; ``pairs`` reads them back
as a coefficient list.  A ``GaussianRational``
is laid out as one coefficient, so the scalar boundary (constructor
arguments, ``coeffs``, ``coefficient``, ``lead``, ``eval`` and the roots)
passes integers through ``scalar_parts`` and ``GaussianRational.from_parts``;
``parts`` and ``from_parts`` hand over the polynomial's integer form itself.

Division, gcd and expansion about a point (``taylor_numerators``, to as
many terms as asked for; it gives multiplicities, and its first term is
``eval``'s Horner rule) are exact.  A fraction, ``RatFun``'s or
``RatMat``'s, is reduced by one route, ``cleared_fraction``: the running
gcd ``gcd_of`` divided out, then ``monic_fraction``; where a lemma names
the only factors it can share, ``deflated_at_points`` and ``monic_lists``.
Root finding is restricted to roots in Q(i) and reports the unsplit
cofactor.  A linear
square-free part gives its root exactly; beyond that, floating point only
proposes root candidates, by the closed form for a quadratic and an
in-house Aberth-Ehrlich iteration from degree 3, rounded to nearby
fractions in integers.  Each candidate is confirmed by synthetic division
over Z[i], and a bounded divisor search over Z[i] proves that no root is
missed.

Polynomials are immutable and hashable.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from functools import lru_cache
from math import gcd as int_gcd, inf, isfinite, lcm, prod, ulp

from .errors import InputTooLargeError, NonGaussianPoleError
from .gaussint import (
    UNITS,
    canonical_associate,
    gi_divisors_up_to_units,
    gi_exact_div,
    gi_factor,
    gi_gcd,
    gi_mul,
)
from .scalars import GaussianRational, Point, ZERO, scalar_parts

NEG_INF = -inf


def _parts(x) -> tuple[int, int, int]:
    """``scalar_parts`` of anything GaussianRational accepts, strings included."""
    sp = scalar_parts(x)
    return scalar_parts(GaussianRational(x)) if sp is None else sp


def _make(den: int, num: tuple[tuple[int, int], ...]) -> Poly:
    """Wrap data that is already canonical."""
    p = object.__new__(Poly)
    p._den = den
    p._num = num
    return p


def _reduce(den: int, re: list[int], im: list[int]) -> Poly:
    """Canonical polynomial (re + im*i) / den for den > 0: strip trailing
    zeros, then divide out gcd(den, every numerator part)."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    if n < len(re):
        re = re[:n]
        im = im[:n]
    if den != 1:
        g = int_gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im]
    return _make(den, tuple(zip(re, im)))


def mul_into(re: list[int], im: list[int], x, y) -> None:
    """Add x * y into re + im*i, for x and y Gaussian-integer coefficient
    lists (ascending pairs, [] for zero) and re, im at least len(x) +
    len(y) - 1 long.  The outer loop runs over x, so the shorter operand
    goes first, and a real coefficient of x takes a real-only loop."""
    for i, (xr, xi) in enumerate(x):
        if xi:
            for k, (yr, yi) in enumerate(y, i):
                re[k] += xr * yr - xi * yi
                im[k] += xr * yi + xi * yr
        elif xr:
            for k, (yr, yi) in enumerate(y, i):
                re[k] += xr * yr
                im[k] += xr * yi


def pairs(re: list[int], im: list[int], terms: int | None = None) -> list[tuple[int, int]]:
    """re + im*i as a coefficient list (ascending pairs, [] for zero), cut
    to its first ``terms`` coefficients and with trailing zeros stripped."""
    n = len(re) if terms is None else min(len(re), terms)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    return list(zip(re[:n], im[:n]))


def _split(num) -> tuple[list[int], list[int]]:
    return [c[0] for c in num], [c[1] for c in num]


def _to_positive(lr: int, li: int) -> tuple[int, int, int]:
    """A multiplier u = (ur, ui) and n > 0 with (lr + li*i) * u == n: a unit
    when the lead lies on an axis, the conjugate otherwise."""
    if not li:
        return (1, 0, lr) if lr > 0 else (-1, 0, -lr)
    if not lr:
        return (0, -1, li) if li > 0 else (0, 1, -li)
    return lr, -li, lr * lr + li * li


def _scale(re: list[int], im: list[int], ur: int, ui: int) -> tuple[list[int], list[int]]:
    """Multiply every numerator by the Gaussian integer ur + ui*i."""
    if not ui:
        if ur == 1:
            return re, im
        return [x * ur for x in re], [y * ur for y in im]
    return ([x * ur - y * ui for x, y in zip(re, im)],
            [x * ui + y * ur for x, y in zip(re, im)])


class Poly:
    """Immutable polynomial in one variable over Q(i)."""

    __slots__ = ("_den", "_num")

    def __init__(self, coeffs=()):
        parts = [_parts(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        p = _reduce(den, [x * (den // d) for x, _, d in parts],
                    [y * (den // d) for _, y, d in parts])
        self._den = p._den
        self._num = p._num

    @classmethod
    def from_parts(cls, den: int, num) -> Poly:
        """The polynomial with coefficients (re + im*i) / den, ascending,
        for den > 0 and num a sequence of Gaussian integers (re, im)."""
        return _reduce(den, *_split(num))

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def one(cls) -> Poly:
        return _ONE

    @classmethod
    def constant(cls, c) -> Poly:
        return cls((c,))

    @classmethod
    def variable(cls) -> Poly:
        return _Z

    @classmethod
    def linear(cls, root) -> Poly:
        """The monic factor z - root."""
        re, im, d = _parts(root)
        return _make(d, ((-re, -im), (d, 0)))

    @classmethod
    def from_roots(cls, roots) -> Poly:
        p = _ONE
        for r in roots:
            p = p * cls.linear(r)
        return p

    def _scalar(self, k: int) -> GaussianRational:
        return GaussianRational.from_parts(*self._num[k], self._den)

    @property
    def parts(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The canonical integer form (den, numerators)."""
        return self._den, self._num

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        return tuple(self._scalar(k) for k in range(len(self._num)))

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self._num) - 1 if self._num else NEG_INF

    @property
    def lead(self) -> GaussianRational:
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._scalar(-1)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return len(self._num) <= 1

    def is_one(self) -> bool:
        return self._den == 1 and self._num == ((1, 0),)

    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == (self._den, 0)

    def coefficient(self, k: int) -> GaussianRational:
        return self._scalar(k) if 0 <= k < len(self._num) else ZERO

    def _add(self, other: Poly, sign: int) -> Poly:
        if not other._num:
            return self
        if not self._num:
            return other if sign > 0 else -other
        a, b = self._den, other._den
        if a == b:
            fa, fb, den = 1, sign, a
        else:
            g = int_gcd(a, b)
            fa, fb = b // g, sign * (a // g)
            den = a * fa
        n = max(len(self._num), len(other._num))
        re = [0] * n
        im = [0] * n
        for k, (x, y) in enumerate(self._num):
            re[k] = x * fa
            im[k] = y * fa
        for k, (x, y) in enumerate(other._num):
            re[k] += x * fb
            im[k] += y * fb
        return _reduce(den, re, im)

    def __add__(self, other):
        s = as_poly(other)
        if s is None:
            return NotImplemented
        return self._add(s, 1)

    __radd__ = __add__

    def __sub__(self, other):
        s = as_poly(other)
        if s is None:
            return NotImplemented
        return self._add(s, -1)

    def __rsub__(self, other):
        s = as_poly(other)
        if s is None:
            return NotImplemented
        return s._add(self, -1)

    def __neg__(self) -> Poly:
        return _make(self._den, tuple((-x, -y) for x, y in self._num))

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._num, other._num
            if not a or not b:
                return _ZERO
            n = len(a) + len(b) - 1
            re, im = [0] * n, [0] * n
            mul_into(re, im, a, b)
            return _reduce(self._den * other._den, re, im)
        sp = scalar_parts(other)
        if sp is None:
            return NotImplemented
        sr, si, d = sp
        if not sr and not si:
            return _ZERO
        re, im = _split(self._num)
        re, im = _scale(re, im, sr, si)
        return _reduce(self._den * d, re, im)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Division over Q(i) in integers.

        The divisor's numerators are turned to a positive integer lead n by
        a multiplier u.  Each step scales the running remainder and the
        quotient found so far by n / gcd(n, top) only, and the scale s
        accumulates, so the exact quotient and remainder are q * u / s and
        r / s before the operands' denominators are put back.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        b = other._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        m = len(b)
        dq = len(self._num) - m
        if dq < 0:
            return _ZERO, self
        ur, ui, lead = _to_positive(*b[-1])
        mr, mi = _split(b)
        mr, mi = _scale(mr, mi, ur, ui)
        rr, ri = _split(self._num)
        qr = [0] * (dq + 1)
        qi = [0] * (dq + 1)
        s = 1
        for k in range(dq, -1, -1):
            top = k + m - 1
            tr, ti = rr[top], ri[top]
            if not tr and not ti:
                continue
            if lead != 1:
                g = int_gcd(lead, tr, ti)
                f = lead // g
                if g != 1:
                    tr //= g
                    ti //= g
                if f != 1:
                    for j in range(top):
                        rr[j] *= f
                        ri[j] *= f
                    for j in range(k + 1, dq + 1):
                        qr[j] *= f
                        qi[j] *= f
                    s *= f
            rr[top] = ri[top] = 0
            for j in range(m - 1):
                yr, yi = mr[j], mi[j]
                rr[k + j] -= tr * yr - ti * yi
                ri[k + j] -= tr * yi + ti * yr
            qr[k], qi[k] = tr, ti
        qr, qi = _scale(qr, qi, ur * other._den, ui * other._den)
        den = s * self._den
        return _reduce(den, qr, qi), _reduce(den, rr[: m - 1], ri[: m - 1])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_div(self, other: Poly) -> Poly:
        """Quotient asserting zero remainder."""
        q, r = divmod(self, other)
        if r._num:
            raise ArithmeticError(f"inexact polynomial division: {self} by {other}")
        return q

    def monic(self) -> Poly:
        if not self._num:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        ur, ui, lead = _to_positive(*self._num[-1])
        re, im = _split(self._num)
        re, im = _scale(re, im, ur, ui)
        return _reduce(lead, re, im)

    def eval(self, alpha) -> GaussianRational:
        """Exact Horner evaluation: the first coefficient of the expansion
        about alpha (``taylor_numerators``), over den * delta**deg."""
        if not self._num:
            return ZERO
        top = len(self._num) - 1
        ar, ai = taylor_numerators(self._num, alpha, top, 1)[0]
        return GaussianRational.from_parts(ar, ai, self._den * _parts(alpha)[2] ** top)

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        d = self._den
        for re, im in reversed(self._num):
            acc = acc * z + complex(re / d, im / d)
        return acc

    def multiplicity(self, point: Point) -> int:
        """Largest k with (z - point)^k dividing self; 0 for the point at infinity."""
        if not self._num:
            raise ValueError("multiplicity of a root in the zero polynomial")
        if point.is_infinite:
            return 0
        n = len(self._num)
        return order_of(taylor_numerators(self._num, point.value, n - 1, n))

    def reversed(self, top: int | None = None) -> Poly:
        """Coefficient reversal z**top * p(1/z), top at least the degree
        and the degree by default."""
        num = self._num[::-1]
        if top is not None and num:
            num = ((0, 0),) * (top + 1 - len(num)) + num
        k = len(num)
        while k and num[k - 1] == (0, 0):
            k -= 1
        return _make(self._den, num[:k]) if k else _ZERO

    def conj_coeffs(self) -> Poly:
        return _make(self._den, tuple((x, -y) for x, y in self._num))

    def has_real_coeffs(self) -> bool:
        return not any(y for _, y in self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            other = as_poly(other)
            if other is None:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant equals its scalar (zero equals 0), so it hashes like one
        if len(self._num) > 1:
            return hash((self._den, self._num))
        return hash(self._scalar(0)) if self._num else 0

    def __bool__(self) -> bool:
        return bool(self._num)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        terms = []
        for k in range(len(self._num) - 1, -1, -1):
            if self._num[k] == (0, 0):
                continue
            c = self._scalar(k)
            if k == 0:
                terms.append(f"({c})")
            elif k == 1:
                terms.append("z" if c.is_one() else f"({c})*z")
            else:
                terms.append(f"z^{k}" if c.is_one() else f"({c})*z^{k}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly[{self}]"


def as_poly(x) -> Poly | None:
    """x as a polynomial: a Poly itself, a scalar as a constant polynomial;
    None for anything else."""
    if isinstance(x, Poly):
        return x
    sp = scalar_parts(x)
    if sp is None:
        return None
    re, im, d = sp
    return _reduce(d, [re], [im])


_ZERO = _make(1, ())
_ONE = _make(1, ((1, 0),))
_Z = _make(1, ((0, 0), (1, 0)))


def taylor_numerators(num, alpha, top: int, terms: int) -> list[tuple[int, int]]:
    """The first ``terms`` coefficients, ascending in u = delta * (z - alpha),
    of delta**top * P((u + x) / delta) for P with Gaussian-integer
    coefficients num (ascending pairs, the last nonzero), top >= deg P and
    alpha = x / delta in its canonical scalar form; all of them when terms
    exceeds deg P.  They are Gaussian integers; the order of P at alpha is
    the index of the first nonzero one, and expansions padded to one top
    share the scale."""
    xr, xi, delta = _parts(alpha)
    n = len(num)
    re, im = [0] * n, [0] * n
    # delta**(top - k) by one running product from the top coefficient down
    scale = delta ** (top + 1 - n)
    for k in range(n - 1, -1, -1):
        re[k], im[k] = num[k][0] * scale, num[k][1] * scale
        scale *= delta
    # Taylor shift by x in place (Ruffini-Horner); pass i fixes coefficient
    # i, and the last coefficient needs no pass
    for i in range(min(terms, n - 1)):
        if xi:
            for j in range(n - 2, i - 1, -1):
                r, s = re[j + 1], im[j + 1]
                re[j] += xr * r - xi * s
                im[j] += xr * s + xi * r
        elif xr:
            for j in range(n - 2, i - 1, -1):
                re[j] += xr * re[j + 1]
                im[j] += xr * im[j + 1]
    if terms < n:
        del re[terms:], im[terms:]
    return list(zip(re, im))


def order_of(coeffs) -> int | None:
    """Index of the first nonzero Gaussian-integer pair in coeffs, None
    when there is none."""
    return next((k for k, c in enumerate(coeffs) if c != (0, 0)), None)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor.

    Runs the subresultant pseudo-remainder sequence over Z[i] on the
    numerators with their integer content removed (denominators and
    contents only scale the result): remainders are divided by predicted
    scalar factors (exact divisions, no content gcds in the loop), so all
    intermediate arithmetic stays in integers with controlled growth.  The
    result is normalized monic over Q(i).
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return _ONE
    a = _primitive(p._num)
    b = _primitive(q._num)
    if len(a[0]) < len(b[0]):
        a, b = b, a
    g = (1, 0)
    h = (1, 0)
    while True:
        delta = len(a[0]) - len(b[0])
        r = _gi_prem(a, b)
        if not r[0]:
            break
        if len(r[0]) == 1:
            return _ONE
        a, b = b, _gi_exact_div_all(r, gi_mul(g, _gi_pow(h, delta)))
        g = (a[0][-1], a[1][-1])
        if delta == 1:
            h = g
        elif delta > 1:
            h = gi_exact_div(_gi_pow(g, delta), _gi_pow(h, delta - 1))
            if h is None:
                raise AssertionError("subresultant h-update failed")
    return _make(1, tuple(zip(*b))).monic()


def _gi_pow(x: tuple[int, int], n: int) -> tuple[int, int]:
    out = (1, 0)
    base = x
    while n:
        if n & 1:
            out = gi_mul(out, base)
        base = gi_mul(base, base)
        n >>= 1
    return out


def _primitive(num) -> tuple[list[int], list[int]]:
    """Numerator parts divided by their integer content."""
    re, im = _split(num)
    g = int_gcd(*re, *im)
    if g != 1:
        re = [x // g for x in re]
        im = [y // g for y in im]
    return re, im


def _gi_exact_div_all(r, d: tuple[int, int]) -> tuple[list[int], list[int]]:
    """Every coefficient of r divided by the Gaussian integer d, which must
    divide each one exactly."""
    rr, ri = r
    dr, di = d
    if di:
        n = dr * dr + di * di
        rr, ri = ([x * dr + y * di for x, y in zip(rr, ri)],
                  [y * dr - x * di for x, y in zip(rr, ri)])
    else:
        n = dr
    if any(x % n for x in rr) or any(y % n for y in ri):
        raise AssertionError("subresultant division failed")
    return [x // n for x in rr], [y // n for y in ri]


def _gi_prem(a, b) -> tuple[list[int], list[int]]:
    """Standardized pseudo-remainder over Z[i]: lead(b)**(da-db+1) * a mod b.

    The full power of lead(b) is applied even when intermediate
    cancellations skip reduction steps, as the subresultant divisor
    formulas assume the standardized scaling.
    """
    rr, ri = list(a[0]), list(a[1])
    br, bi = b
    db = len(br) - 1
    lr, li = br[-1], bi[-1]
    steps = 0
    target = len(rr) - db
    n = len(rr)
    while n > db:
        tr, ti = rr[n - 1], ri[n - 1]
        shift = n - 1 - db
        for j in range(shift):
            rr[j], ri[j] = rr[j] * lr - ri[j] * li, rr[j] * li + ri[j] * lr
        for j in range(db + 1):
            x, y, k = br[j], bi[j], j + shift
            rr[k], ri[k] = (rr[k] * lr - ri[k] * li - tr * x + ti * y,
                            rr[k] * li + ri[k] * lr - tr * y - ti * x)
        n -= 1
        while n and not rr[n - 1] and not ri[n - 1]:
            n -= 1
        steps += 1
    del rr[n:], ri[n:]
    if n and steps < target:
        rr, ri = _scale(rr, ri, *_gi_pow((lr, li), target - steps))
    return rr, ri


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        raise ValueError("lcm with the zero polynomial")
    return (p * q).exact_div(poly_gcd(p, q)).monic()


def gcd_of(polys) -> Poly | None:
    """Monic gcd of the nonzero polynomials in polys, by a running gcd that
    stops at 1 (a nonzero constant); None when all of them vanish."""
    acc = None
    for p in polys:
        if p._num:
            acc = p if acc is None else poly_gcd(acc, p)
            if len(acc._num) == 1:
                return _ONE
    return None if acc is None else acc.monic()


def monic_fraction(den: Poly, nums) -> tuple[Poly, tuple[Poly, ...]]:
    """The fraction nums / den with den made monic: every numerator is
    divided by den's leading coefficient c in integers, as 1/c = den's
    denominator times u / n for the u with (lead numerator) * u = n > 0."""
    nums = tuple(nums)
    if den.is_monic():
        return den, nums
    if not den._num:
        raise ZeroDivisionError("fraction with a zero denominator")
    ur, ui, lead = _to_positive(*den._num[-1])
    ur, ui = ur * den._den, ui * den._den
    return den.monic(), tuple(_reduce(p._den * lead, *_scale(*_split(p._num), ur, ui))
                              for p in nums)


def cleared_fraction(den: Poly, nums) -> tuple[Poly, tuple[Poly, ...]]:
    """The canonical form of nums / den, den nonzero: the common factor of
    den and every numerator (``gcd_of``) divided out, then den made monic
    (``monic_fraction``).  ``RatFun`` and ``RatMat`` both reduce here."""
    nums = tuple(nums)
    g = gcd_of((den, *nums))
    if not g.is_one():
        den = den.exact_div(g)
        nums = tuple(p.exact_div(g) if p._num else p for p in nums)
    return monic_fraction(den, nums)


def deflated_at_points(den, nums, points):
    """nums / den (Gaussian-integer coefficient lists, ascending pairs, []
    for zero; den's lead nonzero) with each z - p, p in points, divided out
    (``_deflate``) while den and every numerator vanish at p; no gcd."""
    for point in points:
        re, im, d = scalar_parts(point)
        root = _lowest((re, im), (d, 0))
        while (quotient := _deflate(den, *root)) is not None:
            deflated = [m and _deflate(m, *root) for m in nums]
            if None in deflated:
                break
            den, nums = quotient, deflated
    return den, nums


def monic_lists(den, nums) -> tuple[Poly, tuple[Poly, ...]]:
    """The canonical form of nums / den, Gaussian-integer coefficient lists
    with no common factor (as ``deflated_at_points`` leaves them where a
    lemma names the only factors): den made monic."""
    ur, ui, lead = _to_positive(*den[-1])
    return (_reduce(lead, *_scale(*_split(den), ur, ui)),
            tuple(_reduce(lead, *_scale(*_split(m), ur, ui)) for m in nums))


@lru_cache(maxsize=4096)
def gaussian_roots(p: Poly) -> tuple[tuple[tuple[GaussianRational, int], ...], Poly]:
    """All roots of p in Q(i) with multiplicities, plus the unsplit cofactor.

    Roots are first guessed on the square-free part (``_guessed_roots``)
    and each guess is confirmed exactly; whatever stays unsplit is then
    searched with candidates p/q built from Z[i] divisors of its trailing
    and leading numerators, which proves that no root in Q(i) is left.  A
    candidate is confirmed by dividing it out (``_deflate``), as often as
    it divides unless p is square-free.  The returned data satisfies
    lead * prod (z - r)^m * cofactor == p exactly; the cofactor is monic
    (constant 1 when p splits over Q(i)), and the roots are sorted by
    ``Point.sort_key``.
    """
    if p.is_zero():
        raise ValueError("root extraction from the zero polynomial")
    roots: list[tuple[GaussianRational, int]] = []
    work = p.monic()
    # strip roots at the origin first so the trailing coefficient is nonzero
    zero_mult = order_of(work._num)
    if zero_mult:
        work = _make(work._den, work._num[zero_mult:])
        roots.append((ZERO, zero_mult))
    if not work.is_constant():
        common = poly_gcd(work, _derivative(work))
        simple = common.is_constant()
        work = _divide_out(work, _guessed_roots(work if simple else work.exact_div(common)),
                           simple, roots)
        if not work.is_constant():
            work = _divide_out(work, _divisor_roots(work), simple, roots)
    roots.sort(key=lambda rm: Point(rm[0]).sort_key())
    return tuple(roots), work


def _divide_out(work: Poly, candidates, simple: bool,
                roots: list[tuple[GaussianRational, int]]) -> Poly:
    """work with every candidate (num, den) that is a root divided out, at
    its multiplicity (1 when work is square-free); each root found is
    appended to roots."""
    for num, den in candidates:
        if work.is_constant():
            break
        quotient = _deflate(work._num, num, den)
        if quotient is None:
            continue
        mult = 1
        while not simple and len(quotient) > 1:
            again = _deflate(quotient, num, den)
            if again is None:
                break
            quotient, mult = again, mult + 1
        work = _reduce(1, *_split(quotient)).monic()
        (nr, ni), (dr, di) = num, den
        roots.append((GaussianRational.from_parts(nr * dr + ni * di, ni * dr - nr * di,
                                                  dr * dr + di * di), mult))
    return work


def _deflate(ints, num: tuple[int, int], den: tuple[int, int]):
    """Synthetic division over Z[i]: the Gaussian-integer quotient Q with
    P == (den * z - num) * Q for P given by ints (ascending pairs), or None
    when num/den is not a root of P.  With gcd(num, den) a unit, the divisor
    is primitive, so by Gauss's lemma Q has Gaussian-integer coefficients
    exactly when num/den is a root, and a division that is not exact ends
    the search."""
    pr, pi = num
    qr, qi = den
    norm = qr * qr + qi * qi
    n = len(ints) - 1
    out = [(0, 0)] * n
    # Q_{k-1} = (a_k + num * Q_k) / den from the top; the last sum is the
    # remainder a_0 + num * Q_0
    ar, ai = ints[n]
    for k in range(n - 1, -1, -1):
        if qi:
            ar, ai = ar * qr + ai * qi, ai * qr - ar * qi
            if ar % norm or ai % norm:
                return None
            br, bi = ar // norm, ai // norm
        else:
            if ar % qr or ai % qr:
                return None
            br, bi = ar // qr, ai // qr
        out[k] = (br, bi)
        cr, ci = ints[k]
        ar, ai = cr + pr * br - pi * bi, ci + pr * bi + pi * br
    return out if not ar and not ai else None


def _lowest(num: tuple[int, int], den: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """num/den with their Gaussian gcd divided out.  A common prime factor
    would divide both norms, so coprime norms skip the Gaussian gcd."""
    if int_gcd(num[0] * num[0] + num[1] * num[1], den[0] * den[0] + den[1] * den[1]) == 1:
        return num, den
    g = gi_gcd(num, den)
    return gi_exact_div(num, g), gi_exact_div(den, g)


def _guessed_roots(squarefree: Poly) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Candidates (num, den) over Z[i], in lowest terms, for the roots of
    the square-free polynomial ``squarefree``.

    A linear one gives its root exactly.  Otherwise the roots are located
    in floating point, by the closed form for a quadratic and by
    ``_complex_roots`` from degree 3.  A root (x + y*i) / d in lowest terms
    has d dividing the norm N of the leading numerator, so each coordinate
    of a guess is replaced by the nearest fraction with a denominator up to
    N (capped where doubles stop telling fractions apart;
    ``_nearest_fraction``).  Simple roots keep the guesses accurate enough
    for that.
    """
    ints = squarefree._num
    lr, li = ints[-1]
    if len(ints) == 2:
        return [_lowest((-ints[0][0], -ints[0][1]), (lr, li))]
    n = lr * lr + li * li
    try:
        monic = [complex((x * lr + y * li) / n, (y * lr - x * li) / n) for x, y in reversed(ints)]
    except OverflowError:
        return []
    cap = min(n, _GUESS_DENOMINATOR_CAP)
    out = []
    for z in _quadratic_roots(*monic[1:]) if len(monic) == 3 else _complex_roots(monic):
        if not (isfinite(z.real) and isfinite(z.imag)):
            continue
        xn, xd = _nearest_fraction(*z.real.as_integer_ratio(), cap)
        yn, yd = _nearest_fraction(*z.imag.as_integer_ratio(), cap)
        d = lcm(xd, yd)
        num, den = (xn * (d // xd), yn * (d // yd)), (d, 0)
        out.append((num, den) if d == 1 else _lowest(num, den))
    return out


def _quadratic_roots(b: complex, c: complex) -> list[complex]:
    """The roots of z**2 + b*z + c by the closed form, the larger one
    without cancellation and the other from their product c.  Overflow
    leaves non-finite guesses, which are passed over; the larger root is 0
    only when b and c (nonzero, as roots at the origin are stripped first)
    both underflow."""
    s = cmath.sqrt(b * b - 4 * c)
    big = (-b - s) / 2 if b.real * s.real + b.imag * s.imag >= 0 else (-b + s) / 2
    return [big, c / big] if big else [big]


def _nearest_fraction(n: int, d: int, cap: int) -> tuple[int, int]:
    """The fraction nearest n/d with a denominator at most cap, in lowest
    terms, for d > 0 and gcd(n, d) == 1: the continued-fraction rule of
    ``Fraction.limit_denominator`` (the last convergent, or the
    semiconvergent beyond it when that is strictly nearer), in integers."""
    if d <= cap:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    x, y = n, d
    while True:
        a = x // y
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        x, y = y, x - a * y
    k = (cap - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, cross-multiplied by d q1 q2
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


# beyond about 2**24 a double no longer separates neighbouring fractions
# with denominators that large from a guess's rounding error
_GUESS_DENOMINATOR_CAP = 1 << 24
# Aberth steps before giving up: planted roots spread over seven decades
# take up to about 45, the polynomials of the workloads about 10
_ABERTH_STEPS = 100


def _complex_roots(monic: list[complex]) -> list[complex]:
    """Roots of the monic polynomial ``monic`` (highest power first), by
    Aberth-Ehrlich iteration (Aberth 1973) from a circle about as wide as
    the largest root; each root stops once its value is within Horner's
    rounding error.  Overflow and zero divisors end the iteration without
    raising: what has not converged is a guess the exact check rejects."""
    n = len(monic) - 1
    radius = max((abs(c) ** (1 / k) for k, c in enumerate(monic) if k), default=0.0)
    z = [cmath.rect(radius, 2 * cmath.pi * k / n + 0.5) for k in range(n)]
    moving = set(range(n))
    try:
        for _ in range(_ABERTH_STEPS):
            for k in sorted(moving):
                x = z[k]
                p, dp, bound = 1, 0, 1.0
                for c in monic[1:]:
                    dp = dp * x + p
                    p = p * x + c
                    bound = bound * abs(x) + abs(c)
                if abs(p) <= 4 * ulp(1.0) * bound:
                    moving.discard(k)
                    continue
                s = sum(1 / (x - y) for j, y in enumerate(z) if j != k)
                z[k] = x - p / (dp - p * s)
            if not moving:
                break
    except (OverflowError, ZeroDivisionError):
        pass
    return z


_DIVISOR_PAIRS_CAP = 1 << 17  # about 4 s on a 2-vCPU host for a cubic with no root


def _divisor_roots(work: Poly) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Every candidate p/q (q a canonical associate) with p dividing the
    trailing and q the leading numerator of work, one at a time.

    A candidate can come up more than once; after its root has been
    divided out, a repeat no longer divides and is passed over.  More
    than _DIVISOR_PAIRS_CAP divisor pairs raise InputTooLargeError.
    """
    ints = work._num
    trailing, leading = gi_factor(ints[0]), gi_factor(ints[-1])
    count = prod(e + 1 for factors in (trailing, leading) for e in factors.values())
    if count > _DIVISOR_PAIRS_CAP:
        raise InputTooLargeError(
            f"the Q(i) root search would try {count} divisor pairs (limit {_DIVISOR_PAIRS_CAP})")
    nums = gi_divisors_up_to_units(trailing)
    for den in gi_divisors_up_to_units(leading):
        for num in nums:
            g = gi_gcd(num, den)
            rnum = gi_exact_div(num, g)
            rden = canonical_associate(gi_exact_div(den, g))
            for unit in UNITS:
                yield gi_mul(rnum, unit), rden


def _derivative(p: Poly) -> Poly:
    re, im = _split(p._num)
    return _reduce(p._den, [k * x for k, x in enumerate(re)][1:],
                   [k * y for k, y in enumerate(im)][1:])


def require_split(p: Poly, context: str = "") -> tuple[tuple[GaussianRational, int], ...]:
    """Roots of p requiring a complete split over Q(i)."""
    roots, cofactor = gaussian_roots(p)
    if not cofactor.is_constant():
        where = f" in {context}" if context else ""
        raise NonGaussianPoleError(
            f"locations outside Q(i){where}: irreducible cofactor {cofactor}"
        )
    return roots
