"""Exact univariate polynomials over the Gaussian rationals.

A polynomial is stored as one positive integer denominator ``d`` and a
tuple of Gaussian-integer numerators ``(re, im)``, ascending by power of
z, so the coefficient of z**k is ``(re_k + im_k*i) / d`` (the layout of
FLINT's ``fmpq_poly``).  The form is canonical: the leading numerator is
nonzero and ``gcd(d, re_0, im_0, re_1, ...) == 1``; the zero polynomial
is the empty tuple over 1 and has degree -inf.  Canonical forms are
unique, so equality and hashing are structural.

Every arithmetic kernel runs in integers and reduces its result with one
gcd over the denominator and all numerator parts.  ``GaussianRational``
scalars appear only at the boundary: constructor arguments, ``coeffs``,
``coefficient``, ``lead`` and ``eval`` results, and the roots.

Division, gcd and multiplicity extraction are exact; root finding is
restricted to roots in Q(i) and reports the unsplit cofactor.  Floating
point only proposes root candidates there: each one is confirmed exactly,
and a divisor search over Z[i] proves that no root is missed.

Polynomials are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, inf, isfinite

from .errors import NonGaussianPoleError
from .gaussint import (
    UNITS,
    canonical_associate,
    gi_divisors_up_to_units,
    gi_exact_div,
    gi_gcd,
    gi_mul,
)
from .scalars import GaussianRational, Point, ZERO

NEG_INF = -inf


def _scalar_parts(x) -> tuple[int, int, int] | None:
    """(d, re, im) integers with x == (re + im*i) / d and d > 0."""
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
        rd, idn = re.denominator, im.denominator
        if rd == idn:
            return rd, re.numerator, im.numerator
        d = rd * idn // int_gcd(rd, idn)
        return d, re.numerator * (d // rd), im.numerator * (d // idn)
    if isinstance(x, int):
        return 1, x, 0
    if isinstance(x, Fraction):
        return x.denominator, x.numerator, 0
    return None


def _parts(x) -> tuple[int, int, int]:
    """_scalar_parts of anything GaussianRational accepts, strings included."""
    return _scalar_parts(x) or _scalar_parts(GaussianRational(x))


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
        den = 1
        for d, _, _ in parts:
            if den % d:
                den = den * d // int_gcd(den, d)
        p = _reduce(den, [x * (den // d) for d, x, _ in parts],
                    [y * (den // d) for d, _, y in parts])
        self._den = p._den
        self._num = p._num

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
        d, re, im = _parts(root)
        return _make(d, ((-re, -im), (d, 0)))

    @classmethod
    def from_roots(cls, roots) -> Poly:
        p = _ONE
        for r in roots:
            p = p * cls.linear(r)
        return p

    def _scalar(self, k: int) -> GaussianRational:
        re, im = self._num[k]
        d = self._den
        return GaussianRational(Fraction(re, d), Fraction(im, d))

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
        if isinstance(other, Poly):
            return self._add(other, 1)
        s = _coerce_poly(other)
        if s is None:
            return NotImplemented
        return self._add(s, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self._add(other, -1)
        s = _coerce_poly(other)
        if s is None:
            return NotImplemented
        return self._add(s, -1)

    def __rsub__(self, other):
        s = _coerce_poly(other)
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
            re = [0] * n
            im = [0] * n
            for i, (xr, xi) in enumerate(a):
                if xi:
                    for k, (yr, yi) in enumerate(b, i):
                        re[k] += xr * yr - xi * yi
                        im[k] += xr * yi + xi * yr
                elif xr:
                    for k, (yr, yi) in enumerate(b, i):
                        re[k] += xr * yr
                        im[k] += xr * yi
            return _reduce(self._den * other._den, re, im)
        sp = _scalar_parts(other)
        if sp is None:
            return NotImplemented
        d, sr, si = sp
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
        """Exact Horner evaluation, homogenized over alpha's denominator."""
        d, xr, xi = _parts(alpha)
        if not self._num:
            return ZERO
        ar, ai = self._num[-1]
        dpow = 1
        for cr, ci in reversed(self._num[:-1]):
            dpow *= d
            ar, ai = ar * xr - ai * xi + cr * dpow, ar * xi + ai * xr + ci * dpow
        den = self._den * dpow
        return GaussianRational(Fraction(ar, den), Fraction(ai, den))

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
        factor = Poly.linear(point.value)
        count = 0
        p = self
        while len(p._num) > 1:
            q, r = divmod(p, factor)
            if r._num:
                break
            count += 1
            p = q
        return count

    def reversed(self) -> Poly:
        """Coefficient reversal z**deg * p(1/z)."""
        num = self._num[::-1]
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
            other = _coerce_poly(other)
            if other is None:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, self._num))

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


def monic_ratio(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The pair (num / c, den / c) for c the leading coefficient of den."""
    if not den._num:
        raise ZeroDivisionError("monic ratio with a zero denominator")
    ur, ui, lead = _to_positive(*den._num[-1])
    re, im = _split(num._num)
    re, im = _scale(re, im, ur * den._den, ui * den._den)
    return _reduce(num._den * lead, re, im), den.monic()


def _coerce_poly(x) -> Poly | None:
    """A scalar as a constant polynomial; None for anything else."""
    sp = _scalar_parts(x)
    if sp is None:
        return None
    d, re, im = sp
    return _reduce(d, [re], [im])


_ZERO = _make(1, ())
_ONE = _make(1, ((1, 0),))
_Z = _make(1, ((0, 0), (1, 0)))


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


@lru_cache(maxsize=4096)
def gaussian_roots(p: Poly) -> tuple[tuple[tuple[GaussianRational, int], ...], Poly]:
    """All roots of p in Q(i) with multiplicities, plus the unsplit cofactor.

    Roots are first located in floating point on the square-free part and
    each guess is confirmed exactly; whatever stays unsplit is then searched
    with candidates p/q built from Z[i] divisors of its trailing and leading
    numerators, which proves that no root in Q(i) is left.  The returned
    data satisfies lead * prod (z - r)^m * cofactor == p exactly; the
    cofactor is monic (constant 1 when p splits over Q(i)), and the roots
    are sorted by (|r|^2, re, im).
    """
    if p.is_zero():
        raise ValueError("root extraction from the zero polynomial")
    roots: list[tuple[GaussianRational, int]] = []
    work = p.monic()
    # strip roots at the origin first so the trailing coefficient is nonzero
    zero_mult = 0
    while not work.is_constant() and work._num[0] == (0, 0):
        work = work.exact_div(Poly.variable())
        zero_mult += 1
    if zero_mult:
        roots.append((ZERO, zero_mult))
    for candidates in (_guessed_roots, _divisor_roots):
        if work.is_constant():
            break
        for num, den in candidates(work):
            if work.is_constant():
                break
            if _homogeneous_eval(work._num, num, den) != (0, 0):
                continue
            cand = GaussianRational(num[0], num[1]) / GaussianRational(den[0], den[1])
            factor = Poly.linear(cand)
            mult = 0
            while True:
                q, r = divmod(work, factor)
                if not r.is_zero():
                    break
                work = q
                mult += 1
            roots.append((cand, mult))
    roots.sort(key=lambda rm: (rm[0].abs2(), rm[0].re, rm[0].im))
    return tuple(roots), work


def _guessed_roots(work: Poly) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Candidates (num, den) over Z[i] read off the floating-point roots of
    the square-free part of work.

    A root (x + y*i) / d in lowest terms has d dividing the norm N of the
    square-free part's leading numerator, so each coordinate of a guess is
    replaced by the nearest fraction with a denominator up to N (capped
    where doubles stop telling fractions apart).  Simple roots keep the
    guesses accurate enough for that.
    """
    import numpy as np  # loaded with the package already (spectra)

    common = poly_gcd(work, _derivative(work))
    squarefree = work if common.is_constant() else work.exact_div(common)
    lr, li = squarefree._num[-1]
    n = lr * lr + li * li
    try:
        monic = [complex((x * lr + y * li) / n, (y * lr - x * li) / n)
                 for x, y in reversed(squarefree._num)]
    except OverflowError:
        return []
    cap = min(n, _GUESS_DENOMINATOR_CAP)
    out = []
    for z in np.roots(monic):
        if not (isfinite(z.real) and isfinite(z.imag)):
            continue
        re = Fraction(z.real).limit_denominator(cap)
        im = Fraction(z.imag).limit_denominator(cap)
        d = re.denominator * im.denominator // int_gcd(re.denominator, im.denominator)
        out.append(((re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)),
                    (d, 0)))
    return out


# beyond about 2**24 a double no longer separates neighbouring fractions
# with denominators that large from a guess's rounding error
_GUESS_DENOMINATOR_CAP = 1 << 24


def _divisor_roots(work: Poly) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every candidate p/q (q a canonical associate) with p dividing the
    trailing and q the leading numerator of work, each once."""
    ints = work._num
    seen: set[tuple[int, int, int, int]] = set()
    candidates: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for den in gi_divisors_up_to_units(ints[-1]):
        for num in gi_divisors_up_to_units(ints[0]):
            g = gi_gcd(num, den)
            rnum = gi_exact_div(num, g)
            rden = canonical_associate(gi_exact_div(den, g))
            for unit in UNITS:
                un = gi_mul(rnum, unit)
                key = (un[0], un[1], rden[0], rden[1])
                if key not in seen:
                    seen.add(key)
                    candidates.append((un, rden))
    return candidates


def _derivative(p: Poly) -> Poly:
    re, im = _split(p._num)
    return _reduce(p._den, [k * x for k, x in enumerate(re)][1:],
                   [k * y for k, y in enumerate(im)][1:])


def _homogeneous_eval(ints, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """q**deg * poly(p/q) over Z[i]; zero exactly when p/q is a root."""
    acc = ints[-1]
    qpow = (1, 0)
    for k in range(len(ints) - 2, -1, -1):
        qpow = gi_mul(qpow, q)
        acc = gi_mul(acc, p)
        term = gi_mul(ints[k], qpow)
        acc = (acc[0] + term[0], acc[1] + term[1])
    return acc


def require_split(p: Poly, context: str = "") -> tuple[tuple[GaussianRational, int], ...]:
    """Roots of p requiring a complete split over Q(i)."""
    roots, cofactor = gaussian_roots(p)
    if not cofactor.is_constant():
        where = f" in {context}" if context else ""
        raise NonGaussianPoleError(
            f"locations outside Q(i){where}: irreducible cofactor {cofactor}"
        )
    return roots
