"""Para-unitary (all-pass) rational matrices.

An elementary factor is U(z) = I + (b(z) - 1) P with b the Blaschke kernel
for a pole off the unit circle and P a rank-one orthogonal projection.  The
projection is stored through an unnormalized direction vector v (P equals
v v* / (v* v)), which keeps every coefficient inside Q(i); unit-norm
normalization would need square roots.  A factor acts by one rank-one
update, W + (k - 1) P W for a kernel k: ``left_multiply`` (U W) updates W
with b, ``left_divide`` (U~ W = U^-1 W) with b~ = 1/b, and ``matrix`` is
the left multiplication of the identity.  The update divides by the
integer norm v* v of the primitive direction, works on W's cleared form
N/d and hands the result's cleared form to ``RatMat.from_cleared``, which
reduces it once; no entry is reduced on its own.

``potapov_factorize`` peels a para-unitary matrix into a constant unitary
times elementary factors, one per unit of McMillan degree.  The peel order
is fixed (poles ascending by squared modulus, then lexicographically by
real and imaginary part, infinity last; direction from the first nonzero
column of the Laurent leading coefficient, cleared to a primitive Gaussian
integer vector), so factorizations are reproducible byte for byte.  That
column always lowers the degree by one (the lemma in ``potapov_factorize``),
so the peel enumerates no minors, tries no candidates and reads no pole
degree: it asks ``RatMat`` for the input's pole locations once and peels
each while what is left has a pole there, asking per step for the Laurent
leading coefficient up to a positive rational, which that clearing
removes, and taking the update U~ W (``left_divide``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import DimensionMismatchError
from .linsolve import cleared
from .poly import Poly
from .ratfun import RatFun, blaschke, blaschke_parts
from .ratmat import RatMat
from .scalars import Comparison, GaussianRational, Point, scalar_parts


def _canonical_direction(v) -> tuple[GaussianRational, ...]:
    """Primitive Gaussian-integer representative of the ray through v."""
    vec = [x if isinstance(x, GaussianRational) else GaussianRational(x) for x in v]
    if all(x.is_zero() for x in vec):
        raise ValueError("projection direction must be nonzero")
    re, im = cleared(vec)
    content = int_gcd(*re, *im)
    ints = [(a // content, b // content) for a, b in zip(re, im)]
    # rotate by a unit so the first nonzero entry has positive real part
    first = next((a, b) for a, b in ints if a or b)
    if first[0] > 0:
        unit = (1, 0)
    elif first[0] < 0:
        unit = (-1, 0)
    elif first[1] > 0:
        unit = (0, -1)
    else:
        unit = (0, 1)
    ua, ub = unit
    rotated = [(a * ua - b * ub, a * ub + b * ua) for a, b in ints]
    return tuple(GaussianRational(a, b) for a, b in rotated)


class ElementaryFactor:
    """Degree-one all-pass building block: pole location and direction vector."""

    __slots__ = ("_alpha", "_v")

    def __init__(self, alpha: Point, v):
        if not isinstance(alpha, Point):
            alpha = Point(alpha)
        if alpha.abs_vs_one() is Comparison.EQUAL:
            raise ValueError(f"elementary factor pole on the unit circle: {alpha}")
        self._alpha = alpha
        self._v = _canonical_direction(v)

    @property
    def alpha(self) -> Point:
        return self._alpha

    @property
    def v(self) -> tuple[GaussianRational, ...]:
        return self._v

    @property
    def dimension(self) -> int:
        return len(self._v)

    def _norm(self) -> int:
        """The integer v* v of the primitive direction."""
        return sum(a * a + b * b for a, b, _ in map(scalar_parts, self._v))

    def projection(self) -> list[list[GaussianRational]]:
        """The rank-one orthogonal projection v v* / (v* v); idempotent and
        Hermitian by construction."""
        norm = self._norm()
        return [[vi * vj.conj() / norm for vj in self._v] for vi in self._v]

    def _update(self, w: RatMat, kn: Poly, kd: Poly) -> RatMat:
        """W + (k - 1) P W as a rank-one update of W = N/d, for the kernel
        k = kn/kd.

        With the integer norm nv = v* v, P W is v (v* N) / (nv d), so the
        result is kd N + v (kn - kd)(v* N) / nv over kd d, reduced once;
        rows with v_i = 0 are kd N.
        """
        if w.rows != len(self._v):
            raise DimensionMismatchError("factor dimension mismatch")
        n = w.num
        shift = (kn - kd) * Fraction(1, self._norm())
        # (k - 1) (v* N)_j / nv, over kd
        updates = [
            shift * sum((row[j] * x.conj() for row, x in zip(n, self._v) if x), Poly.zero())
            for j in range(w.cols)
        ]
        return RatMat.from_cleared(w.den * kd, (
            [p * kd + u * x if x else p * kd for p, u in zip(row, updates)]
            for row, x in zip(n, self._v)))

    def matrix(self) -> RatMat:
        """U = I + (b - 1) P."""
        return self.left_multiply(RatMat.identity(len(self._v)))

    def determinant(self) -> RatFun:
        return blaschke(self._alpha)

    def left_multiply(self, w: RatMat) -> RatMat:
        """U W without forming U or a matrix product: the update of W with b."""
        return self._update(w, *blaschke_parts(self._alpha))

    def left_divide(self, w: RatMat) -> RatMat:
        """U~ W, which is U^-1 W, without forming U or a matrix product: the
        update of W with b~ = 1/b, since U~ = I + (b~ - 1) P."""
        kn, kd = blaschke_parts(self._alpha)
        c = kn.lead.inverse()
        return self._update(w, kd * c, kn * c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementaryFactor):
            return NotImplemented
        return self._alpha == other._alpha and self._v == other._v

    def __hash__(self):
        return hash((self._alpha, self._v))

    def __repr__(self) -> str:
        vs = ", ".join(str(x) for x in self._v)
        return f"ElementaryFactor(alpha={self._alpha}, v=[{vs}])"


class AllPassFactorization:
    """Constant unitary times an ordered product of elementary factors."""

    __slots__ = ("_constant", "_factors")

    def __init__(self, constant: RatMat, factors):
        if not constant.is_constant():
            raise ValueError("leading matrix of a factorization must be constant")
        if not constant.is_square() or not is_paraunitary(constant):
            raise ValueError("leading matrix of a factorization must be unitary")
        self._constant = constant
        self._factors = tuple(factors)
        for f in self._factors:
            if f.dimension != constant.rows:
                raise DimensionMismatchError("factor dimension mismatch")

    @property
    def constant(self) -> RatMat:
        return self._constant

    @property
    def factors(self) -> tuple[ElementaryFactor, ...]:
        return self._factors

    def product(self) -> RatMat:
        """C U_1 ... U_K, applying the factors right to left to the identity
        as rank-one updates and multiplying by C once."""
        acc = RatMat.identity(self._constant.rows)
        for f in reversed(self._factors):
            acc = f.left_multiply(acc)
        return self._constant * acc

    def pole_points(self) -> tuple[Point, ...]:
        return tuple(f.alpha for f in self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __repr__(self) -> str:
        return f"AllPassFactorization({len(self._factors)} factors)"


def make_elementary(alpha, v) -> RatMat:
    """The matrix I + (b(z) - 1) v v* / (v* v); para-unitary by construction."""
    return ElementaryFactor(alpha, v).matrix()


def is_paraunitary(v: RatMat) -> bool:
    """Exact check of V* V against the identity.

    For a square V over the field of rational functions, V* V = I makes V
    invertible with inverse V*, so V V* = I follows and is not formed.
    """
    if not v.is_square():
        raise DimensionMismatchError("para-unitarity is defined for square matrices")
    return v.paraconj_transpose() * v == RatMat.identity(v.rows)


def is_parahermitian(g: RatMat) -> bool:
    if not g.is_square():
        raise DimensionMismatchError("para-Hermitian symmetry is defined for square matrices")
    return g == g.paraconj_transpose()


def degree_of_factorization(f: AllPassFactorization) -> int:
    """Number of elementary factors; equals the McMillan degree of the product."""
    return len(f.factors)


def potapov_factorize(v: RatMat) -> AllPassFactorization:
    """Minimal decomposition of a para-unitary matrix into elementary factors.

    Takes deg V steps, each W -> U~ W with U the elementary factor at the
    smallest pole alpha of W in the direction of the first nonzero column
    of W's Laurent leading coefficient there.  The constant unitary tail is
    commuted to the front (conjugating each stored direction), so that
    constant * product(factors) reproduces the input exactly.

    Lemma.  Let W be square and para-unitary, alpha a pole of W (infinity
    included), A its Laurent leading coefficient there (order -k) and v any
    nonzero vector in ran A.  With U = ElementaryFactor(alpha, v), U~ W has
    McMillan degree deg W - 1: its pole degree drops by one at alpha and is
    unchanged at beta = alpha.conj_pair() and everywhere else.

    Proof.  U~ = (I - P) + b~ P is analytic and invertible off {alpha, beta};
    at alpha it is analytic and its determinant b~ has a simple zero.  So
    the ascending local orders of U~ W at alpha satisfy kappa'_i >= kappa_i
    and sum kappa' = sum kappa + 1: exactly one order rises, by one.  As
    (z - alpha)^k U~ W tends to (I - P) A at alpha (1/z for infinity), the
    count of orders equal to -k falls from rank A to rank (I - P) A =
    rank A - 1, since P projects onto v in ran A.  So the order that rises
    goes from -k to -k + 1: the pole degree at alpha drops by one and the
    zero degree there holds.  U~ W is para-unitary, and for a para-unitary
    X (X^-1 = X~) the orders at beta are the negatives of those at alpha,
    so U~ W's pole degree at beta is its zero degree at alpha, which is
    W's, which is W's pole degree at beta.  Elsewhere U~ changes no order.

    The first half never uses para-unitarity: for any square W, kappa' >=
    kappa and the count of orders equal to -k falls, so U~ W's pole degree
    at alpha is at most W's minus one, and elsewhere a pole degree can rise
    only at beta, by at most one (U~'s one pole, simple).  So the peel reads
    V's poles once, smallest first, and peels each while what is left has
    a pole there: V's degree there on para-unitary input, and within
    2 deg V steps on any square input, as the ascending order peels a
    raised beta later (|alpha| < 1) or never.  Nothing checks V~ V = I up
    front: a completed peel proves it, writing V exactly as U_0 ... U_{K-1} C
    with every U_k para-unitary by construction and C a constant that
    passes the exact unitarity check.  When a step or that check fails,
    ``is_paraunitary`` decides between "input is not para-unitary" and the
    error raised (a pole outside Q(i)).
    """
    if not v.is_square():
        raise DimensionMismatchError("para-unitarity is defined for square matrices")
    try:
        return _peel(v)
    except (ValueError, ArithmeticError):
        if not is_paraunitary(v):
            raise ValueError("input is not para-unitary") from None
        raise


def _peel(v: RatMat) -> AllPassFactorization:
    size = v.rows
    work = v
    peeled: list[tuple[Point, tuple[GaussianRational, ...]]] = []
    # V's poles, smallest first, each peeled while what is left has one there
    for pole in v.pole_points():
        while (work.has_pole_at_infinity() if pole.is_infinite
               else work.den.eval(pole.value).is_zero()):
            leading = work.laurent_leading(pole)
            column = next(col for col in zip(*leading) if any(not x.is_zero() for x in col))
            factor = ElementaryFactor(pole, column)
            peeled.append((pole, factor.v))
            work = factor.left_divide(work)
    # on para-unitary input work is now constant, and the factorization's
    # constructor checks that it is unitary
    cvals = work.constant_values()
    factors = []
    for pole, direction in peeled:
        conjugated = [
            sum((cvals[j][k].conj() * direction[j] for j in range(size)), GaussianRational(0))
            for k in range(size)
        ]
        factors.append(ElementaryFactor(pole, conjugated))
    return AllPassFactorization(work, factors)
