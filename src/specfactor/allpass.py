"""Para-unitary (all-pass) rational matrices.

An elementary factor is U(z) = I + (b(z) - 1) P with b the Blaschke kernel
for a pole off the unit circle and P a rank-one orthogonal projection.  The
projection is stored through an unnormalized direction vector v (P equals
v v* / (v* v)), which keeps every coefficient inside Q(i); unit-norm
normalization would need square roots.  A factor acts by one rank-one
update, W + (k - 1) P W for a kernel k: ``left_multiply`` (U W) updates W
with b, ``left_divide`` (U~ W = U^-1 W) with b~ = 1/b, and ``matrix`` is
the left multiplication of the identity.  The layer works on Gaussian-
integer coefficient lists alone: k is ``ratfun.blaschke_kernel``'s pair
(swapped for b~), and ``ElementaryFactor.integer_update`` takes and returns
W's state, d and N's rows over one scale, with every product from
``poly.mul_into`` and, by the lemma there, no gcd.  ``ratmat`` owns the
state: ``integer_form`` builds it and ``RatMat.from_integer_form`` inverts it.

``potapov_factorize`` peels a para-unitary matrix into a constant unitary
times elementary factors, one per unit of McMillan degree.  The peel order
is fixed (poles ascending by squared modulus, then lexicographically by
real and imaginary part, infinity last; direction from the first nonzero
column of the Laurent leading coefficient, made primitive by
``canonical_direction``), so factorizations are reproducible byte for byte.
That column always lowers the degree by one (the lemma in
``potapov_factorize``), so the peel enumerates no minors, tries no
candidates and reads no pole degree: it asks ``RatMat`` for the input's
pole locations once and peels each while what is left has a pole there.
What is left stays one such state, built once from the input, reduced but
not monic: each step reads its pole test and column from one expansion term
(``ratmat.leading_numerators``, as ``RatMat.laurent_leading`` does), takes
``integer_update``'s state and divides out its integer content.  Only the
constant tail becomes a ``RatMat``, checked unitary in integers
(``is_unitary_constant``).
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd as int_gcd

from .errors import DimensionMismatchError
from .gaussint import gi_mul
from .linsolve import cleared
from .poly import deflated_at_points, mul_into, pairs
from .ratfun import RatFun, blaschke, blaschke_kernel
from .ratmat import RatMat, integer_form, leading_numerators
from .scalars import Comparison, GaussianRational, Point


def canonical_direction(ints) -> tuple[tuple[int, int], ...]:
    """Primitive Gaussian-integer representative of the ray through the
    Gaussian-integer vector ints (pairs): content divided out, then rotated
    by a unit so the first nonzero entry has positive real part."""
    content = int_gcd(*(x for pair in ints for x in pair))
    if not content:
        raise ValueError("projection direction must be nonzero")
    first = next((a, b) for a, b in ints if a or b)
    if first[0] > 0:
        unit = (1, 0)
    elif first[0] < 0:
        unit = (-1, 0)
    elif first[1] > 0:
        unit = (0, -1)
    else:
        unit = (0, 1)
    return tuple(gi_mul((a // content, b // content), unit) for a, b in ints)


class ElementaryFactor:
    """Degree-one all-pass building block: pole location and direction vector."""

    __slots__ = ("_alpha", "_ints")

    def __init__(self, alpha: Point, v):
        if not isinstance(alpha, Point):
            alpha = Point(alpha)
        if alpha.abs_vs_one() is Comparison.EQUAL:
            raise ValueError(f"elementary factor pole on the unit circle: {alpha}")
        self._alpha = alpha
        vec = [x if isinstance(x, GaussianRational) else GaussianRational(x) for x in v]
        self._ints = canonical_direction(list(zip(*cleared(vec))))

    @property
    def alpha(self) -> Point:
        return self._alpha

    @property
    def v(self) -> tuple[GaussianRational, ...]:
        return tuple(GaussianRational.from_parts(a, b, 1) for a, b in self._ints)

    @property
    def dimension(self) -> int:
        return len(self._ints)

    def _norm(self) -> int:
        """The integer v* v of the primitive direction."""
        return sum(a * a + b * b for a, b in self._ints)

    def projection(self) -> list[list[GaussianRational]]:
        """The rank-one orthogonal projection v v* / (v* v); idempotent and
        Hermitian by construction."""
        norm = self._norm()
        v = self.v
        return [[vi * vj.conj() / norm for vj in v] for vi in v]

    def integer_update(self, den, grid, top: int, kn, kd):
        """W + (k - 1) P W for the kernel k = kn/kd and W = N/d as the state
        ``ratmat.integer_form`` gives: den (d) and grid (N's rows), Gaussian-
        integer coefficient lists over one scale, and top, N's largest entry
        degree.  With nv = v* v it is kd N + v (kn - kd)(v* N) / nv over
        kd d, times nv in integers, returned as the same state deflated at
        alpha and its partner, reduced if W is.  Its integer content stays:
        the peel, which keeps the state between steps, divides it out, and
        ``RatMat.from_integer_form`` reduces every entry anyway.

        A nonzero Gaussian integer common to den and grid, or to kn and kd,
        only scales the result, which ``from_integer_form`` removes and the
        peel reads as |lambda|**2 (``leading_numerators``).  As b~ = 1/b, b's
        lists swapped are b~'s: ``left_divide`` and the peel pass them so.

        Lemma.  The common factor of kd d and every numerator is
        (z - alpha)^a (z - beta)^b, beta = alpha.conj_pair(), over the
        finite ones.  Proof: off {alpha, beta}, U and U~ are analytic and
        invertible, so U W (U~ W) keeps W's least entry order (W = U^-1 U W
        bounds it the other way), hence the order of its reduced
        denominator, which is d's, which is kd d's (kd vanishes only at
        alpha or beta).  So z - alpha and z - beta are divided out while
        the denominator and every numerator vanish there, for any W, wide
        or zero included.
        """
        if len(grid) != len(self._ints):
            raise DimensionMismatchError("factor dimension mismatch")
        # times nv: kd N is head times the grid, v (kn - kd)(v* N) each row's
        # step times its column's v* combination, and kd d is head times den
        nv = self._norm()
        head = [(nv * x, nv * y) for x, y in kd]
        jump = [(a - c, b - e) for (a, b), (c, e) in zip_longest(kn, kd, fillvalue=(0, 0))]
        steps = [[gi_mul(x, p) for p in jump] for x in self._ints]
        conj = [((a, -b),) for a, b in self._ints]
        combos = []
        for col in zip(*grid):
            re, im = [0] * (top + 1), [0] * (top + 1)
            for x, num in zip(conj, col):
                mul_into(re, im, x, num)
            combos.append(pairs(re, im))
        size = max(len(head), len(jump)) + top
        flat = []
        for row, step in zip(grid, steps):
            for num, combo in zip(row, combos):
                re, im = [0] * size, [0] * size
                mul_into(re, im, head, num)
                mul_into(re, im, step, combo)
                flat.append(pairs(re, im))
        n = len(den) + len(head) - 1
        re, im = [0] * n, [0] * n
        mul_into(re, im, head, den)
        points = [p.value for p in (self._alpha, self._alpha.conj_pair()) if not p.is_infinite]
        den, flat = deflated_at_points(list(zip(re, im)), flat, points)
        cols = len(grid[0])
        return den, [flat[k:k + cols] for k in range(0, len(flat), cols)], max(map(len, flat)) - 1

    def _update(self, w: RatMat, kn, kd) -> RatMat:
        """``integer_update`` on W's integer form, made monic."""
        return RatMat.from_integer_form(*self.integer_update(*integer_form(w), kn, kd)[:2])

    def matrix(self) -> RatMat:
        """U = I + (b - 1) P."""
        return self.left_multiply(RatMat.identity(len(self._ints)))

    def determinant(self) -> RatFun:
        return blaschke(self._alpha)

    def left_multiply(self, w: RatMat) -> RatMat:
        """U W without forming U or a matrix product: the update of W with b."""
        return self._update(w, *blaschke_kernel(self._alpha))

    def left_divide(self, w: RatMat) -> RatMat:
        """U~ W, which is U^-1 W, without forming U or a matrix product: the
        update of W with b~ = 1/b, since U~ = I + (b~ - 1) P."""
        return self._update(w, *reversed(blaschke_kernel(self._alpha)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementaryFactor):
            return NotImplemented
        return self._alpha == other._alpha and self._ints == other._ints

    def __hash__(self):
        return hash((self._alpha, self.v))

    def __repr__(self) -> str:
        vs = ", ".join(str(x) for x in self.v)
        return f"ElementaryFactor(alpha={self._alpha}, v=[{vs}])"


def _factor(alpha: Point, ints) -> ElementaryFactor:
    """The factor at alpha with the direction ints, already canonical."""
    factor = object.__new__(ElementaryFactor)
    factor._alpha, factor._ints = alpha, ints
    return factor


class AllPassFactorization:
    """Constant unitary times an ordered product of elementary factors."""

    __slots__ = ("_constant", "_factors")

    def __init__(self, constant: RatMat, factors):
        if not constant.is_constant():
            raise ValueError("leading matrix of a factorization must be constant")
        if not constant.is_square() or not is_unitary_constant(constant):
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


def _dot(xs, ys) -> tuple[int, int]:
    """The Hermitian product sum conj(x) y of two Gaussian-integer vectors."""
    return (sum(a * c + b * d for (a, b), (c, d) in zip(xs, ys)),
            sum(a * d - b * c for (a, b), (c, d) in zip(xs, ys)))


def is_unitary_constant(c: RatMat) -> bool:
    """Exact unitarity of a constant square C, in integers: with C = M/delta
    (``integer_form``, delta > 0 its scale, d's only entry), C* C = I
    exactly when M* M = delta**2 I, one Hermitian product per pair of
    columns."""
    ((delta, _),), grid, _ = integer_form(c)
    cols = list(zip(*([num[0] if num else (0, 0) for num in row] for row in grid)))
    return all(_dot(x, y) == ((delta * delta, 0) if j == k else (0, 0))
               for j, x in enumerate(cols) for k, y in enumerate(cols))


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
    of W's Laurent leading coefficient there.  The constant unitary tail C
    is commuted to the front (each stored direction v becomes C* v), so
    that constant * product(factors) reproduces the input exactly.  W is
    kept as lambda N over lambda d, N/d its canonical form, so its leading
    column N(alpha) conj(c) carries lambda only as |lambda|^2 > 0, and C* v
    as the sum of conj(M_jk) delta v_j (C = M/delta) only |delta|^2: the
    primitive directions are the canonical ones.

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
    passes the exact unitarity check (``is_unitary_constant``).  When a
    step or that check fails,
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
    den, grid, top = integer_form(v)
    peeled = []
    # V's poles, smallest first, each peeled while what is left has one there
    for pole in v.pole_points():
        kn, kd = blaschke_kernel(pole)
        while (leading := leading_numerators(den, grid, top, pole)) is not None:
            column = next(col for col in zip(*leading) if any(x != (0, 0) for x in col))
            factor = _factor(pole, canonical_direction(column))
            peeled.append(factor)
            den, grid, top = factor.integer_update(den, grid, top, kd, kn)
            rows = [[den], *grid]
            k = int_gcd(*(x for row in rows for num in row for pair in num for x in pair))
            if k > 1:  # the integer content only scales the state
                (den,), *grid = ([[(x // k, y // k) for x, y in n] for n in row] for row in rows)
    # on para-unitary input what is left is a constant C = M / delta, and
    # the factorization's constructor checks that it is unitary
    constant = RatMat.from_integer_form(den, grid)
    delta = den[0]
    cols = list(zip(*([num[0] if num else (0, 0) for num in row] for row in grid)))
    factors = []
    for f in peeled:
        scaled = [gi_mul(delta, x) for x in f._ints]
        factors.append(_factor(f.alpha, canonical_direction([_dot(col, scaled) for col in cols])))
    return AllPassFactorization(constant, factors)
