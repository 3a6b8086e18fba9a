"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed.  The generators are kept
apart from the test helpers on purpose: editing a test must not shift a
workload.  They build inputs only from constructors and products
(``Point``, ``RatFun``, ``RatMat``, ``make_elementary``), none of which
touch the library's memo caches, so a freshly started worker still sees
cold caches after building its inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from specfactor import INFINITY, Point, Poly, RatFun, RatMat, make_elementary
from specfactor.linsolve import matrix_rank
from specfactor.scalars import GaussianRational

# Off-circle poles in Q(i), split by kind.  No element is the conjugate
# reciprocal 1/conj(p) of another (infinity pairs with 0, which is absent),
# so a product of elementary factors with distinct poles from the pools has
# additive McMillan degree and the Potapov peel must return exactly one
# factor per pole.
REAL_POLES = (Point(2), Point(-3), Point(Fraction(5, 2)), Point(Fraction(1, 3)))
COMPLEX_POLES = (
    Point(GaussianRational(1, 1)),
    Point(GaussianRational(0, 2)),
    Point(GaussianRational(-3, 1)),
    Point(GaussianRational(Fraction(1, 2), Fraction(-1, 2))),
)

# Disjoint real pole and zero pools for the cancellation pairs.
CANCEL_POLE_POOL = tuple(GaussianRational(x) for x in (2, -3, Fraction(1, 2), Fraction(-5, 3), 4))
CANCEL_ZERO_POOL = tuple(
    GaussianRational(x) for x in (5, Fraction(1, 3), -1, Fraction(7, 2), Fraction(-2, 7)))

# (numerator, denominator) degrees of the diagonal core entries
CORE_DEGREES = ((1, 3), (3, 1), (1, 1))


def _direction(rng: random.Random, side: int) -> list[GaussianRational]:
    while True:
        v = [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(side)]
        if any(not x.is_zero() for x in v):
            return v


def peel_case(rng: random.Random, side: int, k: int) -> RatMat:
    """Product of k <= 6 elementary all-pass factors with distinct poles.

    The kinds of pole are fixed by k (infinity when k is even, then half
    the rest complex) and only the poles of each kind, their order and the
    directions are drawn: the kinds set most of the cost of a peel.
    """
    at_infinity = 1 - k % 2
    n_complex = (k - at_infinity) // 2
    poles = (rng.sample(REAL_POLES, k - at_infinity - n_complex)
             + rng.sample(COMPLEX_POLES, n_complex) + [INFINITY] * at_infinity)
    rng.shuffle(poles)
    mat = None
    for pole in poles:
        u = make_elementary(pole, _direction(rng, side))
        mat = u if mat is None else mat * u
    return mat


def _full_rank_constant(rng: random.Random, rows: int, cols: int) -> RatMat:
    while True:
        grid = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if matrix_rank([[GaussianRational(x) for x in row] for row in grid]) == min(rows, cols):
            return RatMat(grid)


def _diagonal_core(rng: random.Random, degrees) -> RatMat:
    """Diagonal of split rational entries with the given (num, den) degrees."""
    diag = []
    for num_deg, den_deg in degrees:
        num = Poly.one()
        den = Poly.one()
        for z in rng.sample(CANCEL_ZERO_POOL, num_deg):
            num = num * Poly.linear(z)
        for p in rng.sample(CANCEL_POLE_POOL, den_deg):
            den = den * Poly.linear(p)
        diag.append(RatFun(num, den))
    return RatMat.diagonal(diag)


def cancel_pair(rng: random.Random, n: int, r: int, m: int) -> tuple[RatMat, RatMat]:
    """(G, H) with rank(G) = cols(G) = rows(H) = rank(H) = r.

    G is n x r and H is r x m, each a diagonal core of split rational
    entries between constant full-rank matrices, so both keep full inner
    rank while the product can cancel poles against zeros.  Core entries
    have fixed degrees up to 3 (only the pole and zero locations are
    drawn), which keeps the cost of a shape nearly the same from seed to
    seed.
    """
    g_core = _diagonal_core(rng, [CORE_DEGREES[i % 3] for i in range(r)])
    h_core = _diagonal_core(rng, [CORE_DEGREES[(i + 1) % 3] for i in range(r)])
    g = _full_rank_constant(rng, n, r) * g_core * _full_rank_constant(rng, r, r)
    h = h_core * _full_rank_constant(rng, r, m)
    return g, h
