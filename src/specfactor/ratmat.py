"""Rational matrix-valued functions over Q(i).

A matrix G is stored as its cleared form N/d: d monic, N a polynomial
matrix and gcd(d, every entry of N) = 1.  The form is canonical (d is the
lcm of the reduced entry denominators), so equality and hashing are
structural.  Whatever builds a matrix from another one (products, sums,
paraconjugation, ``allpass``'s rank-one update, the minimal inverse) hands
over N/d and reduces it once through ``poly.cleared_fraction``, as
``RatFun`` does; a matrix built from entries works out its form once from
them.  The per-entry ``RatFun``s are derived only when something reads
them (``entries``, ``str``, JSON output).

The structural queries all reduce to exact polynomial arithmetic on N/d:

* ``normal_rank`` uses fraction-free (Bareiss) elimination on N,
* ``sm_structure`` computes the Smith-McMillan diagonal through
  determinantal divisors: take monic gcds D_k of all k x k minors of N,
  divide consecutive divisors to get the invariant polynomials, and reduce
  against d,
* pole locations (``pole_points``) are the roots of the common denominator
  d, the first Smith-McMillan pole invariant, plus infinity when N outgrows
  d (its largest entry degree, ``_top``, exceeds deg d); zero locations are
  the roots of the Smith-McMillan zero polynomial,
* pole/zero degrees at one point of the extended plane, infinity included,
  come from a local Smith form on the expansion of N about the point
  (``point_expansions``, to a given number of terms, from N's integer form
  ``_integer_form``, built once per matrix), pivoting on an entry
  of least order and working mod u**precision.  The pole degree is the
  sum of max(0, m - nu_k) over N's invariant orders nu_k, m the order of d
  there (``_den_order``), so ``pole_degree`` expands and eliminates only m
  terms, and none where d does not vanish; ``point_degrees_by_valuation``
  answers the (zero, pole) pair from max(m, 0) + 2 terms, doubling them
  until the orders found number min(rows, cols) or else the normal rank
  (min(rows, cols) * top + 1 terms, top the largest entry degree, would
  find them all, so the doubling ends).  The same m-term expansion gives
  the Laurent leading coefficient up to a positive rational,
* the McMillan degree is the sum of ``pole_degree`` over ``pole_points()``,
* ``minimal_right_inverse`` of a square G of full rank is its inverse
  d adj(N) / det(N), minimal by theorem; a wide G solves one exact Z[i]
  system, built from the same integer form of N, for right inverses with
  poles on the zeros of G; the lemma at ``_minimal_right_inverse`` decides
  by linear conditions whether its particular solution is minimal, else a
  second exact system picks one; memoized per value (32 entries).

Only ``sm_structure`` enumerates all k x k minors, which is exponential in
the matrix size; pole locations, pointwise degrees and the McMillan degree
do not use it, and the wide minimal inverse only for G's zero polynomial
and, in the lemma's open case, its candidate's.  The intended scale is
dimensions <= 6 and entry degrees <= 12.

All values are immutable and operations are pure functions, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

from .errors import (
    DimensionMismatchError,
    MinimalInverseError,
    RankDeficiencyError,
    ZeroMatrixError,
)
from .linsolve import cleared, solve_linear
from .poly import (Poly, cleared_fraction, gaussian_roots, gcd_of, monic_fraction, order_of,
                   poly_gcd, poly_lcm, require_split, taylor_numerators)
from .ratfun import RatFun, as_ratfun
from .scalars import GaussianRational, INFINITY, Point


def _coerce_entry(x) -> RatFun:
    e = as_ratfun(x)
    if e is None:
        raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
    return e


def _require_grid(grid) -> None:
    if not grid or not grid[0]:
        raise ValueError("matrices must have positive dimensions")
    if any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("ragged rows in matrix literal")


def _wrap(d: Poly, n: tuple[tuple[Poly, ...], ...]) -> RatMat:
    """A matrix from a cleared form that is already canonical."""
    m = object.__new__(RatMat)
    m._d = d
    m._n = n
    m._entries = None
    m._hash = None
    return m


def _wrap_flat(d: Poly, flat: tuple[Poly, ...], cols: int) -> RatMat:
    """``_wrap`` of N given row by row in one flat tuple."""
    return _wrap(d, tuple(flat[k:k + cols] for k in range(0, len(flat), cols)))


def _over(e: RatFun, d: Poly) -> Poly:
    """The numerator of e over a multiple d of its denominator."""
    if e.den == d:
        return e.num
    return e.num * (d if e.den.is_one() else d.exact_div(e.den))


class RatMat:
    """Immutable dense matrix of rational functions.

    Stored as its canonical cleared form N/d: d monic, N polynomial and
    gcd(d, every entry of N) = 1.  The entries are derived from it on
    request."""

    __slots__ = ("_d", "_n", "_entries", "_hash")

    def __init__(self, entries):
        grid = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
        _require_grid(grid)
        d = Poly.one()
        for row in grid:
            for e in row:
                if not e.den.is_one() and e.den != d:
                    d = poly_lcm(d, e.den)
        self._d = d
        self._n = tuple(tuple(_over(e, d) for e in row) for row in grid)
        self._entries = grid
        self._hash = None

    @classmethod
    def from_cleared(cls, d: Poly, n) -> RatMat:
        """The matrix N/d for a nonzero polynomial d and a grid N of
        polynomials, reduced once: the common factor of d and all of N is
        divided out and d made monic."""
        n = tuple(tuple(row) for row in n)
        _require_grid(n)
        if d.is_zero():
            raise ZeroDivisionError("matrix with zero denominator")
        return _wrap_flat(*cleared_fraction(d, (p for row in n for p in row)), len(n[0]))

    @classmethod
    def identity(cls, n: int) -> RatMat:
        return _wrap(Poly.one(), tuple(
            tuple(Poly.one() if i == j else Poly.zero() for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RatMat:
        return cls([[RatFun.zero()] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, diag) -> RatMat:
        diag = [_coerce_entry(x) for x in diag]
        n = len(diag)
        return cls(
            [[diag[i] if i == j else RatFun.zero() for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self._n)

    @property
    def cols(self) -> int:
        return len(self._n[0])

    @property
    def den(self) -> Poly:
        """The monic common denominator d of G = N/d."""
        return self._d

    @property
    def num(self) -> tuple[tuple[Poly, ...], ...]:
        """The polynomial matrix N of G = N/d."""
        return self._n

    @property
    def entries(self) -> tuple[tuple[RatFun, ...], ...]:
        if self._entries is None:
            d = self._d
            self._entries = tuple(tuple(RatFun(p, d) for p in row) for row in self._n)
        return self._entries

    def entry(self, i: int, j: int) -> RatFun:
        return self.entries[i][j]

    def __getitem__(self, key) -> RatFun:
        i, j = key
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return not any(p for row in self._n for p in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_constant(self) -> bool:
        return self._d.is_one() and all(p.is_constant() for row in self._n for p in row)

    def constant_values(self) -> list[list[GaussianRational]]:
        if not self.is_constant():
            raise ValueError(f"not a constant matrix: {self}")
        return [[p.coefficient(0) for p in row] for row in self._n]

    def has_real_coeffs(self) -> bool:
        return self._d.has_real_coeffs() and all(
            p.has_real_coeffs() for row in self._n for p in row)

    def __add__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        self._require_same_shape(other)
        d1, d2 = self._d, other._d
        g = poly_gcd(d1, d2)
        f1, f2 = d2.exact_div(g), d1.exact_div(g)
        return RatMat.from_cleared(d1 * f1, (
            [a * f1 + b * f2 for a, b in zip(ra, rb)] for ra, rb in zip(self._n, other._n)))

    def __sub__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> RatMat:
        return _wrap(self._d, tuple(tuple(-p for p in row) for row in self._n))

    def __mul__(self, other):
        if isinstance(other, RatMat):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols_t = list(zip(*other._n))
            return RatMat.from_cleared(self._d * other._d, (
                [sum((a * b for a, b in zip(row, col) if a and b), Poly.zero())
                 for col in cols_t] for row in self._n))
        try:
            s = _coerce_entry(other)
        except TypeError:
            return NotImplemented
        return RatMat.from_cleared(self._d * s.den, (
            [p * s.num for p in row] for row in self._n))

    __rmul__ = __mul__

    def _require_same_shape(self, other: RatMat):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def transpose(self) -> RatMat:
        return _wrap(self._d, tuple(zip(*self._n)))

    def paraconj_transpose(self) -> RatMat:
        """Entrywise paraconjugation followed by transposition; an involution."""
        return self._reciprocal(True)

    def reciprocal_subs(self) -> RatMat:
        """Entrywise substitution z -> 1/z (no conjugation, no transpose)."""
        return self._reciprocal(False)

    def _reciprocal(self, paraconj: bool) -> RatMat:
        """z**t N(1/z) over z**t d(1/z) for t the largest degree in d and N,
        conjugated and transposed for the paraconjugate.

        This is already reduced: a common factor would be the reciprocal of
        a common root of d and N, which the canonical form excludes, or z,
        which does not divide whichever of d and N has degree t.  So only
        the lead of the new d is divided out."""
        d, n, cols = self._d, self._n, self.cols
        if paraconj:
            d = d.conj_coeffs()
            n, cols = [[p.conj_coeffs() for p in col] for col in zip(*n)], self.rows
        flat = [p for row in n for p in row]
        top = max(int(p.degree) for p in (d, *flat) if p)
        return _wrap_flat(*monic_fraction(d.reversed(top), (p.reversed(top) for p in flat)), cols)

    def eval_complex(self, z: complex) -> list[list[complex]]:
        return [[e.eval_complex(z) for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._d, self._n))
        return self._hash

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"RatMat({self.rows}x{self.cols})[{self}]"

    # -- polynomial normalizations -------------------------------------------------

    def cleared(self) -> tuple[Poly, list[list[Poly]]]:
        """Monic common denominator d and polynomial matrix N with G = N/d,
        as a fresh list grid (``den`` and ``num`` read the stored form)."""
        d, n = _cleared_cached(self)
        return d, [list(row) for row in n]

    # -- structural queries --------------------------------------------------------

    def normal_rank(self) -> int:
        """Rank over the field of rational functions (rank almost everywhere)."""
        return _normal_rank(self)

    def determinant(self) -> RatFun:
        if not self.is_square():
            raise DimensionMismatchError("determinant of a non-square matrix")
        return RatFun(_poly_det(self._n)) / RatFun(self._d) ** self.rows

    def sm_structure(self) -> SMStructure:
        """Smith-McMillan diagonal data (rank and coprime fraction chains)."""
        return _sm_of(self)

    def pole_degree(self, point: Point) -> int:
        """Pole degree at one point of the extended plane (``_pole_degree``)."""
        return _pole_degree(self, point)

    def zero_degree(self, point: Point) -> int:
        return point_degrees_by_valuation(self, point)[0]

    def mcmillan_degree(self) -> int:
        """Total pole degree over the extended plane: the sum of
        ``pole_degree`` over ``pole_points()``, which raises for the zero
        matrix and for a pole outside Q(i)."""
        return sum(self.pole_degree(p) for p in self.pole_points())

    def finite_pole_points(self, strict: bool = True) -> tuple[Point, ...]:
        """Finite pole locations in Q(i); with strict=True a location outside
        Q(i) raises, otherwise it is silently dropped.

        They are the roots of the common denominator d of G = N/d: every root
        of d is a root of some reduced entry's denominator at d's full
        multiplicity, so gcd(entries of N, d) = 1 and d is the first pole
        invariant psi_1, which every other psi_k divides.  No minor is
        enumerated; only zero locations need the Smith-McMillan form.
        """
        if self.is_zero():
            raise ZeroMatrixError("the zero matrix has no Smith-McMillan structure")
        return _root_points(self._d, strict, "pole locations")

    def finite_zero_points(self, strict: bool = True) -> tuple[Point, ...]:
        return _root_points(self.sm_structure().zero_polynomial(), strict, "zeros enumeration")

    def has_pole_at_infinity(self) -> bool:
        # an entry N_ij / d reduces by a common factor of both, so its
        # numerator outgrows its denominator exactly when N_ij outgrows d:
        # when the padding degree of ``_den_order`` at infinity exceeds deg d
        return _top(self) > self._d.degree

    def pole_points(self) -> tuple[Point, ...]:
        """Every pole location, infinity last; a location outside Q(i) raises."""
        finite = self.finite_pole_points()
        return finite + (INFINITY,) if self.has_pole_at_infinity() else finite

    def laurent_leading(self, point: Point) -> list[list[GaussianRational]]:
        """The Laurent leading coefficient of G at a pole up to a positive
        rational: each entry's expansion coefficient at the least order over
        all entries times conj(c), or zero (see ``point_expansions`` and
        ``_den_order``).  The least order at a pole is below d's order m
        there, so the m-term expansion holds it.  A point that is not a
        pole raises ``ValueError``."""
        m, (cr, ci) = _den_order(self, point)
        if m <= 0:
            raise ValueError(f"no pole at {point}")
        grid = point_expansions(self, point, m)
        least = min(o for row in grid for e in row if (o := order_of(e)) is not None)

        def lead(e) -> GaussianRational:
            x, y = e[least] if len(e) > least else (0, 0)
            return GaussianRational(x * cr + y * ci, y * cr - x * ci)

        return [[lead(e) for e in row] for row in grid]

    # -- right inverses --------------------------------------------------------------

    def minimal_right_inverse(self) -> RatMat:
        """A right inverse whose pole degrees equal the zero degrees of G.

        A square G of full rank has one right inverse, its inverse, which
        is minimal (see ``_minimal_right_inverse``).  For a wide G the
        inverse X is sought in the form Y/m where m is the zero
        polynomial of G (the product of the numerator invariants), with the
        degree of Y capped so poles at infinity cannot exceed the zero
        degree of G at infinity.  Matching G * X = I then becomes an exact
        linear system in the coefficients of Y.  Each solution is a right
        inverse with poles on the zeros of G; the lemma's linear conditions
        decide if the first is minimal, else a second exact system picks
        one.  An inconsistent system means no such right inverse exists.
        """
        return _minimal_right_inverse(self)


@lru_cache(maxsize=32)
def _minimal_right_inverse(mat: RatMat) -> RatMat:
    """``RatMat.minimal_right_inverse``, memoized: the sweep asks for the
    inverse of one factor once per uniqueness check, twice per instance.
    Failures raise and are not cached.

    A square G = N/d of full rank has one right inverse, G^-1 = d adj(N) /
    det(N), and it is minimal: if U G V = diag(u^k_1, ..., u^k_r) locally
    about a point (u the local parameter, 1/z at infinity, U and V
    invertible there), then V^-1 G^-1 U^-1 = diag(u^-k_1, ..., u^-k_r), so
    G^-1's pole degree at every point of the extended plane is G's zero
    degree there.  So a square input is read off its adjugate through one
    ``RatMat.from_cleared``, with no zero polynomial, system or check; a
    wide one solves the coefficient system below.  The shape alone picks
    the route.

    Lemma, for a wide G: let X = Y/m with N Y = d m I and top the largest
    entry degree of N.  At a finite point p, X is minimal only if
    (z - p)^ord_p(m) divides every entry of Y N; at infinity, only if no
    entry of Y N has degree above deg m + max(deg d, top).  Both conditions
    also suffice wherever G has no pole, and everywhere when r <= 2.
    Proof: locally U G V = [D 0] with D = diag(u^k_i), so V^-1 X U^-1 =
    [D^-1; Z], and by minors X is minimal exactly when Z diag(u^max(k_i, 0))
    is analytic.  X G = V [I 0; Z D 0] V^-1, so X G (whose entries are
    those of Y N / (m d)) has pole order at most G's, ord_p(d), exactly
    when Z D does, which a minimal X meets.  Y/m bounds Z's pole order by
    ord_p(m), which closes the gap wherever G has no pole or its exponents
    are one positive and one negative, so in every case with r <= 2.
    Over all finite points the first condition says that m divides Y N.
    So the lemma decides: the conditions are read off the particular
    solution's Y N, and only when one fails are they solved for, once, as
    linear equations in the coefficients of the nullspace basis; an
    inconsistent system proves that no minimal inverse exists.  Only in the
    open case, r >= 3 at a point that is both a zero and a pole of G
    (gcd(m, d) non-constant, or both at infinity), is the candidate's
    Smith-McMillan form compared with m and dz_inf."""
    r, n = mat.rows, mat.cols
    if r == n:
        inverse = _adjugate_inverse(mat)
        if inverse is not None:
            return inverse
    if mat.normal_rank() != r:
        raise RankDeficiencyError(
            f"minimal right inverse needs full row rank {r}, got {mat.normal_rank()}"
        )
    m = mat.sm_structure().zero_polynomial()
    dz_inf = mat.zero_degree(INFINITY)
    grid, deg_n, n_den = _integer_form(mat)
    t_den, t_num = (mat.den * m).parts
    deg_y = int(m.degree) + dz_inf
    height = max(deg_n + deg_y, len(t_num) - 1) + 1
    width = n * (deg_y + 1)
    # G * X = I is N * Y = d m I; equation (i, t) matches the coefficients
    # of z**t in row i, both sides times the lcm of N's and d m's
    # denominators to stay in integers
    scale = lcm(n_den, t_den)
    n_scale, t_scale = scale // n_den, scale // t_den
    a, b = [], []
    for i in range(r):
        entries = [(k * (deg_y + 1), num) for k, num in enumerate(grid[i]) if num]
        for t in range(height):
            row = [(0, 0)] * width
            for col, num in entries:
                for s in range(max(0, t + 1 - len(num)), min(deg_y, t) + 1):
                    re, im = num[t - s]
                    row[col + s] = (re * n_scale, im * n_scale)
            a.append(row)
            rhs = [(0, 0)] * r
            if t < len(t_num):
                rhs[i] = (t_num[t][0] * t_scale, t_num[t][1] * t_scale)
            b.append(rhs)
    solved = solve_linear(a, b)
    if solved is None:
        raise MinimalInverseError("no right inverse exists with poles confined to the zeros")
    den, particular, basis = solved

    def column(vec) -> list[Poly]:
        """The n entries of one column of Y from its coefficient vector."""
        return [Poly.from_parts(den, vec[k:k + deg_y + 1]) for k in range(0, width, deg_y + 1)]

    ys = [column([cs[j] for cs in particular]) for j in range(r)]
    num, cap = mat.num, int(m.degree) + max(int(mat.den.degree), deg_n)

    def conditions(f: Poly) -> list[GaussianRational]:
        """The values that must vanish for an entry f of Y N: the
        coefficients of f mod m, and those of f above the cap."""
        rem = f % m
        return ([rem.coefficient(t) for t in range(int(m.degree))]
                + [f.coefficient(t) for t in range(cap + 1, deg_y + deg_n + 1)])

    # the right-hand side of the correction: the conditions on -Y N
    targets = [conditions(-sum((ys[j][k] * num[j][col] for j in range(r)), Poly.zero()))
               for k, col in itertools.product(range(n), repeat=2)]
    if any(not x.is_zero() for target in targets for x in target):
        # a double pole where G has a simple zero, say: solve for the c in
        # Y = particular + sum of c_ij basis_i e_j^T that meet the
        # conditions, one equation per condition, c_ij at index i * r + j
        bs = [column(vec) for vec in basis]
        a, b = [], []
        for (k, col), target in zip(itertools.product(range(n), repeat=2), targets):
            for row in zip(*(conditions(y[k] * num[j][col]) for y in bs for j in range(r)),
                           target):
                re, im = cleared(list(row))
                a.append(list(zip(re[:-1], im[:-1])))
                b.append([(re[-1], im[-1])])
        solved = solve_linear(a, b)
        if solved is None:
            raise MinimalInverseError(_UNMATCHED)
        den_c, c, _ = solved
        c = [GaussianRational.from_parts(*cs[0], den_c) for cs in c]
        ys = [[ys[j][k] + sum((y[k] * c[i * r + j] for i, y in enumerate(bs)), Poly.zero())
               for k in range(n)] for j in range(r)]
    candidate = RatMat.from_cleared(m, zip(*ys))
    # the open case: r >= 3 and a point that is both a zero and a pole of G
    if (r >= 3 and (not poly_gcd(m, mat.den).is_constant()
                    or dz_inf > 0 and mat.has_pole_at_infinity())
            and (candidate.sm_structure().pole_polynomial(),
                 candidate.pole_degree(INFINITY)) != (m, dz_inf)):
        raise MinimalInverseError(_UNMATCHED)
    return candidate


_UNMATCHED = "right inverse found but exact pole/zero degree matching failed"


def _adjugate_inverse(mat: RatMat) -> RatMat | None:
    """d adj(N) / det(N) for a square G = N/d, None when det(N) = 0.  The
    cofactors are the (r - 1) x (r - 1) minors by ``_poly_det``, and det(N)
    is their expansion along the first row."""
    n, size = mat.num, mat.rows

    def cofactor(i: int, j: int) -> Poly:
        minor = _poly_det([row[:j] + row[j + 1:] for k, row in enumerate(n) if k != i])
        return -minor if (i + j) % 2 else minor

    cof = ([[Poly.one()]] if size == 1 else
           [[cofactor(i, j) for j in range(size)] for i in range(size)])
    det = sum((a * c for a, c in zip(n[0], cof[0]) if a and c), Poly.zero())
    if det.is_zero():
        return None
    d = mat.den
    return RatMat.from_cleared(det, ([d * cof[i][j] for i in range(size)]
                                     for j in range(size)))


def _root_points(poly: Poly, strict: bool, context: str) -> tuple[Point, ...]:
    """The Q(i) roots of poly as points, sorted by ``Point.sort_key``."""
    if poly.is_constant():
        return ()
    roots = require_split(poly, context) if strict else gaussian_roots(poly)[0]
    return tuple(Point(r) for r, _ in roots)


class SMStructure:
    """Smith-McMillan diagonal: rank r and the coprime chains eps_i / psi_i.

    Invariants (established by construction, re-checked in the test suite):
    each pair is coprime, eps_i divides eps_{i+1} and psi_{i+1} divides
    psi_i, and all polynomials are monic.
    """

    __slots__ = ("_rank", "_eps", "_psi")

    def __init__(self, rank: int, eps, psi):
        self._rank = rank
        self._eps = tuple(eps)
        self._psi = tuple(psi)
        if len(self._eps) != rank or len(self._psi) != rank:
            raise ValueError("SM chains must have length equal to the rank")

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def eps(self) -> tuple[Poly, ...]:
        return self._eps

    @property
    def psi(self) -> tuple[Poly, ...]:
        return self._psi

    def zero_polynomial(self) -> Poly:
        """Monic product of the numerator invariants; its multiplicity at a
        point is the zero degree there."""
        p = Poly.one()
        for e in self._eps:
            p = p * e
        return p

    def pole_polynomial(self) -> Poly:
        p = Poly.one()
        for q in self._psi:
            p = p * q
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, SMStructure):
            return NotImplemented
        return self._rank == other._rank and self._eps == other._eps and self._psi == other._psi

    def __repr__(self) -> str:
        pairs = ", ".join(f"({e})/({p})" for e, p in zip(self._eps, self._psi))
        return f"SMStructure(rank={self._rank}, diag=[{pairs}])"


# -- polynomial matrix internals ---------------------------------------------------


@lru_cache(maxsize=4096)
def _cleared_cached(mat: RatMat) -> tuple[Poly, tuple[tuple[Poly, ...], ...]]:
    """The stored form behind ``RatMat.cleared``; the structural queries
    read ``den`` and ``num`` themselves."""
    return mat.den, mat.num


@lru_cache(maxsize=4096)
def _integer_form(mat: RatMat) -> tuple[tuple, int, int]:
    """N over one integer denominator: (grid, top, den) with grid each
    entry's Gaussian-integer numerators scaled to den, the lcm of the
    entries' denominators (() for zero), and top the largest entry degree
    (-1 for the zero matrix).  Only the matrix fixes them, so
    ``point_expansions``, ``_top`` and the coefficient system of
    ``_minimal_right_inverse`` read them here once per matrix rather than
    at every point, precision and row."""
    parts = [[p.parts for p in row] for row in mat.num]
    den = lcm(*(p_den for row in parts for p_den, num in row if num))

    def scaled(p_den, num):
        k = den // p_den
        return num if k == 1 else tuple((x * k, y * k) for x, y in num)

    grid = tuple(tuple(scaled(*p) for p in row) for row in parts)
    return grid, max(len(num) for row in grid for num in row) - 1, den


def _top(mat: RatMat) -> int:
    """The largest entry degree of N, the padding of ``point_expansions``
    and the test for a pole at infinity (from ``_integer_form``)."""
    return _integer_form(mat)[1]


def _den_order(mat: RatMat, point: Point) -> tuple[int, tuple[int, int]]:
    """(m, c) for G = N/d about one point of the extended plane: m is the
    order of d there and c the first nonzero coefficient of its expansion
    (at infinity, where d is reversed and padded to ``_top``, m = top -
    deg d and c is d's lead numerator).  Only d is expanded.

    m > 0 exactly at a pole: gcd(d, N) = 1 leaves an entry of N nonzero at
    a root of d, and at infinity m > 0 says some entry outgrows d."""
    if mat.is_zero():
        raise ZeroMatrixError("degrees of the zero matrix are undefined")
    d_num = mat.den.parts[1]
    if point.is_infinite:
        return _top(mat) - (len(d_num) - 1), d_num[-1]
    d_exp = taylor_numerators(d_num, point.value, len(d_num) - 1, len(d_num))
    m = order_of(d_exp)
    return m, d_exp[m]


def point_expansions(mat: RatMat, point: Point, terms: int):
    """The entries of N about one point of the extended plane, mod u**terms.

    The entries, cleared to one integer denominator and padded to the
    largest entry degree so that one scalar scales them all, come from the
    memo ``_integer_form``; each is expanded about the point (at infinity:
    reversed), and only its first ``terms`` coefficients are computed
    (Gaussian-integer pair lists, [] for zero).  With ``_den_order`` they
    give G = grid / (c u**m + ...) up to a positive rational.
    """
    grid, top, _ = _integer_form(mat)
    if point.is_infinite:
        return [[([(0, 0)] * (top + 1 - len(num)) + [*reversed(num)])[:terms] if num else []
                 for num in row] for row in grid]
    alpha = point.value
    return [[taylor_numerators(num, alpha, top, terms) if num else [] for num in row]
            for row in grid]


@lru_cache(maxsize=4096)
def point_degrees_by_valuation(mat: RatMat, point: Point) -> tuple[int, int]:
    """(zero degree, pole degree) at one point from a local Smith form.

    Local elimination on ``point_expansions`` gives the orders nu_k of N's
    invariant factors at the point; the pole degree is the sum of
    max(0, m - nu_k), the zero degree that of max(0, nu_k - m), with m from
    ``_den_order``.  The zero degree needs every order, so the precision P
    adapts: it starts at max(m, 0) + 2 and doubles until the orders are
    complete.  Elimination mod u**P finds exactly the orders below P, so
    they are complete once they number min(rows, cols), a free test, or
    else the normal rank (``_normal_rank``, memoized), asked only then: a
    full-rank query runs no Bareiss step.  The loop ends: the orders sum
    to that of a nonzero minor of size rank, a polynomial of degree at most
    rank * top, so none reaches min(rows, cols) * top + 1 and every order
    is found once P passes that bound.  ``RatMat.pole_degree`` takes the
    cheaper route of ``_pole_degree``.  The independent reference is
    ``tests/oracles.brute_point_degrees``.
    """
    m, _ = _den_order(mat, point)
    side = min(mat.rows, mat.cols)
    precision = max(m, 0) + 2
    while True:
        orders = _local_smith_orders(point_expansions(mat, point, precision), precision)
        if len(orders) == side or len(orders) == _normal_rank(mat):
            break
        precision *= 2
    return sum(max(0, nu - m) for nu in orders), sum(max(0, m - nu) for nu in orders)


@lru_cache(maxsize=4096)
def _pole_degree(mat: RatMat, point: Point) -> int:
    """``RatMat.pole_degree``: the sum of max(0, m - nu_k) counts only the
    invariant orders below m, so the expansion and the elimination stop at
    m terms, and where d does not vanish (m <= 0) N is not expanded."""
    m, _ = _den_order(mat, point)
    if m <= 0:
        return 0
    return sum(m - nu for nu in _local_smith_orders(point_expansions(mat, point, m), m))


def _local_smith_orders(grid, terms: int) -> list[int]:
    """Ascending orders below ``terms`` at u = 0 of the invariant factors of
    a matrix of Gaussian-integer polynomials in u known mod u**terms (pair
    lists, all zero or [] for zero).

    Each step pivots on an entry p of least order v (no later entry goes
    lower) and turns every other row x into (p/u^v)*x - (x[c]/u^v)*pivot
    row; p/u^v is a unit at u = 0, so no column operation is needed.  Every
    entry left has order at least v, so p/u^v and x[c]/u^v are needed only
    mod u**(terms - v), and the new rows are exact mod u**terms."""
    rows = [[(order_of(e), e) for e in row] for row in grid]
    orders: list[int] = []
    while rows:
        floor = orders[-1] if orders else 0
        pivot = None
        for cand in ((o, i, j) for i, row in enumerate(rows)
                     for j, (o, _) in enumerate(row) if o is not None):
            if pivot is None or cand[0] < pivot[0]:
                pivot = cand
                if cand[0] == floor:
                    break
        if pivot is None:
            break
        v, pi, pj = pivot
        orders.append(v)
        top = rows.pop(pi)
        unit = top[pj][1][v:]
        for i, row in enumerate(rows):
            if row[pj][0] is None:
                rows[i] = row[:pj] + row[pj + 1:]
                continue
            f = row[pj][1][v:]
            new = [_cross(unit, a, f, b, terms)
                   for j, ((_, a), (_, b)) in enumerate(zip(row, top)) if j != pj]
            rows[i] = [(order_of(e), e) for e in new]
    return orders


def _cross(p, a, f, b, terms: int) -> list[tuple[int, int]]:
    """p*a - f*b mod u**terms for polynomials in u given as Gaussian-integer
    pairs."""
    n = max(len(p) + len(a), len(f) + len(b)) - 1
    re = [0] * n
    im = [0] * n
    for x, y, s in ((p, a, 1), (f, b, -1)):
        for i, (xr, xi) in enumerate(x):
            xr, xi = s * xr, s * xi
            if xi:
                for k, (yr, yi) in enumerate(y, i):
                    re[k] += xr * yr - xi * yi
                    im[k] += xr * yi + xi * yr
            elif xr:
                for k, (yr, yi) in enumerate(y, i):
                    re[k] += xr * yr
                    im[k] += xr * yi
    n = min(n, terms)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    return list(zip(re[:n], im[:n]))


def _poly_det(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return (
            a * (e * i - f * h)
            - b * (d * i - f * g)
            + c * (d * h - e * g)
        )
    rank, last = _bareiss([list(row) for row in rows])
    return last if rank == n else Poly.zero()


def _bareiss(a: list[list[Poly]]) -> tuple[int, Poly]:
    """Fraction-free elimination of a in place, pivoting on an entry of
    least degree; the rank and the last pivot, signed by the swaps.

    Each pivot is a leading minor of the permuted matrix, so for a square
    matrix of full rank the signed last pivot is the determinant.
    """
    rows, cols = len(a), len(a[0])
    prev = Poly.one()
    sign = 1
    r = 0
    while r < min(rows, cols):
        pivot = None
        for i in range(r, rows):
            for j in range(r, cols):
                if a[i][j].is_zero():
                    continue
                if pivot is None or a[i][j].degree < a[pivot[0]][pivot[1]].degree:
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            sign = -sign
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        piv = a[r][r]
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                a[i][j] = (a[i][j] * piv - a[i][r] * a[r][j]).exact_div(prev)
        prev = piv
        r += 1
    return r, prev if sign == 1 else -prev


@lru_cache(maxsize=4096)
def _normal_rank(mat: RatMat) -> int:
    return _bareiss([list(row) for row in mat.num])[0]


@lru_cache(maxsize=4096)
def _sm_of(mat: RatMat) -> SMStructure:
    if mat.is_zero():
        raise ZeroMatrixError("the zero matrix has no Smith-McMillan structure")
    d, n = mat.den, mat.num
    rank = _normal_rank(mat)
    eps: list[Poly] = []
    psi: list[Poly] = []
    d_prev = Poly.one()
    for k in range(1, rank + 1):
        div = _minor_gcd(n, k)
        if div is None:
            raise AssertionError("rank and nonzero minors disagree")
        lam = div.exact_div(d_prev).monic()
        g = poly_gcd(lam, d)
        eps.append(lam.exact_div(g).monic())
        psi.append(d.exact_div(g).monic())
        d_prev = div
    return SMStructure(rank, eps, psi)


def _minor_gcd(n: list[list[Poly]], k: int) -> Poly | None:
    """Monic gcd of all nonzero k x k minors, None if all vanish (``gcd_of``,
    which stops computing minors once the gcd is 1)."""
    return gcd_of(_poly_det([[n[i][j] for j in cols_sel] for i in rows_sel])
                  for rows_sel in itertools.combinations(range(len(n)), k)
                  for cols_sel in itertools.combinations(range(len(n[0])), k))
