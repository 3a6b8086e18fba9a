"""Rational matrix-valued functions over Q(i).

The structural queries all reduce to exact polynomial arithmetic:

* ``normal_rank`` uses fraction-free (Bareiss) elimination on a cleared
  polynomial matrix,
* ``sm_structure`` computes the Smith-McMillan diagonal through
  determinantal divisors: write G = N/d with N polynomial, take monic gcds
  D_k of all k x k minors of N, divide consecutive divisors to get the
  invariant polynomials, and reduce against d,
* pole/zero degrees at a finite point sum multiplicities across the
  diagonal; at infinity the matrix is re-expanded in 1/z and the degrees
  are read at 0,
* ``minimal_right_inverse`` solves for a right inverse whose denominators
  divide the zero polynomial of G (so its poles can only sit on zeros of G,
  with bounded degrees) and then verifies exact pole/zero degree matching.

Minor enumeration is exponential in the matrix size; the intended scale is
dimensions <= 6 and entry degrees <= 12.

All values are immutable and operations are pure functions, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatchError,
    MinimalInverseError,
    RankDeficiencyError,
    ZeroMatrixError,
)
from .linsolve import solve_linear
from .poly import Poly, gaussian_roots, poly_gcd, poly_lcm, require_split
from .ratfun import RatFun
from .scalars import GaussianRational, INFINITY, Point, ZERO


def _coerce_entry(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, GaussianRational, Poly)):
        return RatFun(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


class RatMat:
    """Immutable dense matrix of rational functions."""

    __slots__ = ("_entries", "_rows", "_cols", "_hash")

    def __init__(self, entries):
        grid = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrices must have positive dimensions")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix literal")
        self._entries = grid
        self._rows = len(grid)
        self._cols = width
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> RatMat:
        return cls(
            [[RatFun.one() if i == j else RatFun.zero() for j in range(n)] for i in range(n)]
        )

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
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[tuple[RatFun, ...], ...]:
        return self._entries

    def entry(self, i: int, j: int) -> RatFun:
        return self._entries[i][j]

    def __getitem__(self, key) -> RatFun:
        i, j = key
        return self._entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._entries for e in row)

    def is_square(self) -> bool:
        return self._rows == self._cols

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self._entries for e in row)

    def constant_values(self) -> list[list[GaussianRational]]:
        return [[e.constant_value() for e in row] for row in self._entries]

    def has_real_coeffs(self) -> bool:
        return all(e.has_real_coeffs() for row in self._entries for e in row)

    def __add__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        self._require_same_shape(other)
        return RatMat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        self._require_same_shape(other)
        return RatMat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._entries, other._entries)
            ]
        )

    def __neg__(self) -> RatMat:
        return RatMat([[-e for e in row] for row in self._entries])

    def __mul__(self, other):
        if isinstance(other, RatMat):
            if self._cols != other._rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self._rows}x{self._cols} by {other._rows}x{other._cols}"
                )
            cols_t = list(zip(*other._entries))
            out = []
            for row in self._entries:
                out.append(
                    [
                        sum((a * b for a, b in zip(row, col)), RatFun.zero())
                        for col in cols_t
                    ]
                )
            return RatMat(out)
        try:
            s = _coerce_entry(other)
        except TypeError:
            return NotImplemented
        return RatMat([[e * s for e in row] for row in self._entries])

    def __rmul__(self, other):
        try:
            s = _coerce_entry(other)
        except TypeError:
            return NotImplemented
        return RatMat([[s * e for e in row] for row in self._entries])

    def _require_same_shape(self, other: RatMat):
        if self._rows != other._rows or self._cols != other._cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self._rows}x{self._cols} vs {other._rows}x{other._cols}"
            )

    def transpose(self) -> RatMat:
        return RatMat(list(zip(*self._entries)))

    def paraconj_transpose(self) -> RatMat:
        """Entrywise paraconjugation followed by transposition; an involution."""
        return RatMat(
            [[self._entries[j][i].paraconj() for j in range(self._rows)] for i in range(self._cols)]
        )

    def reciprocal_subs(self) -> RatMat:
        """Entrywise substitution z -> 1/z (no conjugation, no transpose)."""
        return RatMat([[e.reciprocal_subs() for e in row] for row in self._entries])

    def eval_complex(self, z: complex) -> list[list[complex]]:
        return [[e.eval_complex(z) for e in row] for row in self._entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._entries == other._entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._rows, self._cols, self._entries))
        return self._hash

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self._entries) + "]"

    def __repr__(self) -> str:
        return f"RatMat({self._rows}x{self._cols})[{self}]"

    # -- polynomial normalizations -------------------------------------------------

    def cleared(self) -> tuple[Poly, list[list[Poly]]]:
        """Monic common denominator d and polynomial matrix N with G = N/d."""
        d, n = _cleared_cached(self)
        return d, [list(row) for row in n]

    # -- structural queries --------------------------------------------------------

    def normal_rank(self) -> int:
        """Rank over the field of rational functions (rank almost everywhere)."""
        return _normal_rank(self)

    def determinant(self) -> RatFun:
        if not self.is_square():
            raise DimensionMismatchError("determinant of a non-square matrix")
        d, n = self.cleared()
        det_n = _poly_det(n)
        return RatFun(det_n) / RatFun(d) ** self._rows

    def sm_structure(self) -> SMStructure:
        """Smith-McMillan diagonal data (rank and coprime fraction chains)."""
        return _sm_of(self)

    def pole_degree(self, point: Point) -> int:
        if point.is_infinite:
            return self.reciprocal_subs().pole_degree(Point(0))
        sm = self.sm_structure()
        return sum(psi.multiplicity(point) for psi in sm.psi)

    def zero_degree(self, point: Point) -> int:
        if point.is_infinite:
            return self.reciprocal_subs().zero_degree(Point(0))
        sm = self.sm_structure()
        return sum(eps.multiplicity(point) for eps in sm.eps)

    def mcmillan_degree(self) -> int:
        """Total pole degree over the extended plane."""
        sm = self.sm_structure()
        if sm.psi:
            require_split(sm.pole_polynomial(), "pole locations")
        finite = sum(int(psi.degree) for psi in sm.psi)
        return finite + self.pole_degree(INFINITY)

    def finite_pole_points(self, strict: bool = True) -> tuple[Point, ...]:
        """Finite pole locations in Q(i); with strict=True a location outside
        Q(i) raises, otherwise it is silently dropped."""
        sm = self.sm_structure()
        prod_psi = sm.pole_polynomial()
        if prod_psi.is_constant():
            return ()
        if strict:
            roots = require_split(prod_psi, "pole locations")
        else:
            roots, _ = gaussian_roots(prod_psi)
        return tuple(Point(r) for r, _ in roots)

    def finite_zero_points(self, strict: bool = True) -> tuple[Point, ...]:
        sm = self.sm_structure()
        prod_eps = sm.zero_polynomial()
        if prod_eps.is_constant():
            return ()
        if strict:
            roots = require_split(prod_eps, "zero locations")
        else:
            roots, _ = gaussian_roots(prod_eps)
        return tuple(Point(r) for r, _ in roots)

    def has_pole_at_infinity(self) -> bool:
        return any(
            e.num.degree > e.den.degree
            for row in self._entries
            for e in row
            if not e.is_zero()
        )

    # -- right inverses --------------------------------------------------------------

    def minimal_right_inverse(self) -> RatMat:
        """A right inverse whose pole degrees equal the zero degrees of G.

        The inverse X is sought in the form Y/m where m is the zero
        polynomial of G (the product of the numerator invariants), with the
        degree of Y capped so poles at infinity cannot exceed the zero
        degree of G at infinity.  Matching G * X = I then becomes an exact
        linear system in the coefficients of Y.  A solvable system yields a
        right inverse whose poles are trapped on the zeros of G; exact
        degree equality is verified afterwards.  An inconsistent system
        means no such right inverse exists for this matrix.
        """
        r, n = self._rows, self._cols
        if self.normal_rank() != r:
            raise RankDeficiencyError(
                f"minimal right inverse needs full row rank {r}, got {self.normal_rank()}"
            )
        if r == n:
            # the unique two-sided inverse, via the adjugate; automatically
            # minimal but verified like everything else
            candidate = self._inverse_square()
            if not self._is_minimal_inverse(candidate):
                raise MinimalInverseError("square inverse failed degree verification")
            return candidate
        sm = self.sm_structure()
        m = sm.zero_polynomial()
        dz_inf = self.zero_degree(INFINITY)
        d, nmat = self.cleared()
        target = d * m
        deg_y = int(m.degree) + dz_inf
        deg_n = max(
            (int(p.degree) for row in nmat for p in row if not p.is_zero()), default=0
        )
        height = max(deg_n + deg_y, int(target.degree)) + 1
        width = n * (deg_y + 1)
        a = []
        for i in range(r):
            for t in range(height):
                row = [ZERO] * width
                for k in range(n):
                    p = nmat[i][k]
                    if p.is_zero():
                        continue
                    for s in range(deg_y + 1):
                        if 0 <= t - s <= int(p.degree):
                            row[k * (deg_y + 1) + s] = p.coefficient(t - s)
                a.append(row)
        b = []
        for i in range(r):
            for t in range(height):
                b.append([target.coefficient(t) if i == j else ZERO for j in range(r)])
        solved = solve_linear(a, b)
        if solved is None:
            raise MinimalInverseError(
                "no right inverse exists with poles confined to the zeros"
            )
        particular, basis = solved

        def build(coeff_grid) -> RatMat:
            entries = []
            for k in range(n):
                row = []
                for j in range(r):
                    cs = [coeff_grid[k * (deg_y + 1) + s][j] for s in range(deg_y + 1)]
                    row.append(RatFun(Poly(cs), m))
                entries.append(row)
            return RatMat(entries)

        candidate = build(particular)
        if self._is_minimal_inverse(candidate):
            return candidate
        # a special solution can undershoot the required pole degrees at
        # points where G carries both a pole and a zero; a generic element
        # of the solution space attains them
        rng = random.Random(0x5EEDED)
        for _ in range(25):
            mixed = [row[:] for row in particular]
            for vec in basis:
                c = GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2))
                for idx in range(width):
                    if not vec[idx].is_zero():
                        for j in range(r):
                            mixed[idx][j] = mixed[idx][j] + c * vec[idx]
            candidate = build(mixed)
            if self._is_minimal_inverse(candidate):
                return candidate
        raise MinimalInverseError(
            "right inverse found but exact pole/zero degree matching failed"
        )

    def _inverse_square(self) -> RatMat:
        d, nmat = self.cleared()
        n = self._rows
        det = _poly_det(nmat)
        if det.is_zero():
            raise RankDeficiencyError("square matrix is singular")
        if n == 1:
            return RatMat([[RatFun(d, nmat[0][0])]])
        det_rf = RatFun(det)
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [nmat[a][b] for b in range(n) if b != i]
                    for a in range(n)
                    if a != j
                ]
                cof = _poly_det(minor)
                if (i + j) % 2:
                    cof = -cof
                row.append(RatFun(d * cof) / det_rf)
            entries.append(row)
        return RatMat(entries)

    def _is_minimal_inverse(self, x: RatMat) -> bool:
        if (self * x) != RatMat.identity(self._rows):
            return False
        sm_g = self.sm_structure()
        sm_x = x.sm_structure()
        if sm_x.pole_polynomial() != sm_g.zero_polynomial():
            return False
        return x.pole_degree(INFINITY) == self.zero_degree(INFINITY)


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

    def diagonal(self) -> list[RatFun]:
        return [RatFun(e, p) for e, p in zip(self._eps, self._psi)]

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
    d = Poly.one()
    for row in mat.entries:
        for e in row:
            if not e.is_zero():
                d = poly_lcm(d, e.den)
    n = tuple(
        tuple(e.num * d.exact_div(e.den) if not e.is_zero() else Poly.zero() for e in row)
        for row in mat.entries
    )
    return d, n


def point_degrees_by_valuation(mat: RatMat, point: Point) -> tuple[int, int]:
    """(zero degree, pole degree) at one point from minor valuations only.

    Sorted ascending, the diagonal valuations d_1 <= ... <= d_r of the
    Smith-McMillan form satisfy d_1 + ... + d_k = min valuation over k x k
    minors, so the pole degree is -min(0, nu_1, ..., nu_r) and the zero
    degree is nu_r plus the pole degree.  No polynomial gcds are needed,
    which makes this the fast route for repeated pointwise queries; the
    gcd-chain route through ``sm_structure`` is the reference one.
    """
    if mat.is_zero():
        raise ZeroMatrixError("degrees of the zero matrix are undefined")
    d, n = _cleared_cached(mat)
    at_infinity = point.is_infinite
    if at_infinity:
        d_mult = -int(d.degree)
    else:
        d_mult = d.multiplicity(point)
    running_min = 0
    nu_last = 0
    rank = 0
    for k in range(1, min(mat.rows, mat.cols) + 1):
        best: int | None = None
        for rows_sel in itertools.combinations(range(mat.rows), k):
            for cols_sel in itertools.combinations(range(mat.cols), k):
                sub = [[n[i][j] for j in cols_sel] for i in rows_sel]
                det = _poly_det(sub)
                if det.is_zero():
                    continue
                val = -int(det.degree) if at_infinity else det.multiplicity(point)
                if best is None or val < best:
                    best = val
                    if not at_infinity and best == 0:
                        break
            if best == 0 and not at_infinity:
                break
        if best is None:
            break
        rank = k
        nu_last = best - k * d_mult
        running_min = min(running_min, nu_last)
    if rank == 0:
        raise ZeroMatrixError("degrees of the zero matrix are undefined")
    pole = -running_min
    zero = nu_last + pole
    return zero, pole


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
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    a = [list(row) for row in rows]
    prev = Poly.one()
    sign = 1
    for k in range(n - 1):
        pivot_row = None
        for i in range(k, n):
            if not a[i][k].is_zero():
                if pivot_row is None or a[i][k].degree < a[pivot_row][k].degree:
                    pivot_row = i
        if pivot_row is None:
            return Poly.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]).exact_div(prev)
        prev = piv
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def _row_cleared(mat: RatMat) -> list[list[Poly]]:
    out = []
    for row in mat.entries:
        lcm = Poly.one()
        for e in row:
            if not e.is_zero():
                lcm = poly_lcm(lcm, e.den)
        out.append(
            [e.num * lcm.exact_div(e.den) if not e.is_zero() else Poly.zero() for e in row]
        )
    return out


@lru_cache(maxsize=4096)
def _normal_rank(mat: RatMat) -> int:
    a = _row_cleared(mat)
    rows, cols = mat.rows, mat.cols
    prev = Poly.one()
    r = 0
    limit = min(rows, cols)
    while r < limit:
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
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
        piv = a[r][r]
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                a[i][j] = (a[i][j] * piv - a[i][r] * a[r][j]).exact_div(prev)
            a[i][r] = Poly.zero()
        prev = piv
        r += 1
    return r


@lru_cache(maxsize=4096)
def _sm_of(mat: RatMat) -> SMStructure:
    if mat.is_zero():
        raise ZeroMatrixError("the zero matrix has no Smith-McMillan structure")
    d, n = mat.cleared()
    rank = _normal_rank(mat)
    eps: list[Poly] = []
    psi: list[Poly] = []
    d_prev = Poly.one()
    row_idx = range(mat.rows)
    col_idx = range(mat.cols)
    for k in range(1, rank + 1):
        div = _minor_gcd(n, k, row_idx, col_idx)
        if div is None:
            raise AssertionError("rank and nonzero minors disagree")
        lam = div.exact_div(d_prev).monic()
        g = poly_gcd(lam, d)
        eps.append(lam.exact_div(g).monic())
        psi.append(d.exact_div(g).monic())
        d_prev = div
    return SMStructure(rank, eps, psi)


def _minor_gcd(n: list[list[Poly]], k: int, row_idx, col_idx) -> Poly | None:
    """Monic gcd of all nonzero k x k minors, None if all vanish."""
    acc: Poly | None = None
    for rows_sel in itertools.combinations(row_idx, k):
        for cols_sel in itertools.combinations(col_idx, k):
            sub = [[n[i][j] for j in cols_sel] for i in rows_sel]
            det = _poly_det(sub)
            if det.is_zero():
                continue
            if acc is None:
                acc = det.monic()
            else:
                acc = poly_gcd(acc, det)
            if acc.is_one():
                return acc
    return acc
