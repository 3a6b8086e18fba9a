"""Exact dense linear algebra over Q(i) for small systems.

Fraction-free Gauss-Jordan elimination over the Gaussian integers (Bareiss
1968, in the Gauss-Jordan form of Nakos, Turner and Williams 1997).  Entries
are Gaussian integers ``(re, im)``, the numerator layout of the integer
``Poly``; a matrix with rational entries is cleared row by row first, each
row times the lcm of its entries' denominators, which changes neither its
rank nor the solutions of a system.

At each pivot p every other row, above and below, becomes
``(p * row - f * pivot_row) / prev``, where f is the row's entry in the
pivot column and prev the previous pivot (1 at the start).  By Sylvester's
identity every entry is then a minor of the input, so the division is
exact in Z[i], and every earlier pivot entry grows into the current pivot.
At the end all pivots equal the last pivot d and ``rows / d`` is the
reduced row echelon form.

Only the live columns are updated: every column that is not yet a pivot
column, right-hand sides included.  A pivot column holds its pivot in one
row and 0 in the others, and after its step nothing reads it again:
``solve_linear`` reads only the free and right-hand-side columns, and
``matrix_rank`` only the pivot list.  So each step takes its pivot column
out of every row.  When every imaginary part of the system is zero, so is
every minor, and the update runs on the real parts alone; the imaginary
parts stay zero.  The complex update skips the division when the previous
pivot is 1; a unit such as -1 or i still has to be divided out.

The pivot is the first nonzero entry of its column, so the pivot columns
are those of plain elimination over Q(i): each is the first column
independent of the columns before it.  The reduced row echelon form is
unique, so the solutions read off ``rows / d`` are exactly those of plain
elimination, and only the particular solution and the nullspace basis are
converted, to numerators over the positive integer N(d).
"""

from __future__ import annotations

from math import lcm

from .scalars import GaussianRational, scalar_parts

GInt = tuple[int, int]
Row = tuple[list[int], list[int]]


def _eliminate(rows: list[Row], width: int) -> tuple[list[int], GInt]:
    """Fraction-free Gauss-Jordan on the first ``width`` columns of rows,
    each a pair (real parts, imaginary parts), in place; returns the pivot
    columns and the last pivot d.  Each pivot column is taken out of every
    row, so the rows keep only the live columns, in order: the non-pivot
    columns among the first ``width`` (the t-th at place t) and then the
    rest, and rows / d is the reduced form on them."""
    pivots: list[int] = []
    qr, qi = 1, 0
    m = len(rows)
    real = not any(any(im) for _, im in rows)
    for c in range(width):
        r = len(pivots)
        j = c - r  # column c's place among the live columns
        for i in range(r, m):
            if rows[i][0][j] or rows[i][1][j]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        ure, uim = rows[r]
        pr, pi = ure.pop(j), uim.pop(j)
        norm = qr * qr + qi * qi
        for i in range(m):
            if i == r:
                continue
            xre, xim = rows[i]
            fr, fi = xre.pop(j), xim.pop(j)
            if real:
                rows[i] = ([(pr * a - fr * u) // qr for a, u in zip(xre, ure)], xim)
                continue
            re = [pr * a - pi * b - fr * u + fi * v
                  for a, b, u, v in zip(xre, xim, ure, uim)]
            im = [pr * b + pi * a - fr * v - fi * u
                  for a, b, u, v in zip(xre, xim, ure, uim)]
            if qi:
                rows[i] = ([(a * qr + b * qi) // norm for a, b in zip(re, im)],
                           [(b * qr - a * qi) // norm for a, b in zip(re, im)])
            elif qr != 1:
                rows[i] = ([a // qr for a in re], [b // qr for b in im])
            else:
                rows[i] = (re, im)
        pivots.append(c)
        qr, qi = pr, pi
        if len(pivots) == m:
            break
    return pivots, (qr, qi)


def cleared(row: list[GaussianRational]) -> Row:
    """The row times the lcm of its denominators, as Gaussian integers."""
    parts = [scalar_parts(x) for x in row]
    den = lcm(*(d for _, _, d in parts))
    return [a * (den // d) for a, _, d in parts], [b * (den // d) for _, b, d in parts]


def matrix_rank(a: list[list[GaussianRational]]) -> int:
    if not a:
        return 0
    return len(_eliminate([cleared(row) for row in a], len(a[0]))[0])


def solve_linear(a: list[list[GInt]], b: list[list[GInt]]):
    """Solve a X = b exactly, for Gaussian-integer a and b.

    Scaling a row of [a | b] by a nonzero constant keeps the solutions, so
    a rational system is passed with each row cleared of its denominators.
    Returns (den, particular, basis) with den a positive integer: the
    particular solution (n x k) and the nullspace basis vectors (length n)
    are Gaussian-integer numerators over den.  Returns None when the system
    is inconsistent.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b and b[0] else 0
    if len(b) != m:
        raise ValueError("right-hand side height mismatch")
    rows = [([x for x, _ in a[i]] + [x for x, _ in b[i]],
             [y for _, y in a[i]] + [y for _, y in b[i]]) for i in range(m)]
    pivots, (dr, di) = _eliminate(rows, n)
    s = n - len(pivots)  # the right-hand side's place among the live columns
    # consistency: a zero coefficient row must have a zero right-hand side
    for re, im in rows[len(pivots):]:
        if any(re[s:]) or any(im[s:]):
            return None

    def over_norm(x: int, y: int) -> GInt:
        """The numerator of (x + y*i) / d over N(d): (x + y*i) * conj(d)."""
        return (x * dr + y * di, y * dr - x * di)

    particular = [[(0, 0)] * k for _ in range(n)]
    for (re, im), c in zip(rows, pivots):
        particular[c] = [over_norm(x, y) for x, y in zip(re[s:], im[s:])]
    pivot_set = set(pivots)
    basis = []
    for t, free in enumerate(f for f in range(n) if f not in pivot_set):
        vec = [(0, 0)] * n
        vec[free] = over_norm(dr, di)
        for (re, im), c in zip(rows, pivots):
            vec[c] = over_norm(-re[t], -im[t])
        basis.append(vec)
    return dr * dr + di * di, particular, basis
