"""Independent brute-force oracles used to cross-check the structural code.

These deliberately avoid the library's gcd-chain route: determinants are
expanded over permutations, denominators are cleared with a plain product
(not an lcm), multiplicities are extracted by repeated synthetic division,
and point degrees come from minimum minor valuations via the partial-sum
identity (the sorted diagonal valuations d_1 <= ... <= d_k of the
canonical form satisfy d_1 + ... + d_k = min valuation over k x k minors),
and Laurent leading coefficients come from the same division and exact
evaluation.  The cleared form of a matrix is rebuilt from its reduced
entries, one lcm at a time, without ``ratmat``.  Hermitian matrices with a
planted spectrum are built from a Householder reflector, not from an
eigenvalue routine.  Gaussian rationals are checked against a pair of
``Fraction``s (``RefGaussian``), not against the integer layout.  The
Potapov peel is replayed with entrywise factors, the leading-coefficient
oracle and plain ``RatMat`` products (``ref_peel``).
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from specfactor import ElementaryFactor, Poly, RatFun, RatMat, Point
from specfactor.poly import poly_gcd
from specfactor.scalars import GaussianRational


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutation_det(rows):
    n = len(rows)
    total = Poly.zero()
    for perm in permutations(range(n)):
        term = Poly.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term * GaussianRational(_perm_sign(perm))
    return total


def synthetic_multiplicity(p: Poly, alpha: GaussianRational) -> int:
    count = 0
    factor = Poly.linear(alpha)
    while not p.is_constant():
        q, r = divmod(p, factor)
        if not r.is_zero():
            break
        p = q
        count += 1
    return count


def _product_cleared(mat: RatMat):
    """Clear denominators with a plain product; any common polynomial d with
    d*G polynomial is equally valid for the minor valuation formulas."""
    d = Poly.one()
    for row in mat.entries:
        for e in row:
            if not e.is_zero():
                d = d * e.den
    n = [
        [e.num * d.exact_div(e.den) if not e.is_zero() else Poly.zero() for e in row]
        for row in mat.entries
    ]
    return d, n


def cleared_from_entries(grid):
    """(d, N) for a grid of reduced rational functions: d the monic lcm of
    the entry denominators and N_ij the entry times d."""
    d = Poly.one()
    for row in grid:
        for e in row:
            d = (d * e.den).exact_div(poly_gcd(d, e.den)).monic()
    return d, tuple(tuple(e.num * d.exact_div(e.den) for e in row) for row in grid)


def _reciprocal_entry(e: RatFun) -> RatFun:
    """Entrywise substitution z -> 1/z written out longhand."""
    if e.is_zero():
        return e
    num_r = Poly(tuple(reversed(e.num.coeffs)))
    den_r = Poly(tuple(reversed(e.den.coeffs)))
    dn = int(e.num.degree)
    dd = int(e.den.degree)
    z = Poly.variable()
    if dd >= dn:
        return RatFun(num_r * z ** (dd - dn), den_r)
    return RatFun(num_r, den_r * z ** (dn - dd))


def brute_point_degrees(mat: RatMat, point: Point):
    """(zero degree, pole degree) of the matrix at the point."""
    if point.is_infinite:
        flipped = RatMat([[_reciprocal_entry(e) for e in row] for row in mat.entries])
        return brute_point_degrees(flipped, Point(0))
    alpha = point.value
    d, n = _product_cleared(mat)
    d_mult = synthetic_multiplicity(d, alpha)
    rows, cols = mat.rows, mat.cols
    partial_min = 0
    nu_last = 0
    rank = 0
    for k in range(1, min(rows, cols) + 1):
        best = None
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = permutation_det([[n[i][j] for j in csel] for i in rsel])
                if minor.is_zero():
                    continue
                val = synthetic_multiplicity(minor, alpha)
                if best is None or val < best:
                    best = val
        if best is None:
            break
        rank = k
        nu_last = best - k * d_mult
        partial_min = min(partial_min, nu_last)
    if rank == 0:
        raise ValueError("zero matrix")
    pole = -partial_min
    zero = nu_last + pole
    return zero, pole


def _strip_root(p: Poly, alpha: GaussianRational):
    """(k, q) with p = (z - alpha)**k * q and q(alpha) != 0, by repeated
    exact division."""
    factor = Poly.linear(alpha)
    k = 0
    while True:
        q, r = divmod(p, factor)
        if not r.is_zero():
            return k, p
        p, k = q, k + 1


def laurent_leading(mat: RatMat, point: Point):
    """Leading coefficient matrix of the Laurent expansion at the point:
    each entry's coefficient at the least order over all entries, else 0.
    Orders come from repeated division by (z - alpha), coefficients from
    evaluating what is left; infinity is moved to 0 by z -> 1/z."""
    if point.is_infinite:
        mat = RatMat([[_reciprocal_entry(e) for e in row] for row in mat.entries])
        point = Point(0)
    alpha = point.value
    terms = []
    for row in mat.entries:
        out = []
        for e in row:
            if e.is_zero():
                out.append(None)
                continue
            a, num = _strip_root(e.num, alpha)
            b, den = _strip_root(e.den, alpha)
            out.append((a - b, RatFun(num, den).eval(alpha)))
        terms.append(out)
    least = min(t[0] for row in terms for t in row if t is not None)
    zero = GaussianRational(0)
    return [[t[1] if t is not None and t[0] == least else zero for t in row]
            for row in terms]


def _has_pole(mat: RatMat, point: Point) -> bool:
    """Whether a reduced entry has a pole at the point."""
    entries = [e for row in mat.entries for e in row if not e.is_zero()]
    if point.is_infinite:
        return any(e.num.degree > e.den.degree for e in entries)
    return any(e.den.eval(point.value).is_zero() for e in entries)


def ref_peel(v: RatMat):
    """The Potapov peel by the textbook route: at each pole of V, smallest
    first, while what is left W has a pole there, the first nonzero column
    of W's Laurent leading coefficient (``laurent_leading``) is the
    direction and W becomes U~ W, with U built entry by entry
    (``elementary_oracle``) and U~ its paraconjugate transpose.  What is
    left is the constant C, and as V = U_0 ... U_{K-1} C, each direction
    d becomes C* d.  Returns C and the (pole, direction) pairs.  The peel
    stores each step's direction in the form ``ElementaryFactor`` gives a
    ray, which can differ from the column by a unit as well as a positive
    rational, and conjugates that, so the steps take the same form here."""
    work, steps = v, []
    for pole in v.pole_points():
        while _has_pole(work, pole):
            column = next(col for col in zip(*laurent_leading(work, pole))
                          if any(not x.is_zero() for x in col))
            column = ElementaryFactor(pole, column).v
            steps.append((pole, column))
            work = elementary_oracle(pole, column).paraconj_transpose() * work
    c = work.constant_values()
    zero = GaussianRational(0)
    return work, [(pole, [sum((c[j][k].conj() * d[j] for j in range(v.rows)), zero)
                          for k in range(v.rows)]) for pole, d in steps]


# Plain coefficient-list polynomial reference: ascending lists of
# GaussianRational with no trailing zeros, built only from scalar
# arithmetic, so it shares no code with Poly's integer kernels.


def elementary_oracle(alpha: Point, v) -> RatMat:
    """U = I + (b - 1) v v* / (v* v), entry by entry, with the Blaschke
    kernel b = (1 - conj(alpha) z) / (z - alpha) written out (b = z at
    infinity) and each entry a reduced ``RatFun``."""
    if alpha.is_infinite:
        b = RatFun(Poly([0, 1]))
    else:
        a = alpha.value
        b = RatFun(Poly([1, -a.conj()]), Poly([-a, 1]))
    v = [x if isinstance(x, GaussianRational) else GaussianRational(x) for x in v]
    norm = sum((x * x.conj() for x in v), GaussianRational(0))
    shift = b - RatFun.one()
    return RatMat([[(RatFun.one() if i == j else RatFun.zero())
                    + shift * RatFun.constant(vi * vj.conj() / norm)
                    for j, vj in enumerate(v)] for i, vi in enumerate(v)])


def ref_trim(coeffs):
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [GaussianRational(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def ref_divmod(a, b):
    """Schoolbook long division by the leading coefficient's inverse."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    if len(a) < len(b):
        return [], ref_trim(rem)
    quot = [GaussianRational(0)] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / lead
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return ref_trim(quot), ref_trim(rem[: len(b) - 1])


def ref_eval(a, x):
    """Horner evaluation."""
    acc = GaussianRational(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_matmul(a: RatMat, b: RatMat) -> RatMat:
    """Matrix product as entry-by-entry sums of reduced RatFun products,
    each partial sum reduced on its own (no shared denominators)."""
    return RatMat(
        [
            [
                sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)), RatFun.zero())
                for j in range(b.cols)
            ]
            for i in range(a.rows)
        ]
    )


def ref_factor(n: int) -> dict[int, int]:
    """Prime factorization of the integer n >= 1 by plain trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Plain Gauss-Jordan over GaussianRational: pivots are the first nonzero
# entry of each column and every row operation divides by the pivot, so it
# shares no code with the fraction-free kernel in linsolve.


def _ref_rref(rows, width):
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_rank(a) -> int:
    if not a:
        return 0
    return len(_ref_rref([list(row) for row in a], len(a[0]))[1])


def ref_solve(a, b):
    """Solve a X = b over Q(i): (particular solution n x k, nullspace basis
    as length-n vectors), or None when the system is inconsistent."""
    zero, one = GaussianRational(0), GaussianRational(1)
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b and b[0] else 0
    rows, pivots = _ref_rref([list(a[i]) + list(b[i]) for i in range(m)], n)
    for i in range(len(pivots), m):
        if any(not x.is_zero() for x in rows[i][n:]):
            return None
    particular = [[zero] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        for j in range(k):
            particular[c][j] = rows[r][n + j]
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [zero] * n
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    return particular, basis


def householder_hermitian(eigenvalues, v):
    """Q diag(eigenvalues) Q* as nested lists of complex numbers, for the
    Householder reflector Q = I - 2 v v* / (v* v), which is unitary."""
    n = len(eigenvalues)
    vv = sum(abs(x) ** 2 for x in v)
    q = [[(i == j) - 2 * v[i] * v[j].conjugate() / vv for j in range(n)] for i in range(n)]
    return [[sum(q[i][k] * eigenvalues[k] * q[j][k].conjugate() for k in range(n))
             for j in range(n)] for i in range(n)]


class RefGaussian:
    """Reference Gaussian rational: a pair of ``Fraction``s with schoolbook
    field arithmetic.  It shares no code with ``specfactor.scalars``, which
    keeps integers over one denominator; the text forms are the documented
    ones (``re`` then ``+im*i``, ``GaussianRational(re, im)`` for repr)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x) -> "RefGaussian":
        return x if isinstance(x, RefGaussian) else RefGaussian(x)

    def conj(self):
        return RefGaussian(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re ** 2 + self.im ** 2

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def inverse(self):
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return RefGaussian(self.re / n, -self.im / n)

    def __add__(self, other):
        o = RefGaussian.of(other)
        return RefGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -RefGaussian.of(other)

    def __rsub__(self, other):
        return RefGaussian.of(other) + -self

    def __mul__(self, other):
        o = RefGaussian.of(other)
        return RefGaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * RefGaussian.of(other).inverse()

    def __rtruediv__(self, other):
        return RefGaussian.of(other) * self.inverse()

    def __eq__(self, other):
        o = RefGaussian.of(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to its real part when real, so it hashes like that Fraction;
        # otherwise like the integers (a, b, d) of (a + b*i) / d in lowest terms
        if not self.im:
            return hash(self.re)
        d = lcm(self.re.denominator, self.im.denominator)
        return hash((int(self.re * d), int(self.im * d), d))

    def __str__(self):
        if self.is_zero():
            return "0"
        text = str(self.re) if self.re else ""
        if self.im:
            text += ("+" if text and self.im > 0 else "") + f"{self.im}*i"
        return text

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# Reference point maps on RefGaussian, with None for the point at infinity.


def ref_abs_vs_one(z) -> int:
    """-1, 0 or 1 as |z| is below, on or above 1; infinity is above."""
    if z is None:
        return 1
    n = z.abs2()
    return (n > 1) - (n < 1)


def ref_symplectic_pair(z):
    """1/z, with 0 and infinity swapped."""
    if z is None:
        return RefGaussian(0)
    return None if z.is_zero() else z.inverse()


def ref_conj_pair(z):
    """1/conj(z), with 0 and infinity swapped."""
    w = ref_symplectic_pair(z)
    return None if w is None else w.conj()


def ref_sort_key(z) -> tuple:
    """(|z|^2, re, im) after a 0 flag; infinity flagged 1, after all."""
    if z is None:
        return (1, 0, 0, 0)
    return (0, z.abs2(), z.re, z.im)
