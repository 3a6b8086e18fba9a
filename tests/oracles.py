"""Independent brute-force oracles used to cross-check the structural code.

These deliberately avoid the library's gcd-chain route: determinants are
expanded over permutations, denominators are cleared with a plain product
(not an lcm), multiplicities are extracted by repeated synthetic division,
and point degrees come from minimum minor valuations via the partial-sum
identity (the sorted diagonal valuations d_1 <= ... <= d_k of the
canonical form satisfy d_1 + ... + d_k = min valuation over k x k minors).
"""

from itertools import combinations, permutations

from specfactor import Poly, RatFun, RatMat, Point
from specfactor.scalars import GaussianRational


def perm_sign(perm) -> int:
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
        total = total + term * GaussianRational(perm_sign(perm))
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


# Plain coefficient-list polynomial reference: ascending lists of
# GaussianRational with no trailing zeros, built only from scalar
# arithmetic, so it shares no code with Poly's integer kernels.


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
