import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specfactor import (
    INFINITY,
    ElementaryFactor,
    Point,
    Poly,
    RatFun,
    RatMat,
    SMStructure,
    blaschke,
    make_elementary,
    ratmat,
)
from specfactor.errors import (
    DimensionMismatchError,
    MinimalInverseError,
    NonGaussianPoleError,
    RankDeficiencyError,
    ZeroMatrixError,
)
from specfactor.gaussint import gi_mul
from specfactor.jsonio import ratmat_from_json, ratmat_to_json
from specfactor.linsolve import matrix_rank
from specfactor.poly import gaussian_roots, require_split
from specfactor.ratmat import _poly_det, point_degrees_by_valuation

from helpers import (M, P, RF, SAFE_POLE_POOL, gr, pt, random_elementary_product,
                     random_full_rank_pair)
from oracles import brute_point_degrees, cleared_from_entries, permutation_det, ref_matmul

GOLDEN_G = M([[1, -1]])
GOLDEN_H = M([[RF([3, 2], [2, 3, 1])], [RF([1], [2, 1])]])


def test_malformed_literals_and_cleared_forms_raise():
    with pytest.raises(ValueError, match="positive dimensions"):
        RatMat([])
    with pytest.raises(ValueError, match="ragged"):
        RatMat([[1, 2], [3]])
    with pytest.raises(ZeroDivisionError):
        RatMat.from_cleared(Poly.zero(), [[Poly.one()]])


def test_sm_structure_equality_and_repr():
    sm = GOLDEN_H.sm_structure()
    assert sm == SMStructure(1, [P(1)], [P(2, 3, 1)])
    assert sm != GOLDEN_G.sm_structure()
    assert sm != "SMStructure"
    assert repr(sm) == "SMStructure(rank=1, diag=[((1))/(z^2 + (3)*z + (2))])"


def test_golden_product():
    gh = GOLDEN_G * GOLDEN_H
    assert gh == M([[RF([1], [1, 1])]])


# denominators are products of up to two factors from a small root pool, so
# a row meets repeated denominators and distinct ones sharing a factor
_DEN_ROOTS = [gr(1), gr(-2), gr(Fraction(1, 2)), gr(0, 1), gr(1, -1)]
_coeffs = st.builds(gr, st.integers(-3, 3), st.integers(-2, 2))
_entries = st.one_of(
    st.just(RatFun.zero()),
    st.builds(
        RatFun,
        st.lists(_coeffs, max_size=3).map(Poly),
        st.lists(st.sampled_from(_DEN_ROOTS), max_size=2).map(Poly.from_roots),
    ),
)


@st.composite
def _product_pairs(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    a = RatMat([[draw(_entries) for _ in range(k)] for _ in range(n)])
    b = RatMat([[draw(_entries) for _ in range(m)] for _ in range(k)])
    return a, b


@settings(max_examples=80, deadline=None)
@given(_product_pairs())
def test_product_matches_entrywise_sum(pair):
    a, b = pair
    assert a * b == ref_matmul(a, b)


def _assert_canonical(m, grid):
    """m holds the oracle's cleared form of the entry grid and derives the
    grid's entries, and == and hash agree with the matrix rebuilt from them."""
    grid = tuple(tuple(row) for row in grid)
    assert (m.den, m.num) == cleared_from_entries(grid)
    assert m.entries == grid
    rebuilt = RatMat(m.entries)
    assert m == rebuilt and hash(m) == hash(rebuilt)


@st.composite
def _form_cases(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    a = RatMat([[draw(_entries) for _ in range(k)] for _ in range(n)])
    b = RatMat([[draw(_entries) for _ in range(m)] for _ in range(k)])
    c = RatMat([[draw(_entries) for _ in range(k)] for _ in range(n)])
    v = draw(st.lists(st.builds(gr, st.integers(-2, 2), st.integers(-1, 1)), min_size=n,
                      max_size=n).filter(lambda xs: any(not x.is_zero() for x in xs)))
    return a, b, c, draw(st.sampled_from(SAFE_POLE_POOL)), v


@settings(max_examples=80, deadline=None)
@given(_form_cases())
@example((M([[RF([1], [-1, 1])]]), M([[RF([-1, 1])]]), M([[0]]), pt(2), [gr(1)]))
def test_every_route_builds_the_canonical_cleared_form(case):
    # each result is compared with entries worked out by RatFun arithmetic
    a, b, c, alpha, v = case
    ea, eb, ec = a.entries, b.entries, c.entries
    rows, cols = a.rows, a.cols
    _assert_canonical(a * b, [[sum((ea[i][k] * eb[k][j] for k in range(cols)), RatFun.zero())
                               for j in range(b.cols)] for i in range(rows)])
    _assert_canonical(a + c, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(ea, ec)])
    _assert_canonical(a - c, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(ea, ec)])
    _assert_canonical(a.paraconj_transpose(),
                      [[ea[j][i].paraconj() for j in range(rows)] for i in range(cols)])
    # U = I + (b - 1) P and, P being Hermitian, U~ = I + (b~ - 1) P
    factor = ElementaryFactor(alpha, v)
    proj = factor.projection()
    kernel = blaschke(alpha)
    u = [[int(i == j) + (kernel - 1) * proj[i][j] for j in range(rows)] for i in range(rows)]
    u_star = [[int(i == j) + (kernel.paraconj() - 1) * proj[i][j] for j in range(rows)]
              for i in range(rows)]
    _assert_canonical(factor.matrix(), u)
    _assert_canonical(factor.left_divide(a),
                      [[sum((u_star[i][k] * ea[k][j] for k in range(rows)), RatFun.zero())
                        for j in range(cols)] for i in range(rows)])
    if rows <= cols and a.normal_rank() == rows:
        try:
            x = a.minimal_right_inverse()
        except MinimalInverseError:
            return
        _assert_canonical(x, x.entries)


def _golden_input(name: str) -> RatMat:
    path = Path(__file__).parent / "golden" / "inputs" / name
    return ratmat_from_json(json.loads(path.read_text(encoding="utf-8")))


def test_products_and_left_divide_build_no_entry(monkeypatch):
    # the entries of a derived matrix are built when read, not before
    g, h, v = (_golden_input(name) for name in ("g.json", "h.json", "v.json"))
    built = []
    init = RatFun.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFun, "__init__", spy)
    results = [g * h, v.paraconj_transpose() * v,
               ElementaryFactor(pt(2), [1, gr(0, 1)]).left_divide(v)]
    assert built == []
    for m in results:
        m.entries
    assert len(built) == sum(m.rows * m.cols for m in results)


@pytest.mark.parametrize("left, right", [("g.json", "h.json"), ("h.json", "g.json"),
                                         ("m.json", "n.json"), ("w1.json", "w.json"),
                                         ("phi.json", "v.json")])
def test_products_print_like_entry_built_matrices(left, right):
    a, b = _golden_input(left), _golden_input(right)
    m = a * b
    for other in (RatMat(m.entries), ref_matmul(a, b)):
        assert str(m) == str(other)
        assert json.dumps(ratmat_to_json(m)) == json.dumps(ratmat_to_json(other))


def test_identity_product():
    g = M([[RF([1, 1], [0, 1]), 2], [0, RF([1], [3, 1])]])
    assert g * RatMat.identity(2) == g
    assert RatMat.identity(2) * g == g


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        GOLDEN_G * GOLDEN_G


def test_paraconj_transpose():
    f = RF([-2, 1], [-3, 1])  # (z-2)/(z-3)
    w = M([[f]])
    assert w.paraconj_transpose() == M([[f.paraconj()]])
    t = M([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    assert t.paraconj_transpose() == t.transpose()
    ident = RatMat.identity(3)
    assert ident.paraconj_transpose() == ident
    g = M([[RF([1, gr(1, 1)], [2, 1]), 1], [0, RF([0, 1])]])
    assert g.paraconj_transpose().paraconj_transpose() == g


def test_normal_rank():
    assert GOLDEN_G.normal_rank() == 1
    assert RatMat.zeros(2, 3).normal_rank() == 0
    rng = random.Random(3)
    a = M([[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)])
    b = M([[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)])
    prod = a.transpose() * b  # 3x3 of rank <= 2
    assert prod.normal_rank() <= 2
    # rank oracle: evaluate at a non-pole rational point and rank the scalars
    z0 = gr(Fraction(9, 7))
    values = [[e.eval(z0) for e in row] for row in prod.entries]
    assert prod.normal_rank() == matrix_rank(values)


def test_sm_structure_scalar():
    sm = M([[RF([1], [1, 1])]]).sm_structure()
    assert sm.rank == 1
    assert sm.eps == (Poly.one(),)
    assert sm.psi == (P(1, 1),)


def test_sm_structure_golden_column():
    sm = GOLDEN_H.sm_structure()
    assert sm.rank == 1
    assert sm.eps == (Poly.one(),)
    assert sm.psi == (P(2, 3, 1),)


def test_sm_structure_elementary_factor():
    u = make_elementary(pt(2), [1, 0])
    sm = u.sm_structure()
    assert sm.rank == 2
    assert sm.eps == (Poly.one(), P(Fraction(-1, 2), 1))
    assert sm.psi == (P(-2, 1), Poly.one())


def test_sm_structure_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        RatMat.zeros(2, 2).sm_structure()


def test_sm_divisibility_chains():
    rng = random.Random(17)
    for _ in range(15):
        mat, _ = random_elementary_product(rng, 2, rng.randint(1, 3))
        scale = RF([1], [rng.choice([2, 3]), 1])
        mat = mat * scale
        sm = mat.sm_structure()
        for i in range(sm.rank):
            from specfactor.poly import poly_gcd

            assert poly_gcd(sm.eps[i], sm.psi[i]).is_one()
            assert sm.eps[i].is_monic() and sm.psi[i].is_monic()
            if i + 1 < sm.rank:
                assert (sm.eps[i + 1] % sm.eps[i]).is_zero()
                assert (sm.psi[i] % sm.psi[i + 1]).is_zero()


def test_point_degrees_golden():
    assert GOLDEN_H.pole_degree(pt(-2)) == 1
    assert GOLDEN_H.pole_degree(pt(-1)) == 1
    gh = GOLDEN_G * GOLDEN_H
    assert gh.pole_degree(pt(-2)) == 0
    assert gh.pole_degree(pt(-1)) == 1
    u = make_elementary(pt(2), [1, 1])
    assert u.zero_degree(pt(Fraction(1, 2))) == 1
    assert u.pole_degree(pt(2)) == 1


def test_degrees_match_brute_oracle():
    rng = random.Random(23)
    probes = [pt(2), pt(Fraction(1, 2)), pt(-2), pt(0), pt(1, 1), INFINITY]
    for _ in range(12):
        mat, _ = random_elementary_product(rng, 2, rng.randint(1, 3))
        for probe in probes:
            dz, dp = brute_point_degrees(mat, probe)
            assert mat.zero_degree(probe) == dz
            assert mat.pole_degree(probe) == dp
            assert point_degrees_by_valuation(mat, probe) == (dz, dp)


# roots double as probe points, so entries vanish or blow up there to high
# order; the probes include points with denominators and infinity
_LOCAL_ROOTS = [gr(0), gr(1), gr(-2), gr(Fraction(1, 2)), gr(Fraction(1, 3), Fraction(-2, 3)),
                gr(0, 1)]
_LOCAL_PROBES = [Point(r) for r in _LOCAL_ROOTS] + [pt(3), INFINITY]
# coefficients with assorted denominators, so one matrix mixes them
_local_scalars = st.builds(
    gr,
    st.fractions(-3, 3, max_denominator=6),
    st.fractions(-2, 2, max_denominator=5),
).filter(bool)
# zeros in C1 and C2 give sandwich entries of different degrees
_sparse_scalars = st.one_of(st.just(gr(0)), _local_scalars)
_factored = st.builds(
    lambda c, zeros, poles: RatFun(Poly.from_roots(zeros) * c, Poly.from_roots(poles)),
    _local_scalars,
    st.lists(st.sampled_from(_LOCAL_ROOTS), max_size=3),
    st.lists(st.sampled_from(_LOCAL_ROOTS), max_size=2),
)
_local_entries = st.one_of(
    st.just(RatFun.zero()),
    _factored,
    st.builds(RatFun, st.lists(_local_scalars, max_size=3).map(Poly),
              st.lists(st.sampled_from(_LOCAL_ROOTS), max_size=2).map(Poly.from_roots)),
)


@st.composite
def _local_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["free", "zero row", "proportional", "sandwich"]))
    if kind == "sandwich":
        # C1 diag(f_1, ..., f_k) C2 with constant C1, C2 and k <= min(rows,
        # cols): the local orders are the f_l's, and the minors only show
        # them through cancellation across entries
        k = draw(st.integers(1, min(rows, cols)))
        c1 = RatMat([[draw(_sparse_scalars) for _ in range(k)] for _ in range(rows)])
        c2 = RatMat([[draw(_sparse_scalars) for _ in range(cols)] for _ in range(k)])
        mat = c1 * RatMat.diagonal([draw(_factored) for _ in range(k)]) * c2
    else:
        grid = [[draw(_local_entries) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and kind != "free":
            # a zero row or a row proportional to another: rank deficiency
            i, j = draw(st.permutations(range(rows)))[:2]
            if kind == "zero row":
                grid[i] = [RatFun.zero()] * cols
            else:
                f = draw(_factored)
                grid[i] = [f * e for e in grid[j]]
        mat = RatMat(grid)
    assume(not mat.is_zero())
    return mat


@settings(max_examples=150, deadline=None)
@given(_local_matrices(), st.lists(st.sampled_from(_LOCAL_PROBES), min_size=1, max_size=2,
                                   unique=True))
# det = z**2 only if every entry is cleared to one integer denominator
@example(M([[RF([1, 0, 1]), Fraction(1, 2)], [2, 1]]), [pt(0)])
# det = (z - 1/2)**2 only if every entry is scaled by the same power of 2
@example(M([[RF([Fraction(5, 4), -1, 1]), 1], [1, 1]]), [pt(Fraction(1, 2))])
def test_local_smith_degrees_match_minor_oracle(mat, probes):
    for probe in probes:
        assert point_degrees_by_valuation(mat, probe) == brute_point_degrees(mat, probe)


def test_point_degrees_enumerate_no_minors(monkeypatch):
    # the pointwise route is elimination at the point: no determinant of a
    # minor and no polynomial division once the matrix is cleared
    mat = M([[RF([0, 0, 1], [-2, 1]), RF([1, 1]), 2],
             [RF([0, 1]), RF([Fraction(1, 3)], [-2, 1]), RF([0, gr(0, 1)])],
             [1, RF([-1, 0, 1], [0, 1]), RF([2, 0, 1])]])
    mat.cleared()
    misses = point_degrees_by_valuation.cache_info().misses

    def forbidden(*args):
        raise AssertionError("minor or division in the pointwise route")

    monkeypatch.setattr(ratmat, "_poly_det", forbidden)
    monkeypatch.setattr(Poly, "__divmod__", forbidden)
    got = point_degrees_by_valuation(mat, pt(0))
    monkeypatch.undo()
    assert point_degrees_by_valuation.cache_info().misses == misses + 1
    assert got == brute_point_degrees(mat, pt(0))


@settings(max_examples=80, deadline=None)
@given(_local_matrices())
@example(M([[gr(1, 2), 0, gr(Fraction(1, 3))], [gr(Fraction(-1, 6)), 1, 0]]))
@example(M([[RF([1], [0, Fraction(1, 2), 1]), RF([0, 0, gr(0, Fraction(1, 5))])],
            [0, RF([1, 1], [Fraction(-1, 3), 1])], [0, 0]]))
@example(M([[RF([0, Fraction(1, 7)], [0, Fraction(2, 3)]), RF([1, 0, 1])]]))
@example(RatMat.zeros(2, 3))
def test_integer_form_is_d_and_n_over_one_scale(g):
    # one scale L > 0, the lcm of the denominators of d and every entry of
    # N, carries both: den / L = d (monic, so den's lead is L) and
    # grid / L = N entry by entry, and from_integer_form inverts the form,
    # also after a common Gaussian-integer multiple
    den, grid, top = ratmat.integer_form(g)
    scale = den[-1][0]
    assert den[-1] == (scale, 0) and scale > 0
    assert scale == math.lcm(*(p.parts[0] for p in (g.den, *itertools.chain(*g.num))))
    assert Poly.from_parts(scale, den) == g.den
    assert [[Poly.from_parts(scale, num) for num in row] for row in grid] == [
        list(row) for row in g.num]
    assert top == max((int(p.degree) for p in itertools.chain(*g.num) if p), default=-1)
    assert RatMat.from_integer_form(den, grid) == g
    lam = (2, -3)
    assert RatMat.from_integer_form([gi_mul(lam, x) for x in den], [
        [[gi_mul(lam, x) for x in num] for num in row] for row in grid]) == g


@st.composite
def _pole_matrices(draw):
    # rows of a local matrix scaled by (z - r)**k or (z - r)**-k, k = 1..3:
    # roots of d of multiplicity 1 to 3 (more where an entry brings its
    # own), and poles at infinity from the positive powers
    mat = draw(_local_matrices())
    scale = []
    for _ in range(mat.rows):
        k = draw(st.integers(-3, 3))
        root = Poly.linear(draw(st.sampled_from(_LOCAL_ROOTS))) ** abs(k)
        scale.append(RatFun(root) if k >= 0 else RatFun(Poly.one(), root))
    return RatMat.diagonal(scale) * mat


@settings(max_examples=150, deadline=None)
@given(_pole_matrices())
def test_pole_degree_matches_minor_oracle(mat):
    # every local root (poles or not), 0, infinity and pt(3), never a pole
    for probe in _LOCAL_PROBES:
        dz, dp = brute_point_degrees(mat, probe)
        assert mat.pole_degree(probe) == dp
        assert point_degrees_by_valuation(mat, probe) == (dz, dp)


@st.composite
def _zero_matrices(draw):
    # rows of a local matrix scaled by (z - r)**k, k = -7..7: zero orders
    # far above the order m of d at r, so the precision, starting at
    # m + 2, doubles once or twice; the negative powers put zeros of the
    # same orders at infinity, and the zero-row, proportional and thin
    # sandwich local matrices are rank-deficient
    mat = draw(_local_matrices())
    scale = []
    for _ in range(mat.rows):
        k = draw(st.integers(-7, 7))
        root = Poly.linear(draw(st.sampled_from(_LOCAL_ROOTS))) ** abs(k)
        scale.append(RatFun(root) if k >= 0 else RatFun(Poly.one(), root))
    return RatMat.diagonal(scale) * mat


_z = RF([0, 1])


@settings(max_examples=80, deadline=None)
@given(_zero_matrices())
# order 7 at 0 with m = 0: the precision doubles twice, 2 -> 4 -> 8
@example(M([[_z ** 7]]))
# rank 1 of 2, order 5 at 0: the normal rank, not the side, ends the loop
@example(M([[_z ** 5, _z ** 5], [_z ** 6, _z ** 6]]))
# orders 0 and 7 at infinity, m = 0 there
@example(M([[RF([1], [-1, 1]) ** 7, 0], [0, 1]]))
def test_zero_degree_matches_minor_oracle(mat):
    for probe in _LOCAL_PROBES:
        assert point_degrees_by_valuation(mat, probe) == brute_point_degrees(mat, probe)


def _spy_expansions(monkeypatch):
    calls = []
    expand = ratmat.taylor_numerators

    def spy(num, alpha, top, terms):
        calls.append((tuple(num), terms))
        return expand(num, alpha, top, terms)

    monkeypatch.setattr(ratmat, "taylor_numerators", spy)
    ratmat._pole_degree.cache_clear()
    return calls


def test_pole_degree_at_a_non_pole_expands_only_d(monkeypatch):
    mat = M([[RF([1, 0, 2], [1, -2, 1]), RF([3, 1], [-1, 1])], [RF([0, 1], [1, 1]), 2]])
    d_num = mat.den.parts[1]
    calls = _spy_expansions(monkeypatch)
    assert mat.pole_degree(pt(3)) == 0
    assert calls == [(d_num, len(d_num))]
    # no pole at infinity: nothing is expanded at all
    calls.clear()
    assert mat.pole_degree(INFINITY) == 0
    assert calls == []


def test_pole_degree_at_a_pole_expands_n_to_m_terms(monkeypatch):
    # d = (z - 1)**3 (z + 2): m = 3 at z = 1, and N's entries have degree 4
    mat = M([[RF([1, 0, 0, 0, 1], [-1, 3, -3, 1]), RF([0, 1], [2, 1])],
             [RF([5, 1], [1, -2, 1]), RF([2, 0, 1], [-1, 1])]])
    d_num = mat.den.parts[1]
    calls = _spy_expansions(monkeypatch)
    got = mat.pole_degree(pt(1))
    monkeypatch.undo()
    assert got == brute_point_degrees(mat, pt(1))[1] > 0
    assert calls[0] == (d_num, len(d_num))
    entries = calls[1:]
    assert len(entries) == 4 and all(terms <= 3 for _, terms in entries)


def _spy_precisions(monkeypatch):
    """The precision of each expansion of N in the pair route and each
    normal-rank query, with the pair memo cleared."""
    precisions, ranks = [], []
    expand, rank = ratmat.point_expansions, ratmat._normal_rank

    def spy_expand(mat, point, terms):
        precisions.append(terms)
        return expand(mat, point, terms)

    def spy_rank(mat):
        ranks.append(mat)
        return rank(mat)

    monkeypatch.setattr(ratmat, "point_expansions", spy_expand)
    monkeypatch.setattr(ratmat, "_normal_rank", spy_rank)
    point_degrees_by_valuation.cache_clear()
    return precisions, ranks


def test_point_degrees_at_a_regular_point_expand_n_to_two_terms(monkeypatch):
    # full rank, and neither a pole nor a zero at 3: m = 0, both orders 0
    mat = M([[RF([1, 0, 2], [1, -2, 1]), RF([3, 1], [-1, 1])], [RF([0, 1], [1, 1]), 2]])
    assert brute_point_degrees(mat, pt(3)) == (0, 0)
    precisions, ranks = _spy_precisions(monkeypatch)
    calls = _spy_expansions(monkeypatch)
    d_num = mat.den.parts[1]
    assert point_degrees_by_valuation(mat, pt(3)) == (0, 0)
    assert precisions == [2] and ranks == []
    assert calls[0] == (d_num, len(d_num))
    assert len(calls) == 5 and all(terms == 2 for _, terms in calls[1:])


@pytest.mark.parametrize("mat, point, expected", [
    # m = 0 and order 7: 2 -> 4 -> 8
    (M([[_z ** 7]]), pt(0), [2, 4, 8]),
    # a simple pole beside an order-8 entry, m = 1: 3 -> 6 -> 12
    (M([[RF([1], [0, 1]), 0], [0, _z ** 7]]), pt(0), [3, 6, 12]),
    # rank 1 of 2 with order 5: 2 -> 4 -> 8, the rank stops it
    (M([[_z ** 5, _z ** 5], [_z ** 6, _z ** 6]]), pt(0), [2, 4, 8]),
    # m = 2 at infinity and an order 9 there: 4 -> 8 -> 16
    (M([[_z ** 2, 0], [0, RF([1], [0] * 7 + [1])]]), INFINITY, [4, 8, 16]),
])
def test_point_degrees_double_the_precision(monkeypatch, mat, point, expected):
    precisions, ranks = _spy_precisions(monkeypatch)
    got = point_degrees_by_valuation(mat, point)
    monkeypatch.undo()
    assert got == brute_point_degrees(mat, point)
    m, _ = ratmat._den_order(mat, point)
    assert precisions == expected and precisions[0] == max(m, 0) + 2
    assert all(b == 2 * a for a, b in zip(precisions, precisions[1:]))
    # the rank is asked only while fewer orders than the side are found
    assert len(ranks) == len(expected) - (mat.normal_rank() == min(mat.rows, mat.cols))


def test_laurent_leading_at_a_point_that_is_not_a_pole_raises():
    mat = M([[RF([-1, 1], [-2, 1]), 1], [0, RF([0, 1])]])
    assert mat.laurent_leading(pt(2))  # a pole: answered
    # a zero of G (z = 1) and two regular points
    for point in (pt(1), pt(3), pt(0)):
        with pytest.raises(ValueError, match="no pole"):
            mat.laurent_leading(point)
    with pytest.raises(ValueError, match="no pole"):
        M([[RF([1], [-2, 1])]]).laurent_leading(INFINITY)


def _sm_pole_points(mat, strict):
    pole_poly = mat.sm_structure().pole_polynomial()
    if pole_poly.is_constant():
        return ()
    roots = require_split(pole_poly) if strict else gaussian_roots(pole_poly)[0]
    return tuple(Point(r) for r, _ in roots)


# z^2 - 2 has no root in Q(i): it leaves an unsplit part in the pole
# polynomial, which strict=True must reject and strict=False must drop
_SQRT2 = RF([1], [-2, 0, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([None, _SQRT2]))
@example(0, _SQRT2)
def test_finite_pole_points_are_the_sm_pole_roots(seed, extra):
    # the common denominator's roots against the roots of the pole
    # polynomial of the minor-based Smith-McMillan form
    g, h = random_full_rank_pair(random.Random(seed))
    mat = g * h
    if extra is not None:
        mat = RatMat([[mat.entry(0, 0) + extra, *mat.entries[0][1:]], *mat.entries[1:]])
    assert mat.finite_pole_points(strict=False) == _sm_pole_points(mat, strict=False)
    if extra is None:
        assert mat.finite_pole_points(strict=True) == _sm_pole_points(mat, strict=True)
    else:
        with pytest.raises(NonGaussianPoleError):
            mat.finite_pole_points(strict=True)
        with pytest.raises(NonGaussianPoleError):
            _sm_pole_points(mat, strict=True)


def test_finite_pole_points_of_the_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        RatMat.zeros(2, 3).finite_pole_points()


# prod(z - a) / prod(z - b) over a small root pool
_split_funs = st.builds(
    RatFun,
    *[st.lists(st.sampled_from(_DEN_ROOTS + [gr(0)]), max_size=2).map(Poly.from_roots)] * 2,
)


@st.composite
def _split_matrices(draw):
    # D1 C D2 with split diagonals and a constant C: every entry splits, and
    # off the root pool G(z) has the rank of C, so the zeros split as well
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = RatMat([[draw(_coeffs) for _ in range(cols)] for _ in range(rows)])
    assume(not c.is_zero())
    d1 = RatMat.diagonal([draw(_split_funs) for _ in range(rows)])
    d2 = RatMat.diagonal([draw(_split_funs) for _ in range(cols)])
    return d1 * c * d2


@settings(max_examples=60, deadline=None)
@given(_split_matrices())
# a pole at infinity of degree 2 next to a simple pole at 2
@example(M([[RF([0, 0, 1]), 1], [0, RF([1], [-2, 1])]]))
# a double pole at 2, shared by two entries
@example(M([[RF([1], [4, -4, 1]), RF([1], [-2, 1])], [RF([1], [-2, 1]), 1]]))
# normal rank 1 with a pole at 2 in every entry
@example(M([[RF([1], [-2, 1]), RF([1], [-2, 1])], [RF([0, 1], [-2, 1]), RF([0, 1], [-2, 1])]]))
def test_sm_locations_agree_with_valuation_degrees(mat):
    # locations come from the Smith-McMillan form, pointwise degrees from
    # minor valuations; the two routes must tell the same story
    sm = mat.sm_structure()
    for roots, degree in (
        (require_split(sm.pole_polynomial()), mat.pole_degree),
        (require_split(sm.zero_polynomial()), mat.zero_degree),
    ):
        for r, m in roots:
            assert degree(Point(r)) == m
    finite = sum(mat.pole_degree(p) for p in mat.finite_pole_points())
    assert mat.mcmillan_degree() == finite + mat.pole_degree(INFINITY)
    # the degree from the global form, and from the minor oracle at the
    # roots of d and at infinity
    assert mat.mcmillan_degree() == (
        sum(int(psi.degree) for psi in sm.psi) + mat.pole_degree(INFINITY))
    points = [Point(r) for r, _ in require_split(mat.den)] + [INFINITY]
    assert mat.mcmillan_degree() == sum(brute_point_degrees(mat, p)[1] for p in points)


def test_mcmillan_degree_forms_no_smith_mcmillan_form(monkeypatch):
    mat = (make_elementary(pt(2), [1, 0, 1])
           * make_elementary(pt(Fraction(1, 3), 1), [0, 1, gr(0, 1)])
           * make_elementary(pt(-4), [1, 2, -1]))

    def forbidden(*args):
        raise AssertionError("the McMillan degree read the global form")

    monkeypatch.setattr(ratmat, "_sm_of", forbidden)
    monkeypatch.setattr(ratmat, "_minor_gcd", forbidden)
    assert mat.mcmillan_degree() == 3


@pytest.mark.parametrize("mat, error, message", [
    (M([[RF([1], [-2, 0, 1])]]), NonGaussianPoleError,
     "locations outside Q(i) in pole locations: irreducible cofactor z^2 + (-2)"),
    (M([[RF([0, 0, 1]), RF([1], [-2, 0, 1])]]), NonGaussianPoleError,
     "locations outside Q(i) in pole locations: irreducible cofactor z^2 + (-2)"),
    (RatMat.zeros(2, 3), ZeroMatrixError, "the zero matrix has no Smith-McMillan structure"),
])
def test_mcmillan_degree_errors(mat, error, message):
    with pytest.raises(error) as info:
        mat.mcmillan_degree()
    assert str(info.value) == message


def test_mcmillan_degree_examples():
    assert M([[RF([1], [1, 1])]]).mcmillan_degree() == 1
    u = make_elementary(pt(2), [1, 2])
    assert u.mcmillan_degree() == 1
    prod = (
        make_elementary(pt(2), [1, 0])
        * make_elementary(pt(3), [1, 1])
        * make_elementary(pt(0, 2), [0, 1])
    )
    assert prod.mcmillan_degree() == 3


def test_mcmillan_degree_at_infinity():
    assert M([[RF([0, 0, 1])]]).mcmillan_degree() == 2
    assert M([[RF([0, 1]), 1]]).mcmillan_degree() == 1


@st.composite
def _entry_matrices(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return RatMat([[draw(_entries) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(_entry_matrices())
@example(RatMat.zeros(2, 3))
def test_pole_at_infinity_is_a_positive_pole_degree_there(mat):
    # N outgrowing d (the padding degree against deg d) is the local Smith
    # form's positive pole degree at infinity, and an entry whose numerator
    # outgrows its denominator
    if mat.is_zero():
        assert not mat.has_pole_at_infinity()
        return
    assert mat.has_pole_at_infinity() == (mat.pole_degree(INFINITY) > 0)
    assert mat.has_pole_at_infinity() == any(
        e.num.degree > e.den.degree for row in mat.entries for e in row)


def test_mcmillan_degree_requires_enumerable_poles():
    bad = M([[RF([1], [-2, 0, 1])]])  # pole pair at +-sqrt(2)
    with pytest.raises(NonGaussianPoleError):
        bad.mcmillan_degree()


def test_mcmillan_invariant_under_paraconj_transpose():
    rng = random.Random(5)
    for _ in range(6):
        mat, _ = random_elementary_product(rng, 2, rng.randint(1, 3))
        mat = mat * RF([1, 1], [Fraction(1, 3), 1])
        assert mat.paraconj_transpose().mcmillan_degree() == mat.mcmillan_degree()


def test_minimal_right_inverse_scalar():
    w = M([[RF([-2, 1], [-3, 1])]])
    assert w.minimal_right_inverse() == M([[RF([-3, 1], [-2, 1])]])


def test_minimal_right_inverse_constant_wide():
    g = M([[1, 0]])
    x = g.minimal_right_inverse()
    assert x == M([[1], [0]])
    assert g * x == RatMat.identity(1)
    assert x.finite_pole_points() == ()
    assert not x.has_pole_at_infinity()


def test_minimal_right_inverse_of_allpass_is_star():
    u = make_elementary(pt(2), [1, gr(0, 1)])
    assert u.minimal_right_inverse() == u.paraconj_transpose()


def test_minimal_right_inverse_infinity_balance():
    # G = [1/z, 1/z^2] needs a right inverse growing like z, no faster
    g = M([[RF([1], [0, 1]), RF([1], [0, 0, 1])]])
    x = g.minimal_right_inverse()
    assert g * x == RatMat.identity(1)
    assert x.pole_degree(INFINITY) == g.zero_degree(INFINITY) == 1
    assert x.finite_pole_points() == ()


def test_minimal_right_inverse_nonexistence():
    g = M([[RF([0, 1]), RF([1], [0, 1])]])  # [z, 1/z] admits no minimal inverse
    for _ in range(2):  # a failure is not memoized
        with pytest.raises(MinimalInverseError):
            g.minimal_right_inverse()


def test_minimal_right_inverse_requires_full_row_rank():
    g = M([[1, 1], [1, 1]])
    for _ in range(2):
        with pytest.raises(RankDeficiencyError):
            g.minimal_right_inverse()


def test_minimal_right_inverse_memo_is_keyed_by_value():
    # equal matrices built apart share one memo entry, and a recomputation
    # after clearing the memo gives the memoized answer
    memo = ratmat._minimal_right_inverse
    memo.cache_clear()
    rows = [[RF([1, 1]), RF([2], [3, 1]), 1]]
    a, b = M(rows), M(rows)
    assert a is not b
    x = a.minimal_right_inverse()
    assert b.minimal_right_inverse() == x
    info = memo.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    memo.cache_clear()
    assert M(rows).minimal_right_inverse() == x
    assert memo.cache_info().misses == 1


def test_minimal_right_inverse_random_wide():
    rng = random.Random(31)
    for _ in range(8):
        core, _ = random_elementary_product(rng, 2, rng.randint(0, 2))
        zeros = RatMat.diagonal(
            [RF([rng.choice([-1, 5]), 1]), RatFun.one()]
        )
        grid = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        if matrix_rank([[gr(x) for x in row] for row in grid]) < 2:
            continue
        g = core * zeros * M(grid)
        x = g.minimal_right_inverse()
        assert g * x == RatMat.identity(2)
        sm_g = g.sm_structure()
        sm_x = x.sm_structure()
        assert sm_x.pole_polynomial() == sm_g.zero_polynomial()
        assert x.pole_degree(INFINITY) == g.zero_degree(INFINITY)


def test_minimal_right_inverse_needs_the_correction_solve(monkeypatch):
    # G is polynomial with one simple zero, at 0; the particular solution of
    # the coefficient system gives X a double pole there, and the correction
    # solve picks the element of the solution space with the simple pole
    # minimality asks for
    g = M([[RF([0, -1]), 0, 0], [0, RF([-2, 1]), -1]])
    ratmat._minimal_right_inverse.cache_clear()  # a memo hit would skip the spy
    solved = []
    solve = ratmat.solve_linear

    def spy(a, b):
        solved.append(solve(a, b))
        return solved[-1]

    monkeypatch.setattr(ratmat, "solve_linear", spy)
    x = g.minimal_right_inverse()
    monkeypatch.undo()
    assert len(solved) == 2 and None not in solved
    assert g * x == RatMat.identity(2)
    assert x.sm_structure().pole_polynomial() == g.sm_structure().zero_polynomial()
    assert x.pole_degree(INFINITY) == g.zero_degree(INFINITY)


def test_minimal_right_inverse_open_case_refuses_a_mismatched_candidate():
    # r = 3 with a zero at 0 that is also a pole: the candidate meets the
    # lemma's conditions, yet its Smith-McMillan form shows the degrees
    # do not match, so it is refused
    g = M([[RF([1], [-1, 1]), 0, 0, 0, 0],
           [RF([2], [0, 1]), RF([-1], [-1, 1]), RF([-2, -1], [0, 1]), 0, 0],
           [1, RF([0, -1]), RF([2], [0, 1]), -1, RF([2, 1])]])
    ratmat._minimal_right_inverse.cache_clear()
    with pytest.raises(MinimalInverseError,
                       match="right inverse found but exact pole/zero degree matching failed"):
        g.minimal_right_inverse()


def test_minimal_right_inverse_open_case_accepts_zeros_outside_gaussian_rationals():
    # r = 3 with zeros at +-sqrt(2) that are also poles: the open case
    # compares polynomials, so roots outside Q(i) need not be found
    g = (RatMat.diagonal([RF([1], [-2, 0, 1]), 1, RF([-2, 0, 1])])
         * M([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, -1]]))
    ratmat._minimal_right_inverse.cache_clear()
    x = g.minimal_right_inverse()
    assert g * x == RatMat.identity(3)
    assert x.sm_structure().pole_polynomial() == g.sm_structure().zero_polynomial()
    assert x.pole_degree(INFINITY) == g.zero_degree(INFINITY)


_RINV_ZEROS = [gr(0), gr(2), gr(-3)]
_RINV_POLES = [gr(Fraction(1, 2)), gr(1, 1), gr(Fraction(-1, 3))]


@st.composite
def _right_invertible(draw):
    """U D M, square or wide: D a diagonal of split rational functions of
    any degree balance (so with structure at infinity), M a constant of
    full row rank and U an optional elementary all-pass factor.  M+ (U D)^-1
    is a minimal right inverse for any constant right inverse M+ of M, so
    every draw has one."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(r, 3))
    diag = [RatFun(Poly.from_roots(draw(st.lists(st.sampled_from(_RINV_ZEROS), max_size=2))),
                   Poly.from_roots(draw(st.lists(st.sampled_from(_RINV_POLES), max_size=2))))
            for _ in range(r)]
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    grid = draw(st.lists(row, min_size=r, max_size=r))
    assume(matrix_rank([[gr(x) for x in row] for row in grid]) == r)
    g = RatMat.diagonal(diag) * M(grid)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([pt(3), pt(Fraction(1, 2), 1), INFINITY]))
        direction = draw(st.lists(st.sampled_from([gr(0), gr(1), gr(-2), gr(1, 1)]),
                                  min_size=r, max_size=r).filter(any))
        g = make_elementary(alpha, direction) * g
    return g


@settings(max_examples=40, deadline=None)
@given(_right_invertible())
@example(M([[RF([0, -1]), 0, 0], [0, RF([-2, 1]), -1]]))  # needs the correction solve
# rows over 2 and 3 and zero entries: N's integer form is over 6, while d m
# is integral, so one scale for the whole system differs from each row's lcm
@example(RatMat.diagonal([RF([-2, 1], [3, 1]), RF([4, 1], [-5, 1])])
         * M([[Fraction(1, 2), 0, Fraction(1, 2)], [0, Fraction(1, 3), -1]]))
# non-real Gaussian coefficients in N, in d and in the zero polynomial
@example(RatMat.diagonal([RatFun(Poly.from_roots([gr(1, 1)]),
                                 Poly.from_roots([gr(0, Fraction(1, 2))])), RF([gr(0, 3)])])
         * M([[1, gr(0, 1), 0], [0, 1, gr(1, -1)]]))
def test_minimal_right_inverse_is_a_right_inverse_with_the_zero_degrees(g):
    # the construction never forms G * X, and reads X's degrees only through
    # the Smith-McMillan form; here both facts are checked, the degrees by
    # the brute-force minor oracle
    ratmat._minimal_right_inverse.cache_clear()
    x = g.minimal_right_inverse()
    assert g * x == RatMat.identity(g.rows)
    zeros = g.finite_zero_points()
    assert set(x.finite_pole_points()) <= set(zeros)
    for point in (*zeros, INFINITY):
        assert brute_point_degrees(x, point)[1] == brute_point_degrees(g, point)[0]


def _brute_checked_minimal_inverse(g):
    """G's minimal right inverse, checked to be a right inverse whose pole
    degrees, by the brute-force minor oracle, are G's zero degrees at X's
    poles, at G's zeros and at infinity."""
    ratmat._minimal_right_inverse.cache_clear()
    x = g.minimal_right_inverse()
    assert g * x == RatMat.identity(g.rows)
    for point in {*x.finite_pole_points(), *g.finite_zero_points(), INFINITY}:
        assert brute_point_degrees(x, point)[1] == brute_point_degrees(g, point)[0]
    return x


@pytest.mark.parametrize("a", [1, -1, 2, 3, -5, 7])
@pytest.mark.parametrize("k", [1, 3, 11, Fraction(1, 3)])
def test_minimal_right_inverse_of_a_scaled_zero_beside_a_shifted_one(a, k):
    # G = [[a z, 0, 0], [0, z - c, -k]] has the minimal inverse
    # [[1/(a z), 0], [0, 0], [0, -1/k]], which needs coefficients no small
    # Gaussian integer reaches; the exact correction finds one for every c
    for c in (-2, 3, Fraction(1, 2), 5):
        g = M([[RF([0, a]), 0, 0], [0, RF([-c, 1]), -k]])
        _brute_checked_minimal_inverse(g)


@pytest.mark.parametrize("g", [
    M([[0, RF([-1], [-1, 1]), 0, 1], [RF([-1], [gr(0, -1), 1]), 0, 0, 2]]),
    M([[RF([2], [-1, 1]), RF([6, 3]), 2, 3], [0, 1, RF([-1], [2, 1]), 0]]),
])
def test_minimal_right_inverse_needs_the_condition_at_infinity(g):
    # with the divisibility by m alone, the correction solve here returns
    # an inverse with too many poles at infinity
    _brute_checked_minimal_inverse(g)


_SHARED_ROOTS = [gr(0), gr(1), gr(-2), gr(0, 1)]


@st.composite
def _scaled_identity_blocks(draw):
    """(G, X) with G = D [I_r | C] P for r <= 2 and X = P^-1 [D^-1; 0], a
    right inverse of G.  D is diagonal over one shared root pool, so that a
    point can be a zero of one entry and a pole of the other (and numerator
    and denominator degrees differ, so infinity can be both); P permutes
    the columns.  For a constant C, X is minimal; an entry of C may also be
    linear, as in the matrices [[a z, 0, 0], [0, z - c, -k]], and then X
    is minimal only for some draws."""
    r = draw(st.integers(1, 2))
    roots = st.lists(st.sampled_from(_SHARED_ROOTS), max_size=3)
    diag = [RatFun(Poly.from_roots(draw(roots)) * draw(st.sampled_from([1, -2, gr(0, 3)])),
                   Poly.from_roots(draw(roots))) for _ in range(r)]
    n = r + draw(st.integers(1, 2))
    entry = st.one_of(st.sampled_from([0, 1, -2, Fraction(1, 3), gr(1, 1)]),
                      st.sampled_from(_SHARED_ROOTS).map(lambda x: Poly.linear(x) * 3))
    c = draw(st.lists(st.lists(entry, min_size=n - r, max_size=n - r), min_size=r, max_size=r))
    order = draw(st.permutations(range(n)))
    block = [[int(i == j) for j in range(r)] + row for i, row in enumerate(c)]
    g = RatMat.diagonal(diag) * M([[row[k] for k in order] for row in block])
    x = M([[diag[k].inverse() if k == j else 0 for j in range(r)] if k < r else [0] * r
           for k in order])
    return g, x


@settings(max_examples=60, deadline=None)
@given(_scaled_identity_blocks())
@example((M([[RF([0, 3]), 0, 0], [0, RF([-1, 1]), -2]]),
          M([[RF([1], [0, 3]), 0], [0, 0], [0, RF([Fraction(-1, 2)])]])))
def test_minimal_right_inverse_where_a_zero_meets_a_pole(pair):
    # for r <= 2 the lemma's conditions are exact, so whenever a minimal
    # right inverse exists (here X, when the oracle confirms it) the call
    # finds one
    g, x = pair
    assert g * x == RatMat.identity(g.rows)
    assume(all(brute_point_degrees(x, p)[1] == brute_point_degrees(g, p)[0]
               for p in {*x.finite_pole_points(), *g.finite_zero_points(), INFINITY}))
    _brute_checked_minimal_inverse(g)


@st.composite
def _square_full_rank(draw):
    """Square G of side 1 to 3 and full rank, from the entries of the
    product tests (repeated and shared denominator roots, complex
    coefficients, zero entries), some times an elementary all-pass factor
    for a pole or a zero at infinity."""
    n = draw(st.integers(1, 3))
    g = RatMat([[draw(_entries) for _ in range(n)] for _ in range(n)])
    assume(g.normal_rank() == n)
    if draw(st.booleans()):
        alpha = draw(st.sampled_from([pt(3), pt(Fraction(1, 2), 1), INFINITY]))
        direction = draw(st.lists(st.sampled_from([gr(0), gr(1), gr(-2), gr(1, 1)]),
                                  min_size=n, max_size=n).filter(any))
        g = make_elementary(alpha, direction) * g
    return g


@settings(max_examples=60, deadline=None)
@given(_square_full_rank())
@example(M([[RF([-1, 1]), RF([1], [2, 1])], [0, 1]]))
@example(M([[RF([0, 1]), RF([1], [0, 0, 1])], [1, RF([gr(0, 1)], [1, 1])]]))
def test_square_inverse_is_minimal(g):
    # the square route runs no minimality check, since the inverse is
    # minimal by theorem; this keeps the check it no longer runs: X's pole
    # polynomial is G's zero polynomial, and X's pole degree at infinity is
    # G's zero degree there
    ratmat._minimal_right_inverse.cache_clear()
    x = g.minimal_right_inverse()
    identity = RatMat.identity(g.rows)
    assert g * x == identity and x * g == identity
    assert x.sm_structure().pole_polynomial() == g.sm_structure().zero_polynomial()
    assert x.pole_degree(INFINITY) == g.zero_degree(INFINITY)


def test_square_inverse_solves_nothing_and_forms_no_smith_mcmillan_form(monkeypatch):
    # G = diag(z - 1, 1/z) times a rotation and an all-pass factor: zeros
    # at 1 and infinity, poles at 0 and 2
    g = (make_elementary(pt(2), [1, gr(0, 1)])
         * RatMat.diagonal([RF([-1, 1]), RF([1], [0, 1])]) * M([[1, 2], [-1, 1]]))
    ratmat._minimal_right_inverse.cache_clear()

    def forbidden(*args):
        raise AssertionError("coefficient system or Smith-McMillan form for a square input")

    monkeypatch.setattr(ratmat, "solve_linear", forbidden)
    monkeypatch.setattr(ratmat, "_sm_of", forbidden)
    x = g.minimal_right_inverse()
    monkeypatch.undo()
    assert g * x == RatMat.identity(2)
    for singular in (M([[1, 2], [2, 4]]), RatMat.zeros(2, 2)):
        with pytest.raises(RankDeficiencyError, match="got 1|got 0"):
            singular.minimal_right_inverse()


def test_determinant():
    u = make_elementary(pt(2), [1, 1])
    from specfactor import blaschke

    assert u.determinant() == blaschke(pt(2))
    assert RatMat.identity(3).determinant() == RatFun.one()
    with pytest.raises(DimensionMismatchError):
        M([[1, 0]]).determinant()


def test_entry_access_and_shape():
    g = GOLDEN_H
    assert g.rows == 2 and g.cols == 1
    assert g[0, 0] == RF([3, 2], [2, 3, 1])
    assert g.entry(1, 0) == RF([1], [2, 1])


def test_reciprocal_subs_matrix():
    g = M([[RF([0, 1]), 1]])
    flipped = g.reciprocal_subs()
    assert flipped == M([[RF([1], [0, 1]), 1]])


# entries with zero, rational and complex coefficients; zero entries are common
_det_coeffs = st.sampled_from([gr(0), gr(0), gr(1), gr(-2), gr(Fraction(1, 3)), gr(0, 1),
                               gr(Fraction(-1, 2), 2)])
_det_polys = st.lists(_det_coeffs, max_size=3).map(Poly)
_det_dens = st.sampled_from([P(1), P(-2, 1), P(1, 0, 1), P(Fraction(1, 2), 1)])


@st.composite
def _square_grids(draw, entries):
    """n x n grids for n from 1 to 5 (the cofactor formulas and Bareiss),
    some with one row repeated."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    return rows


@settings(max_examples=80, deadline=None)
@given(_square_grids(_det_polys))
def test_poly_det_matches_permutation_expansion(rows):
    assert _poly_det(rows) == permutation_det(rows)


@settings(max_examples=30, deadline=None)
@given(_square_grids(st.builds(RatFun, _det_polys, _det_dens)))
def test_determinant_matches_permutation_expansion(rows):
    assert RatMat(rows).determinant() == permutation_det(rows)


def test_add_and_sub_identities():
    a = M([[RF([1, 1], [2, 1]), 3], [0, RF([1], [0, 1])]])
    b = M([[RF([-1], [2, 1]), RF([0, 1])], [gr(0, 2), -3]])
    c = M([[1, RF([1], [-3, 1])], [RF([0, 1]), 2]])
    assert a + b == b + a
    assert (a + b) - b == a
    assert a - b == a + (-b)
    assert a - a == RatMat.zeros(2, 2)
    assert (a + b) * c == a * c + b * c
    assert c * (a - b) == c * a - c * b
    with pytest.raises(DimensionMismatchError):
        a + M([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        a - M([[1], [2]])
