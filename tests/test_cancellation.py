import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specfactor import (
    INFINITY,
    Point,
    Poly,
    RatFun,
    RatMat,
    analyze_product,
    degree_deficit_identity_holds,
    make_elementary,
    paired_cancellation_holds,
    pole_additivity_holds,
    support_points,
)
from specfactor import cancellation
from specfactor.cancellation import _product
from specfactor.errors import DimensionMismatchError, RankDeficiencyError, ZeroMatrixError

from helpers import M, P, RF, pt, random_full_rank_pair
from oracles import brute_point_degrees, ref_matmul

GOLDEN_G = M([[1, -1]])
GOLDEN_H = M([[RF([3, 2], [2, 3, 1])], [RF([1], [2, 1])]])


def test_golden_pole_cancellation_not_zero_pole():
    report = analyze_product(GOLDEN_G, GOLDEN_H, pt(-2))
    assert report.dp_g == 0 and report.dp_h == 1 and report.dp_gh == 0
    assert report.pole_cancellation
    assert not report.zero_cancellation
    assert not report.zero_pole_cancellation


def test_golden_no_cancellation_at_minus_one():
    report = analyze_product(GOLDEN_G, GOLDEN_H, pt(-1))
    assert report.dp_gh == 1 == report.dp_g + report.dp_h
    assert not report.pole_cancellation
    assert not report.zero_cancellation


def test_identity_product_all_clear():
    ident = RatMat.identity(2)
    for point in (pt(0), pt(2), INFINITY):
        report = analyze_product(ident, ident, point)
        assert not (
            report.pole_cancellation
            or report.zero_cancellation
            or report.zero_pole_cancellation
        )


def test_flags_consistent_with_degrees():
    rng = random.Random(7)
    for _ in range(20):
        g, h = random_full_rank_pair(rng)
        for point in support_points(g, h):
            report = analyze_product(g, h, point)
            assert report.pole_cancellation == (
                report.dp_gh < report.dp_g + report.dp_h
            )
            assert report.zero_cancellation == (
                report.dz_gh < report.dz_g + report.dz_h
            )
            assert report.zero_pole_cancellation == (
                report.pole_cancellation and report.zero_cancellation
            )


def test_product_formed_once_per_pair(monkeypatch):
    g, h = random_full_rank_pair(random.Random(23), max_side=3)
    _product.cache_clear()
    products = []
    multiply = RatMat.__mul__

    def counting(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(RatMat, "__mul__", counting)
    points = support_points(g, h)
    reports = [analyze_product(g, h, point) for point in points]
    assert len(products) == 1
    # equal but distinct copies share the memoized product and the answers
    g_copy, h_copy = RatMat(g.entries), RatMat(h.entries)
    assert g_copy is not g and h_copy is not h
    assert support_points(g_copy, h_copy) == points
    assert [analyze_product(g_copy, h_copy, point) for point in points] == reports
    assert len(products) == 1
    _product.cache_clear()


def test_zero_product_rejected():
    a = M([[1, 0]])
    b = M([[0], [1]])
    with pytest.raises(ZeroMatrixError):
        analyze_product(a, b, pt(0))


def test_paired_cancellation_on_full_rank_pairs():
    rng = random.Random(13)
    for _ in range(25):
        g, h = random_full_rank_pair(rng)
        for point in support_points(g, h):
            assert paired_cancellation_holds(g, h, point)
            assert degree_deficit_identity_holds(g, h, point)


def test_full_rank_hypothesis_enforced():
    # the golden pair has inner dimension 2 but both ranks are 1
    with pytest.raises(RankDeficiencyError):
        degree_deficit_identity_holds(GOLDEN_G, GOLDEN_H, pt(-2))
    with pytest.raises(RankDeficiencyError):
        paired_cancellation_holds(GOLDEN_G, GOLDEN_H, pt(-2))


def test_forced_cancellation_is_zero_pole():
    # U has a zero at 1/2; W has a pole there: the product cancels at 1/2,
    # and with full-rank factors the cancellation must be two-sided
    u = make_elementary(pt(2), [1, 0])
    w = M([[RF([1], [Fraction(-1, 2), 1]), 0], [0, 1]])
    report = analyze_product(u, w, pt(Fraction(1, 2)))
    assert report.pole_cancellation and report.zero_cancellation
    assert paired_cancellation_holds(u, w, pt(Fraction(1, 2)))
    assert degree_deficit_identity_holds(u, w, pt(Fraction(1, 2)))


def test_pole_additivity_distinct_elementary_factors():
    u1 = make_elementary(pt(2), [1, 1])
    u2 = make_elementary(pt(3), [1, -1])
    for point in (pt(2), pt(3)):
        assert pole_additivity_holds(u1, u2, point)


def test_pole_additivity_analytic_point():
    g = M([[RF([1], [2, 1]), 0], [0, 1]])
    h = M([[1, 0], [0, RF([1], [3, 1])]])
    assert pole_additivity_holds(g, h, pt(5))


def test_pole_additivity_at_infinity():
    g = RatMat.diagonal([RF([0, 1]), RatFun.one()])  # pole at infinity
    h = RatMat.diagonal([RF([0, 0, 1]), RatFun.one()])
    assert pole_additivity_holds(g, h, INFINITY)


def test_pole_additivity_rejects_zero_at_point():
    g = M([[RF([-2, 1]), 0], [0, 1]])  # zero at 2
    with pytest.raises(ValueError):
        pole_additivity_holds(g, RatMat.identity(2), pt(2))


def test_pole_additivity_infinity_matches_shifted_zero():
    rng = random.Random(19)
    for _ in range(10):
        g, h = random_full_rank_pair(rng, max_side=2, max_deg=2, biproper=True)
        if g.zero_degree(INFINITY) or h.zero_degree(INFINITY):
            continue
        direct = pole_additivity_holds(g, h, INFINITY)
        flipped = pole_additivity_holds(
            g.reciprocal_subs(), h.reciprocal_subs(), pt(0)
        )
        assert direct == flipped


def test_support_points_contents():
    pts = support_points(GOLDEN_G, GOLDEN_H)
    assert pt(-1) in pts and pt(-2) in pts
    assert pts[-1] == INFINITY


def _support_through_product(g, h):
    """The support as the factors and G H report it through the public
    API: the route ``support_points`` takes for a pair without full inner
    rank."""
    points = set()
    for mat in (g, h, g * h):
        if not mat.is_zero():
            points.update(mat.finite_pole_points(strict=False))
            points.update(mat.finite_zero_points(strict=False))
    return tuple(sorted(points, key=Point.sort_key)) + (INFINITY,)


_DENSE_POLES = [pt(2), pt(-1), pt(Fraction(1, 2))]


@st.composite
def _dense_entries(draw):
    kind = draw(st.integers(0, 2))
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    if kind == 0:
        return RatFun(P(a))
    if kind == 1:
        return RF([a, b])
    return RatFun(P(a or 1), Poly.linear(draw(st.sampled_from(_DENSE_POLES)).value))


@st.composite
def _dense_full_rank_pairs(draw):
    """G (n x r) and H (r x m) with every entry drawn on its own, kept when
    both have full inner rank r."""
    r = draw(st.integers(1, 3))
    n, m = draw(st.integers(r, r + 1)), draw(st.integers(r, r + 1))
    g = M([[draw(_dense_entries()) for _ in range(r)] for _ in range(n)])
    h = M([[draw(_dense_entries()) for _ in range(m)] for _ in range(r)])
    assume(g.normal_rank() == r == h.normal_rank())
    return g, h


_full_rank_pairs = st.one_of(
    _dense_full_rank_pairs(),
    st.integers(0, 2**32).map(lambda seed: random_full_rank_pair(random.Random(seed), max_side=4)),
)


@settings(max_examples=60, deadline=None)
@given(_full_rank_pairs)
# a pole of one factor on a zero of the other: G H = I has neither
@example((M([[RF([-2, 1]), 0], [0, 1]]), M([[RF([1], [-2, 1]), 0], [0, 1]])))
# the forced two-sided cancellation at 1/2, inner rank 2
@example((make_elementary(pt(2), [1, 0]), M([[RF([1], [Fraction(-1, 2), 1]), 0], [0, 1]])))
# dense, inner rank 3: H's pole at 2 meets G's zero there (det G = z - 2)
@example((M([[1, 1, 0], [0, 1, 0], [0, 0, RF([-2, 1])]]),
          M([[1, 0, 1], [0, RF([1], [-2, 1]), 0], [0, 0, RF([1], [-2, 1])]])))
# at infinity: G's pole there meets H's zero there, G H = [1, 1; 0, 1]
@example((M([[RF([0, 1]), 1], [0, 1]]), M([[RF([1], [0, 1]), 0], [0, 1]])))
def test_full_rank_support_matches_the_product_route(pair):
    g, h = pair
    assert support_points(g, h) == _support_through_product(g, h)


def test_rank_deficient_pair_reads_the_product():
    # G H = z - 1 has a zero at 1 that neither G = [1, 1] nor H = [1; z - 2]
    # shows: G has rank 1 < 2 = cols(G)
    g = M([[1, 1]])
    h = M([[1], [RF([-2, 1])]])
    assert g.finite_zero_points() == h.finite_zero_points() == ()
    assert support_points(g, h) == (pt(1), INFINITY)


def test_zero_factor_and_mismatched_dimensions_keep_the_product_route():
    h = M([[RF([1], [-2, 1]), 0], [0, RF([-3, 1])]])
    assert support_points(RatMat.zeros(2, 2), h) == (pt(2), pt(3), INFINITY)
    assert support_points(h, RatMat.zeros(2, 1)) == (pt(2), pt(3), INFINITY)
    with pytest.raises(DimensionMismatchError):
        support_points(M([[1, 1]]), M([[1, 2]]))


def test_law_checks_read_the_product_where_the_analysis_derives_it(monkeypatch):
    # at 2 both factors have a pole and neither a zero: analyze_product
    # takes G H's pair from the factors' (rule (c)), while each law check
    # reads G H itself, since the rule assumes the laws they check
    g = M([[RF([1], [-2, 1]), 0], [0, 1]])
    h = M([[1, 0], [0, RF([1], [-2, 1])]])
    product = _product(g, h)
    asked = []
    pair = cancellation.point_degrees_by_valuation

    def spy_pair(mat, point):
        asked.append((mat, point))
        return pair(mat, point)

    monkeypatch.setattr(cancellation, "point_degrees_by_valuation", spy_pair)
    report = analyze_product(g, h, pt(2))
    assert (report.dz_gh, report.dp_gh) == (0, 2)
    assert (product, pt(2)) not in asked
    for law in (paired_cancellation_holds, degree_deficit_identity_holds,
                pole_additivity_holds):
        asked.clear()
        assert law(g, h, pt(2))
        assert (product, pt(2)) in asked


def _rank_one(draw, rows, cols):
    u = [draw(_dense_entries()) for _ in range(rows)]
    v = [draw(_dense_entries()) for _ in range(cols)]
    return M([[a * b for b in v] for a in u])


@st.composite
def _rank_deficient_pairs(draw):
    """G of rank at most 1 with inner dimension 2 or 3, H dense."""
    k = draw(st.integers(2, 3))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = _rank_one(draw, n, k)
    h = M([[draw(_dense_entries()) for _ in range(m)] for _ in range(k)])
    return g, h


@st.composite
def _column_rank_over_deficient_pairs(draw):
    """G of full column rank k, H (k x m) of rank at most 1 < k."""
    k = draw(st.integers(2, 3))
    n, m = draw(st.integers(k, k + 1)), draw(st.integers(1, 3))
    g = M([[draw(_dense_entries()) for _ in range(k)] for _ in range(n)])
    assume(g.normal_rank() == k)
    return g, _rank_one(draw, k, m)


_OFF_SUPPORT = [pt(7), pt(-4), pt(0, 3), pt(Fraction(1, 5)), pt(-6, 1)]

# pairs without full inner rank, each with a factor free of structure at
# the point named: G = [1, 0; 0, 1; z, 1] of full column rank against H of
# rank 1 with a pole at 3, and G = [1/(z - 2), 1/(z - 2)] of rank 1 against
# the unimodular H = [1, z; 0, 1] at 2
_DEFICIENT_WITH_A_FREE_FACTOR = [
    ((M([[1, 0], [0, 1], [RF([0, 1]), 1]]),
      M([[RF([1], [-3, 1]), 1], [RF([1], [-3, 1]), 1]])), pt(3)),
    ((M([[RF([1], [-2, 1]), RF([1], [-2, 1])]]), M([[1, RF([0, 1])], [0, 1]])), pt(2)),
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_full_rank_pairs, _rank_deficient_pairs(), _column_rank_over_deficient_pairs()))
# the lemma's four cases, each alone at 2:
# no zeros in either factor (both have a pole there)
@example((M([[RF([1], [-2, 1]), 0], [0, 1]]), M([[1, 0], [0, RF([1], [-2, 1])]])))
# no poles in either factor (both have a zero there)
@example((M([[RF([-2, 1]), 0], [0, 1]]), M([[1, 0], [0, RF([-2, 1])]])))
# G free of structure, H with both a zero and a pole there
@example((M([[1, 0], [0, RF([1], [-3, 1])]]), M([[RF([-2, 1]), 0], [0, RF([1], [-2, 1])]])))
# H free of structure, G with both a zero and a pole there
@example((M([[RF([-2, 1]), 0], [0, RF([1], [-2, 1])]]), M([[1, 0], [0, RF([-3, 1])]])))
# outside the lemma: G's zero meets H's pole at 2
@example((M([[RF([-2, 1]), 0], [0, 1]]), M([[RF([1], [-2, 1]), 0], [0, 1]])))
# without full inner rank: a factor free of structure, and G = [1, 1],
# H = [1; z - 2], where G H = z - 1 has a zero at 1 neither factor shows
@example(_DEFICIENT_WITH_A_FREE_FACTOR[0][0])
@example(_DEFICIENT_WITH_A_FREE_FACTOR[1][0])
@example((M([[1, 1]]), M([[1], [RF([-2, 1])]])))
def test_analysis_matches_the_brute_force_product_degrees(pair):
    g, h = pair
    assume(not (g.is_zero() or h.is_zero()))
    reference = ref_matmul(g, h)
    assume(not reference.is_zero())
    support = support_points(g, h)
    off = [p for p in _OFF_SUPPORT if p not in support][:2]
    for point in support + tuple(off):
        report = analyze_product(g, h, point)
        assert (report.dz_gh, report.dp_gh) == brute_point_degrees(reference, point)


@pytest.mark.parametrize("pair, point", _DEFICIENT_WITH_A_FREE_FACTOR)
def test_a_pair_without_full_inner_rank_reads_the_product(pair, point, monkeypatch):
    # a factor free of structure does not settle G H's pair when the other
    # factor lacks full rank on the inner side: the analysis reads G H
    g, h = pair
    assert not cancellation._full_inner_rank(g, h)
    assert (0, 0) in (cancellation.point_degrees_by_valuation(g, point),
                      cancellation.point_degrees_by_valuation(h, point))
    asked = []
    degrees = cancellation.point_degrees_by_valuation

    def spy_pair(mat, at):
        asked.append((mat, at))
        return degrees(mat, at)

    monkeypatch.setattr(cancellation, "point_degrees_by_valuation", spy_pair)
    report = analyze_product(g, h, point)
    assert asked == [(g, point), (h, point), (_product(g, h), point)]
    assert (report.dz_gh, report.dp_gh) == brute_point_degrees(ref_matmul(g, h), point)
