import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from specfactor import (
    AllPassFactorization,
    ElementaryFactor,
    INFINITY,
    RatFun,
    RatMat,
    blaschke,
    degree_of_factorization,
    is_parahermitian,
    is_paraunitary,
    make_elementary,
    potapov_factorize,
)
from specfactor import ratmat
from specfactor.errors import DimensionMismatchError, NonGaussianPoleError
from specfactor.jsonio import ratmat_from_json

from helpers import (
    M,
    RF,
    SAFE_POLE_POOL,
    gr,
    pt,
    random_direction,
    random_elementary_product,
)
from oracles import brute_point_degrees, laurent_leading


def test_make_elementary_axis_projection():
    u = make_elementary(pt(2), [1, 0])
    b = blaschke(pt(2))
    assert u == RatMat.diagonal([b, RatFun.one()])


def test_make_elementary_at_infinity():
    u = make_elementary(INFINITY, [1, 0])
    assert u == RatMat.diagonal([RF([0, 1]), RatFun.one()])


def test_elementary_determinant_is_kernel():
    rng = random.Random(2)
    for _ in range(10):
        alpha = rng.choice(SAFE_POLE_POOL)
        u = make_elementary(alpha, random_direction(rng, 3))
        assert u.determinant() == blaschke(alpha)


def test_elementary_rejects_circle_pole_and_zero_vector():
    with pytest.raises(ValueError):
        make_elementary(pt(1), [1, 0])
    with pytest.raises(ValueError):
        make_elementary(pt(2), [0, 0])


def test_projection_is_rank_one_idempotent_hermitian():
    f = ElementaryFactor(pt(2), [gr(1, 2), gr(0, -1), gr(3)])
    p = f.projection()
    n = len(p)
    # Hermitian
    for i in range(n):
        for j in range(n):
            assert p[i][j] == p[j][i].conj()
    # idempotent
    sq = [
        [sum((p[i][k] * p[k][j] for k in range(n)), gr(0)) for j in range(n)]
        for i in range(n)
    ]
    assert sq == p
    # trace one (rank one orthogonal projection)
    trace = sum((p[i][i] for i in range(n)), gr(0))
    assert trace == gr(1)


def test_direction_scaling_invariance():
    u1 = make_elementary(pt(3), [gr(Fraction(1, 2)), gr(Fraction(1, 2))])
    u2 = make_elementary(pt(3), [gr(7), gr(7)])
    assert u1 == u2
    assert ElementaryFactor(pt(3), [gr(Fraction(1, 2)), gr(Fraction(1, 2))]).v == (
        gr(1),
        gr(1),
    )


def test_is_paraunitary():
    assert is_paraunitary(make_elementary(pt(2), [1, 1]))
    assert is_paraunitary(RatMat.identity(3))
    assert not is_paraunitary(RatMat.diagonal([RF([1], [-2, 1]), RatFun.one()]))
    with pytest.raises(DimensionMismatchError):
        is_paraunitary(M([[1, 0]]))


def test_is_parahermitian():
    w = M([[RF([-2, 1], [-3, 1]), 1]])
    phi = w.paraconj_transpose() * w
    assert is_parahermitian(phi)
    assert not is_parahermitian(M([[RF([0, 1])]]))
    assert is_parahermitian(M([[2, 1], [1, 3]]))
    with pytest.raises(DimensionMismatchError):
        is_parahermitian(M([[1, 0]]))


def test_pole_zero_pairing():
    rng = random.Random(9)
    v, poles = random_elementary_product(rng, 2, 3)
    for alpha in set(poles):
        assert v.pole_degree(alpha) == v.zero_degree(alpha.conj_pair())


def test_potapov_single_factor():
    u = make_elementary(pt(2), [1, 0])
    fact = potapov_factorize(u)
    assert fact.constant == RatMat.identity(2)
    assert len(fact.factors) == 1
    assert fact.factors[0].alpha == pt(2)
    assert fact.product() == u


def test_potapov_three_distinct_poles():
    factors = [
        make_elementary(pt(2), [1, 1]),
        make_elementary(pt(3), [1, -1]),
        make_elementary(pt(1, 1), [gr(0, 1), gr(1)]),
    ]
    v = factors[0] * factors[1] * factors[2]
    fact = potapov_factorize(v)
    assert len(fact) == 3
    assert v.mcmillan_degree() == 3
    assert fact.product() == v
    assert sorted(str(p) for p in fact.pole_points()) == ["1+1*i", "2", "3"]


def test_potapov_constant_input():
    c = M([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    fact = potapov_factorize(c)
    assert len(fact) == 0
    assert fact.constant == c
    assert degree_of_factorization(fact) == 0


def test_potapov_with_constant_prefix():
    c = M([[0, 1], [-1, 0]])
    v = c * make_elementary(pt(2), [1, 2]) * make_elementary(INFINITY, [0, 1])
    fact = potapov_factorize(v)
    assert len(fact) == 2
    assert fact.product() == v
    assert fact.constant.is_constant()


def test_potapov_repeated_pole():
    v = make_elementary(pt(2), [1, 0]) * make_elementary(pt(2), [1, 1])
    assert v.mcmillan_degree() == 2
    fact = potapov_factorize(v)
    assert len(fact) == 2
    assert all(f.alpha == pt(2) for f in fact.factors)
    assert fact.product() == v


def test_potapov_pole_at_zero_and_infinity():
    v = make_elementary(pt(0), [1, 1]) * make_elementary(pt(3), [0, 1])
    fact = potapov_factorize(v)
    assert len(fact) == 2
    assert fact.product() == v
    w = make_elementary(INFINITY, [2, 1])
    fact_w = potapov_factorize(w)
    assert len(fact_w) == 1 and fact_w.product() == w


def test_potapov_degree_collapsing_product():
    # pole at 1/2 pairs with the zero of the factor at 2: the product has
    # lower degree than the factor count, and the factorizer returns the
    # minimal number of factors
    v = make_elementary(pt(2), [1, 0]) * make_elementary(pt(Fraction(1, 2)), [1, 0])
    deg = v.mcmillan_degree()
    fact = potapov_factorize(v)
    assert len(fact) == deg
    assert fact.product() == v


def test_potapov_rejects_non_paraunitary():
    with pytest.raises(ValueError):
        potapov_factorize(M([[RF([1], [-2, 1]), 0], [0, 1]]))


def test_potapov_roundtrip_sweep():
    rng = random.Random(41)
    for _ in range(10):
        k = rng.randint(1, 4)
        v, poles = random_elementary_product(rng, 2, k)
        fact = potapov_factorize(v)
        assert len(fact) == k
        assert fact.product() == v
        assert v.mcmillan_degree() == k


def test_factorization_validates_constant():
    with pytest.raises(ValueError):
        AllPassFactorization(M([[2]]), [])
    with pytest.raises(ValueError):
        AllPassFactorization(M([[RF([0, 1])]]), [])


def test_potapov_pole_multiset_matches_input():
    rng = random.Random(57)
    for _ in range(6):
        v, _ = random_elementary_product(rng, 2, rng.randint(1, 4))
        fact = potapov_factorize(v)
        for alpha in set(fact.pole_points()):
            count = sum(1 for f in fact.factors if f.alpha == alpha)
            assert count == v.pole_degree(alpha)
        total = sum(v.pole_degree(a) for a in set(fact.pole_points()))
        assert total == len(fact.factors) == v.mcmillan_degree()


def test_square_allpass_degrees_balance():
    # det of an all-pass product is a ratio of equal-degree polynomials, so
    # zero and pole degrees balance over the extended plane
    rng = random.Random(61)
    for _ in range(5):
        v, _ = random_elementary_product(rng, 2, rng.randint(1, 3))
        points = set(v.finite_pole_points()) | set(v.finite_zero_points())
        points.add(INFINITY)
        balance = sum(v.zero_degree(p) - v.pole_degree(p) for p in points)
        assert balance == 0


V_JSON = ratmat_from_json(json.loads(
    (Path(__file__).parent / "golden" / "inputs" / "v.json").read_text(encoding="utf-8")))

elementary_products = st.builds(
    lambda seed, r, k: random_elementary_product(random.Random(seed), r, k)[0],
    st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(elementary_products)
# the first peel of v.json, at 1/2 + i/3, takes a different direction
# unless the conj(c) factor of the expansion is applied
@example(V_JSON)
def test_laurent_leading_is_oracle_times_positive_rational(v):
    for pole in v.pole_points():
        ours = v.laurent_leading(pole)
        ref = laurent_leading(v, pole)
        pairs = [(x, y) for row_x, row_y in zip(ours, ref) for x, y in zip(row_x, row_y)]
        assert all(x.is_zero() == y.is_zero() for x, y in pairs)
        x0, y0 = next((x, y) for x, y in pairs if not y.is_zero())
        ratio = x0 / y0
        # one positive rational for the whole matrix, so for every column
        assert ratio.im == 0 and ratio.re > 0, (pole, ratio)
        assert all(x == y * ratio for x, y in pairs), pole


@st.composite
def _left_divisions(draw):
    """(W, alpha, v): W an elementary product, alpha finite, 0 or infinity,
    v a direction of W's size whose entries may vanish."""
    r = draw(st.integers(1, 3))
    w = random_elementary_product(random.Random(draw(st.integers(0, 2**32))), r,
                                  draw(st.integers(0, 3)))[0]
    alpha = draw(st.sampled_from(SAFE_POLE_POOL + [pt(0)]))
    entries = st.builds(gr, st.integers(-2, 2), st.integers(-1, 1))
    v = draw(st.lists(entries, min_size=r, max_size=r).filter(
        lambda xs: any(not x.is_zero() for x in xs)))
    return w, alpha, v


@settings(max_examples=80, deadline=None)
@given(_left_divisions())
@example((V_JSON, pt(Fraction(1, 2), Fraction(1, 3)), [gr(1), gr(0, 1)]))
@example((V_JSON, INFINITY, [gr(0), gr(2, -1)]))
@example((V_JSON, pt(0), [gr(1), gr(0)]))
def test_rank_one_update_is_the_full_product(case):
    w, alpha, v = case
    factor = ElementaryFactor(alpha, v)
    assert factor.left_divide(w) == factor.matrix().paraconj_transpose() * w
    assert factor.left_multiply(w) == factor.matrix() * w


def test_elementary_factor_equality_hash_repr_and_determinant():
    factor = ElementaryFactor(pt(2), [2, gr(0, 2)])
    same = ElementaryFactor(pt(2), [gr(0, -1), 1])  # the same ray, rotated and scaled
    assert factor == same and hash(factor) == hash(same)
    assert factor != ElementaryFactor(pt(3), [1, gr(0, 1)])
    assert factor != ElementaryFactor(pt(2), [1, 0])
    assert factor != "factor"
    assert repr(factor) == "ElementaryFactor(alpha=2, v=[1, 1*i])"
    assert factor.determinant() == blaschke(pt(2))
    assert ElementaryFactor(INFINITY, [1]).determinant() == blaschke(INFINITY)


def test_left_divide_checks_the_dimension():
    with pytest.raises(DimensionMismatchError):
        ElementaryFactor(pt(2), [1, 1]).left_divide(RatMat.identity(3))


def _rejects_as_not_paraunitary(v):
    with pytest.raises(ValueError) as info:
        potapov_factorize(v)
    assert type(info.value) is ValueError
    assert str(info.value) == "input is not para-unitary"


_U = make_elementary(pt(2), [1, 1]) * make_elementary(INFINITY, [1, -1])


@pytest.mark.parametrize("v", [
    _U * 2,
    _U * RatMat.diagonal([RF([1], [-2, 1]), RatFun.one()]),
    # a pole on the unit circle: no elementary factor exists there
    RatMat.diagonal([RF([0, 1], [-1, 1]), RF([-1, 1], [0, 1])]),
    _U * RatMat.diagonal([RF([1], [gr(0, -1), 1]), RatFun.one()]),
    # poles at +-sqrt(2), outside Q(i)
    RatMat.diagonal([RF([1, 0, -2], [-2, 0, 1]), RF([1], [-2, 0, 1])]),
    RatMat.zeros(2, 2),
], ids=["twice_u", "extra_pole", "circle_pole", "circle_pole_times_u",
        "non_gaussian_pole", "zero"])
def test_potapov_rejection_is_plain_value_error(v):
    # structural errors met during the peel (circle poles, poles outside
    # Q(i), the zero matrix) surface as "not para-unitary"
    _rejects_as_not_paraunitary(v)


def test_potapov_non_square_is_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        potapov_factorize(M([[1, 0]]))


def test_potapov_keeps_the_peel_error_on_paraunitary_input():
    # all-pass with poles at +-1/sqrt(2): para-unitary, so the peel's own
    # error is reported rather than "not para-unitary"
    b = RF([-2, 0, 1], [1, 0, -2])
    v = RatMat.diagonal([b, b])
    assert is_paraunitary(v)
    with pytest.raises(NonGaussianPoleError):
        potapov_factorize(v)


# scalar and one-entry perturbations; about a third leave V para-unitary
_SCALES = [gr(1), gr(-1), gr(0, 1), gr(2), gr(Fraction(1, 2))]
_BUMPS = [None, None, RatFun.one(), RF([0, 1]), RF([1], [-2, 1]), RF([1], [-1, 1])]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(_SCALES), st.sampled_from(_BUMPS), st.integers(0, 8))
def test_potapov_on_perturbed_products(seed, r, k, scale, bump, where):
    v = random_elementary_product(random.Random(seed), r, k)[0] * scale
    if bump is not None:
        i, j = divmod(where % (r * r), r)
        grid = [list(row) for row in v.entries]
        grid[i][j] = grid[i][j] + bump
        v = RatMat(grid)
    try:
        fact = potapov_factorize(v)
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc) == "input is not para-unitary"
        assert not is_paraunitary(v)
    else:
        assert fact.product() == v
        assert is_paraunitary(v)


def test_peel_enumerates_no_minors(monkeypatch):
    # pole locations come from the common denominator and each step from
    # a rank-one update: the peel forms no Smith-McMillan form
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(Fraction(1, 2), Fraction(-1, 2)), [0, 2, -1]))

    def forbidden(*args):
        raise AssertionError("minor enumeration in the peel")

    monkeypatch.setattr(ratmat, "_minor_gcd", forbidden)
    monkeypatch.setattr(ratmat, "_sm_of", forbidden)
    fact = potapov_factorize(v)
    monkeypatch.undo()
    assert len(fact) == 3
    assert fact.product() == v


# 0 and infinity, finite poles and the conjugate-reciprocal partner of each
_LEMMA_POOL = [pt(0), INFINITY, pt(2), pt(1, 1), pt(-3, 1)]
_LEMMA_POOL += [p.conj_pair() for p in _LEMMA_POOL[2:]]


@st.composite
def _paraunitary_products(draw):
    """A product of 1-4 elementary factors of side 1-3 whose poles repeat,
    meet their partners, and include 0 and infinity."""
    r = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    v = RatMat.identity(r)
    for alpha in draw(st.lists(st.sampled_from(_LEMMA_POOL), min_size=1, max_size=4)):
        v = v * make_elementary(alpha, random_direction(rng, r))
    return v, rng


@settings(max_examples=60, deadline=None)
@given(_paraunitary_products())
@example((make_elementary(pt(2), [1, 0]) * make_elementary(pt(2), [1, 1]), random.Random(0)))
@example((make_elementary(pt(0), [1, 1]) * make_elementary(INFINITY, [1, -1]), random.Random(0)))
@example((V_JSON, random.Random(0)))
def test_any_leading_coefficient_direction_lowers_the_degree_by_one(case):
    # the lemma of potapov_factorize: at every pole, every nonzero column of
    # the Laurent leading coefficient, and a combination of them, peels
    # exactly one unit of degree, at the pole and not at its partner
    v, rng = case
    degree = v.mcmillan_degree()
    small = v.rows <= 2 and degree <= 3
    for pole in v.pole_points():
        partner = pole.conj_pair()
        leading = v.laurent_leading(pole)
        directions = [col for col in zip(*leading) if any(not x.is_zero() for x in col)]
        weights = [rng.randint(-2, 2) for _ in directions]
        mixed = [sum((w * x for w, x in zip(weights, row)), gr(0)) for row in zip(*directions)]
        if any(not x.is_zero() for x in mixed):
            directions.append(mixed)
        for direction in directions:
            w = ElementaryFactor(pole, direction).left_divide(v)
            assert w.pole_degree(pole) == v.pole_degree(pole) - 1
            assert w.pole_degree(partner) == v.pole_degree(partner)
            assert w.mcmillan_degree() == degree - 1
            if small:
                assert brute_point_degrees(w, pole)[1] == v.pole_degree(pole) - 1
                assert brute_point_degrees(w, partner)[1] == v.pole_degree(partner)


def test_peel_asks_pole_degrees_of_the_input_only(monkeypatch):
    # deg V steps, one left division each, and the only pole degrees read
    # are those that sum to V's McMillan degree
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)])
         * make_elementary(pt(2), [1, 1, 0])
         * make_elementary(pt(Fraction(1, 2)), [0, 2, -1])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(0), [1, -1, 0]))
    degree = v.mcmillan_degree()
    asked, divided = [], []
    pole_degree = ratmat._pole_degree
    left_divide = ElementaryFactor.left_divide

    def spy_pole_degree(mat, point):
        asked.append(mat)
        return pole_degree(mat, point)

    def spy_left_divide(self, w):
        divided.append(self)
        return left_divide(self, w)

    monkeypatch.setattr(ratmat, "_pole_degree", spy_pole_degree)
    monkeypatch.setattr(ElementaryFactor, "left_divide", spy_left_divide)
    fact = potapov_factorize(v)
    monkeypatch.undo()
    assert asked and all(mat is v for mat in asked)
    assert len(divided) == degree == len(fact)
    assert fact.product() == v


def test_peel_root_searches_only_the_input_denominator(monkeypatch):
    # V's pole degrees are counted down step by step, so the only pole
    # locations found are V's own, from its denominator
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)])
         * make_elementary(pt(Fraction(1, 2)), [0, 2, -1])
         * make_elementary(pt(2), [1, 1, 0])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(1, 1), [1, -1, 0]))
    searched = []
    require_split = ratmat.require_split

    def spy(poly, context=""):
        searched.append(poly)
        return require_split(poly, context)

    monkeypatch.setattr(ratmat, "require_split", spy)
    fact = potapov_factorize(v)
    monkeypatch.undo()
    assert searched and set(searched) == {v.den}
    assert len(fact) == 5 and fact.product() == v
