import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specfactor import (
    AllPassFactorization,
    Comparison,
    ElementaryFactor,
    INFINITY,
    Poly,
    RatFun,
    RatMat,
    blaschke,
    degree_of_factorization,
    is_parahermitian,
    is_paraunitary,
    make_elementary,
    potapov_factorize,
)
from specfactor import allpass, poly, ratmat
from specfactor.allpass import is_unitary_constant
from specfactor.errors import DimensionMismatchError, NonGaussianPoleError
from specfactor.gaussint import gi_mul
from specfactor.jsonio import ratmat_from_json
from specfactor.ratfun import blaschke_kernel

from helpers import (
    M,
    RF,
    SAFE_POLE_POOL,
    gr,
    pt,
    random_direction,
    random_elementary_product,
)
from oracles import brute_point_degrees, elementary_oracle, laurent_leading, ref_peel


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


@st.composite
def _updates(draw):
    """(alpha, v, W): alpha finite, 0 or infinity, v a direction whose
    entries may vanish, and W of r rows and r..r+2 columns with poles and
    numerator roots at alpha, at its partner beta, at 0 and elsewhere;
    entries, and so rows, may vanish."""
    alpha = draw(st.sampled_from(SAFE_POLE_POOL[:3] + [pt(0), INFINITY]))
    r = draw(st.integers(1, 3))
    n = r + draw(st.integers(0, 2))
    roots = [p.value for p in (alpha, alpha.conj_pair()) if not p.is_infinite]
    roots = st.sampled_from(roots + [gr(0), gr(-1, 1)])
    entry = st.one_of(st.just(RatFun.zero()), st.builds(
        lambda num, den, c: RatFun(Poly.from_roots(num) * c, Poly.from_roots(den)),
        st.lists(roots, max_size=2), st.lists(roots, max_size=2),
        st.sampled_from([gr(1), gr(-2), gr(0, 1)])))
    w = M(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r)))
    entries = st.builds(gr, st.integers(-2, 2), st.integers(-1, 1))
    v = draw(st.lists(entries, min_size=r, max_size=r).filter(
        lambda xs: any(not x.is_zero() for x in xs)))
    return alpha, v, w


@settings(max_examples=60, deadline=None)
@given(_updates())
@example((pt(2), [gr(1), gr(0, 1)], RatMat.zeros(2, 3)))
@example((INFINITY, [gr(1), gr(0)], M([[0, 0], [RF([1], [0, 1]), RF([0, 1])]])))
def test_update_matches_the_entrywise_oracle(case):
    # U built entry by entry, and U~ as its paraconjugate transpose, times
    # W by the plain matrix product
    alpha, v, w = case
    factor = ElementaryFactor(alpha, v)
    u = elementary_oracle(alpha, v)
    assert factor.matrix() == u
    assert factor.left_multiply(w) == u * w
    assert factor.left_divide(w) == u.paraconj_transpose() * w


@st.composite
def _scaled_updates(draw):
    """(alpha, v, W, lam, mu): an update from ``_updates`` (wide and zero W
    included) or an elementary product from ``_paraunitary_products`` with
    a pole of its pool, and two nonzero Gaussian integers."""
    if draw(st.booleans()):
        alpha, v, w = draw(_updates())
    else:
        w, rng = draw(_paraunitary_products())
        alpha, v = draw(st.sampled_from(_LEMMA_POOL)), random_direction(rng, w.rows)
    scalar = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    return alpha, v, w, draw(scalar), draw(scalar)


def _scaled(lam, num):
    return [gi_mul(lam, x) for x in num]


@settings(max_examples=60, deadline=None)
@given(_scaled_updates())
@example((pt(2), [gr(1), gr(0, 1)], RatMat.zeros(2, 3), (1, 1), (0, -2)))
@example((pt(0), [gr(1), gr(1)], make_elementary(INFINITY, [1, 1]), (2, 0), (-1, 1)))
def test_update_is_invariant_under_common_gaussian_scalars(case):
    # lam on W's state and mu on the kernel's lists scale the result only:
    # made monic it is U W, and with the lists swapped U~ W
    alpha, v, w, lam, mu = case
    factor = ElementaryFactor(alpha, v)
    den, grid, top = ratmat.integer_form(w)
    den, grid = _scaled(lam, den), [[_scaled(lam, num) for num in row] for row in grid]
    kn, kd = (_scaled(mu, k) for k in blaschke_kernel(alpha))

    def monic(state):
        den, grid, _ = state
        return RatMat.from_integer_form(den, grid)

    assert monic(factor.integer_update(den, grid, top, kn, kd)) == factor.left_multiply(w)
    assert monic(factor.integer_update(den, grid, top, kd, kn)) == factor.left_divide(w)


def test_update_takes_no_gcd(monkeypatch):
    # the lemma in ElementaryFactor._update names the common factor, so
    # neither direction runs a gcd or the general reduction; W is wide,
    # has poles at alpha = 2, at beta = 1/2 and at 0, and a zero row, and
    # U~ U = I cancels everything
    alpha, v = pt(2), [gr(1), gr(1, 1)]
    u = make_elementary(alpha, v)
    wide = M([[RF([1], [-2, 1]), RF([0, 1], [Fraction(-1, 2), 1]), RF([1], [0, 1])],
              [0, 0, 0]])
    cases = [u, wide, RatMat.zeros(2, 2), u * wide]
    factor = ElementaryFactor(alpha, v)

    def refuse(*args):
        raise AssertionError("gcd or general reduction called")

    for module in [m for name, m in sys.modules.items() if name.startswith("specfactor")]:
        for name in ("gcd_of", "poly_gcd", "cleared_fraction"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    results = [(factor.left_multiply(w), factor.left_divide(w)) for w in cases]
    monkeypatch.undo()
    oracle = elementary_oracle(alpha, v)
    assert results[0][1] == RatMat.identity(2)
    for w, (multiplied, divided) in zip(cases, results):
        assert multiplied == oracle * w
        assert divided == oracle.paraconj_transpose() * w


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


# non-para-unitary perturbations: the scales are not unimodular, and 1/z
# puts a pole at 0, whose partner is infinity
_REFUSAL_SCALES = [gr(2), gr(Fraction(1, 2)), gr(1, 1)]
_REFUSAL_BUMPS = [RatFun.one(), RF([0, 1]), RF([1], [0, 1]), RF([1], [-2, 1]),
                  RF([1], [-1, 1])]


@st.composite
def _non_paraunitary(draw):
    """A product from ``_paraunitary_products`` scaled, with one entry
    bumped, or with one row zeroed, and no longer para-unitary."""
    v, _ = draw(_paraunitary_products())
    kind = draw(st.sampled_from(["scale", "bump", "zero_row"]))
    if kind == "scale":
        v = v * draw(st.sampled_from(_REFUSAL_SCALES))
    else:
        grid = [list(row) for row in v.entries]
        i, j = draw(st.integers(0, v.rows - 1)), draw(st.integers(0, v.cols - 1))
        if kind == "bump":
            grid[i][j] = grid[i][j] + draw(st.sampled_from(_REFUSAL_BUMPS))
        else:
            grid[i] = [RatFun.zero()] * v.cols
        v = RatMat(grid)
    assume(not v.is_zero() and not is_paraunitary(v))
    return v


@settings(max_examples=60, deadline=None)
@given(_non_paraunitary())
# 1/z + z, degree 2: peeling 0 raises the degree at infinity to 2, so the
# peel takes three steps
@example(M([[RF([1, 0, 1], [0, 1])]]))
def test_peel_refuses_non_paraunitary_input_within_twice_its_degree(v):
    # a step lowers the pole degree at its pole by at least one and raises
    # only its partner's, by at most one; the peel takes poles by ascending
    # modulus, so a partner it raises is peeled later or never again
    divided = []
    integer_update = ElementaryFactor.integer_update

    def spy_integer_update(self, *args):
        divided.append(self)
        return integer_update(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ElementaryFactor, "integer_update", spy_integer_update)
        _rejects_as_not_paraunitary(v)
    assert len(divided) <= 2 * v.mcmillan_degree()
    # the first step runs whenever V has a first pole off the unit circle
    poles = v.pole_points()
    if poles and poles[0].abs_vs_one() is not Comparison.EQUAL:
        assert divided


# roots of entries: 0, points inside and outside the circle with some of
# their partners, and 1 and i on it
_SQUARE_ROOTS = [gr(0), gr(2), gr(Fraction(1, 2)), gr(1, 1), gr(Fraction(1, 2), Fraction(1, 2)),
                 gr(Fraction(-1, 3)), gr(1), gr(0, 1)]
_square_entries = st.one_of(
    st.just(RatFun.zero()),
    st.builds(lambda c, zeros, poles: RatFun(Poly.from_roots(zeros) * c, Poly.from_roots(poles)),
              st.builds(gr, st.integers(-2, 2), st.integers(-2, 2)).filter(bool),
              st.lists(st.sampled_from(_SQUARE_ROOTS), max_size=3),
              st.lists(st.sampled_from(_SQUARE_ROOTS), max_size=2)))


@st.composite
def _random_squares(draw):
    """A square matrix of side 1-3 from entries with split numerators and
    denominators (poles at 0, on the circle, and at infinity where a
    numerator outgrows its denominator), not zero and not para-unitary."""
    r = draw(st.integers(1, 3))
    v = RatMat([[draw(_square_entries) for _ in range(r)] for _ in range(r)])
    assume(not v.is_zero() and not is_paraunitary(v))
    return v


@settings(max_examples=80, deadline=None)
@given(_random_squares())
@example(M([[RF([0, 0, 1], [Fraction(-1, 2), 1])]]))
@example(M([[RF([1], [0, 1]), 1], [0, RF([-2, 1], [-1, 1])]]))
def test_peel_refuses_any_square_input_within_twice_its_degree(v):
    # the bound of potapov_factorize's lemma on inputs that are no
    # perturbation of an all-pass product: a refusal within 2 deg V steps
    steps = []
    integer_update = ElementaryFactor.integer_update

    def spy_integer_update(self, *args):
        steps.append(self)
        return integer_update(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ElementaryFactor, "integer_update", spy_integer_update)
        _rejects_as_not_paraunitary(v)
    assert len(steps) <= 2 * v.mcmillan_degree()


def test_peel_builds_the_input_state_once(monkeypatch):
    # V's integer form is built once, for the peel's state: neither the
    # pole query nor a step builds it again, memoized or not
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)]) * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(0), [1, -1, 0]))
    built = []
    build = ratmat.integer_form

    def spy(mat):
        built.append(mat)
        return build(mat)

    for module, name in ((allpass, "integer_form"), (ratmat, "integer_form"),
                         (ratmat, "_integer_form")):
        monkeypatch.setattr(module, name, spy)
    fact = potapov_factorize(v)
    monkeypatch.undo()
    assert [mat for mat in built if mat == v] == [v]
    assert fact.product() == v


def test_peel_reads_no_pole_degree(monkeypatch):
    # deg V steps, one left division each, and no pole degree read: each
    # pole is peeled while what is left still has a pole there
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)])
         * make_elementary(pt(2), [1, 1, 0])
         * make_elementary(pt(Fraction(1, 2)), [0, 2, -1])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(0), [1, -1, 0]))
    degree = v.mcmillan_degree()
    divided = []
    integer_update = ElementaryFactor.integer_update

    def no_pole_degree(mat, point):
        raise AssertionError("pole degree read in the peel")

    def spy_integer_update(self, *args):
        divided.append(self)
        return integer_update(self, *args)

    monkeypatch.setattr(ratmat, "_pole_degree", no_pole_degree)
    monkeypatch.setattr(ElementaryFactor, "integer_update", spy_integer_update)
    fact = potapov_factorize(v)
    monkeypatch.undo()
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


@settings(max_examples=40, deadline=None)
@given(_paraunitary_products())
@example((make_elementary(pt(2), [1, 0]) * make_elementary(pt(2), [1, 1]), random.Random(0)))
@example((V_JSON, random.Random(0)))
def test_peel_is_the_oracle_peel_factor_for_factor(case):
    # the integer peel against the textbook one on RatMat products: the
    # same poles in the same order, the same rays and the same constant
    v, _ = case
    fact = potapov_factorize(v)
    constant, steps = ref_peel(v)
    assert fact.constant == constant
    assert [(f.alpha, f) for f in fact.factors] == [
        (pole, ElementaryFactor(pole, direction)) for pole, direction in steps]


@settings(max_examples=40, deadline=None)
@given(_paraunitary_products())
@example((make_elementary(pt(2), [1, 0]) * make_elementary(pt(2), [1, 1]), random.Random(0)))
@example((V_JSON, random.Random(0)))
def test_peel_takes_no_polynomial_arithmetic(case):
    # the kernel, every step and the constant tail stay in Gaussian-integer
    # lists: with Poly's +, - and * refused, the peel still completes
    v, _ = case

    def refuse(*args):
        raise AssertionError("Poly arithmetic in the peel")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            mp.setattr(Poly, name, refuse)
        fact = potapov_factorize(v)
    assert fact.product() == v


def _signed_permutations():
    rng = random.Random(5)
    units = [gr(1), gr(-1), gr(0, 1), gr(0, -1)]
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            signs = [rng.choice(units) for _ in range(n)]
            yield M([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)])


_F = Fraction
_UNITARY = [M([[1]]), M([[-1]]), M([[gr(0, 1)]]), M([[gr(0, -1)]]),
            *_signed_permutations(),
            M([[_F(3, 5), _F(4, 5)], [_F(-4, 5), _F(3, 5)]]),
            M([[_F(1, 3), _F(2, 3), _F(2, 3)], [_F(2, 3), _F(1, 3), _F(-2, 3)],
               [_F(2, 3), _F(-2, 3), _F(1, 3)]])]
# scaled, a column off the unit sphere, and unit columns that are not orthogonal
_NOT_UNITARY = [c * k for c in _UNITARY for k in (gr(2), gr(1, 1))] + [
    M([[_F(3, 5), _F(4, 5)], [_F(-4, 5), _F(3, 6)]]),
    M([[1, _F(3, 5)], [0, _F(4, 5)]]), M([[1, 0, 0], [0, 1, gr(0, _F(3, 5))], [0, 0, _F(4, 5)]])]


def test_integer_unitarity_check_is_the_paraunitary_check_on_constants():
    for c in _UNITARY:
        assert is_unitary_constant(c) and is_paraunitary(c), c
        assert AllPassFactorization(c, []).constant == c
    for c in _NOT_UNITARY:
        assert not is_unitary_constant(c) and not is_paraunitary(c), c
        with pytest.raises(ValueError) as info:
            AllPassFactorization(c, [])
        assert type(info.value) is ValueError
        assert str(info.value) == "leading matrix of a factorization must be unitary"


def test_peel_fills_no_memo():
    # the peel workload is the benchmark's control for caching: only V's
    # own pole query (its denominator's roots) is memoized, and no step or
    # check fills a memo
    v = (make_elementary(pt(2), [1, 0, gr(0, 1)])
         * make_elementary(pt(1, 1), [1, 1, 0])
         * make_elementary(pt(Fraction(1, 2)), [0, 2, -1])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(pt(0), [1, -1, 0]))
    memos = {f"{name}.{attr}": fn for name, module in sys.modules.items()
             if name.startswith("specfactor") and module is not None
             for attr, fn in vars(module).items()
             if hasattr(fn, "cache_clear") and fn.__module__ == name}
    assert len(memos) == 10
    for fn in memos.values():
        fn.cache_clear()
    fact = potapov_factorize(v)
    sizes = {name: fn.cache_info().currsize for name, fn in memos.items()
             if fn.cache_info().currsize}
    assert sizes == {"specfactor.poly.gaussian_roots": 1}
    # the one entry is V's: asking for it again is a hit
    before = poly.gaussian_roots.cache_info()
    poly.gaussian_roots(v.den)
    after = poly.gaussian_roots.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 1)
    assert len(fact) == 5 and fact.product() == v
