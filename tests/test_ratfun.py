from fractions import Fraction

import pytest

from specfactor import INFINITY, Poly, RatFun, blaschke
from specfactor.errors import CirclePoleError
from specfactor.ratfun import blaschke_kernel

from helpers import P, RF, gr, pt


def test_reduced_canonical_form():
    f = RF([2, 3, 1], [1, 1])  # (z^2+3z+2)/(z+1) reduces to z+2
    assert f == RF([2, 1])
    assert f.den.is_one()
    g = RF([2, 4], [4, 2])  # (4z+2)/(2z+4) -> (2z+1)/(z+2)
    assert g.den.is_monic()
    assert g == RatFun(P(1, 2), P(2, 1))


def test_polynomial_fraction_and_its_numerator_find_each_other_as_dict_keys():
    # RatFun(p) == p, so both hash alike and a dict keyed by either finds
    # the other; through a constant numerator this reaches the scalars
    for num, key in ((P(1, 2, 3), P(1, 2, 3)), (P(gr(1, -1), 0, 2), P(gr(1, -1), 0, 2)),
                     (P(3), 3), (P(Fraction(1, 3)), Fraction(1, 3)), (P(gr(1, 2)), gr(1, 2)),
                     (Poly.zero(), 0)):
        f = RatFun(num)
        assert f == key and hash(f) == hash(key)
        assert {key: "key"}.get(f) == "key" and {f: "fraction"}.get(key) == "fraction"
    assert {P(1, 1): "p"}.get(RF([1, 1], [2, 1])) is None


def test_constant_and_realness_predicates():
    one, three, zero, z = RatFun.one(), RF([3]), RatFun.zero(), RF([0, 1])
    assert one.is_one() and not three.is_one() and not RF([1], [1, 1]).is_one()
    assert one.is_constant() and three.is_constant() and zero.is_constant()
    assert not z.is_constant() and not RF([1], [1, 1]).is_constant()
    assert three.constant_value() == gr(3) and zero.constant_value() == gr(0)
    with pytest.raises(ValueError, match="not a constant"):
        z.constant_value()
    assert z.has_real_coeffs() and RF([1], [2, 1]).has_real_coeffs()
    assert not RF([gr(0, 1)]).has_real_coeffs()
    assert not RF([1], [gr(0, 1), 1]).has_real_coeffs()
    assert bool(one) and bool(z) and not bool(zero)


def test_golden_subtraction():
    # (2z+3)/((z+1)(z+2)) - 1/(z+2) = 1/(z+1)
    lhs = RF([3, 2], [2, 3, 1]) - RF([1], [2, 1])
    assert lhs == RF([1], [1, 1])


def test_additive_identity():
    f = RF([3, 2], [2, 3, 1])
    assert f + RatFun.zero() == f


def test_blaschke_product_reduces_to_one():
    # b(2) * b(1/2) expands and cancels to 1
    prod = blaschke(pt(2)) * blaschke(pt(Fraction(1, 2)))
    assert prod == RatFun.one()
    for sample in (gr(3), gr(0, 1), gr(Fraction(5, 7), Fraction(1, 7))):
        assert prod.eval(sample) == gr(1)


def test_paraconj_golden():
    f = RF([1, -2], [-2, 1])  # (1-2z)/(z-2)
    expected = RatFun(P(-2, 1), P(1, -2))  # (z-2)/(1-2z)
    assert f.paraconj() == expected
    assert f.paraconj().paraconj() == f
    assert f * f.paraconj() == RatFun.one()


def test_paraconj_basics():
    c = RatFun.constant(gr(Fraction(7, 3)))
    assert c.paraconj() == c
    z = RF([0, 1])
    assert z.paraconj() == RF([1], [0, 1])
    ci = RatFun.constant(gr(0, 1))
    assert ci.paraconj() == RatFun.constant(gr(0, -1))


def test_paraconj_multiplicative():
    f = RF([1, gr(0, 1)], [3, 1])
    g = RF([2, -1], [0, 0, 1])
    assert (f * g).paraconj() == f.paraconj() * g.paraconj()


def test_reciprocal_subs_keeps_coefficients():
    f = RF([1, gr(0, 1)], [3, 1])  # (1 + i z)/(z + 3)
    r = f.reciprocal_subs()
    # (1 + i/z)/(1/z + 3) = (z + i)/(3z + 1): the i is not conjugated
    assert r == RatFun(P(gr(0, 1), 1), P(1, 3))
    assert r.reciprocal_subs() == f
    assert f.paraconj() != r


def test_valuation_examples():
    assert RF([1], [1, 1]).valuation(pt(-1)) == -1
    assert RF([1], [1, 1]).valuation(pt(-2)) == 0
    assert RF([4, -4, 1]).valuation(INFINITY) == -2
    assert RF([0, 1]).valuation(pt(0)) == 1
    assert RF([1], [0, 1]).valuation(INFINITY) == 1
    with pytest.raises(ValueError):
        RatFun.zero().valuation(pt(0))


def test_valuation_additive():
    f = RF([1, -2], [-2, 1])
    g = RF([0, 0, 1], [1, 1])
    for point in (pt(0), pt(2), pt(Fraction(1, 2)), pt(-1), INFINITY):
        assert (f * g).valuation(point) == f.valuation(point) + g.valuation(point)


def test_valuation_sums_to_zero_over_support():
    f = RF([0, 0, 1], [2, 3, 1]) * RF([1, -2], [-2, 1])
    support = [pt(0), pt(-1), pt(-2), pt(2), pt(Fraction(1, 2)), INFINITY]
    assert sum(f.valuation(p) for p in support) == 0


def test_blaschke_forms():
    assert blaschke(pt(2)) == RF([1, -2], [-2, 1])
    assert blaschke(INFINITY) == RF([0, 1])
    half_i = pt(0, Fraction(1, 2))
    b = blaschke(half_i)
    assert b == RatFun(P(1, gr(0, Fraction(1, 2))), P(gr(0, Fraction(-1, 2)), 1))
    assert b * b.paraconj() == RatFun.one()
    assert blaschke(pt(0)) == RF([1], [0, 1])


def test_blaschke_rejects_circle():
    with pytest.raises(CirclePoleError):
        blaschke(pt(1))
    with pytest.raises(CirclePoleError):
        blaschke(pt(Fraction(3, 5), Fraction(4, 5)))


_KERNEL_POLES = [pt(0), INFINITY, pt(2), pt(-3), pt(Fraction(1, 2)), pt(0, 2), pt(1, 1),
                 pt(Fraction(1, 2), Fraction(-1, 3))]


@pytest.mark.parametrize("alpha", _KERNEL_POLES, ids=str)
def test_blaschke_kernel_lists_are_the_kernel(alpha):
    # (1 - conj(alpha) z) / (z - alpha), z at infinity, from two
    # Gaussian-integer lists whose leads are nonzero
    kn, kd = blaschke_kernel(alpha)
    assert kn[-1] != (0, 0) and kd[-1] != (0, 0)
    if alpha.is_infinite:
        expected = RF([0, 1])
    else:
        a = alpha.value
        expected = RatFun(P(1, -a.conj()), P(-a, 1))
    assert blaschke(alpha) == expected
    assert RatFun(Poly.from_parts(1, kn), Poly.from_parts(1, kd)) == expected
    # swapped, the lists are b~ = 1/b
    assert RatFun(Poly.from_parts(1, kd), Poly.from_parts(1, kn)) == expected.paraconj()


def test_blaschke_kernel_at_zero_and_infinity_has_no_trailing_zero():
    assert blaschke_kernel(pt(0)) == ([(1, 0)], [(0, 0), (1, 0)])
    assert blaschke_kernel(INFINITY) == ([(0, 0), (1, 0)], [(1, 0)])


@pytest.mark.parametrize("alpha", [pt(1), pt(-1), pt(0, 1), pt(Fraction(3, 5), Fraction(-4, 5))],
                         ids=str)
def test_blaschke_kernel_rejects_circle(alpha):
    with pytest.raises(CirclePoleError):
        blaschke_kernel(alpha)


def test_eval_at_pole_raises():
    with pytest.raises(ZeroDivisionError):
        RF([1], [1, 1]).eval(gr(-1))


def test_division():
    f = RF([1, 1], [2, 1])
    assert f / f == RatFun.one()
    with pytest.raises(ZeroDivisionError):
        f / RatFun.zero()


def test_reflected_operators_inverse_and_negative_powers():
    f = RF([1, 2], [-3, 1])
    for c in (1, Fraction(-2, 3), gr(0, 1), P(1, 1)):
        assert c - f == -(f - c)
        assert c / f == c * f.inverse()
    assert f * f.inverse() == RatFun.one()
    assert f.inverse().inverse() == f
    assert f ** -2 == f.inverse() ** 2
    assert f ** -3 * f ** 3 == RatFun.one()
    for bad in (RatFun.zero().inverse, lambda: 1 / RatFun.zero(), lambda: RatFun.zero() ** -1):
        with pytest.raises(ZeroDivisionError):
            bad()
