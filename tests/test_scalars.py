import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from specfactor import Comparison, GaussianRational, INFINITY, Point
from specfactor.errors import ScalarParseError

from helpers import gr, pt
from oracles import RefGaussian, ref_abs_vs_one, ref_conj_pair, ref_sort_key, ref_symplectic_pair

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(GaussianRational, fractions, fractions)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


def test_field_examples():
    assert gr(Fraction(1, 2), 1) * gr(Fraction(1, 2), -1) == gr(Fraction(5, 4))
    assert gr(0) + gr(Fraction(3, 7)) == gr(Fraction(3, 7))


def test_division_checked_by_multiplying_back():
    quotient = gr(2, 3) / gr(1, -1)
    assert quotient == gr(Fraction(-1, 2), Fraction(5, 2))
    assert quotient * gr(1, -1) == gr(2, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)
    with pytest.raises(ZeroDivisionError):
        gr(0).inverse()


def test_conj():
    assert gr(2, 3).conj() == gr(2, -3)
    assert gr(5).conj() == gr(5)
    assert gr(0, -1).conj() == gr(0, 1)


@given(scalars)
def test_conj_involution(a):
    assert a.conj().conj() == a


@given(scalars, nonzero_scalars)
def test_division_multiplication_roundtrip(a, b):
    assert (a / b) * b == a


def test_abs_vs_one():
    assert pt(Fraction(3, 5), Fraction(4, 5)).abs_vs_one() is Comparison.EQUAL
    assert pt(2).abs_vs_one() is Comparison.GREATER
    assert INFINITY.abs_vs_one() is Comparison.GREATER
    assert pt(Fraction(1, 2), Fraction(-1, 2)).abs_vs_one() is Comparison.LESS


def test_symplectic_pair():
    assert pt(2).symplectic_pair() == pt(Fraction(1, 2))
    assert INFINITY.symplectic_pair() == pt(0)
    assert pt(0).symplectic_pair() == INFINITY
    paired = pt(1, 1).symplectic_pair()
    assert paired == pt(Fraction(1, 2), Fraction(-1, 2))
    assert paired.value * gr(1, 1) == gr(1)


def test_conj_pair():
    # 1 / conj(2i) = 1 / (-2i) = i/2; cross-checked by multiplication
    paired = pt(0, 2).conj_pair()
    assert paired == pt(0, Fraction(1, 2))
    assert paired.value * gr(0, 2).conj() == gr(1)
    assert pt(3).conj_pair() == pt(Fraction(1, 3))
    assert INFINITY.conj_pair() == pt(0)
    assert pt(0).conj_pair() == INFINITY


@given(scalars)
def test_pairings_are_involutions(a):
    p = Point(a)
    assert p.symplectic_pair().symplectic_pair() == p
    assert p.conj_pair().conj_pair() == p


def test_pairings_swap_infinity():
    assert INFINITY.symplectic_pair().symplectic_pair() == INFINITY
    assert INFINITY.conj_pair().conj_pair() == INFINITY


@given(scalars)
def test_symplectic_pair_reverses_magnitude(a):
    p = Point(a)
    cmp = p.abs_vs_one()
    flipped = p.symplectic_pair().abs_vs_one()
    if cmp is Comparison.LESS:
        assert flipped is Comparison.GREATER
    elif cmp is Comparison.GREATER:
        assert flipped is Comparison.LESS
    else:
        assert flipped is Comparison.EQUAL


def test_circle_points_under_pairings():
    p = pt(Fraction(3, 5), Fraction(4, 5))
    # conj_pair fixes circle points, symplectic_pair conjugates them
    assert p.conj_pair() == p
    assert p.conj_pair().abs_vs_one() is Comparison.EQUAL
    assert p.symplectic_pair() == pt(Fraction(3, 5), Fraction(-4, 5))
    assert p.symplectic_pair() != p


@given(scalars)
def test_string_roundtrip(a):
    assert GaussianRational.from_string(str(a)) == a


def test_parsing_tolerates_whitespace_and_forms():
    assert GaussianRational.from_string(" 1/2 + 3/4 * i ") == gr(Fraction(1, 2), Fraction(3, 4))
    assert GaussianRational.from_string("-i") == gr(0, -1)
    assert GaussianRational.from_string("i") == gr(0, 1)
    assert GaussianRational.from_string("3i") == gr(0, 3)
    assert GaussianRational.from_string("-1/2-3/4*i") == gr(Fraction(-1, 2), Fraction(-3, 4))
    assert GaussianRational.from_string("+2") == gr(2)
    assert Point.from_string("inf") == INFINITY
    assert Point.from_string(" INF ") == INFINITY
    assert str(INFINITY) == "inf"


@pytest.mark.parametrize("bad", ["", "abc", "1//2", "1+", "2..5", "1/2+*i",
                                 "1.5", "1e5", "1e-5", "1E5", "1_000", ".5", "5.",
                                 "1.5*i", "2+1e5i", "--1", "+-1", "1+-2", "1--2*i"])
def test_parse_errors(bad):
    with pytest.raises(ScalarParseError):
        GaussianRational.from_string(bad)


@pytest.mark.parametrize("bad", ["1.5", "1e5", "1_000", " 3", "1/-2"])
def test_rational_strings_take_digits_only(bad):
    with pytest.raises(ScalarParseError):
        GaussianRational(bad)


def test_infinity_has_no_value():
    with pytest.raises(ValueError):
        INFINITY.value


def test_real_scalars_find_int_and_fraction_keys():
    # a real scalar equals its int or Fraction, so either finds the other's key
    for x in (0, 1, -7, 10**30, Fraction(1, 3), Fraction(-22, 7)):
        assert {x: "x"}.get(gr(x)) == "x"
        assert {gr(x): "x"}.get(x) == "x"
    assert {gr(1, 2): "y"}.get(gr(Fraction(4, 4), 2)) == "y"
    assert {gr(1, 2): "y"}.get(1) is None


_MODULUS = sys.hash_info.modulus  # 2**61 - 1 on 64-bit builds


@settings(max_examples=300)
@given(st.one_of(st.integers(-10**6, 10**6), st.integers(-(2**70), 2**70),
                 st.sampled_from([-1, 1, _MODULUS - 1, -_MODULUS - 1, _MODULUS + 1])),
       st.one_of(st.integers(1, 10**6), st.integers(1, 2**70),
                 st.sampled_from([_MODULUS, 2 * _MODULUS, _MODULUS + 1])))
@example(-1, 1)
@example(-_MODULUS - 1, 1)
@example(-3, _MODULUS)
@example(5, 2 * _MODULUS)
def test_real_scalars_hash_like_the_equal_fraction(a, d):
    # the sampled values reach the -1 -> -2 rule and the infinite hash of a
    # denominator the modulus divides
    f = Fraction(a, d)
    assert hash(GaussianRational(f)) == hash(f)
    assert hash(GaussianRational(-f)) == hash(-f)


def test_point_equality_and_hash():
    assert pt(2) == pt(2)
    assert pt(2) != INFINITY
    assert len({pt(2), pt(2), INFINITY}) == 2


@given(scalars, fractions)
def test_reflected_sub_and_div(a, q):
    for c in (q, int(q)):
        assert c - a == -(a - c)
        if a:
            assert (c / a) * a == c
    assert 1 / gr(0, 1) == gr(0, -1)
    with pytest.raises(ZeroDivisionError):
        1 / gr(0)


# operands for the reference check: small and large integers and fractions,
# zero, the four units and two more points of the unit circle among the
# scalars, bare ints and Fractions too
_rationals = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2 ** 130), 2 ** 130),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(max_denominator=10 ** 20),
)
_pairs = st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
                          (Fraction(-5, 13), Fraction(12, 13))]) | st.tuples(_rationals, _rationals)
_operands = (_pairs.map(lambda p: (GaussianRational(*p), RefGaussian(*p)))
             | _rationals.map(lambda x: (x, x)))


def _same_point(got: Point, want):
    if want is None:
        assert got.is_infinite
    else:
        assert (got.value.re, got.value.im) == (want.re, want.im)


def _same(got, want: RefGaussian):
    """Every reading of got, and of its point, equals the reference's."""
    assert isinstance(got, GaussianRational)
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (str(got), repr(got), hash(got)) == (str(want), repr(want), hash(want))
    assert (got.is_zero(), got.is_one(), got.abs2()) == (want.is_zero(), want.is_one(), want.abs2())
    assert GaussianRational.from_string(str(got)) == got
    p = Point(got)
    assert p.abs_vs_one().value == ref_abs_vs_one(want)
    assert p.sort_key() == ref_sort_key(want)
    _same_point(p.symplectic_pair(), ref_symplectic_pair(want))
    _same_point(p.conj_pair(), ref_conj_pair(want))


def test_infinity_agrees_with_reference():
    assert INFINITY.abs_vs_one().value == ref_abs_vs_one(None)
    assert INFINITY.sort_key() == ref_sort_key(None)
    _same_point(INFINITY.symplectic_pair(), ref_symplectic_pair(None))
    _same_point(INFINITY.conj_pair(), ref_conj_pair(None))


@settings(max_examples=300, deadline=None)
@given(_pairs, _operands)
def test_agrees_with_fraction_pair_reference(x, y):
    a, ra = GaussianRational(*x), RefGaussian(*x)
    b, rb = y
    _same(a, ra)
    for got, want in ((-a, -ra), (a.conj(), ra.conj()), (a + b, ra + rb), (b + a, rb + ra),
                      (a - b, ra - rb), (b - a, rb - ra), (a * b, ra * rb), (b * a, rb * ra)):
        _same(got, want)
    for num, den, rnum, rden in ((a, b, ra, rb), (b, a, rb, ra), (1, a, 1, ra)):
        if RefGaussian.of(rden).is_zero():
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            _same(num / den, rnum / rden)
    if ra.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        _same(a.inverse(), ra.inverse())
    assert (a == b) == (b == a) == (ra == rb)
