from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from specfactor import GaussianRational, INFINITY, Poly, gaussian_roots
from specfactor.errors import NonGaussianPoleError
from specfactor.poly import poly_gcd, poly_lcm, require_split

from helpers import P, gr, pt
from oracles import ref_divmod, ref_eval, ref_mul, ref_trim

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
scalars = st.builds(GaussianRational, fractions, fractions)
polys = st.lists(scalars, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_product_examples():
    assert P(1, 1) * P(2, 1) == P(2, 3, 1)
    assert P(1, 2, 3) * Poly.zero() == Poly.zero()
    # (z - i)(z + i) = z^2 + 1, checked by evaluation at z = 2
    prod = Poly.linear(gr(0, 1)) * Poly.linear(gr(0, -1))
    assert prod == P(1, 0, 1)
    assert prod.eval(gr(2)) == gr(5)


def test_divmod_examples():
    q, r = divmod(P(2, 3, 1), P(1, 1))
    assert q == P(2, 1) and r.is_zero()
    q, r = divmod(P(0, 0, 1), P(1, 1))
    assert q == P(-1, 1) and r == P(1)
    assert q * P(1, 1) + r == P(0, 0, 1)
    q, r = divmod(P(7), P(1, 1))
    assert q.is_zero() and r == P(7)
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), Poly.zero())


@settings(max_examples=80)
@given(polys, nonzero_polys)
def test_divmod_reconstruction(p, q):
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


def test_gcd_examples():
    assert poly_gcd(P(2, 3, 1), P(1, 1)) == P(1, 1)
    assert poly_gcd(P(3, 2), P(1, 1)).is_one()
    assert poly_gcd(P(2, 4), Poly.zero()) == P(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(p, q):
    g = poly_gcd(p, q)
    assert g.is_monic()
    assert (p % g).is_zero()
    assert (q % g).is_zero()


def test_lcm():
    l = poly_lcm(P(1, 1), P(2, 3, 1))
    assert l == P(2, 3, 1)
    assert (l % P(2, 1)).is_zero()


def test_multiplicity_examples():
    p = Poly.from_roots([gr(-1), gr(-1), gr(2)])
    assert p.multiplicity(pt(-1)) == 2
    assert P(3, 2).multiplicity(pt(-2)) == 0
    cubed = Poly.linear(gr(1, 1)) ** 3
    assert cubed.multiplicity(pt(1, 1)) == 3
    assert p.multiplicity(INFINITY) == 0
    with pytest.raises(ValueError):
        Poly.zero().multiplicity(pt(0))


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys, scalars)
def test_multiplicity_additive(p, q, a):
    point = pt(a.re, a.im)
    assert (p * q).multiplicity(point) == p.multiplicity(point) + q.multiplicity(point)


def test_eval_examples():
    assert P(1, 0, 1).eval(gr(0, 1)) == gr(0)
    assert P(2, 1).eval(gr(-2)) == gr(0)
    value = P(3, 2).eval(gr(-1))
    assert value == gr(1)
    # cross-check through the division remainder at the same point
    _, rem = divmod(P(3, 2), Poly.linear(gr(-1)))
    assert rem == P(1)


def test_gaussian_roots_examples():
    roots, cofactor = gaussian_roots(P(2, 3, 1))
    assert set(roots) == {(gr(-1), 1), (gr(-2), 1)}
    assert cofactor.is_one()
    roots, cofactor = gaussian_roots(P(1, 0, 1))
    assert set(roots) == {(gr(0, 1), 1), (gr(0, -1), 1)}
    assert cofactor.is_one()
    roots, cofactor = gaussian_roots(P(-2, 0, 1))
    assert roots == ()
    assert cofactor == P(-2, 0, 1)


def test_gaussian_roots_reconstruction():
    lead = gr(3, -2)
    base = Poly.from_roots(
        [gr(0), gr(Fraction(2, 3)), gr(Fraction(2, 3)), gr(1, -1), gr(-5)]
    )
    p = base * P(7, 0, 1) * lead  # irreducible quadratic cofactor z^2 + 7
    roots, cofactor = gaussian_roots(p)
    rebuilt = Poly.constant(p.lead) * cofactor
    for root, mult in roots:
        rebuilt = rebuilt * Poly.linear(root) ** mult
    assert rebuilt == p
    assert cofactor == P(7, 0, 1)
    assert dict(roots)[gr(Fraction(2, 3))] == 2


def test_require_split():
    assert set(require_split(P(2, 3, 1))) == {(gr(-1), 1), (gr(-2), 1)}
    with pytest.raises(NonGaussianPoleError):
        require_split(P(-2, 0, 1))


def test_degree_conventions():
    assert Poly.zero().degree == float("-inf")
    assert P(5).degree == 0
    assert P(0, 0, 3).degree == 2
    with pytest.raises(ValueError):
        Poly.zero().monic()


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)
wide_scalars = st.builds(GaussianRational, wide_fractions, wide_fractions)
real_scalars = st.builds(GaussianRational, wide_fractions)
coeff_lists = st.lists(st.one_of(wide_scalars, real_scalars, scalars), max_size=7).map(ref_trim)
nonzero_coeff_lists = coeff_lists.filter(bool)


@settings(max_examples=120)
@given(coeff_lists, coeff_lists)
def test_mul_matches_reference(a, b):
    assert list((Poly(a) * Poly(b)).coeffs) == ref_mul(a, b)


@settings(max_examples=80)
@given(coeff_lists, wide_scalars)
def test_scalar_mul_matches_reference(a, s):
    assert list((Poly(a) * s).coeffs) == ref_mul(a, [s] if s else [])
    assert Poly(a) * s == s * Poly(a)


@settings(max_examples=120)
@given(coeff_lists, nonzero_coeff_lists)
def test_divmod_matches_reference(a, b):
    q, r = divmod(Poly(a), Poly(b))
    ref_q, ref_r = ref_divmod(a, b)
    assert list(q.coeffs) == ref_q
    assert list(r.coeffs) == ref_r


@settings(max_examples=80)
@given(nonzero_coeff_lists, nonzero_coeff_lists)
def test_exact_div_recovers_factor(a, b):
    assert (Poly(a) * Poly(b)).exact_div(Poly(b)) == Poly(a)


@settings(max_examples=120)
@given(coeff_lists, wide_scalars)
def test_eval_matches_reference(a, x):
    assert Poly(a).eval(x) == ref_eval(a, x)


@settings(max_examples=80)
@given(nonzero_coeff_lists)
def test_monic_matches_reference(a):
    lead = a[-1]
    assert list(Poly(a).monic().coeffs) == [c / lead for c in a]


@settings(max_examples=80)
@given(coeff_lists, coeff_lists)
def test_add_sub_match_reference(a, b):
    n = max(len(a), len(b))
    pad = lambda c: c + [GaussianRational(0)] * (n - len(c))
    assert list((Poly(a) + Poly(b)).coeffs) == ref_trim(x + y for x, y in zip(pad(a), pad(b)))
    assert list((Poly(a) - Poly(b)).coeffs) == ref_trim(x - y for x, y in zip(pad(a), pad(b)))


@settings(max_examples=60)
@given(nonzero_coeff_lists, nonzero_coeff_lists, nonzero_coeff_lists)
def test_gcd_against_reference_division(a, b, c):
    # a common factor c makes nontrivial gcds common
    p = ref_mul(a, c)
    q = ref_mul(b, c)
    g = poly_gcd(Poly(p), Poly(q))
    gc = list(g.coeffs)
    assert gc[-1] == gr(1)
    assert ref_divmod(p, gc)[1] == []
    assert ref_divmod(q, gc)[1] == []
    assert ref_divmod(gc, list(Poly(c).monic().coeffs))[1] == []


@settings(max_examples=80)
@given(st.lists(st.integers(-40, 40), max_size=6), st.integers(1, 12), wide_scalars)
def test_canonical_form_across_coefficient_types(ints, k, s):
    as_int = Poly(ints)
    as_fraction = Poly([Fraction(x) for x in ints])
    as_scalar = Poly([gr(x) for x in ints])
    scaled = Poly([Fraction(x * k, k) for x in ints])
    assert as_int == as_fraction == as_scalar == scaled
    assert hash(as_int) == hash(as_fraction) == hash(as_scalar) == hash(scaled)
    if s:
        rescaled = Poly([gr(x) * s for x in ints]) * s.inverse()
        assert rescaled == as_int and hash(rescaled) == hash(as_int)
    assert list(as_int.coeffs) == ref_trim(gr(x) for x in ints)


@settings(max_examples=80)
@given(coeff_lists, coeff_lists)
def test_stored_form_is_canonical(a, b):
    from math import gcd

    for p in (Poly(a), Poly(a) * Poly(b), Poly(a) + Poly(b), Poly(a).reversed()):
        assert p._den > 0
        assert not p._num or p._num[-1] != (0, 0)
        assert gcd(p._den, *(x for c in p._num for x in c)) == 1


def test_public_views_keep_their_values():
    p = P(Fraction(1, 2), gr(0, Fraction(-2, 3)), 0, 3)
    assert p.coeffs == (gr(Fraction(1, 2)), gr(0, Fraction(-2, 3)), gr(0), gr(3))
    assert p.coefficient(1) == gr(0, Fraction(-2, 3)) and p.coefficient(9) == gr(0)
    assert p.lead == gr(3) and p.degree == 3
    assert str(p) == "(3)*z^3 + (-2/3*i)*z + (1/2)"
    assert repr(p) == "Poly[(3)*z^3 + (-2/3*i)*z + (1/2)]"
    assert P(0, 0, 5).reversed() == P(5) and P(1, 0).reversed() == P(1)
    assert p.conj_coeffs() == P(Fraction(1, 2), gr(0, Fraction(2, 3)), 0, 3)
    assert Poly(["1/2", 2]) == P(Fraction(1, 2), 2)
    assert P(3) == 3 and P(Fraction(1, 2)) == gr(Fraction(1, 2)) and P() == 0


root_lists = st.lists(
    st.tuples(st.builds(GaussianRational, wide_fractions, wide_fractions), st.integers(1, 3)),
    max_size=4, unique_by=lambda rm: rm[0])


def _expected_roots(planted):
    return sorted(planted, key=lambda rm: (rm[0].abs2(), rm[0].re, rm[0].im))


@settings(max_examples=60)
@given(root_lists, st.sampled_from([P(1), P(-2, 0, 1), P(7, 1, 1)]), wide_scalars)
def test_gaussian_roots_recovers_planted_roots(planted, cofactor, lead):
    if lead.is_zero():
        lead = gr(1)
    p = cofactor * lead
    for root, mult in planted:
        p = p * Poly.linear(root) ** mult
    roots, rest = gaussian_roots(p)
    assert list(roots) == _expected_roots(planted)
    assert rest == cofactor.monic()


def test_gaussian_roots_divisor_search_alone(monkeypatch):
    # with no floating-point guesses the divisor search must find every root
    import specfactor.poly as poly_mod

    monkeypatch.setattr(poly_mod, "_guessed_roots", lambda work: [])
    gaussian_roots.cache_clear()
    try:
        planted = [(gr(Fraction(2, 3)), 2), (gr(1, -1), 1), (gr(-5, Fraction(1, 2)), 1)]
        p = P(7, 0, 1) * gr(3, -2)
        for root, mult in planted:
            p = p * Poly.linear(root) ** mult
        roots, rest = gaussian_roots(p)
        assert list(roots) == _expected_roots(planted)
        assert rest == P(7, 0, 1)
    finally:
        gaussian_roots.cache_clear()
