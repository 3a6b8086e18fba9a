from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from specfactor import GaussianRational, INFINITY, Point, Poly, RatFun, RatMat, gaussian_roots
from specfactor.errors import InputTooLargeError, NonGaussianPoleError
from specfactor.poly import (_GUESS_DENOMINATOR_CAP, _complex_roots, _nearest_fraction,
                             cleared_fraction, gcd_of, monic_fraction, mul_into, order_of, pairs,
                             poly_gcd, poly_lcm, require_split, taylor_numerators)

from helpers import P, gr, pt
from oracles import ref_divmod, ref_eval, ref_mul, ref_trim, synthetic_multiplicity

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


gaussian_ints = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
real_ints = st.tuples(st.integers(-60, 60), st.just(0))
int_lists = st.lists(st.one_of(gaussian_ints, real_ints), max_size=6)


@settings(max_examples=150)
@given(st.lists(st.tuples(int_lists, int_lists), max_size=4), st.booleans(),
       st.integers(0, 12))
@example(terms=[([(1, 2), (3, -1)], [(2, 0), (0, 1)]), ([(5, 0)], [(1, 1)])], cancel=True,
         cut=12)
@example(terms=[([], [(1, 0)]), ([(2, 0)], []), ([], [])], cancel=False, cut=12)
def test_mul_into_accumulates_the_reference_products(terms, cancel, cut):
    # several products summed into one target; with cancel the first is
    # subtracted again, so the top coefficients of the sum can cancel
    if cancel and terms:
        x, y = terms[0]
        terms = terms + [([(-a, -b) for a, b in x], y)]
    n = max((len(x) + len(y) - 1 for x, y in terms if x and y), default=0)
    re, im = [0] * n, [0] * n
    expected = [GaussianRational(0)] * n
    for x, y in terms:
        mul_into(re, im, x, y)
        product = ref_mul([gr(a, b) for a, b in x], [gr(a, b) for a, b in y])
        for k, c in enumerate(product):
            expected[k] = expected[k] + c
    assert [gr(a, b) for a, b in zip(re, im)] == expected
    assert [gr(a, b) for a, b in pairs(re, im)] == ref_trim(expected)
    assert [gr(a, b) for a, b in pairs(re, im, cut)] == ref_trim(expected[:cut])


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
@given(st.integers(-9, 9) | fractions | scalars)
@example(3)
@example(0)
@example(gr(1, 2))
def test_constant_and_its_scalar_find_each_other_as_dict_keys(x):
    # a constant polynomial equals its scalar, so == and hash agree across
    # the two and a dict keyed by either finds the other
    c = Poly([x])
    assert c == x and hash(c) == hash(x)
    assert {x: "scalar"}.get(c) == "scalar" and {c: "poly"}.get(x) == "poly"


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


def test_divisor_roots_yields_before_enumerating(monkeypatch):
    # 5040 has 216 Gaussian divisors up to units, so 46,656 divisor pairs
    # (times four units) are candidates; the first one needs one pair only
    import specfactor.poly as poly_mod

    gcds = []
    gi_gcd = poly_mod.gi_gcd

    def counting(x, y):
        gcds.append((x, y))
        return gi_gcd(x, y)

    monkeypatch.setattr(poly_mod, "gi_gcd", counting)
    candidates = poly_mod._divisor_roots(P(5040, 1, 5040))
    num, den = next(candidates)
    assert len(gcds) == 1
    assert den[0] > 0 and den[1] >= 0 and num != (0, 0)


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


def test_divisor_search_refuses_too_many_candidates():
    # 10**300 has 601 * 301 * 301 divisor classes in Z[i]; the guesses at
    # +-10**150*i cannot be confirmed in floating point
    with pytest.raises(InputTooLargeError, match="divisor pairs"):
        gaussian_roots(P(10**300, 0, 1))


_planted_simple = st.lists(
    st.builds(lambda a, b, c, d: gr(Fraction(a, b), Fraction(c, d)),
              st.integers(-60, 60), st.integers(1, 30), st.integers(-60, 60), st.integers(1, 30)),
    min_size=1, max_size=8, unique=True)


@settings(max_examples=150, deadline=None)
@given(_planted_simple, st.sampled_from([gr(1), gr(-7, 2), gr(Fraction(3, 11), 5)]))
def test_guesses_alone_recover_planted_simple_roots(planted, lead):
    import specfactor.poly as poly_mod

    p = Poly.from_roots(planted) * lead
    gaussian_roots.cache_clear()
    try:
        with patch.object(poly_mod, "_divisor_roots", lambda work: iter(())):
            roots, rest = gaussian_roots(p)
    finally:
        gaussian_roots.cache_clear()
    assert list(roots) == _expected_roots([(r, 1) for r in planted])
    assert rest.is_one()


_caps = st.one_of(st.integers(1, 50), st.integers(1, 2 * _GUESS_DENOMINATOR_CAP),
                  st.just(_GUESS_DENOMINATOR_CAP))


@settings(max_examples=300)
@given(st.floats(allow_nan=False, allow_infinity=False), _caps)
@example(0.0, 7)
@example(-0.0, 1)
@example(5e-324, _GUESS_DENOMINATOR_CAP)
@example(-2.5e-300, 3)
@example(1e300, _GUESS_DENOMINATOR_CAP)
@example(-1.7976931348623157e308, 1)
@example(2.0 ** 60 + 2.0 ** 8, 5)
@example(1 / 3, _GUESS_DENOMINATOR_CAP)
@example(-0.5, 1)  # a tie: both neighbours are 1 away at denominator 1
@example(0.1, 10)
def test_nearest_fraction_is_limit_denominator(x, cap):
    # the guesses' rounding, in integers, against the standard library's
    expected = Fraction(x).limit_denominator(cap)
    assert _nearest_fraction(*x.as_integer_ratio(), cap) == (expected.numerator,
                                                             expected.denominator)


@settings(max_examples=200)
@given(st.fractions(), _caps)
@example(Fraction(7), 1)
@example(Fraction(-10**40 - 1, 10**40), 10**6)
def test_nearest_fraction_of_any_fraction(q, cap):
    expected = q.limit_denominator(cap)
    assert _nearest_fraction(q.numerator, q.denominator, cap) == (expected.numerator,
                                                                  expected.denominator)


_quadratic_roots = st.builds(gr, st.fractions(-50, 50, max_denominator=40),
                             st.fractions(-50, 50, max_denominator=40))


@settings(max_examples=120, deadline=None)
@given(_quadratic_roots, _quadratic_roots, st.sampled_from([gr(1), gr(-3, 2), gr(Fraction(2, 7))]))
def test_planted_quadratics(r, s, lead):
    # a double root (the square-free part is linear), a conjugate pair and
    # two arbitrary roots, each found by the closed form or exactly
    for planted in ([(r, 2)], [(r, 1), (r.conj(), 1)], [(r, 1), (s, 1)]):
        merged = {}
        for root, mult in planted:
            merged[root] = merged.get(root, 0) + mult
        p = lead
        for root, mult in planted:
            p = p * Poly.linear(root) ** mult
        gaussian_roots.cache_clear()
        with patch("specfactor.poly._divisor_roots", lambda work: iter(())):
            roots, rest = gaussian_roots(p)
        assert list(roots) == _expected_roots(list(merged.items()))
        assert rest.is_one()
    gaussian_roots.cache_clear()


@pytest.mark.parametrize("big, other", [(gr(3**629), gr(-2)), (gr(-(7**355)), gr(5)),
                                        (gr(3**629), gr(0, 1))], ids=["3^629", "-7^355", "3^629,i"])
def test_quadratic_near_1e300_falls_back_to_the_divisor_search(big, other):
    # b**2 overflows a double, so the closed form guesses nothing usable
    # and the divisor search over Z[i] finds both roots
    import specfactor.poly as poly_mod

    p = Poly.linear(big) * Poly.linear(other)
    assert abs(float(p.coefficient(1).re)) > 1e300
    searched = []
    divisor_roots = poly_mod._divisor_roots

    def spy(work):
        searched.append(work)
        return divisor_roots(work)

    gaussian_roots.cache_clear()
    try:
        with patch.object(poly_mod, "_divisor_roots", spy):
            roots, rest = gaussian_roots(p)
    finally:
        gaussian_roots.cache_clear()
    assert searched and rest.is_one()
    assert list(roots) == _expected_roots([(big, 1), (other, 1)])


def test_root_search_calls_no_limit_denominator(monkeypatch):
    # the guesses round in integers (a cubic by Aberth, a quadratic by the
    # closed form, a linear square-free part exactly), not through Fraction
    def forbidden(self, cap=None):
        raise AssertionError("Fraction.limit_denominator in the root search")

    planted = [gr(Fraction(1, 3)), gr(Fraction(2, 5), Fraction(1, 5)), gr(Fraction(-7, 2), 3)]
    cases = [Poly.from_roots(planted) * gr(2, 1),
             Poly.from_roots(planted[:2]) * gr(Fraction(3, 4)),
             Poly.from_roots(planted[1:2] * 3)]
    gaussian_roots.cache_clear()
    monkeypatch.setattr(Fraction, "limit_denominator", forbidden)
    try:
        found = [gaussian_roots(p) for p in cases]
    finally:
        monkeypatch.undo()
        gaussian_roots.cache_clear()
    assert [len(roots) for roots, _ in found] == [3, 2, 1]
    assert all(rest.is_one() for _, rest in found)


@pytest.mark.parametrize("monic", [
    [1], [1, 0], [1, 0, 0], [1, -2, 1], [1, 0, 0, 0, 0, 0, 0, 0, -1], [1, 0, 0, 0, 1j],
    [1, 0, 0, 0, 0, 0, -1e-12], [1, 0, 1e300], [1, 1e308, 1e308], [1, 0, 0, 0, 0, 0, 0, 1e300],
])
def test_complex_roots_never_raise(monic):
    roots = _complex_roots(monic)
    assert len(roots) == len(monic) - 1


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("c", [1, -2, 1j, Fraction(1, 3)])
def test_complex_roots_of_symmetric_binomials(n, c):
    # z**n - c: the roots lie symmetrically on a circle, like the start points
    roots = _complex_roots([1] + [0] * (n - 1) + [-complex(c)])
    assert len(roots) == n
    assert all(abs(z ** n - complex(c)) < 1e-12 for z in roots)
    # n distinct roots, not one root found n times
    assert all(abs(z - w) > 1e-3 for i, z in enumerate(roots) for w in roots[:i])


_COFACTOR = [gr(3, -1), gr(Fraction(-1, 2)), gr(2, 5)]


@settings(max_examples=120)
@given(root_lists, nonzero_coeff_lists, wide_scalars, st.integers(0, 3))
# top > deg P, so every coefficient is scaled by delta**(top - k): delta = 1
# for an integer alpha, 3 and 2 for the others
@example([(gr(1), 2)], _COFACTOR, gr(-2), 3)
@example([(gr(1), 2)], _COFACTOR, gr(Fraction(-5, 3)), 3)
@example([(gr(0, 1), 1)], _COFACTOR, gr(Fraction(1, 2), Fraction(1, 2)), 2)
def test_taylor_kernel_order_matches_synthetic_division(planted, cofactor, alpha, pad):
    # alpha is planted once per drawn root and may be drawn itself: orders up to 7
    p = Poly(cofactor) * Poly.from_roots(
        [r for r, m in planted for _ in range(m)] + [alpha] * len(planted))
    den, num = p.parts
    top = int(p.degree) + pad
    shifted = taylor_numerators(num, alpha, top, len(num))
    assert order_of(shifted) == synthetic_multiplicity(p, alpha) == p.multiplicity(Point(alpha))
    # the coefficients are those of delta**top * num((u + x) / delta) in
    # u = delta * (z - alpha), delta the common denominator of alpha's parts
    delta = lcm(alpha.re.denominator, alpha.im.denominator)
    u = gr(Fraction(2, 3), -1)
    expected = ref_eval([gr(*c) for c in num], alpha + u / delta) * delta**top
    assert ref_eval([gr(*c) for c in shifted], u) == expected


@settings(max_examples=120)
@given(root_lists, nonzero_coeff_lists, wide_scalars, st.integers(0, 3), st.integers(0, 12))
# the running-product scaling with top > deg P, at delta = 1, 3 and 2
@example([(gr(1), 2)], _COFACTOR, gr(-2), 3, 2)
@example([(gr(1), 2)], _COFACTOR, gr(Fraction(-5, 3)), 3, 2)
@example([(gr(0, 1), 1)], _COFACTOR, gr(Fraction(1, 2), Fraction(1, 2)), 2, 3)
def test_taylor_kernel_head_is_the_head_of_the_full_expansion(planted, cofactor, alpha, pad,
                                                               terms):
    # a head of a few terms from a polynomial with alpha as a root of
    # order up to 7: the truncated passes give exactly the leading
    # coefficients of the full shift, and no more of them
    p = Poly(cofactor) * Poly.from_roots(
        [r for r, m in planted for _ in range(m)] + [alpha] * len(planted))
    num = p.parts[1]
    top = int(p.degree) + pad
    full = taylor_numerators(num, alpha, top, len(num))
    assert taylor_numerators(num, alpha, top, terms) == full[:terms]


@settings(max_examples=80)
@given(coeff_lists, wide_scalars, wide_fractions)
def test_scalar_add_and_sub(a, s, q):
    p = Poly(a)
    for c in (s, q, int(q)):
        assert p + c == c + p == p + Poly([c])
        assert p - c == -(c - p) == p - Poly([c])


@settings(max_examples=80)
@given(coeff_lists, nonzero_coeff_lists)
def test_floordiv_is_the_quotient(a, b):
    p, q = Poly(a), Poly(b)
    assert p // q == divmod(p, q)[0]
    assert p - (p // q) * q == p % q


def test_gcd_of_examples():
    assert gcd_of([]) is None
    assert gcd_of([Poly.zero(), Poly.zero()]) is None
    assert gcd_of([Poly.zero(), P(3, 6)]) == P(Fraction(1, 2), 1)
    assert gcd_of([P(2, 2) * P(0, 3), P(2, 3, 1) * 3, Poly.zero()]) == P(1, 1)
    assert gcd_of([P(gr(0, 2))]).is_one()


def test_gcd_of_stops_at_one():
    # once the running gcd is 1 no further polynomial is read, so a lazy
    # caller (the minors of ``_minor_gcd``) computes no more of them
    def polys():
        yield P(1, 1) * P(2, 1)
        yield P(0, 1) * P(2, 1)
        yield P(3, 1)
        raise AssertionError("read past a gcd of 1")

    assert gcd_of(polys()).is_one()


@settings(max_examples=60)
@given(st.lists(polys, max_size=4), nonzero_polys)
def test_gcd_of_is_the_monic_running_gcd(ps, common):
    ps = [p * common for p in ps]
    g = gcd_of(ps)
    nonzero = [p for p in ps if p]
    if not nonzero:
        assert g is None
        return
    assert g.is_monic()
    assert all((p % g).is_zero() for p in nonzero)
    ref = nonzero[0].monic()
    for p in nonzero[1:]:
        ref = poly_gcd(ref, p)
    assert g == ref


_complex_leads = st.sampled_from([gr(1), gr(-3), gr(Fraction(2, 5)), gr(0, 2), gr(3, -4),
                                  gr(Fraction(1, 2), Fraction(-7, 3))])


@settings(max_examples=80)
@given(polys, nonzero_polys, st.lists(scalars, max_size=3).map(Poly).filter(bool), _complex_leads)
def test_fraction_routines_agree_with_ratfun_and_ratmat(num, den, common, lead):
    # common factors, non-monic and complex denominators: the reduced pair
    # is the one RatFun and a 1 x 1 RatMat store, and still the same value
    num, den = num * common, den * common * lead
    d, (n,) = cleared_fraction(den, [num])
    f = RatFun(num, den)
    assert (d, n) == (f.den, f.num)
    assert (d, n) == (RatMat([[f]]).den, RatMat([[f]]).num[0][0])
    assert (d, ((n,),)) == (RatMat.from_cleared(den, [[num]]).den,
                           RatMat.from_cleared(den, [[num]]).num)
    assert d.is_monic() and n * den == num * d
    assert n.is_zero() and d.is_one() or poly_gcd(n, d).is_one()
    # made monic only, a coprime pair keeps its factors
    g = poly_gcd(num, den) if num else den.monic()
    d2, (n2, zero) = monic_fraction(den.exact_div(g), [num.exact_div(g), Poly.zero()])
    assert (d2, n2, zero) == (d, n, Poly.zero())
    assert n2 == num.exact_div(g) * den.exact_div(g).lead.inverse()


def test_monic_fraction_of_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        monic_fraction(Poly.zero(), [P(1)])


@settings(max_examples=80)
@given(coeff_lists, st.one_of(wide_scalars, wide_fractions, st.integers(-40, 40)))
def test_eval_is_horner_over_gaussian_rationals(a, x):
    # eval reads the first term of the expansion about x (taylor_numerators),
    # at a point of any scalar type
    gx = x if isinstance(x, GaussianRational) else GaussianRational(x)
    assert Poly(a).eval(x) == ref_eval(a, gx)
