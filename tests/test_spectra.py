import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specfactor import (
    INFINITY,
    Point,
    RatMat,
    Region,
    Side,
    Spectrum,
    UniquenessResult,
    Verdict,
    analytic_in,
    analyze_product,
    blaschke,
    generate_instance,
    is_paraunitary,
    is_spectral_factor,
    is_stochastically_minimal,
    make_elementary,
    perturb_with_allpass,
    poly,
    psd_on_circle,
    ratmat,
    region_contains,
    run_sweep,
    spectra,
    transfer_between,
    uniqueness_check,
)
from specfactor.allpass import is_unitary_constant
from specfactor.errors import (
    CoSpectralityError,
    DimensionMismatchError,
    InputTooLargeError,
    MinimalInverseError,
    NonGaussianPoleError,
    RankDeficiencyError,
    ScalarParseError,
    SpectrumError,
)
from specfactor.cli import _ERROR_CODES
from specfactor.spectra import (
    _MAX_DEGREE,
    _ORTHOGONAL_POOLS,
    _draw_conjugate_pair_outside,
    _draw_real_outside,
    _gram,
    _hermitian_eigenvalues,
    default_geometries,
    spectrum_degree,
)

from helpers import M, P, RF, gr, pt
from oracles import brute_point_degrees, householder_hermitian

OUTER = Region(Side.OUTER)
INNER = Region(Side.INNER)
W_SCALAR = M([[RF([-2, 1], [-3, 1])]])  # (z-2)/(z-3): pole 3, zero 2


def test_region_classical():
    assert region_contains(OUTER, pt(2))
    assert not region_contains(OUTER, pt(Fraction(1, 2)))
    assert region_contains(OUTER, INFINITY)
    assert not region_contains(OUTER, pt(0))
    assert region_contains(INNER, pt(0))
    assert not region_contains(INNER, INFINITY)


def test_region_flip_semantics():
    flipped = Region(Side.OUTER, [pt(3)])
    assert not region_contains(flipped, pt(3))
    assert region_contains(flipped, pt(Fraction(1, 3)))
    assert region_contains(flipped, pt(2))


def test_region_weak_circle():
    weak = Region(Side.OUTER, weak=True)
    circle_point = pt(Fraction(3, 5), Fraction(4, 5))
    assert region_contains(weak, circle_point)
    assert not region_contains(OUTER, circle_point)


def test_region_flip_canonicalization():
    a = Region(Side.OUTER, [pt(Fraction(1, 3))])
    b = Region(Side.OUTER, [pt(3)])
    assert a == b
    c = Region(Side.INNER, [pt(0)])
    d = Region(Side.INNER, [INFINITY])
    assert c == d
    assert not region_contains(d, pt(0))
    assert region_contains(d, INFINITY)


def test_region_rejects_circle_flip():
    with pytest.raises(ValueError):
        Region(Side.OUTER, [pt(1)])


def test_region_pair_partition():
    rng = random.Random(3)
    regions = [
        OUTER,
        INNER,
        Region(Side.OUTER, [pt(3), pt(0, 2)]),
        Region(Side.INNER, [pt(5)], weak=True),
    ]
    for _ in range(100):
        x = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        p = Point(x)
        if p.abs_vs_one().name == "EQUAL" or x.is_zero():
            continue
        for region in regions:
            assert region_contains(region, p) != region_contains(region, p.symplectic_pair())


def test_region_parse_roundtrip():
    for text in ("outer", "inner,weak", "outer,flip=3;5", "inner,flip=1/2+1/2*i,weak",
                 "outer,flip=inf"):
        region = Region.parse(text)
        assert Region.parse(region.spec_string()) == region
    with pytest.raises(ScalarParseError):
        Region.parse("sideways")
    with pytest.raises(ScalarParseError):
        Region.parse("outer,bogus")


def test_region_equality_hash_and_repr():
    region = Region(Side.OUTER, [pt(3), pt(Fraction(1, 2), 2)], weak=True)
    same = Region.parse(region.spec_string())
    assert same == region and hash(same) == hash(region)
    assert region == Region(Side.OUTER, [pt(Fraction(1, 3)), pt(Fraction(1, 2), 2)], True)
    for other in (Region(Side.INNER, [pt(3), pt(Fraction(1, 2), 2)], weak=True),
                  Region(Side.OUTER, [pt(3)], weak=True),
                  Region(Side.OUTER, [pt(3), pt(Fraction(1, 2), 2)])):
        assert region != other
    assert region != region.spec_string()
    assert repr(region) == "Region('outer,flip=1/2+2*i;3,weak')"


def test_spectrum_equality_and_repr():
    phi = W_SCALAR.paraconj_transpose() * W_SCALAR
    spectrum = Spectrum(phi)
    assert spectrum == Spectrum(_gram(W_SCALAR))
    assert spectrum != Spectrum(M([[1]]))
    assert spectrum != phi
    assert repr(spectrum) == f"Spectrum({phi!r})"


def test_spectrum_validation():
    phi = W_SCALAR.paraconj_transpose() * W_SCALAR
    spectrum = Spectrum(phi)
    assert spectrum.mcmillan_degree() == 2
    assert spectrum.rank() == 1
    with pytest.raises(SpectrumError):
        Spectrum(M([[RF([0, 1])]]))  # z is not para-Hermitian
    with pytest.raises(SpectrumError):
        Spectrum(M([[gr(0, 1)]]))  # complex constant
    with pytest.raises(SpectrumError):
        Spectrum(M([[1, 0]]))  # not square
    with pytest.raises(SpectrumError, match="zero matrix"):
        Spectrum(M([[0]]))


# denominators of A's entries, one per pole kind of Phi = A + A~: z - 1 and
# z + 1 up to order 3, 0 (with infinity from A~), a real pair {2, 1/2} or
# {1/3, 3}, a conjugate pair off the circle (1 +- 2i) and on it ((3 +- 4i)/5)
_POLE_KINDS = [P(-1, 1), P(1, -2, 1), P(-1, 3, -3, 1), P(1, 1), P(1, 3, 3, 1), P(0, 1),
               P(-2, 1), P(-1, 3), P(5, -2, 1), P(5, -6, 5)]


@st.composite
def _real_rational_matrices(draw):
    n = draw(st.integers(1, 3))
    entries = []
    for _ in range(n * n):
        num = P(*draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)))
        den = P(1)
        for kind in draw(st.lists(st.sampled_from(_POLE_KINDS), max_size=2 if n < 3 else 1)):
            den = den * kind
        entries.append(RF(num, den))
    return M([entries[i * n:(i + 1) * n] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(_real_rational_matrices())
def test_every_real_parahermitian_matrix_has_even_degree(a):
    # the theorem in the Spectrum docstring: no odd-degree spectrum exists,
    # so construction has no degree to check
    phi = a + a.paraconj_transpose()
    assume(not phi.is_zero())
    assert Spectrum(phi).mcmillan_degree() % 2 == 0


def _sum_with_paraconjugate(f):
    return Spectrum(M([[f + f.paraconj()]]))


def test_spectrum_outside_gaussian_rationals_builds_and_its_degree_raises():
    spectrum = _sum_with_paraconjugate(RF([1], [-2, 0, 1]))  # poles +-sqrt 2
    with pytest.raises(NonGaussianPoleError):
        spectrum.mcmillan_degree()


def test_spectrum_too_large_to_root_find_builds_and_its_degree_raises():
    # the product of two 13-digit primes from the CLI's too_large test
    n = 1000000000039 * 3000000000013
    spectrum = _sum_with_paraconjugate(RF([1], [-n, 0, 1]))
    with pytest.raises(InputTooLargeError):
        spectrum.mcmillan_degree()


def test_building_a_spectrum_computes_no_smith_mcmillan_form_or_roots(monkeypatch):
    _, w = generate_instance(3, (2, 3), 3, OUTER, OUTER)

    def forbidden(*args):
        raise AssertionError("a spectrum was built through its degree")

    for module, name in ((ratmat, "_sm_of"), (ratmat, "gaussian_roots"),
                         (poly, "gaussian_roots")):
        monkeypatch.setattr(module, name, forbidden)
    assert Spectrum(_gram(w)).phi == _gram(w)


def test_analytic_in():
    assert analytic_in(W_SCALAR, INNER)  # pole at 3 stays outside the disc
    assert not analytic_in(W_SCALAR, OUTER)
    z_mat = M([[RF([0, 1])]])  # pole at infinity
    assert not analytic_in(z_mat, OUTER)
    assert analytic_in(z_mat, INNER)
    flipped = Region(Side.OUTER, [pt(3)])
    assert analytic_in(W_SCALAR, flipped)


def test_is_spectral_factor():
    phi = Spectrum(W_SCALAR.paraconj_transpose() * W_SCALAR)
    assert is_spectral_factor(W_SCALAR, phi)
    assert is_spectral_factor(-W_SCALAR, phi)
    assert not is_spectral_factor(W_SCALAR * RF([2]), phi)
    with pytest.raises(DimensionMismatchError):
        is_spectral_factor(M([[1, 0]]), phi)


def test_gram_memo_keeps_spectral_factor_checks_exact():
    # the Gram product is memoized per factor value; a scaled copy is still
    # judged by its own Gram product
    _gram.cache_clear()
    spectrum, w = generate_instance(5, (1, 2), 2, OUTER, OUTER)
    assert _gram(w) is spectrum.phi
    assert is_spectral_factor(w, spectrum) and is_spectral_factor(-w, spectrum)
    assert not is_spectral_factor(2 * w, spectrum)


def test_stochastic_minimality():
    phi = Spectrum(W_SCALAR.paraconj_transpose() * W_SCALAR)
    assert is_stochastically_minimal(W_SCALAR, phi)
    inflated = M([[blaschke(pt(5))]]) * W_SCALAR
    assert is_spectral_factor(inflated, phi)
    assert not is_stochastically_minimal(inflated, phi)
    with pytest.raises(SpectrumError):
        is_stochastically_minimal(M([[1]]), phi)


def test_constant_factor_case():
    w = M([[1, 1]])
    phi = Spectrum(w.paraconj_transpose() * w)
    assert phi.mcmillan_degree() == 0
    assert is_stochastically_minimal(w, phi)


def test_psd_on_circle_gram():
    phi = Spectrum(W_SCALAR.paraconj_transpose() * W_SCALAR)
    report = psd_on_circle(phi, samples=64, tol=1e-9)
    assert report
    assert report.evaluated == 64


def test_psd_on_circle_negative():
    assert not psd_on_circle(M([[-1]]), samples=16, tol=1e-9)


def test_psd_on_circle_boundary_zero():
    # (z + 1/z)/2 + 1 equals cos(omega) + 1 on the circle: nonnegative with
    # a genuine zero at omega = pi
    phi = M([[RF([1, 2, 1], [0, 2])]])
    report = psd_on_circle(phi, samples=64, tol=1e-9)
    assert report.ok
    assert report.min_eigenvalue is not None and report.min_eigenvalue > -1e-9


def test_psd_on_circle_rejects_a_non_square_matrix():
    with pytest.raises(DimensionMismatchError):
        psd_on_circle(M([[1, 2]]))


def test_psd_on_circle_checks_the_sample_count_first():
    # the sample count is refused before the matrix is looked at
    with pytest.raises(ValueError, match="at least one sample") as info:
        psd_on_circle(M([[1, 2]]), samples=0)
    assert not isinstance(info.value, DimensionMismatchError)


_eigenvalue_lists = st.lists(st.sampled_from([0, 0, 1, 1, -1, 2.5, -3, 1e-6, 40]),
                             min_size=1, max_size=6)
_reflector_vectors = st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                                 allow_infinity=False), min_size=6, max_size=6)


@settings(max_examples=150, deadline=None)
@given(_eigenvalue_lists, _reflector_vectors)
def test_hermitian_eigenvalues_match_a_planted_spectrum(eigenvalues, v):
    n = len(eigenvalues)
    v = v[:n]
    assume(sum(abs(x) ** 2 for x in v) > 1e-2)
    h = householder_hermitian(eigenvalues, v)
    # a skew-Hermitian addend i*S (S real symmetric) leaves the Hermitian part alone
    a = [[h[i][j] + 1j * (i + j + 1) for j in range(n)] for i in range(n)]
    got = _hermitian_eigenvalues(a)
    scale = max(1.0, *(abs(x) for x in eigenvalues))
    assert len(got) == n
    assert all(abs(g - e) <= 1e-12 * scale for g, e in zip(got, sorted(eigenvalues)))


def test_psd_on_circle_skips_circle_poles():
    # -z/(z-1)^2 equals 1/(4 sin^2(omega/2)) on the circle: nonnegative,
    # with a pole at z = 1 hit by the sample grid
    phi = M([[RF([0, -1], [1, -2, 1])]])
    report = psd_on_circle(phi, samples=8, tol=1e-9)
    assert report.ok
    assert report.skipped >= 1


def test_transfer_between_constant():
    q = M([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    w = M([[RF([-2, 1], [-3, 1]), 0], [0, 1]]) * M([[1, 0, 1], [0, 1, 1]])
    t = transfer_between(q * w, w)
    assert t == q


def test_transfer_between_elementary():
    w = M([[RF([-2, 1], [-3, 1]), 0], [0, 1]]) * M([[1, 0, 1], [0, 1, 1]])
    u = make_elementary(pt(5), [1, 0])
    t = transfer_between(u * w, w)
    assert t == u


def test_transfer_between_rejects_non_cospectral():
    w1 = M([[RF([-2, 1], [-3, 1])]])
    w2 = M([[RF([-5, 1], [-3, 1])]])
    with pytest.raises(CoSpectralityError):
        transfer_between(w1, w2)


# (W1, W) pairs that fail transfer_between at each of its checks, with the
# error it raises and the outcome of uniqueness_check(W, W1) in the unit disc
_FAILED_TRANSFERS = {
    "no_minimal_inverse": ((M([[RF([0, 1]), RF([1], [0, 1])]]),) * 2, MinimalInverseError,
                           ("analyticity_W", "analyticity_W1", "analyticity_W_inverse",
                            "analyticity_W1_inverse")),
    "not_co_spectral": ((W_SCALAR, M([[RF([-5, 1], [-3, 1])]])), CoSpectralityError,
                        ("co_spectrality",)),
    # T = 1 is para-unitary here, but T W differs from W1
    "not_co_spectral_wide": ((M([[1, 1]]), M([[1, 0]])), CoSpectralityError,
                             ("co_spectrality",)),
    "w_rank_deficient": ((M([[1, 0], [0, 1]]), M([[1, 1], [1, 1]])), RankDeficiencyError,
                         ("full_row_rank", "co_spectrality")),
    "w1_rank_deficient": ((M([[1, 1], [1, 1]]), M([[1, 0], [0, 1]])), RankDeficiencyError,
                          ("full_row_rank", "co_spectrality")),
    "shapes_differ": ((M([[1]]), M([[1, 0]])), DimensionMismatchError, DimensionMismatchError),
}


@pytest.mark.parametrize("name", sorted(_FAILED_TRANSFERS))
def test_failed_transfers_keep_their_error_classes(name):
    (w1, w), error, uniqueness = _FAILED_TRANSFERS[name]
    with pytest.raises(error) as info:
        transfer_between(w1, w)
    assert type(info.value) is error
    if uniqueness is DimensionMismatchError:
        with pytest.raises(DimensionMismatchError):
            uniqueness_check(w, w1, INNER, INNER)
    else:
        res = uniqueness_check(w, w1, INNER, INNER)
        assert (res.verdict, res.failed_hypotheses) == (Verdict.HYPOTHESIS_FAILED, uniqueness)


_ELEMENTARY_POLES = [pt(3), pt(Fraction(1, 2)), pt(1, 2), INFINITY]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 3), st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
       st.integers(0, 2), st.data())
def test_transfers_are_paraunitary_and_reproduce_the_factor(seed, geo_index, size, degree, data):
    # neither function checks these facts at run time: they follow from
    # co-spectrality and W X = I for the minimal right inverse X
    geo = default_geometries()[geo_index]
    region_p, region_z = geo["region_p"], geo["region_z"]
    _, w = generate_instance(seed, size, degree, region_p, region_z)
    q = data.draw(st.sampled_from(_ORTHOGONAL_POOLS[size[0]]))
    direction = data.draw(st.lists(st.sampled_from([gr(0), gr(1), gr(-2), gr(1, 1)]),
                                   min_size=size[0], max_size=size[0]).filter(any))
    u = make_elementary(data.draw(st.sampled_from(_ELEMENTARY_POLES)), direction)
    for w1, expected in ((q * w, q), (q * u * w, q * u)):
        t = transfer_between(w1, w)
        assert t == expected and is_paraunitary(t) and w1 == t * w
        res = uniqueness_check(w, w1, region_p, region_z)
        if res.verdict is Verdict.UNIQUE:
            assert is_paraunitary(res.transfer) and w1 == res.transfer * w
    assert uniqueness_check(w, q * w, region_p, region_z).verdict is Verdict.UNIQUE


def test_uniqueness_sign_flip():
    res = uniqueness_check(W_SCALAR, -W_SCALAR, INNER, INNER)
    assert res.verdict is Verdict.UNIQUE
    assert res.transfer == M([[-1]])


def test_uniqueness_sign_flip_outer_variant():
    w = M([[RF([1, -2], [1, -3])]])  # (1-2z)/(1-3z): pole 1/3, zero 1/2
    res = uniqueness_check(w, -w, OUTER, OUTER)
    assert res.verdict is Verdict.UNIQUE
    assert res.transfer == M([[-1]])


def test_uniqueness_catches_minimality_violation():
    region_p = Region(Side.OUTER, [pt(3)])
    region_z = Region(Side.OUTER, [pt(5)])
    spectrum, w = generate_instance(5, (1, 2), 1, region_p, region_z)
    bad = perturb_with_allpass(w, [pt(3)])
    assert is_spectral_factor(bad, spectrum)
    res = uniqueness_check(w, bad, region_p, region_z)
    assert res.verdict is Verdict.HYPOTHESIS_FAILED
    assert "minimality_W1" in res.failed_hypotheses


def test_uniqueness_fails_only_minimality_for_a_wide_polynomial_factor():
    # W is polynomial, so both inverses exist and are analytic off the
    # zeros 0 and -2, inside the inner region; the inverse's pole degrees
    # need the correction solve, without which both analyticity hypotheses
    # failed as well
    w = M([[RF([0, 1]), 0, 0], [0, RF([2, 1]), -2]])
    res = uniqueness_check(w, -w, INNER, OUTER)
    assert res.verdict is Verdict.HYPOTHESIS_FAILED
    assert res.failed_hypotheses == ("minimality_W", "minimality_W1")


def test_uniqueness_catches_analyticity_violation():
    spectrum, w = generate_instance(6, (1, 2), 1, OUTER, OUTER)
    bad = perturb_with_allpass(w, [pt(Fraction(1, 3))])
    res = uniqueness_check(w, bad, OUTER, OUTER)
    assert res.verdict is Verdict.HYPOTHESIS_FAILED
    assert any("analyticity" in name for name in res.failed_hypotheses)


def test_uniqueness_rejects_non_cospectral_pair():
    res = uniqueness_check(
        W_SCALAR, M([[RF([-5, 1], [-3, 1])]]), INNER, INNER
    )
    assert res.verdict is Verdict.HYPOTHESIS_FAILED
    assert "co_spectrality" in res.failed_hypotheses


def test_uniqueness_rejects_complex_candidate():
    w1 = M([[RF([gr(0, 1)], [1])]]) * W_SCALAR  # i * W: co-spectral but complex
    res = uniqueness_check(W_SCALAR, w1, INNER, INNER)
    assert res.verdict is Verdict.HYPOTHESIS_FAILED
    assert "real_coefficients" in res.failed_hypotheses


_ZERO = RatMat.zeros(1, 1)


@pytest.mark.parametrize("w, w1, region, failed", [
    (_ZERO, M([[2]]), OUTER, ("full_row_rank", "co_spectrality")),
    (M([[2]]), _ZERO, OUTER, ("full_row_rank", "co_spectrality")),
    (_ZERO, W_SCALAR, INNER, ("full_row_rank", "co_spectrality")),
    (W_SCALAR, _ZERO, INNER, ("full_row_rank", "co_spectrality")),
    (_ZERO, _ZERO, OUTER, ("full_row_rank",)),
])
def test_zero_candidate_fails_full_row_rank(w, w1, region, failed):
    # the zero matrix has no poles, so the analyticity checks pass it and
    # the verdict names the hypotheses it fails
    res = uniqueness_check(w, w1, region, region)
    assert (res.verdict, res.failed_hypotheses, res.transfer) == (
        Verdict.HYPOTHESIS_FAILED, failed, None)


def _reference_hypotheses(w, w1, region_p, region_z) -> tuple[str, ...]:
    """The failed hypotheses of (W, W1), each checked on its own factor
    through the public API."""

    def inverse_analytic(g):
        try:
            return analytic_in(g.minimal_right_inverse(), region_z)
        except MinimalInverseError:
            return False

    def minimal(g):
        return is_stochastically_minimal(g, Spectrum(g.paraconj_transpose() * g))

    r = w.rows
    full_rank = w.normal_rank() == r and w1.normal_rank() == r
    checks = [
        ("real_coefficients", w.has_real_coeffs() and w1.has_real_coeffs()),
        ("full_row_rank", full_rank),
        ("co_spectrality", w.paraconj_transpose() * w == w1.paraconj_transpose() * w1),
        ("analyticity_W", analytic_in(w, region_p)),
        ("analyticity_W1", analytic_in(w1, region_p)),
    ]
    if full_rank:
        checks += [
            ("analyticity_W_inverse", inverse_analytic(w)),
            ("analyticity_W1_inverse", inverse_analytic(w1)),
            ("minimality_W", minimal(w)),
            ("minimality_W1", minimal(w1)),
        ]
    return tuple(name for name, holds in checks if not holds)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 3), st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
       st.integers(0, 2), st.sampled_from(["generated", "perturbed", "swapped_regions"]),
       st.data())
def test_orthogonal_multiples_match_the_reference_hypotheses(seed, geo_index, size, degree,
                                                             variant, data):
    # uniqueness_check reads T W's structural hypotheses off W for constant
    # T; checking each factor on its own must give the same tuple
    geo = default_geometries()[geo_index]
    region_p, region_z = geo["region_p"], geo["region_z"]
    _, w = generate_instance(seed, size, degree, region_p, region_z)
    if variant == "perturbed":
        w = perturb_with_allpass(w, [geo["allpass_pole"]])
    elif variant == "swapped_regions":
        region_p, region_z = region_z, region_p
    identity = RatMat.identity(size[0])
    t = data.draw(st.sampled_from(_ORTHOGONAL_POOLS[size[0]] + [-identity, identity * gr(0, 1)]))
    w1 = t * w
    expected = _reference_hypotheses(w, w1, region_p, region_z)
    res = uniqueness_check(w, w1, region_p, region_z)
    assert res.failed_hypotheses == expected
    if expected:
        assert (res.verdict, res.transfer) == (Verdict.HYPOTHESIS_FAILED, None)
    else:
        assert (res.verdict, res.transfer) == (Verdict.UNIQUE, t)
    if not t.has_real_coeffs():
        assert "real_coefficients" in expected


def test_non_constant_transfer_with_a_shared_denominator_checks_w1_itself():
    # W1 flips W's zero 1/2 to 2: the pair is co-spectral with one
    # denominator, but T = (1 - z/2)/(z - 1/2) is not constant, so W1's
    # inverse is checked on W1 and has its pole at 2, in the outer region
    w = M([[RF([Fraction(-1, 2), 1], [Fraction(-1, 3), 1])]])
    w1 = M([[RF([1, Fraction(-1, 2)], [Fraction(-1, 3), 1])]])
    assert w1.den == w.den and _gram(w1) == _gram(w)
    res = uniqueness_check(w, w1, OUTER, OUTER)
    assert (res.verdict, res.failed_hypotheses) == (Verdict.HYPOTHESIS_FAILED,
                                                    ("analyticity_W1_inverse",))


def _hypotheses_forced_true(monkeypatch):
    # every analyticity and minimality check passes, so a non-constant
    # transfer reaches the UNIQUENESS_VIOLATED branch; the harness forms the
    # transfer itself, never through transfer_between
    def forbidden(*args):
        raise AssertionError("uniqueness_check called transfer_between")

    monkeypatch.setattr(spectra, "analytic_in", lambda g, region: True)
    monkeypatch.setattr(spectra, "_is_minimal", lambda g, phi: True)
    monkeypatch.setattr(spectra, "transfer_between", forbidden)


def test_violated_uniqueness_with_different_denominators_returns_the_allpass_transfer(
        monkeypatch):
    geo = default_geometries()[0]
    assert geo["name"] == "classical_outer"
    _, w = generate_instance(5, (2, 3), 2, geo["region_p"], geo["region_z"])
    w1 = perturb_with_allpass(w, [Fraction(1, 3)])
    assert w1.den != w.den
    _hypotheses_forced_true(monkeypatch)
    res = uniqueness_check(w, w1, geo["region_p"], geo["region_z"])
    assert (res.verdict, res.failed_hypotheses) == (Verdict.UNIQUENESS_VIOLATED, ())
    assert res.transfer == make_elementary(Fraction(1, 3), [1, 0])


def test_violated_uniqueness_with_a_shared_denominator_forms_the_transfer_once(monkeypatch):
    # the pair of test_non_constant_transfer_with_a_shared_denominator_checks_w1_itself
    w = M([[RF([Fraction(-1, 2), 1], [Fraction(-1, 3), 1])]])
    w1 = M([[RF([1, Fraction(-1, 2)], [Fraction(-1, 3), 1])]])
    _hypotheses_forced_true(monkeypatch)
    products = []
    original = RatMat.__mul__

    def spy(self, other):
        if self is w1:
            products.append(other)
        return original(self, other)

    monkeypatch.setattr(RatMat, "__mul__", spy)
    res = uniqueness_check(w, w1, OUTER, OUTER)
    assert (res.verdict, res.failed_hypotheses) == (Verdict.UNIQUENESS_VIOLATED, ())
    assert products == [w.minimal_right_inverse()]
    assert not res.transfer.is_constant()
    assert res.transfer * w == w1


# -- deg Phi from W's poles, and co-spectrality from a constant transfer ------------


def _brute_gram_degree(w) -> int:
    """deg W~ W as the brute-force pole degrees of Phi = W~ W summed over
    W's poles and their images 1/conj p."""
    poles = set(w.pole_points())
    return sum(brute_point_degrees(_gram(w), p)[1]
               for p in poles | {p.conj_pair() for p in poles})


def _check_spectrum_degree(w):
    phi = _gram(w)
    assert spectrum_degree(w, phi) == phi.mcmillan_degree() == _brute_gram_degree(w)
    if w.has_real_coeffs():
        assert spectrum_degree(w, phi) == Spectrum(phi).mcmillan_degree()


_PERTURBATION_POLES = [pt(0), INFINITY, pt(3), pt(Fraction(1, 2)), pt(-1, 1)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 3), st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
       st.integers(0, 3), st.lists(st.sampled_from(_PERTURBATION_POLES), max_size=2))
def test_spectrum_degree_is_read_at_the_factors_poles(seed, geo_index, size, degree, poles):
    geo = default_geometries()[geo_index]
    _, w = generate_instance(seed, size, degree, geo["region_p"], geo["region_z"])
    _check_spectrum_degree(perturb_with_allpass(w, poles))


_CIRCLE_PAIR = P(1, Fraction(-6, 5), 1)  # poles (3 +- 4i)/5 on the unit circle


@pytest.mark.parametrize("w", [
    M([[RF([1], [0, 1]), 1]]),  # a pole at 0
    M([[RF([1, 0, 1]), RF([0, 1])]]),  # polynomial: a pole at infinity only
    M([[RF([0, 0, 1], [-2, 1])]]),  # improper: poles at 2 and infinity
    M([[RF([1, 0, 1], [0, 1])]]),  # z + 1/z: poles at 0 and infinity, each the other's image
    M([[RF([1], [-2, 1]), RF([1], [Fraction(-1, 2), 1])]]),  # 2 and its image 1/2
    M([[RF([1], [2, -2, 1])], [RF([0, 1], [Fraction(1, 2), -1, 1])]]),  # 1 +- i, (1 +- i)/2
    M([[RF([1], [-1, 1]), 0], [0, RF([1], [-1, 1]) ** 2]]),  # 1, on the circle, twice
    M([[RF([1], _CIRCLE_PAIR), RF([0, 1], _CIRCLE_PAIR)]]),
    # complex W: (3 + 4i)/5 on the circle, and 2i, whose image is i/2, not 1/(2i)
    M([[RF([1], [gr(Fraction(-3, 5), Fraction(-4, 5)), 1]), RF([1], [gr(0, -2), 1])]]),
    M([[1, 2]]),  # constant: no pole at all
], ids=["zero", "polynomial", "improper", "zero_and_infinity", "pair", "complex_pair",
        "circle_1", "circle_3_4i", "complex", "constant"])
def test_spectrum_degree_at_hand_built_poles(w):
    _check_spectrum_degree(w)


_ANALYTICITY = ("analyticity_W", "analyticity_W1", "analyticity_W_inverse",
                "analyticity_W1_inverse")
_MINIMALITY = ("minimality_W", "minimality_W1")


# W = 1/((z - 3**k)(z - c)), the edge fingerprint's input for seeds 0-7
@pytest.mark.parametrize("k, c, geo_index, failed", [
    (626, -2, 0, _ANALYTICITY),
    (627, 0, 1, _ANALYTICITY + _MINIMALITY),
    (624, 0, 2, ("analyticity_W", "analyticity_W1") + _MINIMALITY),
    (629, -1, 3, _ANALYTICITY),
    (621, 2, 0, _ANALYTICITY),
    (620, 1, 1, _ANALYTICITY),
    (629, 3, 2, ()),
    (625, -1, 3, _ANALYTICITY),
])
def test_uniqueness_reads_phis_degree_past_a_refused_root_search(k, c, geo_index, failed):
    # Phi's own denominator has the root 3**-k, whose divisor search is
    # refused; read at W's poles its degree needs no root search of Phi
    geo = default_geometries()[geo_index]
    w = M([[RF([1], P(-3**k, 1) * P(-c, 1))]])
    with pytest.raises(InputTooLargeError):
        _gram(w).mcmillan_degree()
    assert spectrum_degree(w, _gram(w)) == _brute_gram_degree(w) == (2 if c == 0 else 4)
    for sign in (1, -1):
        res = uniqueness_check(w, w * sign, geo["region_p"], geo["region_z"])
        assert res.failed_hypotheses == failed
        if failed:
            assert (res.verdict, res.transfer) == (Verdict.HYPOTHESIS_FAILED, None)
        else:
            assert (res.verdict, res.transfer) == (Verdict.UNIQUE, M([[sign]]))


def _spy_grams(monkeypatch) -> list:
    grams = []
    original = spectra._gram

    def spy(w):
        grams.append(w)
        return original(w)

    monkeypatch.setattr(spectra, "_gram", spy)
    return grams


_W23 = generate_instance(3, (2, 3), 3, OUTER, OUTER)[1]


@pytest.mark.parametrize("q", _ORTHOGONAL_POOLS[2] + [M([[gr(0, 1), 0], [0, gr(0, 1)]])],
                         ids=[f"pool{k}" for k in range(6)] + ["i"])
def test_constant_unitary_transfer_forms_no_gram_of_w1(monkeypatch, q):
    # W1 = q W with q unitary: co-spectral by W1~ W1 = W~ q^H q W, so only
    # W's Gram is formed; the complex multiple i W fails real coefficients
    w1 = q * _W23
    expected = _reference_hypotheses(_W23, w1, OUTER, OUTER)
    assert expected == (() if q.has_real_coeffs() else ("real_coefficients",))
    grams = _spy_grams(monkeypatch)
    res = uniqueness_check(_W23, w1, OUTER, OUTER)
    assert res.failed_hypotheses == expected
    assert res.transfer == (q if not expected else None)
    assert grams == [_W23]
    grams.clear()
    assert transfer_between(w1, _W23) == q
    assert grams == []


def test_scaled_factor_is_not_co_spectral(monkeypatch):
    # T = 2 I is constant but not unitary, so the Grams are compared
    w1 = _W23 * 2
    t = w1 * _W23.minimal_right_inverse()
    assert t.is_constant() and not is_unitary_constant(t)
    expected = _reference_hypotheses(_W23, w1, OUTER, OUTER)
    assert "co_spectrality" in expected
    grams = _spy_grams(monkeypatch)
    res = uniqueness_check(_W23, w1, OUTER, OUTER)
    assert (res.verdict, res.failed_hypotheses) == (Verdict.HYPOTHESIS_FAILED, expected)
    assert grams == [_W23, w1]
    with pytest.raises(CoSpectralityError):
        transfer_between(w1, _W23)


@pytest.mark.parametrize("w, w1", [(_W23, _W23 * 2), (M([[1, 0]]), M([[1, 1]]))],
                         ids=["not_unitary", "misses_w1"])
def test_constant_transfer_decides_co_spectrality_without_grams(monkeypatch, w, w1):
    # a co-spectral pair with constant T has T unitary and T W = W1, so a
    # constant T that fails either raises before a Gram is formed
    grams = _spy_grams(monkeypatch)
    with pytest.raises(CoSpectralityError):
        transfer_between(w1, w)
    assert grams == []


def test_unitary_transfer_that_misses_w1_is_not_co_spectral(monkeypatch):
    # W = [1, 0], W1 = [1, 1]: T = W1 X = 1 is constant and unitary, but
    # T W differs from W1
    w, w1 = M([[1, 0]]), M([[1, 1]])
    t = w1 * w.minimal_right_inverse()
    assert t.is_constant() and is_unitary_constant(t) and t * w != w1
    assert _reference_hypotheses(w, w1, INNER, INNER) == ("co_spectrality",)
    grams = _spy_grams(monkeypatch)
    assert uniqueness_check(w, w1, INNER, INNER).failed_hypotheses == ("co_spectrality",)
    assert grams == [w, w1]


@pytest.mark.parametrize("w, region", [
    (_W23, OUTER), (W_SCALAR, INNER), (_FAILED_TRANSFERS["no_minimal_inverse"][0][0], INNER)],
    ids=["wide", "scalar", "no_minimal_inverse"])
def test_uniqueness_of_a_factor_with_itself_forms_no_product(monkeypatch, w, region):
    # W1 == W: every W1 hypothesis is W's, and T = W1 X is the identity as
    # W X = I, so past W's Gram no product is formed and W's minimal
    # inverse is sought once, also when there is none
    expected = _reference_hypotheses(w, w, region, region)
    spectra._gram(w)
    products, inverses = [], []
    multiply, invert = RatMat.__mul__, RatMat.minimal_right_inverse

    def spy_mul(self, other):
        products.append((self, other))
        return multiply(self, other)

    def spy_inverse(self):
        inverses.append(self)
        return invert(self)

    monkeypatch.setattr(RatMat, "__mul__", spy_mul)
    monkeypatch.setattr(RatMat, "minimal_right_inverse", spy_inverse)
    res = uniqueness_check(w, w, region, region)
    monkeypatch.undo()
    assert products == [] and inverses == [w]
    assert res.failed_hypotheses == expected
    if expected:
        assert (res.verdict, res.transfer) == (Verdict.HYPOTHESIS_FAILED, None)
    else:
        assert (res.verdict, res.transfer) == (Verdict.UNIQUE, RatMat.identity(w.rows))


def test_non_constant_transfer_still_compares_the_grams(monkeypatch):
    geo = default_geometries()[1]
    _, w = generate_instance(7, (2, 3), 2, geo["region_p"], geo["region_z"])
    w1 = perturb_with_allpass(w, [geo["allpass_pole"]])
    expected = _reference_hypotheses(w, w1, geo["region_p"], geo["region_z"])
    assert expected and "co_spectrality" not in expected
    grams = _spy_grams(monkeypatch)
    res = uniqueness_check(w, w1, geo["region_p"], geo["region_z"])
    assert res.failed_hypotheses == expected
    assert grams == [w, w1]
    grams.clear()
    assert transfer_between(w1, w) == make_elementary(geo["allpass_pole"], [1, 0])
    assert grams == [w1, w]


def test_generate_instance_postconditions():
    for geo in default_geometries():
        spectrum, w = generate_instance(11, (2, 2), 2, geo["region_p"], geo["region_z"])
        assert is_spectral_factor(w, spectrum)
        assert analytic_in(w, geo["region_p"])
        assert analytic_in(w.minimal_right_inverse(), geo["region_z"])
        assert is_stochastically_minimal(w, spectrum)
        assert w.has_real_coeffs()


_GEOMETRIES = {geo["name"]: (geo["region_p"], geo["region_z"]) for geo in default_geometries()}
_FLIP_POOL = [pt(2), pt(-3), pt(Fraction(5, 2)), pt(Fraction(1, 4)), pt(1, 1), pt(0, 2),
              pt(Fraction(-1, 2), Fraction(1, 3))]
_regions = st.builds(Region, st.sampled_from(list(Side)),
                     st.lists(st.sampled_from(_FLIP_POOL), max_size=3), st.booleans())
_sizes = st.integers(1, 3).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**16), _sizes, st.integers(0, 6),
       st.sampled_from(list(_GEOMETRIES.values())) | st.tuples(_regions, _regions))
# without the generator's reciprocal-collapse retry, a zero lands on a
# pole's reciprocal in these two draws and W is not stochastically minimal
@example(87, (2, 3), 3, _GEOMETRIES["weak_flipped"])
@example(237, (1, 2), 3, _GEOMETRIES["flipped_disjoint"])
def test_generated_factors_meet_every_hypothesis(seed, size, degree, regions):
    # generate_instance checks none of these; its construction proves them
    region_p, region_z = regions
    spectrum, w = generate_instance(seed, size, degree, region_p, region_z)
    assert w.has_real_coeffs()
    assert analytic_in(w, region_p)
    assert analytic_in(w.minimal_right_inverse(), region_z)
    assert 2 * w.mcmillan_degree() == spectrum.mcmillan_degree()
    result = uniqueness_check(w, w, region_p, region_z)
    assert result.verdict is Verdict.UNIQUE
    assert result.transfer == RatMat.identity(size[0])


def test_generate_instance_deterministic():
    a = generate_instance(42, (1, 2), 2, OUTER, OUTER)
    b = generate_instance(42, (1, 2), 2, OUTER, OUTER)
    assert a[1] == b[1]
    assert a[0].phi == b[0].phi


def test_generate_instance_degree_zero():
    spectrum, w = generate_instance(1, (2, 3), 0, OUTER, OUTER)
    assert w.is_constant()
    assert spectrum.mcmillan_degree() == 0


def test_generate_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_instance(1, (3, 2), 1, OUTER, OUTER)
    with pytest.raises(ValueError):
        generate_instance(1, (1, 1), -1, OUTER, OUTER)


@pytest.mark.parametrize("geometry", ["classical_outer", "flipped_disjoint"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generate_accepts_repeated_points_at_degree_24(seed, geometry):
    # each of these six draws repeats a point: a pole or zero of
    # multiplicity above one, which the generator accepts
    spectrum, w = generate_instance(seed, (1, 2), 24, *_GEOMETRIES[geometry])
    assert w.mcmillan_degree() == 24
    assert spectrum.mcmillan_degree() == 48


def test_generated_factor_with_a_double_pole_meets_every_hypothesis():
    # sweep instance 1010009: the pole 3 is drawn twice, once per row
    region_p, region_z = _GEOMETRIES["flipped_disjoint"]
    spectrum, w = generate_instance(1010009, (2, 3), 3, region_p, region_z)
    assert w.pole_points() == (pt(Fraction(-4, 9)), pt(3))
    assert w.pole_degree(pt(3)) == 2
    assert w.mcmillan_degree() == 3
    assert spectrum.mcmillan_degree() == 6
    q = RatMat([[-1, 0], [0, -1]])
    result = uniqueness_check(w, q * w, region_p, region_z)
    assert result.verdict is Verdict.UNIQUE
    assert result.transfer == q
    result = uniqueness_check(w, perturb_with_allpass(w, [pt(3)]), region_p, region_z)
    assert (result.verdict, result.failed_hypotheses) == (
        Verdict.HYPOTHESIS_FAILED, ("minimality_W1",))


def test_degree_bound_follows_from_the_draw_pools():
    # the values the two draws start from, written out independently
    reals = {gr(Fraction(n, d)) for n in range(-9, 10) for d in range(1, 10)
             if n and abs(Fraction(n, d)) != 1}
    complexes = {gr(Fraction(a, d), Fraction(b, d)) for d in range(1, 6)
                 for a in range(-5, 6) for b in range(1, 6) if a * a + b * b != d * d}
    real_pairs = {frozenset({x, x.inverse()}) for x in reals}
    classes = {frozenset({w, w.conj(), w.inverse(), w.conj().inverse()}) for w in complexes}
    assert (len(reals), len(real_pairs), len(complexes), len(classes)) == (108, 54, 244, 211)
    # the cap: distinct poles and zeros in disjoint pairs and classes, atom
    # sizes mirrored, would stop there
    assert _MAX_DEGREE == len(real_pairs) // 2 + 2 * (len(classes) // 2)
    real_points = set().union(*real_pairs)
    complex_points = set().union(*classes)
    rng = random.Random(7)
    for region in (OUTER, INNER, Region(Side.OUTER, [pt(2), pt(1, 1)], weak=True)):
        for _ in range(200):
            assert _draw_real_outside(rng, region).value in real_points
            p, q = _draw_conjugate_pair_outside(rng, region)
            assert p.value in complex_points and q == p.conj()
    with pytest.raises(InputTooLargeError):
        generate_instance(1, (1, 2), _MAX_DEGREE + 1, OUTER, OUTER)


def test_perturb_with_allpass():
    _, w = generate_instance(3, (1, 2), 1, OUTER, OUTER)
    assert perturb_with_allpass(w, []) == w
    bumped = perturb_with_allpass(w, [pt(5)])
    assert bumped.mcmillan_degree() == w.mcmillan_degree() + 1
    assert bumped.paraconj_transpose() * bumped == w.paraconj_transpose() * w


def test_two_pole_perturbation_touches_no_memo():
    # each factor updates the cleared form it is handed; no intermediate
    # product passes through a memo
    _, w = generate_instance(4, (2, 3), 1, OUTER, OUTER)
    memos = _library_memos()
    sizes = [memo.cache_info().currsize for memo in memos]
    bumped = perturb_with_allpass(w, [pt(5), pt(-3)])
    assert [memo.cache_info().currsize for memo in memos] == sizes
    expected = make_elementary(pt(5), [1, 0]) * make_elementary(pt(-3), [1, 0]) * w
    assert bumped == expected


def test_perturb_cancellation_mechanism():
    # a perturbation pole at the reciprocal of a pole of W puts the zero of
    # the elementary factor on that pole: the product cancels there
    _, w = generate_instance(9, (1, 2), 1, OUTER, OUTER)
    pole = w.finite_pole_points()[0]
    u = make_elementary(pole.symplectic_pair(), [1])
    report = analyze_product(u, w, pole)
    assert report.pole_cancellation and report.zero_cancellation


def test_run_sweep_deterministic_and_clean():
    rep1 = run_sweep(6)
    rep2 = run_sweep(6)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["summary"]["uniqueness_violated"] == 0
    assert rep1["summary"]["transfer_mismatches"] == 0
    assert rep1["summary"]["unique"] == 6
    assert rep1["summary"]["hypothesis_failed"] == 6
    for record in rep1["instances"]:
        assert record["orthogonal_case"]["verdict"] == "UNIQUE"
        assert record["allpass_case"]["verdict"] == "HYPOTHESIS_FAILED"
        named = record["allpass_case"]["failed_hypotheses"]
        assert any("minimality" in n or "analyticity" in n for n in named)


def _library_memos() -> list:
    """Every memoized function of the package, found by its ``cache_info``."""
    return [value for name, module in sorted(sys.modules.items())
            if module is not None and (name == "specfactor" or name.startswith("specfactor."))
            for value in vars(module).values()
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name]


def test_sweep_report_does_not_depend_on_memo_state():
    memos = _library_memos()
    assert {"_minimal_right_inverse", "_gram"} <= {memo.__name__ for memo in memos}
    for memo in memos:
        memo.cache_clear()
    cold = run_sweep(12, base_seed=20240)
    warm = run_sweep(12, base_seed=20240)
    for memo in memos:
        memo.cache_clear()
    cleared = run_sweep(12, base_seed=20240)
    assert cold == warm == cleared
    # the golden report is `sweep --instances 12` at the default base seed
    golden = Path(__file__).parent / "golden" / "sweep_12.json"
    assert (json.dumps(cold, indent=2, sort_keys=True) + "\n").encode() == golden.read_bytes()


# Gaussian, repeated and complex roots, and z^2 + 2 with no root in Q(i)
_ARBITRARY_DENS = [[1], [-2, 1], [Fraction(-1, 3), 1], [4, -4, 1], [gr(0, -2), 1], [1, 0, 1],
                   [2, 0, 1]]
_arbitrary_entries = st.builds(
    lambda num, den: RF(num, den),
    st.lists(st.builds(gr, st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=3),
    st.sampled_from(_ARBITRARY_DENS))


@st.composite
def _arbitrary_ratmats(draw):
    """A 1 x 1 to 2 x 3 matrix, possibly with a zero row, or a zero matrix."""
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if draw(st.integers(0, 7)) == 0:
        return RatMat.zeros(rows, cols)
    grid = draw(st.lists(st.lists(_arbitrary_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [0] * cols
    return M(grid)


@st.composite
def _arbitrary_pairs(draw):
    w = draw(_arbitrary_ratmats())
    w1 = draw(st.sampled_from([w, -w, w * 2])) if draw(st.booleans()) else draw(
        _arbitrary_ratmats())
    return w, w1


@settings(max_examples=120, deadline=None)
@given(_arbitrary_pairs(), st.sampled_from(default_geometries()))
@example((M([[RF([Fraction(-1, 3), 0, 1], [Fraction(1, 9), 0, 1])]]),
          M([[RF([Fraction(1, 3), 0, -1], [Fraction(1, 9), 0, 1])]])), default_geometries()[0])
def test_uniqueness_check_gives_a_verdict_or_a_mapped_error(pair, geo):
    # any pair, generated or not: a result, or an error the CLI has a code for
    w, w1 = pair
    try:
        result = uniqueness_check(w, w1, geo["region_p"], geo["region_z"])
    except tuple(cls for cls, _ in _ERROR_CODES):
        return
    assert isinstance(result, UniquenessResult)
