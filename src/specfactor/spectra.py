"""Spectra, spectral factors and the uniqueness harness.

A region descriptor fixes, for every reciprocal pair (z, 1/z) off the unit
circle, which element belongs to the set: a default side (inside or
outside the circle) plus a finite set of flipped pairs, and a flag telling
whether the circle itself is included (the weak variant).  Every such set
satisfies the symplectic pairing law by construction: exactly one of z and
1/z is a member for |z| != 1.

A spectrum is a real para-Hermitian rational matrix, positive semidefinite
on the unit circle where defined; its McMillan degree is even (proved in
``Spectrum``), so building one computes no degree.  Spectral factors W
(with Phi = W* W) are compared through exact symbolic equality; stochastic
minimality means the McMillan degree of W is half that of Phi.
``uniqueness_check`` tests the uniqueness hypotheses for two factors and
pole/zero regions and classifies the outcome: a failed hypothesis, a
constant orthogonal transfer T (expected; T is para-unitary because the
factors are co-spectral), or a non-constant T despite all hypotheses
holding, which only a defect here can produce.  When W1 is a constant
multiple T W, W1's structural hypotheses are W's and are read off W, so
such a pair costs about one factor's checks and forms no Gram of W1; W's
minimal right inverse X and the transfer W1 X are formed once each, and
Phi's degree is read at W's poles.  ``generate_instance`` meets every
hypothesis by construction.

Exactness note: apart from root guesses that are confirmed exactly, the
only floating-point computation in the package is ``psd_on_circle``, an
advisory sampling check with in-house Jacobi eigenvalues.  Generators
guarantee positive semidefiniteness structurally (Phi is built as W* W).
"""

from __future__ import annotations

import cmath
import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .allpass import ElementaryFactor, is_parahermitian, is_unitary_constant
from .errors import (
    CoSpectralityError,
    DimensionMismatchError,
    GenerationError,
    InputTooLargeError,
    MinimalInverseError,
    RankDeficiencyError,
    ScalarParseError,
    SpectrumError,
)
from .linsolve import matrix_rank
from .ratfun import RatFun
from .ratmat import RatMat
from .poly import Poly
from .scalars import Comparison, GaussianRational, Point


class Side(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


def _canonical_pair_rep(p: Point) -> Point:
    """The member of the reciprocal pair with modulus above 1 (infinity for
    the pair {0, infinity})."""
    return p if p.abs_vs_one() is Comparison.GREATER else p.symplectic_pair()


class Region:
    """Pole/zero placement region compatible with reciprocal-pair symmetry."""

    __slots__ = ("_default_side", "_flipped", "_weak")

    def __init__(self, default_side: Side, flipped=(), weak: bool = False):
        if not isinstance(default_side, Side):
            raise TypeError("default_side must be a Side")
        canon = set()
        for point in flipped:
            if not isinstance(point, Point):
                point = Point(point)
            if point.abs_vs_one() is Comparison.EQUAL:
                raise ValueError(f"flipped point on the unit circle: {point}")
            canon.add(_canonical_pair_rep(point))
        self._default_side = default_side
        self._flipped = frozenset(canon)
        self._weak = bool(weak)

    @property
    def default_side(self) -> Side:
        return self._default_side

    @property
    def flipped(self) -> frozenset[Point]:
        return self._flipped

    @property
    def weak(self) -> bool:
        return self._weak

    def contains(self, p: Point) -> bool:
        cmp = p.abs_vs_one()
        if cmp is Comparison.EQUAL:
            return self._weak
        on_default = (cmp is Comparison.GREATER) == (self._default_side is Side.OUTER)
        if _canonical_pair_rep(p) in self._flipped:
            return not on_default
        return on_default

    @classmethod
    def parse(cls, text: str) -> Region:
        """Grammar: ``outer|inner[,flip=p1;p2,...][,weak]``."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ScalarParseError("empty region specification")
        side_token = parts[0].lower()
        if side_token == "outer":
            side = Side.OUTER
        elif side_token == "inner":
            side = Side.INNER
        else:
            raise ScalarParseError(f"region side must be outer or inner, got {parts[0]!r}")
        flips: list[Point] = []
        weak = False
        for token in parts[1:]:
            low = token.lower()
            if low == "weak":
                weak = True
            elif low.startswith("flip="):
                for ptext in token[5:].split(";"):
                    if ptext.strip():
                        flips.append(Point.from_string(ptext))
            else:
                raise ScalarParseError(f"unknown region clause {token!r}")
        return cls(side, flips, weak)

    def spec_string(self) -> str:
        parts = [self._default_side.value]
        if self._flipped:
            pts = sorted(self._flipped, key=Point.sort_key)
            parts.append("flip=" + ";".join(str(p) for p in pts))
        if self._weak:
            parts.append("weak")
        return ",".join(parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return (
            self._default_side is other._default_side
            and self._flipped == other._flipped
            and self._weak == other._weak
        )

    def __hash__(self):
        return hash((self._default_side, self._flipped, self._weak))

    def __repr__(self) -> str:
        return f"Region({self.spec_string()!r})"


def region_contains(region: Region, p: Point) -> bool:
    return region.contains(p)


class Spectrum:
    """Real para-Hermitian rational matrix.

    Construction checks what can fail: Phi is square, real, para-Hermitian
    and nonzero.  Its McMillan degree, a sum of pole degrees that forms no
    Smith-McMillan form, is computed only when asked for and raises for a
    pole outside Q(i) or a denominator too large to split.  The degree is
    always even, so a stochastically minimal factor (2 deg W = deg Phi) is
    never excluded by parity:

    For real Phi, para-Hermitian means Phi(z) = Phi(1/z)^T.  Transposition
    and z -> 1/z keep the local pole structure, so the local degree has
    delta(a) = delta(1/a), and each orbit {a, 1/a} with a != +-1, {0, inf}
    included, adds an even amount.  At z = 1 take the chart
    w = (z - 1)/(z + 1), at z = -1 the chart w = (z + 1)/(z - 1); in both
    z -> 1/z is w -> -w, so Psi(w) = Phi(z(w)) has real Laurent
    coefficients with A_k^T = (-1)^k A_k.  The local degree at w = 0 is the
    rank of the block Hankel matrix H = [A_-(i+j-1)], and for
    D = diag((-1)^i I) the product D H is real skew-symmetric, so the rank
    is even.

    Positive semidefiniteness on the circle cannot be decided exactly by
    sampling and is left to the advisory ``psd_on_circle`` check;
    generator-built spectra are Gram products and therefore positive
    semidefinite structurally.
    """

    __slots__ = ("_phi",)

    def __init__(self, phi: RatMat):
        if not phi.is_square():
            raise SpectrumError("a spectrum must be square")
        if not phi.has_real_coeffs():
            raise SpectrumError("a spectrum must have real coefficients")
        if not is_parahermitian(phi):
            raise SpectrumError("a spectrum must be para-Hermitian")
        if phi.is_zero():
            raise SpectrumError("the zero matrix is not a spectrum")
        self._phi = phi

    @property
    def phi(self) -> RatMat:
        return self._phi

    @property
    def size(self) -> int:
        return self._phi.rows

    def rank(self) -> int:
        return self._phi.normal_rank()

    def mcmillan_degree(self) -> int:
        return self._phi.mcmillan_degree()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self._phi == other._phi

    def __repr__(self) -> str:
        return f"Spectrum({self._phi!r})"


def analytic_in(g: RatMat, region: Region) -> bool:
    """True when no pole of g (infinity included) lies in the region; the
    zero matrix has none."""
    return g.is_zero() or not any(region.contains(p) for p in g.pole_points())


def _inverse_analytic(w: RatMat, region: Region) -> bool:
    """True when W has a minimal right inverse with no pole in the region."""
    try:
        return analytic_in(w.minimal_right_inverse(), region)
    except MinimalInverseError:
        return False


def spectrum_degree(w: RatMat, phi: RatMat) -> int:
    """deg Phi for Phi = W~ W (the precondition, not checked), from W's pole
    points P alone: Phi's denominator, twice the degree of W's, is never
    root-searched.

    W~(z) = W(1/conj z)^H has its poles at 1/conj p for p in P (0 and
    infinity swapped, ``Point.conj_pair``), so Phi's poles lie in P and
    their images.  Phi is para-Hermitian, Phi(z) = Phi(1/conj z)^H, and
    conjugating coefficients, z -> 1/z and transposing each keep local pole
    degrees, so Phi's degree at p equals that at 1/conj p.  Summing over one
    representative |rep| < 1 per pair, twice, or once for a point of the
    unit circle (its own image), gives deg Phi."""
    reps = {p if p.abs_vs_one() is not Comparison.GREATER else p.conj_pair()
            for p in w.pole_points()}
    return sum((1 if rep.abs_vs_one() is Comparison.EQUAL else 2) * phi.pole_degree(rep)
               for rep in reps)


def _is_minimal(w: RatMat, phi: RatMat) -> bool:
    """Stochastic minimality of a factor W of Phi: 2 deg W = deg Phi.  Both
    callers pass Phi = W~ W, so deg Phi is read at W's poles and their
    images (``spectrum_degree``)."""
    return 2 * w.mcmillan_degree() == spectrum_degree(w, phi)


@lru_cache(maxsize=32)
def _gram(w: RatMat) -> RatMat:
    """The Gram product W* W, memoized: one sweep instance forms it for the
    same factor up to five times."""
    return w.paraconj_transpose() * w


def is_spectral_factor(w: RatMat, spectrum: Spectrum) -> bool:
    if w.cols != spectrum.size:
        raise DimensionMismatchError(
            f"factor has {w.cols} columns, spectrum has size {spectrum.size}"
        )
    return _gram(w) == spectrum.phi


def is_stochastically_minimal(w: RatMat, spectrum: Spectrum) -> bool:
    if not is_spectral_factor(w, spectrum):
        raise SpectrumError("not a spectral factor of the given spectrum")
    return _is_minimal(w, spectrum.phi)


@dataclass(frozen=True)
class PsdReport:
    ok: bool
    evaluated: int
    skipped: int
    min_eigenvalue: float | None

    def __bool__(self) -> bool:
        return self.ok


def psd_on_circle(spectrum, samples: int = 64, tol: float = 1e-9) -> PsdReport:
    """Advisory floating-point check of positive semidefiniteness on the
    unit circle; samples falling on poles are skipped and counted."""
    if samples < 1:
        raise ValueError("need at least one sample")
    phi = spectrum.phi if isinstance(spectrum, Spectrum) else spectrum
    if not phi.is_square():
        raise DimensionMismatchError("positive semidefiniteness of a non-square matrix")
    lows = []
    for k in range(samples):
        z = cmath.exp(2j * cmath.pi * k / samples)
        try:
            dens = [abs(e.den.eval_complex(z)) for row in phi.entries for e in row]
            nums = [abs(e.num.eval_complex(z)) for row in phi.entries for e in row]
        except OverflowError:
            continue
        if min(dens) >= 1e-12 * max(max(nums, default=0.0), 1.0):
            lows.append(_hermitian_eigenvalues(phi.eval_complex(z))[0])
    return PsdReport(ok=not any(lo < -tol for lo in lows), evaluated=len(lows),
                     skipped=samples - len(lows), min_eigenvalue=min(lows, default=None))


_JACOBI_SWEEPS = 50  # cyclic sweeps before giving up; up to 6 x 6 needs about 25


def _hermitian_eigenvalues(a: list[list[complex]]) -> list[float]:
    """Ascending eigenvalues of the Hermitian part X + iY of the square
    matrix a, by cyclic Jacobi rotations on its real symmetric embedding
    [[X, -Y], [Y, X]] (each eigenvalue twice) until the off-diagonal part is
    below rounding.  Unlike a characteristic polynomial, rotations keep
    repeated eigenvalues accurate."""
    e = ([[x.real for x in row] + [-x.imag for x in row] for row in a]
         + [[x.imag for x in row] + [x.real for x in row] for row in a])
    m = len(e)
    b = [[(e[i][j] + e[j][i]) / 2 for j in range(m)] for i in range(m)]
    for _ in range(_JACOBI_SWEEPS):
        off = sum(b[p][q] * b[p][q] for p in range(m) for q in range(p + 1, m))
        if off <= math.ulp(1.0) ** 2 * sum(x * x for row in b for x in row):
            break
        for p in range(m):
            for q in range(p + 1, m):
                if not b[p][q]:
                    continue
                theta = (b[q][q] - b[p][p]) / (2 * b[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1))
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                for row in b:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                bp, bq = b[p], b[q]
                for k in range(m):
                    bp[k], bq[k] = c * bp[k] - s * bq[k], s * bp[k] + c * bq[k]
                bp[q] = bq[p] = 0.0
    return sorted(b[k][k] for k in range(m))[::2]


def _is_constant_transfer(t: RatMat, w: RatMat, w1: RatMat) -> bool:
    """W1 = T W with T constant and unitary, which makes W1 and W
    co-spectral: W1~ W1 = W~ T^H T W = W~ W."""
    return t.is_constant() and is_unitary_constant(t) and t * w == w1


def transfer_between(w1: RatMat, w: RatMat) -> RatMat:
    """The para-unitary transfer T with W1 = T W, computed as W1 times a
    minimal right inverse X of W.  Raises when the inputs are not exact
    co-spectral factors.

    Co-spectrality is the one check T needs.  With W X = I it gives
    T* T = X* W1* W1 X = X* W* W X = (W X)* (W X) = I, and for
    A = W1 (I - X W) it gives A* A = (W - W X W)* (W - W X W) = 0; on the
    unit circle A* A is A^H A, so A = 0 and W1 = T W.  So a constant T
    decides co-spectrality with no Gram product: the pair is co-spectral
    exactly when T is unitary with T W = W1 (``_is_constant_transfer``).
    Only a non-constant T has W1* W1 and W* W compared."""
    if w1.rows != w.rows or w1.cols != w.cols:
        raise DimensionMismatchError("factors must share dimensions")
    if w.normal_rank() != w.rows or w1.normal_rank() != w1.rows:
        raise RankDeficiencyError("transfer needs full row rank factors")
    t = w1 * w.minimal_right_inverse()
    if not (_is_constant_transfer(t, w, w1) if t.is_constant() else _gram(w1) == _gram(w)):
        raise CoSpectralityError("factors are not co-spectral: W1* W1 differs from W* W")
    return t


class Verdict(enum.Enum):
    UNIQUE = "UNIQUE"
    HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
    UNIQUENESS_VIOLATED = "UNIQUENESS_VIOLATED"


@dataclass(frozen=True)
class UniquenessResult:
    verdict: Verdict
    failed_hypotheses: tuple[str, ...]
    transfer: RatMat | None


def uniqueness_check(
    w: RatMat, w1: RatMat, region_p: Region, region_z: Region
) -> UniquenessResult:
    """Evaluate the uniqueness hypotheses for two candidate factors.

    Checks, exactly and in this order: real coefficients, full row rank,
    co-spectrality (W* W = W1* W1), analyticity of W and W1 in the pole
    region, then of their minimal right inverses in the zero region, then
    stochastic minimality of W and W1 (the last two need full row rank).
    Co-spectrality makes T = W1 W^-R para-unitary with W1 = T W (see
    ``transfer_between``): a constant real T is orthogonal and yields
    UNIQUE, a non-constant one UNIQUENESS_VIOLATED, a defect of this package.

    W's Gram Phi = W~ W is formed first.  W's minimal right inverse X is
    formed once, right after W's pole-region check, whenever both factors
    have full row rank; when W has none, that attempt is W's failed inverse
    check.  When the factors share their canonical denominator, T = W1 X is
    formed then too, before co-spectrality is known, and kept.  If T is
    constant and unitary with T W = W1 (``_is_constant_transfer``), the
    pair is co-spectral, as W1~ W1 = W~ T^H T W = W~ W, so W1's Gram is
    not formed.  Conversely a co-spectral pair with constant T passes both
    tests (W1 = T W and T~ T = I by ``transfer_between``; T~ is T^H for
    constant T), so every other pair is decided by comparing the Grams, as
    before.  For such a constant T, W1's three structural hypotheses
    (analyticity in the pole region, a minimal inverse analytic in the zero
    region, stochastic minimality) take W's answers.  This is exact: T is
    unitary, hence invertible, and W1 = T W has W's poles and zeros with
    their degrees (left multiplication by a constant unit keeps every local
    Smith-McMillan form), hence W's McMillan degree, and Phi1 = Phi.
    W1 Y = I exactly when W (Y T) = I, so every minimal right inverse of W1
    is X' T^-1 for a minimal right inverse X' of W, with the poles of X',
    which are W's zeros.  The den test is necessary for a constant T: a
    common factor of d and the entries of T N would divide those of
    N = T^-1 (T N).  W1 == W is that case with T = I (W X = I), taken with
    no product, and without X too.  Otherwise every W1 hypothesis is
    checked on W1 itself, and W1 X is formed at the end if it was not
    formed before.  Forming X and T finds no roots, and forming X raises
    only ``MinimalInverseError``, so the root searches keep their order:
    W's pole region first, and Phi's degree is read at W's poles
    (``_is_minimal``), never from Phi's own denominator.
    """
    if w.rows != w1.rows or w.cols != w1.cols:
        raise DimensionMismatchError("candidate factors must share dimensions")
    failed: list[str] = []
    if not (w.has_real_coeffs() and w1.has_real_coeffs()):
        failed.append("real_coefficients")
    r = w.rows
    full_rank = w.normal_rank() == r and w1.normal_rank() == r
    if not full_rank:
        failed.append("full_row_rank")
    phi = _gram(w)
    w_analytic = analytic_in(w, region_p)
    x = t = None
    if full_rank:
        try:
            x = w.minimal_right_inverse()
        except MinimalInverseError:
            pass
    same = w1 == w
    if x is not None and (same or w1.den == w.den):
        t = RatMat.identity(r) if same else w1 * x
    constant = same or t is not None and _is_constant_transfer(t, w, w1)
    phi1 = phi if constant else _gram(w1)
    if phi != phi1:
        failed.append("co_spectrality")
    if not w_analytic:
        failed.append("analyticity_W")
    if not (w_analytic if constant else analytic_in(w1, region_p)):
        failed.append("analyticity_W1")
    if full_rank:
        inverse_analytic = x is not None and analytic_in(x, region_z)
        if not inverse_analytic:
            failed.append("analyticity_W_inverse")
        if not (inverse_analytic if constant else _inverse_analytic(w1, region_z)):
            failed.append("analyticity_W1_inverse")
        minimal = _is_minimal(w, phi)
        if not minimal:
            failed.append("minimality_W")
        if not (minimal if constant else _is_minimal(w1, phi1)):
            failed.append("minimality_W1")
    if failed:
        return UniquenessResult(Verdict.HYPOTHESIS_FAILED, tuple(failed), None)
    if t is None:
        t = w1 * x
    if t.has_real_coeffs() and t.is_constant():
        return UniquenessResult(Verdict.UNIQUE, (), t)
    return UniquenessResult(Verdict.UNIQUENESS_VIOLATED, (), t)


# -- instance generation -----------------------------------------------------------


class _RetryDraw(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _collision(what: str, points: set[Point]) -> str:
    """A retry reason of bounded length: the count and the least point."""
    return f"{what} at {len(points)} point(s), least {min(points, key=Point.sort_key)}"


def _draw_real_outside(rng: random.Random, region: Region) -> Point:
    for _ in range(64):
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num == 0:
            continue
        x = Fraction(num, den)
        if abs(x) == 1:
            continue
        p = Point(GaussianRational(x))
        if not region.contains(p):
            return p
        q = p.symplectic_pair()
        if not q.is_infinite and not region.contains(q):
            return q
    raise _RetryDraw("could not draw a real point outside the region")


def _draw_conjugate_pair_outside(rng: random.Random, region: Region) -> tuple[Point, Point]:
    for _ in range(64):
        den = rng.randint(1, 5)
        a = Fraction(rng.randint(-5, 5), den)
        b = Fraction(rng.randint(1, 5), den)
        w = GaussianRational(a, b)
        if w.abs2() == 1:
            continue
        p = Point(w)
        if region.contains(p):
            p = p.symplectic_pair()
            if p.is_infinite or region.contains(p):
                continue
        q = p.conj()
        if region.contains(q):
            continue
        return p, q
    raise _RetryDraw("could not draw a conjugate pair outside the region")


def _atom_sizes(rng: random.Random, total: int) -> list[int]:
    sizes = []
    remaining = total
    while remaining:
        if remaining >= 2 and rng.random() < 0.35:
            sizes.append(2)
            remaining -= 2
        else:
            sizes.append(1)
            remaining -= 1
    return sizes


def _draw_full_rank_constant(rng: random.Random, rows: int, cols: int) -> RatMat:
    for _ in range(64):
        grid = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if matrix_rank(grid) == rows:
            return RatMat(grid)
    raise _RetryDraw("could not draw a full row rank constant matrix")


_MAX_RETRIES = 60  # fresh draws before generation gives up
# A cap on the requested degree, not a size every draw reaches.  Real draws
# take n/d with 0 < |n| <= 9, 1 <= d <= 9, n/d != +-1: 54 pairs {x, 1/x}.
# Complex draws take (a + b*i)/d with |a| <= 5, 1 <= b, d <= 5 off the
# circle: 211 classes {w, conj w, 1/w, 1/conj w}.  Distinct points in equal
# pole and zero atoms, no zero a pole or a pole's reciprocal, would stop at
# 27 + 2 * 105.  Points may repeat, but pole/zero collisions grow with the
# degree: at size 1x2, four default geometries x seeds 0-4, degree 24
# succeeds 20 of 20 times, degree 32 4 of 20 and degrees 40 and 48 never.
_MAX_DEGREE = 237


def generate_instance(
    seed: int,
    size: tuple[int, int],
    degree: int,
    region_p: Region,
    region_z: Region,
) -> tuple[Spectrum, RatMat]:
    """Deterministically build a spectrum and a stochastically minimal
    spectral factor with poles outside the pole region and zeros outside
    the zero region.

    W = D M for D = diag(n_k / d_k) and M a constant integer matrix of
    full row rank.  Poles (roots of the d_k) and zeros (of the n_k) are real
    points or conjugate pairs drawn outside their regions and off the unit
    circle, with pole and zero atoms of equal size per slot; a draw is
    retried when a zero is a pole or a pole's reciprocal, or M is rank
    deficient; a point drawn twice is a pole or zero of multiplicity two,
    which the argument below allows.  So W is real and meets every
    hypothesis of ``uniqueness_check``, none checked here.  Its poles lie
    outside the pole region, none at infinity as deg n_k = deg d_k.  M is r
    rows of a constant invertible matrix, so W has D's Smith-McMillan form,
    and for M M+ = I, M+ D^-1 is a right inverse with W's zero degrees as
    pole degrees: the minimal one has its poles on D's zeros, outside the
    zero region.  Phi = M^T (D~ D) M has the degree of D~ D,
    2 deg D = 2 deg W, as no zero is a pole or a pole's reciprocal.  A
    degree above the cap _MAX_DEGREE raises InputTooLargeError at once.
    """
    r, n = size
    if not (1 <= r <= n):
        raise ValueError("need 1 <= rows <= cols")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > _MAX_DEGREE:
        raise InputTooLargeError(
            f"no instance of degree {degree} can be drawn (limit {_MAX_DEGREE})")
    rng = random.Random(seed)
    reasons: list[str] = []
    for _ in range(_MAX_RETRIES):
        try:
            sizes = _atom_sizes(rng, degree)
            pole_atoms: list[tuple[Point, ...]] = []
            zero_atoms: list[tuple[Point, ...]] = []
            for s in sizes:
                if s == 1:
                    pole_atoms.append((_draw_real_outside(rng, region_p),))
                    zero_atoms.append((_draw_real_outside(rng, region_z),))
                else:
                    pole_atoms.append(_draw_conjugate_pair_outside(rng, region_p))
                    zero_atoms.append(_draw_conjugate_pair_outside(rng, region_z))
            pole_set = {p for atom in pole_atoms for p in atom}
            zero_set = {z for atom in zero_atoms for z in atom}
            if pole_set & zero_set:
                raise _RetryDraw(_collision("pole/zero collision", pole_set & zero_set))
            recip_poles = {p.symplectic_pair() for p in pole_set}
            if recip_poles & zero_set:
                raise _RetryDraw(
                    _collision("reciprocal pairing collapse", recip_poles & zero_set))
            num_polys = [Poly.one() for _ in range(r)]
            den_polys = [Poly.one() for _ in range(r)]
            for pole_atom, zero_atom in zip(pole_atoms, zero_atoms):
                slot = rng.randrange(r)
                for p in pole_atom:
                    den_polys[slot] = den_polys[slot] * Poly.linear(p.value)
                for z in zero_atom:
                    num_polys[slot] = num_polys[slot] * Poly.linear(z.value)
            diag = [RatFun(nm, dn) for nm, dn in zip(num_polys, den_polys)]
            d_mat = RatMat.diagonal(diag)
            m_mat = _draw_full_rank_constant(rng, r, n)
            w = d_mat * m_mat
            return Spectrum(_gram(w)), w
        except _RetryDraw as exc:
            reasons.append(exc.reason)
            continue
    raise GenerationError(
        f"instance generation failed after {_MAX_RETRIES} attempts: {reasons[-3:]}"
    )


def perturb_with_allpass(w: RatMat, poles) -> RatMat:
    """Left multiply by elementary all-pass factors at the given poles, each
    with direction e_1 (``ElementaryFactor.left_multiply``).

    The result is co-spectral with w; generically it violates minimality
    or one of the analyticity constraints, which is exactly what the
    negative branches of the uniqueness harness need.  With an empty pole
    list w is returned unchanged.
    """
    direction = [1] + [0] * (w.rows - 1)
    for pole in reversed(list(poles)):
        factor = ElementaryFactor(pole, direction)
        w = factor.left_multiply(w)
    return w


# -- seeded sweep ------------------------------------------------------------------


def default_geometries() -> list[dict]:
    """Named region geometries used by the sweep: classical equal regions,
    disjoint flips, and weak variants."""
    return [
        {
            "name": "classical_outer",
            "region_p": Region(Side.OUTER),
            "region_z": Region(Side.OUTER),
            "allpass_pole": Point(Fraction(1, 3)),
        },
        {
            "name": "flipped_disjoint",
            "region_p": Region(Side.OUTER, [Point(3)]),
            "region_z": Region(Side.OUTER, [Point(5)]),
            "allpass_pole": Point(3),
        },
        {
            "name": "weak_inner",
            "region_p": Region(Side.INNER, weak=True),
            "region_z": Region(Side.INNER, weak=True),
            "allpass_pole": Point(4),
        },
        {
            "name": "weak_flipped",
            "region_p": Region(Side.OUTER, [Point(2)], weak=True),
            "region_z": Region(Side.OUTER, [Point(Fraction(7, 2))], weak=True),
            "allpass_pole": Point(2),
        },
    ]


_SWEEP_SIZES = [
    ((1, 1), 1),
    ((1, 2), 2),
    ((2, 2), 2),
    ((2, 3), 3),
    ((1, 2), 1),
    ((2, 2), 1),
]


# the exact orthogonal multiples the sweep draws from, by row count
_ORTHOGONAL_POOLS = {
    1: [RatMat([[1]]), RatMat([[-1]])],
    2: [
        RatMat([[1, 0], [0, 1]]),
        RatMat([[0, 1], [1, 0]]),
        RatMat([[1, 0], [0, -1]]),
        RatMat([[-1, 0], [0, -1]]),
        RatMat([[Fraction(3, 5), Fraction(4, 5)], [-Fraction(4, 5), Fraction(3, 5)]]),
        RatMat([[Fraction(5, 13), Fraction(12, 13)], [-Fraction(12, 13), Fraction(5, 13)]]),
    ],
}


def run_sweep(instances: int, base_seed: int = 20240) -> dict:
    """Seeded end-to-end sweep over region geometries.

    For every generated instance the orthogonal-multiple case must come
    back UNIQUE with the exact transfer, and the all-pass perturbed case
    must fail a named hypothesis.  The report is keyed by seed and fully
    deterministic for a given (instances, base_seed) pair.
    """
    geometries = default_geometries()
    records = []
    summary = {**{verdict.value.lower(): 0 for verdict in Verdict}, "transfer_mismatches": 0}
    for idx in range(instances):
        seed = base_seed + idx
        geo = geometries[idx % len(geometries)]
        (size, degree) = _SWEEP_SIZES[idx % len(_SWEEP_SIZES)]
        region_p = geo["region_p"]
        region_z = geo["region_z"]
        spectrum, w = generate_instance(seed, size, degree, region_p, region_z)
        rng = random.Random(seed ^ 0xA5A5A5)
        q = rng.choice(_ORTHOGONAL_POOLS[size[0]])
        res_orth = uniqueness_check(w, q * w, region_p, region_z)
        transfer_exact = res_orth.transfer == q if res_orth.transfer is not None else False
        perturbed = perturb_with_allpass(w, [geo["allpass_pole"]])
        res_pert = uniqueness_check(w, perturbed, region_p, region_z)
        for res in (res_orth, res_pert):
            summary[res.verdict.value.lower()] += 1
        if not transfer_exact:
            summary["transfer_mismatches"] += 1
        records.append(
            {
                "seed": seed,
                "geometry": geo["name"],
                "weak_regions": [region_p.weak, region_z.weak],
                "size": list(size),
                "degree": degree,
                "spectrum_degree": spectrum_degree(w, spectrum.phi),
                "orthogonal_case": {
                    "verdict": res_orth.verdict.value,
                    "failed_hypotheses": list(res_orth.failed_hypotheses),
                    "transfer_matches": transfer_exact,
                },
                "allpass_case": {
                    "verdict": res_pert.verdict.value,
                    "failed_hypotheses": list(res_pert.failed_hypotheses),
                },
            }
        )
    return {
        "schema_version": "1",
        "base_seed": base_seed,
        "instances": records,
        "summary": summary,
    }
