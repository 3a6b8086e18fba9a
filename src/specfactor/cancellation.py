"""Pole/zero cancellation analysis for products of rational matrices.

A product G H has a pole cancellation at a point when the pole degree of
the product falls short of the sum of the factors' pole degrees, a zero
cancellation when the zero degrees drop, and a zero-pole cancellation when
both happen at once.  For full-rank factors (rank equal to the inner
dimension) the signed pole deficit always equals the signed zero deficit,
so any one-sided cancellation is automatically two-sided; the executable
checks below verify those facts on concrete instances, reading the
product's degrees off G H itself.

Analysis is pointwise: cancellations can only occur on the combined
pole/zero support, which ``support_points`` enumerates (Q(i) locations
plus infinity).  For a full-rank pair that support is the factors' own
poles and zeros, so G H is formed only by the first ``analyze_product``;
only a rank-deficient pair needs the zeros of G H itself.  At a point,
G H's degrees follow from the factors' wherever no zero of one factor
meets a pole of the other (``_degrees_from_factors``: a factor with no
structure at the point and full rank on the inner side, or a full-rank
pair whose zeros or whose poles are absent there), so ``analyze_product``
expands G H only at the remaining points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import RankDeficiencyError, ZeroMatrixError
from .ratmat import RatMat, point_degrees_by_valuation
from .scalars import INFINITY, Point


@dataclass(frozen=True)
class CancellationReport:
    """Degrees of both factors and their product at one point, plus the
    three cancellation flags derived from them."""

    point: Point
    dp_g: int
    dp_h: int
    dp_gh: int
    dz_g: int
    dz_h: int
    dz_gh: int
    pole_cancellation: bool
    zero_cancellation: bool
    zero_pole_cancellation: bool


@lru_cache(maxsize=4096)
def _product(g: RatMat, h: RatMat) -> RatMat:
    """G H, formed once per pair: every per-point ``analyze_product``
    shares the result (and its cached structure), and so does
    ``support_points`` for a pair without full inner rank; for a full-rank
    pair it reads the factors only."""
    return g * h


def analyze_product(g: RatMat, h: RatMat, point: Point) -> CancellationReport:
    """Classify the cancellation behaviour of G H at one point.

    Each matrix's (zero, pole) pair comes from one expansion about the
    point: the pole-only route of ``RatMat.pole_degree`` would expand it
    a second time.  G H's pair is read off the factors' pairs wherever
    ``_degrees_from_factors`` proves it, so G H is expanded only at points
    where a zero of one factor may meet a pole of the other."""
    return _analyze(g, h, point, derive=True)


def _analyze(g: RatMat, h: RatMat, point: Point, derive: bool) -> CancellationReport:
    """``analyze_product``; with derive=False G H's pair is always read off
    G H itself, as the law checks below need: they test what
    ``_degrees_from_factors`` assumes."""
    product = _product(g, h)
    if g.is_zero() or h.is_zero() or product.is_zero():
        raise ZeroMatrixError("cancellation analysis needs nonzero G, H and G*H")
    dz_g, dp_g = point_degrees_by_valuation(g, point)
    dz_h, dp_h = point_degrees_by_valuation(h, point)
    derived = _degrees_from_factors(g, h, dz_g, dp_g, dz_h, dp_h) if derive else None
    dz_gh, dp_gh = derived if derived is not None else point_degrees_by_valuation(product, point)
    pole_cancel = dp_gh < dp_g + dp_h
    zero_cancel = dz_gh < dz_g + dz_h
    return CancellationReport(
        point=point,
        dp_g=dp_g,
        dp_h=dp_h,
        dp_gh=dp_gh,
        dz_g=dz_g,
        dz_h=dz_h,
        dz_gh=dz_gh,
        pole_cancellation=pole_cancel,
        zero_cancellation=zero_cancel,
        zero_pole_cancellation=pole_cancel and zero_cancel,
    )


def _degrees_from_factors(
    g: RatMat, h: RatMat, dz_g: int, dp_g: int, dz_h: int, dp_h: int
) -> tuple[int, int] | None:
    """G H's (zero, pole) pair at a point from the factors' pairs there,
    or None where no rule below applies.  G is n x k and H is k x m.

    Locally (in z - p, or 1/z at infinity) a matrix of normal rank r is
    U [D 0; 0 0] V with U, V unimodular and D = diag(u**nu_i), i <= r; its
    zero degree is the sum of the positive nu_i, its pole degree that of
    the negative ones.

    (a) G of full column rank with pair (0, 0): every nu_i is 0, so
        G = U [I; 0] V and G H = U [V H; 0] has the orders of V H, which
        are H's: G H has H's pair.
    (b) H of full row rank with pair (0, 0): likewise G H = G U [I 0] V
        has G's pair.
    (c) Full inner rank (``_full_inner_rank``) and dz_g = dz_h = 0: write
        G = U_G [D_G; 0] V_G and H = U_H [D_H 0] V_H with k x k diagonal
        D_G = diag(u**a_i), D_H = diag(u**b_j).  Then G H = U_G [F 0; 0 0]
        V_H with F = D_G M D_H, M = V_G U_H unimodular.  No zeros means
        every a_i, b_j <= 0, so F**-1 = D_H**-1 M**-1 D_G**-1 is analytic
        and F has no zero: dz = 0.  F is square and nonsingular, so its
        orders sum to ord det F = sum a + sum b, and dp = dp_g + dp_h.
    (d) Full inner rank and dp_g = dp_h = 0: every a_i, b_j >= 0, F is
        analytic and has no pole, and dz = ord det F = dz_g + dz_h.

    (c) and (d) are the cancellation laws at a point where no zero meets a
    pole, which is why the law checks below read G H itself.  The degree
    tests come first: the normal ranks are memoized, but a point none of
    the rules can take asks for none.
    """
    if (dz_g, dp_g) == (0, 0) and g.normal_rank() == g.cols:
        return dz_h, dp_h
    if (dz_h, dp_h) == (0, 0) and h.normal_rank() == h.rows:
        return dz_g, dp_g
    if (dz_g == dz_h == 0 or dp_g == dp_h == 0) and _full_inner_rank(g, h):
        return dz_g + dz_h, dp_g + dp_h
    return None


def _full_inner_rank(g: RatMat, h: RatMat) -> bool:
    """rank(G) = cols(G) = rows(H) = rank(H), from the memoized ranks; a
    zero factor has rank 0 and fails it."""
    return g.cols == h.rows and g.normal_rank() == g.cols and h.normal_rank() == h.rows


def _require_full_rank_pair(g: RatMat, h: RatMat):
    r = g.cols
    if h.rows != r:
        raise RankDeficiencyError("inner dimensions differ")
    if not _full_inner_rank(g, h):
        raise RankDeficiencyError(
            "needs rank(G) = cols(G) = rows(H) = rank(H); "
            f"got rank(G)={g.normal_rank()}, rank(H)={h.normal_rank()}, r={r}"
        )


def paired_cancellation_holds(g: RatMat, h: RatMat, point: Point) -> bool:
    """For full-rank factors: any pole or zero cancellation at the point is
    a zero-pole cancellation.  True also when nothing cancels."""
    _require_full_rank_pair(g, h)
    report = _analyze(g, h, point, derive=False)
    if report.pole_cancellation or report.zero_cancellation:
        return report.zero_pole_cancellation
    return True


def degree_deficit_identity_holds(g: RatMat, h: RatMat, point: Point) -> bool:
    """For full-rank factors the signed pole deficit of the product equals
    the signed zero deficit, exactly."""
    _require_full_rank_pair(g, h)
    report = _analyze(g, h, point, derive=False)
    pole_deficit = report.dp_gh - report.dp_g - report.dp_h
    zero_deficit = report.dz_gh - report.dz_g - report.dz_h
    return pole_deficit == zero_deficit


def pole_additivity_holds(g: RatMat, h: RatMat, point: Point) -> bool:
    """With no zeros at the point (and full-rank factors), pole degrees add
    exactly in the product.  Valid at finite points and at infinity."""
    _require_full_rank_pair(g, h)
    if g.zero_degree(point) != 0 or h.zero_degree(point) != 0:
        raise ValueError(f"hypothesis violated: a factor has a zero at {point}")
    report = _analyze(g, h, point, derive=False)
    return report.dp_gh == report.dp_g + report.dp_h


def support_points(g: RatMat, h: RatMat) -> tuple[Point, ...]:
    """Q(i) poles and zeros of G, H and G H, plus infinity.

    For a full-rank pair (``_full_inner_rank``) the poles and zeros of G H
    lie among those of G and H, so only the factors are read and G H is
    not formed.  Proof: let r be the inner dimension and p a finite point
    where neither G nor H has a pole or a zero.  Every local order of both
    factors at p is 0, so G(p) and H(p) both have rank r, and so has
    G(p) H(p).  By Sylvester's inequality r is also the normal rank of
    G H.  G H is analytic at p and keeps its normal rank there, so p is
    neither a pole nor a zero of G H.  A rank-deficient pair needs G H
    itself: G = [1, 1] and H = [1; z - 2] show nothing, while G H = z - 1
    has a zero at 1.

    Locations outside Q(i) are not enumerable and are skipped; they cannot
    be probed by the pointwise checks anyway.
    """
    mats = (g, h) if _full_inner_rank(g, h) else (g, h, _product(g, h))
    points: set[Point] = set()
    for mat in mats:
        if mat.is_zero():
            continue
        points.update(mat.finite_pole_points(strict=False))
        points.update(mat.finite_zero_points(strict=False))
    ordered = sorted(points, key=Point.sort_key)
    ordered.append(INFINITY)
    return tuple(ordered)
