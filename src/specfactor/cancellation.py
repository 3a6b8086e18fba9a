"""Pole/zero cancellation analysis for products of rational matrices.

A product G H has a pole cancellation at a point when the pole degree of
the product falls short of the sum of the factors' pole degrees, a zero
cancellation when the zero degrees drop, and a zero-pole cancellation when
both happen at once.  For full-rank factors (rank equal to the inner
dimension) the signed pole deficit always equals the signed zero deficit,
so any one-sided cancellation is automatically two-sided; the executable
checks below verify those facts on concrete instances.

Analysis is pointwise: cancellations can only occur on the combined
pole/zero support, which ``support_points`` enumerates (Q(i) locations
plus infinity).  For a full-rank pair that support is the factors' own
poles and zeros, so G H is formed only by the first ``analyze_product``;
only a rank-deficient pair needs the zeros of G H itself.
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
    a second time."""
    product = _product(g, h)
    if g.is_zero() or h.is_zero() or product.is_zero():
        raise ZeroMatrixError("cancellation analysis needs nonzero G, H and G*H")
    dz_g, dp_g = point_degrees_by_valuation(g, point)
    dz_h, dp_h = point_degrees_by_valuation(h, point)
    dz_gh, dp_gh = point_degrees_by_valuation(product, point)
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
    report = analyze_product(g, h, point)
    if report.pole_cancellation or report.zero_cancellation:
        return report.zero_pole_cancellation
    return True


def degree_deficit_identity_holds(g: RatMat, h: RatMat, point: Point) -> bool:
    """For full-rank factors the signed pole deficit of the product equals
    the signed zero deficit, exactly."""
    _require_full_rank_pair(g, h)
    report = analyze_product(g, h, point)
    pole_deficit = report.dp_gh - report.dp_g - report.dp_h
    zero_deficit = report.dz_gh - report.dz_g - report.dz_h
    return pole_deficit == zero_deficit


def pole_additivity_holds(g: RatMat, h: RatMat, point: Point) -> bool:
    """With no zeros at the point (and full-rank factors), pole degrees add
    exactly in the product.  Valid at finite points and at infinity."""
    _require_full_rank_pair(g, h)
    if g.zero_degree(point) != 0 or h.zero_degree(point) != 0:
        raise ValueError(f"hypothesis violated: a factor has a zero at {point}")
    report = analyze_product(g, h, point)
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
