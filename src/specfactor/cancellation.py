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
plus infinity).  One local rule carries both: for a pair of full inner
rank, G H's degrees at a point are the sums of the factors' wherever no
zero of one factor meets a pole of the other (the lemma of
``_degrees_from_factors``).  So a full-rank pair's support is the factors'
own poles and zeros, and ``analyze_product`` expands G H only at the
remaining points; a pair without full inner rank reads G H itself.
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
    or None where the lemma below does not apply.

    Lemma.  Let G (n x k) and H (k x m) both have normal rank k.  At a
    point where no zero of one factor meets a pole of the other (dz_g = 0
    or dp_h = 0, and dz_h = 0 or dp_g = 0), G H has the pair
    (dz_g + dz_h, dp_g + dp_h).

    Proof.  Locally (in z - p, or 1/z at infinity) G = U_G [D_G; 0] V_G and
    H = U_H [D_H 0] V_H with U, V unimodular and k x k diagonal
    D_G = diag(u**a_i), D_H = diag(u**b_j); a zero degree is the sum of the
    positive orders, a pole degree that of the negative ones.  So
    G H = U_G [F 0; 0 0] V_H with F = D_G M D_H and M = V_G U_H unimodular:
    G H has F's orders, and they sum to ord det F = sum a + sum b.  The
    condition expands to four cases.  No zeros in either factor: every
    a_i, b_j <= 0, F**-1 = D_H**-1 M**-1 D_G**-1 is analytic, so F has no
    zero and its pole degree is -ord det F.  No poles in either: F is
    analytic, so it has no pole and its zero degree is ord det F.  G free
    of structure: D_G = I and F = M D_H has H's orders.  H free of
    structure: likewise F has G's.

    The lemma is the cancellation laws at a point where no zero meets a
    pole, which is why the law checks below read G H itself.  The degree
    tests come first: the normal ranks are memoized, but a point the
    lemma cannot take asks for none.
    """
    if (dz_g == 0 or dp_h == 0) and (dz_h == 0 or dp_g == 0) and _full_inner_rank(g, h):
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
    not formed: at a point where both factors have the pair (0, 0), the
    lemma of ``_degrees_from_factors`` gives G H the pair (0, 0).  A
    rank-deficient pair needs G H itself: G = [1, 1] and H = [1; z - 2]
    show nothing, while G H = z - 1 has a zero at 1.

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
