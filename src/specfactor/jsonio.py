"""JSON forms for every serializable type.

Scalars travel as exact strings ("1/2+3/4*i", "inf"), polynomials as
ascending-power arrays of scalar strings, rational functions as
{"num": [...], "den": [...]}, matrices as {"rows", "cols", "entries"}.
Parsing validates shapes and reports failures as ScalarParseError so the
CLI can map them to a stable error code; extra keys (such as the schema
version stamp the CLI adds on output) are ignored on input.
"""

from __future__ import annotations

from dataclasses import fields

from .allpass import AllPassFactorization, ElementaryFactor
from .cancellation import CancellationReport
from .errors import ScalarParseError
from .poly import Poly
from .ratfun import RatFun
from .ratmat import RatMat, SMStructure
from .scalars import GaussianRational, Point
from .spectra import UniquenessResult

SCHEMA_VERSION = "1"


def poly_to_json(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def poly_from_json(data) -> Poly:
    if not isinstance(data, list):
        raise ScalarParseError("polynomial must be an array of scalar strings")
    return Poly([GaussianRational.from_string(str(c)) for c in data])


def ratfun_to_json(f: RatFun) -> dict:
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def ratfun_from_json(data) -> RatFun:
    if not isinstance(data, dict) or "num" not in data or "den" not in data:
        raise ScalarParseError("rational function must be an object with num and den")
    return RatFun(poly_from_json(data["num"]), poly_from_json(data["den"]))


def ratmat_to_json(m: RatMat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[ratfun_to_json(e) for e in row] for row in m.entries],
    }


def ratmat_from_json(data) -> RatMat:
    if not isinstance(data, dict) or "entries" not in data:
        raise ScalarParseError("matrix must be an object with an entries grid")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries or not all(
            isinstance(row, list) and row and len(row) == len(entries[0]) for row in entries):
        raise ScalarParseError("matrix entries must be a grid of non-empty, equal-length rows")
    mat = RatMat([[ratfun_from_json(e) for e in row] for row in entries])
    for key, found in (("rows", mat.rows), ("cols", mat.cols)):
        declared = data.get(key)
        if declared is None:
            continue
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ScalarParseError(f"declared {key} must be an integer, got {declared!r}")
        if declared != found:
            raise ScalarParseError(f"declared {key} {declared} but found {found}")
    return mat


def sm_to_json(sm: SMStructure) -> dict:
    return {
        "rank": sm.rank,
        "eps": [poly_to_json(e) for e in sm.eps],
        "psi": [poly_to_json(p) for p in sm.psi],
    }


def factorization_to_json(f: AllPassFactorization) -> dict:
    return {
        "constant": ratmat_to_json(f.constant),
        "factors": [
            {"alpha": str(factor.alpha), "v": [str(x) for x in factor.v]}
            for factor in f.factors
        ],
    }


def factorization_from_json(data) -> AllPassFactorization:
    if not isinstance(data, dict) or "constant" not in data or "factors" not in data:
        raise ScalarParseError("factorization must have constant and factors")
    constant = ratmat_from_json(data["constant"])
    items = data["factors"]
    if not isinstance(items, list) or not all(
            isinstance(item, dict) and "alpha" in item and isinstance(item.get("v"), list)
            for item in items):
        raise ScalarParseError("factors must be an array of objects with alpha and a v array")
    factors = [ElementaryFactor(Point.from_string(str(item["alpha"])),
                                [GaussianRational.from_string(str(x)) for x in item["v"]])
               for item in items]
    return AllPassFactorization(constant, factors)


def cancellation_to_json(report: CancellationReport) -> dict:
    data = {f.name: getattr(report, f.name) for f in fields(report)}
    data["point"] = str(report.point)
    return data


def uniqueness_to_json(result: UniquenessResult) -> dict:
    return {
        "verdict": result.verdict.value,
        "failed_hypotheses": list(result.failed_hypotheses),
        "transfer": None if result.transfer is None else ratmat_to_json(result.transfer),
    }
