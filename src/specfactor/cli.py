"""Command line front end.

Every subcommand reads exact JSON, computes exactly and writes JSON with a
schema version stamp to standard output.  Exit codes: 0 on success, 1 on
domain errors (a structured error object goes to standard error), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .allpass import potapov_factorize
from .cancellation import analyze_product
from .errors import (
    CirclePoleError,
    CoSpectralityError,
    DimensionMismatchError,
    GenerationError,
    InputTooLargeError,
    MinimalInverseError,
    NonGaussianPoleError,
    RankDeficiencyError,
    ScalarParseError,
    SpectrumError,
    ZeroMatrixError,
)
from .ratmat import RatMat
from .scalars import INFINITY, Point
from .spectra import (
    Region,
    Spectrum,
    generate_instance,
    is_spectral_factor,
    is_stochastically_minimal,
    run_sweep,
    uniqueness_check,
)

_ERROR_CODES = [
    (ScalarParseError, "parse_error"),
    (json.JSONDecodeError, "parse_error"),
    (CirclePoleError, "circle_pole"),
    (NonGaussianPoleError, "non_gaussian_pole"),
    (DimensionMismatchError, "dimension_mismatch"),
    (RankDeficiencyError, "rank_deficient"),
    (ZeroMatrixError, "zero_matrix"),
    (MinimalInverseError, "no_minimal_inverse"),
    (CoSpectralityError, "not_co_spectral"),
    (SpectrumError, "malformed_spectrum"),
    (GenerationError, "generation_failed"),
    (InputTooLargeError, "too_large"),
    (ZeroDivisionError, "division_by_zero"),
    (OSError, "io_error"),
    (ValueError, "domain_error"),
    (ArithmeticError, "domain_error"),
]


def _load_matrix(path: str) -> RatMat:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None
    return jsonio.ratmat_from_json(data)


def _emit(payload: dict) -> None:
    payload = {"schema_version": jsonio.SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _point_listing(mat: RatMat) -> dict:
    listing = {}
    for kind, points, degree in (("poles", mat.finite_pole_points(), mat.pole_degree),
                                 ("zeros", mat.finite_zero_points(), mat.zero_degree)):
        listing[kind] = [{"point": str(p), "degree": degree(p)} for p in points]
        if at_infinity := degree(INFINITY):
            listing[kind].append({"point": "inf", "degree": at_infinity})
    return listing


def _cmd_smform(args) -> dict:
    mat = _load_matrix(args.matrix)
    return jsonio.sm_to_json(mat.sm_structure())


def _cmd_degree(args) -> dict:
    mat = _load_matrix(args.matrix)
    return {"mcmillan": mat.mcmillan_degree()}


def _cmd_polezeros(args) -> dict:
    return _point_listing(_load_matrix(args.matrix))


def _cmd_analyze(args) -> dict:
    g = _load_matrix(args.g)
    h = _load_matrix(args.h)
    point = Point.from_string(args.point)
    return jsonio.cancellation_to_json(analyze_product(g, h, point))


def _cmd_allpass_factorize(args) -> dict:
    mat = _load_matrix(args.matrix)
    return jsonio.factorization_to_json(potapov_factorize(mat))


def _cmd_verify_factor(args) -> dict:
    w = _load_matrix(args.w)
    phi = Spectrum(_load_matrix(args.phi))
    factor = is_spectral_factor(w, phi)
    minimal = is_stochastically_minimal(w, phi) if factor else None
    return {
        "is_spectral_factor": factor,
        "stochastically_minimal": minimal,
        "factor_degree": w.mcmillan_degree(),
        "spectrum_degree": phi.mcmillan_degree(),
    }


def _cmd_check_uniqueness(args) -> dict:
    w = _load_matrix(args.w)
    w1 = _load_matrix(args.w1)
    region_p = Region.parse(args.region_p)
    region_z = Region.parse(args.region_z)
    result = uniqueness_check(w, w1, region_p, region_z)
    return jsonio.uniqueness_to_json(result)


def _cmd_generate(args) -> dict:
    try:
        r_str, n_str = args.size.split(",")
        size = (int(r_str), int(n_str))
    except ValueError:
        raise ScalarParseError(f"size must be r,n with integers, got {args.size!r}") from None
    region_p = Region.parse(args.region_p)
    region_z = Region.parse(args.region_z)
    spectrum, w = generate_instance(args.seed, size, args.degree, region_p, region_z)
    return {
        "seed": args.seed,
        "size": list(size),
        "degree": args.degree,
        "region_p": region_p.spec_string(),
        "region_z": region_z.spec_string(),
        "w": jsonio.ratmat_to_json(w),
        "phi": jsonio.ratmat_to_json(spectrum.phi),
    }


def _cmd_sweep(args) -> dict:
    report = run_sweep(args.instances, base_seed=args.base_seed)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return {
            "written": args.report,
            "instances": len(report["instances"]),
            "summary": report["summary"],
        }
    return report


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfactor",
        description=(
            "Exact toolkit for rational matrix functions: Smith-McMillan "
            "structure, McMillan degree, Blaschke-Potapov all-pass "
            "factorization, cancellation analysis and spectral factor "
            "uniqueness checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "smform",
        help="Smith-McMillan canonical diagonal (rank and coprime invariant fractions)",
    )
    p.add_argument("matrix", help="rational matrix JSON file")
    p.set_defaults(func=_cmd_smform)

    p = sub.add_parser("degree", help="McMillan degree (total pole degree, infinity included)")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser(
        "polezeros",
        help="pole and zero locations with pointwise degrees (infinity included)",
    )
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_polezeros)

    p = sub.add_parser(
        "analyze",
        help="pole/zero cancellation report for a product G*H at one point",
    )
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--point", required=True, help='probe point, e.g. "-2" or "1/2+1/2*i" or "inf"')
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "allpass-factorize",
        help="Blaschke-Potapov factorization of a para-unitary matrix into degree-one factors",
    )
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_allpass_factorize)

    p = sub.add_parser(
        "verify-factor",
        help="check W* W = Phi exactly and stochastic minimality of the factor",
    )
    p.add_argument("w")
    p.add_argument("phi")
    p.set_defaults(func=_cmd_verify_factor)

    p = sub.add_parser(
        "check-uniqueness",
        help="evaluate the uniqueness hypotheses for two factors and classify the outcome",
    )
    p.add_argument("w")
    p.add_argument("w1")
    p.add_argument("--region-p", required=True, dest="region_p", help="pole region, e.g. outer,flip=3,weak")
    p.add_argument("--region-z", required=True, dest="region_z", help="zero region")
    p.set_defaults(func=_cmd_check_uniqueness)

    p = sub.add_parser(
        "generate",
        help="deterministically synthesize a spectrum with a stochastically minimal factor",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, help="factor shape r,n")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--region-p", required=True, dest="region_p")
    p.add_argument("--region-z", required=True, dest="region_z")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "sweep",
        help="seeded uniqueness sweep across region geometries; deterministic report",
    )
    p.add_argument("--instances", type=_non_negative_int, required=True)
    p.add_argument("--base-seed", type=int, default=20240, dest="base_seed")
    p.add_argument("--report", help="write the full report to this file")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _attach_point_values(argv) -> list[str]:
    """Rewrite ``--point VALUE`` as ``--point=VALUE``.

    argparse takes a separate value that starts with '-' and is not a plain
    number, such as -5/3 or -1/2-1/2*i, for an option flag.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--point":
            value = next(tokens, None)
            out.append(token if value is None else f"--point={value}")
        else:
            out.append(token)
    return out


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_point_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        code = next(code for cls, code in _ERROR_CODES if isinstance(exc, cls))
        error = {"error": {"code": code, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
        return 1
    _emit(payload)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
