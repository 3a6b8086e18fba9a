import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from specfactor import Poly, Region, Side, blaschke, generate_instance, jsonio, uniqueness_check
from specfactor.errors import ScalarParseError
from specfactor.cli import _ERROR_CODES, main, run
from specfactor.spectra import _MAX_DEGREE

from helpers import M, RF, pt, random_elementary_product

GOLDEN_G = M([[1, -1]])
GOLDEN_H = M([[RF([3, 2], [2, 3, 1])], [RF([1], [2, 1])]])
W = M([[RF([-2, 1], [-3, 1])]])


def write_matrix(path, mat):
    path.write_text(json.dumps(jsonio.ratmat_to_json(mat)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smform_golden(tmp_path, capsys):
    h_path = write_matrix(tmp_path / "h.json", GOLDEN_H)
    code, out, err = run_cli(capsys, "smform", h_path)
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["rank"] == 1
    assert payload["eps"] == [["1"]]
    assert payload["psi"] == [["2", "3", "1"]]


def test_degree(tmp_path, capsys):
    w_path = write_matrix(tmp_path / "w.json", W)
    code, out, _ = run_cli(capsys, "degree", w_path)
    assert code == 0
    assert json.loads(out)["mcmillan"] == 1


def test_polezeros(tmp_path, capsys):
    w_path = write_matrix(tmp_path / "w.json", W)
    code, out, _ = run_cli(capsys, "polezeros", w_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["poles"] == [{"point": "3", "degree": 1}]
    assert payload["zeros"] == [{"point": "2", "degree": 1}]


def test_polezeros_lists_infinity_for_poles_and_zeros(tmp_path, capsys):
    # diag(z, 1/z): a simple pole and a simple zero at 0 and at infinity
    path = write_matrix(tmp_path / "d.json", M([[RF([0, 1]), 0], [0, RF([1], [0, 1])]]))
    code, out, _ = run_cli(capsys, "polezeros", path)
    assert code == 0
    payload = json.loads(out)
    listing = [{"point": "0", "degree": 1}, {"point": "inf", "degree": 1}]
    assert payload["poles"] == listing
    assert payload["zeros"] == listing


def test_analyze_golden(tmp_path, capsys):
    g_path = write_matrix(tmp_path / "g.json", GOLDEN_G)
    h_path = write_matrix(tmp_path / "h.json", GOLDEN_H)
    code, out, _ = run_cli(capsys, "analyze", g_path, h_path, "--point", "-2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pole_cancellation"] is True
    assert payload["zero_cancellation"] is False
    assert payload["zero_pole_cancellation"] is False
    assert payload["dp_h"] == 1 and payload["dp_gh"] == 0


def test_allpass_factorize_roundtrip(tmp_path, capsys):
    from specfactor import make_elementary
    from helpers import pt

    v = make_elementary(pt(2), [1, 1]) * make_elementary(pt(3), [2, -1])
    v_path = write_matrix(tmp_path / "v.json", v)
    code, out, _ = run_cli(capsys, "allpass-factorize", v_path)
    assert code == 0
    payload = json.loads(out)
    fact = jsonio.factorization_from_json(payload)
    assert fact.product() == v
    assert [f["alpha"] for f in payload["factors"]] == ["2", "3"]


def test_verify_factor(tmp_path, capsys):
    w_path = write_matrix(tmp_path / "w.json", W)
    phi = W.paraconj_transpose() * W
    phi_path = write_matrix(tmp_path / "phi.json", phi)
    code, out, _ = run_cli(capsys, "verify-factor", w_path, phi_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_spectral_factor"] is True
    assert payload["stochastically_minimal"] is True
    assert payload["factor_degree"] == 1
    assert payload["spectrum_degree"] == 2


# a spectrum with poles at +-sqrt 2 and +-1/sqrt 2, and a factor of it
W_IRRATIONAL = M([[RF([1], [-2, 0, 1])]])
PHI_IRRATIONAL = W_IRRATIONAL.paraconj_transpose() * W_IRRATIONAL


@pytest.mark.parametrize("w", [W_IRRATIONAL, W], ids=["factor", "not_a_factor"])
def test_verify_factor_spectrum_outside_gaussian_rationals(tmp_path, capsys, w):
    # the spectrum builds; its degree (or the factor's, for a factor) is
    # where a pole outside Q(i) is found
    w_path = write_matrix(tmp_path / "w.json", w)
    phi_path = write_matrix(tmp_path / "phi.json", PHI_IRRATIONAL)
    code, out, err = run_cli(capsys, "verify-factor", w_path, phi_path)
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "non_gaussian_pole"


def test_verify_factor_double_fault_reports_the_column_count(tmp_path, capsys):
    # W has two columns for a 1 x 1 spectrum with a pole outside Q(i): the
    # dimension check comes before any degree is computed
    w_path = write_matrix(tmp_path / "w.json", M([[1, 0]]))
    phi_path = write_matrix(tmp_path / "phi.json", PHI_IRRATIONAL)
    code, out, err = run_cli(capsys, "verify-factor", w_path, phi_path)
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "dimension_mismatch"


def test_verify_factor_reads_the_spectrum_degree_at_the_factors_poles(tmp_path, capsys):
    # Phi's denominator has roots 3**620, 1 and 3**-620: a root search of
    # it is refused (385641 divisor pairs), while W's poles give deg Phi
    w = M([[RF([1], Poly.linear(3**620) * Poly.linear(1))]])
    w_path = write_matrix(tmp_path / "w.json", w)
    phi_path = write_matrix(tmp_path / "phi.json", w.paraconj_transpose() * w)
    code, out, err = run_cli(capsys, "verify-factor", w_path, phi_path)
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["is_spectral_factor"] is True
    assert payload["stochastically_minimal"] is True
    assert payload["factor_degree"] == 2
    assert payload["spectrum_degree"] == 4


def test_check_uniqueness(tmp_path, capsys):
    w_path = write_matrix(tmp_path / "w.json", W)
    w1_path = write_matrix(tmp_path / "w1.json", -W)
    code, out, _ = run_cli(
        capsys, "check-uniqueness", w_path, w1_path, "--region-p", "inner", "--region-z", "inner"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "UNIQUE"
    assert payload["failed_hypotheses"] == []
    transfer = jsonio.ratmat_from_json(payload["transfer"])
    assert transfer == -M([[1]])


def test_check_uniqueness_names_failed_hypotheses_in_order(tmp_path, capsys):
    # co-spectral factors with extra all-pass poles at 4 and 5: in the
    # outer region both factors and both inverses fail analyticity and both
    # fail minimality, named kind by kind, W before W1
    w = M([[blaschke(pt(4))]]) * W
    w1 = M([[blaschke(pt(5))]]) * W
    failed = ("analyticity_W", "analyticity_W1", "analyticity_W_inverse",
              "analyticity_W1_inverse", "minimality_W", "minimality_W1")
    outer = Region(Side.OUTER)
    assert uniqueness_check(w, w1, outer, outer).failed_hypotheses == failed
    code, out, _ = run_cli(capsys, "check-uniqueness", write_matrix(tmp_path / "w.json", w),
                           write_matrix(tmp_path / "w1.json", w1),
                           "--region-p", "outer", "--region-z", "outer")
    assert code == 0
    assert out == json.dumps({"failed_hypotheses": list(failed), "schema_version": "1",
                              "transfer": None, "verdict": "HYPOTHESIS_FAILED"}, indent=2) + "\n"


def test_generate_and_reverify(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "generate",
        "--seed", "9",
        "--size", "1,2",
        "--degree", "2",
        "--region-p", "outer,flip=3",
        "--region-z", "outer,flip=5",
    )
    assert code == 0
    payload = json.loads(out)
    w = jsonio.ratmat_from_json(payload["w"])
    phi = jsonio.ratmat_from_json(payload["phi"])
    assert w.paraconj_transpose() * w == phi
    code2, out2, _ = run_cli(
        capsys,
        "generate",
        "--seed", "9",
        "--size", "1,2",
        "--degree", "2",
        "--region-p", "outer,flip=3",
        "--region-z", "outer,flip=5",
    )
    assert out == out2


def test_generate_degree_above_the_bound_is_too_large(capsys):
    args = ["generate", "--seed", "1", "--size", "1,2", "--region-p", "outer",
            "--region-z", "outer", "--degree"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args, str(_MAX_DEGREE + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert json.loads(err)["error"]["code"] == "too_large"
    # at the cap itself every draw has a pole/zero collision; 60 attempts
    # take about 0.6 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args, str(_MAX_DEGREE))
    assert time.perf_counter() - start < 30.0
    assert code == 0 or json.loads(err)["error"]["code"] == "generation_failed"


def test_generation_failure_message_is_short_and_reproducible():
    # every draw at the cap collides at dozens of points; the message names
    # a count and the least point, the same under any string-hash seed
    args = [sys.executable, "-m", "specfactor.cli", "generate", "--seed", "1", "--size", "1,2",
            "--region-p", "outer", "--region-z", "outer", "--degree", str(_MAX_DEGREE)]
    messages = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(args, capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 1 and not proc.stdout
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == "generation_failed"
        messages.append(error["message"])
    assert len(messages[0]) < 1000
    assert messages[0] == messages[1]


def test_sweep_deterministic_bytes(tmp_path, capsys):
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    code, out, _ = run_cli(capsys, "sweep", "--instances", "4", "--report", str(report_a))
    assert code == 0
    assert json.loads(out)["summary"]["uniqueness_violated"] == 0
    code, _, _ = run_cli(capsys, "sweep", "--instances", "4", "--report", str(report_b))
    assert code == 0
    assert report_a.read_bytes() == report_b.read_bytes()


def test_sweep_inline_report(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--instances", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["instances"]) == 2


def test_sweep_negative_instances_is_usage_error(capsys):
    assert main(["sweep", "--instances", "-1"]) == 2
    assert "expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert main(["sweep", "--instances", "x"]) == 2
    assert "expected a non-negative integer, got 'x'" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "sweep", "--instances", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == [] and payload["summary"]["unique"] == 0


def test_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["smform"]) == 2
    capsys.readouterr()
    assert main(["analyze", "a.json", "b.json", "--bogus", "1"]) == 2
    capsys.readouterr()


def test_missing_file_is_domain_error(capsys):
    code = main(["degree", "no-such-file.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "io_error"


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["degree", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("command", ["smform", "degree", "check-uniqueness"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, command):
    # the JSON decoder recurses once per level and gives up long before
    # 5,000 levels: the error is a parse_error, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    args = [str(deep)]
    if command == "check-uniqueness":
        args += [str(deep), "--region-p", "inner", "--region-z", "inner"]
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == "parse_error"


def test_bad_scalar_string(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [[{"num": ["oops"], "den": ["1"]}]]}))
    code = main(["degree", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "parse_error"


def test_decimal_and_exponent_scalars_are_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("1.5", "1e5", "1e-5", "1_000"):
        bad.write_text(json.dumps({"entries": [[{"num": [text], "den": ["1"]}]]}))
        code = main(["degree", str(bad)])
        captured = capsys.readouterr()
        assert code == 1, text
        assert json.loads(captured.err)["error"]["code"] == "parse_error", text
    # a JSON number is read through the same grammar
    bad.write_text(json.dumps({"entries": [[{"num": [1.5], "den": [1]}]]}))
    code = main(["degree", str(bad)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse_error"


def test_dimension_mismatch_error_code(tmp_path, capsys):
    g_path = write_matrix(tmp_path / "g.json", GOLDEN_G)
    code = main(["analyze", g_path, g_path, "--point", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "dimension_mismatch"


def test_non_gaussian_pole_error_code(tmp_path, capsys):
    bad = M([[RF([1], [-2, 0, 1])]])
    path = write_matrix(tmp_path / "irr.json", bad)
    code = main(["degree", path])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "non_gaussian_pole"


def test_too_large_error_code(tmp_path, capsys):
    # the pole polynomial z**2 - n has no root in Q(i); proving that needs
    # the Z[i] divisors of n, a product of two 13-digit primes
    n = 1000000000039 * 3000000000013
    path = write_matrix(tmp_path / "big.json", M([[RF([1], [-n, 0, 1])]]))
    code = main(["degree", path])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err)["error"]["code"] == "too_large"


def test_too_many_divisor_candidates_is_too_large(tmp_path, capsys):
    # z**2 + 10**300: 54,451,201 divisor pairs would be tried, more than
    # fit in memory, so the search refuses before listing them
    path = write_matrix(tmp_path / "big.json", M([[RF([1], [10**300, 0, 1])]]))
    code = main(["degree", path])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert json.loads(captured.err)["error"]["code"] == "too_large"


def test_not_paraunitary_error(tmp_path, capsys):
    path = write_matrix(tmp_path / "w.json", W)
    code = main(["allpass-factorize", path])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "domain_error"


def test_console_entry_smoke(tmp_path):
    w_path = write_matrix(tmp_path / "w.json", W)
    proc = subprocess.run(
        [sys.executable, "-m", "specfactor.cli", "degree", w_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mcmillan"] == 1


def test_matrix_json_roundtrip():
    payload = jsonio.ratmat_to_json(GOLDEN_H)
    assert jsonio.ratmat_from_json(payload) == GOLDEN_H


def test_outputs_reparse_through_schemas(tmp_path, capsys):
    h_path = write_matrix(tmp_path / "h.json", GOLDEN_H)
    _, out, _ = run_cli(capsys, "smform", h_path)
    payload = json.loads(out)
    eps = [jsonio.poly_from_json(p) for p in payload["eps"]]
    psi = [jsonio.poly_from_json(p) for p in payload["psi"]]
    sm = GOLDEN_H.sm_structure()
    assert tuple(eps) == sm.eps and tuple(psi) == sm.psi
    _, out, _ = run_cli(
        capsys, "generate", "--seed", "4", "--size", "1,1", "--degree", "1",
        "--region-p", "outer", "--region-z", "outer",
    )
    payload = json.loads(out)
    w = jsonio.ratmat_from_json(payload["w"])
    assert jsonio.ratmat_from_json(json.loads(json.dumps(jsonio.ratmat_to_json(w)))) == w


def test_analyze_negative_point_spellings(tmp_path, capsys):
    g_path = write_matrix(tmp_path / "g.json", GOLDEN_G)
    h_path = write_matrix(tmp_path / "h.json", GOLDEN_H)
    for point in ("-5/3", "-1/2-1/2*i"):
        code_eq, out_eq, _ = run_cli(capsys, "analyze", g_path, h_path, f"--point={point}")
        code_sp, out_sp, err_sp = run_cli(capsys, "analyze", g_path, h_path, "--point", point)
        assert code_eq == 0 and code_sp == 0 and not err_sp
        assert out_sp == out_eq
        assert json.loads(out_sp)["point"] == point
    assert main(["analyze", g_path, h_path, "--point"]) == 2
    capsys.readouterr()


def _declared_shape_error(tmp_path, capsys, **declared):
    payload = {**jsonio.ratmat_to_json(GOLDEN_G), **declared}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    code = main(["degree", str(path)])
    captured = capsys.readouterr()
    return code, captured


def test_declared_shape_must_be_json_integer(tmp_path, capsys):
    for declared in ({"rows": "abc"}, {"rows": 1.7}, {"rows": 1.0}, {"cols": True}, {"rows": "1"}):
        code, captured = _declared_shape_error(tmp_path, capsys, **declared)
        assert code == 1, declared
        assert json.loads(captured.err)["error"]["code"] == "parse_error", declared
    code, captured = _declared_shape_error(tmp_path, capsys, rows=2)
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "parse_error"
    code, captured = _declared_shape_error(tmp_path, capsys, rows=1, cols=2)
    assert code == 0 and json.loads(captured.out)["mcmillan"] == 0


def test_malformed_grid_is_parse_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    one = {"num": ["1"], "den": ["1"]}
    for rows in ([5], [None], ["x"], [[]], [[one], [one, one]]):
        path.write_text(json.dumps({"entries": rows}))
        code, out, err = run_cli(capsys, "smform", str(path))
        assert code == 1 and not out, rows
        assert json.loads(err)["error"]["code"] == "parse_error", rows


def test_malformed_factors_are_parse_errors():
    constant = jsonio.ratmat_to_json(M([[1]]))
    for factors in ([{}], 5, ["x"], [{"alpha": "2", "v": 5}]):
        with pytest.raises(ScalarParseError):
            jsonio.factorization_from_json({"constant": constant, "factors": factors})
    with pytest.raises(ScalarParseError):
        jsonio.factorization_from_json({"factors": []})
    for poly in ("1", {"0": "1"}, 1):
        with pytest.raises(ScalarParseError):
            jsonio.poly_from_json(poly)


def test_generate_size_must_be_two_integers(capsys):
    for size in ("1,x", "2", "1,2,3"):
        code, out, err = run_cli(capsys, "generate", "--seed", "1", "--size", size,
                                 "--degree", "1", "--region-p", "outer", "--region-z", "outer")
        assert code == 1 and not out
        assert json.loads(err)["error"]["code"] == "parse_error", size


def _levels(doc) -> int:
    """Containers on the deepest path, the top one included."""
    if isinstance(doc, list):
        return 1 + max(map(_levels, doc), default=0)
    if isinstance(doc, dict):
        return 1 + max(map(_levels, doc.values()), default=0)
    return 0


# small JSON documents: every list has at most 3 items, containers nest at
# most four levels below the top one, and scalars come from a pool of valid
# and invalid spellings; most documents have the shape of a matrix
_VALID_SCALARS = ["0", "1", "-2", "1/2", "i", "1-i", 0, 1, -1]
_BAD_SCALARS = ["3/0", "inf", "x", "", "1.5", 2.5, None, True]
_json_scalars = st.sampled_from(_VALID_SCALARS + _BAD_SCALARS)
# mostly valid coefficients, so that some matrices parse and get computed
_json_coeffs = st.sampled_from(_VALID_SCALARS * 6 + _BAD_SCALARS)
_json_keys = st.sampled_from(["entries", "num", "den", "rows", "cols"])
_json_any = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_json_keys, inner, max_size=3),
    ),
    max_leaves=12,
)
_json_polys = st.lists(_json_coeffs, max_size=3)
_json_dens = st.lists(_json_coeffs, min_size=1, max_size=3)
_json_rows = st.lists(st.fixed_dictionaries({"num": _json_polys, "den": _json_dens}),
                      min_size=1, max_size=3)
_json_matrices = st.fixed_dictionaries(
    {"entries": st.lists(_json_rows, min_size=1, max_size=3)},
    optional={"rows": _json_scalars, "cols": _json_scalars},
)
# a matrix whose rows may be anything at all
_json_broken = st.fixed_dictionaries(
    {"entries": st.lists(st.one_of(_json_scalars, _json_rows, _json_any), min_size=1,
                         max_size=3)})
_json_docs = st.one_of(_json_any, _json_matrices, _json_broken).filter(
    lambda doc: _levels(doc) <= 5)


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1)
    if code == 1:
        error = json.loads(err.getvalue())["error"]
        assert set(error) == {"code", "message"}


@settings(max_examples=300, deadline=None)
@given(_json_docs, st.sampled_from(["smform", "degree", "polezeros", "allpass-factorize"]))
def test_fuzzed_matrix_files_exit_cleanly(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(doc))
    _exits_cleanly([command, str(path)])


_fuzz_points = st.sampled_from(["0", "2", "-1/2", "1+i", "i", "inf", "1", "x", "1/0", ""])
_fuzz_regions = st.sampled_from(["outer", "inner,weak", "outer,flip=2;1/3", "inner,flip=inf",
                                 "sideways", "outer,flip=1"])
_fuzz_commands = st.one_of(
    st.tuples(st.just("analyze"), _fuzz_points.map(lambda p: [f"--point={p}"])),
    st.tuples(st.just("verify-factor"), st.just([])),
    st.tuples(st.just("check-uniqueness"), st.tuples(_fuzz_regions, _fuzz_regions).map(
        lambda r: ["--region-p", r[0], "--region-z", r[1]])),
)


@settings(max_examples=200, deadline=None)
@given(_json_docs, _json_docs, _fuzz_commands)
def test_fuzzed_matrix_pairs_exit_cleanly(tmp_path_factory, first, second, command):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, doc in (("a.json", first), ("b.json", second)):
        (folder / name).write_text(json.dumps(doc))
        paths.append(str(folder / name))
    name, options = command
    _exits_cleanly([name, *paths, *options])


# the ten malformed matrix files that must each get an error code: a number
# for entries, a wrong cols, an empty grid, a top-level list, null, a zero
# and an empty den, "1/0", "1e99999" and entries nested one level too deep
_ONE = {"num": ["1"], "den": ["1"]}
_MALFORMED_MATRICES = [
    {"entries": 5},
    {"rows": 1, "cols": 3, "entries": [[_ONE, _ONE]]},
    {"entries": []},
    [[_ONE]],
    None,
    {"entries": [[{"num": ["1"], "den": ["0"]}]]},
    {"entries": [[{"num": ["1"], "den": []}]]},
    {"entries": [[{"num": ["1/0"], "den": ["1"]}]]},
    {"entries": [[{"num": ["1e99999"], "den": ["1"]}]]},
    {"entries": [[[_ONE]]]},
]
# denominators with Gaussian roots, one repeated, and z^2 + 2 with none
_CONTRACT_DENS = [[1], [-2, 1], [1, 1], [-1, 0, 1], [4, -4, 1], [1, 0, 1], [2, 0, 1]]
_contract_entries = st.builds(
    lambda num, den: RF(num, den),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    st.sampled_from(_CONTRACT_DENS),
)
_contract_matrices = st.integers(1, 2).flatmap(lambda rows: st.integers(1, 2).flatmap(
    lambda cols: st.lists(st.lists(_contract_entries, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))).map(
    lambda grid: jsonio.ratmat_to_json(M(grid)))
_contract_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8,
)
# half the documents and points are valid, so that analyze computes too
_contract_docs = st.one_of(_contract_matrices, _contract_matrices,
                           st.sampled_from(_MALFORMED_MATRICES), _contract_json)
_valid_points = st.sampled_from(["0", "2", "-1", "-5/3", "1/2+1/2*i", "-1/2-1/2*i", "i",
                                 "inf", "INF"])
_contract_points = st.one_of(_valid_points, _valid_points,
                             st.sampled_from(["x", "1/0", "", "--point", "-", "1e9"]),
                             st.text(max_size=8))
_ERROR_CODE_NAMES = {code for _, code in _ERROR_CODES}


def _keeps_the_exit_contract(argv):
    # exit 0 with one JSON document on stdout, 1 with one JSON error object
    # on stderr and nothing on stdout, or 2 for usage; never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not err.getvalue()
        assert json.loads(out.getvalue())["schema_version"] == jsonio.SCHEMA_VERSION
    if code == 1:
        assert not out.getvalue()
        payload = json.loads(err.getvalue())
        assert list(payload) == ["error"] and set(payload["error"]) == {"code", "message"}
        assert payload["error"]["code"] in _ERROR_CODE_NAMES


def _write_docs(tmp_path_factory, docs):
    folder = tmp_path_factory.mktemp("contract")
    paths = []
    for index, doc in enumerate(docs):
        (folder / f"m{index}.json").write_text(json.dumps(doc))
        paths.append(str(folder / f"m{index}.json"))
    return paths


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["smform", "degree", "polezeros", "analyze"]), _contract_docs,
       _contract_docs, _contract_points)
def test_matrix_subcommands_keep_the_exit_contract(tmp_path_factory, command, first, second,
                                                   point):
    paths = _write_docs(tmp_path_factory, [first, second])
    argv = [command, paths[0]]
    if command == "analyze":
        argv += [paths[1], "--point", point]
    _keeps_the_exit_contract(argv)


def _allpass_doc(seed, r, k, perturb):
    """A para-unitary product, or the same with a pole added to one entry."""
    grid = [list(row) for row in random_elementary_product(random.Random(seed), r, k)[0].entries]
    if perturb:
        grid[0][0] = grid[0][0] + RF([1], [-2, 1])
    return jsonio.ratmat_to_json(M(grid))


_allpass_docs = st.builds(_allpass_doc, st.integers(0, 2**16), st.integers(1, 2),
                          st.integers(0, 3), st.booleans())
_instances = st.builds(
    lambda seed, size, degree: generate_instance(seed, size, degree, Region(Side.OUTER),
                                                 Region(Side.OUTER)),
    st.integers(0, 2**16), st.sampled_from([(1, 1), (1, 2), (2, 2)]), st.integers(0, 2))
# regions from the grammar outer|inner[,flip=p1;p2,...][,weak], and broken ones
_grammar_regions = st.builds(
    lambda side, flips, weak: ",".join(
        [side] + ([f"flip={';'.join(flips)}"] if flips else []) + (["weak"] if weak else [])),
    st.sampled_from(["outer", "inner", "OUTER"]),
    st.lists(st.sampled_from(["3", "1/2+1/2*i", "inf", "-2", "0"]), max_size=2),
    st.booleans())
_contract_regions = st.one_of(_grammar_regions, st.sampled_from(
    ["outer,flip=3;1/2+1/2*i", "inner,weak", "flip=", "sideways", "outer,flip=1", ""]))
# each valid size twice, each malformed one once
_contract_sizes = st.sampled_from(["1,2", "2,3", "1,1"] * 2 + ["1", "a,b", "1,2,3", "0,1", ""])
_contract_degrees = st.sampled_from([0, 1, 2, 4, -1, _MAX_DEGREE + 1])


def _mostly(valid):
    # three in four documents valid (one_of does not weigh repeated branches)
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda keep: valid if keep else _contract_docs)


@st.composite
def _remaining_commands(draw):
    """(subcommand, matrix documents, options) for the other five."""
    command = draw(st.sampled_from(
        ["allpass-factorize", "verify-factor", "check-uniqueness", "generate", "sweep"]))
    if command == "allpass-factorize":
        return command, [draw(_mostly(_allpass_docs))], []
    if command in ("verify-factor", "check-uniqueness"):
        spectrum, w = draw(_instances)
        factors = [jsonio.ratmat_to_json(x) for x in (w, -w, w * 2)]
        first = draw(_mostly(st.just(factors[0])))
        if command == "verify-factor":
            phi = jsonio.ratmat_to_json(spectrum.phi)
            second = draw(_mostly(st.sampled_from([phi, phi, *factors])))
            return command, [first, second], []
        second = draw(_mostly(st.sampled_from(factors)))
        regions = ["--region-p", draw(_contract_regions), "--region-z", draw(_contract_regions)]
        return command, [first, second], regions
    if command == "generate":
        return command, [], [
            "--seed", str(draw(st.integers(0, 2**16))), "--size", draw(_contract_sizes),
            "--degree", str(draw(_contract_degrees)),
            "--region-p", draw(_contract_regions), "--region-z", draw(_contract_regions)]
    return command, [], ["--instances", str(draw(st.integers(0, 2)))]


@settings(max_examples=150, deadline=None)
@given(_remaining_commands())
def test_other_subcommands_keep_the_exit_contract(tmp_path_factory, case):
    command, docs, options = case
    _keeps_the_exit_contract([command, *_write_docs(tmp_path_factory, docs), *options])
