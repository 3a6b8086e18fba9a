import json
import subprocess
import sys

from specfactor import jsonio
from specfactor.cli import main

from helpers import M, RF

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


def test_bad_scalar_string(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [[{"num": ["oops"], "den": ["1"]}]]}))
    code = main(["degree", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["code"] == "parse_error"


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
