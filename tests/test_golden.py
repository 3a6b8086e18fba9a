"""Byte-identity of CLI output against committed golden copies.

``tests/golden/`` holds the stdout of each command below (and the stderr of
the error case) and one ``sweep --report`` file.  A change of internal
representation must reproduce every one of them byte for byte.  The inputs
in ``tests/golden/inputs/`` mix rational and complex-rational coefficients
so that canonical forms and scalar formatting are both exercised.

To regenerate after a deliberate output change, run from the repo root::

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from specfactor.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (name, argv with input file names relative to tests/golden/inputs, exit code)
CASES = [
    ("smform_h", ["smform", "h.json"], 0),
    ("smform_m", ["smform", "m.json"], 0),
    ("degree_m", ["degree", "m.json"], 0),
    ("degree_v", ["degree", "v.json"], 0),
    ("polezeros_w", ["polezeros", "w.json"], 0),
    ("polezeros_m", ["polezeros", "m.json"], 1),
    ("analyze_gh", ["analyze", "g.json", "h.json", "--point=-2"], 0),
    ("analyze_mn_real", ["analyze", "m.json", "n.json", "--point=-5/3"], 0),
    ("analyze_mn_complex", ["analyze", "m.json", "n.json", "--point=1/2-1/2*i"], 0),
    ("allpass_factorize_v", ["allpass-factorize", "v.json"], 0),
    ("verify_factor_w", ["verify-factor", "w.json", "phi.json"], 0),
    ("check_uniqueness_w1", ["check-uniqueness", "w.json", "w1.json",
                             "--region-p", "outer,flip=3", "--region-z", "outer,flip=-5/2"], 0),
    ("check_uniqueness_w2", ["check-uniqueness", "w.json", "w2.json",
                             "--region-p", "outer,flip=3", "--region-z", "outer,flip=-5/2"], 0),
    ("generate_9", ["generate", "--seed", "9", "--size", "1,2", "--degree", "2",
                    "--region-p", "outer,flip=3", "--region-z", "outer,flip=5"], 0),
]
SWEEP_INSTANCES = 12
SWEEP_REPORT = GOLDEN / "sweep_12.json"


def _argv(args):
    return [str(INPUTS / a) if a.endswith(".json") else a for a in args]


def _run(capsys, args):
    code = main(_argv(args))
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize("name,args,exit_code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden(name, args, exit_code, capsys):
    code, out, err = _run(capsys, args)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    if exit_code:
        assert err == (GOLDEN / f"{name}.err").read_bytes()
    else:
        assert not err


def test_sweep_report_matches_golden(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["sweep", "--instances", str(SWEEP_INSTANCES), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    assert report.read_bytes() == SWEEP_REPORT.read_bytes()


def _regenerate() -> None:
    import contextlib
    import io

    for name, args, exit_code in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(args))
        if code != exit_code:
            raise SystemExit(f"{name}: exit {code}, expected {exit_code}")
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
        if exit_code:
            (GOLDEN / f"{name}.err").write_text(err.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        main(["sweep", "--instances", str(SWEEP_INSTANCES), "--report", str(SWEEP_REPORT)])


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
