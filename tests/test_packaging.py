"""Import cost and declared dependencies of the package."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN, INPUTS, SWEEP_INSTANCES, SWEEP_REPORT, _argv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specfactor"
MODULES = ("__init__", "allpass", "cancellation", "cli", "errors", "gaussint", "jsonio",
           "linsolve", "poly", "ratfun", "ratmat", "scalars", "spectra")


def _modules() -> dict[str, ast.Module]:
    """The parsed source of every package module, by file name; the package
    must be found whole, so no check below can pass on an empty glob."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert sorted(path.stem for path in paths) == sorted(MODULES), PACKAGE
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _run_python(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_cli_import_loads_no_numpy_or_sympy():
    # root guesses and the advisory circle check are computed in-house, so
    # neither is loaded at import or by the floating-point steps
    loaded = "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n"
    script = (
        "import sys\n"
        "import specfactor.cli\n"
        + loaded
        + "from specfactor import Poly, RatMat, gaussian_roots, psd_on_circle\n"
        "gaussian_roots(Poly.linear(2) * Poly.linear(-3))\n"
        + loaded
        + "psd_on_circle(RatMat([[1]]))\n"
        + loaded
    )
    assert _run_python(script).splitlines() == ["[]", "[]", "[]"]


def test_golden_cases_and_circle_check_run_with_numpy_blocked(tmp_path):
    # sys.modules[name] = None makes every import of that name fail
    script = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from specfactor import Spectrum, jsonio, psd_on_circle
from specfactor.cli import main
cases, phi_path = json.loads(sys.argv[1])
results = {}
for name, argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[name] = [code, out.getvalue(), err.getvalue()]
with open(phi_path, encoding="utf-8") as fh:
    report = psd_on_circle(Spectrum(jsonio.ratmat_from_json(json.load(fh))))
results["psd"] = [report.ok, report.evaluated]
print(json.dumps(results))
"""
    report = tmp_path / "sweep.json"
    cases = [(name, _argv(args)) for name, args, _ in CASES]
    cases.append(("sweep", ["sweep", "--instances", str(SWEEP_INSTANCES), "--report", str(report)]))
    results = json.loads(_run_python(script, json.dumps([cases, str(INPUTS / "phi.json")])))
    for name, _, exit_code in CASES:
        code, out, err = results[name]
        assert code == exit_code, name
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes(), name
        assert err.encode() == ((GOLDEN / f"{name}.err").read_bytes() if exit_code else b""), name
    assert results["sweep"][0] == 0
    assert report.read_bytes() == SWEEP_REPORT.read_bytes()
    assert results["psd"] == [True, 64]


def _imported_packages() -> set[str]:
    names = set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "specfactor"}


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # a requirement string starts with the distribution name, which for
    # every dependency here is also its import name
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in declared}
    assert _imported_packages() == names


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_every_import_is_used():
    # pyflakes is not installed; this is its unused-import check alone
    unused = {name: _unused_imports(tree) for name, tree in _modules().items()}
    assert {name: found for name, found in unused.items() if found} == {}


def _references(node: ast.AST) -> Counter:
    """Every name read as a bare name or as an attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _private_helpers(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module's private functions and its classes' private methods."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [item for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs.append(node)
    return [d for d in defs if d.name.startswith("_") and not d.name.endswith("__")]


def test_every_private_helper_is_referenced():
    # the dead-code half of what pyflakes would add: a private function or
    # method that nothing in the package names, itself aside, is left over
    modules = _modules()
    everywhere = sum((_references(tree) for tree in modules.values()), Counter())
    dead = [f"{name}: {d.name} (line {d.lineno})" for name, tree in modules.items()
            for d in _private_helpers(tree) if not (everywhere - _references(d))[d.name]]
    assert dead == []


def _private_imports(tree: ast.Module) -> list[str]:
    """Every ``_name`` a module imports from another module of the package."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "specfactor")
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_name():
    # a name one module shares with another is part of its interface and
    # is spelled without the leading underscore
    found = {name: _private_imports(tree) for name, tree in _modules().items()}
    assert {name: names for name, names in found.items() if names} == {}


def _foreign_private_reads(tree: ast.Module) -> list[str]:
    """Every ``x._name`` whose name the module does not define itself by a
    def, an attribute store or ``__slots__``."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            own.update(ast.literal_eval(node.value))
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.endswith("__") and node.attr not in own]


def test_no_module_reads_another_modules_private_attribute():
    # what one module calls on another's objects is public: a private
    # method or attribute is used only in the module that defines it
    found = {name: _foreign_private_reads(tree) for name, tree in _modules().items()}
    assert {name: names for name, names in found.items() if names} == {}


def _part_reads(tree: ast.Module) -> list[str]:
    """Every ``.re`` or ``.im`` attribute read in a module, by line."""
    return [f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("re", "im")]


def test_only_scalars_reads_rational_parts():
    # a Gaussian rational's layout is scalars.py's alone: every other module
    # reads its integers through ``parts``, not through the Fractions
    # ``re`` and ``im``, so no module converts between the two layouts
    reads = {name: _part_reads(tree) for name, tree in _modules().items()
             if name != "scalars.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def _multiply_accumulates(tree: ast.Module) -> list[str]:
    """Every augmented assignment into a subscript whose value multiplies,
    the shape of a coefficient-list product's inner loop, by line."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
            and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                    for n in ast.walk(node.value))]


def test_only_poly_multiplies_coefficient_lists():
    # one kernel, ``poly.mul_into``, forms every product of Gaussian-integer
    # coefficient lists, so no other module writes a multiply-accumulate loop
    found = {name: _multiply_accumulates(tree) for name, tree in _modules().items()
             if name != "poly.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_allpass_layer_names_no_poly():
    # the all-pass layer's one representation is the Gaussian-integer
    # coefficient list: allpass.py neither imports nor names Poly
    tree = _modules()["allpass.py"]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "Poly" not in names


def test_allpass_reads_no_stored_form():
    # a matrix's integer state is ratmat's alone (``integer_form`` builds it,
    # ``RatMat.from_integer_form`` inverts it), so allpass.py reads no
    # ``den``, ``num`` or ``parts`` of a matrix or polynomial
    reads = [f"{node.attr} (line {node.lineno})" for node in ast.walk(_modules()["allpass.py"])
             if isinstance(node, ast.Attribute) and node.attr in ("den", "num", "parts")]
    assert reads == []


def _memo_bounds(tree: ast.Module) -> dict[str, object]:
    """The bound of every memo a module declares, by line: the integer
    maxsize, or the source text where there is no integer literal."""
    def name_of(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name_of(node.func) == "lru_cache":
            args = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            bound = args[0] if args else None
            value = bound.value if isinstance(bound, ast.Constant) else None
            found[f"line {node.lineno}"] = (
                value if type(value) is int else ast.unparse(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if name_of(dec) in ("lru_cache", "cache"):  # bare: 128 or unbounded
                    found[f"line {dec.lineno}"] = f"@{ast.unparse(dec)}"
    return found


def test_every_memo_has_an_integer_bound():
    # a long sweep must not grow memory without limit, so no memo is
    # unbounded (maxsize=None, functools.cache) or bounded implicitly
    bounds = {name: _memo_bounds(tree) for name, tree in _modules().items()}
    assert sum(len(found) for found in bounds.values()) >= 8
    bad = {name: {line: bound for line, bound in found.items() if type(bound) is not int}
           for name, found in bounds.items()}
    assert {name: found for name, found in bad.items() if found} == {}


def test_every_public_oracle_is_used_by_a_test():
    # an oracle no test calls checks nothing; private helpers start with _
    tests = Path(__file__).resolve().parent
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    public = {node.name for node in oracles.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(public - used) == []
