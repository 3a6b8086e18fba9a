"""Import cost and declared dependencies of the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specfactor"


def test_cli_import_loads_no_numpy_or_sympy():
    # numpy is loaded on first use (root guesses, the advisory circle check),
    # so a command that never needs it starts without it
    script = (
        "import sys\n"
        "import specfactor.cli\n"
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n"
        "from specfactor import Poly, gaussian_roots\n"
        "gaussian_roots(Poly.linear(2) * Poly.linear(-3))\n"
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out == ["[]", "['numpy']"]


def _imported_packages() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


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
    bounds = {path.name: _memo_bounds(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(found) for found in bounds.values()) >= 8
    bad = {name: {line: bound for line, bound in found.items() if type(bound) is not int}
           for name, found in bounds.items()}
    assert {name: found for name, found in bad.items() if found} == {}
