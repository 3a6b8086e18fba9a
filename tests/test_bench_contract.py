"""The benchmark's per-layer trace finds every library name it names.

``perfbench/spans.py`` refers to library functions, methods and memo caches
by string, and a name it cannot find only blanks the matching per-layer
metrics.  These tests load the benchmark modules unchanged, so a rename
under ``src/`` that breaks the trace fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import specfactor.jsonio  # noqa: F401  (its functions are trace boundaries)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    _load("inputs")  # the workload inputs import the package as the worker does
    return _load("spans")


def test_every_trace_boundary_resolves(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_every_reported_cache_is_memoised(spans):
    for key, (module_name, fn_name) in spans.CACHES.items():
        fn = getattr(sys.modules.get(module_name), fn_name, None)
        assert hasattr(fn, "cache_info"), f"{key}: {module_name}.{fn_name}"
