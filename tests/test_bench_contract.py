"""The benchmark's per-layer trace finds every library name it names.

``perfbench/spans.py`` refers to library functions, methods and memo caches
by string, and a name it cannot find only blanks the matching per-layer
metrics.  These tests load the benchmark modules unchanged, so a rename
under ``src/`` that breaks the trace fails here instead.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import specfactor.jsonio  # noqa: F401  (its functions are trace boundaries)
from specfactor import INFINITY, GaussianRational, RatMat, cancellation, ratmat, spectra

from helpers import M, RF, random_full_rank_pair

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


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in a worker result")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("workload", ["sweep", "peel", "cancel", "cli"])
def test_traced_worker_reports_every_per_layer_metric(workload, spans, tmp_path):
    # in a fresh interpreter, as the benchmark runs it, so the tracer is
    # installed with only the worker's own imports loaded: the last line is
    # a strict JSON result with no missing name, no warm memo, no failed
    # sample and every per-layer metric the benchmark declares (cli's import
    # timings and the trace overhead come from the runner, not the worker)
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PERFBENCH_SRC=src)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), workload, "1", "2", "traced",
         str(tmp_path)], env=env, cwd=PERFBENCH.parent, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = _strict_json(proc.stdout.strip().splitlines()[-1])
    assert out["trace"]["missing"] == []
    assert out["errors"] == 0 and all(ok for _, ok, _ in out["samples"])
    assert not any((out["cold_caches"] or {}).values())
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer"]
                if not m["name"].startswith("cli.") and m["name"] != "trace.overhead_ratio"}
    assert set(spans.layer_metrics(out["trace"])) == expected


def test_every_reported_cache_is_memoised(spans):
    for key, (module_name, fn_name) in spans.CACHES.items():
        fn = getattr(sys.modules.get(module_name), fn_name, None)
        assert hasattr(fn, "cache_info"), f"{key}: {module_name}.{fn_name}"


@pytest.mark.parametrize("g, solves", [
    (M([[RF([1, 1]), RF([2], [3, 1]), 1]]), 1),
    # the particular solution fails here, so the correction is solved too
    (M([[RF([0, -1]), 0, 0], [0, RF([-2, 1]), -1]]), 2),
    # square, one finite zero at z = 1: its only inverse is the adjugate
    # over the determinant, so nothing is solved
    (M([[RF([-1, 1]), RF([1], [2, 1])], [0, 1]]), 0),
], ids=["g0", "g1", "g2"])
def test_minimal_inverse_solves_through_the_traced_name(g, solves, monkeypatch):
    # the linsolve.solve span wraps ratmat's binding of solve_linear, and
    # the system is built and solved in Gaussian integers; a square input
    # builds none
    ratmat._minimal_right_inverse.cache_clear()  # a memo hit would skip the solve
    calls = []
    solve = ratmat.solve_linear

    def spy_solve(a, b):
        calls.append(len(a))
        return solve(a, b)

    def no_scalar_mul(self, other):
        raise AssertionError("GaussianRational.__mul__ called in the minimal inverse")

    monkeypatch.setattr(ratmat, "solve_linear", spy_solve)
    monkeypatch.setattr(GaussianRational, "__mul__", no_scalar_mul)
    x = g.minimal_right_inverse()
    monkeypatch.undo()
    assert len(calls) == solves
    assert g * x == RatMat.identity(g.rows)


def test_building_elementary_products_leaves_every_memo_cold(spans):
    # the workload inputs are products of make_elementary matrices, and a
    # worker checks that every library memo is still empty afterwards
    from specfactor import Point, make_elementary

    caches = spans.library_caches()
    for fn in caches.values():
        fn.cache_clear()
    v = (make_elementary(Point(2), [1, GaussianRational(0, 1), 0])
         * make_elementary(INFINITY, [1, 1, 1])
         * make_elementary(Point(GaussianRational(1, 1)), [0, 2, -1]))
    assert v.rows == 3
    assert {name: fn.cache_info().currsize for name, fn in caches.items()
            if fn.cache_info().currsize} == {}


def _product_needed(pair_g, pair_h):
    """Whether no factor rule gives G H's pair at a point, for a pair of
    full inner rank: neither factor is free of structure there, and a zero
    of one factor may meet a pole of the other."""
    (dz_g, dp_g), (dz_h, dp_h) = pair_g, pair_h
    return not (pair_g == (0, 0) or pair_h == (0, 0)
                or dz_g == dz_h == 0 or dp_g == dp_h == 0)


def test_analyze_product_expands_each_matrix_once_per_point(monkeypatch):
    # the cancel workload reads both degrees of G and H at every support
    # point, one (zero, pole) pair per matrix and point with no pole-only
    # query expanding the same point a second time, and G H's pair only
    # where the factors' pairs do not give it (here only at infinity, where
    # G's pole meets H's zero)
    g, h = random_full_rank_pair(random.Random(25), max_side=3)
    product = g * h
    assert g.normal_rank() == g.cols == h.rows == h.normal_rank()
    # a full-rank pair's support reads the factors only: no Smith-McMillan
    # form of G H, and G H is first formed by the first analysis
    cancellation._product.cache_clear()
    forms = []
    sm_of = ratmat._sm_of

    def spy_sm(mat):
        forms.append(mat)
        return sm_of(mat)

    monkeypatch.setattr(ratmat, "_sm_of", spy_sm)
    points = cancellation.support_points(g, h)
    monkeypatch.undo()
    assert forms and product not in forms
    assert cancellation._product.cache_info().currsize == 0
    needed = [point for point in points
              if _product_needed(ratmat.point_degrees_by_valuation(g, point),
                                 ratmat.point_degrees_by_valuation(h, point))]
    assert needed == [INFINITY]
    ratmat.point_degrees_by_valuation.cache_clear()
    ratmat._integer_form.cache_clear()
    asked = []
    expansions = []
    pair = cancellation.point_degrees_by_valuation
    expand = ratmat.point_expansions

    def spy_pair(mat, point):
        asked.append((mat, point))
        return pair(mat, point)

    def spy_expand(mat, point, terms):
        expansions.append((mat, point))
        return expand(mat, point, terms)

    def no_pole_only(mat, point):
        raise AssertionError("pole-only query in analyze_product")

    monkeypatch.setattr(cancellation, "point_degrees_by_valuation", spy_pair)
    monkeypatch.setattr(ratmat, "point_expansions", spy_expand)
    monkeypatch.setattr(ratmat, "_pole_degree", no_pole_only)
    for k, point in enumerate(points):
        cancellation.analyze_product(g, h, point)
        if k == 0:
            assert cancellation._product.cache_info().currsize == 1
    monkeypatch.undo()
    assert asked == [(mat, point) for point in points
                     for mat in ((g, h, product) if point in needed else (g, h))]
    # each distinct (matrix, point) is expanded once, and each matrix's
    # integer form is built once across all its points
    assert len(expansions) == len(set(expansions)) and set(expansions) == set(asked)
    assert ratmat._integer_form.cache_info().misses == len({g, h, product})


def _sweep_case_calls(seed, size, degree, q_index, monkeypatch):
    """The two uniqueness checks of one sweep instance on weak_flipped,
    against W1 = q W and then W's perturbation, with the solves after each
    check and the matrices inverted by both."""
    geo = spectra.default_geometries()[3]
    region_p, region_z = geo["region_p"], geo["region_z"]
    _, w = spectra.generate_instance(seed, size, degree, region_p, region_z)
    q = spectra._ORTHOGONAL_POOLS[size[0]][q_index]
    w1 = q * w
    perturbed = spectra.perturb_with_allpass(w, [geo["allpass_pole"]])
    ratmat._minimal_right_inverse.cache_clear()
    solved = []
    inverted = []
    solve = ratmat.solve_linear
    invert = ratmat._minimal_right_inverse

    def spy_solve(a, b):
        solved.append(len(a))
        return solve(a, b)

    def spy_invert(mat):
        inverted.append(mat)
        return invert(mat)

    monkeypatch.setattr(ratmat, "solve_linear", spy_solve)
    monkeypatch.setattr(ratmat, "_minimal_right_inverse", spy_invert)
    res = spectra.uniqueness_check(w, w1, region_p, region_z)
    assert (res.verdict, res.transfer) == (spectra.Verdict.UNIQUE, q)
    solves = [len(solved)]
    res = spectra.uniqueness_check(w, perturbed, region_p, region_z)
    monkeypatch.undo()
    assert res.verdict is spectra.Verdict.HYPOTHESIS_FAILED
    solves.append(len(solved))
    return solves, (w1 in inverted, perturbed in inverted)


def test_orthogonal_multiple_solves_only_the_factors_system(monkeypatch):
    # sweep instance 20251 (weak_flipped, 2x2, degree 1) draws the rotation
    # pool[4]: its case reads q W's hypotheses off W, so q W is never
    # inverted, while the perturbation is; being square, neither solves
    solves, inverted = _sweep_case_calls(20251, (2, 2), 1, 4, monkeypatch)
    assert solves == [0, 0] and inverted == (False, True)
    # sweep instance 20243 (weak_flipped, 2x3, degree 3) solves W's system
    # only, then the perturbation's, so the traced sweep's linsolve.solve
    # and ratmat.sm counts drop by what q W would add
    solves, inverted = _sweep_case_calls(20243, (2, 3), 3, 3, monkeypatch)
    assert solves == [1, 2] and inverted == (False, True)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_failed_minimal_inverse_is_solved_once_per_factor(sign, monkeypatch):
    # [z, 1/z] has no minimal right inverse: the transfer's attempt stands
    # for W's inverse check, so W and W1 cost one failed solve each, and
    # W1 == W takes W's answer with no second solve
    w = M([[RF([0, 1]), RF([1], [0, 1])]])
    region = spectra.Region(spectra.Side.INNER)
    ratmat._minimal_right_inverse.cache_clear()
    solved = []
    solve = ratmat.solve_linear

    def spy_solve(a, b):
        solved.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(ratmat, "solve_linear", spy_solve)
    res = spectra.uniqueness_check(w, w * sign, region, region)
    monkeypatch.undo()
    assert "analyticity_W_inverse" in res.failed_hypotheses
    assert len(solved) == (1 if sign == 1 else 2)


def test_sweep_forms_no_smith_mcmillan_form_of_an_inverse(monkeypatch):
    # run_sweep(120, base_seed=1010000) solves 120 wide factors' systems,
    # none in the minimal-inverse lemma's open case, so the only
    # Smith-McMillan forms computed are those of the inverted factors
    ratmat._sm_of.cache_clear()
    ratmat._minimal_right_inverse.cache_clear()
    formed, inverted, solved = [], [], []
    sm_of, invert, solve = ratmat._sm_of, ratmat._minimal_right_inverse, ratmat.solve_linear

    def spy_sm(mat):
        formed.append(mat)
        return sm_of(mat)

    def spy_invert(mat):
        inverted.append(mat)
        return invert(mat)

    def spy_solve(a, b):
        solved.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(ratmat, "_sm_of", spy_sm)
    monkeypatch.setattr(ratmat, "_minimal_right_inverse", spy_invert)
    monkeypatch.setattr(ratmat, "solve_linear", spy_solve)
    spectra.run_sweep(120, base_seed=1010000)
    monkeypatch.undo()
    assert sm_of.cache_info().misses == 120
    assert len(solved) == 120
    assert set(formed) <= set(inverted)
