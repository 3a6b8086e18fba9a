"""Span and counter recorders wrapped around the library's layer boundaries.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
each named entry point for a wrapper at run time, in every ``specfactor``
module namespace that holds it, so calls made through re-exported names
are seen too.  A span keeps its layer name, start, end and parent; spans
stay in memory (compact arrays) until ``raw`` folds them into per-layer
totals.  Hot scalar methods get a call counter instead of a span, because
timing 10^5..10^6 tiny calls would distort what is measured.

A name that no longer exists (after a rename, say) is listed as missing and
the metrics derived from it are reported absent; installing never fails.
"""

from __future__ import annotations

import sys
import time
from array import array

# (layer, owner, attribute or attribute suffix, kind).  The owner is a module
# path, or module path plus ":Class" for methods.  Kind "span" times the call,
# "count" only counts it, "span*" wraps every module function whose name ends
# with the suffix.
BOUNDARIES = (
    ("scalars.mul", "specfactor.scalars:GaussianRational", "__mul__", "count"),
    ("scalars.mul", "specfactor.scalars:GaussianRational", "__rmul__", "count"),
    ("scalars.add", "specfactor.scalars:GaussianRational", "__add__", "count"),
    ("scalars.add", "specfactor.scalars:GaussianRational", "__radd__", "count"),
    ("gaussint.factor", "specfactor.gaussint", "gi_factor", "span"),
    ("poly.mul", "specfactor.poly:Poly", "__mul__", "span"),
    ("poly.mul", "specfactor.poly:Poly", "__rmul__", "span"),
    ("poly.divmod", "specfactor.poly:Poly", "__divmod__", "span"),
    ("poly.gcd", "specfactor.poly", "poly_gcd", "span"),
    ("poly.roots", "specfactor.poly", "gaussian_roots", "span"),
    ("ratfun.new", "specfactor.ratfun:RatFun", "__init__", "span"),
    ("ratmat.mul", "specfactor.ratmat:RatMat", "__mul__", "span"),
    ("ratmat.sm", "specfactor.ratmat", "_sm_of", "span"),
    ("ratmat.pointdeg", "specfactor.ratmat", "point_degrees_by_valuation", "span"),
    ("ratmat.minrinv", "specfactor.ratmat:RatMat", "minimal_right_inverse", "span"),
    ("linsolve.solve", "specfactor.linsolve", "solve_linear", "span"),
    ("allpass.factorize", "specfactor.allpass", "potapov_factorize", "span"),
    ("allpass.candidate", "specfactor.allpass:ElementaryFactor", "matrix", "span"),
    ("cancellation.analyze", "specfactor.cancellation", "analyze_product", "span"),
    ("spectra.generate", "specfactor.spectra", "generate_instance", "span"),
    ("spectra.uniqueness", "specfactor.spectra", "uniqueness_check", "span"),
    ("jsonio.parse", "specfactor.jsonio", "_from_json", "span*"),
    ("jsonio.emit", "specfactor.jsonio", "_to_json", "span*"),
)

# memo caches whose hit ratio is reported: metric prefix -> (module, function)
CACHES = {
    "poly.roots": ("specfactor.poly", "gaussian_roots"),
    "ratmat.sm": ("specfactor.ratmat", "_sm_of"),
    "ratmat.rank": ("specfactor.ratmat", "_normal_rank"),
    "ratmat.cleared": ("specfactor.ratmat", "_cleared_cached"),
}

# spans counted only when an enclosing span of the given layer is open:
# key -> (inner layer, outer layer)
NESTED = {
    "allpass.candidates": ("allpass.candidate", "allpass.factorize"),
    "cancellation.products": ("ratmat.mul", "cancellation.analyze"),
}

# per-layer metrics derived from the raw totals, in report order
SPAN_CALLS = ("gaussint.factor", "poly.mul", "poly.divmod", "poly.gcd", "poly.roots",
              "ratfun.new", "ratmat.mul", "ratmat.sm", "ratmat.pointdeg", "ratmat.minrinv",
              "linsolve.solve", "cancellation.analyze")
SPAN_SELF = SPAN_CALLS + ("allpass.factorize", "spectra.generate", "spectra.uniqueness",
                          "jsonio.parse", "jsonio.emit")


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not cls_name:
        return module
    return getattr(module, cls_name, None)


def library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "specfactor" or name.startswith("specfactor."))]


def library_caches() -> dict[str, object]:
    """Every memoised function in the library, by qualified name."""
    found = {}
    for module in library_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                found[f"{module.__name__}.{attr}"] = value
    return found


class Tracer:
    """Records spans and counts for the boundaries in ``BOUNDARIES``."""

    def __init__(self):
        self.active = False
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.factors_returned = 0
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._caches = {}

    def _span_wrapper(self, layer: str, fn):
        lid = self._layer_ids.setdefault(layer, len(self.layers))
        if lid == len(self.layers):
            self.layers.append(layer)
        clock = time.perf_counter
        stack = self._stack
        tracer = self
        counts_factors = layer == "allpass.factorize"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.layer.append(lid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if counts_factors:
                tracer.factors_returned += len(result.factors)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        counts = self.counts
        counts.setdefault(layer, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapped):
        original = vars(owner)[attr]
        if isinstance(owner, type):
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # a module function: rebind it wherever the library re-exports it
        for module in library_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, name, original))
                    setattr(module, name, wrapped)

    def install(self):
        """Wrap every boundary that exists; record the ones that do not."""
        for key, (module_name, fn_name) in CACHES.items():
            fn = getattr(sys.modules.get(module_name), fn_name, None)
            if hasattr(fn, "cache_info"):
                self._caches[key] = fn
        for layer, owner_path, attr, kind in BOUNDARIES:
            owner = _resolve_owner(owner_path)
            members = vars(owner) if owner is not None else {}
            if kind == "span*":
                names = [n for n, v in members.items() if n.endswith(attr) and callable(v)]
            else:
                names = [attr] if attr in members else []
            wrapper_for = self._count_wrapper if kind == "count" else self._span_wrapper
            for name in names:
                self._patch(owner, name, wrapper_for(layer, members[name]))
            if not names:
                self.missing.append(f"{owner_path}.{attr}")
                print(f"perfbench: trace boundary {owner_path}.{attr} not found; "
                      f"metrics of {layer} reported absent", file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def raw(self) -> dict:
        """Totals per layer: calls, self time, nested counts and cache use.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap because the run has one
        thread.  Totals of several processes add up (see ``merge``).
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict(self.counts)
        self_s: dict[str, float] = {}
        for layer in self.layers:
            calls.setdefault(layer, 0)
            self_s.setdefault(layer, 0.0)
        for i in range(n):
            layer = self.layers[self.layer[i]]
            calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
        nested = {}
        for key, (inner, outer) in NESTED.items():
            inner_id = self._layer_ids.get(inner)
            outer_id = self._layer_ids.get(outer)
            if inner_id is None or outer_id is None:
                continue
            inside = [False] * n
            total = 0
            for i in range(n):
                p = self.parent[i]
                inside[i] = p >= 0 and (self.layer[p] == outer_id or inside[p])
                if inside[i] and self.layer[i] == inner_id:
                    total += 1
            nested[key] = total
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        return {
            "calls": calls,
            "self_s": self_s,
            "nested": nested,
            "caches": caches,
            "factors_returned": self.factors_returned,
            "missing": list(self.missing),
        }


def merge(raws: list[dict]) -> dict:
    """Sum raw totals from several traced processes."""
    out = {"calls": {}, "self_s": {}, "nested": {}, "caches": {}, "factors_returned": 0,
           "missing": []}
    for raw in raws:
        for group in ("calls", "self_s", "nested"):
            for key, value in raw[group].items():
                out[group][key] = out[group].get(key, 0) + value
        for key, (hits, misses) in raw["caches"].items():
            h, m = out["caches"].get(key, (0, 0))
            out["caches"][key] = [h + hits, m + misses]
        out["factors_returned"] += raw["factors_returned"]
        out["missing"] = sorted(set(out["missing"]) | set(raw["missing"]))
    return out


def _ratio(num, den) -> float:
    """A ratio whose base is zero reads 0; the base is reported beside it."""
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from raw totals; absent ones omitted."""
    calls, self_s = raw["calls"], raw["self_s"]
    out: dict[str, tuple[float, str]] = {}
    for layer in ("scalars.mul", "scalars.add"):
        if layer in calls:
            out[f"{layer}.calls"] = (calls[layer], "count")
    for layer in SPAN_SELF:
        if layer not in calls:
            continue
        if layer in SPAN_CALLS:
            out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    for key in ("poly.roots", "ratmat.sm", "ratmat.rank", "ratmat.cleared"):
        if key in raw["caches"]:
            hits, misses = raw["caches"][key]
            out[f"{key}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    if "allpass.candidates" in raw["nested"] and "allpass.factorize" in calls:
        candidates = raw["nested"]["allpass.candidates"]
        out["allpass.peel.candidates"] = (candidates, "count")
        out["allpass.peel.accept_ratio"] = (_ratio(raw["factors_returned"], candidates), "ratio")
    if "cancellation.products" in raw["nested"]:
        out["cancellation.products_per_analyze"] = (
            _ratio(raw["nested"]["cancellation.products"], calls["cancellation.analyze"]),
            "ratio",
        )
    return out


def ratio_bases(raw: dict) -> dict[str, str]:
    """The numerator and base of each ratio metric, for the printed report."""
    bases = {}
    for key, (hits, misses) in raw["caches"].items():
        bases[f"{key}.cache_hit_ratio"] = f"{hits} hits of {hits + misses} calls"
    if "allpass.candidates" in raw["nested"]:
        bases["allpass.peel.accept_ratio"] = (
            f"{raw['factors_returned']} factors of {raw['nested']['allpass.candidates']} candidates")
    if "cancellation.products" in raw["nested"]:
        bases["cancellation.products_per_analyze"] = (
            f"{raw['nested']['cancellation.products']} products in "
            f"{raw['calls'].get('cancellation.analyze', 0)} calls")
    return bases
