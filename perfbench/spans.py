"""Span recording around netsheaf's public functions, for the traced run.

``install()`` rebinds the functions listed in ``SPANNED`` (and the counting
hooks in ``COUNTED``) wherever netsheaf's modules hold them, so every call
made through a module attribute, including a ``from .x import f`` binding,
passes through the wrapper.  It is only called inside a case process; the
program's files are never touched.  Spans (name, start, end, parent) stay
in memory and are summarised once the command has returned.

The pairwise partition operations (``common_refinement``, ``overlap_join``,
``is_coarser``) and the ``scalars`` arithmetic are not wrapped: they run
millions of times per command, so a span each would cost more than the
work.  Their time stays in the self time of the calling layer, and the
partition side's work shows as ``lru_cache`` misses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute path, span name): the span name's first dotted part is
# the layer.  Times are reported as the total over outermost calls.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("documents", "parse_input_document", "documents.parse"),
    ("partitions", "coarsenings", "partitions.coarsenings"),
    ("contexts", "enumerate_contexts", "contexts.enumerate"),
    ("contexts", "FinitePoset._validate", "contexts.validate"),
    ("contexts", "FinitePoset.covers", "contexts.covers"),
    ("contexts", "MonotoneMap.__init__", "contexts.monotone_map"),
    ("contexts", "left_adjoint", "contexts.left_adjoint"),
    ("contexts", "thickening_report", "contexts.thickening"),
    ("descent", "descent_map", "descent.descent_map"),
    ("descent", "sheaf_report", "descent.sheaf_report"),
    ("descent", "FiberedContextProduct.__init__", "descent.fibered_product"),
    ("descent", "ring_component", "descent.ring_components"),
    ("descent", "covering_stability", "descent.covering_stability"),
    ("independence", "hierarchy_report", "independence.hierarchy"),
    ("independence", "strong_locality", "independence.strong_locality"),
    ("independence", "unit_law", "independence.unit_law"),
    ("valuations", "valuation_independence_test", "valuations.independence_test"),
    ("valuations", "product_extension", "valuations.product_extension"),
    ("net", "validate_net", "net.validate"),
    ("net", "analyze_net", "net.analyze"),
    ("staralg", "generated_star_algebra", "staralg.generate"),
    ("staralg", "StarAlgebra.verify", "staralg.verify"),
    ("staralg", "intersection_algebra", "staralg.intersection"),
    ("staralg", "multiplication_kernel_dim", "staralg.kernel_dim"),
    ("staralg", "commuting_witness", "staralg.commuting_witness"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "Span.reduce", "linalg.reduce"),
)

# Spans that only attribute self time to their layer; every other span name
# is reported as the per-layer metric `<name>_s`.
UNREPORTED = ("cli.main", "descent.descent_map", "descent.sheaf_report", "net.analyze")

# Span names whose number of calls is reported, under the count name given.
CALL_COUNTED = {
    "partitions.coarsenings": "partitions.coarsenings.calls",
    "linalg.rref": "linalg.rref.calls",
    "valuations.product_extension": "valuations.product_extensions",
}

# Calls that an lru_cached partitions function receives while a span runs
# (cache hits plus misses, read outside the span's clock), reported under
# the count name given.  Inside `covering_stability` each `is_coarser` call
# is one (E, C, D) triple tested, so the count follows the loop the program
# actually runs.
CALLS_DURING = {
    "descent.covering_stability": ("is_coarser", "descent.stability_triples"),
}

# Hooks that only keep a reference to their arguments or result; the
# counts are taken from those after the command has returned.
COUNTED = (
    ("contexts", "ContextPoset.__init__", "contexts.poset"),
)

# Span names whose arguments and result the counts below need.
KEPT = ("descent.fibered_product", "net.analyze", "staralg.generate", "linalg.rref")

LRU_CACHED = ("common_refinement", "overlap_join", "is_coarser", "coarsenings")

LAYERS = (
    "cli", "documents", "partitions", "contexts", "descent",
    "independence", "valuations", "net", "staralg", "linalg",
)


class Recorder:
    """Spans and call records of one command, kept in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.originals: dict[str, Callable] = {}
        self.spans: list[Optional[tuple]] = []  # (name, start, end, parent)
        self.stack: list[int] = []
        self.records: dict[str, list] = defaultdict(list)
        self.during: dict[str, int] = {}
        self.missing: list[str] = []

    # -- wrappers ----------------------------------------------------------------

    def spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, records = self.spans, self.stack, self.records[name]
        keep = name in KEPT
        clock = time.perf_counter
        probe = self._cache_calls(name)
        count_name = CALLS_DURING[name][1] if probe else None
        during = self.during

        def wrapper(*args, **kwargs):
            before = probe() if probe else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if keep:
                records.append((args, result))
            if probe:
                during[count_name] += probe() - before
            return result

        return self._dress(wrapper, fn)

    def _cache_calls(self, name: str) -> Optional[Callable[[], int]]:
        """A reader of the calls an lru_cached function has had, for the
        span `name` in CALLS_DURING; None when there is nothing to read."""
        if name not in CALLS_DURING:
            return None
        cached, count_name = CALLS_DURING[name]
        fn = getattr(self.modules.get("partitions"), cached, None)
        if not hasattr(fn, "cache_info"):
            self.missing.append(count_name)
            return None
        self.during[count_name] = 0

        def calls() -> int:
            info = fn.cache_info()
            return info.hits + info.misses

        return calls

    def counted(self, name: str, fn: Callable) -> Callable:
        records = self.records[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            records.append((args, result))
            return result

        return self._dress(wrapper, fn)

    @staticmethod
    def _dress(wrapper: Callable, fn: Callable) -> Callable:
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- installation ------------------------------------------------------------

    def rebind(self, module: str, path: str, name: str, make: Callable):
        owner = self.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = None if owner is None else owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(name)
            return
        self.originals[name] = fn
        wrapped = make(name, fn)
        if outer:
            setattr(owner, attr, wrapped)
            return
        # A module-level function is also bound, by `from .x import f`, in
        # every module that imports it: rebind each of those names.
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    # -- summary -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals, per-layer self times and the counts."""
        spans = self.spans
        totals: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            duration = end - start
            self_time[name.split(".")[0]] += duration - child_time[i]
            if not self._nested_in_same(i):
                totals[name] += duration
        return {
            "totals": dict(totals),
            "calls": dict(calls),
            "self": self_time,
            "counts": self.counts(),
            "missing": self.missing,
            "raw": [list(span) for span in spans],
        }

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def counts(self) -> dict:
        """Counts taken after the command, outside every timed span.  A count
        whose source is gone (an unwrapped name, a removed cache) is left out."""
        rec, out = self.records, dict(self.during)
        if "contexts.poset" in self.originals:
            posets = [poset for (poset, *_), _ in rec["contexts.poset"]]
            out["contexts.posets_built"] = len(posets)
            out["contexts.elements"] = sum(len(p.up) for p in posets)
            out["contexts.comparable_pairs"] = sum(
                bin(mask).count("1") for p in posets for mask in p.up
            )
        if "descent.fibered_product" in self.originals:
            products = [prod for (prod, *_), _ in rec["descent.fibered_product"]]
            out["descent.fibered_scan"] = sum(
                len(p.left_poset) * len(p.right_poset) for p in products
            )
            out["descent.fibered_elements"] = sum(len(p) for p in products)
        if "net.analyze" in self.originals:
            out["net.pairs"] = sum(len(report.pairs) for _, report in rec["net.analyze"])
        if "staralg.generate" in self.originals:
            out["staralg.generated_dim"] = sum(
                algebra.dim for _, algebra in rec["staralg.generate"]
            )
        if "linalg.rref" in self.originals:
            out["linalg.rref.cells"] = sum(
                len(rows) * (len(rows[0]) if rows else 0)
                for (rows, *_), _ in rec["linalg.rref"]
            )
        partitions = self.modules["partitions"]
        cached = [getattr(partitions, name, None) for name in LRU_CACHED]
        infos = [fn.cache_info() for fn in cached if hasattr(fn, "cache_info")]
        if infos:
            out["partitions.cache_entries"] = sum(info.currsize for info in infos)
        for name in ("common_refinement", "overlap_join"):
            fn = getattr(partitions, name, None)
            if hasattr(fn, "cache_info"):
                out[f"partitions.{name}.misses"] = fn.cache_info().misses
        return out


def install() -> Recorder:
    """Wrap netsheaf's public functions in this process; return the recorder."""
    modules = {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("netsheaf.") and mod is not None
    }
    recorder = Recorder(modules)
    for module, path, name in SPANNED:
        recorder.rebind(module, path, name, recorder.spanned)
    for module, path, name in COUNTED:
        recorder.rebind(module, path, name, recorder.counted)
    return recorder
