"""The traced benchmark run (perfbench/spans.py) wraps netsheaf's functions by
module and attribute path and reads the partitions caches' counters.  A name
it cannot resolve drops that per-layer metric from the run without an error,
so every name it lists must exist here.  The module is loaded by path only;
its install() rebinds functions process-wide and is never called."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from netsheaf import AlgebraPair, ContextPoset, fibered_context_product
from netsheaf.documents import parse_input_document
from netsheaf.linalg import flatten, rref
from netsheaf.net import analyze_net
from netsheaf.staralg import generated_star_algebra

from conftest import FIXTURES

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _ in spans.SPANNED + spans.COUNTED]
)
def test_every_wrapped_name_resolves(module, path):
    # the lookup Recorder.rebind makes: attributes along the path, then the
    # owner's own __dict__, so an inherited or missing name does not count
    owner = importlib.import_module(f"netsheaf.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    assert owner is not None and owner.__dict__.get(attr) is not None


def test_every_counted_cache_has_cache_info():
    partitions = importlib.import_module("netsheaf.partitions")
    cached = set(spans.LRU_CACHED) | {name for name, _ in spans.CALLS_DURING.values()}
    for name in sorted(cached):
        assert hasattr(getattr(partitions, name, None), "cache_info"), name


def test_counts_read_every_kept_record(square_pair):
    # counts() on records of real objects, shaped as the wrappers keep them
    # ((arguments...), result), without install(): an attribute that counts()
    # reads and the program renamed fails here, not in the traced run
    recorder = spans.Recorder(
        {layer: importlib.import_module(f"netsheaf.{layer}") for layer in spans.LAYERS}
    )
    a, b = square_pair
    poset = ContextPoset(a)
    product = fibered_context_product(AlgebraPair(a, b))
    doc = parse_input_document(json.loads((FIXTURES / "square_pair.json").read_text()))
    net = analyze_net(doc.net)
    algebra = generated_star_algebra(2, [[[1, 0], [0, -1]]])
    rows = tuple(flatten(m) for m in algebra.basis)
    records = {
        "contexts.poset": ((poset, a), None),
        "descent.fibered_product": (
            (product, product.left_poset, product.right_poset, product.meet), None
        ),
        "net.analyze": ((doc.net,), net),
        "staralg.generate": ((2, [[[1, 0], [0, -1]]]), algebra),
        "linalg.rref": ((rows,), rref(rows)),
    }
    for name, record in records.items():
        recorder.originals[name] = None  # counts() reads only which names were rebound
        recorder.records[name].append(record)
    counts = recorder.counts()
    assert counts["contexts.posets_built"] == 1
    assert counts["contexts.elements"] == len(poset) == 2
    assert counts["contexts.comparable_pairs"] == 3
    assert counts["descent.fibered_scan"] == 2 * 2
    assert counts["descent.fibered_elements"] == len(product) == 4
    assert counts["net.pairs"] == len(net.pairs) > 0
    assert counts["staralg.generated_dim"] == algebra.dim == 2
    assert counts["linalg.rref.cells"] == 2 * 4
    for name in ("cache_entries", "common_refinement.misses", "overlap_join.misses"):
        assert f"partitions.{name}" in counts
