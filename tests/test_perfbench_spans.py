"""The traced benchmark run (perfbench/spans.py) wraps netsheaf's functions by
module and attribute path and reads the partitions caches' counters.  A name
it cannot resolve drops that per-layer metric from the run without an error,
so every name it lists must exist here.  The module is loaded by path only;
its install() rebinds functions process-wide and is never called."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
