"""The benchmark's tracer wraps gbcd functions by name: every name it lists
must still resolve, or each traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_name_resolves_to_a_gbcd_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for name in spans.SPANS:
        mod_name, fn_name = name.rsplit(".", 1)
        module = importlib.import_module(f"gbcd.{mod_name}")
        assert callable(getattr(module, fn_name, None)), name
