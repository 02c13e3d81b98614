"""The benchmark's traced runs wrap package functions by module and name
(``bench/spans.py::TRACED``).  A rename or removal would silently zero that
layer's per-layer metrics, so every traced name must resolve here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # loads TRACED; Tracer.install is never called
    assert spans.TRACED
    missing = [
        f"{module}.{name}" for module, name in spans.TRACED
        if not callable(getattr(importlib.import_module(f"relaygap.{module}"), name, None))
    ]
    assert missing == []
