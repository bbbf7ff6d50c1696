"""The benchmark's tracer wraps package functions by (module, attribute) name.

A name it wraps that the package no longer has would break `perfbench/run.py
--trace 1` only when someone traces; this pins the whole table instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
