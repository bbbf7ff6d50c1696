"""Names that files outside the package read must stay in step with the code.

The benchmark's tracer wraps package functions by (module, attribute) name: a
name it wraps that the package no longer has would break `perfbench/run.py
--trace 1` only when someone traces, so the whole table is pinned. The
README's `solver` key table must list exactly the fields `SolverConfig`
takes, so that it cannot advertise an option the code drops.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from gibbslearn.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_readme_solver_table_lists_the_config_fields():
    text = (ROOT / "README.md").read_text()
    after = text[text.index("`solver` (an object with any of") :].splitlines()
    start = next(i for i, line in enumerate(after) if line.startswith("| key |"))
    rows = []
    for line in after[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip().strip("`"))
    assert sorted(rows) == sorted(f.name for f in dataclasses.fields(SolverConfig))
