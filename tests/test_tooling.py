"""Names that files outside the package read must stay in step with the code.

The benchmark's tracer wraps package functions by (module, attribute) name: a
name it wraps that the package no longer has would break `perfbench/run.py
--trace 1` only when someone traces, so the whole table is pinned, and so
are its describe hooks, which read the results of the calls they wrap. The
README's `solver` key table must list exactly the fields `SolverConfig`
takes, with their defaults, and its `lab` table exactly the suites and the
keys each declares, so that neither can advertise an option the code drops.
Likewise the key list of `gen`, `learn`, `sweep` and `hessian`/`marginals`
must be exactly the key table that the command checks its config against.
Its `learn` and `sweep` sections must name every key of `result.json`, the
columns of `trace.csv` in order and every column of `sweep.csv`, so that a
renamed output field cannot drift from its documentation.  Its memory examples must quote
the matrix counts that `hessian` and `learn` check, so that a changed count
cannot leave them behind.
"""

import dataclasses
import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

import pytest

from gibbslearn.cli import (
    DUMP_KEYS,
    GEN_KEYS,
    LEARN_KEYS,
    SWEEP_HEADER,
    SWEEP_KEYS,
    TRACE_HEADER,
    _learn_matrices,
    main,
)
from gibbslearn.lab import SUITES
from gibbslearn.lattice import LATTICE_KEYS, basis_stack
from gibbslearn.measure import build_plan
from gibbslearn.qbp import _hessian_core, hessian_matrices
from gibbslearn.solver import SOLVER_KEYS, SolverConfig, solve

from conftest import chain_basis

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    assert tracer.WRAPPED
    missing = [
        (module, attr)
        for module, attr, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_describe_hook_reads_a_real_result():
    # the hooks read return values (a table's bytes, a plan's groups, a
    # trace's rows, a basis's size), so each runs on a real call's result
    tracer = _load_tracer()
    basis = chain_basis(3)
    e_hat = np.full(basis.m, 0.1)
    calls = {
        "lattice.stack": (basis_stack, (basis,)),
        "measure.plan": (build_plan, (basis, "grouped", 1000)),
        "solver.solve": (solve, (e_hat, 1.0, basis)),
        "qbp.hessian": (_hessian_core, (basis, np.zeros(basis.m), 1.0)),
    }
    assert set(calls) == set(tracer.DESCRIBE)
    for label, (fn, args) in calls.items():
        info = tracer.DESCRIBE[label](args, fn(*args))
        assert info and all(type(value) is int for value in info.values()), label


def _readme_table(anchor: str, header: str) -> list[list[str]]:
    """Cells, backticks stripped, of the first table after `anchor` whose header starts so."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index(anchor) :].splitlines()
    start = next(i for i, line in enumerate(after) if line.startswith(header))
    rows = []
    for line in after[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.split("|")[1:-1]])
    return rows


def test_readme_solver_table_lists_the_config_fields():
    rows = _readme_table("`solver` (an object with any of", "| key |")
    # each field with its default; the default start, lambda0 = None, is the origin
    stated = {key: None if default == "zeros" else float(default) for key, default, *_ in rows}
    assert stated == {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert stated == {key: default for key, (_, default) in SOLVER_KEYS.items()}


def test_readme_lab_table_lists_each_suite_with_its_keys():
    rows = _readme_table("### lab", "| suite | key |")
    listed = {}
    for suite, key, *_ in rows:
        listed.setdefault(suite, []).append(key)
    assert listed == {name: list(suite.keys) for name, suite in SUITES.items()}


def _readme_section(heading: str) -> str:
    """The prose of the README section `### heading`, code blocks removed."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n### {heading}\n")
    return re.sub(r"```.*?```", "", text[start : text.find("\n#", start + 1)], flags=re.S)


def _readme_section_names(heading: str) -> set[str]:
    """The backticked names in the prose of the README section `### heading`."""
    return set(re.findall(r"`([^`]+)`", _readme_section(heading)))


@pytest.mark.parametrize(
    "heading, label, table",
    [
        ("gen", "Keys", GEN_KEYS),
        ("gen", "`lattice` keys", LATTICE_KEYS),
        ("learn", "Keys", LEARN_KEYS),
        ("sweep", "Keys", SWEEP_KEYS),
        ("hessian, marginals", "Keys", DUMP_KEYS),
    ],
)
def test_readme_lists_each_command_keys(heading, label, table):
    listed = re.findall(rf"^{label}: (.*)\.$", _readme_section(heading), flags=re.M)
    assert len(listed) == 1
    assert re.findall(r"`([^`]+)`", listed[0]) == list(table)


def test_readme_names_every_result_key_of_learn(tmp_path):
    gen = tmp_path / "gen.json"
    lattice = {"dimension": 1, "side_lengths": [2]}
    gen.write_text(json.dumps({"lattice": lattice, "kappa": 1, "beta": 1.0}))
    assert main(["gen", "--config", str(gen), "--out", str(tmp_path)]) == 0
    learn = tmp_path / "learn.json"
    learn.write_text(json.dumps({"model": str(tmp_path / "model.json"), "N": 100, "beta": 1.0}))
    assert main(["learn", "--config", str(learn), "--out", str(tmp_path)]) == 0
    keys = json.loads((tmp_path / "result.json").read_text())
    assert sorted(set(keys) - _readme_section_names("learn")) == []


def test_readme_lists_the_trace_columns_in_order():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.findall(r"`trace\.csv` \(one row per [^:]*: ([^)]*)\)", text)
    assert len(listed) == 1
    assert tuple(re.findall(r"`([^`]+)`", listed[0])) == TRACE_HEADER


def test_readme_names_every_sweep_column():
    assert sorted(set(SWEEP_HEADER) - _readme_section_names("sweep")) == []


def test_readme_memory_examples_quote_the_counts():
    text = " ".join((ROOT / "README.md").read_text().split())
    hessians = re.findall(r"(\d+) matrices at n = (\d+), (\d+) at n = (\d+) and n = (\d+)", text)
    assert len(hessians) == 1
    nine, ten, seven, eleven, twelve = map(int, hessians[0])
    quoted = [(nine, ten), (seven, eleven), (seven, twelve)]
    assert quoted == [(hessian_matrices(chain_basis(n).m, n), n) for n in (10, 11, 12)]

    refusal = re.findall(
        r"`learn` on an open n = (\d+) chain stops with error: memory budget exceeded: "
        r"(\d+) x 4\^(\d+)",
        text,
    )
    assert len(refusal) == 1
    n, count, exponent = map(int, refusal[0])
    assert (count, exponent) == (_learn_matrices(chain_basis(n)), n)
