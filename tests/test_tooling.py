"""Names that files outside the package read must stay in step with the code.

The benchmark's tracer wraps package functions by (module, attribute) name: a
name it wraps that the package no longer has would break `perfbench/run.py
--trace 1` only when someone traces, so the whole table is pinned, and so
are its describe hooks, which read the results of the calls they wrap.  A
traced learn must record a span for every stage, which it does only while
each stage is called through a module the tracer scans. The
README's `solver` key table must list exactly the fields `SolverConfig`
takes, with their defaults, and its `lab` table exactly the suites and the
keys each declares, so that neither can advertise an option the code drops.
Likewise the key list of `gen`, `learn`, `sweep` and `hessian`/`marginals`
must be exactly the key table that the command checks its config against,
and every beta key of those tables and of the lab suites refuses a beta whose
square overflows.
Its `learn` and `sweep` sections must name every key of `result.json`, the
columns of `trace.csv` in order and every column of `sweep.csv`, so that a
renamed output field cannot drift from its documentation.  Its memory examples must quote
the matrix counts that `hessian` and `learn` check, so that a changed count
cannot leave them behind.  Its library tour must run and import exactly the
package root's names.  And each eigensolver the package calls has one
call site: `eigh` in `gibbs.diagonalize`, and `eigvalsh` in
`qbp.min_eigenvalue` on the m x m Hessian, so that a change of
eigensolver has one place to go and no module diagonalizes on its own.
Eigensystems are built only by `gibbs.spectrum`, the solver's points, the
`hessian` and `marginals` entry points and the lab's suites, never by a lab
check or the Hessian kernel, which read the one their caller holds.  The
memory budget is checked only by the stages that allocate dense matrices and
where a peak is checked before an eigensystem is built for a Hessian, in
`qbp.hessian_logZ`, `solver.solve`, `solver.alpha_along_segment`,
`solver.learn` and `solver.sweep`, so that a count is written once, where
it is allocated.  The pipeline's steps
are called from `solver.learn` and `solver.sweep`, never from `cli.py`,
which holds only wiring and no memory count.  Each module's `__all__` lists
exactly the public functions and classes it defines, so that neither a
removed name nor a new one leaves it stale.  Every JSON file a command
writes parses as strict JSON, with no NaN or Infinity, so that any reader can
load it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import gibbslearn
from gibbslearn.cli import (
    DUMP_KEYS,
    GEN_KEYS,
    LEARN_KEYS,
    SWEEP_KEYS,
    main,
)
from gibbslearn.gibbs import diagonalize
from gibbslearn.lab import SUITES
from gibbslearn.lattice import LATTICE_KEYS, basis_stack
from gibbslearn.measure import build_plan
from gibbslearn.qbp import _hessian_core, hessian_matrices
from gibbslearn.solver import SOLVER_KEYS, SWEEP_HEADER, SolverConfig, SolverTrace, solve

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
    spectral = diagonalize(basis_stack(basis).combine(e_hat))
    calls = {
        "lattice.stack": (basis_stack, (basis,)),
        "measure.plan": (build_plan, (basis, "grouped", 1000)),
        "solver.solve": (solve, (e_hat, 1.0, basis)),
        "qbp.hessian": (_hessian_core, (basis, spectral, 1.0)),
    }
    assert set(calls) == set(tracer.DESCRIBE)
    for label, (fn, args) in calls.items():
        info = tracer.DESCRIBE[label](args, fn(*args))
        assert info and all(type(value) is int for value in info.values()), label


def test_a_traced_learn_records_every_stage(tmp_path):
    # the tracer swaps the names of the modules it scans, so a stage called
    # through a name it misses would vanish from the trace and read 0
    gen = tmp_path / "gen.json"
    lattice = {"dimension": 1, "side_lengths": [4]}
    gen.write_text(json.dumps({"lattice": lattice, "kappa": 2, "beta": 1.0}))
    assert main(["gen", "--config", str(gen), "--out", str(tmp_path)]) == 0
    learn = tmp_path / "learn.json"
    learn.write_text(json.dumps({"model": str(tmp_path / "model.json"), "N": 10_000, "beta": 1.0}))
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(TRACER), str(spans), "--", "learn", "--config", str(learn)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [*argv, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    labels = {span[0] for span in json.loads(spans.read_text())}
    stages = {
        "cli.main",
        "cli.io",
        "lattice.assemble",
        "gibbs.diagonalize",
        "gibbs.weights",
        "gibbs.marginals",
        "measure.plan",
        "measure.sample",
        "solver.solve",
        "qbp.hessian",
    }
    assert sorted(stages - labels) == []


EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")


def _scopes(node, names=EIGENSOLVERS, scope=None) -> list:
    """(enclosing function, name) of each of `names` that node's tree names or imports."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    name = getattr(node, field) if field else None
    found = [(scope, name)] if name in names else []
    for child in ast.iter_child_nodes(node):
        found += _scopes(child, names, scope)
    return found


def _package_scopes(names=EIGENSOLVERS) -> list:
    """(module file, enclosing function, name) of each of `names` in the package's source."""
    return [
        (path.name, *site)
        for path in sorted((ROOT / "src" / "gibbslearn").glob("*.py"))
        for site in _scopes(ast.parse(path.read_text()), names)
    ]


def test_eigh_is_called_only_in_diagonalize():
    sites = _package_scopes()
    assert sites == [("gibbs.py", "diagonalize", "eigh"), ("qbp.py", "min_eigenvalue", "eigvalsh")]


@pytest.mark.parametrize("solver", EIGENSOLVERS)
def test_eigh_scopes_catch_every_eigensolver(solver):
    # each spelling a module could use: a numpy attribute, and a name imported and then called
    tree = ast.parse(f"def f(A):\n    return np.linalg.{solver}(A)\n")
    assert _scopes(tree) == [("f", solver)]
    tree = ast.parse(f"from numpy.linalg import {solver}\ndef g(A):\n    return {solver}(A)\n")
    assert _scopes(tree) == [(None, solver), ("g", solver)]


def test_dense_budget_is_checked_only_where_dense_matrices_are_allocated():
    # each count is read by the stage that allocates; scope None is an import
    sites = [site[:2] for site in _package_scopes({"check_dense_budget"}) if site[1]]
    assert sites == [
        ("gibbs.py", "spectrum"),
        ("lattice.py", "to_dense"),
        ("lattice.py", "basis_stack"),
        ("qbp.py", "_hessian_core"),
        ("qbp.py", "hessian_logZ"),
        ("solver.py", "solve"),
        ("solver.py", "alpha_along_segment"),
        ("solver.py", "learn"),
        ("solver.py", "sweep"),
    ]


def test_eigensystems_are_built_only_by_their_owners():
    # a kernel or a lab check reads the eigensystem its caller holds, so a
    # point is diagonalized once however many readers it has; scope None is an import
    sites = [site[:2] for site in _package_scopes({"diagonalize", "spectrum"}) if site[1]]
    suites = [name for path, name in sites if path == "lab.py"]
    assert [site for site in sites if site[0] != "lab.py"] == [
        ("cli.py", "cmd_marginals"),
        ("gibbs.py", "spectrum"),
        ("qbp.py", "hessian_logZ"),
        ("solver.py", "_dual_eval"),
        ("solver.py", "alpha_along_segment"),
        ("solver.py", "learn"),  # H(mu), through `spectrum`
        ("solver.py", "learn"),  # H(mu_hat), for the alpha fallback's Hessian
    ]
    assert suites and all(name.startswith("_suite_") for name in suites)


def test_cli_runs_no_step_of_the_pipeline():
    # `solver.learn` and `solver.sweep` run the steps and check their memory
    # counts; the command line only wires configs and files
    steps = {
        "check_dense_budget",
        "hessian_matrices",
        "diagonalize",
        "assemble_hamiltonian",
        "build_plan",
        "sample_outcomes",
        "solve",
        "alpha_secant",
        "error_bound",
    }
    assert [site for site in _package_scopes(steps) if site[0] == "cli.py"] == []


def _is_function_or_class(value) -> bool:
    value = inspect.unwrap(value)  # an lru_cache'd function counts as the function
    return inspect.isfunction(value) or inspect.isclass(value)


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(gibbslearn.__path__) if m.name != "cli")
)
def test_every_module_lists_exactly_its_public_functions_and_classes(name):
    # `__all__` may also list constants, but it must name every public function
    # and class the module defines, and only names that resolve
    module = importlib.import_module(f"gibbslearn.{name}")
    defined = {
        key
        for key, value in vars(module).items()
        if not key.startswith("_")
        and _is_function_or_class(value)
        and value.__module__ == module.__name__
    }
    assert len(set(module.__all__)) == len(module.__all__)
    assert [key for key in module.__all__ if not hasattr(module, key)] == []
    listed = {key for key in module.__all__ if _is_function_or_class(getattr(module, key))}
    assert defined == listed


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


def _key_table(name: str) -> dict:
    """The key table that the config of command or lab suite `name` is checked against."""
    if name.startswith("lab "):
        return SUITES[name.removeprefix("lab ")].keys
    if name == "sweep, axis beta":
        return gibbslearn.cli.sweep_keys("beta")
    return {"gen": GEN_KEYS, "learn": LEARN_KEYS, "sweep": SWEEP_KEYS, "dump": DUMP_KEYS}[name]


# (table, key) of every beta a config sets; the beta axis's `values` are its betas
TABLES = ("gen", "learn", "sweep", "dump", *(f"lab {name}" for name in SUITES))
BETA_KEYS = [(t, key) for t in TABLES for key in _key_table(t) if "beta" in key]
BETA_KEYS.append(("sweep, axis beta", "values"))


@pytest.mark.parametrize("table, key", BETA_KEYS, ids=[f"{t}: {k}" for t, k in BETA_KEYS])
def test_every_beta_key_refuses_a_beta_whose_square_overflows(table, key):
    # the solver's first model is beta^2 I, and the lab squares its betas too
    check, hint = _key_table(table)[key][0]
    as_value = (lambda beta: beta) if key == "beta" else (lambda beta: [beta])
    assert check(as_value(1.0))
    assert not check(as_value(1e200)), f"{table}: {key} admits 1e200 ({hint})"


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
    assert tuple(re.findall(r"`([^`]+)`", listed[0])) == SolverTrace.CSV_HEADER


def test_readme_names_every_sweep_column():
    assert sorted(set(SWEEP_HEADER) - _readme_section_names("sweep")) == []


def test_readme_memory_examples_quote_the_counts():
    text = " ".join((ROOT / "README.md").read_text().split())
    hessians = re.findall(r"(\d+) matrices at n = (\d+), (\d+) at n = (\d+) and n = (\d+)", text)
    assert len(hessians) == 1
    first, ten, second, eleven, twelve = map(int, hessians[0])
    quoted = [(first, ten), (second, eleven), (second, twelve)]
    assert quoted == [(hessian_matrices(chain_basis(n)), n) for n in (10, 11, 12)]

    refusal = re.findall(
        r"`learn` on an open n = (\d+) chain stops with error: memory budget exceeded: "
        r"(\d+) x 4\^(\d+)",
        text,
    )
    assert len(refusal) == 1
    n, count, exponent = map(int, refusal[0])
    assert (count, exponent) == (hessian_matrices(chain_basis(n)), n)


def test_readme_library_tour_runs(capsys):
    # the tour's python block, run as pasted, imports exactly the root's
    # names; `gibbs` is not one, so `from gibbslearn import gibbs` is the module
    text = (ROOT / "README.md").read_text()
    block = text[text.index("## Library tour") :].split("```python\n", 1)[1].split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "gibbslearn"
        for alias in node.names
    }
    assert imported == set(gibbslearn.__all__) - {"__version__"}
    assert "gibbs" not in gibbslearn.__all__ and inspect.ismodule(gibbslearn.gibbs)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["trace"].converged
    assert capsys.readouterr().out.startswith("True ")


def test_every_json_file_the_cli_writes_is_strict(tmp_path):
    # strict JSON has no NaN or Infinity: the size sweep's n = 1 cell fails,
    # so its median error is undefined and must be written as null
    def run(command, config, *suite):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        return main([command, *suite, "--config", str(path), "--out", str(tmp_path / command)])

    lattice = {"dimension": 1, "side_lengths": [3]}
    assert run("gen", {"lattice": lattice, "kappa": 2, "beta": 1.0}) == 0
    dump = {"model": str(tmp_path / "gen" / "model.json"), "beta": 1.0}
    assert run("learn", {**dump, "N": 40_000}) == 0
    assert run("hessian", dump) == 0
    assert run("marginals", dump) == 0
    assert run("lab", {}, "fourier") == 0
    assert run("sweep", {"axis": "size", "values": [1, 3], "trials": 1, "beta": 1.0, "N": 1000}) == 1

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    written = sorted(tmp_path.glob("*/*.json"))
    commands = {"gen", "learn", "hessian", "marginals", "lab", "sweep"}
    assert {path.parent.name for path in written} == commands
    for path in written:
        json.loads(path.read_text(), parse_constant=refuse)
