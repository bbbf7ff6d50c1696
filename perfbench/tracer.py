"""Run one gibbslearn CLI command with a span around every layer boundary.

Usage: python3 tracer.py SPANS_JSON -- <gibbslearn CLI arguments>

The tracer replaces the public functions the CLI calls (and
numpy.linalg.eigh / eigvalsh) with thin wrappers that record
(label, start, end, parent) spans in memory, runs `gibbslearn.cli.main`, and
writes the spans to SPANS_JSON when the command returns.  Nothing inside the
package changes; the wrappers are installed on the module attributes the
callers look up at call time.  Spans are recorded in this process only.
"""

import functools
import json
import sys
import time

# (module, attribute, span label).  The label's first component names the
# layer; run.py turns each label into metrics.
WRAPPED = (
    ("gibbslearn.cli", "main", "cli.main"),
    ("gibbslearn.cli", "read_json", "cli.io"),
    ("gibbslearn.cli", "write_json", "cli.io"),
    ("gibbslearn.cli", "write_csv", "cli.io"),
    ("gibbslearn.cli", "load_model", "cli.io"),
    ("gibbslearn.cli", "save_model", "cli.io"),
    ("gibbslearn.lattice", "enumerate_basis", "lattice.enumerate"),
    ("gibbslearn.lattice", "basis_stack", "lattice.stack"),
    ("gibbslearn.lattice", "assemble_hamiltonian", "lattice.assemble"),
    ("gibbslearn.gibbs", "diagonalize", "gibbs.diagonalize"),
    ("gibbslearn.gibbs", "gibbs", "gibbs.weights"),
    ("gibbslearn.gibbs", "marginals", "gibbs.marginals"),
    ("gibbslearn.measure", "build_plan", "measure.plan"),
    ("gibbslearn.measure", "sample_outcomes", "measure.sample"),
    ("gibbslearn.solver", "solve", "solver.solve"),
    ("gibbslearn.solver", "alpha_along_segment", "solver.alpha"),
    # both the Newton polish and alpha_along_segment build Hessians here
    ("gibbslearn.qbp", "_hessian_core", "qbp.hessian"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
)


class Recorder:
    """In-memory span list; each span is [label, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, label, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [label, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if describe is not None:
                span[4] = describe(args, result)
            return result

        return traced


def _stack_info(args, stack):
    return {"bytes": int(stack.nbytes)}


def _plan_info(args, plan):
    return {"groups": len(plan.groups)}


def _solve_info(args, result):
    return {"trace_rows": len(result[1].iterations)}


def _hessian_info(args, report):
    basis = args[0]
    dim = 2 ** basis.lattice.n_sites
    # energy-basis tensor A and its weighted copy (complex128), plus the
    # float64 m x m matrix: the arrays _hessian_core holds at its peak
    return {"bytes": 2 * basis.m * dim * dim * 16 + basis.m * basis.m * 8}


DESCRIBE = {
    "lattice.stack": _stack_info,
    "measure.plan": _plan_info,
    "solver.solve": _solve_info,
    "qbp.hessian": _hessian_info,
}


def install(recorder):
    """Swap every reference to a WRAPPED function inside gibbslearn.* and numpy.linalg."""
    import importlib

    modules = [
        importlib.import_module(name)
        for name in (
            "gibbslearn.cli",
            "gibbslearn.gibbs",
            "gibbslearn.lab",
            "gibbslearn.lattice",
            "gibbslearn.measure",
            "gibbslearn.qbp",
            "gibbslearn.solver",
            "numpy.linalg",
        )
    ]
    for module_name, attr, label in WRAPPED:
        original = getattr(importlib.import_module(module_name), attr)
        traced = recorder.wrap(original, label, DESCRIBE.get(label))
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <gibbslearn arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    import_span = ["cli.import", time.perf_counter(), None, -1, None]
    import gibbslearn.cli

    import_span[2] = time.perf_counter()
    recorder.spans.append(import_span)
    install(recorder)
    code = gibbslearn.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
