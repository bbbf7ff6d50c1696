"""Command-line front end: wiring from configs to library calls and output files.

Subcommands: `gen` writes model instances, `learn` writes the outputs of one
`solver.learn`, the measure-then-fit pipeline, `sweep` those of one
`solver.sweep`, which runs it over N, beta, or system size with per-trial
seeds, `lab` dispatches the structural check suites, `hessian` and
`marginals` dump exact quantities for a stored model.

Every run records a manifest JSON (config snapshot, master seed, tool
version, per-trial seeds, output names).  Feeding a manifest back through
--config replays the run: CSV outputs are byte-identical because all
randomness flows from recorded seeds and wall-clock data is quarantined in
JSON sidecars.  Exit code 0 means every asserted check of that command
passed, 1 that the solver did not converge or a check failed, and 2 that the
command could not run: `main` prints every ValueError, every ArithmeticError
of a numerical overflow, and every OSError of an unwritable --out, as
`error: ...`.  An --out that is, or lies below, an existing file is refused
before the command runs.  --out is created when the first output file is
written, so a refused run leaves none behind.  Each command hands its output
files to `_write`, which writes them and the manifest that lists them.

Importing this module registers `gc.freeze` to run at interpreter exit, so
the exit's collections skip the heap that the imports built.  Every output
file is closed before `main` returns, so no output waits on those
collections, and a `main(argv)` call freezes nothing.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

import numpy as np

from . import __version__
from .gibbs import gibbs, marginals, spectrum
from .lattice import (
    LATTICE_KEYS,
    HamiltonianModel,
    LatticeSpec,
    basis_stack,
    enumerate_basis,
    instance_model,
    load_model,
    save_model,
)
from .measure import DEFAULT_DELTA_FAIL, SCHEMES
from .qbp import hessian_logZ, min_eigenvalue
from .reporting import (
    ANY,
    BETA,
    COPIES,
    POSITIVE_INT,
    REQUIRED,
    check_config,
    is_manifest,
    nonempty_list_of,
    read_json,
    write_csv,
    write_json,
    write_manifest,
)
from .solver import CELLS_HEADER, SOLVER_KEYS, SWEEP_AXES, SWEEP_HEADER, SolverConfig, learn, sweep

atexit.register(gc.freeze)


# ---------------------------------------------------------------------------
# Config plumbing.


def _load_config(path: str, command: str, cli_seed: int) -> tuple[dict, int]:
    """Resolve --config into (config, master_seed); manifests replay verbatim."""
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except ValueError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if is_manifest(doc):
        if doc.get("command") != command:
            raise ValueError(
                f"manifest {path} records command {doc.get('command')!r}, not {command!r}"
            )
        config, seed = doc.get("config"), doc.get("master_seed")
        if not isinstance(config, dict) or type(seed) is not int:
            raise ValueError(f"manifest {path} needs a config object and an int master_seed")
        return dict(config), seed
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc, cli_seed


# Every config key a command reads, as (kind, default): see `check_config`.
# Commands that read the same key share its kind and default.
MODEL = (lambda v: isinstance(v, str), "path to a model JSON")
PROBABILITY = (lambda v: type(v) in (int, float) and 0 < v < 1, "number in (0, 1)")
MEASURE_KEYS = {
    "scheme": ((lambda v: v in SCHEMES, f"one of {', '.join(SCHEMES)}"), "grouped"),
    "delta_fail": (PROBABILITY, DEFAULT_DELTA_FAIL),
    "solver": (SOLVER_KEYS, {}),
}
GEN_KEYS = {
    "lattice": (LATTICE_KEYS, REQUIRED),
    "kappa": (POSITIVE_INT, REQUIRED),
    "beta": (BETA, None),  # checked, never read: a model has no temperature
    "mu": (ANY, "random"),
}
LEARN_KEYS = {
    "model": (MODEL, REQUIRED),
    "N": (COPIES, REQUIRED),
    "beta": (BETA, REQUIRED),
    **MEASURE_KEYS,
}
AXIS = (lambda v: isinstance(v, str) and v in SWEEP_AXES, f"one of {', '.join(SWEEP_AXES)}")
SWEEP_KEYS = {
    "axis": (AXIS, REQUIRED),
    "values": ((lambda v: isinstance(v, list) and len(v) >= 1, "nonempty list"), REQUIRED),
    "trials": (POSITIVE_INT, REQUIRED),
    # each is required unless the axis sweeps it
    "n": (POSITIVE_INT, REQUIRED),
    "beta": (BETA, REQUIRED),
    "N": (COPIES, REQUIRED),
    "kappa": (POSITIVE_INT, 2),
    "mu": (ANY, "random"),
    **MEASURE_KEYS,
}
DUMP_KEYS = {"model": (MODEL, REQUIRED), "beta": (BETA, REQUIRED)}  # hessian, marginals


def sweep_keys(axis) -> dict:
    """The key table of a sweep along `axis`, whose `values` give the key it sweeps."""
    swept = SWEEP_AXES.get(axis) if isinstance(axis, str) else None
    if not swept:
        return SWEEP_KEYS
    kind = SWEEP_KEYS[swept][0]
    return {**SWEEP_KEYS, "values": (nonempty_list_of(kind), REQUIRED), swept: (kind, None)}


def _write(out: str, command: str, config: dict, seed: int, files, trial_seeds=()) -> None:
    """Write each (name, content) of `files` to out, in order, then the manifest naming them.

    A `.csv` name takes a (header, rows) pair; a `.json` name takes an object,
    or a model, which `save_model` writes.
    """
    for name, content in files:
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            write_csv(path, *content)
        elif isinstance(content, HamiltonianModel):
            save_model(content, path)
        else:
            write_json(path, content)
    write_manifest(out, command, config, seed, [name for name, _ in files], trial_seeds)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config: dict, seed: int, args) -> int:
    params = check_config("gen config", config, GEN_KEYS)
    basis = enumerate_basis(LatticeSpec(**params["lattice"]), params["kappa"])
    model = instance_model("gen config", params["mu"], basis, np.random.default_rng(seed))

    _write(args.out, "gen", config, seed, [("model.json", model)])
    print(f"m={basis.m} n={model.n_sites}")
    return 0


# ---------------------------------------------------------------------------
# learn


def cmd_learn(config: dict, seed: int, args) -> int:
    params = check_config("learn config", config, LEARN_KEYS)
    cfg = SolverConfig(**params["solver"])
    model = _read_model(params["model"])
    beta, delta_fail = float(params["beta"]), float(params["delta_fail"])
    record = learn(model, beta, params["N"], params["scheme"], delta_fail, seed, cfg)

    estimates, trace, timings = record.pop("estimates"), record.pop("trace"), record.pop("timings")
    files = [
        ("estimates.csv", (estimates.CSV_HEADER, estimates.csv_rows())),
        ("estimates.json", estimates.manifest_dict()),
        ("trace.csv", (trace.CSV_HEADER, trace.csv_rows())),
        ("learn_timings.json", timings),
        ("result.json", record),
    ]
    _write(args.out, "learn", config, seed, files)
    print(
        f"l2_error={record['l2_error']:.6g} delta_max={record['delta_max']:.6g} "
        f"iterations={record['iterations']} converged={record['converged']}"
    )
    return 0 if record["converged"] else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(config: dict, seed: int, args) -> int:
    params = check_config("sweep config", config, sweep_keys(config.get("axis")))
    record = sweep(params, SolverConfig(**params["solver"]), seed, args.jobs)

    summary = record["summary"]
    files = [
        ("sweep.csv", (SWEEP_HEADER, record["rows"])),
        ("cells.csv", (CELLS_HEADER, record["cells"])),
        ("sweep_summary.json", summary),
        ("sweep_timings.json", record["timings"]),
    ]
    _write(args.out, "sweep", config, seed, files, record["trial_seeds"])
    slope = summary["slope_log_error_vs_log_N"]
    slope_txt = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"trials={summary['n_trials']} failures={len(summary['failures'])} "
        f"bound_violations={len(summary['bound_violations'])} slope={slope_txt}"
    )
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# lab


def cmd_lab(config: dict, seed: int, args) -> int:
    from .lab import SUITES  # the lab is imported only by the command that runs it

    suite = args.suite or config.get("suite")
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; available suites: {', '.join(sorted(SUITES))}"
        )
    reports = SUITES[suite](config, seed)
    summaries = [rep.summary_dict() for rep in reports]
    files = []
    for i, (rep, summary) in enumerate(zip(reports, summaries)):
        stem = f"{suite}_{i:02d}"
        files += [(stem + ".csv", (rep.header, rep.rows)), (stem + ".json", summary)]
    all_pass = all(rep.passed for rep in reports)
    record = {"suite": suite, "pass": all_pass, "n_checks": len(reports), "reports": summaries}
    files.append((f"{suite}_suite.json", record))
    _write(args.out, "lab", {**config, "suite": suite}, seed, files)
    print(f"suite={suite} checks={len(reports)} pass={all_pass}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# hessian / marginals dumps


def _load_model_config(config: dict, command: str) -> tuple[HamiltonianModel, float]:
    params = check_config(f"{command} config", config, DUMP_KEYS)
    return _read_model(params["model"]), float(params["beta"])


def _read_model(path: str) -> HamiltonianModel:
    try:
        return load_model(path)
    except FileNotFoundError:
        raise ValueError(f"model file not found: {path}")


def cmd_hessian(config: dict, seed: int, args) -> int:
    model, beta = _load_model_config(config, "hessian")
    H = hessian_logZ(model, beta)
    m, least = model.basis.m, min_eigenvalue(H)
    rows = [(j, k, H[j, k]) for j in range(m) for k in range(m)]
    files = [
        ("hessian.csv", (("row", "col", "value"), rows)),
        ("hessian.json", {"beta": beta, "m": m, "min_eigenvalue": least}),
    ]
    _write(args.out, "hessian", config, seed, files)
    print(f"m={m} min_eigenvalue={least:.6g}")
    return 0


def cmd_marginals(config: dict, seed: int, args) -> int:
    model, beta = _load_model_config(config, "marginals")
    ensemble = gibbs(spectrum(model), beta)
    values = marginals(basis_stack(model.basis), ensemble)
    files = [
        ("marginals.csv", (("l", "value"), list(zip(range(model.basis.m), values)))),
        ("marginals.json", {"beta": beta, "m": model.basis.m, "log_Z": ensemble.log_z}),
    ]
    _write(args.out, "marginals", config, seed, files)
    print(f"m={model.basis.m} beta={beta:g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslearn",
        description=(
            "Generate local Hamiltonian instances, simulate Gibbs-state "
            "measurement, fit coefficients by convex duality, and run "
            "structural numerical checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, config_required=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=config_required, help="config or manifest JSON")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        return p

    command("gen", cmd_gen, "write a model instance from a config")
    command("learn", cmd_learn, "measure a Gibbs state and fit coefficients")
    p_sweep = command("sweep", cmd_sweep, "scan N, beta, or size over seeded trials")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel trial processes")
    p_lab = command("lab", cmd_lab, "run one structural check suite", config_required=False)
    p_lab.add_argument("suite", nargs="?", help="the suite to run; without one, lab lists them")
    command("hessian", cmd_hessian, "dump the exact log-partition Hessian")
    command("marginals", cmd_marginals, "dump exact marginals of a stored model")
    return parser


def _check_out(out: str) -> None:
    """Refuse an --out whose nearest existing ancestor, or itself, is not a directory."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"--out {out}: {path} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0 or args.seed >= 2**64:
            raise ValueError("--seed must fit in an unsigned 64-bit integer")
        _check_out(args.out)
        if args.config is not None:
            config, seed = _load_config(args.config, args.command, args.seed)
        else:
            config, seed = {}, args.seed
        return args.run(config, seed, args)
    # numpy.linalg.LinAlgError is a ValueError; an overflow raises an ArithmeticError
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
