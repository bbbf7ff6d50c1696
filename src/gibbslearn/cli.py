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
command could not run: `main` prints every ValueError as `error: ...`.
"""

from __future__ import annotations

import argparse
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
from .qbp import hessian_logZ
from .reporting import (
    ANY,
    COUNT,
    POSITIVE,
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
    "beta": (POSITIVE, REQUIRED),
    "mu": (ANY, "random"),
}
LEARN_KEYS = {
    "model": (MODEL, REQUIRED),
    "N": (COUNT, REQUIRED),
    "beta": (POSITIVE, REQUIRED),
    **MEASURE_KEYS,
}
AXIS = (lambda v: isinstance(v, str) and v in SWEEP_AXES, f"one of {', '.join(SWEEP_AXES)}")
SWEEP_KEYS = {
    "axis": (AXIS, REQUIRED),
    "values": ((nonempty_list_of(ANY[0]), "nonempty list"), REQUIRED),
    "trials": (POSITIVE_INT, REQUIRED),
    # each is required unless the axis sweeps it
    "n": (POSITIVE_INT, REQUIRED),
    "beta": (POSITIVE, REQUIRED),
    "N": (COUNT, REQUIRED),
    "kappa": (POSITIVE_INT, 2),
    "mu": (ANY, "random"),
    **MEASURE_KEYS,
}
DUMP_KEYS = {"model": (MODEL, REQUIRED), "beta": (POSITIVE, REQUIRED)}  # hessian, marginals


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config: dict, seed: int, out: str) -> int:
    params = check_config("gen config", config, GEN_KEYS)
    basis = enumerate_basis(LatticeSpec(**params["lattice"]), params["kappa"])
    model = instance_model("gen config", params["mu"], basis, np.random.default_rng(seed))

    save_model(model, os.path.join(out, "model.json"))
    write_manifest(out, "gen", config, seed, ["model.json"])
    print(f"m={basis.m} n={model.n_sites}")
    return 0


# ---------------------------------------------------------------------------
# learn


def cmd_learn(config: dict, seed: int, out: str, scheme_flag: str | None) -> int:
    if scheme_flag:  # recorded, so that replay is faithful
        config = {**config, "scheme": scheme_flag}
    params = check_config("learn config", config, LEARN_KEYS)
    cfg = SolverConfig(**params["solver"])
    model = _read_model(params["model"])
    beta, delta_fail = float(params["beta"]), float(params["delta_fail"])
    record = learn(model, beta, params["N"], params["scheme"], delta_fail, seed, cfg)

    estimates = record.pop("estimates")
    write_csv(os.path.join(out, "estimates.csv"), estimates.CSV_HEADER, estimates.csv_rows())
    write_json(os.path.join(out, "estimates.json"), estimates.manifest_dict())
    trace = record.pop("trace")
    write_csv(os.path.join(out, "trace.csv"), trace.CSV_HEADER, trace.csv_rows())
    write_json(os.path.join(out, "learn_timings.json"), record.pop("timings"))
    write_json(os.path.join(out, "result.json"), record)
    outputs = ["estimates.csv", "estimates.json", "trace.csv", "learn_timings.json", "result.json"]
    write_manifest(out, "learn", config, seed, outputs)
    print(
        f"l2_error={record['l2_error']:.6g} delta_max={record['delta_max']:.6g} "
        f"iterations={record['iterations']} converged={record['converged']}"
    )
    return 0 if record["converged"] else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(config: dict, seed: int, out: str, jobs: int) -> int:
    axis = config.get("axis")
    swept = SWEEP_AXES.get(axis) if isinstance(axis, str) else None
    keys, offenders = SWEEP_KEYS, []
    if swept:
        kind = SWEEP_KEYS[swept][0]
        keys = {**SWEEP_KEYS, swept: (kind, None)}  # the values give it
        if isinstance(config.get("values"), list):
            offenders += [
                f"values (expected {kind[1]} for axis {axis}, got {value!r})"
                for value in config["values"]
                if not kind[0](value)
            ]
    if axis == "size":
        solver = config.get("solver")
        lambda0 = solver.get("lambda0") if isinstance(solver, dict) else None
        offenders += [
            f"{name} (explicit coefficients cannot span a size sweep)"
            for name, value in (("mu", config.get("mu")), ("solver.lambda0", lambda0))
            if isinstance(value, list)
        ]
    params = check_config("sweep config", config, keys, offenders)
    record = sweep(params, SolverConfig(**params["solver"]), seed, jobs)

    write_csv(os.path.join(out, "sweep.csv"), SWEEP_HEADER, record["rows"])
    write_csv(os.path.join(out, "cells.csv"), CELLS_HEADER, record["cells"])
    summary = record["summary"]
    write_json(os.path.join(out, "sweep_summary.json"), summary)
    write_json(os.path.join(out, "sweep_timings.json"), record["timings"])
    outputs = ["sweep.csv", "cells.csv", "sweep_summary.json", "sweep_timings.json"]
    write_manifest(out, "sweep", config, seed, outputs, record["trial_seeds"])
    slope = summary["slope_log_error_vs_log_N"]
    slope_txt = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"trials={summary['n_trials']} failures={len(summary['failures'])} "
        f"bound_violations={len(summary['bound_violations'])} slope={slope_txt}"
    )
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# lab


def cmd_lab(suite: str | None, config: dict, seed: int, out: str) -> int:
    from .lab import SUITES  # the lab is imported only by the command that runs it

    suite = suite or config.get("suite")
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; available suites: {', '.join(sorted(SUITES))}"
        )
    reports = SUITES[suite](config, seed)
    outputs = []
    for i, rep in enumerate(reports):
        stem = f"{suite}_{i:02d}"
        write_csv(os.path.join(out, stem + ".csv"), rep.header, rep.rows)
        write_json(os.path.join(out, stem + ".json"), rep.summary_dict())
        outputs.extend([stem + ".csv", stem + ".json"])
    all_pass = all(rep.passed for rep in reports)
    write_json(
        os.path.join(out, f"{suite}_suite.json"),
        {
            "suite": suite,
            "pass": all_pass,
            "n_checks": len(reports),
            "reports": [rep.summary_dict() for rep in reports],
        },
    )
    outputs.append(f"{suite}_suite.json")
    write_manifest(out, "lab", {**config, "suite": suite}, seed, outputs)
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


def cmd_hessian(config: dict, seed: int, out: str) -> int:
    model, beta = _load_model_config(config, "hessian")
    report = hessian_logZ(model, beta)
    rows = [
        (j, k, report.matrix[j, k])
        for j in range(model.basis.m)
        for k in range(model.basis.m)
    ]
    write_csv(os.path.join(out, "hessian.csv"), ("row", "col", "value"), rows)
    write_json(
        os.path.join(out, "hessian.json"),
        {
            "beta": report.beta,
            "m": model.basis.m,
            "min_eigenvalue": report.min_eigenvalue,
        },
    )
    write_manifest(out, "hessian", config, seed, ["hessian.csv", "hessian.json"])
    print(f"m={model.basis.m} min_eigenvalue={report.min_eigenvalue:.6g}")
    return 0


def cmd_marginals(config: dict, seed: int, out: str) -> int:
    model, beta = _load_model_config(config, "marginals")
    ensemble = gibbs(spectrum(model), beta)
    values = marginals(basis_stack(model.basis), ensemble)
    write_csv(
        os.path.join(out, "marginals.csv"),
        ("l", "value"),
        list(zip(range(model.basis.m), values)),
    )
    write_json(
        os.path.join(out, "marginals.json"),
        {"beta": beta, "m": model.basis.m, "log_Z": ensemble.log_z},
    )
    outputs = ["marginals.csv", "marginals.json"]
    write_manifest(out, "marginals", config, seed, outputs)
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="config or manifest JSON")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--out", default="out", help="output directory (created if missing)")

    common(sub.add_parser("gen", help="write a model instance from a config"))
    p_learn = sub.add_parser("learn", help="measure a Gibbs state and fit coefficients")
    common(p_learn)
    p_learn.add_argument("--scheme", choices=SCHEMES, help="override the config scheme")
    p_sweep = sub.add_parser("sweep", help="scan N, beta, or size over seeded trials")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel trial processes")
    p_lab = sub.add_parser("lab", help="run one structural check suite")
    p_lab.add_argument("suite", nargs="?", help="the suite to run; without one, lab lists them")
    common(p_lab, config_required=False)
    common(sub.add_parser("hessian", help="dump the exact log-partition Hessian"))
    common(sub.add_parser("marginals", help="dump exact marginals of a stored model"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0 or args.seed >= 2**64:
            raise ValueError("--seed must fit in an unsigned 64-bit integer")
        if args.config is not None:
            config, seed = _load_config(args.config, args.command, args.seed)
        else:
            config, seed = {}, args.seed
        os.makedirs(args.out, exist_ok=True)
        if args.command == "gen":
            return cmd_gen(config, seed, args.out)
        if args.command == "learn":
            return cmd_learn(config, seed, args.out, args.scheme)
        if args.command == "sweep":
            if args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
            return cmd_sweep(config, seed, args.out, args.jobs)
        if args.command == "lab":
            return cmd_lab(args.suite, config, seed, args.out)
        if args.command == "hessian":
            return cmd_hessian(config, seed, args.out)
        return cmd_marginals(config, seed, args.out)
    except ValueError as exc:  # numpy.linalg.LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
