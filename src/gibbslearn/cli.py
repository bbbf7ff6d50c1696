"""Command-line front end.

Subcommands: `gen` writes model instances, `learn` runs the measure-then-fit
pipeline end-to-end, `sweep` scans N, beta, or system size with per-trial
seeds, `lab` dispatches the structural check suites, `hessian` and
`marginals` dump exact quantities for a stored model.

Every run records a manifest JSON (config snapshot, master seed, tool
version, per-trial seeds, output names).  Feeding a manifest back through
--config replays the run: CSV outputs are byte-identical because all
randomness flows from recorded seeds and wall-clock data is quarantined in
JSON sidecars.  Exit code 0 means every asserted check of that command
passed, 1 that the solver did not converge or a check failed, and 2 that the
command could not run: `main` prints every CLIError and ValueError as
`error: ...`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .gibbs import diagonalize, gibbs, marginals, spectrum
from .lattice import (
    LATTICE_KEYS,
    HamiltonianModel,
    LatticeSpec,
    OperatorBasis,
    assemble_hamiltonian,
    basis_stack,
    check_dense_budget,
    enumerate_basis,
    load_model,
    save_model,
)
from .measure import DEFAULT_DELTA_FAIL, SCHEMES, build_plan, sample_outcomes
from .qbp import hessian_logZ, hessian_matrices
from .reporting import (
    ANY,
    COUNT,
    FLOATS,
    POSITIVE,
    POSITIVE_INT,
    REQUIRED,
    THREAD_VARS,
    check_config,
    is_manifest,
    nonempty_list_of,
    read_json,
    trial_seed,
    write_csv,
    write_json,
    write_manifest,
)
from .solver import SOLVER_KEYS, SolverConfig, alpha_secant, error_bound, solve


class CLIError(Exception):
    """User-facing configuration or usage problem; exits with code 2, as a ValueError does."""


# ---------------------------------------------------------------------------
# Config plumbing.


def _load_config(path: str, command: str, cli_seed: int) -> tuple[dict, int]:
    """Resolve --config into (config, master_seed); manifests replay verbatim."""
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise CLIError(f"config file not found: {path}")
    except ValueError as exc:
        raise CLIError(f"config file {path} is not valid JSON: {exc}")
    if is_manifest(doc):
        if doc.get("command") != command:
            raise CLIError(
                f"manifest {path} records command {doc.get('command')!r}, not {command!r}"
            )
        config, seed = doc.get("config"), doc.get("master_seed")
        if not isinstance(config, dict) or type(seed) is not int:
            raise CLIError(f"manifest {path} needs a config object and an int master_seed")
        return dict(config), seed
    if not isinstance(doc, dict):
        raise CLIError(f"config file {path} must hold a JSON object")
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
SWEEP_AXES = {"N": "N", "beta": "beta", "size": "n"}  # axis -> the key it sweeps
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


def _learn_matrices(basis: OperatorBasis) -> int:
    """Dense matrices one learn holds at once: a Newton Hessian, which reads
    the solver's current eigensystem, plus, counted in bytes, the basis table
    and the solver's m x m Newton model.  No eigensystem at mu lives through
    the solve: sampling's dies once e(mu) is read.

    Builds the table, which `basis_stack` checks on its own count first.
    """
    m, n = basis.m, basis.lattice.n_sites
    held = basis_stack(basis).nbytes + 8 * m * m
    return hessian_matrices(m, n) + -(-held // (16 * 4**n))


def _marginals_matrices(basis: OperatorBasis) -> int:
    """Dense matrices `marginals` holds at once: 5, for H, eigh's copy of it,
    V and LAPACK's complex and real workspaces (zheevd's N^2 and 2N^2) while
    diagonalizing, then 4 for V, V * w, V^dag and rho while forming rho, plus
    the basis table that both stages keep."""
    n = basis.lattice.n_sites
    return 5 + -(-basis.m // 2**n)


def _instance_model(
    where: str, mu, basis: OperatorBasis, rng: np.random.Generator
) -> HamiltonianModel:
    """The model over basis with coefficients mu: "random" draws them
    uniformly from [-1, 1] with rng, a list of m floats gives them."""
    m = basis.m
    hint = f"'random' or list of {m} floats"
    kind = (lambda v: v == "random" or (FLOATS[0](v) and len(v) == m), hint)
    check_config(where, {"mu": mu}, {"mu": (kind, REQUIRED)})
    return HamiltonianModel(basis=basis, mu=rng.uniform(-1.0, 1.0, m) if mu == "random" else mu)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config: dict, seed: int, out: str) -> int:
    params = check_config("gen config", config, GEN_KEYS)
    basis = enumerate_basis(LatticeSpec(**params["lattice"]), params["kappa"])
    model = _instance_model("gen config", params["mu"], basis, np.random.default_rng(seed))

    save_model(model, os.path.join(out, "model.json"))
    write_manifest(out, "gen", config, seed, ["model.json"])
    print(f"m={basis.m} n={model.n_sites}")
    return 0


# ---------------------------------------------------------------------------
# learn


def _learn_once(
    model: HamiltonianModel,
    beta: float,
    n_copies: int,
    scheme: str,
    delta_fail: float,
    seed: int,
    cfg: SolverConfig,
) -> dict:
    """Measure, fit, and compare against the stored truth.

    Returns the `result.json` record, plus the `estimates` and the solver
    `trace` that `learn` writes beside it.
    """
    basis = model.basis
    # diagonalized here, not through the `spectrum` cache, so that the
    # eigensystem at mu dies with the ensemble once e(mu) is read
    ensemble = gibbs(diagonalize(assemble_hamiltonian(model)), beta)
    plan = build_plan(basis, scheme, n_copies)
    estimates = sample_outcomes(plan, ensemble, seed=seed, delta_fail=delta_fail)
    e_mu = marginals(basis_stack(basis), ensemble)
    del ensemble
    mu_hat, trace = solve(estimates.e_hat, beta, basis, cfg)

    m = basis.m
    l2_error = float(np.linalg.norm(mu_hat - model.mu))
    delta_max = float(np.max(estimates.delta)) if m else 0.0
    # the dual gradient at mu, beta * (e_hat - e(mu)); the solver's last
    # gradient is the one at mu_hat
    grad_mu = beta * (estimates.e_hat - e_mu)
    alpha = alpha_secant(basis, model.mu, mu_hat, beta, grad_mu, trace.grad_final)
    # fold the solver residual into an effective marginal error so the bound
    # stays meaningful when measurement noise is zero (exact scheme)
    effective_delta = max(delta_max, trace.pg_final / (2.0 * beta * math.sqrt(m)))
    bound = error_bound(effective_delta, alpha, beta, m) if alpha > 0 else math.inf
    return {
        "estimates": estimates,
        "trace": trace,
        "mu_hat": mu_hat,
        "l2_error": l2_error,
        "delta_max": delta_max,
        "iterations": len(trace.iterations),
        "converged": bool(trace.converged),
        "alpha_secant": alpha,
        "bound_value": bound,
        "bound_holds": bool(l2_error <= bound),
        "pg_final": trace.pg_final,
        "wall_time_s": trace.wall_time,
        "dual_evals": trace.dual_evals,
        "hessians": trace.hessians,
        "m": m,
        "n": basis.lattice.n_sites,
    }


TRACE_HEADER = ("iteration", "objective", "grad_norm", "step", "evals")


def cmd_learn(config: dict, seed: int, out: str, scheme_flag: str | None) -> int:
    if scheme_flag:  # recorded, so that replay is faithful
        config = {**config, "scheme": scheme_flag}
    params = check_config("learn config", config, LEARN_KEYS)
    cfg = SolverConfig(**params["solver"])
    model = _read_model(params["model"])
    check_dense_budget(_learn_matrices(model.basis), model.n_sites)
    beta, delta_fail = float(params["beta"]), float(params["delta_fail"])
    record = _learn_once(model, beta, params["N"], params["scheme"], delta_fail, seed, cfg)

    estimates = record.pop("estimates")
    write_csv(
        os.path.join(out, "estimates.csv"), ("l", "e_hat", "delta", "shots"), estimates.csv_rows()
    )
    write_json(os.path.join(out, "estimates.json"), estimates.manifest_dict())
    write_csv(os.path.join(out, "trace.csv"), TRACE_HEADER, record.pop("trace").csv_rows())
    write_json(os.path.join(out, "result.json"), record)
    outputs = ["estimates.csv", "estimates.json", "trace.csv", "result.json"]
    write_manifest(out, "learn", config, seed, outputs)
    print(
        f"l2_error={record['l2_error']:.6g} delta_max={record['delta_max']:.6g} "
        f"iterations={record['iterations']} converged={record['converged']}"
    )
    return 0 if record["converged"] else 1


# ---------------------------------------------------------------------------
# sweep


SWEEP_HEADER = (
    "trial",
    "n",
    "m",
    "beta",
    "N",
    "delta_observed",
    "alpha_secant",
    "l2_error",
    "bound_value",
    "bound_holds",
)


def _trial_worker(params: dict, cfg: SolverConfig, seed: int, trial: int) -> dict:
    """Sweep trial number `trial`: its row of SWEEP_HEADER fields, runtime and any error text.

    The trial's cell is trial // trials: its value sets the swept key, the
    checked config `params` the other two.  Its seed draws the coefficients,
    unless the config lists them, and then the measurement seed.
    """
    t0 = time.perf_counter()
    point = {**params, SWEEP_AXES[params["axis"]]: params["values"][trial // params["trials"]]}
    row = {
        **dict.fromkeys(SWEEP_HEADER, math.nan),
        "trial": trial,
        "n": point["n"],
        "m": -1,
        "beta": float(point["beta"]),
        "N": point["N"],
        "bound_holds": False,
    }
    try:
        rng = np.random.default_rng(trial_seed(seed, trial))
        basis = enumerate_basis(LatticeSpec(dimension=1, side_lengths=(row["n"],)), params["kappa"])
        model = _instance_model("sweep config", params["mu"], basis, rng)
        measure_seed = int(rng.integers(2**63))  # decouple shot noise from mu
        scheme, delta_fail = params["scheme"], float(params["delta_fail"])
        record = _learn_once(model, row["beta"], row["N"], scheme, delta_fail, measure_seed, cfg)
        row.update({field: record[field] for field in SWEEP_HEADER if field in record})
        row["delta_observed"] = record["delta_max"]
        error = None
    except Exception as exc:  # per-trial failures recorded, sweep continues
        error = f"{type(exc).__name__}: {exc}"
    runtime = time.perf_counter() - t0
    return {"trial": trial, "row": row, "runtime": runtime, "error": error}


@contextmanager
def _trial_pool(workers: int):
    """Spawned worker processes that share the cores instead of each claiming all.

    Every worker gets cpu_count // workers BLAS/OpenMP threads, unless the
    user set one of THREAD_VARS, which then governs.  The variables are in
    the environment while the pool spawns its processes, so each worker sees
    them before it imports numpy.
    """
    import multiprocessing  # imported here: a learn, which starts no pool, skips them
    from concurrent.futures import ProcessPoolExecutor

    added = {}
    if not any(var in os.environ for var in THREAD_VARS):
        threads = str(max(1, (os.cpu_count() or 1) // workers))
        added = dict.fromkeys(THREAD_VARS, threads)
    os.environ.update(added)
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            yield pool
    finally:
        for var in added:
            os.environ.pop(var, None)


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
    cfg = SolverConfig(**params["solver"])
    trials = range(len(params["values"]) * params["trials"])
    workers = min(jobs, len(trials))
    for n in params["values"] if axis == "size" else [params["n"]]:
        try:
            basis = enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), params["kappa"])
        except ValueError:
            continue  # the trials of this size fail and are recorded as such
        # every worker runs one learn at a time
        check_dense_budget(_learn_matrices(basis) * workers, basis.lattice.n_sites)
        # the rules every trial applies, once before any runs
        _instance_model("sweep config", params["mu"], basis, np.random.default_rng(seed))
        cfg.start_point(basis.m)

    worker = functools.partial(_trial_worker, params, cfg, seed)
    if workers > 1:
        with _trial_pool(workers) as pool:
            results = list(pool.map(worker, trials))
    else:
        results = list(map(worker, trials))
    write_csv(
        os.path.join(out, "sweep.csv"),
        SWEEP_HEADER,
        [[res["row"][field] for field in SWEEP_HEADER] for res in results],
    )

    per_cell = params["trials"]
    cells = []
    medians = []
    for c, value in enumerate(params["values"]):
        errs = [
            res["row"]["l2_error"]
            for res in results[c * per_cell : (c + 1) * per_cell]
            if res["error"] is None
        ]
        median = float(np.median(errs)) if errs else math.nan
        medians.append(median)
        cells.append((c, value, per_cell, per_cell - len(errs), median))
    write_csv(
        os.path.join(out, "cells.csv"),
        ("cell", "axis_value", "n_trials", "n_failed", "median_error"),
        cells,
    )

    slope = None
    if axis == "N":
        live = [(v, m_) for v, m_ in zip(params["values"], medians) if m_ > 0]
        if len(live) >= 2:
            slope = float(
                np.polyfit(np.log([v for v, _ in live]), np.log([m_ for _, m_ in live]), 1)[0]
            )
    failures = [
        {"trial": res["trial"], "error": res["error"]} for res in results if res["error"]
    ]
    violations = [
        res["trial"] for res in results if res["error"] is None and not res["row"]["bound_holds"]
    ]
    summary = {
        "axis": axis,
        "values": params["values"],
        "median_errors": medians,
        "slope_log_error_vs_log_N": slope,
        "n_trials": len(results),
        "failures": failures,
        "bound_violations": violations,
        "pass": not failures and not violations,
    }
    write_json(os.path.join(out, "sweep_summary.json"), summary)
    write_json(
        os.path.join(out, "sweep_timings.json"),
        {
            "trials": {str(res["trial"]): res["runtime"] for res in results},
            "total_s": sum(res["runtime"] for res in results),
        },
    )
    outputs = ["sweep.csv", "cells.csv", "sweep_summary.json"]
    trial_seeds = [trial_seed(seed, trial) for trial in trials]
    write_manifest(out, "sweep", config, seed, outputs, trial_seeds)
    slope_txt = "n/a" if slope is None else f"{slope:.3f}"
    print(
        f"trials={len(results)} failures={len(failures)} "
        f"bound_violations={len(violations)} slope={slope_txt}"
    )
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------------------
# lab


def cmd_lab(suite: str | None, config: dict, seed: int, out: str) -> int:
    from .lab import SUITES  # the lab is imported only by the command that runs it

    suite = suite or config.get("suite")
    if suite not in SUITES:
        raise CLIError(
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
        raise CLIError(f"model file not found: {path}")


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
    check_dense_budget(_marginals_matrices(model.basis), model.n_sites)
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
            raise CLIError("--seed must fit in an unsigned 64-bit integer")
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
                raise CLIError("--jobs must be at least 1")
            return cmd_sweep(config, seed, args.out, args.jobs)
        if args.command == "lab":
            return cmd_lab(args.suite, config, seed, args.out)
        if args.command == "hessian":
            return cmd_hessian(config, seed, args.out)
        return cmd_marginals(config, seed, args.out)
    except (CLIError, ValueError) as exc:  # numpy.linalg.LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
