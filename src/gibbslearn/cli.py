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
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .gibbs import gibbs, marginals, spectrum
from .lattice import (
    HamiltonianModel,
    LatticeSpec,
    OperatorBasis,
    basis_stack,
    check_dense_budget,
    enumerate_basis,
    load_model,
    random_chain,
    save_model,
)
from .measure import DEFAULT_DELTA_FAIL, SCHEMES, build_plan, sample_outcomes
from .qbp import hessian_logZ, hessian_matrices
from .reporting import (
    THREAD_VARS,
    is_manifest,
    new_manifest,
    read_json,
    trial_seed,
    write_csv,
    write_json,
)
from .solver import SolverConfig, alpha_secant, error_bound, solve


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
        return dict(doc["config"]), int(doc["master_seed"])
    if not isinstance(doc, dict):
        raise CLIError(f"config file {path} must hold a JSON object")
    return doc, cli_seed


SWEEP_AXES = {"N": "N", "beta": "beta", "size": "n"}  # axis -> the field it sweeps
POSITIVE_INT = (lambda v: type(v) is int and v >= 1, "int >= 1")  # not bool
# Every config key a command checks, as (predicate, hint): commands that read
# the same key share its check.
FIELDS = {
    "model": (lambda v: isinstance(v, str), "path to a model JSON"),
    "kappa": POSITIVE_INT,
    "n": POSITIVE_INT,
    "beta": (lambda v: type(v) in (int, float) and v > 0, "float > 0"),
    "N": (lambda v: type(v) is int and v >= 0, "int >= 0"),
    "scheme": (lambda v: v in SCHEMES, f"one of {', '.join(SCHEMES)}"),
    "delta_fail": (lambda v: type(v) in (int, float) and 0 < v < 1, "number in (0, 1)"),
    "axis": (lambda v: isinstance(v, str) and v in SWEEP_AXES, f"one of {', '.join(SWEEP_AXES)}"),
    "values": (lambda v: isinstance(v, list) and len(v) >= 1, "nonempty list"),
    "trials": POSITIVE_INT,
}


def _require_fields(config: dict, required: tuple, optional: tuple = ()) -> list[str]:
    """Check the named fields of config against FIELDS; returns the offender list."""
    bad = []
    for field in required + optional:
        check, hint = FIELDS[field]
        if field not in config:
            if field in required:
                bad.append(f"{field} (missing, expected {hint})")
            continue
        if not check(config[field]):
            bad.append(f"{field} (expected {hint}, got {config[field]!r})")
    return bad


def _fail_fields(command: str, offenders: list[str]) -> None:
    if offenders:
        raise CLIError(f"invalid {command} config: " + "; ".join(offenders))


def _lattice_from_config(config: dict) -> LatticeSpec:
    lat = config.get("lattice")
    offenders = []
    if not isinstance(lat, dict):
        _fail_fields("gen", ["lattice (missing, expected object)"])
    dim = lat.get("dimension")
    sides = lat.get("side_lengths")
    positive_int = POSITIVE_INT[0]
    if not positive_int(dim):
        offenders.append(f"lattice.dimension (expected int >= 1, got {dim!r})")
    if not isinstance(sides, list) or not sides or not all(map(positive_int, sides)):
        offenders.append(f"lattice.side_lengths (expected list of ints >= 1, got {sides!r})")
    elif positive_int(dim) and len(sides) != dim:
        offenders.append("lattice.side_lengths (length must equal lattice.dimension)")
    periodic = lat.get("periodic", False)
    if not isinstance(periodic, bool):
        offenders.append(f"lattice.periodic (expected bool, got {periodic!r})")
    _fail_fields("gen", offenders)
    return LatticeSpec(dimension=dim, side_lengths=tuple(sides), periodic=periodic)


def _learn_matrices(basis: OperatorBasis) -> int:
    """Dense matrices one learn holds at once: a Hessian of the Newton polish,
    which reads the solver's current eigensystem, plus the eigenvectors at mu
    that sampling diagonalized and the alpha step reads again."""
    return hessian_matrices(basis.m, basis.lattice.n_sites) + 1


def _marginals_matrices(basis: OperatorBasis) -> int:
    """Dense matrices `marginals` holds at once: 4, for H, eigh's copy of it,
    V and LAPACK's workspace while diagonalizing, then for V, V * w, V^dag and
    rho while forming rho, plus the basis table that both stages keep."""
    n = basis.lattice.n_sites
    return 4 + -(-basis.m // 2**n)


def _solver_config(raw: dict | None) -> SolverConfig:
    if raw is None:
        return SolverConfig()
    if not isinstance(raw, dict):
        raise CLIError(f"solver config must be an object, got {raw!r}")
    known = set(SolverConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise CLIError(f"unknown solver config fields: {', '.join(unknown)}")
    return SolverConfig(**raw)


def _instance_mu(config: dict, m: int, rng: np.random.Generator) -> np.ndarray:
    mu_spec = config.get("mu", "random")
    if isinstance(mu_spec, str):
        if not mu_spec.startswith("random"):
            _fail_fields("gen", [f"mu (expected 'random' or list of {m} floats)"])
        return rng.uniform(-1.0, 1.0, m)
    if not isinstance(mu_spec, list) or len(mu_spec) != m:
        _fail_fields("gen", [f"mu (expected 'random' or list of {m} floats, got {mu_spec!r})"])
    return np.asarray(mu_spec, dtype=float)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(config: dict, seed: int, out: str) -> int:
    _fail_fields("gen", _require_fields(config, ("kappa", "beta")))
    lattice = _lattice_from_config(config)
    basis = enumerate_basis(lattice, config["kappa"])
    rng = np.random.default_rng(seed)
    mu = _instance_mu(config, basis.m, rng)
    model = HamiltonianModel(basis=basis, mu=mu)

    model_path = os.path.join(out, "model.json")
    save_model(model, model_path)
    manifest = new_manifest("gen", config, seed, __version__)
    manifest["outputs"] = ["model.json"]
    write_json(os.path.join(out, "gen_manifest.json"), manifest)
    print(f"m={basis.m} n={lattice.n_sites}")
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
    """Measure, fit, and compare against the stored truth; returns raw pieces."""
    basis = model.basis
    ensemble = gibbs(spectrum(model), beta)
    plan = build_plan(basis, scheme, n_copies)
    estimates = sample_outcomes(plan, ensemble, seed=seed, delta_fail=delta_fail)
    mu_hat, trace = solve(estimates.e_hat, beta, basis, cfg)

    m = basis.m
    l2_error = float(np.linalg.norm(mu_hat - model.mu))
    delta_max = float(np.max(estimates.delta)) if m else 0.0
    # the dual gradient at mu, beta * (e_hat - e(mu)), from the ensemble sampling
    # built; the solver's last gradient is the one at mu_hat
    grad_mu = beta * (estimates.e_hat - marginals(basis_stack(basis), ensemble))
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
        "alpha": alpha,
        "bound": bound,
        "bound_holds": bool(l2_error <= bound),
        "pg_final": trace.pg_final,
    }


def cmd_learn(config: dict, seed: int, out: str, scheme_flag: str | None) -> int:
    scheme = scheme_flag or config.get("scheme", "grouped")
    offenders = _require_fields(
        {**config, "scheme": scheme}, ("model", "N", "beta", "scheme"), ("delta_fail",)
    )
    _fail_fields("learn", offenders)
    delta_fail = float(config.get("delta_fail", DEFAULT_DELTA_FAIL))
    cfg = _solver_config(config.get("solver"))
    model = _read_model(config["model"])
    check_dense_budget(_learn_matrices(model.basis), model.n_sites)
    beta = float(config["beta"])
    run = _learn_once(model, beta, config["N"], scheme, delta_fail, seed, cfg)

    estimates = run["estimates"]
    write_csv(
        os.path.join(out, "estimates.csv"), ("l", "e_hat", "delta", "shots"), estimates.csv_rows()
    )
    write_json(os.path.join(out, "estimates.json"), estimates.manifest_dict())
    trace = run["trace"]
    write_csv(
        os.path.join(out, "trace.csv"),
        ("iteration", "objective", "grad_norm", "step", "phase", "evals"),
        trace.csv_rows(),
    )
    result = {
        "mu_hat": run["mu_hat"],
        "l2_error": run["l2_error"],
        "delta_max": run["delta_max"],
        "iterations": len(trace.iterations),
        "converged": bool(trace.converged),
        "alpha_secant": run["alpha"],
        "bound_value": run["bound"],
        "bound_holds": run["bound_holds"],
        "pg_final": run["pg_final"],
        "wall_time_s": trace.wall_time,
        "m": model.basis.m,
        "n": model.basis.lattice.n_sites,
    }
    write_json(os.path.join(out, "result.json"), result)
    manifest = new_manifest("learn", {**config, "scheme": scheme}, seed, __version__)
    manifest["outputs"] = ["estimates.csv", "estimates.json", "trace.csv", "result.json"]
    write_json(os.path.join(out, "learn_manifest.json"), manifest)
    print(
        f"l2_error={run['l2_error']:.6g} delta_max={run['delta_max']:.6g} "
        f"iterations={len(trace.iterations)} converged={trace.converged}"
    )
    return 0 if trace.converged else 1


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


def _trial_worker(payload: dict) -> dict:
    """One sweep trial; returns its CSV row, runtime, and any error text."""
    t0 = time.perf_counter()
    trial = payload["trial"]
    n = payload["n"]
    beta = payload["beta"]
    n_copies = payload["N"]
    try:
        rng = np.random.default_rng(payload["seed"])
        if payload["mu"] is None:
            model = random_chain(n, payload["kappa"], rng)
        else:
            basis = enumerate_basis(LatticeSpec(dimension=1, side_lengths=(n,)), payload["kappa"])
            model = HamiltonianModel(basis=basis, mu=payload["mu"])
        measure_seed = int(rng.integers(2**63))  # decouple shot noise from mu
        run = _learn_once(
            model,
            beta,
            n_copies,
            payload["scheme"],
            payload["delta_fail"],
            measure_seed,
            SolverConfig(**payload["solver"]),
        )
        row = (
            trial,
            n,
            model.basis.m,
            beta,
            n_copies,
            run["delta_max"],
            run["alpha"],
            run["l2_error"],
            run["bound"],
            run["bound_holds"],
        )
        error = None
    except Exception as exc:  # per-trial failures recorded, sweep continues
        row = (trial, n, -1, beta, n_copies, math.nan, math.nan, math.nan, math.nan, False)
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


def _sweep_payloads(config: dict, seed: int) -> list[dict]:
    axis = config["axis"]
    values = config["values"]
    trials = config["trials"]
    solver_raw = config.get("solver") or {}
    _solver_config(solver_raw)  # validate once up front
    payloads = []
    trial = 0
    for value in values:
        for _ in range(trials):
            n = int(value) if axis == "size" else int(config["n"])
            beta = float(value) if axis == "beta" else float(config["beta"])
            n_copies = int(value) if axis == "N" else int(config["N"])
            payloads.append(
                {
                    "trial": trial,
                    "seed": trial_seed(seed, trial),
                    "n": n,
                    "kappa": int(config.get("kappa", 2)),
                    "beta": beta,
                    "N": n_copies,
                    "scheme": config.get("scheme", "grouped"),
                    "delta_fail": float(config.get("delta_fail", DEFAULT_DELTA_FAIL)),
                    "mu": config.get("mu") if isinstance(config.get("mu"), list) else None,
                    "solver": solver_raw,
                }
            )
            trial += 1
    return payloads


def cmd_sweep(config: dict, seed: int, out: str, jobs: int) -> int:
    axis = config.get("axis")
    swept = SWEEP_AXES.get(axis) if isinstance(axis, str) else None
    # the fields the axis does not sweep are required; an unknown axis requires all three
    fixed = tuple(field for field in SWEEP_AXES.values() if field != swept)
    offenders = _require_fields(
        config, ("axis", "values", "trials", *fixed), ("kappa", "scheme", "delta_fail")
    )
    if swept and isinstance(config.get("values"), list):
        check, hint = FIELDS[swept]
        offenders += [
            f"values (expected {hint} for axis {axis}, got {value!r})"
            for value in config["values"]
            if not check(value)
        ]
    if axis == "size" and isinstance(config.get("mu"), list):
        offenders.append("mu (explicit coefficients cannot span a size sweep)")
    _fail_fields("sweep", offenders)
    payloads = _sweep_payloads(config, seed)
    workers = min(jobs, len(payloads))
    sizes = config["values"] if axis == "size" else [config["n"]]
    for n in sizes:
        try:
            basis = enumerate_basis(
                LatticeSpec(dimension=1, side_lengths=(int(n),)), payloads[0]["kappa"]
            )
        except ValueError:
            continue  # the trials of this size fail and are recorded as such
        # every worker runs one learn at a time
        check_dense_budget(_learn_matrices(basis) * workers, basis.lattice.n_sites)

    if workers > 1:
        with _trial_pool(workers) as pool:
            results = list(pool.map(_trial_worker, payloads))
    else:
        results = [_trial_worker(p) for p in payloads]
    write_csv(os.path.join(out, "sweep.csv"), SWEEP_HEADER, [res["row"] for res in results])

    trials = config["trials"]
    cells = []
    medians = []
    for c, value in enumerate(config["values"]):
        errs = [
            res["row"][7]
            for res in results[c * trials : (c + 1) * trials]
            if res["error"] is None
        ]
        median = float(np.median(errs)) if errs else math.nan
        medians.append(median)
        cells.append((c, value, trials, trials - len(errs), median))
    write_csv(
        os.path.join(out, "cells.csv"),
        ("cell", "axis_value", "n_trials", "n_failed", "median_error"),
        cells,
    )

    slope = None
    if axis == "N":
        live = [(v, m_) for v, m_ in zip(config["values"], medians) if m_ > 0]
        if len(live) >= 2:
            slope = float(
                np.polyfit(np.log([v for v, _ in live]), np.log([m_ for _, m_ in live]), 1)[0]
            )
    failures = [
        {"trial": res["trial"], "error": res["error"]} for res in results if res["error"]
    ]
    violations = [
        res["trial"] for res in results if res["error"] is None and not res["row"][9]
    ]
    summary = {
        "axis": axis,
        "values": config["values"],
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
    manifest = new_manifest("sweep", config, seed, __version__)
    manifest["outputs"] = ["sweep.csv", "cells.csv", "sweep_summary.json"]
    manifest["trial_seeds"] = [p["seed"] for p in payloads]
    write_json(os.path.join(out, "sweep_manifest.json"), manifest)
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
    manifest = new_manifest("lab", {**config, "suite": suite}, seed, __version__)
    manifest["outputs"] = outputs + [f"{suite}_suite.json"]
    write_json(os.path.join(out, "lab_manifest.json"), manifest)
    print(f"suite={suite} checks={len(reports)} pass={all_pass}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# hessian / marginals dumps


def _load_model_config(config: dict, command: str) -> tuple[HamiltonianModel, float]:
    _fail_fields(command, _require_fields(config, ("model", "beta")))
    return _read_model(config["model"]), float(config["beta"])


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
    manifest = new_manifest("hessian", config, seed, __version__)
    manifest["outputs"] = ["hessian.csv", "hessian.json"]
    write_json(os.path.join(out, "hessian_manifest.json"), manifest)
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
    manifest = new_manifest("marginals", config, seed, __version__)
    manifest["outputs"] = ["marginals.csv", "marginals.json"]
    write_json(os.path.join(out, "marginals_manifest.json"), manifest)
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
