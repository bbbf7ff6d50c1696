"""End-to-end and per-layer benchmark of `gibbslearn learn`.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process drives the CLI in a closed loop: it starts one
operation (a fresh `python3 -m gibbslearn.cli` process), waits for it, checks
its outputs, and starts the next while the measured time stays within
--seconds; at least one operation always runs.  Every operation pays
interpreter start, imports and the basis-stack build, as a CLI user does.
--seed goes to `gen --seed` and, through per-operation draws, to the
coefficients and `learn --seed`; the program sees only the generated model
and config.  BLAS and OpenMP thread variables are recorded,
never set.

--trace 0 prints the end-to-end metrics of untraced runs.  --trace 1 runs
each operation twice, untraced and under tracer.py, and prints per-layer
self times and counts from the traced run.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
name every metric with its unit, the failure ratio and the environment.  A
JSON copy with the per-operation details lands in .perfbench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
# every workload learns kappa=2 local Hamiltonians at beta=1
KAPPA = 2
BETA = 1.0
OP_TIMEOUT_S = 150.0
# acceptance gate 03's tolerance on exactly recovered coefficients
EXACT_L2_TOL = 1e-4
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class HarnessError(Exception):
    """Set-up failed, so no operation can run."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    sides: tuple[int, ...]  # lattice side lengths; len() is the dimension
    scheme: str
    N: int = 100_000


# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("learn-chain7", (7,), "grouped"),
        Workload("learn-grid2x3-exact", (2, 3), "exact", N=0),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "learns_per_s": "1/s",
    "learn_p50_s": "s",
    "learn_p75_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# span label -> name of its self-time metric
SELF_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "cli.io": "cli.io_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "lattice.stack": "lattice.stack_s",
    "lattice.assemble": "lattice.assemble_s",
    "gibbs.diagonalize": "gibbs.diagonalize_s",
    "gibbs.weights": "gibbs.weights_s",
    "gibbs.marginals": "gibbs.marginals_s",
    "measure.plan": "measure.plan_s",
    "measure.sample": "measure.sample_s",
    "solver.solve": "solver.solve_self_s",
    "solver.alpha": "solver.alpha_s",
    "qbp.hessian": "qbp.hessian_s",
    "linalg.eigh": "linalg.eigh_s",
    "linalg.eigvalsh": "linalg.eigvalsh_s",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_METRICS.values()},
    "lattice.stack_bytes": "bytes",
    "lattice.assemble_calls": "count",
    "gibbs.diagonalize_calls": "count",
    "measure.groups": "count",
    "measure.sample_total_s": "s",
    "measure.sample_eigh_calls": "count",
    "solver.solve_total_s": "s",
    "solver.dual_evals": "count",
    "solver.trace_rows": "count",
    "solver.rows_per_eval": "ratio",
    "solver.alpha_total_s": "s",
    "solver.hessians": "count",
    "qbp.hessian_bytes": "bytes",
    "linalg.eigh_calls": "count",
    "linalg.eigh_share": "ratio",
    "linalg.eigvalsh_calls": "count",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Running the CLI


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], out_dir: Path, spans: Path | None = None) -> tuple[int, float, float]:
    """Run one CLI command in a fresh interpreter.

    Returns (exit code, wall seconds, peak RSS in MB of the process and the
    children it waited for).  With `spans`, the command runs under tracer.py,
    which writes its spans there.  A command still running after
    OP_TIMEOUT_S is killed and fails with the signal's negative exit code.
    """
    if spans is None:
        argv = [sys.executable, "-m", "gibbslearn.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "w") as out, open(out_dir / "stderr.txt", "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4, unlike Popen.wait, reports this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup(workload: Workload, seed: int, work: Path) -> tuple[list[float], dict]:
    """Run `gen` SETUP_REPEATS times, each in a fresh interpreter.

    Returns the set-up times and the generated model, which op_config uses
    as the template for every operation's model.
    """
    gen_cfg = work / "gen.json"
    _write_json(
        gen_cfg,
        {
            "lattice": {
                "dimension": len(workload.sides),
                "side_lengths": list(workload.sides),
                "periodic": False,
            },
            "kappa": KAPPA,
            "beta": BETA,
            "mu": "random",
        },
    )
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"gen{i}"
        code, wall, _ = run_cli(
            ["gen", "--config", str(gen_cfg), "--seed", str(seed), "--out", str(out)], out
        )
        if code != 0:
            raise HarnessError(f"gen exited {code}: {_tail(out / 'stderr.txt')}")
        times.append(wall)
    return times, _read_json(work / "gen0" / "model.json")


def op_config(workload: Workload, seed: int, index: int, work: Path, model: dict):
    """Inputs of operation `index`: (config path, CLI seed), both drawn from `seed`.

    Every learn gets its own coefficients, uniform in [-1, 1] as `gen` draws
    them, and every operation its own CLI seed.  Solver work depends on the
    coefficients and the shots, so a run's median over several operations
    varies far less between seeds than one operation does.
    """
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    op_seed = rng.getrandbits(63)
    model_path = work / f"model{index}.json"
    _write_json(model_path, {**model, "mu": [rng.uniform(-1.0, 1.0) for _ in model["mu"]]})
    config = {"model": str(model_path), "N": workload.N, "beta": BETA, "scheme": workload.scheme}
    cfg_path = work / f"learn{index}.json"
    _write_json(cfg_path, config)
    return cfg_path, op_seed


def run_op(workload: Workload, cfg_path: Path, seed: int, out: Path, traced: bool) -> dict:
    """One learn; returns its wall time, peak RSS, result and check failures."""
    args = ["learn", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
    spans_path = out / "spans.json" if traced else None
    code, wall, rss_mb = run_cli(args, out, spans_path)
    problems = check_learn(workload, out, code)
    op = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "exit_code": code,
        "failed": 1 if problems else 0,
        "problems": problems,
        "result": _read_optional(out / "result.json"),
    }
    if traced:
        op["spans"] = _read_json(spans_path) if spans_path.is_file() else []
    return op


# ---------------------------------------------------------------------------
# Correctness checks


def check_learn(workload: Workload, out: Path, code: int) -> list[str]:
    """Problems with one learn: exit status, convergence, the error bound and,
    on the exact scheme, the recovered coefficients."""
    problems = [] if code == 0 else [f"exit code {code}: {_tail(out / 'stderr.txt')}"]
    result = _read_optional(out / "result.json")
    if result is None:
        return problems + ["no readable result.json"]
    if result.get("converged") is not True:
        problems.append("solver did not converge")
    l2, bound = result.get("l2_error"), result.get("bound_value")
    if result.get("bound_holds") is not True or not (
        isinstance(l2, (int, float)) and isinstance(bound, (int, float)) and l2 <= bound
    ):
        problems.append(f"error bound violated: l2_error={l2} bound_value={bound}")
    if workload.scheme == "exact" and not (isinstance(l2, (int, float)) and l2 <= EXACT_L2_TOL):
        problems.append(f"exact scheme missed mu: l2_error={l2} > {EXACT_L2_TOL}")
    return problems


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(ops: list[dict], setup_times: list[float]) -> dict:
    walls = [op["wall_s"] for op in ops]
    correct = sum(1 - op["failed"] for op in ops)
    return {
        "wall_s": statistics.median(walls),
        "learns_per_s": correct / sum(walls),
        "learn_p50_s": percentile(walls, 0.50),
        "learn_p75_s": percentile(walls, 0.75),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "setup_s": statistics.median(setup_times),
    }


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer self times and counts of one traced operation.

    A span's self time is its duration minus its children's, so the self
    times add up to the time covered by top-level spans; the rest of the
    traced wall time is reported as unattributed_s.
    """
    child = [0.0] * len(spans)
    for label, start, end, parent, info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    total_s = Counter()
    calls = Counter()
    eigh_under = Counter()
    stack_bytes = hessian_bytes = groups = trace_rows = 0
    for i, (label, start, end, parent, info) in enumerate(spans):
        self_s[label] += (end - start) - child[i]
        total_s[label] += end - start
        calls[label] += 1
        if label == "linalg.eigh" and parent >= 0:
            eigh_under[spans[parent][0]] += 1
        info = info or {}  # None when the wrapped call raised
        if label == "lattice.stack":
            stack_bytes = max(stack_bytes, info.get("bytes", 0))
        elif label == "qbp.hessian":
            hessian_bytes = max(hessian_bytes, info.get("bytes", 0))
        elif label == "measure.plan":
            groups += info.get("groups", 0)
        elif label == "solver.solve":
            trace_rows += info.get("trace_rows", 0)
    metrics = {name: self_s[label] for label, name in SELF_METRICS.items()}
    attributed = sum(metrics.values())
    dual_evals = eigh_under["solver.solve"]
    metrics.update(
        {
            "lattice.stack_bytes": stack_bytes,
            "lattice.assemble_calls": calls["lattice.assemble"],
            "gibbs.diagonalize_calls": calls["gibbs.diagonalize"],
            "measure.groups": groups,
            "measure.sample_total_s": total_s["measure.sample"],
            "measure.sample_eigh_calls": eigh_under["measure.sample"],
            "solver.solve_total_s": total_s["solver.solve"],
            "solver.dual_evals": dual_evals,
            "solver.trace_rows": trace_rows,
            "solver.rows_per_eval": trace_rows / dual_evals if dual_evals else 0.0,
            "solver.alpha_total_s": total_s["solver.alpha"],
            "solver.hessians": calls["qbp.hessian"],
            "qbp.hessian_bytes": hessian_bytes,
            "linalg.eigh_calls": calls["linalg.eigh"],
            "linalg.eigh_share": self_s["linalg.eigh"] / traced_wall,
            "linalg.eigvalsh_calls": calls["linalg.eigvalsh"],
            "traced_wall_s": traced_wall,
            "unattributed_s": traced_wall - attributed,
            "trace_overhead_s": traced_wall - untraced_wall,
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# One benchmark run


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run operations for `seconds`, check them, and compute metrics."""
    setup_times, model = setup(workload, seed, work)
    ops, traced_ops = [], []
    started = time.perf_counter()
    while True:
        i = len(ops)
        cfg_path, op_seed = op_config(workload, seed, i, work, model)
        ops.append(run_op(workload, cfg_path, op_seed, work / f"op{i}", traced=False))
        if trace:
            # same inputs as the untraced operation, so the pair prices tracing
            traced_ops.append(run_op(workload, cfg_path, op_seed, work / f"traced{i}", traced=True))
        elapsed = time.perf_counter() - started
        # closed loop: start another round only if it should end in time
        if elapsed + elapsed / len(ops) > seconds:
            break
    every = ops + traced_ops
    attempted = len(every)
    failed = sum(op["failed"] for op in every)
    if trace:
        # the traced operation of median wall time, so its self times add up
        order = sorted(range(len(traced_ops)), key=lambda k: traced_ops[k]["wall_s"])
        mid = order[(len(order) - 1) // 2]
        metrics = layer_metrics(
            traced_ops[mid]["spans"], traced_ops[mid]["wall_s"], ops[mid]["wall_s"]
        )
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(ops, setup_times)
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "details": {
            "workload": dataclasses.asdict(workload),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "setup_s": setup_times,
            "ops": [{k: v for k, v in op.items() if k != "spans"} for op in every],
            "fail_ratio": failed / attempted,
        },
    }


def environment() -> dict:
    """Numerical environment of the run: library versions, BLAS, threads, machine."""
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    # imported only now, so no BLAS threads live in this process while it measures
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env.update(
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=blas.get("name"),
        blas_version=blas.get("version"),
        blas_config=blas.get("openblas configuration"),
    )
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


# ---------------------------------------------------------------------------
# Small helpers


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_optional(path: Path) -> dict | None:
    try:
        doc = _read_json(path)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _tail(path: Path, limit: int = 300) -> str:
    try:
        return path.read_text()[-limit:].strip()
    except OSError:
        return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gibbslearn" / "cli.py").is_file():
        print(f"error: no gibbslearn sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = result.pop("details")
    details["environment"] = environment()
    details.update(result)
    _write_json(OUT / "results" / f"{tag}.json", details)

    ops = details["ops"]
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: {len(ops)} operations, "
        f"{result['attempted']} learns attempted, {result['failed']} failed"
    )
    for op in ops:
        for problem in op["problems"]:
            print(f"  FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<28} {details['fail_ratio']:.6g} ratio")
    print("env " + json.dumps(details["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
