import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gibbslearn import gibbs, qbp, solver
from gibbslearn.cli import main
from gibbslearn.lab import SUITES
from gibbslearn.gibbs import gibbs_state, marginals
from gibbslearn.lattice import (
    HamiltonianModel,
    LatticeSpec,
    assemble_hamiltonian,
    basis_stack,
    enumerate_basis,
    load_model,
)
from gibbslearn.reporting import BETA_MAX, THREAD_VARS
from gibbslearn.solver import _dual_eval, _trial_pool

from conftest import BUDGET_MESSAGE, chain_basis

# the hint of every cli `beta` rule
BETA_HINT = "finite float > 0 with a finite square"
BETAS_HINT = f"nonempty list, each {BETA_HINT}"
GRID_HINT = "nonempty list, each finite number"  # the lab's grids
LAB_BETAS_HINT = "nonempty list, each finite number >= 0 with a finite square"
FRACTIONS_HINT = "nonempty list, each finite number in [0, 0.5)"
EPSILONS_HINT = "nonempty list, each number in (0, 1e152]"
N_VALUES_HINT = "nonempty list, each int in [0, 2**63)"
MU_HINT = "'random' or nonempty list, each number"
MU_RANGE = "coefficients must lie in [-1, 1]"

def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def gen_config(n=3, **extra):
    cfg = {
        "lattice": {"dimension": 1, "side_lengths": [n]},
        "kappa": 2,
        "beta": 1.0,
        "mu": "random",
    }
    cfg.update(extra)
    return cfg


def run_gen(tmp_path, n=3, seed=1, tag="g"):
    cfg = write_config(tmp_path, f"gen_{tag}.json", gen_config(n=n))
    out = tmp_path / f"gen_out_{tag}"
    assert main(["gen", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
    return out / "model.json"


def test_gen_writes_model_and_reports_size(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", gen_config(n=3))
    out = tmp_path / "out"
    assert main(["gen", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "m=27 n=3"
    model = load_model(out / "model.json")
    assert model.basis.m == 27
    manifest = json.loads((out / "gen_manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["master_seed"] == 1


def test_gen_same_seed_same_bytes(tmp_path):
    cfg = write_config(tmp_path, "c.json", gen_config(n=2))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["gen", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
        outs.append((out / "model.json").read_bytes())
    assert outs[0] == outs[1]
    out_c = tmp_path / "c_out"
    assert main(["gen", "--config", cfg, "--seed", "10", "--out", str(out_c)]) == 0
    assert (out_c / "model.json").read_bytes() != outs[0]


def test_gen_manifest_replay_overrides_cli_seed(tmp_path):
    cfg = write_config(tmp_path, "c.json", gen_config(n=2))
    first = tmp_path / "first"
    assert main(["gen", "--config", cfg, "--seed", "4", "--out", str(first)]) == 0
    replay = tmp_path / "replay"
    # the manifest pins master_seed=4; the conflicting --seed must lose
    assert (
        main(
            [
                "gen",
                "--config",
                str(first / "gen_manifest.json"),
                "--seed",
                "99",
                "--out",
                str(replay),
            ]
        )
        == 0
    )
    assert (replay / "model.json").read_bytes() == (first / "model.json").read_bytes()


def test_gen_config_offenders_are_listed(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "bad.json", {"lattice": {"dimension": 1, "side_lengths": [2]}, "beta": -1}
    )
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "invalid gen config" in err
    assert "kappa" in err and "beta" in err


def test_gen_takes_but_never_reads_beta(tmp_path, capsys):
    # a model is coefficients over a basis, with no temperature: gen runs
    # without beta and writes the same model, but still checks a given one
    without = {key: value for key, value in gen_config(n=2).items() if key != "beta"}
    written = []
    for tag, config in [("with", gen_config(n=2)), ("without", without)]:
        cfg = write_config(tmp_path, f"{tag}.json", config)
        out = tmp_path / tag
        assert main(["gen", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        written.append((out / "model.json").read_bytes())
    assert written[0] == written[1]
    cfg = write_config(tmp_path, "negative.json", gen_config(n=2, beta=-1))
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"beta (expected {BETA_HINT}, got -1)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"kappa": True}, "kappa (expected int >= 1, got True)"),
        ({"beta": True}, f"beta (expected {BETA_HINT}, got True)"),
        (
            {"lattice": {"dimension": True, "side_lengths": [2]}},
            "lattice.dimension (expected int >= 1, got True)",
        ),
    ],
    ids=["kappa", "beta", "dimension"],
)
def test_gen_rejects_a_bool_for_a_number(tmp_path, capsys, extra, message):
    # JSON true is a Python int: "kappa": true once exited 0 and reached model.json
    cfg = write_config(tmp_path, "bool.json", gen_config(n=2, **extra))
    out = tmp_path / "o"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_learn_rejects_a_bool_shot_count(tmp_path, capsys):
    cfg = learn_config(tmp_path, run_gen(tmp_path, n=2), N=True)
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "N (expected int in [0, 2**63), got True)" in capsys.readouterr().err


def test_gen_rejects_out_of_range_mu(tmp_path, capsys):
    # NaN compares false against any bound, so it must fail the check too;
    # "random" is the one string mu takes
    for bad, message in [
        ([0.0] * 14 + [1.5], f"invalid gen config: mu (max|mu| = 1.5; {MU_RANGE})"),
        ([0.0] * 14 + [float("nan")], f"invalid gen config: mu (max|mu| = nan; {MU_RANGE})"),
        ("randomly", f"mu (expected {MU_HINT}, got 'randomly')"),
        ([0.0] * 14 + [True], f"mu (expected {MU_HINT}, got [0.0,"),
        ([0.5, 0.5], "invalid gen config: mu (expected m = 15 coefficients, got 2)"),
    ]:
        cfg = write_config(tmp_path, "bad_mu.json", gen_config(n=2, mu=bad))
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "model.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_manifest_command_mismatch(tmp_path, capsys):
    model = run_gen(tmp_path, n=2)
    manifest = str(model.parent / "gen_manifest.json")
    assert main(["learn", "--config", manifest, "--out", str(tmp_path / "o")]) == 2
    assert "records command" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change", [{"config": None}, {"master_seed": None}, {"config": [1, 2]}, {"master_seed": "1"}]
)
def test_malformed_manifest_exits_2(tmp_path, capsys, change):
    manifest = json.loads((run_gen(tmp_path, n=2).parent / "gen_manifest.json").read_text())
    manifest.update(change)
    manifest = {key: value for key, value in manifest.items() if value is not None}
    cfg = write_config(tmp_path, "manifest.json", manifest)
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "needs a config object and an int master_seed" in capsys.readouterr().err


def learn_config(tmp_path, model, name="learn.json", **extra):
    payload = {"model": str(model), "N": 40_000, "beta": 1.0, "scheme": "grouped"}
    payload.update(extra)
    return write_config(tmp_path, name, payload)


def model_config(tmp_path, command, model):
    """A config of `command` (learn, hessian or marginals) that reads `model`."""
    if command == "learn":
        return learn_config(tmp_path, model)
    return write_config(tmp_path, "dump.json", {"model": str(model), "beta": 1.0})


def test_learn_end_to_end(tmp_path, capsys):
    model_path = run_gen(tmp_path, n=3)
    cfg = learn_config(tmp_path, model_path)
    out = tmp_path / "learn_out"
    assert main(["learn", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "l2_error=" in stdout and "converged=True" in stdout

    est_lines = (out / "estimates.csv").read_text().splitlines()
    assert est_lines[0] == "l,e_hat,delta,shots"
    assert len(est_lines) == 28

    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True
    assert result["m"] == 27 and result["n"] == 3
    assert result["bound_holds"] is True
    assert result["l2_error"] <= result["bound_value"]

    meta = json.loads((out / "estimates.json").read_text())
    assert meta["scheme"] == "grouped"
    assert meta["seed"] == 3

    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,objective,grad_norm,step,evals"
    assert len(trace_lines) == result["iterations"] + 1
    # row 0 is the start point: no step, one evaluation
    start = trace_lines[1].split(",")
    assert float(start[3]) == 0.0 and start[4] == "1"

    # the learned coefficients, whose distance to the truth is l2_error
    model = load_model(model_path)
    mu_hat = np.array(result["mu_hat"])
    assert mu_hat.shape == (model.basis.m,)
    assert np.linalg.norm(mu_hat - model.mu) == result["l2_error"]

    manifest = json.loads((out / "learn_manifest.json").read_text())
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["thread_env"]) == set(THREAD_VARS)
    assert env["cpu_count"] == os.cpu_count()


def test_learn_timings_sidecar_reports_each_stage(tmp_path):
    model_path = run_gen(tmp_path, n=3)
    cfg = learn_config(tmp_path, model_path)
    out = tmp_path / "learn_out"
    assert main(["learn", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    timings = json.loads((out / "learn_timings.json").read_text())
    result = json.loads((out / "result.json").read_text())
    stages = timings["stages"]
    assert [s["stage"] for s in stages] == ["gibbs", "plan", "sample", "solve", "alpha", "bound"]
    assert all(s["wall_s"] >= 0 for s in stages)
    peaks = [s["peak_rss_mb"] for s in stages]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    assert timings["dual_evals"] == result["dual_evals"] > 0
    assert timings["hessians"] == result["hessians"] > 0
    assert timings["diagonalizations"] == result["dual_evals"] + 1
    # the solve's seconds in its Hessians, a part of the solve stage
    assert 0 < timings["hessian_s"] <= stages[3]["wall_s"]
    # wall-clock data stays in the sidecar, which the manifest lists
    assert "stages" not in result and "hessian_s" not in result
    manifest = json.loads((out / "learn_manifest.json").read_text())
    assert "learn_timings.json" in manifest["outputs"]


def test_learn_diagonalizes_each_point_once(tmp_path, monkeypatch):
    # sampling diagonalizes mu and each dual evaluation its point; the Newton
    # Hessians reuse those eigensystems and the secant alpha needs none
    calls = []

    def counted(H, original=gibbs.diagonalize):
        calls.append(1)
        return original(H)

    for module in (gibbs, qbp, solver):
        monkeypatch.setattr(module, "diagonalize", counted)
    model = load_model(run_gen(tmp_path, n=3))
    cfg = solver.SolverConfig(tol_grad=1e-12)
    run = solver.learn(model, 3.0, 1000, "exact", 0.05, 1, cfg)
    trace = run["trace"]
    assert trace.n_iterations > 2  # Newton steps from points other than the origin
    assert len(calls) == trace.dual_evals + 1
    assert run["timings"]["diagonalizations"] == len(calls)


@pytest.mark.parametrize("scheme", ["grouped", "exact"])
def test_learn_forms_one_rho_at_mu(tmp_path, monkeypatch, rho_formed, scheme):
    # the shots and e(mu) share the state at mu; each dual evaluation forms
    # its own point's rho for the gradient, and nothing else forms one
    ensembles = []

    def recorded(spectral, beta, original=gibbs.gibbs):
        ensembles.append(original(spectral, beta))
        return ensembles[-1]

    monkeypatch.setattr(solver, "gibbs", recorded)  # the learn's and the dual evaluations'
    model = load_model(run_gen(tmp_path, n=3))
    run = solver.learn(model, 1.0, 10_000, scheme, 0.05, 1, solver.SolverConfig())
    assert len(ensembles) == run["trace"].dual_evals + 1
    assert sum(ens is ensembles[0] for ens in rho_formed) == 1  # the state at mu
    assert len(rho_formed) == run["trace"].dual_evals + 1


def test_learn_from_the_truth_still_bounds_the_error(tmp_path):
    # exact marginals and lambda0 = mu: the solver returns mu itself, so
    # u = mu_hat - mu is zero and alpha comes from the Hessian at mu_hat
    model_path = run_gen(tmp_path, n=3)
    mu = load_model(model_path).mu
    cfg = learn_config(tmp_path, model_path, scheme="exact", solver={"lambda0": mu.tolist()})
    out = tmp_path / "learn_out"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert np.array_equal(np.array(result["mu_hat"]), mu)
    assert result["l2_error"] == 0.0
    assert np.isfinite(result["alpha_secant"]) and result["alpha_secant"] > 0
    assert result["bound_holds"] is True
    # the solve stops at its start point, before any Hessian
    timings = json.loads((out / "learn_timings.json").read_text())
    assert timings["hessians"] == 0 and timings["hessian_s"] == 0


def test_polish_accepts_a_newton_step_within_the_rounding_of_log_z(tmp_path):
    # f = log Z + beta <lam, e_hat> with log Z = 7.32 and beta <lam, e_hat> = -6.52:
    # the exact Newton step raises f by 2.7e-15 of rounding, beyond 4e-16 * |f|
    model_path = run_gen(tmp_path, n=4, seed=1)
    cfg = learn_config(tmp_path, model_path, N=100_000, solver={"tol_grad": 1e-9})
    out = tmp_path / "learn_out"
    assert main(["learn", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] and result["pg_final"] < 1e-13


def test_learn_exact_scheme_from_the_config(tmp_path):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, scheme="exact")
    out = tmp_path / "exact_out"
    assert main(["learn", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["l2_error"] < 1e-6
    assert result["delta_max"] == 0.0
    meta = json.loads((out / "estimates.json").read_text())
    assert meta["scheme"] == "exact"
    # the manifest records the scheme, so that replay is faithful
    manifest = json.loads((out / "learn_manifest.json").read_text())
    assert manifest["config"]["scheme"] == "exact"


def test_learn_takes_its_scheme_from_the_config_only(tmp_path, capsys):
    cfg = learn_config(tmp_path, run_gen(tmp_path, n=2))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["learn", "--config", cfg, "--out", str(out), "--scheme", "exact"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --scheme exact" in capsys.readouterr().err
    assert not out.exists()


def test_learn_manifest_replay_is_byte_identical(tmp_path):
    model_path = run_gen(tmp_path, n=3)
    cfg = learn_config(tmp_path, model_path)
    first = tmp_path / "l1"
    assert main(["learn", "--config", cfg, "--seed", "8", "--out", str(first)]) == 0
    replay = tmp_path / "l2"
    assert (
        main(
            [
                "learn",
                "--config",
                str(first / "learn_manifest.json"),
                "--out",
                str(replay),
            ]
        )
        == 0
    )
    for name in ("estimates.csv", "trace.csv"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_learn_rejects_starved_plan(tmp_path, capsys):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, N=2)
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "one shot" in capsys.readouterr().err


def test_learn_missing_model(tmp_path, capsys):
    cfg = learn_config(tmp_path, tmp_path / "ghost.json")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "model file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("step_rule", "fixed"), ("constraint", "l2"), ("max_iters", 100)]
)
def test_learn_rejects_unknown_solver_field(tmp_path, capsys, field, value):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, solver={field: value})
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"invalid learn config: solver.{field} (unknown, expected one of" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "solver, field",
    [
        ({"polish_max_iters": 1.5}, "polish_max_iters"),
        ({"polish_max_iters": -3}, "polish_max_iters"),
        ({"polish_max_iters": True}, "polish_max_iters"),
        ({"polish_max_iters": "5"}, "polish_max_iters"),
        ({"tol_grad": "x"}, "tol_grad"),
        ({"radius": None}, "radius"),
    ],
)
def test_learn_rejects_wrongly_typed_solver_fields(tmp_path, capsys, solver, field):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, solver=solver)
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"invalid learn config: solver.{field} (expected" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("tol_grad", 0),
        ("tol_grad", "x"),
        # JSON Infinity parses to inf: a tol_grad of inf stopped at the origin
        # and reported converged=True
        ("tol_grad", float("inf")),
        ("radius", -5),
        ("radius", float("inf")),
        ("polish_max_iters", -1),
        ("polish_max_iters", 1.5),
        ("polish_max_iters", True),
    ],
)
def test_one_rule_for_each_solver_field(tmp_path, capsys, key, value):
    # the library and the cli refuse the same values, by the one table
    with pytest.raises(ValueError, match=key):
        solver.SolverConfig(**{key: value})
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, solver={key: value})
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"invalid learn config: solver.{key} (expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, message",
    [
        *[
            (command, {"beta": float("inf")}, f"beta (expected {BETA_HINT}, got inf)")
            for command in ("gen", "learn", "hessian", "marginals", "sweep")
        ],
        (
            "sweep",
            {"axis": "beta", "N": 2000, "values": [1.0, float("inf")]},
            f"values (expected {BETAS_HINT}, got [1.0, inf])",
        ),
        # the square of 1e200 overflows
        ("marginals", {"beta": 1e200}, f"beta (expected {BETA_HINT}, got 1e+200)"),
        (
            "sweep",
            {"axis": "beta", "N": 2000, "values": [1.0, 1e200]},
            f"values (expected {BETAS_HINT}, got [1.0, 1e+200])",
        ),
    ],
    ids=[
        "gen", "learn", "hessian", "marginals", "sweep", "sweep-values",
        "marginals-square", "sweep-values-square",
    ],
)
def test_an_infinite_beta_exits_2_naming_it(tmp_path, capsys, command, extra, message):
    # JSON Infinity parses to inf, which `beta` took: gen wrote its model, a
    # sweep recorded failed trials, and the others failed in `gibbs` with an
    # error that named no key
    if command == "gen":
        cfg = write_config(tmp_path, "gen.json", gen_config(n=2, **extra))
    elif command == "sweep":
        cfg = sweep_config(tmp_path, **extra)
    elif command == "learn":
        cfg = learn_config(tmp_path, run_gen(tmp_path, n=2), **extra)
    else:
        dump = {"model": str(run_gen(tmp_path, n=2)), "beta": 1.0, **extra}
        cfg = write_config(tmp_path, "dump.json", dump)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("learn", {"beta": 1e200}),  # beta**2 in the dual solve
        ("hessian", {"beta": 1e200}),  # 0.5 * beta**2 in the Hessian
        ("learn", {"N": 10**29}),  # numpy's multinomial draw
    ],
    ids=["learn-beta", "hessian-beta", "learn-N"],
)
def test_a_numerical_overflow_exits_2(tmp_path, command, extra):
    # a value that would overflow is refused by the config check, before any
    # work, with a line that names its key; run in a process of its own,
    # where the test environment makes a RuntimeWarning an error too
    model = str(run_gen(tmp_path, n=2))
    if command == "learn":
        cfg = learn_config(tmp_path, model, **extra)
    else:
        cfg = write_config(tmp_path, "dump.json", {"model": model, **extra})
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "gibbslearn.cli", command, "--config", cfg, "--out", str(out)]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    [line] = run.stderr.splitlines()
    (key,) = extra
    assert line.startswith("error: ") and f" {key} (expected " in line, run.stderr
    assert not out.exists()


def test_solver_config_takes_numpy_scalars():
    cfg = solver.SolverConfig(
        tol_grad=np.float64(1e-6), radius=np.float64(0.5), polish_max_iters=np.int64(3)
    )
    assert (cfg.tol_grad, cfg.radius, cfg.polish_max_iters) == (1e-6, 0.5, 3)


@pytest.mark.parametrize("command", ["learn", "sweep"])
def test_a_bad_solver_block_names_every_offender(tmp_path, capsys, command):
    model_path = run_gen(tmp_path, n=2)
    solver_block = {"tol_grad": "x", "radius": None}
    if command == "learn":
        cfg = learn_config(tmp_path, model_path, solver=solver_block)
    else:
        cfg = sweep_config(tmp_path, solver=solver_block)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "solver.tol_grad (expected finite float > 0, got 'x')" in err
    assert "solver.radius (expected finite float > 0, got None)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "lambda0",
    [[1, 2], "x", [0.0] * 14 + ["x"], [0.0] * 14 + [None], [0.0] * 14 + [float("nan")],
     [[0.0]] * 15, [True] * 15, [0.0, [1.0]]],
)
def test_learn_rejects_a_bad_lambda0(tmp_path, capsys, lambda0):
    model_path = run_gen(tmp_path, n=2)  # m = 15
    cfg = learn_config(tmp_path, model_path, solver={"lambda0": lambda0})
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 2
    assert "lambda0 must be m = 15 finite reals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "sweep"])
@pytest.mark.parametrize("delta_fail", ["abc", 0, -0.1, 1, 1.5])
def test_delta_fail_must_be_a_probability(tmp_path, capsys, command, delta_fail):
    if command == "learn":
        cfg = learn_config(tmp_path, run_gen(tmp_path, n=2), delta_fail=delta_fail)
    else:
        cfg = sweep_config(tmp_path, delta_fail=delta_fail)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "delta_fail (expected number in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, 2])
def test_pg_final_is_the_residual_at_the_returned_point(tmp_path, steps):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(
        tmp_path, model_path, scheme="exact", solver={"polish_max_iters": steps}
    )
    out = tmp_path / "o"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 1  # not converged
    result = json.loads((out / "result.json").read_text())
    assert result["iterations"] == steps + 1  # the start row and one per step
    model = load_model(model_path)
    e = marginals(basis_stack(model.basis), gibbs_state(assemble_hamiltonian(model), 1.0))
    mu_hat = np.array(result["mu_hat"])
    g = _dual_eval(mu_hat, e, 1.0, basis_stack(model.basis))[1]
    residual = np.linalg.norm(mu_hat - np.clip(mu_hat - g, -1.0, 1.0))
    assert residual > 0.01
    assert result["pg_final"] == pytest.approx(residual, rel=1e-9)


def test_learn_unknown_scheme(tmp_path, capsys):
    model_path = run_gen(tmp_path, n=2)
    cfg = learn_config(tmp_path, model_path, scheme="psychic")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "scheme (expected one of direct, grouped, exact, got 'psychic')" in (
        capsys.readouterr().err
    )


def sweep_config(tmp_path, **extra):
    payload = {
        "axis": "N",
        "values": [2000, 8000],
        "trials": 2,
        "n": 2,
        "beta": 1.0,
        "kappa": 2,
    }
    payload.update(extra)
    return write_config(tmp_path, "sweep.json", payload)


def test_sweep_serial(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    assert "failures=0" in capsys.readouterr().out
    body = (out / "sweep.csv").read_text().splitlines()
    assert len(body) == 5  # header + 2 cells x 2 trials
    cells = (out / "cells.csv").read_text().splitlines()
    assert cells[0] == "cell,axis_value,n_trials,n_failed,median_error"
    assert len(cells) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["bound_violations"] == []
    assert len(summary["median_errors"]) == 2
    # timing sidecar exists but never contaminates the CSV bodies
    timings = json.loads((out / "sweep_timings.json").read_text())
    assert set(timings["trials"].keys()) == {"0", "1", "2", "3"}
    assert not (out / "tmp").exists()


def test_sweep_jobs_do_not_change_bytes(tmp_path):
    cfg = sweep_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--seed", "5", "--out", str(serial)]) == 0
    assert (
        main(
            ["sweep", "--config", cfg, "--seed", "5", "--out", str(parallel), "--jobs", "2"]
        )
        == 0
    )
    for name in ("sweep.csv", "cells.csv", "sweep_summary.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_workers_share_blas_threads(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    with _trial_pool(2) as pool:
        seen = list(pool.map(os.getenv, THREAD_VARS))
    assert seen == [str(max(1, os.cpu_count() // 2))] * len(THREAD_VARS)
    assert not any(var in os.environ for var in THREAD_VARS)

    # a value the user set governs, and nothing is derived next to it
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with _trial_pool(2) as pool:
        seen = list(pool.map(os.getenv, THREAD_VARS))
    assert seen == [None, "3", None]
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_sweep_manifest_replay(tmp_path):
    cfg = sweep_config(tmp_path)
    first = tmp_path / "s1"
    assert main(["sweep", "--config", cfg, "--seed", "6", "--out", str(first)]) == 0
    replay = tmp_path / "s2"
    assert (
        main(
            [
                "sweep",
                "--config",
                str(first / "sweep_manifest.json"),
                "--seed",
                "1234",
                "--out",
                str(replay),
            ]
        )
        == 0
    )
    assert (replay / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()


def test_sweep_records_per_trial_failures(tmp_path, capsys):
    # N=1 cannot give any group a shot, so every trial in that cell fails;
    # the sweep must finish, record the failures, and exit nonzero
    cfg = sweep_config(tmp_path, values=[1, 4000])
    out = tmp_path / "fail_out"
    assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 1
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["pass"] is False
    assert len(summary["failures"]) == 2
    assert all("one shot" in f["error"] for f in summary["failures"])
    cells = (out / "cells.csv").read_text().splitlines()
    assert cells[1].split(",")[3] == "2"  # n_failed in the starved cell
    assert cells[2].split(",")[3] == "0"


def test_sweep_records_a_size_its_locality_exceeds(tmp_path):
    # the basis check of each size skips n = 1, whose trials fail one by one
    cfg = write_config(
        tmp_path,
        "size.json",
        {"axis": "size", "values": [1, 3], "trials": 2, "beta": 1.0, "N": 40_000, "kappa": 2},
    )
    out = tmp_path / "size_out"
    assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 1
    failures = json.loads((out / "sweep_summary.json").read_text())["failures"]
    assert len(failures) == 2
    assert all("locality exceeds system size" in f["error"] for f in failures)
    cells = (out / "cells.csv").read_text().splitlines()
    assert [line.split(",")[3] for line in cells[1:]] == ["2", "0"]  # n_failed per size


def test_sweep_timings_give_each_trial_its_learn_timings(tmp_path):
    # the trials of the starved cell fail before their learn ends
    cfg = sweep_config(tmp_path, values=[1, 4000])
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 1
    trials = json.loads((out / "sweep_timings.json").read_text())["trials"]
    fields = {"runtime_s", "stages", "dual_evals", "hessians", "hessian_s", "diagonalizations"}
    assert all(set(trial) == fields for trial in trials.values())
    for key in ("0", "1"):
        assert trials[key]["runtime_s"] > 0
        assert [trials[key][f] for f in sorted(fields - {"runtime_s"})] == [None] * 5
    for key in ("2", "3"):
        trial = trials[key]
        stages = [s["stage"] for s in trial["stages"]]
        assert stages == ["gibbs", "plan", "sample", "solve", "alpha", "bound"]
        assert trial["runtime_s"] >= sum(s["wall_s"] for s in trial["stages"])
        assert trial["dual_evals"] > 0 and trial["hessians"] >= 0
        assert trial["diagonalizations"] == trial["dual_evals"] + 1
        assert (trial["hessian_s"] > 0) is (trial["hessians"] > 0)
        assert trial["hessian_s"] <= trial["stages"][3]["wall_s"]  # the solve's


def test_sweep_config_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"axis": "time", "values": [], "trials": 0})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "axis" in err and "values" in err and "trials" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"scheme": "psychic"}, "scheme (expected one of direct, grouped, exact"),
        ({"kappa": 0}, "kappa (expected int >= 1, got 0)"),
        ({"n": 0}, "n (expected int >= 1, got 0)"),
        ({"beta": 0}, f"beta (expected {BETA_HINT}, got 0)"),
        ({"beta": -1.0}, f"beta (expected {BETA_HINT}, got -1.0)"),
        ({"values": [1000.7, 2000]}, f"values (expected {N_VALUES_HINT}, got [1000.7, 2000])"),
        (
            {"axis": "beta", "N": 2000, "values": [1.0, -0.5]},
            f"values (expected {BETAS_HINT}, got [1.0, -0.5])",
        ),
        (
            {"axis": "size", "N": 2000, "values": [2, 0]},
            "values (expected nonempty list, each int >= 1, got [2, 0])",
        ),
        ({"trials": True}, "trials (expected int >= 1, got True)"),
        ({"values": [True, 2000]}, f"values (expected {N_VALUES_HINT}, got [True, 2000])"),
        # numpy's multinomial draws fewer than 2**63
        ({"values": [2000, 2**63]}, f"values (expected {N_VALUES_HINT}, got [2000, {2**63}])"),
        ({"mu": 5}, f"mu (expected {MU_HINT}, got 5)"),
        ({"mu": "randomly"}, f"mu (expected {MU_HINT}, got 'randomly')"),
        ({"mu": [0.5, 0.5]}, "invalid sweep config: mu (expected m = 15 coefficients, got 2)"),
        ({"mu": [0.0] * 14 + [1.5]}, f"invalid sweep config: mu (max|mu| = 1.5; {MU_RANGE})"),
        ({"axis": "size", "N": 2000, "values": [2, 3], "mu": 5}, f"mu (expected {MU_HINT}, got 5)"),
        ({"solver": {"lambda0": [0.1, 0.2]}}, "lambda0 must be m = 15 finite reals"),
        (
            {"axis": "size", "N": 2000, "values": [2, 3], "solver": {"lambda0": [0.1] * 15}},
            "lambda0 must be m = 27 finite reals",
        ),
    ],
    ids=["scheme", "kappa", "n", "beta-zero", "beta-negative", "N-values", "beta-values",
         "size-values", "trials-bool", "N-values-bool", "N-values-range", "mu-number",
         "mu-string", "mu-length", "mu-range", "size-mu-number", "lambda0-length",
         "size-lambda0-list"],
)
def test_sweep_rejects_bad_fields_before_any_trial(tmp_path, capsys, extra, message):
    cfg = sweep_config(tmp_path, **extra)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_size_axis_rejects_explicit_mu(tmp_path, capsys):
    cfg = sweep_config(tmp_path, axis="size", values=[2, 3], N=4000, mu=[0.1] * 15)
    with open(cfg) as fh:
        del_cfg = json.load(fh)
    del_cfg.pop("n")
    cfg = write_config(tmp_path, "size.json", del_cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    # the list fits n = 2's basis, but not n = 3's
    err = capsys.readouterr().err
    assert "invalid sweep config: mu (expected m = 27 coefficients, got 15)" in err
    assert not out.exists()


def test_sweep_size_axis_runs_a_mu_list_that_fits_its_size(tmp_path):
    mu = np.random.default_rng(3).uniform(-1.0, 1.0, 27).tolist()
    cfg = write_config(
        tmp_path,
        "size.json",
        {"axis": "size", "values": [3], "trials": 2, "beta": 1.0, "N": 40_000, "mu": mu},
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0", "3", "27"], ["1", "3", "27"]]


def test_lab_sum_bounds_suite(tmp_path, capsys):
    out = tmp_path / "lab_out"
    assert main(["lab", "sum-bounds", "--out", str(out)]) == 0
    assert "pass=True" in capsys.readouterr().out
    suite = json.loads((out / "sum-bounds_suite.json").read_text())
    assert suite["pass"] is True
    assert suite["n_checks"] == 1
    assert (out / "sum-bounds_00.csv").exists()
    manifest = json.loads((out / "lab_manifest.json").read_text())
    assert manifest["config"]["suite"] == "sum-bounds"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_lab_suite_passes_through_the_cli(tmp_path, suite):
    out = tmp_path / "lab_out"
    assert main(["lab", suite, "--out", str(out)]) == 0
    assert json.loads((out / f"{suite}_suite.json").read_text())["pass"] is True


@pytest.mark.parametrize(
    "suite, config, message",
    [
        ("fourier", {"omegas": [50.0]}, "quadrature did not converge"),
        ("strong-convexity", {"betas": ["x"]}, "invalid lab config: betas"),
        # each of these ran, checked nothing or died with a traceback before
        # the suites declared their keys
        (
            "strong-convexity",
            {"betas": 1.0},
            f"betas (expected {LAB_BETAS_HINT}, got 1.0)",
        ),
        ("akl", {"window_fractions": 0.2}, f"window_fractions (expected {FRACTIONS_HINT}, got 0.2"),
        (
            "strong-convexity",
            {"betas": []},
            f"betas (expected {LAB_BETAS_HINT}, got [])",
        ),
        ("strong-convexity", {"trials": 0}, "trials (expected int >= 1, got 0)"),
        ("local-unitary", {"trials": 0}, "trials (expected int >= 1, got 0)"),
        ("lower-bound", {"sizes": [0]}, "sizes (expected nonempty list, each int >= 1, got [0])"),
        ("strong-convexity", {"beta": [1.0]}, "beta (unknown, expected one of betas, trials)"),
        ("lr-decay", {"times": "0.5"}, f"times (expected {GRID_HINT}, got '0.5')"),
        ("fourier", {"omegas": []}, f"omegas (expected {GRID_HINT}, got [])"),
        # c = 0 died with a ZeroDivisionError traceback
        ("sum-bounds", {"points": [[1.0, 2, 0.0, 1.0]]}, "invalid lab config: points ("),
        ("sum-bounds", {"points": [[1.0, 2, 1.0, -1.0]]}, "invalid lab config: points ("),
        ("sum-bounds", {"points": [[-0.5, 1, 1.0, 0.7]]}, "invalid lab config: points ("),
        # in the domain, but its series need over 1e9 terms
        ("sum-bounds", {"points": [[1e-3, 0, 1e-3, 0.5]]}, "invalid lab config: points ("),
        # a negative beta ran unfiltered, as beta = 0, and passed
        (
            "infinite-temp",
            {"betas": [-1.0], "directions": 1},
            f"betas (expected {LAB_BETAS_HINT}, got [-1.0])",
        ),
        (
            "local-unitary",
            {"beta": -1.0},
            "beta (expected finite number >= 0 with a finite square, got -1.0)",
        ),
        ("fourier", {"betas": [0.0]}, f"betas (expected {BETAS_HINT}, got [0.0])"),
        # these ran no check and passed, or checked empty windows and passed
        (
            "akl",
            {"window_fractions": [0.6, 0.7]},
            f"window_fractions (expected {FRACTIONS_HINT}, got [0.6, 0.7])",
        ),
        (
            "akl",
            {"window_fractions": [-3.0]},
            f"window_fractions (expected {FRACTIONS_HINT}, got [-3.0])",
        ),
        # this exited 2 without naming the key
        (
            "lower-bound",
            {"epsilons": [-0.1]},
            f"epsilons (expected {EPSILONS_HINT}, got [-0.1])",
        ),
        # a point of three numbers
        ("sum-bounds", {"points": [[1, 2, 3]]}, "invalid lab config: points ("),
        # the square of 1e200 overflows
        ("delta-gamma", {"betas": [1.0, 1e200]}, "finite square, got [1.0, 1e+200])"),
        # these printed a RuntimeWarning, or an error that named no key
        ("fourier", {"omegas": [1e300]}, "did not converge at beta = 0.5, max|omega| = 1e+300"),
        ("fourier", {"betas": [1e200]}, f"betas (expected {BETAS_HINT}, got [1e+200])"),
        ("lower-bound", {"epsilons": [1e200]}, f"epsilons (expected {EPSILONS_HINT}, got [1e+200]"),
        # its error budget read max(omegas) = 1, so this ran, and failed, where [100.0, 1.0] exited 2
        ("fourier", {"omegas": [-100.0, 1.0]}, "did not converge at beta = 0.5, max|omega| = 100:"),
    ],
)
def test_lab_config_errors_exit_2(tmp_path, capsys, suite, config, message):
    cfg = write_config(tmp_path, "lab.json", config)
    assert main(["lab", suite, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


LAB_BETA_KEYS = [(name, key) for name, suite in SUITES.items() for key in suite.keys if "beta" in key]


@pytest.mark.parametrize("suite, key", LAB_BETA_KEYS)
def test_lab_beta_keys_survive_the_ends_of_their_rules(tmp_path, capsys, suite, key):
    # fourier at 5e-324 died on an overflow warning, and infinite-temp at
    # BETA_MAX exited 2 on a power's OverflowError that named no beta
    admits = SUITES[suite].keys[key][0][0]
    for beta in (5e-324, BETA_MAX, 0.0):
        value = [beta] if key == "betas" else beta
        if not admits(value):
            continue
        cfg = write_config(tmp_path, "lab.json", {key: value})
        code = main(["lab", suite, "--config", cfg, "--out", str(tmp_path / f"o{beta}")])
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"beta = {beta:g}" in err
        else:
            assert code in (0, 1), (beta, code)


@pytest.mark.parametrize("config", [{"epsilons": [1000.0]}, {"sizes": [100_000]}])
def test_lab_lower_bound_runs_past_the_float_range(tmp_path, capsys, config):
    # e^(10 beta eps sqrt(m)) overflowed, and the run exited 2 naming no key;
    # the family is compared in log space, and an envelope past the float range reads inf
    cfg = write_config(tmp_path, "lab.json", config)
    out = tmp_path / "o"
    assert main(["lab", "lower-bound", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    envelopes = [
        line.split(",")[4]  # the header's "envelope"
        for path in out.glob("lower-bound_*.csv")
        for line in path.read_text().splitlines()[1:]
    ]
    assert "inf" in envelopes


def test_lab_sum_bounds_runs_a_point_whose_tails_underflow(tmp_path, capsys):
    # c^(-s) underflows and Gamma(s) overflows at s = 1/p = 200; their product
    # was NaN, and the points check refused a point whose sums settle at once
    cfg = write_config(tmp_path, "lab.json", {"points": [[0, 0, 700, 0.005]]})
    out = tmp_path / "o"
    assert main(["lab", "sum-bounds", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "sum-bounds_suite.json").read_text())["pass"] is True


def test_lab_unknown_suite_lists_options(tmp_path, capsys):
    assert main(["lab", "astrology", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for name in SUITES:
        assert name in err
    assert "astrology" in err


def test_lab_manifest_replay(tmp_path):
    cfg = write_config(tmp_path, "lab.json", {"betas": [1.0]})
    first = tmp_path / "lab1"
    assert main(["lab", "fourier", "--config", cfg, "--out", str(first)]) == 0
    replay = tmp_path / "lab2"
    assert (
        main(
            ["lab", "fourier", "--config", str(first / "lab_manifest.json"), "--out", str(replay)]
        )
        == 0
    )
    assert (replay / "fourier_00.csv").read_bytes() == (first / "fourier_00.csv").read_bytes()


def test_hessian_dump(tmp_path):
    model_path = run_gen(tmp_path, n=2)
    cfg = write_config(tmp_path, "h.json", {"model": str(model_path), "beta": 2.0})
    out = tmp_path / "hess_out"
    assert main(["hessian", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "hessian.json").read_text())
    assert meta["beta"] == 2.0
    assert meta["m"] == 15
    assert meta["min_eigenvalue"] > 0
    assert set(meta) == {"beta", "m", "min_eigenvalue"}
    body = (out / "hessian.csv").read_text().splitlines()
    assert len(body) == 1 + 15 * 15


def test_marginals_dump_matches_direct_computation(tmp_path):
    model_path = run_gen(tmp_path, n=2)
    cfg = write_config(tmp_path, "m.json", {"model": str(model_path), "beta": 1.5})
    out = tmp_path / "marg_out"
    assert main(["marginals", "--config", cfg, "--out", str(out)]) == 0
    model = load_model(model_path)
    ens = gibbs_state(assemble_hamiltonian(model), 1.5)
    expected = marginals(basis_stack(model.basis), ens)
    lines = (out / "marginals.csv").read_text().splitlines()[1:]
    got = np.array([float(line.split(",")[1]) for line in lines])
    np.testing.assert_allclose(got, expected, atol=1e-12)
    meta = json.loads((out / "marginals.json").read_text())
    assert meta["log_Z"] == pytest.approx(ens.log_z, rel=1e-12)


def test_marginals_peak_memory_within_its_count(tmp_path):
    # from n = 7 on, dense matrices outweigh numpy's fixed buffers; forming
    # rho = (V w) V^dag holds four at once, more than H and rho
    model_path = run_gen(tmp_path, n=7)
    cfg = model_config(tmp_path, "marginals", model_path)
    main(["marginals", "--config", cfg, "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        assert main(["marginals", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = 4**7 * 16
    assert peak > 2 * matrix_bytes
    table = basis_stack(load_model(model_path).basis)
    assert peak <= (gibbs.DIAGONALIZE_MATRICES + table.matrices) * matrix_bytes


@pytest.mark.parametrize(
    "lattice",
    [LatticeSpec(2, (2, 3)), LatticeSpec(1, (6,)), LatticeSpec(1, (7,))],
    ids=["open-2x3", "open-chain6", "open-chain7"],
)
def test_learn_peak_memory_within_its_count(lattice):
    # on small lattices the basis table and the m x m matrices weigh several
    # matrices; the table is built inside the traced run, so it counts too
    warm = chain_basis(2)
    warm_model = HamiltonianModel(basis=warm, mu=np.full(warm.m, 0.3))
    solver.learn(warm_model, 1.0, 100_000, "grouped", 0.05, 1, solver.SolverConfig())
    basis = enumerate_basis(lattice, 2)
    basis_stack.cache_clear()
    model = HamiltonianModel(basis=basis, mu=np.random.default_rng(1).uniform(-1, 1, basis.m))
    tracemalloc.start()
    try:
        solver.learn(model, 1.0, 100_000, "grouped", 0.05, 1, solver.SolverConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= qbp.hessian_matrices(basis) * 4**lattice.n_sites * 16


def test_diagonalization_peak_rss_within_the_marginals_count():
    # tracemalloc cannot see eigh's copy of H or LAPACK's workspaces; the
    # peak RSS (Linux: kilobytes) of a fresh process can.  Linux carries the
    # peak RSS of the process that forks across exec, so the probe runs under
    # a small launcher, not straight under the test process's peak
    probe = (
        "import resource\n"
        "from gibbslearn.gibbs import spectrum\n"
        "from gibbslearn.lattice import random_chain\n"
        "model = random_chain(10, 2, 0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "spectrum(model)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    launcher = (
        "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", launcher, probe], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    growth = int(out.stdout) * 1024 / (4**10 * 16)
    assert 2 < growth <= gibbs.DIAGONALIZE_MATRICES + basis_stack(chain_basis(10)).matrices


@pytest.mark.parametrize("command", ["learn", "hessian", "marginals", "sweep"])
def test_memory_budget_blocks_large_instances(tmp_path, capsys, command):
    # an open n=20 chain: a dense matrix takes 17.6 TB, and every command
    # holds at least two
    if command == "sweep":
        cfg = sweep_config(tmp_path, axis="size", values=[3, 20], beta=1.0, N=2000)
    else:
        cfg = model_config(tmp_path, command, run_gen(tmp_path, n=20))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert re.search(BUDGET_MESSAGE, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "hessian", "marginals"])
def test_malformed_model_file_exits_2(tmp_path, capsys, command):
    payload = json.loads(run_gen(tmp_path, n=2).read_text())
    no_kappa = {key: value for key, value in payload.items() if key != "kappa"}
    lattice = payload["lattice"]
    for damaged, message in [
        (no_kappa, "kappa (missing, expected int >= 1)"),
        ([], "expected a JSON object, got list"),
        ({**payload, "lattice": []}, "lattice (expected object, got [])"),
        # each of these was read as some other model, or failed on mu's length
        ({**payload, "lattice": {**lattice, "periodic": "no"}}, "lattice.periodic (expected bool"),
        ({**payload, "kappa": 2.9}, "kappa (expected int >= 1, got 2.9)"),
        ({**payload, "lattice": {**lattice, "dimension": 1.7}}, "lattice.dimension (expected int"),
        # the spelling model.json had before it shared gen's lattice object
        (
            {**payload, "lattice": {"dims": 1, "sides": [2], "periodic": False}},
            "lattice.dims (unknown, expected one of dimension, side_lengths, periodic)",
        ),
        (
            {**payload, "lattice": {"dims": 1, "sides": [2], "periodic": False}},
            "lattice.dimension (missing, expected int >= 1)",
        ),
        # these named neither the file nor mu
        ({**payload, "mu": [2.0, *payload["mu"][1:]]}, f"mu (max|mu| = 2; {MU_RANGE})"),
        ({**payload, "mu": payload["mu"][:3]}, "mu (expected m = 15 coefficients, got 3)"),
    ]:
        model = tmp_path / "damaged.json"
        model.write_text(json.dumps(damaged))
        cfg = model_config(tmp_path, command, model)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: invalid model file {model}: " in (err := capsys.readouterr().err)
        assert message in err
        assert not out.exists()
    model.write_text("not json")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"error: invalid model file {model}: not JSON" in capsys.readouterr().err
    assert not out.exists()


def test_gen_manifest_replay_rewrites_a_model_in_the_old_spelling(tmp_path, capsys):
    first = run_gen(tmp_path, n=2)
    payload = json.loads(first.read_text())
    lattice = payload["lattice"]
    old = {**payload, "lattice": {"dims": 1, "sides": lattice["side_lengths"], "periodic": False}}
    first.write_text(json.dumps(old))
    cfg = model_config(tmp_path, "hessian", first)
    assert main(["hessian", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "lattice.dimension" in capsys.readouterr().err
    replay = tmp_path / "replay"
    manifest = str(first.parent / "gen_manifest.json")
    assert main(["gen", "--config", manifest, "--out", str(replay)]) == 0
    assert json.loads((replay / "model.json").read_text())["mu"] == payload["mu"]


SWEEP = {"axis": "N", "values": [2000], "trials": 1, "n": 2, "beta": 1.0}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("gen", {**gen_config(n=2), "kapa": 2}, "kapa"),
        (
            "gen",
            gen_config(n=2, lattice={"dimension": 1, "side_length": [2]}),
            "lattice.side_length",
        ),
        ("learn", {"N": 100, "beta": 1.0, "shceme": "exact"}, "shceme"),
        ("learn", {"N": 100, "beta": 1.0, "delta-fail": 0.5}, "delta-fail"),
        ("learn", {"N": 100, "beta": 1.0, "solver": {"tol": 1e-9}}, "solver.tol"),
        ("sweep", {**SWEEP, "trial": 2}, "trial"),
        ("sweep", {**SWEEP, "solver": {"radius": 0.5, "lamda0": None}}, "solver.lamda0"),
        ("hessian", {"beta": 1.0, "N": 100}, "N"),
        ("marginals", {"beta": 1.0, "scheme": "exact"}, "scheme"),
        ("lab", {"betas": [1.0], "beta": 1.0}, "beta"),
    ],
    ids=["gen", "gen-lattice", "learn-scheme", "learn-delta-fail", "learn-solver", "sweep",
         "sweep-solver", "hessian", "marginals", "lab"],
)
def test_every_command_rejects_a_key_it_does_not_read(tmp_path, capsys, command, config, key):
    # each of these once ran with the key ignored and recorded it in the manifest
    if command in ("learn", "hessian", "marginals"):
        config = {**config, "model": str(run_gen(tmp_path, n=2))}
    cfg = write_config(tmp_path, "typo.json", config)
    out = tmp_path / "o"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "lab":
        argv.insert(1, "fourier")
    assert main(argv) == 2
    assert f"{key} (unknown, expected one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, key", [("N", "N"), ("beta", "beta"), ("size", "n")])
def test_sweep_accepts_the_key_its_axis_sweeps(tmp_path, axis, key):
    values = {"N": [2000], "beta": [1.0], "size": [2]}[axis]
    config = {**SWEEP, "axis": axis, "values": values, "N": 2000, key: values[0]}
    cfg = write_config(tmp_path, "sweep.json", config)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "command, text, flags, message",
    [
        ("gen", "{not json", [], "is not valid JSON"),
        ("gen", "[1, 2]", [], "must hold a JSON object"),
        ("sweep", json.dumps(SWEEP), ["--jobs", "0"], "jobs must be at least 1, got 0"),
        (
            "gen",
            json.dumps(gen_config(lattice={"dimension": 2, "side_lengths": [3]})),
            [],
            "expected 2 side lengths, got 1",
        ),
    ],
    ids=["not-json", "json-array", "jobs-zero", "side-lengths"],
)
def test_refusals_exit_2_and_write_no_file(tmp_path, capsys, command, text, flags, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, below",
    [
        *[pytest.param(command, False, id=command) for command in ("gen", "lab", "learn", "sweep")],
        *[
            pytest.param(command, True, id=f"{command}-below-a-file")
            for command in ("gen", "lab", "learn", "sweep")
        ],
    ],
)
def test_an_out_that_is_a_file_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, below):
    # refused before the command runs: nothing is diagonalized
    config = {
        "gen": gen_config(n=2),
        "lab": {},
        "learn": {"model": str(run_gen(tmp_path, n=2)), "N": 40_000, "beta": 1.0},
        "sweep": SWEEP,
    }[command]
    cfg = write_config(tmp_path, "config.json", config)
    calls = []

    def forbidden(H):
        calls.append(1)
        raise AssertionError("diagonalized before --out was checked")

    for module in (gibbs, qbp, solver):
        monkeypatch.setattr(module, "diagonalize", forbidden)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    suite = ["strong-convexity"] if command == "lab" else []
    assert main([command, *suite, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert taken.read_text() == "kept\n"
    assert not calls


@pytest.mark.parametrize("command", ["gen", "learn", "sweep", "lab", "hessian", "marginals"])
def test_every_manifest_lists_the_files_its_command_writes(tmp_path, command):
    model = str(run_gen(tmp_path, n=2))
    config = {
        "gen": gen_config(n=2),
        "learn": {"model": model, "N": 40_000, "beta": 1.0},
        "sweep": SWEEP,
        "lab": {"betas": [1.0]},
        "hessian": {"model": model, "beta": 1.0},
        "marginals": {"model": model, "beta": 1.0},
    }[command]
    cfg = write_config(tmp_path, "config.json", config)
    out = tmp_path / "o"
    suite = ["fourier"] if command == "lab" else []
    assert main([command, *suite, "--config", cfg, "--out", str(out)]) == 0
    manifest = f"{command}_manifest.json"
    outputs = json.loads((out / manifest).read_text())["outputs"]
    assert sorted(outputs) == sorted(set(os.listdir(out)) - {manifest})


def test_seed_range_validated(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", gen_config(n=2))
    assert main(["gen", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "64-bit" in capsys.readouterr().err


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "gibbslearn.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "gibbslearn" in out.stdout


def test_cli_import_leaves_scipy_special_out(tmp_path):
    # no command imports scipy, lab included: scipy.special costs about 0.3 s
    # per process, scipy.linalg with scipy.optimize about 0.5 s, more than a
    # whole n = 7 learn, and the lab's series check bounds its tails in closed
    # form.  So every manifest records scipy's version as null; and an exact
    # learn, hessian and marginals draw nothing, so they leave numpy.random
    # (12 ms, 6.3 MB with the secrets module it loads) out as well.  No command
    # but lab loads the lab, whose compile (about 15 ms) every process would pay
    model = run_gen(tmp_path, n=2)
    learn = ["learn", "--config", learn_config(tmp_path, model)]
    exact = ["learn", "--config", learn_config(tmp_path, model, "exact.json", scheme="exact")]
    dump = ["--config", model_config(tmp_path, "hessian", model)]
    scipy_modules = ["scipy", "scipy.linalg", "scipy.optimize", "scipy.special"]
    kept_out = ["gibbslearn.lab", *scipy_modules]
    gen = ["gen", "--config", write_config(tmp_path, "gen.json", gen_config(n=2))]
    cases = [
        ("gen", gen, kept_out),
        ("sweep", ["sweep", "--config", sweep_config(tmp_path)], kept_out),
        ("learn", exact, [*kept_out, "numpy.random"]),
        ("learn", learn, kept_out),
        ("hessian", ["hessian", *dump], [*kept_out, "numpy.random"]),
        ("marginals", ["marginals", *dump], [*kept_out, "numpy.random"]),
        ("lab", ["lab", "sum-bounds"], scipy_modules),
    ]
    # argv: the modules to look for, comma-separated, then the command line
    code = (
        "import sys, gibbslearn.cli; code = gibbslearn.cli.main(sys.argv[2:]); "
        "print(code, sorted(set(sys.argv[1].split(',')) & set(sys.modules)))"
    )
    for i, (command, args, absent) in enumerate(cases):
        out = tmp_path / f"o{i}"
        argv = [sys.executable, "-c", code, ",".join(absent), *args, "--out", str(out)]
        run = subprocess.run(argv, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 []", (args, run.stdout)
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["environment"]["scipy"] is None


def test_cli_import_leaves_the_lab_and_multiprocessing_out():
    # only `lab` reads the lab, and only a sweep's pool needs multiprocessing
    code = (
        "import sys, gibbslearn.cli; "
        "print(sorted({'gibbslearn.lab', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
