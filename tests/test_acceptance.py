"""Release gate: thirteen binding checks with pinned tolerances.

Each test prints (and records for the terminal summary) a single line
``ACCEPTANCE <k> <label>: PASS|FAIL`` so the gate can be audited at a glance.
Tolerances here are contractual; loosening one to make a failure disappear is
never acceptable.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from gibbslearn.cli import main as cli_main
from gibbslearn.gibbs import gibbs_state, marginals
from gibbslearn.lab import (
    akl_concentration_check,
    global_to_local_check,
    ising_chain,
    lieb_robinson_decay,
    lower_bound_family,
    strong_convexity_probe,
    verify_fourier_pair,
    verify_sum_bounds,
)
from gibbslearn.lattice import (
    HamiltonianModel,
    LatticeSpec,
    assemble_hamiltonian,
    basis_stack,
    enumerate_basis,
)
from gibbslearn.measure import build_plan, sample_outcomes
from gibbslearn.qbp import hessian_logZ
from gibbslearn.reporting import trial_seed
from gibbslearn.solver import (
    SolverConfig,
    alpha_along_segment,
    error_bound,
    solve,
)

from conftest import (
    ACCEPTANCE_LINES,
    chain_basis,
    delta_gamma,
    dense_basis,
    grad_logZ,
    random_chain_model,
)

BETAS = (0.2, 1.0, 3.0)


def _record(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _log_z_raw(stack: np.ndarray, mu: np.ndarray, beta: float) -> float:
    # direct evaluation that skips model construction, so finite-difference
    # probes may step outside the unit coefficient box
    H = np.tensordot(mu, stack, axes=1)
    return float(logsumexp(-beta * np.linalg.eigvalsh(H)))


def test_acceptance_01_derivatives_match_finite_differences():
    started = time.perf_counter()
    basis = chain_basis(3)
    stack = dense_basis(basis)
    m = basis.m
    worst_grad = 0.0
    worst_hess = 0.0
    for seed in range(20):
        model = random_chain_model(3, seed=seed)
        mu = model.mu
        for beta in BETAS:
            g = grad_logZ(model, beta)
            h = 1e-5
            fd_g = np.empty(m)
            for j in range(m):
                up, dn = mu.copy(), mu.copy()
                up[j] += h
                dn[j] -= h
                fd_g[j] = (
                    _log_z_raw(stack, up, beta) - _log_z_raw(stack, dn, beta)
                ) / (2 * h)
            rel = float(np.linalg.norm(fd_g - g) / np.linalg.norm(g))
            worst_grad = max(worst_grad, rel)

            H = hessian_logZ(model, beta)
            h2 = 5e-4
            f0 = _log_z_raw(stack, mu, beta)
            fd_H = np.empty((m, m))
            for j in range(m):
                up, dn = mu.copy(), mu.copy()
                up[j] += h2
                dn[j] -= h2
                fd_H[j, j] = (
                    _log_z_raw(stack, up, beta)
                    - 2 * f0
                    + _log_z_raw(stack, dn, beta)
                ) / h2**2
                for k in range(j + 1, m):
                    pp, pm, mp, mm = (mu.copy() for _ in range(4))
                    pp[j] += h2
                    pp[k] += h2
                    pm[j] += h2
                    pm[k] -= h2
                    mp[j] -= h2
                    mp[k] += h2
                    mm[j] -= h2
                    mm[k] -= h2
                    val = (
                        _log_z_raw(stack, pp, beta)
                        - _log_z_raw(stack, pm, beta)
                        - _log_z_raw(stack, mp, beta)
                        + _log_z_raw(stack, mm, beta)
                    ) / (4 * h2**2)
                    fd_H[j, k] = fd_H[k, j] = val
            worst_hess = max(worst_hess, float(np.max(np.abs(fd_H - H))))
    elapsed = time.perf_counter() - started
    ok = worst_grad < 1e-5 and worst_hess < 1e-4 and elapsed < 60.0
    _record(
        1,
        "derivatives vs finite differences",
        ok,
        f"grad rel {worst_grad:.2e}, hess abs {worst_hess:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_02_hessian_dominates_filtered_variance():
    worst = math.inf
    violations = 0
    for seed in range(20):
        model = random_chain_model(3, seed=seed)
        for beta in BETAS:
            rep = strong_convexity_probe(model, beta, trials=100, seed=seed)
            worst = min(worst, rep.min_slack)
            if not rep.passed:
                violations += 1
    ok = violations == 0 and worst >= -1e-8
    _record(
        2,
        "hessian >= filtered variance",
        ok,
        f"min slack {worst:.2e} over 6000 directions",
    )


def test_acceptance_03_exact_marginal_round_trip():
    started = time.perf_counter()
    cases = [(2, s) for s in range(4)] + [(3, s) for s in range(3)] + [(4, s) for s in range(3)]
    cfg = SolverConfig(tol_grad=1e-13, polish_max_iters=200)
    worst = 0.0
    failures = 0
    total = 0
    for n, seed in cases:
        model = random_chain_model(n, seed=seed)
        stack = basis_stack(model.basis)
        for beta in BETAS:
            total += 1
            e = marginals(stack, gibbs_state(assemble_hamiltonian(model), beta))
            mu_hat, _ = solve(e, beta, model.basis, cfg)
            err = float(np.linalg.norm(mu_hat - model.mu))
            worst = max(worst, err)
            if err > 1e-4:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and total == 30 and elapsed < 300.0
    _record(
        3,
        "exact round trip",
        ok,
        f"worst l2 {worst:.2e} over {total} instances, {elapsed:.1f}s",
    )


def test_acceptance_04_error_bound_sound_under_noise():
    beta = 1.0
    holds = 0
    checked = 0
    worst_margin = math.inf
    for t in range(50):
        model = random_chain_model(3, seed=4000 + t)
        ens = gibbs_state(assemble_hamiltonian(model), beta)
        plan = build_plan(model.basis, "grouped", 100_000)
        est = sample_outcomes(plan, ens, seed=9000 + t)
        mu_hat, _ = solve(est.e_hat, beta, model.basis)
        err = float(np.linalg.norm(mu_hat - model.mu))
        alpha = alpha_along_segment(model.basis, model.mu, mu_hat, beta)
        if alpha <= 0:
            continue
        checked += 1
        bound = error_bound(float(np.max(est.delta)), alpha, beta, model.basis.m)
        worst_margin = min(worst_margin, bound - err)
        if err <= bound:
            holds += 1
    ok = checked > 0 and holds == checked
    _record(
        4,
        "error bound soundness",
        ok,
        f"{holds}/{checked} trials, min margin {worst_margin:.3g}",
    )


def test_acceptance_05_estimator_error_scales_like_inverse_sqrt_N():
    basis = chain_basis(3)
    mu = np.random.default_rng(11).uniform(-1.0, 1.0, basis.m) * 0.6
    model = HamiltonianModel(basis=basis, mu=mu)
    beta = 1.0
    ens = gibbs_state(assemble_hamiltonian(model), beta)
    Ns = (1_000, 10_000, 100_000, 1_000_000)
    trials = 20
    medians = []
    t = 0
    for N in Ns:
        errs = []
        for _ in range(trials):
            rng = np.random.default_rng(trial_seed(0, t))
            measure_seed = int(rng.integers(2**63))
            est = sample_outcomes(build_plan(basis, "grouped", N), ens, seed=measure_seed)
            mu_hat, _ = solve(est.e_hat, beta, basis)
            errs.append(float(np.linalg.norm(mu_hat - mu)))
            t += 1
        medians.append(float(np.median(errs)))
    slope = float(np.polyfit(np.log(Ns), np.log(medians), 1)[0])
    ok = -0.6 <= slope <= -0.4
    _record(
        5,
        "median error scaling in N",
        ok,
        f"slope {slope:.3f}, medians {['%.3g' % v for v in medians]}",
    )


def test_acceptance_06_filter_pair_quadrature():
    started = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        report = verify_fourier_pair(beta, np.linspace(-5.0, 5.0, 41))
        worst = max(worst, report.grid["max_abs_error"])
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    _record(
        6,
        "time/frequency filter pair",
        ok,
        f"max quadrature error {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_07_energy_block_concentration():
    model = ising_chain(6, 0.5, 0.4)
    energies = np.linalg.eigvalsh(assemble_hamiltonian(model))
    mid = 0.5 * (energies[0] + energies[-1])
    rng = np.random.default_rng(77)
    operators = []
    for k in range(10):
        if k < 5:
            X = (int(rng.integers(0, 6)),)
            dim = 2
        else:
            left = int(rng.integers(0, 5))
            X = (left, left + 1)
            dim = 4
        M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        operators.append((M + M.conj().T, X))
    violations = 0
    total = 0
    min_slack = math.inf
    for O, X in operators:
        for gap in range(2, 13):
            rep = akl_concentration_check(
                model, O, X, x=mid - gap / 2.0, y=mid + gap / 2.0
            )
            total += 1
            min_slack = min(min_slack, rep.min_slack)
            if not rep.passed:
                violations += 1
    ok = violations == 0
    _record(
        7,
        "off-shell block suppression",
        ok,
        f"{total} windows, min slack {min_slack:.3g}",
    )


def test_acceptance_08_local_reductions_carry_the_mass():
    rng = np.random.default_rng(88)
    violations = 0
    min_rel_slack = math.inf
    for k in range(500):
        M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        if k % 2 == 0:
            M = M + M.conj().T
        rep = global_to_local_check(M, (0, 1, 2), 3)
        total = rep.rows[0][0]
        min_rel_slack = min(min_rel_slack, rep.min_slack / max(total, 1e-300))
        if not rep.passed:
            violations += 1
    ok = violations == 0 and min_rel_slack >= -1e-10
    _record(
        8,
        "global-to-local norm transfer",
        ok,
        f"500 operators, min relative slack {min_rel_slack:.3g}",
    )


def test_acceptance_09_spectral_window_variance_bound():
    model = random_chain_model(3, seed=42)
    ens = gibbs_state(assemble_hamiltonian(model), 1.0)
    rng = np.random.default_rng(99)
    checked = 0
    min_slack = math.inf
    for _ in range(20):
        M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        A = M + M.conj().T
        norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        for gamma in np.linspace(0.0, 1.05 * norm, 20):
            out = delta_gamma(A, ens, float(gamma))
            min_slack = min(min_slack, out.slack)
            checked += 1
    ok = checked == 400 and min_slack >= -1e-10
    _record(
        9,
        "outside-window weight bound",
        ok,
        f"{checked} (A, gamma) pairs, min slack {min_slack:.3g}",
    )


def test_acceptance_10_evolved_operators_stay_quasi_local():
    # coupling scales are kept inside the quasi-local regime: by t = 2 a
    # scale-0.5 dense chain's light cone fills all six sites and the
    # pinching truncation is no longer pointwise monotone in r
    instances = [
        ising_chain(6, 0.5, 0.4),
        random_chain_model(6, seed=0, scale=0.2),
        random_chain_model(6, seed=1, scale=0.2),
    ]
    profiles = 0
    ok = True
    worst_final = 0.0
    for model in instances:
        ops = [
            op
            for op in model.basis.ops
            if op.support == (2,) and op.letters in ("Z", "X")
        ]
        for E in ops:
            for t in (0.5, 1.0, 2.0):
                report = lieb_robinson_decay(E, model, t, range(6))
                column = report.header.index("truncation_norm")
                norms = [row[column] for row in report.rows]
                profiles += 1
                worst_final = max(worst_final, norms[-1])
                nonincreasing = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
                if not nonincreasing or norms[-1] >= 1e-10:
                    ok = False
    _record(
        10,
        "truncation decay of evolved operators",
        ok,
        f"{profiles} profiles, worst full-radius norm {worst_final:.2e}",
    )


def test_acceptance_11_series_bounds():
    rep = verify_sum_bounds()
    ok = rep.passed and len(rep.rows) == 27 and rep.grid["tail_tol"] == 1e-12
    _record(
        11,
        "analytic series bounds",
        ok,
        f"27 grid points, min slack {rep.min_slack:.3g}",
    )


def test_acceptance_12_product_family_norms():
    rng = np.random.default_rng(123)
    betas = (0.5, 1.0, 2.0)
    ok = True
    worst_gap = 0.0
    for k in range(100):
        m = int(rng.integers(1, 11))
        beta = betas[k % 3]
        eps = float(rng.uniform(0.05, 1.0))
        raw = rng.uniform(0.0, 1.0, m)
        norm = float(np.linalg.norm(raw))
        mu = raw * (10.0 * eps / norm) * float(rng.uniform(0.0, 1.0)) if norm else raw
        rep = lower_bound_family(m, beta, eps, mu)
        gap = rep.rows[0][5]
        worst_gap = max(worst_gap, gap)
        if not rep.passed or gap > 1e-10:
            ok = False
    _record(
        12,
        "product family closed form",
        ok,
        f"100 points, worst tensor gap {worst_gap:.2e}",
    )


def test_acceptance_13_manifest_replay_reproduces_bytes(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    mismatches = []

    def compare(first, replay, names):
        for name in names:
            if (first / name).read_bytes() != (replay / name).read_bytes():
                mismatches.append(name)

    gen_cfg = write(
        "gen.json",
        {
            "lattice": {"dimension": 1, "side_lengths": [3]},
            "kappa": 2,
            "beta": 1.0,
            "mu": "random",
        },
    )
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert cli_main(["gen", "--config", gen_cfg, "--seed", "17", "--out", str(g1)]) == 0
    assert (
        cli_main(
            ["gen", "--config", str(g1 / "gen_manifest.json"), "--seed", "55", "--out", str(g2)]
        )
        == 0
    )
    compare(g1, g2, ["model.json"])

    learn_cfg = write(
        "learn.json",
        {"model": str(g1 / "model.json"), "N": 50_000, "beta": 1.0, "scheme": "grouped"},
    )
    l1, l2 = tmp_path / "l1", tmp_path / "l2"
    assert cli_main(["learn", "--config", learn_cfg, "--seed", "3", "--out", str(l1)]) == 0
    assert (
        cli_main(
            ["learn", "--config", str(l1 / "learn_manifest.json"), "--out", str(l2)]
        )
        == 0
    )
    compare(l1, l2, ["estimates.csv", "trace.csv"])

    sweep_cfg = write(
        "sweep.json",
        {
            "axis": "N",
            "values": [2000, 8000],
            "trials": 3,
            "n": 2,
            "beta": 1.0,
            "kappa": 2,
        },
    )
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert (
        cli_main(["sweep", "--config", sweep_cfg, "--seed", "7", "--out", str(s1), "--jobs", "2"])
        == 0
    )
    assert (
        cli_main(
            ["sweep", "--config", str(s1 / "sweep_manifest.json"), "--out", str(s2)]
        )
        == 0
    )
    compare(s1, s2, ["sweep.csv", "cells.csv"])

    lab_cfg = write("lab.json", {"betas": [1.0]})
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert cli_main(["lab", "fourier", "--config", lab_cfg, "--out", str(b1)]) == 0
    assert (
        cli_main(
            ["lab", "fourier", "--config", str(b1 / "lab_manifest.json"), "--out", str(b2)]
        )
        == 0
    )
    compare(b1, b2, ["fourier_00.csv"])

    ok = not mismatches
    _record(
        13,
        "manifest replay byte-identity",
        ok,
        "gen+learn+sweep+lab CSV bodies" if ok else f"mismatches: {mismatches}",
    )
