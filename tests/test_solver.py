import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gibbslearn.gibbs import diagonalize, gibbs, marginals, spectrum
from gibbslearn import solver
from gibbslearn.lattice import (
    HamiltonianModel,
    LatticeSpec,
    basis_stack,
    enumerate_basis,
)
from gibbslearn.lab import qbp_transform
from gibbslearn.qbp import _hessian_core, min_eigenvalue
from gibbslearn.solver import (
    SolverConfig,
    _dual_eval,
    alpha_along_segment,
    alpha_secant,
    error_bound,
    solve,
)
from gibbslearn.measure import build_plan, sample_outcomes

from conftest import (
    chain_basis,
    dense_basis,
    dense_log_partition,
    dense_marginal,
    random_chain_model,
)


def exact_marginals(model, beta):
    ens = gibbs(spectrum(model), beta)
    return marginals(basis_stack(model.basis), ens)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=0.0)
    with pytest.raises(ValueError, match="polish_max_iters"):
        SolverConfig(polish_max_iters=-1)
    with pytest.raises(ValueError, match="radius"):
        SolverConfig(radius=-5.0)


def test_objective_and_gradient_at_origin():
    basis = chain_basis(3)
    e_hat = np.random.default_rng(1).uniform(-0.3, 0.3, basis.m)
    beta = 1.3
    # H(0) = 0 so log Z = n log 2 and all model marginals vanish
    obj, grad, _ = _dual_eval(np.zeros(basis.m), e_hat, beta, basis_stack(basis))
    assert obj == pytest.approx(3 * np.log(2), rel=1e-14)
    np.testing.assert_allclose(grad, beta * e_hat, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_eval_matches_independent_oracles(data):
    # objective = log Z + beta <lam, e_hat> and gradient = beta (e_hat - e),
    # against an eigvalsh log Z and per-operator marginals, both of H(lam)
    # summed from the dense oracle stack
    n = data.draw(st.integers(1, 4), label="n")
    basis = chain_basis(n, kappa=min(n, 2))
    unit_box = hnp.arrays(float, basis.m, elements=st.floats(-1.0, 1.0))
    lam = data.draw(unit_box, label="lam")
    e_hat = data.draw(unit_box, label="e_hat")
    beta = data.draw(st.floats(0.05, 3.0), label="beta")
    model = HamiltonianModel(basis=basis, mu=lam)
    obj, grad, _ = _dual_eval(lam, e_hat, beta, basis_stack(basis))

    expected = dense_log_partition(model, beta) + beta * float(np.dot(lam, e_hat))
    assert abs(obj - expected) <= 1e-12

    dense = dense_basis(basis)
    ens = gibbs(diagonalize(np.tensordot(lam, dense, axes=1)), beta)
    e = np.array([dense_marginal(E, ens) for E in dense])
    np.testing.assert_allclose(grad, beta * (e_hat - e), rtol=0, atol=1e-12)


def test_zero_marginals_solved_instantly():
    basis = chain_basis(2)
    mu_hat, trace = solve(np.zeros(basis.m), 1.0, basis)
    np.testing.assert_array_equal(mu_hat, np.zeros(basis.m))
    assert trace.converged
    assert trace.n_iterations == 1


def test_exact_round_trip_each_beta():
    # beta=3 needs a deep gradient tolerance: the dual Hessian spectrum is
    # wide there and pg ~ 1e-7 only certifies parameter error ~ 1e-3
    model = random_chain_model(2, seed=14)
    cfg = SolverConfig(tol_grad=1e-12, polish_max_iters=200)
    for beta in (0.2, 1.0, 3.0):
        e = exact_marginals(model, beta)
        mu_hat, trace = solve(e, beta, model.basis, cfg)
        assert trace.converged
        assert np.linalg.norm(mu_hat - model.mu) < 1e-5


def test_objectives_never_increase():
    model = random_chain_model(3, seed=23)
    e = exact_marginals(model, 2.0)
    _, trace = solve(e, 2.0, model.basis)
    diffs = np.diff(trace.objectives)
    assert np.all(diffs <= 1e-12)


def test_trace_bookkeeping():
    model = random_chain_model(2, seed=14)
    e = exact_marginals(model, 1.0)
    mu_hat, trace = solve(e, 1.0, model.basis)
    assert trace.iterations == list(range(trace.n_iterations))
    assert len(trace.objectives) == len(trace.grad_norms) == len(trace.steps)
    rows = list(trace.csv_rows())
    assert len(rows) == trace.n_iterations
    assert all(len(row) == 5 for row in rows)


def test_trace_rows_and_eval_counts(monkeypatch):
    # row 0 is the start point, its one evaluation and no step; every later
    # row is an accepted Newton step of length at most 1, one evaluation or more
    model = random_chain_model(2, seed=14)
    e = exact_marginals(model, 3.0)
    calls = []
    dual_eval = solver._dual_eval
    monkeypatch.setattr(
        solver, "_dual_eval", lambda *args: calls.append(1) or dual_eval(*args)
    )
    _, trace = solve(e, 3.0, model.basis, SolverConfig(tol_grad=1e-12))
    assert trace.n_iterations > 2
    assert (trace.steps[0], trace.evals[0]) == (0.0, 1)
    assert all(0 < step <= 1 for step in trace.steps[1:])
    assert np.all(np.diff(trace.evals) >= 1)
    # the last row certifies convergence, after the last evaluation
    assert trace.converged
    assert trace.evals[-1] == trace.dual_evals == len(calls)


@pytest.fixture
def hessian_points(monkeypatch):
    """solve, as `traced(*args) -> (trace, points, accepted)`: where each of its
    Hessians is built, and each iterate it accepts, its start point first.
    Accepted iterate k is the solve's evaluation number trace.evals[k], and a
    Hessian must be built at the iterate just accepted, from the very
    eigensystem that its evaluation returned: a Hessian's point is the one
    whose evaluation returned that eigensystem."""
    evaluated, built = [], []
    dual_eval, hessian = solver._dual_eval, solver._hessian_core

    def traced_eval(lam, *args):
        result = dual_eval(lam, *args)
        evaluated.append((lam.copy(), result[2]))
        return result

    def traced_hessian(basis, spectral, beta):
        built.append((spectral, len(evaluated)))
        return hessian(basis, spectral, beta)

    monkeypatch.setattr(solver, "_dual_eval", traced_eval)
    monkeypatch.setattr(solver, "_hessian_core", traced_hessian)

    def traced(*args):
        evaluated.clear()
        built.clear()
        trace = solve(*args)[1]
        points = []
        for spectral, evals in built:
            assert evals in trace.evals
            lam, seen = evaluated[evals - 1]
            assert seen is spectral
            points.append(lam)
        accepted = [evaluated[k - 1][0] for k in trace.evals]
        return trace, points, accepted

    return traced


def test_no_hessian_is_built_at_the_origin(hessian_points):
    # the Hessian of log Z at lambda = 0 is beta^2 I, so the first Newton model
    # from the default start needs no kernel call; any other start builds its
    # own.  The kept model saves some: one per Newton step took 6 here
    model = random_chain_model(2, seed=14)
    e = exact_marginals(model, 1.0)
    trace, points, _ = hessian_points(e, 1.0, model.basis)
    assert trace.converged and trace.n_iterations > 2
    assert 0 < len(points) == trace.hessians < trace.n_iterations - 2
    assert all(lam.any() for lam in points)

    lambda0 = np.full(model.basis.m, 0.2)
    trace, points, _ = hessian_points(e, 1.0, model.basis, SolverConfig(lambda0=lambda0))
    assert trace.converged and len(points) == trace.hessians
    np.testing.assert_array_equal(points[0], lambda0)


@pytest.mark.parametrize("n", [2, 3])
def test_the_step_that_converges_is_exact_newton(hessian_points, n):
    # every iterate within ENDGAME * tol_grad of convergence builds its
    # Hessian, so the last step converges quadratically; on the BFGS model
    # alone these solves stopped at pg 4e-9 to 9e-8, and exact n = 2 learns
    # at an l2 error of up to 1.9e-6
    cfg = SolverConfig()
    for seed in range(4):
        model = random_chain_model(n, seed=seed)
        trace, points, accepted = hessian_points(exact_marginals(model, 1.0), 1.0, model.basis, cfg)
        assert trace.converged
        near = [
            x for x, pg in zip(accepted, trace.grad_norms)
            if cfg.tol_grad < pg <= solver.ENDGAME * cfg.tol_grad
        ]
        assert near
        assert all(any(np.array_equal(x, p) for p in points) for x in near)


def spd_matrices(m):
    """Random A A^T + c I: positive definite, condition number at most (m + c) / c."""
    entries = hnp.arrays(float, (m, m), elements=st.floats(-1.0, 1.0))
    return st.tuples(entries, st.floats(0.1, 2.0)).map(lambda ac: ac[0] @ ac[0].T + ac[1] * np.eye(m))


def box_qp_by_enumeration(B, g, x, radius):
    """The box QP's minimiser from every assignment of free, lower and upper to the coordinates:
    the face minimiser that lies in the box and meets the sign conditions of its multipliers."""
    m = g.size
    scale = 1e-12 * (np.abs(g).max() + np.abs(B).max() * radius + 1.0)
    best, best_q = None, np.inf
    for sides in itertools.product((0, -1, 1), repeat=m):
        sides = np.array(sides)
        free = sides == 0
        z = np.where(free, x, sides * radius)
        z[free] = x[free] - np.linalg.solve(
            B[np.ix_(free, free)], g[free] + B[free] @ np.where(free, 0.0, z - x)
        )
        r = g + B @ (z - x)
        inside = np.all(np.abs(z[free]) <= radius * (1 + 1e-12))
        if inside and np.all(sides * r <= scale):
            z = np.clip(z, -radius, radius)  # a candidate admitted just outside is scored on the box
            q = float(g @ (z - x) + 0.5 * (z - x) @ B @ (z - x))
            if q < best_q:
                best, best_q = z, q
    return best


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_box_qp_matches_the_enumeration_of_active_sets(data):
    m = data.draw(st.integers(1, 6), label="m")
    B = data.draw(spd_matrices(m), label="B")
    g = data.draw(hnp.arrays(float, m, elements=st.floats(-5.0, 5.0)), label="g")
    radius = data.draw(st.floats(0.05, 2.0), label="radius")
    # x anywhere in the box, on its faces too: the QP's box in d = z - x holds 0
    where = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
    x = radius * data.draw(hnp.arrays(float, m, elements=where), label="x")
    z = solver._box_qp(B, g, x, radius)
    expected = box_qp_by_enumeration(B, g, x, radius)
    assert np.all(np.abs(z) <= radius)
    assert np.linalg.norm(z - expected) <= 1e-12 * max(np.linalg.norm(expected - x), 1.0)

    # a box that binds nothing: the plain Newton step
    newton = np.linalg.solve(B, -g)
    wide = 2.0 * np.abs(newton).max() + 1.0
    z = solver._box_qp(B, g, np.zeros(m), wide)
    assert np.linalg.norm(z - newton) <= 1e-12 * max(np.linalg.norm(newton), 1e-300)


def test_box_qp_at_a_corner_the_gradient_leaves():
    # a saved falsifying example of the property test above: the free
    # candidate lies 9.5e-13 outside the box, and the oracle scores it on the box
    B = np.array([[3.0, 2.0], [2.0, 3.0]])
    g, x = np.full(2, 4.77e-12), np.array([-1.0, -1.0])
    assert np.array_equal(solver._box_qp(B, g, x, 1.0), x)
    assert np.array_equal(box_qp_by_enumeration(B, g, x, 1.0), x)


def test_box_qp_takes_no_uphill_step():
    # with B = -I the Newton target x + g leaves the box, and every step
    # toward it raises the model: no descent is left, so x comes back
    x, g = np.array([0.2, -0.1]), np.array([1.5, -2.0])
    z = solver._box_qp(-np.eye(2), g, x, 1.0)
    assert np.array_equal(z, x)


@pytest.mark.parametrize("failure", ["singular", "nan"])
def test_solve_stops_at_its_last_iterate_when_the_box_qp_fails(monkeypatch, failure):
    # the second Newton step's box QP fails: the solve returns the point of
    # the first step, unconverged, with that point's projected gradient
    model = random_chain_model(3, seed=5)
    e = exact_marginals(model, 1.0)
    calls, box_qp = [], solver._box_qp

    def failing(B, g, x, radius):
        calls.append(x.copy())
        if len(calls) < 2:
            return box_qp(B, g, x, radius)
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(x, np.nan)

    monkeypatch.setattr(solver, "_box_qp", failing)
    mu_hat, trace = solve(e, 1.0, model.basis)
    assert len(calls) == 2 and np.array_equal(mu_hat, calls[1]) and mu_hat.any()
    assert not trace.converged
    assert trace.n_iterations == 2
    assert np.isfinite(trace.pg_final) and trace.pg_final == trace.grad_norms[-1]
    f, _, _ = _dual_eval(mu_hat, e, 1.0, basis_stack(model.basis))
    assert f == trace.objectives[-1]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_refuses_fewer_than_one_job_before_any_trial(monkeypatch, jobs):
    def trial(*args):
        raise RuntimeError("a trial ran")

    monkeypatch.setattr(solver, "_trial_worker", trial)
    params = {
        "axis": "N", "values": [1000], "trials": 2, "n": 2, "beta": 1.0, "N": None, "kappa": 2,
        "mu": "random", "scheme": "grouped", "delta_fail": 0.05, "solver": {},
    }
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        solver.sweep(params, SolverConfig(), 0, jobs)
    with pytest.raises(RuntimeError, match="a trial ran"):
        solver.sweep(params, SolverConfig(), 0, 1)


def test_wrong_marginal_shape_rejected():
    basis = chain_basis(2)
    with pytest.raises(ValueError, match="shape"):
        solve(np.zeros(basis.m + 2), 1.0, basis)


def test_boundary_optimum_converges():
    # noisy marginals push the dual optimum onto the box boundary; the
    # polish step must solve on the free block to certify tol there
    model = random_chain_model(3, seed=31)
    ens = gibbs(spectrum(model), 1.0)
    est = sample_outcomes(build_plan(model.basis, "grouped", 30_000), ens, seed=4)
    mu_hat, trace = solve(est.e_hat, 1.0, model.basis)
    assert trace.converged
    assert np.max(np.abs(mu_hat)) <= 1.0 + 1e-15


def test_warm_start_from_truth():
    model = random_chain_model(2, seed=9)
    e = exact_marginals(model, 1.0)
    cfg = SolverConfig(lambda0=model.mu.copy())
    mu_hat, trace = solve(e, 1.0, model.basis, cfg)
    assert trace.converged
    assert trace.n_iterations <= 3


def test_error_bound_values():
    assert error_bound(0.01, 0.5, 1.0, 4) == pytest.approx(0.08, abs=1e-15)
    with pytest.raises(ValueError, match="non-strongly-convex"):
        error_bound(0.01, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        error_bound(-0.01, 0.5, 1.0, 4)


def test_alpha_along_segment_at_origin():
    basis = chain_basis(2)
    zero = np.zeros(basis.m)
    beta = 1.7
    # the Hessian at the origin is beta^2 * I, so the segment minimum is beta^2
    assert alpha_along_segment(basis, zero, zero, beta) == pytest.approx(
        beta**2, rel=1e-10
    )


def test_alpha_positive_on_random_segment():
    model = random_chain_model(2, seed=12)
    other = random_chain_model(2, seed=13)
    alpha = alpha_along_segment(model.basis, model.mu, other.mu, 1.0)
    assert 0 < alpha <= 1.0


def grouped_estimates(model, beta, seed, shots=100_000):
    ens = gibbs(spectrum(model), beta)
    return sample_outcomes(build_plan(model.basis, "grouped", shots), ens, seed=seed)


@pytest.mark.parametrize("n, seed, radius", [(3, 2, 1.0), (3, 2, 0.3), (5, 1, 1.0)])
def test_solve_matches_a_tight_tolerance_reference(n, seed, radius):
    # the default solve against one run to tol_grad 1e-12.  n = 3: at the
    # unit-box optimum 9 of the 27 coordinates sit on the box, and a Newton
    # step that holds only the coordinates exactly on the box still stalls.
    # n = 5: Newton without the Armijo rule stalls
    model = random_chain_model(n, seed=seed)
    est = grouped_estimates(model, 3.0, seed=seed)
    mu_hat, trace = solve(est.e_hat, 3.0, model.basis, SolverConfig(radius=radius))
    tight = SolverConfig(radius=radius, tol_grad=1e-12, polish_max_iters=200)
    reference, ref_trace = solve(est.e_hat, 3.0, model.basis, tight)
    assert trace.converged and ref_trace.converged
    assert np.max(np.abs(mu_hat - reference)) <= 1e-5
    assert np.max(np.abs(mu_hat)) <= radius


@pytest.mark.parametrize("beta, shots, seed", [(3.0, 10_000, 7), (2.0, 100_000, 6)])
def test_newton_binds_the_coordinates_near_the_box(beta, shots, seed):
    # n = 3, 13 and 5 coordinates end on the box.  Each Newton step goes to
    # the box QP's minimiser, which holds them there, so the clip leaves it
    # whole: 0 shortened steps, 12 and 11 evaluations
    model = random_chain_model(3, seed=seed)
    est = grouped_estimates(model, beta, seed, shots)
    _, trace = solve(est.e_hat, beta, model.basis)
    shortened = [s for s in trace.steps[1:] if s < 1]
    assert trace.converged
    assert len(shortened) <= 3
    assert trace.dual_evals <= 40


def grouped_chain_solve(seed, beta):
    model = random_chain_model(5, seed=seed)
    return solve(grouped_estimates(model, beta, seed).e_hat, beta, model.basis)[1]


# evaluation and Hessian bounds per beta; the beta = 1 cases keep their seed-only ids
FEW_EVALUATIONS = {1.0: 40, 2.0: 50, 3.0: 90, 4.0: 30}
FEW_HESSIANS = {1.0: 6, 2.0: 8, 3.0: 10, 4.0: 12}


@pytest.mark.parametrize(
    "seed, beta",
    [
        pytest.param(seed, beta, id=str(seed) if beta == 1.0 else f"beta{beta:g}-{seed}")
        for beta in FEW_EVALUATIONS
        for seed in range(6)
    ],
)
def test_solve_takes_few_dual_evaluations(seed, beta):
    # each evaluation is one 2^n eigh, and a Hessian costs several: these
    # solves take 10-11 evaluations and 4-5 Hessians at beta = 1, and 14-15
    # evaluations and 7-10 Hessians at beta = 4
    trace = grouped_chain_solve(seed, beta)
    assert trace.converged
    assert trace.dual_evals <= FEW_EVALUATIONS[beta]
    assert trace.hessians <= FEW_HESSIANS[beta]
    assert trace.n_iterations - 1 <= 25  # Newton rows, after the start row


@pytest.mark.parametrize("beta", list(FEW_EVALUATIONS))
def test_newton_rows_evaluate_only_their_backtracking_trials(beta):
    # each Newton step searches from the accepted iterate alone: row k tries
    # the steps 1, 1/2, ... down to its step, one evaluation each
    for seed in range(6):
        trace = grouped_chain_solve(seed, beta)
        for k in range(1, trace.n_iterations):
            trials = 1 + np.log2(1 / trace.steps[k])
            assert trace.evals[k] - trace.evals[k - 1] == trials


def test_unreachable_tolerance_stops_at_the_float_floor():
    # below pg ~ 1e-15 no step resolves a decrease in f: the solve must stop
    # there, not spend evaluations on steps that f and pg cannot tell apart,
    # nor Hessians on them (one per Newton step took 14)
    model = random_chain_model(3, seed=0)
    e = exact_marginals(model, 1.0)
    _, trace = solve(e, 1.0, model.basis, SolverConfig(tol_grad=1e-17))
    assert not trace.converged
    assert trace.pg_final < 1e-14
    assert trace.dual_evals <= 40
    assert trace.hessians <= 8


def test_newton_steps_hold_no_stale_eigensystem(monkeypatch):
    # each Newton Hessian is the last reader of the eigensystem at its point:
    # that must be gone before the next dual evaluation diagonalizes, and the
    # last step's m x m Newton system before the next Hessian, so the traced
    # memory at Hessian entry stays flat.  On the open
    # 2x3 lattice the eigenvectors weigh one 2^6 x 2^6 matrix and the m x m
    # system 0.8 of one, so the bound is half a matrix
    basis = enumerate_basis(LatticeSpec(2, (2, 3)), 2)
    model = HamiltonianModel(basis=basis, mu=np.random.default_rng(1).uniform(-1, 1, basis.m))
    estimates = grouped_estimates(model, 1.0, seed=1)
    basis_stack(basis)
    entries, read = [], []
    hessian, dual_eval = solver._hessian_core, solver._dual_eval

    def traced_hessian(basis, spectral, beta):
        entries.append(tracemalloc.get_traced_memory()[0])
        read.append(weakref.ref(spectral))
        return hessian(basis, spectral, beta)

    def traced_eval(*args):
        assert all(ref() is None for ref in read)
        return dual_eval(*args)

    monkeypatch.setattr(solver, "_hessian_core", traced_hessian)
    monkeypatch.setattr(solver, "_dual_eval", traced_eval)
    tracemalloc.start()
    try:
        solve(estimates.e_hat, 1.0, basis)
    finally:
        tracemalloc.stop()
    assert len(entries) >= 3
    assert max(entries) - entries[0] < 0.5 * 4**6 * 16


def dense_curvature(dense, lam, u, beta):
    """u^T H(lam) u from dense matrices: (beta^2/2) Re Tr[{W, Phi(W)} rho] - beta^2 <W>^2."""
    spectral = diagonalize(np.tensordot(lam, dense, axes=1))
    rho = gibbs(spectral, beta).rho
    W = np.tensordot(u, dense, axes=1)
    phi = qbp_transform(W, spectral, beta)
    anti = np.trace(W @ phi @ rho) + np.trace(phi @ W @ rho)
    return 0.5 * beta**2 * anti.real - beta**2 * np.trace(W @ rho).real ** 2


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_alpha_secant_is_the_mean_curvature_along_the_segment(beta):
    # the mean of u^T H u / |u|^2 over the segment from mu to a learned mu_hat,
    # by 20-point Gauss-Legendre quadrature of the dense oracle
    model = random_chain_model(3, seed=5)
    est = grouped_estimates(model, beta, seed=5)
    mu_hat, trace = solve(est.e_hat, beta, model.basis)
    table = basis_stack(model.basis)
    grad_mu = _dual_eval(model.mu, est.e_hat, beta, table)[1]
    alpha = alpha_secant(model.mu, mu_hat, grad_mu, trace.grad_final)

    dense = dense_basis(model.basis)
    u = mu_hat - model.mu
    nodes, weights = np.polynomial.legendre.leggauss(20)
    ts = 0.5 * (nodes + 1.0)
    mean = 0.5 * sum(
        w * dense_curvature(dense, model.mu + t * u, u, beta) for t, w in zip(ts, weights)
    ) / np.dot(u, u)
    assert alpha == pytest.approx(mean, rel=1e-8)
    # the mean is at least the segment's minimum, here sampled at the nodes
    spectra = (diagonalize(table.combine(model.mu + t * u)) for t in ts)
    lam_min = min(min_eigenvalue(_hessian_core(model.basis, s, beta)) for s in spectra)
    assert alpha >= lam_min


def test_alpha_secant_falls_back_to_the_hessian_at_a_point(monkeypatch):
    # the secant is NaN at u = 0 and not positive from equal gradients; learn
    # then takes the least Hessian eigenvalue at mu_hat
    model = random_chain_model(2, seed=4)
    zero = np.zeros(model.basis.m)
    assert np.isnan(alpha_secant(model.mu, model.mu, zero, zero))
    assert alpha_secant(model.mu, model.mu + 1e-3, zero, zero) == 0.0
    # exact marginals from lambda0 = mu: the solve stops at mu, so u = 0
    run = solver.learn(model, 1.5, 0, "exact", 0.05, 1, SolverConfig(lambda0=model.mu))
    assert np.array_equal(run["mu_hat"], model.mu)
    assert run["alpha_secant"] == min_eigenvalue(_hessian_core(model.basis, spectrum(model), 1.5))
    # a secant that rounding leaves non-positive
    monkeypatch.setattr(solver, "alpha_secant", lambda *ends: 0.0)
    run = solver.learn(model, 1.5, 0, "exact", 0.05, 1, SolverConfig())
    at_mu_hat = diagonalize(basis_stack(model.basis).combine(run["mu_hat"]))
    assert run["alpha_secant"] == min_eigenvalue(_hessian_core(model.basis, at_mu_hat, 1.5))
