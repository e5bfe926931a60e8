import dataclasses
import gc
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import assert_in_pattern_layout, make_quadratic_problem, quadratic_plaplace
from minfem import solvers
from minfem.coloring import ColoringError, recover_hessian
from minfem.energies import (
    PLaplaceParams,
    bar_dirichlet_values,
    build_problem,
    problem_from_mesh,
    record_plaplace,
)
from minfem.fem import SparsityPattern
from minfem.mesh import bar_mesh_from_cells
from minfem.minimize import (
    FORCING_INITIAL,
    FORCING_MAX,
    FORCING_MIN,
    INTERVAL_TOL,
    SHIFT_GROWTH,
    SHIFT_SCALE,
    ContinuationError,
    NewtonConfig,
    NewtonError,
    _forcing_term,
    _newton_direction,
    _solve_newton_system,
    benchmark_initial_guess,
    continuation_hyperelastic,
    golden_section,
    newton_minimize,
)
from minfem.solvers import SolverError


def test_golden_parabola():
    def phi(a):
        return (a - 1.0) ** 2

    alpha = golden_section(phi, phi(0.0), 2.0)
    assert abs(alpha - 1.0) < 1e-9


def test_golden_monotone_increasing_goes_to_zero():
    def phi(a):
        return a

    alpha = golden_section(phi, phi(0.0), 2.0)
    assert 0.0 <= alpha < 1e-9


def test_golden_handles_infinite_region():
    def phi(a):
        return (a - 0.3) ** 2 if a <= 0.5 else np.inf

    # dense-sampling oracle: the minimum over the finite region sits at 0.3
    grid = np.linspace(0.0, 0.5, 5001)
    assert abs(grid[np.argmin((grid - 0.3) ** 2)] - 0.3) < 1e-3
    alpha = golden_section(phi, phi(0.0), 2.0)
    assert abs(alpha - 0.3) < 1e-8


def test_golden_never_worsens_phi0():
    # worst case: every positive sample is worse than the start
    def phi(a):
        return 1.0 + a**2

    alpha = golden_section(phi, phi(0.0), 2.0, max_evals=40)
    assert phi(alpha) <= phi(0.0)


@pytest.mark.parametrize(
    "phi",
    [lambda a: (a - 1.0) ** 2, lambda a: a, lambda a: 1.0 + a**2, lambda a: -a],
    ids=["parabola", "increasing", "worse-everywhere", "decreasing"],
)
def test_golden_never_samples_zero(phi):
    samples = []
    golden_section(lambda a: samples.append(a) or phi(a), phi(0.0), 2.0)
    assert samples and min(samples) > 0.0


@pytest.mark.parametrize("phi0", [np.nan, np.inf, -np.inf])
def test_golden_rejects_nonfinite_phi0(phi0):
    with pytest.raises(ValueError, match="phi0"):
        golden_section(lambda a: a, phi0, 2.0)


def test_golden_default_tolerance_solves_a_parabola_in_19_samples():
    samples = []
    alpha = golden_section(lambda a: samples.append(a) or (a - 1.0) ** 2, 1.0, 2.0)
    assert len(samples) <= 19
    assert abs(alpha - 1.0) < 1e-12


def test_golden_lands_within_the_tolerance_off_a_quadratic():
    def phi(a):
        return (a - 0.7) ** 2 + 0.3 * (a - 0.7) ** 4

    alpha = golden_section(phi, phi(0.0), 2.0)
    assert abs(alpha - 0.7) <= INTERVAL_TOL


@pytest.mark.parametrize(
    "phi",
    [
        lambda a: -((a - 1.3) ** 2),  # the parabola's vertex, 1.3, is its maximum
        lambda a: (a + 0.5) ** 2,  # the vertex, -0.5, lies outside the bracket
        lambda a: (a - 0.5) ** 2 if a < 1.0 else np.inf,
        lambda a: -a,  # phi(alpha_max) is never sampled
    ],
    ids=["concave", "vertex-outside", "non-finite", "unknown-end"],
)
def test_golden_falls_back_to_the_bracket_midpoint(phi):
    # a tolerance above alpha_max leaves the first bracket [0, 2]: two
    # golden samples, then the candidate, which is the midpoint 1.0
    samples = []
    golden_section(lambda a: samples.append(a) or phi(a), phi(0.0), 2.0, interval_tol=3.0)
    assert samples[2] == 1.0


def test_newton_quadratic_single_step():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((5, 5))
    a = m.T @ m + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    problem = make_quadratic_problem(a, b)
    started = time.perf_counter()
    result = newton_minimize(problem, np.zeros(5))
    assert 0.0 < result.solve_s <= time.perf_counter() - started
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.u_star, np.linalg.solve(a, b), atol=1e-8)
    assert abs(result.iteration_log[0].alpha - 1.0) < 1e-6
    assert result.iteration_log[0].shift == 0.0  # plain Newton, no regularization


def test_newton_plaplace_level1_matches_table():
    problem = build_problem("plaplace", 1)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert abs(result.energy - (-7.3411)) < 5e-4
    assert 1 <= result.iterations <= 8
    assert all(rec.shift == 0.0 for rec in result.iteration_log)  # stays convex


def test_newton_gl_level2_matches_table():
    problem = build_problem("ginzburg_landau", 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert abs(result.energy - 0.3547) < 5e-4


def test_monotone_descent_and_first_order_optimality():
    problem = build_problem("ginzburg_landau", 2)
    u0 = benchmark_initial_guess(problem)
    result = newton_minimize(problem, u0)
    energies = [rec.energy for rec in result.iteration_log] + [result.energy]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    j0 = problem.evaluate(u0)
    assert result.grad_norm <= 1e-6 * (1.0 + abs(j0))


@pytest.mark.parametrize("level", [1, 2])
def test_plaplace_hessian_psd_at_solution(level):
    problem = build_problem("plaplace", level)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    h = recover_hessian(
        problem.hvp_operator(result.u_star), problem.coloring, problem.pattern
    ).toarray()
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() >= -1e-8 * np.abs(eigs).max()


def test_max_iters_error_carries_best_iterate():
    problem = build_problem("ginzburg_landau", 1)
    config = NewtonConfig(max_iters=1, grad_tol=1e-14)
    with pytest.raises(NewtonError) as info:
        newton_minimize(problem, benchmark_initial_guess(problem), config)
    best = info.value.best
    assert best is not None and best.iterations == 1
    assert best.energy <= problem.evaluate(benchmark_initial_guess(problem))


def test_nonfinite_initial_energy_raises(tiny_bar_problem):
    with pytest.raises(NewtonError, match="non-finite"):
        newton_minimize(tiny_bar_problem, np.zeros(tiny_bar_problem.n_dofs))


def test_continuation_first_step_warm_start(tiny_bar_problem):
    problem = tiny_bar_problem
    # untwisted state: stress-free reference, zero gradient
    assert abs(problem.evaluate(problem.initial_guess)) < 1e-18
    assert np.abs(problem.gradient(problem.initial_guess)).max() < 1e-9
    stepped = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, np.pi / 3.0))
    result = newton_minimize(stepped, problem.initial_guess)
    assert result.converged and result.energy > 0.0
    assert np.isfinite(result.energy)


def test_solver_override_is_honored():
    problem = build_problem("plaplace", 2)
    config = NewtonConfig(solver="diag-cg")
    result = newton_minimize(problem, benchmark_initial_guess(problem), config)
    assert abs(result.energy - (-7.7767)) < 5e-4
    assert all(rec.solver == "diag-cg" for rec in result.iteration_log)
    assert all(rec.inner_iterations > 0 for rec in result.iteration_log)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("solver", "cholesky"),
        ("grad_tol", -1e-6),
        ("grad_tol", float("nan")),
        ("energy_tol", 0.0),
        ("energy_tol", float("inf")),
        ("energy_tol", "1e-10"),
        ("max_iters", -1),
        ("max_iters", 2.5),
        ("max_iters", True),
    ],
)
def test_newton_config_rejects_bad_values_when_constructed(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        NewtonConfig(**{field: value})


def test_newton_config_accepts_its_edge_values():
    config = NewtonConfig(grad_tol=np.float64(1e-300), energy_tol=1.0, max_iters=np.int64(0))
    assert config.max_iters == 0
    for solver in ("auto", "direct", "amg", "diag-cg"):
        assert NewtonConfig(solver=solver).solver == solver


def test_benchmark_initial_guess_plaplace_is_harmonic_like():
    problem = build_problem("plaplace", 1)
    u0 = benchmark_initial_guess(problem)
    # the quadratic bootstrap solves the p = 2 problem exactly: nonzero,
    # negative under the downward load, and finite p = 3 energy
    assert np.all(np.isfinite(u0)) and u0.max() < 0.0
    assert np.isfinite(problem.evaluate(u0))


def test_nonfinite_element_hessian_takes_shifted_path():
    # |grad u|^3 has no finite second derivative at grad u = 0
    problem = build_problem("plaplace", 1)
    zero = np.zeros(problem.n_dofs)
    with pytest.raises(ColoringError, match="non-finite"):
        problem.hessian(zero)
    with pytest.raises(NewtonError) as info:
        newton_minimize(problem, zero, NewtonConfig(max_iters=1))
    first = info.value.best.iteration_log[0]
    assert first.shift > 0.0 and first.alpha > 0.0


@pytest.mark.parametrize("solver", ["direct", "amg"])
def test_indefinite_hessian_takes_a_shifted_descent_step(solver):
    # H = eps K + (3 u^2 - 1) M: at u = 0.1 the double well's negative
    # curvature outweighs eps K, so the unshifted system is refused
    problem = build_problem("ginzburg_landau", 2)
    u0 = np.full(problem.n_dofs, 0.1)
    with pytest.raises(solvers.IndefiniteSystemError):
        _solve_newton_system(
            problem.hessian(u0),
            -problem.gradient(u0),
            solver,
            problem.near_nullspace(),
            pattern=problem.pattern,
        )
    with pytest.raises(NewtonError) as info:
        newton_minimize(problem, u0, NewtonConfig(max_iters=1, solver=solver))
    first = info.value.best.iteration_log[0]
    assert first.solver == solver and first.shift > 0.0 and first.alpha > 0.0
    assert info.value.best.energy < problem.evaluate(u0)


@pytest.mark.parametrize("solver", ["direct", "amg"])
def test_refused_solves_leave_no_reference_cycles(solver):
    # a kept exception's traceback would hold the refused solves' frames,
    # and their arrays, until the garbage collector runs
    problem = build_problem("ginzburg_landau", 2)
    u0 = np.full(problem.n_dofs, 0.1)
    h, grad = problem.hessian(u0), problem.gradient(u0)
    config = NewtonConfig(solver=solver)
    gc.collect()
    gc.disable()
    try:
        *_, shift = _newton_direction(
            h, grad, config, problem.near_nullspace(), [], problem.pattern, 0.1
        )
        assert shift > 0.0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_line_search_energy_is_reused(monkeypatch):
    problem = build_problem("ginzburg_landau", 1)
    program = type(problem.program)
    evaluate_calls, gradient_calls = [], []
    evaluate, value_and_gradient = program.evaluate, program.value_and_gradient
    monkeypatch.setattr(
        program, "evaluate", lambda self, u: evaluate_calls.append(1) or evaluate(self, u)
    )
    monkeypatch.setattr(
        program,
        "value_and_gradient",
        lambda self, u: gradient_calls.append(1) or value_and_gradient(self, u),
    )
    samples = []

    def counting_golden(phi, *args):
        return golden_section(lambda a: samples.append(a) or phi(a), *args)

    monkeypatch.setattr("minfem.minimize.golden_section", counting_golden)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    # every energy replay is a line-search sample, none of them at alpha = 0
    # (J(u) comes with the gradient), and one gradient sweep per iterate
    assert len(evaluate_calls) == len(samples) > 0
    assert min(samples) > 0.0
    assert len(gradient_calls) == result.iterations + 1
    assert result.converged


def test_iteration_records_time_each_phase(monkeypatch):
    problem = build_problem("ginzburg_landau", 1)
    program = type(problem.program)
    evaluate_calls = []
    evaluate = program.evaluate
    monkeypatch.setattr(
        program, "evaluate", lambda self, u: evaluate_calls.append(1) or evaluate(self, u)
    )
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    log = result.iteration_log
    assert sum(rec.linesearch_evals for rec in log) == len(evaluate_calls)
    assert all(rec.linesearch_evals > 0 for rec in log)
    assert all(rec.hessian_s > 0.0 and rec.linesearch_s > 0.0 for rec in log)
    assert sum(rec.hessian_s + rec.linesearch_s for rec in log) < result.solve_s


def test_iteration_records_time_the_gradient_sweep():
    problem = build_problem("ginzburg_landau", 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    log = result.iteration_log
    assert log and all(rec.grad_s > 0.0 for rec in log)
    phases = sum(rec.grad_s + rec.hessian_s + rec.solve_s + rec.linesearch_s for rec in log)
    assert phases < result.solve_s


def test_gl_level2_line_searches_take_at_most_19_evaluations():
    problem = build_problem("ginzburg_landau", 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert result.iteration_log
    assert all(0 < rec.linesearch_evals <= 19 for rec in result.iteration_log)


@pytest.mark.parametrize("solver", ["direct", "amg"])
def test_iteration_records_time_the_linear_solve(solver):
    problem = build_problem("ginzburg_landau", 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem), NewtonConfig(solver=solver))
    log = result.iteration_log
    assert all(rec.solver == solver and rec.solve_s > 0.0 for rec in log)
    assert sum(rec.hessian_s + rec.solve_s + rec.linesearch_s for rec in log) < result.solve_s
    if solver == "direct":
        assert all(rec.amg_build_s == 0.0 for rec in log)
    else:
        assert all(0.0 < rec.amg_build_s <= rec.solve_s for rec in log)


def test_amg_build_time_includes_shifted_retries(monkeypatch):
    # the unshifted system is refused after its build: both builds count
    build_amg, pcg_solve = solvers.build_amg, solvers.pcg_solve

    def slow_build(h, *args):
        time.sleep(0.02)
        return build_amg(h, *args)

    def refuse_unshifted(h, *args, **kwargs):
        if h.diagonal().max() == 1.0:  # the unshifted identity Hessian
            raise SolverError("refused")
        return pcg_solve(h, *args, **kwargs)

    monkeypatch.setattr("minfem.solvers.build_amg", slow_build)
    monkeypatch.setattr("minfem.solvers.pcg_solve", refuse_unshifted)
    rng = np.random.default_rng(5)
    problem = make_quadratic_problem(np.eye(4), rng.standard_normal(4))
    result = newton_minimize(problem, np.zeros(4), NewtonConfig(solver="amg", max_iters=3))
    log = result.iteration_log
    assert log and all(rec.shift > 0.0 for rec in log)
    assert all(0.04 <= rec.amg_build_s <= rec.solve_s for rec in log)


def test_linear_solve_time_includes_shifted_retries(monkeypatch):
    def slow_failure_first(h, rhs, *args):
        if h.diagonal().max() == 1.0:  # the unshifted identity Hessian
            time.sleep(0.02)
            raise SolverError("refused")
        return _solve_newton_system(h, rhs, *args)

    monkeypatch.setattr("minfem.minimize._solve_newton_system", slow_failure_first)
    rng = np.random.default_rng(3)
    problem = make_quadratic_problem(np.eye(4), rng.standard_normal(4))
    result = newton_minimize(problem, np.zeros(4), NewtonConfig(max_iters=3))
    log = result.iteration_log
    assert log and all(rec.shift > 0.0 and rec.solve_s >= 0.02 for rec in log)


def test_shifted_hessians_are_h_plus_lambda_i_in_the_pattern_slots(monkeypatch):
    # the p = 2 Hessian at u = 0 keeps exact zeros in its pattern's slots
    problem = quadratic_plaplace(2)
    zero = np.zeros(problem.n_dofs)
    h, grad = problem.hessian(zero), problem.gradient(zero)
    candidates = []

    def refuse(candidate, *args):
        candidates.append(candidate)
        raise SolverError("refused")

    monkeypatch.setattr("minfem.minimize._solve_newton_system", refuse)
    with pytest.raises(NewtonError, match="after 21 regularization attempts"):
        _newton_direction(
            h, grad, NewtonConfig(), problem.near_nullspace(), [], problem.pattern, 0.1
        )
    assert candidates[0] is h
    assert (h.data == 0.0).any()
    lam = SHIFT_SCALE * max(float(np.abs(h.diagonal()).max()), 1.0)
    eye = sp.identity(problem.n_dofs, format="csr")
    for k, candidate in enumerate(candidates[1:]):
        assert_in_pattern_layout(candidate, h + lam * SHIFT_GROWTH**k * eye, problem.pattern)


def test_shift_refuses_a_pattern_without_a_full_diagonal():
    pattern = SparsityPattern.from_csr(sp.csr_matrix(np.array([[1, 1], [1, 0]])))
    h = pattern.matrix(np.array([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="diagonal entries in 1 of 2 rows"):
        _newton_direction(h, np.ones(2), NewtonConfig(), np.ones((2, 1)), [], pattern, 0.1)


@pytest.mark.parametrize(
    ("grad_norm", "previous_grad_norm", "previous_eta", "eta"),
    [
        pytest.param(1.0, np.nan, None, 0.1, id="first-step"),
        # 0.9 * 0.3**2 = 0.081 is under the safeguard threshold 0.1
        pytest.param(0.1, 1.0, 0.3, 0.9 * 0.1**2, id="squared-decrease"),
        pytest.param(1e-3, 0.5, 0.3, 0.9 * 2e-3**2, id="safeguard-under-threshold"),
        # 0.9 * 0.5**2 = 0.225 exceeds it and bounds the 3.6e-6 of the ratio
        pytest.param(1e-3, 0.5, 0.5, 0.9 * 0.5**2, id="safeguard"),
        pytest.param(2.0, 1.0, 0.01, 0.5, id="cap"),  # the ratio asks for 3.6
        pytest.param(1e-9, 1.0, 1e-3, 1e-8, id="floor"),
        pytest.param(np.nan, 1.0, 0.1, 1e-8, id="nonfinite-gradient"),
    ],
)
def test_forcing_term(grad_norm, previous_grad_norm, previous_eta, eta):
    assert _forcing_term(grad_norm, previous_grad_norm, previous_eta) == pytest.approx(
        eta, rel=1e-15
    )


def _record_solves(monkeypatch):
    """Wrap the Newton solves; each call's (h, rhs, rtol, x, path) goes to the list."""
    calls = []

    def recording(h, rhs, method, near_nullspace, amg, pattern, rtol):
        x, path, inner = _solve_newton_system(h, rhs, method, near_nullspace, amg, pattern, rtol)
        calls.append((h, rhs, rtol, x, path))
        return x, path, inner

    monkeypatch.setattr("minfem.minimize._solve_newton_system", recording)
    return calls


@pytest.mark.parametrize("solver", ["amg", "diag-cg"])
def test_cg_steps_reach_their_forcing_terms(solver, monkeypatch):
    calls = _record_solves(monkeypatch)
    problem = build_problem("ginzburg_landau", 3)
    result = newton_minimize(problem, benchmark_initial_guess(problem), NewtonConfig(solver=solver))
    log = result.iteration_log
    assert result.stop_reason == "grad" and all(rec.shift == 0.0 for rec in log)
    assert len(calls) == len(log)
    assert log[0].cg_rtol == FORCING_INITIAL
    for rec, (h, rhs, rtol, d, path) in zip(log, calls):
        assert path == rec.solver == solver and rtol == rec.cg_rtol
        assert FORCING_MIN <= rec.cg_rtol <= FORCING_MAX
        # the true residual ||H d + g|| / ||g||, with rhs = -g
        assert np.linalg.norm(h @ d - rhs) <= rec.cg_rtol * np.linalg.norm(rhs)
    # CG stops once it meets eta, so the first solve is far from exact
    h, rhs, _, d, _ = calls[0]
    assert np.linalg.norm(h @ d - rhs) > 1e-2 * np.linalg.norm(rhs)


def test_direct_steps_record_no_cg_tolerance():
    problem = build_problem("ginzburg_landau", 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem), NewtonConfig(solver="direct"))
    assert result.iteration_log
    assert all(rec.cg_rtol is None for rec in result.iteration_log)


def test_shifted_retries_reuse_their_steps_forcing_term(monkeypatch):
    asked = []
    pcg_solve = solvers.pcg_solve

    def refuse_unshifted(h, rhs, precond, rtol, maxiter):
        asked.append(rtol)
        if h.diagonal().max() == 1.0:  # the unshifted Hessian
            raise SolverError("refused")
        return pcg_solve(h, rhs, precond, rtol=rtol, maxiter=maxiter)

    monkeypatch.setattr("minfem.solvers.pcg_solve", refuse_unshifted)
    rng = np.random.default_rng(5)
    # a 1D Laplacian: an inexact first solve leaves work for a second step
    h = np.eye(8) - 0.45 * (np.eye(8, k=1) + np.eye(8, k=-1))
    problem = make_quadratic_problem(h, rng.standard_normal(8))
    result = newton_minimize(problem, np.zeros(8), NewtonConfig(solver="diag-cg"))
    log = result.iteration_log
    assert len(log) >= 2 and all(rec.shift > 0.0 for rec in log)
    # one refused and one shifted solve per step, both at the step's eta
    assert asked == [rec.cg_rtol for rec in log for _ in range(2)]
    assert log[0].cg_rtol == FORCING_INITIAL and log[1].cg_rtol != FORCING_INITIAL


def test_stop_reason_grad():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((5, 5))
    problem = make_quadratic_problem(m.T @ m + 5.0 * np.eye(5), rng.standard_normal(5))
    # one Newton step solves the quadratic; with max_iters=1 its iterate
    # still passes the gradient test, which comes before the step limit
    for config in (None, NewtonConfig(max_iters=1)):
        result = newton_minimize(problem, np.zeros(5), config)
        assert result.stop_reason == "grad" and result.converged
        assert result.iterations == 1


def test_stop_reason_stagnation():
    # GL energies are non-negative, so any first step decreases J by at most
    # energy_tol * (1 + |J|) with energy_tol = 1; the gradient stays far above 1e-14
    problem = build_problem("ginzburg_landau", 1)
    config = NewtonConfig(grad_tol=1e-14, energy_tol=1.0)
    result = newton_minimize(problem, benchmark_initial_guess(problem), config)
    assert result.stop_reason == "stagnation" and result.converged
    assert result.iterations == 1
    assert result.grad_norm > 1e-14 * (1.0 + abs(result.iteration_log[0].energy))


def test_stop_reason_max_iters():
    problem = build_problem("ginzburg_landau", 1)
    config = NewtonConfig(max_iters=1, grad_tol=1e-14)
    with pytest.raises(NewtonError) as info:
        newton_minimize(problem, benchmark_initial_guess(problem), config)
    best = info.value.best
    assert best.stop_reason == "max_iters" and not best.converged


def test_gradient_test_comes_before_stagnation():
    # p-Laplace L4's last step decreases J by less than energy_tol while its
    # gradient norm (5.0e-8) is already under the threshold (4.6e-6)
    problem = build_problem("plaplace", 4)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert result.stop_reason == "grad" and result.converged
    assert (result.energy.hex(), result.iterations) == ("-0x1.fc5999789c5b0p+2", 5)


def _pinned(result):
    log = result.iteration_log
    return (
        result.energy.hex(),
        result.iterations,
        tuple(rec.inner_iterations for rec in log),
        sum(rec.shift > 0.0 for rec in log),
        tuple(rec.alpha.hex() for rec in log),
    )


# Energy bits, Newton iterations, CG iterations per step, shifted steps and
# line-search alphas of two reference runs.  A change to the replay kernels
# that moves one bit of any energy, gradient or Hessian shows up here.
GL4_AMG_PINNED = (
    "0x1.628a7f2b59a32p-2",
    3,
    (2, 4, 5),
    0,
    ("0x1.245657ed3c7dbp+0", "0x1.148fbfc56a752p+0", "0x1.028ac66f81f16p+0"),
)
TINY_BAR_PINNED = (
    (
        "0x1.bfa2c7cbb435dp+2",
        5,
        (0, 0, 0, 0, 0),
        0,
        (
            "0x1.ae7969a87ec32p-1",
            "0x1.6e62cde5555a5p+0",
            "0x1.ddf2458736bedp-1",
            "0x1.00496d2825ac7p+0",
            "0x1.ffebb5d0cd7c4p-1",
        ),
    ),
    (
        "0x1.c5c5beb326378p+4",
        5,
        (0, 0, 0, 0, 0),
        0,
        (
            "0x1.30aa295ab315bp+0",
            "0x1.3fb5bdac461cfp+0",
            "0x1.075350725f0acp+0",
            "0x1.00969b2671b5dp+0",
            "0x1.0000000000000p+0",
        ),
    ),
)


def test_gl_level4_amg_bits_are_pinned():
    problem = build_problem("ginzburg_landau", 4)
    result = newton_minimize(problem, benchmark_initial_guess(problem), NewtonConfig(solver="amg"))
    assert _pinned(result) == GL4_AMG_PINNED


def test_tiny_bar_first_load_steps_bits_are_pinned(tiny_bar_problem):
    u = tiny_bar_problem.initial_guess.copy()
    for step, pinned in zip((1, 2), TINY_BAR_PINNED):
        stepped = tiny_bar_problem.with_dirichlet(
            bar_dirichlet_values(tiny_bar_problem.mesh, step * np.pi / 3.0)
        )
        result = newton_minimize(stepped, u)
        assert _pinned(result) == pinned, f"load step {step}"
        u = result.u_star


def _refuse_coloring(pattern):
    raise AssertionError("a benchmark path colored its sparsity pattern")


# the ids keep the names these cases had when first pinned, before the
# parabolic line-search step, the banded direct solve, the Horner line
# programs and the closed-form triangle areas moved the energies' last bits
@pytest.mark.parametrize(
    "kind, energy",
    [
        pytest.param(
            "plaplace", "-0x1.f1b546efd11a4p+2", id="plaplace--0x1.f1b546efd11aep+2"
        ),
        pytest.param(
            "ginzburg_landau", "0x1.6b4358a0b661dp-2", id="ginzburg_landau-0x1.6b4358a0b6620p-2"
        ),
    ],
)
def test_benchmark_setup_and_solve_never_color(kind, energy, monkeypatch):
    monkeypatch.setattr("minfem.energies.color_pattern", _refuse_coloring)
    problem = build_problem(kind, 2)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert result.energy.hex() == energy


def test_bar_load_step_never_colors(monkeypatch):
    monkeypatch.setattr("minfem.energies.color_pattern", _refuse_coloring)
    problem = problem_from_mesh("neohooke", bar_mesh_from_cells(4, 2, 2, 0.005))
    stepped = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, np.pi / 3.0))
    assert _pinned(newton_minimize(stepped, problem.initial_guess)) == TINY_BAR_PINNED[0]


def test_continuation_error_names_the_failing_step(monkeypatch, tiny_bar_problem):
    best = SimpleNamespace(u_star=tiny_bar_problem.initial_guess)
    steps = []

    def fail_at_step_2(problem, u_init, config=None):
        steps.append(len(steps) + 1)
        if len(steps) == 2:
            raise NewtonError("forced failure", best=best)
        return SimpleNamespace(u_star=u_init)

    monkeypatch.setattr("minfem.minimize.newton_minimize", fail_at_step_2)
    with pytest.raises(ContinuationError) as info:
        continuation_hyperelastic(tiny_bar_problem)
    assert info.value.step == 2 and info.value.best is best
    assert "load step 2" in str(info.value)
    assert steps == [1, 2]


# ---------------------------------------------------------------------------
# AMG structure kept with the pattern


def _count_aggregations(monkeypatch):
    """Wrap ``solvers._aggregate``; the order of each matrix it aggregates goes to the list."""
    sizes = []
    aggregate = solvers._aggregate
    monkeypatch.setattr(solvers, "_aggregate", lambda a: sizes.append(a.shape[0]) or aggregate(a))
    return sizes


def _amg_run(problem):
    """Energy bits and CG iterations per step of a forced-AMG solve from the benchmark start."""
    u0 = benchmark_initial_guess(problem)
    result = newton_minimize(problem, u0, NewtonConfig(solver="amg"))
    assert result.stop_reason == "grad"
    return result.energy.hex(), [rec.inner_iterations for rec in result.iteration_log]


def test_calls_on_one_pattern_aggregate_once(monkeypatch):
    sizes = _count_aggregations(monkeypatch)
    problem = build_problem("ginzburg_landau", 3)
    first = _amg_run(problem)
    assert sizes[0] == problem.n_dofs and len(problem.pattern.amg_structure) >= 3
    sizes.clear()
    assert _amg_run(problem) == first
    assert sizes == []
    # load-step rebinding and replaced problems share the pattern, and so the structure
    zero_boundary = {int(b): 0.0 for b in problem.mesh.boundary_nodes}
    for shared in (problem.with_dirichlet(zero_boundary), dataclasses.replace(problem)):
        assert shared.pattern is problem.pattern
        assert _amg_run(shared) == first
    assert sizes == []
    # a fresh problem has a fresh pattern: it aggregates again, to the same bits
    fresh = build_problem("ginzburg_landau", 3)
    assert fresh.pattern.amg_structure == []
    assert _amg_run(fresh) == first
    assert sizes[0] == fresh.n_dofs


def test_initial_guess_and_newton_share_amg_level_0(monkeypatch):
    monkeypatch.setattr(solvers, "DIRECT_DOF_LIMIT", 100)
    sizes = _count_aggregations(monkeypatch)
    problem = build_problem("plaplace", 3)
    u0 = benchmark_initial_guess(problem)
    assert sizes.count(problem.n_dofs) == 1
    sizes.clear()
    result = newton_minimize(problem, u0)
    assert {rec.solver for rec in result.iteration_log} == {"amg"}
    assert problem.n_dofs not in sizes


def test_a_call_after_a_solve_on_another_structure_matches_a_first_call(monkeypatch):
    first = _amg_run(build_problem("plaplace", 3))
    # the p = 2 Hessian of the p-Laplace initial guess with its exact zeros
    # dropped, on a copy: its AMG solve keeps another level-0 structure
    problem = build_problem("plaplace", 3)
    quad_params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    quad_program = record_plaplace(problem.dofmap, problem.elemdata, quad_params)
    quad = dataclasses.replace(problem, params=quad_params, program=quad_program)
    zero = np.zeros(problem.n_dofs)
    h_quad = quad.hessian(zero).copy()
    h_quad.eliminate_zeros()
    assert h_quad.nnz < problem.pattern.nnz
    _solve_newton_system(
        h_quad, -quad.gradient(zero), "amg", problem.near_nullspace(), None, problem.pattern
    )
    assert np.array_equal(problem.pattern.amg_structure[0].indices, h_quad.indices)
    sizes = _count_aggregations(monkeypatch)
    assert _amg_run(problem) == first
    assert sizes[0] == problem.n_dofs
