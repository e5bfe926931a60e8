import time

import numpy as np
import pytest

from helpers import make_quadratic_problem
from minfem.coloring import ColoringError, recover_hessian
from minfem.energies import bar_dirichlet_values, build_problem
from minfem.minimize import (
    NewtonConfig,
    NewtonError,
    benchmark_initial_guess,
    golden_section,
    newton_minimize,
)


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
    # gradient norm (3.7e-8) is already under the threshold (4.6e-6)
    problem = build_problem("plaplace", 4)
    result = newton_minimize(problem, benchmark_initial_guess(problem))
    assert result.stop_reason == "grad" and result.converged
    assert (result.energy.hex(), result.iterations) == ("-0x1.fc5999789c5b1p+2", 5)


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
    "0x1.628a7f1813ef9p-2",
    3,
    (7, 8, 8),
    0,
    ("0x1.235382032d2f6p+0", "0x1.160eb4dc65589p+0", "0x1.023ac13cd2dd2p+0"),
)
TINY_BAR_PINNED = (
    (
        "0x1.bfa2c7cbb435bp+2",
        5,
        (0, 0, 0, 0, 0),
        0,
        (
            "0x1.ae796a3e4fb20p-1",
            "0x1.6e62cdb45a4fcp+0",
            "0x1.ddf242a61f9e2p-1",
            "0x1.00495b76071fap+0",
            "0x1.002206e951713p+0",
        ),
    ),
    (
        "0x1.c5c5beb32637ap+4",
        5,
        (0, 0, 0, 0, 0),
        0,
        (
            "0x1.30aa2969ebd40p+0",
            "0x1.3fb5bd72309bap+0",
            "0x1.07534def054dcp+0",
            "0x1.009694f1775eap+0",
            "0x1.ffe7c03916fccp-1",
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
