"""Newton minimization with golden-section line search.

Each iteration takes the exact sparse Hessian from
``EnergyProblem.hessian`` (element blocks from the energy tape's gathers
for the benchmark energies, the colored recovery for other problems),
solves for the Newton direction (direct or AMG-CG depending on size;
successive AMG builds in one call share the aggregation wherever the
sparsity structure and near-nullspace repeat exactly), regularizes with
an escalating Tikhonov shift when the solve fails or the direction is
not a descent direction, and line-searches with golden section,
rejecting steps where the energy is non-finite. A load-stepping loop
handles the twisted-bar continuation.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import solvers
from .coloring import ColoringError, recover_hessian
from .energies import (
    EnergyProblem,
    PLaplaceParams,
    bar_dirichlet_values,
    build_problem,
    record_plaplace,
)

__all__ = [
    "NewtonConfig",
    "IterationRecord",
    "MinimizeResult",
    "NewtonError",
    "golden_section",
    "newton_minimize",
    "continuation_hyperelastic",
    "benchmark_initial_guess",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# golden-section line search over [0, ALPHA_MAX]
ALPHA_MAX = 2.0
INTERVAL_TOL = 1e-10
MAX_EVALS = 100
# Tikhonov shifts: SHIFT_SCALE * max(max |diag H|, 1), then SHIFT_GROWTH
# times larger, SHIFT_TRIES shifts in all
SHIFT_SCALE = 1e-6
SHIFT_GROWTH = 10.0
SHIFT_TRIES = 20


@dataclass(frozen=True)
class NewtonConfig:
    """The settable parts of the method.

    The line search and the Tikhonov shifts use the module constants
    above.  ``grad_tol`` is a scale: the stopping threshold on the gradient
    infinity norm is ``grad_tol * (1 + |J(u_init)|)``.  ``energy_tol``
    stops on relative energy stagnation.  ``solver`` picks the linear
    path: auto (direct up to 15,000 dofs, AMG-CG above), or forced
    direct / amg / diag-cg.
    """

    grad_tol: float = 1e-6
    energy_tol: float = 1e-10
    max_iters: int = 200
    solver: str = "auto"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    energy: float
    grad_norm: float
    alpha: float
    solver: str
    inner_iterations: int
    shift: float  # Tikhonov lambda actually used (0 when plain Newton)


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """Final iterate of one Newton minimization and why it stopped.

    ``stop_reason`` is ``"grad"`` (gradient norm under the threshold),
    ``"stagnation"`` (relative energy decrease under ``energy_tol``,
    whatever the gradient norm) or ``"max_iters"`` (the best iterate
    carried by the ``NewtonError`` raised after ``max_iters`` steps).
    ``solve_s`` is the wall time of the ``newton_minimize`` call that
    produced it.
    """

    u_star: np.ndarray
    u_full: np.ndarray
    energy: float
    iterations: int
    grad_norm: float
    iteration_log: tuple[IterationRecord, ...]
    converged: bool
    stop_reason: str
    solve_s: float


class NewtonError(RuntimeError):
    """Minimization failure; carries the best iterate seen so far."""

    def __init__(self, message: str, best: MinimizeResult | None = None):
        super().__init__(message)
        self.best = best


def golden_section(
    phi: Callable[[float], float],
    alpha_max: float,
    interval_tol: float = INTERVAL_TOL,
    max_evals: int = MAX_EVALS,
) -> float:
    """Golden-section minimization of phi on [0, alpha_max].

    Non-finite values compare as +inf.  Returns the midpoint of the final
    bracket when it improves on phi(0); otherwise falls back to the best
    sampled point, then to a bisected shrink toward 0.  The result alpha
    always satisfies phi(alpha) <= phi(0) (alpha = 0 in the worst case).
    """
    evals = 0
    best_alpha, best_val = 0.0, math.inf

    def f(alpha: float) -> float:
        nonlocal evals, best_alpha, best_val
        evals += 1
        value = phi(alpha)
        value = value if np.isfinite(value) else math.inf
        if alpha > 0.0 and value < best_val:
            best_alpha, best_val = alpha, value
        return value

    f0 = phi(0.0)
    if not np.isfinite(f0):
        raise ValueError("phi(0) must be finite")
    lo, hi = 0.0, float(alpha_max)
    m1 = hi - _INV_GOLDEN * (hi - lo)
    m2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(m1), f(m2)
    while hi - lo > interval_tol and evals < max_evals:
        if f1 <= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(m2)
    alpha = 0.5 * (lo + hi)
    if f(alpha) <= f0:
        return alpha
    if best_val <= f0:
        return best_alpha
    # everything sampled was worse: shrink toward zero
    alpha = float(alpha_max)
    while evals < max_evals:
        alpha *= 0.5
        if f(alpha) < f0:
            return alpha
    return 0.0


@dataclass(eq=False)
class _AmgReuse:
    """The AMG structure of the latest build, kept for one Newton solve."""

    structure: tuple[solvers.LevelStructure, ...] = ()


def _solve_newton_system(
    h: sp.csr_matrix,
    rhs: np.ndarray,
    method: str,
    near_nullspace: np.ndarray,
    amg: _AmgReuse | None = None,
) -> tuple[np.ndarray, str, int]:
    """One linear solve along the configured path; returns (x, path, inner).

    ``auto`` solves directly up to ``solvers.DIRECT_DOF_LIMIT`` unknowns and
    by AMG-CG above.  An AMG build starts from ``amg.structure`` and leaves
    its own there; only the structure is kept, never the hierarchy.
    """
    n = rhs.shape[0]
    if method == "auto":
        method = "direct" if n <= solvers.DIRECT_DOF_LIMIT else "amg"
    if method == "direct":
        return solvers.solve_direct(h, rhs), "direct", 0
    if method == "amg":
        hierarchy = solvers.build_amg(h, near_nullspace, amg.structure if amg else ())
        if amg is not None:
            amg.structure = hierarchy.structure
        x, inner = solvers.pcg_solve(h, rhs, hierarchy, rtol=1e-8, maxiter=400)
        return x, "amg", inner
    if method == "diag-cg":
        x, inner = solvers.pcg_solve(h, rhs, h.diagonal(), rtol=1e-8, maxiter=10_000)
        return x, "diag-cg", inner
    raise ValueError(f"unknown solver method {method!r}")


def _newton_direction(
    h: sp.csr_matrix | None,
    grad: np.ndarray,
    config: NewtonConfig,
    near_nullspace: np.ndarray,
    amg: _AmgReuse,
) -> tuple[np.ndarray, str, int, float]:
    """Descent direction from H d = -g, with escalating Tikhonov shifts."""
    n = grad.shape[0]
    diag_max = float(np.abs(h.diagonal()).max()) if h is not None else 0.0
    if h is None:
        h = sp.csr_matrix((n, n))
    shifts = [0.0] if h.nnz else []
    lam = SHIFT_SCALE * max(diag_max, 1.0)
    shifts += [lam * SHIFT_GROWTH**k for k in range(SHIFT_TRIES)]
    eye = sp.identity(n, format="csr")

    last_error: Exception | None = None
    for shift in shifts:
        candidate = h if shift == 0.0 else (h + shift * eye).tocsr()
        try:
            d, path, inner = _solve_newton_system(
                candidate, -grad, config.solver, near_nullspace, amg
            )
        except solvers.SolverError as exc:
            last_error = exc
            continue
        if np.all(np.isfinite(d)) and float(grad @ d) < 0.0:
            return d, path, inner, shift
    raise NewtonError(
        f"no descent direction after {len(shifts)} regularization attempts"
        + (f" (last solver error: {last_error})" if last_error else "")
    )


def newton_minimize(
    problem: EnergyProblem,
    u_init: np.ndarray,
    config: NewtonConfig | None = None,
) -> MinimizeResult:
    """Minimize the problem's energy over the free dofs from ``u_init``.

    Stops when the gradient infinity norm falls below
    ``grad_tol * (1 + |J(u_init)|)`` or when the relative energy decrease
    stagnates below ``energy_tol``.  Energy is monotone across accepted
    steps by line-search construction.

    On the AMG path, each build reuses the aggregates, tentative
    prolongators and coarse near-nullspaces of the previous build in this
    call, level by level, while the level's CSR ``indptr``/``indices`` and
    near-nullspace block are exactly the same (see ``solvers.build_amg``);
    only the numeric part is redone.  Nothing carries over to another
    call or problem.
    """
    started = time.perf_counter()
    cfg = config or NewtonConfig()
    u = np.array(u_init, dtype=float)
    if u.shape != (problem.n_dofs,):
        raise ValueError(f"u_init must have shape ({problem.n_dofs},), got {u.shape}")
    energy = problem.evaluate(u)
    if not np.isfinite(energy):
        raise NewtonError(f"energy at the initial guess is non-finite ({energy})")
    gtol = cfg.grad_tol * (1.0 + abs(energy))
    near_nullspace = problem.near_nullspace()
    amg = _AmgReuse()

    log: list[IterationRecord] = []

    def result(u_vec, j_val, gnorm, stop_reason):
        return MinimizeResult(
            u_star=u_vec,
            u_full=problem.full_field(u_vec),
            energy=j_val,
            iterations=len(log),
            grad_norm=gnorm,
            iteration_log=tuple(log),
            converged=stop_reason != "max_iters",
            stop_reason=stop_reason,
            solve_s=time.perf_counter() - started,
        )

    for _ in range(cfg.max_iters):
        energy, grad = problem.value_and_gradient(u)
        grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
        if grad_norm <= gtol:
            return result(u, energy, grad_norm, "grad")

        try:
            hessian = problem.hessian(u)
        except ColoringError:
            hessian = None  # singular flat states; fall back to the shifted path
        d, path, inner, shift = _newton_direction(hessian, grad, cfg, near_nullspace, amg)

        trials: dict[float, float] = {}

        def phi(a: float) -> float:
            # golden_section has always evaluated the alpha it returns
            if a not in trials:
                trials[a] = problem.evaluate(u + a * d)
            return trials[a]

        alpha = golden_section(phi, ALPHA_MAX, INTERVAL_TOL, MAX_EVALS)
        u_next = u + alpha * d
        energy_next = phi(alpha)
        log.append(
            IterationRecord(
                iteration=len(log) + 1,
                energy=energy,
                grad_norm=grad_norm,
                alpha=alpha,
                solver=path,
                inner_iterations=inner,
                shift=shift,
            )
        )
        stagnated = (energy - energy_next) <= cfg.energy_tol * (1.0 + abs(energy))
        u, energy = u_next, energy_next
        if stagnated:
            grad = problem.gradient(u)
            return result(u, energy, float(np.abs(grad).max()), "stagnation")

    grad = problem.gradient(u)
    best = result(u, energy, float(np.abs(grad).max()), "max_iters")
    raise NewtonError(f"Newton did not converge in {cfg.max_iters} iterations", best=best)


# ---------------------------------------------------------------------------
# benchmark drivers


def benchmark_initial_guess(problem: EnergyProblem) -> np.ndarray:
    """Starting point used by the benchmark harness.

    Ginzburg-Landau starts from all ones and the bar from the identity
    deformation (both stored on the problem).  The p-Laplace energy has an
    identically zero Hessian at u = 0 (second derivative of |F|^p at
    F = 0 for p = 3), so its Newton run starts from the minimizer of the
    p = 2 quadratic energy instead: one linear solve through the same
    dofmap, coloring, and solver dispatch as a Newton step.
    """
    if problem.kind != "plaplace":
        return problem.initial_guess.copy()
    quad_params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    quad_program = record_plaplace(problem.dofmap, problem.elemdata, quad_params)
    quad = dataclasses.replace(problem, params=quad_params, program=quad_program)
    zero = np.zeros(problem.n_dofs)
    grad = quad.gradient(zero)
    hess = recover_hessian(quad.hvp_operator(zero), problem.coloring, problem.pattern)
    return _solve_newton_system(hess, -grad, "auto", problem.near_nullspace())[0]


class ContinuationError(NewtonError):
    """A load step failed; carries the failing step index."""

    def __init__(self, step: int, cause: NewtonError):
        super().__init__(f"continuation failed at load step {step}: {cause}", best=cause.best)
        self.step = step


def continuation_hyperelastic(
    level: int,
    params=None,
    config: NewtonConfig | None = None,
    problem: EnergyProblem | None = None,
) -> list[MinimizeResult]:
    """Twisted-bar load stepping: 24 uniform increments up to 4 full turns.

    Step t prescribes a right-face rotation of t * pi / 3 about the bar
    axis, reuses the tape and coloring, and warm-starts from the previous
    minimizer (step 1 starts from the identity deformation).  Returns all
    24 results; a failing step aborts with its index.
    """
    if problem is None:
        problem = build_problem("neohooke", level, params)
    u = problem.initial_guess.copy()
    results: list[MinimizeResult] = []
    for step in range(1, 25):
        angle = step * (np.pi / 3.0)
        stepped = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, angle))
        try:
            res = newton_minimize(stepped, u, config)
        except NewtonError as exc:
            raise ContinuationError(step, exc) from exc
        results.append(res)
        u = res.u_star
    return results
