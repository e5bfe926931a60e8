"""Newton minimization with golden-section line search.

Each iterate costs one energy-and-gradient sweep of the tape: its value
feeds the stopping tests and is the line search's phi(0), and its
gradient the Newton step.  Each iteration takes the exact sparse Hessian
from ``EnergyProblem.hessian`` (element blocks from the energy tape's
gathers for the benchmark energies, the colored recovery for other
problems), solves for the Newton direction (direct or AMG-CG depending on
size; successive AMG builds in one call share the aggregation wherever
the sparsity structure and near-nullspace repeat exactly), regularizes
with an escalating Tikhonov shift when the solve fails or the direction
is not a descent direction, and line-searches with golden section,
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
from .coloring import ColoringError
from .coloring import recover_hessian  # noqa: F401  perfbench/layers.py wraps it here by name
from .energies import EnergyProblem, PLaplaceParams, bar_dirichlet_values, record_plaplace

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

    ``stop_reason`` is ``"grad"`` (gradient norm at the final iterate
    under the threshold), ``"stagnation"`` (gradient norm above it, but
    the last step decreased the energy by less than ``energy_tol``
    relative) or ``"max_iters"`` (neither, after ``max_iters`` steps: the
    iterate carried by the ``NewtonError`` raised then).
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
    phi0: float,
    alpha_max: float,
    interval_tol: float = INTERVAL_TOL,
    max_evals: int = MAX_EVALS,
) -> float:
    """Golden-section minimization of phi on [0, alpha_max].

    ``phi0`` is phi(0), which the caller already holds; phi itself is only
    sampled at alpha > 0.  Non-finite values compare as +inf.  Returns the
    midpoint of the final bracket when it improves on phi0; otherwise
    falls back to the best sampled point, then to a bisected shrink toward
    0.  The result alpha always satisfies phi(alpha) <= phi0 (alpha = 0 in
    the worst case).
    """
    if not np.isfinite(phi0):
        raise ValueError("phi0 must be finite")
    evals = 0
    best_alpha, best_val = 0.0, math.inf

    def f(alpha: float) -> float:
        nonlocal evals, best_alpha, best_val
        evals += 1
        value = phi(alpha)
        value = value if np.isfinite(value) else math.inf
        if value < best_val:
            best_alpha, best_val = alpha, value
        return value

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
    if f(alpha) <= phi0:
        return alpha
    if best_val <= phi0:
        return best_alpha
    # everything sampled was worse: shrink toward zero
    alpha = float(alpha_max)
    while evals < max_evals:
        alpha *= 0.5
        if f(alpha) < phi0:
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

    Every iterate, ``u_init`` included, gets one ``value_and_gradient``
    call and is then tested in this order: gradient infinity norm at most
    ``grad_tol * (1 + |J(u_init)|)`` stops with ``"grad"``; a step into
    it that decreased J by at most ``energy_tol * (1 + |J|)`` stops with
    ``"stagnation"``; after ``max_iters`` steps, ``NewtonError`` carries
    it as ``best``.  Otherwise a Newton step is taken, line-searched from
    the held J.  Energy is monotone across accepted steps by line-search
    construction.

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
    energy, grad = problem.value_and_gradient(u)
    if not np.isfinite(energy):
        raise NewtonError(f"energy at the initial guess is non-finite ({energy})")
    gtol = cfg.grad_tol * (1.0 + abs(energy))
    near_nullspace = problem.near_nullspace()
    amg = _AmgReuse()

    log: list[IterationRecord] = []

    def result(stop_reason: str) -> MinimizeResult:
        return MinimizeResult(
            u_star=u,
            u_full=problem.full_field(u),
            energy=energy,
            iterations=len(log),
            grad_norm=grad_norm,
            iteration_log=tuple(log),
            converged=stop_reason != "max_iters",
            stop_reason=stop_reason,
            solve_s=time.perf_counter() - started,
        )

    stagnated = False
    while True:
        grad_norm = float(np.abs(grad).max()) if grad.size else 0.0
        if grad_norm <= gtol:
            return result("grad")
        if stagnated:
            return result("stagnation")
        if len(log) >= cfg.max_iters:
            best = result("max_iters")
            raise NewtonError(f"Newton did not converge in {cfg.max_iters} iterations", best=best)

        try:
            hessian = problem.hessian(u)
        except ColoringError:
            hessian = None  # singular flat states; fall back to the shifted path
        d, path, inner, shift = _newton_direction(hessian, grad, cfg, near_nullspace, amg)
        alpha = golden_section(
            lambda a: problem.evaluate(u + a * d), energy, ALPHA_MAX, INTERVAL_TOL, MAX_EVALS
        )
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
        previous = energy
        u = u + alpha * d
        energy, grad = problem.value_and_gradient(u)
        stagnated = (previous - energy) <= cfg.energy_tol * (1.0 + abs(previous))


# ---------------------------------------------------------------------------
# benchmark drivers


def benchmark_initial_guess(problem: EnergyProblem) -> np.ndarray:
    """Starting point used by the benchmark harness.

    Ginzburg-Landau starts from all ones and the bar from the identity
    deformation (both stored on the problem).  The p-Laplace energy has an
    identically zero Hessian at u = 0 (second derivative of |F|^p at
    F = 0 for p = 3), so its Newton run starts from the minimizer of the
    p = 2 quadratic energy instead: one linear solve with the same Hessian
    entry point (``EnergyProblem.hessian``) and solver dispatch as a Newton
    step.
    """
    if problem.kind != "plaplace":
        return problem.initial_guess.copy()
    quad_params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    quad_program = record_plaplace(problem.dofmap, problem.elemdata, quad_params)
    quad = dataclasses.replace(problem, params=quad_params, program=quad_program)
    zero = np.zeros(problem.n_dofs)
    grad = quad.gradient(zero)
    return _solve_newton_system(quad.hessian(zero), -grad, "auto", problem.near_nullspace())[0]


class ContinuationError(NewtonError):
    """A load step failed; carries the failing step index."""

    def __init__(self, step: int, cause: NewtonError):
        super().__init__(f"continuation failed at load step {step}: {cause}", best=cause.best)
        self.step = step


def continuation_hyperelastic(
    problem: EnergyProblem, config: NewtonConfig | None = None
) -> list[MinimizeResult]:
    """Twisted-bar load stepping: 24 uniform increments up to 4 full turns.

    Step t prescribes a right-face rotation of t * pi / 3 about the axis
    of the bar ``problem``, reuses its tape and coloring, and warm-starts
    from the previous minimizer (step 1 starts from the identity
    deformation).  Returns all 24 results; a failing step aborts with its
    index.
    """
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
