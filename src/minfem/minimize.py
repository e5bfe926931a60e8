"""Newton minimization with golden-section line search.

Each iterate costs one energy-and-gradient sweep of the tape: its value
feeds the stopping tests and is the line search's phi(0), and its
gradient the Newton step.  Each iteration takes the exact sparse Hessian
from ``EnergyProblem.hessian`` (element blocks from the energy tape for
the benchmark energies, the colored recovery for other problems), solves
for the Newton direction (banded Cholesky or AMG-CG depending on size,
both starting from what the problem's pattern keeps: its band ordering,
the structure of its latest AMG build), and line-searches with golden
section, rejecting steps where the energy is non-finite.  A
Hessian that is not positive definite gets one rule on both paths, a
modified Newton step (Nocedal and Wright, Numerical Optimization, 2nd
ed., 2006, Sec. 3.4, Alg. 3.3): the Cholesky factor or CG raises
``solvers.IndefiniteSystemError``, and the step retries with an
escalating Tikhonov shift H + lambda I, in the pattern's slots as H is.
Any other solver failure and a
direction that is not finite or does not descend escalate the same way.
The search narrows the bracket to ``INTERVAL_TOL`` and ends with one
parabolic step: 19 energy evaluations per Newton step unless it falls
back, and the exact step on a quadratic.  It samples
``EnergyProblem.along``: the energy on the step's line as a program over
the step length.  The energy's polynomial part
in the step length (all of Ginzburg-Landau, a quartic; det F and I1 on
the bar) is computed once as coefficients, so a sample is a Horner
evaluation plus a replay of the rest of the tape.  Each
``IterationRecord`` keeps the wall time of the gradient sweep the step
starts from and of the step's Hessian, linear solve (and the AMG builds
within it) and line search, the line search's energy evaluations and
the relative residual the step asked of CG.  A load-stepping loop
handles the twisted-bar continuation.

Newton is inexact on the AMG-CG path (Dembo, Eisenstat and Steihaug,
SIAM J. Numer. Anal. 19(2), 1982): step k asks
CG for the relative residual eta_k of Eisenstat and Walker's choice 2
(SIAM J. Sci. Comput. 17(1), 1996), eta_k = 0.9 (|g_k| / |g_(k-1)|)^2 in
gradient 2-norms, raised to 0.9 eta_(k-1)^2 when that exceeds 0.1, then
kept in [1e-8, 0.5], with eta_0 = 0.1 at the start of every call.  A
shifted retry reuses its step's eta.  Every CG iterate from a zero start
descends for a positive definite H, so the line search is unchanged.
The direct path ignores the forcing term and keeps its 1e-10
relative-residual contract, and the p-Laplace initial-guess solve asks
CG for 1e-8.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import solvers
from .coloring import ColoringError
from .coloring import recover_hessian  # noqa: F401  perfbench/layers.py wraps it here by name
from .energies import EnergyProblem, PLaplaceParams, bar_dirichlet_values, record_plaplace
from .fem import SparsityPattern

__all__ = [
    "SOLVERS",
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

# golden-section line search over [0, ALPHA_MAX], down to a bracket of
# INTERVAL_TOL.  Near the minimum phi varies with the square of the offset,
# so function values cannot place alpha much closer than sqrt(machine
# epsilon) (Brent 1973, ch. 5).  The final parabolic step, at no extra
# evaluation, still lands on a quadratic's minimizer.
ALPHA_MAX = 2.0
INTERVAL_TOL = 1e-3
MAX_EVALS = 100
# Tikhonov shifts: SHIFT_SCALE * max(max |diag H|, 1), then SHIFT_GROWTH
# times larger, SHIFT_TRIES shifts in all
SHIFT_SCALE = 1e-6
SHIFT_GROWTH = 10.0
SHIFT_TRIES = 20
# forcing terms of the inexact Newton steps, see _forcing_term
FORCING_INITIAL = 0.1
FORCING_MAX = 0.5
FORCING_MIN = 1e-8
FORCING_GAMMA = 0.9
FORCING_SAFEGUARD = 0.1
# the linear paths NewtonConfig.solver selects
SOLVERS = ("auto", "direct", "amg")


@dataclass(frozen=True)
class NewtonConfig:
    """The settable parts of the method.

    The line search and the Tikhonov shifts use the module constants
    above.  ``grad_tol`` is a scale: the stopping threshold on the gradient
    infinity norm is ``grad_tol * (1 + |J(u_init)|)``.  ``energy_tol``
    stops on relative energy stagnation.  ``solver`` picks the linear
    path, one of ``SOLVERS``: auto (direct up to 15,000 dofs, AMG-CG
    above), or forced direct / amg.  Other values raise ``ValueError``
    naming the field.
    """

    grad_tol: float = 1e-6
    energy_tol: float = 1e-10
    max_iters: int = 200
    solver: str = "auto"

    def __post_init__(self):
        for name in ("grad_tol", "energy_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"max_iters must be a non-negative integer, got {n!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {', '.join(SOLVERS)}, got {self.solver!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step: the iterate it left and what the step cost.

    ``grad_s`` is the wall time of the ``value_and_gradient`` sweep that
    gave the iterate the step starts from its energy and gradient,
    ``hessian_s`` that of ``EnergyProblem.hessian`` (a failed one
    included), ``solve_s`` that of finding the Newton direction (AMG
    builds and shifted retries included), ``amg_build_s`` the part of
    ``solve_s`` spent in ``solvers.build_amg`` (every shifted retry's
    build included; 0 on the direct path),
    ``linesearch_s`` that of building the line program and the
    golden-section search over it, which evaluated the energy
    ``linesearch_evals`` times.  ``cg_rtol`` is the relative residual
    the step asked of CG, its forcing term (None on the direct path).
    """

    iteration: int
    energy: float
    grad_norm: float
    alpha: float
    solver: str
    inner_iterations: int
    shift: float  # Tikhonov lambda actually used (0 when plain Newton)
    grad_s: float
    hessian_s: float
    solve_s: float
    amg_build_s: float
    linesearch_s: float
    linesearch_evals: int
    cg_rtol: float | None


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
    sampled at alpha > 0.  Non-finite values compare as +inf.  Once the
    bracket [lo, hi] is at most ``interval_tol`` wide (or ``max_evals`` is
    spent), one parabolic step fits the better inner point and its two
    neighbours (phi0 stands for phi(lo) while lo = 0; hi = alpha_max is
    never sampled, so its value is unknown).  The vertex is the candidate
    when the three values are finite, the parabola is convex and the vertex
    lies strictly inside (lo, hi); otherwise the bracket's midpoint is.
    The candidate, sampled once, is returned when it does not worsen
    phi0; otherwise the search falls back to the best sampled point, then
    to a bisected shrink toward 0.  The result alpha always satisfies
    phi(alpha) <= phi0 (alpha = 0 in the worst case).  On a quadratic the
    vertex is its exact minimizer, up to rounding.
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
    f_lo, f_hi = float(phi0), math.inf  # alpha_max itself is never sampled
    m1 = hi - _INV_GOLDEN * (hi - lo)
    m2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(m1), f(m2)
    while hi - lo > interval_tol and evals < max_evals:
        if f1 <= f2:
            hi, f_hi, m2, f2 = m2, f2, m1, f1
            m1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(m1)
        else:
            lo, f_lo, m1, f1 = m1, f1, m2, f2
            m2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(m2)
    # one parabolic step through the better inner point and its neighbours
    a, b, c, fa, fb, fc = (lo, m1, m2, f_lo, f1, f2) if f1 <= f2 else (m1, m2, hi, f1, f2, f_hi)
    q = (b - a) * (fb - fc) - (b - c) * (fb - fa)  # negative iff the parabola is convex
    alpha = 0.5 * (lo + hi)
    if math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fc) and q < 0.0:
        vertex = b - 0.5 * ((b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)) / q
        if lo < vertex < hi:
            alpha = vertex
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


def _solve_newton_system(
    h: sp.csr_matrix,
    rhs: np.ndarray,
    method: str,
    near_nullspace: np.ndarray,
    pattern: SparsityPattern,
    rtol: float,
) -> tuple[np.ndarray, str, int, float]:
    """One linear solve; returns (x, path, inner, amg_build_s).

    ``method`` is one of ``SOLVERS``; ``auto`` solves directly up to
    ``solvers.DIRECT_DOF_LIMIT`` unknowns and by AMG-CG above.  A direct
    solve orders by ``pattern``, in whose slots ``h`` holds its data, and
    ignores ``rtol``: it keeps ``solvers.solve_direct``'s 1e-10
    relative-residual contract.  AMG-CG stops at the relative residual
    ``rtol``: a Newton step passes its Eisenstat-Walker forcing term
    (``_forcing_term``), the p-Laplace initial guess 1e-8.  Its build
    starts from ``pattern.amg_structure`` and leaves its own there; only
    the structure is kept, never the hierarchy.  ``amg_build_s`` is the
    build's wall time (0 on the direct path); when the build or CG
    refuses the system, the ``SolverError`` raised carries it as its
    ``amg_build_s`` attribute.
    """
    if method == "auto":
        method = "direct" if rhs.shape[0] <= solvers.DIRECT_DOF_LIMIT else "amg"
    if method == "direct":
        return solvers.solve_direct(h, rhs, pattern), "direct", 0, 0.0
    build_started = time.perf_counter()
    build_s = None
    try:
        hierarchy = solvers.build_amg(h, near_nullspace, pattern.amg_structure)
        build_s = time.perf_counter() - build_started
        pattern.amg_structure[:] = hierarchy.structure
        x, inner = solvers.pcg_solve(h, rhs, hierarchy, rtol=rtol, maxiter=400)
    except solvers.SolverError as exc:
        exc.amg_build_s = time.perf_counter() - build_started if build_s is None else build_s
        raise
    return x, "amg", inner, build_s


def _forcing_term(
    grad_norm: float, previous_grad_norm: float, previous_eta: float | None
) -> float:
    """CG's relative residual for a Newton step: Eisenstat-Walker choice 2.

    ``previous_eta`` None marks a call's first step, which gets
    ``FORCING_INITIAL``.  Later steps get FORCING_GAMMA times the squared
    ratio of the gradient 2-norms, at least FORCING_GAMMA * previous_eta**2
    when that exceeds ``FORCING_SAFEGUARD`` (so eta cannot drop much faster
    than it did), within [``FORCING_MIN``, ``FORCING_MAX``].

    The first term is 0.1, not the cap: the first steps from the
    benchmark starting points are not yet in the quadratic regime (the
    line search takes alpha of 1.1-1.2), and a first solve to 0.5 leaves
    Ginzburg-Landau's gradient about three times larger after the step,
    which costs a fourth Newton step at levels 4 and 6.
    """
    if previous_eta is None:
        return FORCING_INITIAL
    eta = FORCING_GAMMA * (grad_norm / previous_grad_norm) ** 2
    safeguard = FORCING_GAMMA * previous_eta**2
    if safeguard > FORCING_SAFEGUARD:
        eta = max(eta, safeguard)
    if math.isnan(eta):  # a non-finite gradient: the tightest solve
        return FORCING_MIN
    return min(max(eta, FORCING_MIN), FORCING_MAX)


def _newton_direction(
    h: sp.csr_matrix,
    grad: np.ndarray,
    config: NewtonConfig,
    near_nullspace: np.ndarray,
    pattern: SparsityPattern,
    rtol: float,
) -> tuple[np.ndarray, str, int, float, float]:
    """Descent direction from H d = -g, with escalating Tikhonov shifts.

    Returns (d, path, inner, shift, amg_build_s).  A solve that raises
    ``SolverError`` (``IndefiniteSystemError`` when the shifted H is not
    positive definite), or whose direction is not finite or does not
    descend, moves on to the next shift; an all-zero H starts shifted.  H
    holds its data in the slots of ``pattern``, as does every shifted H; a
    pattern without a full diagonal raises ``ValueError``.  Every solve
    asks CG for ``rtol``; ``amg_build_s`` adds up the AMG builds of every
    try, the refused ones included.
    """
    diagonal = pattern.diagonal_slots
    shifts = [0.0] if h.data.any() else []
    lam = SHIFT_SCALE * max(float(np.abs(h.data[diagonal]).max()), 1.0)
    shifts += [lam * SHIFT_GROWTH**k for k in range(SHIFT_TRIES)]

    last_error: str | None = None
    amg_build_s = 0.0
    for shift in shifts:
        candidate = h
        if shift:
            candidate = pattern.matrix(h.data.copy())
            candidate.data[diagonal] += shift
        try:
            d, path, inner, build_s = _solve_newton_system(
                candidate, -grad, config.solver, near_nullspace, pattern, rtol
            )
        except solvers.SolverError as exc:
            amg_build_s += getattr(exc, "amg_build_s", 0.0)
            # the message only: the exception's traceback holds this frame, which
            # would keep the failed solve's arrays alive in a cycle until the
            # garbage collector runs
            last_error = str(exc)
            continue
        amg_build_s += build_s
        if np.all(np.isfinite(d)) and float(grad @ d) < 0.0:
            return d, path, inner, shift, amg_build_s
    raise NewtonError(
        f"no descent direction after {len(shifts)} regularization attempts"
        + (f" (last solver error: {last_error})" if last_error is not None else "")
    )


def _line_search(
    problem: EnergyProblem, u: np.ndarray, d: np.ndarray, phi0: float
) -> tuple[float, int]:
    """Golden section along u + alpha d; returns alpha and the energy evaluations.

    Every sample is one ``evaluate`` of the line program, which is dropped
    on return, before the next Hessian.
    """
    line = problem.along(u, d)
    samples: list[float] = []
    alpha = golden_section(
        lambda a: samples.append(a) or line.evaluate([a]), phi0, ALPHA_MAX, INTERVAL_TOL, MAX_EVALS
    )
    return alpha, len(samples)


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

    On the AMG path, each build starts from the structure of the latest
    build on ``problem.pattern`` (``SparsityPattern.amg_structure``), so
    it carries over to the next call, to the load steps of
    ``with_dirichlet`` and to any problem that shares the pattern; the
    hierarchy is the same to the bit either way (``solvers.build_amg``).

    On the AMG-CG path each step solves to its forcing term
    (``_forcing_term``), and the rule starts afresh with every call.
    """
    started = time.perf_counter()
    cfg = config or NewtonConfig()
    u = np.array(u_init, dtype=float)
    if u.shape != (problem.n_dofs,):
        raise ValueError(f"u_init must have shape ({problem.n_dofs},), got {u.shape}")
    grad_started = time.perf_counter()
    energy, grad = problem.value_and_gradient(u)
    grad_s = time.perf_counter() - grad_started
    if not np.isfinite(energy):
        raise NewtonError(f"energy at the initial guess is non-finite ({energy})")
    gtol = cfg.grad_tol * (1.0 + abs(energy))
    near_nullspace = problem.near_nullspace()
    eta: float | None = None  # forcing term of the previous step
    previous_grad_l2 = math.nan

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

        hessian_started = time.perf_counter()
        try:
            hessian = problem.hessian(u)
        except ColoringError:
            hessian = problem.pattern.matrix(np.zeros(problem.pattern.nnz))  # singular: shift
        hessian_s = time.perf_counter() - hessian_started
        grad_l2 = float(np.linalg.norm(grad))
        eta = _forcing_term(grad_l2, previous_grad_l2, eta)
        previous_grad_l2 = grad_l2
        solve_started = time.perf_counter()
        d, path, inner, shift, amg_build_s = _newton_direction(
            hessian, grad, cfg, near_nullspace, problem.pattern, eta
        )
        solve_s = time.perf_counter() - solve_started
        del hessian  # freed before the line search and the next Hessian: a lower peak memory
        linesearch_started = time.perf_counter()
        alpha, linesearch_evals = _line_search(problem, u, d, energy)
        linesearch_s = time.perf_counter() - linesearch_started
        log.append(
            IterationRecord(
                iteration=len(log) + 1,
                energy=energy,
                grad_norm=grad_norm,
                alpha=alpha,
                solver=path,
                inner_iterations=inner,
                shift=shift,
                grad_s=grad_s,
                hessian_s=hessian_s,
                solve_s=solve_s,
                amg_build_s=amg_build_s,
                linesearch_s=linesearch_s,
                linesearch_evals=linesearch_evals,
                cg_rtol=None if path == "direct" else eta,
            )
        )
        previous = energy
        u = u + alpha * d
        grad_started = time.perf_counter()
        energy, grad = problem.value_and_gradient(u)
        grad_s = time.perf_counter() - grad_started
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
    step (CG, above the direct limit, to a relative residual of 1e-8,
    with its AMG structure kept on the problem's pattern).
    """
    if problem.kind != "plaplace":
        return problem.initial_guess.copy()
    quad_params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    quad_program = record_plaplace(problem.dofmap, problem.elemdata, quad_params)
    quad = dataclasses.replace(problem, params=quad_params, program=quad_program)
    zero = np.zeros(problem.n_dofs)
    grad = quad.gradient(zero)
    return _solve_newton_system(
        quad.hessian(zero), -grad, "auto", problem.near_nullspace(), problem.pattern, 1e-8
    )[0]


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
    of the bar ``problem``, reuses its tape and pattern, and warm-starts
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
