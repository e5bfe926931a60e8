"""The benchmark workloads: what each one builds, solves and must reach.

Every workload drives minfem through its public API.  Set-up is one
``build_problem`` call.  A solve is one Newton minimization from the
benchmark initial guess (Ginzburg-Landau), or warm-started twist load steps
of the Neo-Hookean bar, each one Newton minimization on the problem rebound
to that step's Dirichlet data (as ``continuation_hyperelastic`` does).

Seed 0 starts from the paper's exact initial iterate.  Any other seed adds
a uniform perturbation of relative size ``PERTURBATION`` (of the iterate's
largest entry) to the free, non-Dirichlet dofs of the starting iterate.
It is small enough that every seed reaches the same table energy.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from minfem import energies, minimize

__all__ = ["PERTURBATION", "WORKLOADS", "Workload", "signature"]

PERTURBATION = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    level: int
    target_j: float  # the paper table's energy at the last solve
    tolerance: float
    relative: bool  # tolerance relative to |target_j| instead of absolute
    twist_steps: tuple[int, ...] = ()  # bar load steps t (twist t * pi / 3)

    @property
    def newton_solves(self) -> int:
        """Newton minimizations in one solve of this workload."""
        return len(self.twist_steps) or 1

    def setup(self) -> energies.EnergyProblem:
        return energies.build_problem(self.kind, self.level)

    def start(self, problem: energies.EnergyProblem, seed: int) -> np.ndarray:
        u0 = minimize.benchmark_initial_guess(problem)
        if seed:
            rng = np.random.default_rng(seed)
            u0 = u0 + PERTURBATION * np.abs(u0).max() * rng.uniform(-1.0, 1.0, u0.size)
        return u0

    def solve(self, problem: energies.EnergyProblem, seed: int) -> list:
        """One solve from the seeded start: one outcome per Newton solve.

        An outcome is the ``MinimizeResult`` or the exception that ended
        the solve; a failed load step also fails the steps after it.
        """
        outcomes: list = []
        try:
            u = self.start(problem, seed)
            if not self.twist_steps:
                return [minimize.newton_minimize(problem, u)]
            for step in self.twist_steps:
                dirichlet = energies.bar_dirichlet_values(problem.mesh, step * math.pi / 3.0)
                result = minimize.newton_minimize(problem.with_dirichlet(dirichlet), u)
                outcomes.append(result)
                u = result.u_star
        except Exception as exc:  # a failed solve is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            outcomes += [exc] * (self.newton_solves - len(outcomes))
        return outcomes

    def failures(self, outcomes: list) -> list[str | None]:
        """Why each Newton solve failed, or None where it passed.

        A Newton solve fails if it raised or did not converge; the last
        one also fails if its energy misses the paper's table value.
        """
        reasons = [
            f"raised {type(o).__name__}: {o}"
            if isinstance(o, Exception)
            else (None if o.converged else "did not converge")
            for o in outcomes
        ]
        if reasons[-1] is None:
            miss = abs(outcomes[-1].energy - self.target_j)
            limit = self.tolerance * (abs(self.target_j) if self.relative else 1.0)
            if not miss <= limit:
                reasons[-1] = f"J = {outcomes[-1].energy:.6f} misses the table's {self.target_j}"
        return reasons


def signature(outcomes: list) -> tuple:
    """The parts of a solve that must repeat exactly for one seed."""
    return tuple(
        repr(outcome)
        if isinstance(outcome, Exception)
        else (
            outcome.energy.hex(),
            outcome.iterations,
            sum(rec.inner_iterations for rec in outcome.iteration_log),
            sum(rec.shift > 0.0 for rec in outcome.iteration_log),
        )
        for outcome in outcomes
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gl-l5-amg",
            kind="ginzburg_landau",
            level=5,
            target_j=0.3458,
            tolerance=5e-4,
            relative=False,
        ),
        Workload(
            name="bar-l1-twist3",
            kind="neohooke",
            level=1,
            target_j=3.1173,
            tolerance=1e-3,
            relative=True,
            twist_steps=(1, 2, 3),
        ),
    )
}
