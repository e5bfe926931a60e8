"""Shared oracles and builders for the test suite."""

import numpy as np
import scipy.sparse as sp

from minfem.autodiff import Recorder, dot
from minfem.coloring import color_pattern
from minfem.energies import EnergyProblem
from minfem.fem import DofMap, SparsityPattern


def make_quadratic_problem(a: np.ndarray, b: np.ndarray) -> EnergyProblem:
    """EnergyProblem wrapping J(u) = u^T A u / 2 - b . u for a dense A."""
    n = a.shape[0]
    rec = Recorder(n)
    u = rec.input_var
    program = rec.build(0.5 * dot(u @ a, u) - dot(b, u))
    pattern = SparsityPattern.from_csr(sp.csr_matrix((a != 0.0).astype(np.int8)))
    dofmap = DofMap(n_total=n, components=1, freedofs=np.arange(n), u_0=np.zeros(n))
    return EnergyProblem(
        kind="quadratic",
        mesh=None,
        elemdata=None,
        dofmap=dofmap,
        params=None,
        program=program,
        pattern=pattern,
        coloring=color_pattern(pattern),
        initial_guess=np.zeros(n),
    )


def central_difference_gradient(problem, u: np.ndarray) -> np.ndarray:
    """Componentwise central differences of ``problem.evaluate``, step 1e-6 * max(1, |u_i|)."""
    u = np.asarray(u, dtype=float)
    grad = np.empty_like(u)
    for i in range(u.size):
        h = 1e-6 * max(1.0, abs(u[i]))
        up, down = u.copy(), u.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (problem.evaluate(up) - problem.evaluate(down)) / (2.0 * h)
    return grad


def dense_hessian_by_probes(problem: EnergyProblem, u: np.ndarray) -> np.ndarray:
    """Hessian columns from hvp against every unit vector."""
    n = u.shape[0]
    return problem.hessian_vector_product(u, np.eye(n))


def random_benchmark_state(problem: EnergyProblem, rng: np.random.Generator) -> np.ndarray:
    """A generic finite-energy state near each benchmark's operating range.

    Deformations stay close to the identity so no element approaches
    inversion, where the log(det) term makes difference quotients useless.
    """
    n = problem.n_dofs
    if problem.kind == "neohooke":
        return problem.initial_guess + 3e-4 * rng.standard_normal(n)
    if problem.kind == "ginzburg_landau":
        return 1.0 + 0.3 * rng.standard_normal(n)
    return 0.5 * rng.standard_normal(n)
