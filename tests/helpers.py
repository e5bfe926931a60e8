"""Shared oracles and builders for the test suite."""

import dataclasses

import numpy as np
import scipy.sparse as sp

from minfem import energies
from minfem.autodiff import Recorder, dot
from minfem.energies import (
    EnergyProblem,
    PLaplaceParams,
    build_problem,
    problem_from_mesh,
    record_plaplace,
)
from minfem.fem import DofMap, SparsityPattern

DENSITIES = {
    "plaplace": energies._plaplace_density,
    "ginzburg_landau": energies._ginzburg_landau_density,
    "neohooke": energies._neohooke_density,
}


def element_dofs(elems: np.ndarray, components: int) -> np.ndarray:
    """Full-field dof of every element-local index, shape (E, npe * components).

    Local index ``a = components * i + comp`` of element e is component
    ``comp`` of its node ``elems[e, i]``: the benchmark tapes' order,
    derived from the mesh independently of ``Program.element_dofs``.
    """
    dofs = components * elems[:, :, None] + np.arange(components)
    return dofs.reshape(elems.shape[0], -1)


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
        initial_guess=np.zeros(n),
    )


def jittered(problem: EnergyProblem, seed: int) -> EnergyProblem:
    """The problem rebuilt on its mesh with every node moved by up to 1e-3.

    Structured meshes give element gradients with zero entries, which hide
    the order of a row sum; moved nodes make every entry count.
    """
    mesh = problem.mesh
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes + 1e-3 * rng.uniform(-1.0, 1.0, mesh.nodes.shape)
    return problem_from_mesh(problem.kind, dataclasses.replace(mesh, nodes=nodes))


def element_local_program(problem: EnergyProblem):
    """The problem's density recorded a second time, over the element-local dofs.

    Element e's local index a = c * i + comp (node i, component comp) is
    input entry ``e * npe * c + a``; the linear load term is left out.
    """
    c = problem.dofmap.components
    n_elems, npe = problem.mesh.elems.shape
    local = np.arange(n_elems * npe * c).reshape(n_elems, npe, c)
    rec = Recorder(local.size)
    v = rec.input_var
    comps = [v[local[:, :, k]] for k in range(c)]
    return rec.build(DENSITIES[problem.kind](comps, problem.elemdata, problem.params).sum())


def element_blocks_by_hvp(problem: EnergyProblem, u: np.ndarray) -> np.ndarray:
    """Every element's (L, L) Hessian block from HVPs of the element-local tape.

    That tape's Hessian is block diagonal, so probing every flat one-hot
    local direction (in blocks of 6) reads each element's block apart:
    the oracle for ``Program.element_hessians``.
    """
    c = problem.dofmap.components
    program = element_local_program(problem)
    x = problem.full_field(u)[element_dofs(problem.elemdata.elems, c)].ravel()
    n_elems, n_local = problem.mesh.elems.shape[0], problem.mesh.elems.shape[1] * c
    blocks = np.empty((n_elems, n_local, n_local))
    for start in range(0, n_local, 6):
        stop = min(start + 6, n_local)
        seeds = np.zeros((n_elems, n_local, stop - start))
        seeds[:, start:stop, :] = np.eye(stop - start)
        block = program.hessian_vector_product(x, seeds.reshape(n_elems * n_local, -1))
        blocks[:, :, start:stop] = block.reshape(n_elems, n_local, -1)
    return blocks


def element_local_hessian(problem: EnergyProblem, u: np.ndarray) -> sp.csr_matrix:
    """Hessian from HVPs of the element-local tape: the reference for ``problem.hessian``.

    Sums the ``element_blocks_by_hvp`` blocks into ``problem.element_slots``
    with ``np.bincount``, 6 local columns at a time, and symmetrizes.
    """
    slots, nnz = problem.element_slots, problem.pattern.nnz
    blocks = element_blocks_by_hvp(problem, u)
    data = np.zeros(nnz + 1)
    for start in range(0, slots.shape[2], 6):
        cols = slice(start, start + 6)
        data += np.bincount(
            slots[:, :, cols].ravel(), weights=blocks[:, :, cols].ravel(), minlength=nnz + 1
        )
    n = problem.pattern.n
    h = sp.csr_matrix((data[:nnz], problem.pattern.indices, problem.pattern.indptr), shape=(n, n))
    return ((h + h.T) * 0.5).tocsr()


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


def quadratic_plaplace(level: int) -> EnergyProblem:
    """The p-Laplace problem at ``level`` with its tape recorded for p = 2."""
    problem = build_problem("plaplace", level)
    params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    program = record_plaplace(problem.dofmap, problem.elemdata, params)
    return dataclasses.replace(problem, params=params, program=program)


def assert_same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def assert_in_pattern_layout(h, want: sp.spmatrix, pattern: SparsityPattern) -> None:
    """``h`` holds its data in ``pattern``'s slots: equal to ``want`` bit for bit
    on every entry ``want`` stores, and an explicit zero in every other slot."""
    assert np.array_equal(h.indptr, pattern.indptr)
    assert np.array_equal(h.indices, pattern.indices)
    want = want.tocsr()
    want.sort_indices()
    rows, cols = pattern.rows_cols()
    want_rows = np.repeat(np.arange(pattern.n), np.diff(want.indptr))
    slots = np.searchsorted(rows * pattern.n + cols, want_rows * pattern.n + want.indices)
    assert np.array_equal(h.data[slots].view(np.int64), want.data.view(np.int64))
    rest = np.ones(pattern.nnz, dtype=bool)
    rest[slots] = False
    assert np.all(h.data[rest] == 0.0)
