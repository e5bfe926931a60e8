"""Nonlinear energy minimization on simplicial meshes.

Finite-element energies are recorded once as array programs with exact
gradients and Hessian-vector products; sparse Hessians are assembled from
element-local products, or recovered through distance-2 graph coloring for
energies that are not sums of element densities; minimization is Newton
with golden-section line search over direct or AMG-preconditioned CG
solves.
"""

from .autodiff import Program, Recorder
from .coloring import Coloring, color_pattern, recover_hessian
from .energies import (
    EnergyProblem,
    GinzburgLandauParams,
    NeoHookeParams,
    PLaplaceParams,
    build_problem,
    problem_from_mesh,
)
from .fem import (
    DofMap,
    ElementData,
    SparsityPattern,
    assemble_load_vector,
    build_dofmap,
    precompute_gradients,
    sparsity_pattern,
)
from .mesh import (
    MeshData,
    Region,
    bar_mesh_from_cells,
    build_bar_mesh,
    build_lshape_mesh,
    build_square_mesh,
)
from .minimize import (
    MinimizeResult,
    NewtonConfig,
    NewtonError,
    benchmark_initial_guess,
    continuation_hyperelastic,
    golden_section,
    newton_minimize,
)
from .solvers import (
    DIRECT_DOF_LIMIT,
    AmgHierarchy,
    IndefiniteSystemError,
    SolverError,
    build_amg,
    pcg_solve,
    solve_direct,
)

__version__ = "0.1.0"
