"""The three benchmark energy functionals as recorded tape programs.

Each benchmark is written once as an element density: a function of the
per-component element gathers, each of shape (E, npe), returning the (E,)
element energies.  Each ``record_*`` function sums it onto a fresh tape
over the full nodal field (plus the p-Laplace load term); that one
program supplies values, exact gradients, Hessian-vector products and
the element Hessian blocks.  The tape knows nothing of the Dirichlet
data: ``EnergyProblem`` lifts a free-dof vector into the field through
``DofMap.u_0``, the one home of the boundary values, and restricts
gradients and Hessian-vector products back to the free dofs.
``build_problem`` bundles mesh, element tables, Dirichlet scaffolding,
that tape, the sparsity pattern and the element slot map into a reusable
problem object.  ``EnergyProblem.hessian`` takes the element blocks from
the tape in row blocks (``Program.element_hessian_blocks``, cut at the
linear frontier) and sums them into the pattern; a problem without a
slot map colors the pattern on first use.  ``EnergyProblem.along``
gives the energy on a line through a free-dof iterate as a program over
the step length.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import LineProgram, Program, Recorder
from .coloring import Coloring, assemble_element_hessian, color_pattern, recover_hessian
from .fem import (
    DofMap,
    ElementData,
    SparsityPattern,
    assemble_load_vector,
    build_dofmap,
    element_slots,
    precompute_gradients,
    sparsity_pattern,
)
from .mesh import MeshData, build_bar_mesh, build_lshape_mesh, build_square_mesh

__all__ = [
    "PLaplaceParams",
    "GinzburgLandauParams",
    "NeoHookeParams",
    "EnergyProblem",
    "record_plaplace",
    "record_ginzburg_landau",
    "record_neohooke",
    "identity_deformation",
    "bar_dirichlet_values",
    "problem_from_mesh",
    "build_problem",
    "BENCHMARK_KINDS",
]

BENCHMARK_KINDS = ("plaplace", "ginzburg_landau", "neohooke")


def _default_quad_points() -> np.ndarray:
    return np.array(
        [
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ]
    )


def _default_quad_weights() -> np.ndarray:
    return np.full(3, 1.0 / 3.0)


@dataclass(frozen=True, eq=False)
class PLaplaceParams:
    """Power p > 1 and the assembled nodal load vector."""

    p: float
    f_vec: np.ndarray

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")


@dataclass(frozen=True, eq=False)
class GinzburgLandauParams:
    """Interface parameter and the 3-point barycentric quadrature rule.

    The rule integrates quadratics exactly but not the quartic well term;
    that inexactness is accepted at linear-element convergence order.
    """

    eps: float
    ip: np.ndarray = field(default_factory=_default_quad_points)
    w: np.ndarray = field(default_factory=_default_quad_weights)

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not np.allclose(self.ip.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("quadrature point rows must sum to 1")
        if not np.isclose(self.w.sum(), 1.0, atol=1e-12):
            raise ValueError("quadrature weights must sum to 1")


@dataclass(frozen=True)
class NeoHookeParams:
    """Compressible Neo-Hookean material constants (both positive)."""

    c1: float
    d1: float

    def __post_init__(self):
        if self.c1 <= 0.0 or self.d1 <= 0.0:
            raise ValueError("material constants must be positive")

    @classmethod
    def from_moduli(cls, young: float = 2.0e8, poisson: float = 0.3) -> "NeoHookeParams":
        """Constants from Young's modulus and Poisson's ratio."""
        mu = young / (2.0 * (1.0 + poisson))
        bulk = young / (3.0 * (1.0 - 2.0 * poisson))
        return cls(c1=mu / 2.0, d1=bulk / 2.0)


# ---------------------------------------------------------------------------
# tape recordings


def _plaplace_density(comps, elemdata: ElementData, params: PLaplaceParams):
    (v_elems,) = comps
    f_x = (v_elems * elemdata.dvx).sum(axis=1)
    f_y = (v_elems * elemdata.dvy).sum(axis=1)
    intgrds = (1.0 / params.p) * (f_x**2 + f_y**2) ** (params.p / 2.0)
    return intgrds * elemdata.vol


def _ginzburg_landau_density(comps, elemdata: ElementData, params: GinzburgLandauParams):
    (v_elems,) = comps
    f_x = (v_elems * elemdata.dvx).sum(axis=1)
    f_y = (v_elems * elemdata.dvy).sum(axis=1)
    e_1 = 0.5 * params.eps * (f_x**2 + f_y**2)
    e_2 = 0.25 * (((v_elems @ params.ip) ** 2 - 1.0) ** 2 @ params.w)
    return (e_1 + e_2) * elemdata.vol


def _neohooke_density(comps, elemdata: ElementData, params: NeoHookeParams):
    f = {}
    for row, comp in zip("123", comps):
        for col, dv in (("1", elemdata.dvx), ("2", elemdata.dvy), ("3", elemdata.dvz)):
            f[row + col] = (comp * dv).sum(axis=1)

    i1 = (
        f["11"] ** 2 + f["12"] ** 2 + f["13"] ** 2
        + f["21"] ** 2 + f["22"] ** 2 + f["23"] ** 2
        + f["31"] ** 2 + f["32"] ** 2 + f["33"] ** 2
    )
    det = abs(
        f["11"] * f["22"] * f["33"]
        - f["11"] * f["23"] * f["32"]
        - f["12"] * f["21"] * f["33"]
        + f["12"] * f["23"] * f["31"]
        + f["13"] * f["21"] * f["32"]
        - f["13"] * f["22"] * f["31"]
    )
    w = params.c1 * (i1 - 3.0 - 2.0 * ad.log(det)) + params.d1 * (det - 1.0) ** 2
    return w * elemdata.vol


def _record(density, dofmap: DofMap, elemdata: ElementData, params, load=None) -> Program:
    """Tape of the summed element densities (minus ``load . v``) over the full field.

    Component k of element e's nodes sits at ``c * elems[e] + k`` in the
    field (components interleaved); the density reads one gather per
    component.
    """
    c = dofmap.components
    rec = Recorder(dofmap.n_total)
    v = rec.input_var
    energy = density([v[c * elemdata.elems + k] for k in range(c)], elemdata, params).sum()
    return rec.build(energy if load is None else energy - ad.dot(load, v))


def record_plaplace(dofmap: DofMap, elemdata: ElementData, params: PLaplaceParams) -> Program:
    """Tape of J(v) = sum (1/p)|grad v|^p vol - f . v over the full field."""
    return _record(_plaplace_density, dofmap, elemdata, params, params.f_vec)


def record_ginzburg_landau(
    dofmap: DofMap, elemdata: ElementData, params: GinzburgLandauParams
) -> Program:
    """Tape of the double-well energy with the inexact 3-point quadrature."""
    return _record(_ginzburg_landau_density, dofmap, elemdata, params)


def record_neohooke(dofmap: DofMap, elemdata: ElementData, params: NeoHookeParams) -> Program:
    """Tape of the compressible Neo-Hookean energy over the full field (components interleaved).

    The determinant enters through its absolute value, so inverted states
    keep a finite density; det = 0 yields -inf via the log and is left for
    the line search to reject.
    """
    return _record(_neohooke_density, dofmap, elemdata, params)


# ---------------------------------------------------------------------------
# benchmark problem assembly


@dataclass(frozen=True, eq=False)
class EnergyProblem:
    """Reusable bundle of one benchmark on one mesh level.

    ``program`` is the energy recorded over the full nodal field and
    knows nothing of the boundary: ``dofmap.u_0`` is the one home of the
    Dirichlet values.  ``evaluate``, ``value_and_gradient``, ``gradient``
    and ``hessian_vector_product`` take free-dof vectors, lift them into
    the field (directions get zeros at the fixed dofs) and restrict the
    results to ``dofmap.freedofs``.

    ``element_slots`` maps each element's Hessian block, indexed by
    ``program.element_dofs``, into ``pattern``; ``hessian`` takes the
    blocks from ``program`` itself, in row blocks of second-order
    adjoints at its element cut (``Program.element_hessian_blocks``).
    That needs a tape that is a sum of element densities, and
    ``element_hessian_blocks`` refuses any other.  A problem without a
    slot map gets its Hessian through ``coloring``, colored on first
    use, instead: build one so for an energy that is refused, such as
    one that mixes elements with a ``take`` before a nonlinear term.
    """

    kind: str
    mesh: MeshData
    elemdata: ElementData
    dofmap: DofMap
    params: object
    program: Program
    pattern: SparsityPattern
    initial_guess: np.ndarray
    element_slots: np.ndarray | None = None

    @property
    def n_dofs(self) -> int:
        return self.dofmap.n_free

    @functools.cached_property
    def coloring(self) -> Coloring:
        """Distance-2 coloring of ``pattern``, computed on first use."""
        return color_pattern(self.pattern)

    def near_nullspace(self) -> np.ndarray:
        """Constant (per component) modes over the free dofs, as columns."""
        c = self.dofmap.components
        if c == 1:
            return np.ones((self.n_dofs, 1))
        modes = np.zeros((self.n_dofs, c))
        comp = self.dofmap.freedofs % c
        modes[np.arange(self.n_dofs), comp] = 1.0
        return modes

    def evaluate(self, u: np.ndarray) -> float:
        """J at the free-dof vector u."""
        return self.program.evaluate(self.full_field(u))

    def value_and_gradient(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """J(u) and its exact gradient over the free dofs."""
        value, grad = self.program.value_and_gradient(self.full_field(u))
        return value, grad[self.dofmap.freedofs]

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Exact gradient of J at u over the free dofs."""
        return self.value_and_gradient(u)[1]

    def hessian_vector_product(self, u: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Exact H(u) @ s over the free dofs, for (n,) or stacked (n, k) directions."""
        s = np.asarray(s, dtype=float)
        if s.ndim not in (1, 2) or s.shape[0] != self.n_dofs:
            n = self.n_dofs
            raise ValueError(f"direction must have shape ({n},) or ({n}, k), got {s.shape}")
        free = self.dofmap.freedofs
        lifted = np.zeros((self.dofmap.n_total,) + s.shape[1:])
        lifted[free] = s
        return self.program.hessian_vector_product(self.full_field(u), lifted)[free]

    def hvp_operator(self, u: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Hessian-probe closure at fixed u, accepting stacked directions."""
        u = np.array(u, dtype=float)
        return lambda s: self.hessian_vector_product(u, s)

    def hessian(self, u: np.ndarray) -> sp.csr_matrix:
        """Exact sparse Hessian at u over the free dofs.

        With a slot map, the element blocks come from ``program`` itself
        in row blocks (``Program.element_hessian_blocks``); without one,
        the Hessian is recovered through the coloring.  A tape that is not a
        sum of element densities raises ``ValueError`` with a slot map and
        needs a problem without one.  A non-finite Hessian raises
        ``ColoringError`` either way.
        """
        if self.element_slots is None:
            return recover_hessian(self.hvp_operator(u), self.coloring, self.pattern)
        blocks = self.program.element_hessian_blocks(self.full_field(u))
        return assemble_element_hessian(blocks, self.element_slots, self.pattern)

    def along(self, u: np.ndarray, d: np.ndarray) -> LineProgram:
        """J(u + alpha * d) as a program over [alpha] (``Program.along``).

        ``d`` is lifted into the field with zeros at the fixed dofs.
        """
        d = np.asarray(d, dtype=float)
        if d.shape != (self.n_dofs,):
            raise ValueError(f"direction must have shape ({self.n_dofs},), got {d.shape}")
        lifted = np.zeros(self.dofmap.n_total)
        lifted[self.dofmap.freedofs] = d
        return self.program.along(self.full_field(u), lifted)

    def full_field(self, u: np.ndarray) -> np.ndarray:
        """Free-dof vector lifted into the field: ``u_0`` at the fixed dofs."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_dofs,):
            raise ValueError(f"free-dof vector must have shape ({self.n_dofs},), got {u.shape}")
        v = self.dofmap.u_0.copy()
        v[self.dofmap.freedofs] = u
        return v

    def with_dirichlet(self, dirichlet: Mapping) -> "EnergyProblem":
        """The same problem under new boundary values: only the dofmap changes.

        The free-dof set must be unchanged.  The tape holds no boundary
        values, so it is reused as it is.
        """
        dofmap = build_dofmap(self.mesh, self.dofmap.components, dirichlet)
        if not np.array_equal(dofmap.freedofs, self.dofmap.freedofs):
            raise ValueError("new Dirichlet data changes the free-dof set")
        return dataclasses.replace(self, dofmap=dofmap)


def identity_deformation(mesh: MeshData, dofmap: DofMap) -> np.ndarray:
    """Free part of the deformation v(x) = x (interleaved components)."""
    return mesh.nodes.ravel()[dofmap.freedofs]


def bar_dirichlet_values(mesh: MeshData, twist_angle: float) -> dict[int, np.ndarray]:
    """End-face deformation values for the twisted-bar benchmark.

    The left face (x = 0) stays at its reference position; the right face
    rotates about the bar axis by ``twist_angle``, clockwise:
    (y, z) -> (y cos t + z sin t, -y sin t + z cos t).
    """
    length = float(mesh.nodes[:, 0].max())
    cos_t, sin_t = np.cos(twist_angle), np.sin(twist_angle)
    values: dict[int, np.ndarray] = {}
    for node in mesh.boundary_nodes:
        x, y, z = mesh.nodes[node]
        if x > length / 2.0:
            values[int(node)] = np.array([x, y * cos_t + z * sin_t, -y * sin_t + z * cos_t])
        else:
            values[int(node)] = np.array([x, y, z])
    return values


def problem_from_mesh(kind: str, mesh: MeshData, params=None) -> EnergyProblem:
    """Assemble a benchmark energy problem on a given mesh.

    Applies the benchmark's Dirichlet data (zero for the scalar problems,
    untwisted end faces for the bar) and default parameters, records the
    tape over the full nodal field, and builds the sparsity pattern and
    the element slot map from the tape's gathers.
    """
    elemdata = precompute_gradients(mesh)
    if kind == "plaplace":
        dofmap = build_dofmap(mesh, 1, {int(b): 0.0 for b in mesh.boundary_nodes})
        if params is None:
            params = PLaplaceParams(p=3.0, f_vec=assemble_load_vector(mesh, elemdata, -10.0))
        program = record_plaplace(dofmap, elemdata, params)
        start = np.zeros(dofmap.n_free)
    elif kind == "ginzburg_landau":
        dofmap = build_dofmap(mesh, 1, {int(b): 0.0 for b in mesh.boundary_nodes})
        if params is None:
            params = GinzburgLandauParams(eps=0.01)
        program = record_ginzburg_landau(dofmap, elemdata, params)
        start = np.ones(dofmap.n_free)
    elif kind == "neohooke":
        dofmap = build_dofmap(mesh, 3, bar_dirichlet_values(mesh, 0.0))
        if params is None:
            params = NeoHookeParams.from_moduli()
        start = identity_deformation(mesh, dofmap)
        program = record_neohooke(dofmap, elemdata, params)
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}; expected one of {BENCHMARK_KINDS}")

    pattern = sparsity_pattern(mesh, dofmap)
    return EnergyProblem(
        kind=kind,
        mesh=mesh,
        elemdata=elemdata,
        dofmap=dofmap,
        params=params,
        program=program,
        pattern=pattern,
        initial_guess=start,
        element_slots=element_slots(program.element_dofs, dofmap, pattern),
    )


def build_problem(kind: str, mesh_level: int, params=None) -> EnergyProblem:
    """Build mesh, element tables, dofmap, tape, pattern, and slot map.

    ``kind`` is one of ``plaplace`` (L-shape, p = 3, f = -10, zero
    Dirichlet), ``ginzburg_landau`` (square, eps = 0.01, zero Dirichlet,
    all-ones start), or ``neohooke`` (bar, untwisted end faces, identity
    start).  The returned problem is reusable across repeated
    minimizations on the same mesh.
    """
    if kind == "plaplace":
        mesh = build_lshape_mesh(mesh_level)
    elif kind == "ginzburg_landau":
        mesh = build_square_mesh(mesh_level)
    elif kind == "neohooke":
        mesh = build_bar_mesh(mesh_level)
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}; expected one of {BENCHMARK_KINDS}")
    return problem_from_mesh(kind, mesh, params)
