"""Grid-data precomputation for linear nodal elements.

Produces the per-element basis-gradient tables and volumes, the Dirichlet
scaffolding (free-dof indexing and boundary-value vector), constant load
vectors, the symmetric sparsity pattern of the energy Hessian, in whose
slots every matrix on the Newton path holds its data (exact zeros kept),
and the map from element Hessian entries to those slots.  The pattern
keeps what depends on its structure alone: mirror and diagonal slots,
the direct solver's band ordering and the latest AMG structure.

Everything is vectorized over elements.  Triangle gradients come in
closed form, tetrahedra through numpy's LAPACK ``inv`` and ``det``
(``precompute_gradients`` says why).  The pattern's indices are int32
below 2^31 stored entries, so the matrices built on it share them
without a copy.  The slot map looks each entry up within its own CSR
row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import MeshData

if TYPE_CHECKING:
    from .solvers import LevelStructure

__all__ = [
    "ElementData",
    "DofMap",
    "BandOrdering",
    "SparsityPattern",
    "precompute_gradients",
    "build_dofmap",
    "assemble_load_vector",
    "sparsity_pattern",
    "element_slots",
]

# element Hessian entries looked up at a time by ``element_slots``
_SLOT_LOOKUP_BLOCK = 2**20


@dataclass(frozen=True, eq=False)
class ElementData:
    """Per-element tables of the linear nodal basis.

    ``dvx[e, i]`` is the (constant) x-derivative of basis function i on
    element e; ``vol`` holds element areas/volumes.  ``elems`` repeats the
    mesh connectivity so the tables form a self-contained input bundle.
    """

    elems: np.ndarray
    dvx: np.ndarray
    dvy: np.ndarray
    vol: np.ndarray
    dvz: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class DofMap:
    """Free/fixed dof bookkeeping for a scalar or vector-valued field.

    Vector dofs interleave per node: node k's components occupy slots
    ``components*k .. components*k + components - 1``.  ``u_0`` carries the
    Dirichlet values at fixed dofs and zeros at free dofs.  It is the one
    home of the boundary values: the energy tapes are recorded over the
    full field and hold none of them.
    """

    n_total: int
    components: int
    freedofs: np.ndarray
    u_0: np.ndarray

    @property
    def n_free(self) -> int:
        return self.freedofs.shape[0]


@dataclass(frozen=True, eq=False)
class BandOrdering:
    """A symmetric permutation that packs a pattern into a narrow band.

    Position k of the permuted matrix holds row ``perm[k]``, and row i
    moves to ``position[i]``.  Every stored entry (i, j) of the pattern
    lands within ``bandwidth`` of the diagonal:
    ``|position[i] - position[j]| <= bandwidth``.  ``band_slots[k]`` is pattern
    slot k's place in ``dpbtrf``'s upper band storage (past its end: lower triangle).
    """

    perm: np.ndarray
    position: np.ndarray
    bandwidth: int
    band_slots: np.ndarray


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Symmetric nonzero structure of the Hessian over the free dofs.

    Stored in row-pointer (CSR) form with sorted column indices and a full
    diagonal.  ``mirror``, ``diagonal_slots`` and ``band_ordering`` are
    derived from it on first use.  ``amg_structure`` holds the
    ``structure`` of the latest ``solvers.build_amg`` on a matrix with
    this pattern (empty before the first), where every Newton solve on
    the pattern starts its build and leaves its own: a stale entry costs
    a fresh aggregation, never a different hierarchy.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    amg_structure: list[LevelStructure] = field(default_factory=list, init=False, repr=False)

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate form (row, col) of the stored entries.

        The rows are int64, so keys such as ``rows * n + cols`` do not overflow.
        """
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return rows, self.indices

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix holding ``data`` in the pattern's slots."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def tocsr(self, dtype=np.float64) -> sp.csr_matrix:
        return self.matrix(np.ones(self.nnz, dtype=dtype))

    def holds(self, a: sp.csr_matrix) -> bool:
        """Whether ``a`` has this CSR structure, and so its data in the pattern's slots."""
        same = a.shape == (self.n, self.n) and np.array_equal(a.indptr, self.indptr)
        return same and np.array_equal(a.indices, self.indices)

    @functools.cached_property
    def mirror(self) -> np.ndarray:
        """Slot of (j, i) for each slot (i, j), int32; ``ValueError`` if not symmetric."""
        rows, cols = self.rows_cols()
        mirror = np.argsort(cols, kind="stable")  # (column, row) order: the transpose's
        if not (np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows)):
            raise ValueError("the sparsity pattern is not symmetric")
        return mirror.astype(np.int32)

    @functools.cached_property
    def diagonal_slots(self) -> np.ndarray:
        """Slot of each row's diagonal entry, int32; ``ValueError`` if a row has none."""
        slots = np.flatnonzero(self.mirror == np.arange(self.nnz))  # (i, i) mirrors itself
        if slots.shape[0] != self.n:
            raise ValueError(f"the pattern has diagonal entries in {len(slots)} of {self.n} rows")
        return slots.astype(np.int32)

    @functools.cached_property
    def band_ordering(self) -> BandOrdering:
        """Reverse Cuthill-McKee ordering, half-bandwidth and band slots, on first use.

        Cuthill and McKee (Proc. ACM 1969), reversed as in George and Liu,
        Computer Solution of Large Sparse Positive Definite Systems (1981).
        It depends on the structure alone, so every matrix with this
        pattern (each Newton step, each load step) shares one.
        """
        perm = reverse_cuthill_mckee(self.tocsr(), symmetric_mode=True).astype(np.int64)
        position = np.empty_like(perm)
        position[perm] = np.arange(self.n)
        rows, cols = self.rows_cols()
        offset = position[cols] - position[rows]
        w = int(np.abs(offset).max(initial=0))
        slots = np.where(offset >= 0, position[cols] * (w + 1) + w - offset, self.n * (w + 1))
        dtype = np.int32 if self.n * (w + 1) < 2**31 else np.int64
        return BandOrdering(perm, position, w, slots.astype(dtype))

    @classmethod
    def from_csr(cls, a: sp.spmatrix) -> "SparsityPattern":
        """The structure of ``a``, indices int32 below 2^31 stored entries (int64 past)."""
        a = sp.csr_matrix(a, copy=True)  # tidied in place: leave the caller's arrays be
        a.sum_duplicates()  # sorts the indices too
        dtype = np.int32 if a.nnz < 2**31 else np.int64
        return cls(a.shape[0], a.indptr.astype(dtype), a.indices.astype(dtype))


def precompute_gradients(mesh: MeshData) -> ElementData:
    """Basis gradients and volumes of every simplex.

    With the edge matrix's rows p_1 - p_0, ..., p_dim - p_0, the gradients
    of basis functions 1..dim are the columns of its inverse; basis 0
    closes the partition of unity.  The volume is |det| / 2 in 2D and
    |det| / 6 in 3D.  A simplex with |det| <= 1e-12 * (largest |edge
    entry|)^dim is degenerate: it raises ``ValueError`` naming the element
    index, before anything divides by its determinant.

    Triangles take the closed form, vectorized over elements on
    per-coordinate arrays (as in Rahman and Valdman, Appl. Math. Comput.
    219, 2013): the cofactors over the determinant.  numpy's batched
    LAPACK ``inv`` and ``det`` make one call per 2x2 matrix.  Tetrahedra
    keep LAPACK: the 3x3 cofactor form puts the Neo-Hookean energy of the
    identity on bar L1 at 8.5e-15, where criterion 8 holds it below 1e-18
    (``test_criterion_8_trivial_identities``,
    ``test_neohooke_identity_is_stress_free``).
    """
    if mesh.dim == 2:
        return _triangle_tables(mesh)
    edges = mesh.nodes[mesh.elems[:, 1:]] - mesh.nodes[mesh.elems[:, :1]]  # rows: edges
    det = np.linalg.det(edges)
    _refuse_degenerate(det, [edges[:, i, j] for i in range(3) for j in range(3)], 3)

    inv = np.linalg.inv(edges)  # inv[:, k, j]: d/dx_k of basis j + 1
    dvx, dvy, dvz = (_close_partition([inv[:, k, 0], inv[:, k, 1], inv[:, k, 2]]) for k in range(3))
    return ElementData(elems=mesh.elems, dvx=dvx, dvy=dvy, vol=np.abs(det) / 6.0, dvz=dvz)


def _triangle_tables(mesh: MeshData) -> ElementData:
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    p0, p1, p2 = mesh.elems.T
    x1, y1 = x[p1] - x[p0], y[p1] - y[p0]
    x2, y2 = x[p2] - x[p0], y[p2] - y[p0]
    det = x1 * y2 - y1 * x2
    _refuse_degenerate(det, [x1, y1, x2, y2], 2)

    # inv([[x1, y1], [x2, y2]]) = [[y2, -y1], [-x2, x1]] / det
    dvx = _close_partition([y2 / det, -y1 / det])
    dvy = _close_partition([-x2 / det, x1 / det])
    return ElementData(elems=mesh.elems, dvx=dvx, dvy=dvy, vol=np.abs(det) / 2.0)


def _refuse_degenerate(det: np.ndarray, entries: list[np.ndarray], dim: int) -> None:
    """``ValueError`` naming the first element whose |det| is negligible against its edges."""
    scale = functools.reduce(np.maximum, [np.abs(v) for v in entries])
    bad = np.abs(det) <= 1e-12 * np.maximum(scale, 1e-300) ** dim
    if bad.any():
        raise ValueError(f"degenerate simplex at element {int(np.flatnonzero(bad)[0])}")


def _close_partition(columns: list[np.ndarray]) -> np.ndarray:
    """(E, dim + 1) table of one derivative: basis 0 first, minus the others' sum."""
    return np.stack([-functools.reduce(np.add, columns), *columns], axis=1)


def build_dofmap(
    mesh: MeshData,
    components: int,
    dirichlet: Mapping[int, float | Sequence[float]],
) -> DofMap:
    """Free-dof indexing and Dirichlet-value vector.

    ``dirichlet`` maps every boundary node to its prescribed value (a
    scalar for ``components == 1``, a length-``components`` sequence
    otherwise).  A value for a non-boundary node, or a missing boundary
    node, is an error.
    """
    if components not in (1, mesh.dim):
        raise ValueError(f"components must be 1 or {mesh.dim}, got {components}")
    boundary = set(int(b) for b in mesh.boundary_nodes)
    given = set(int(k) for k in dirichlet)
    if given - boundary:
        raise ValueError(
            f"Dirichlet value prescribed at non-boundary node {sorted(given - boundary)[0]}"
        )
    if boundary - given:
        raise ValueError(
            f"missing Dirichlet value for boundary node {sorted(boundary - given)[0]}"
        )

    n_total = mesh.n_nodes * components
    u_0 = np.zeros(n_total)
    fixed = np.zeros(n_total, dtype=bool)
    for node, value in dirichlet.items():
        if components == 1:
            vals = [float(value)]
        else:
            vals = [float(v) for v in np.asarray(value).ravel()]
            if len(vals) != components:
                raise ValueError(
                    f"Dirichlet value at node {node} has {len(vals)} components, "
                    f"expected {components}"
                )
        for c, v in enumerate(vals):
            dof = components * int(node) + c
            u_0[dof] = v
            fixed[dof] = True
    freedofs = np.nonzero(~fixed)[0]
    return DofMap(n_total=n_total, components=components, freedofs=freedofs, u_0=u_0)


def assemble_load_vector(mesh: MeshData, elemdata: ElementData, f_const: float) -> np.ndarray:
    """Nodal load vector of a constant source: f_i = f * integral of basis i.

    For linear elements the exact integral of basis function i over an
    element is vol / nodes_per_elem.
    """
    npe = mesh.elems.shape[1]
    weights = np.repeat(elemdata.vol / npe, npe)
    out = np.bincount(mesh.elems.ravel(), weights=weights, minlength=mesh.n_nodes)
    return f_const * out


def sparsity_pattern(mesh: MeshData, dofmap: DofMap) -> SparsityPattern:
    """Hessian nonzero structure over the free dofs.

    Two free dofs are connected iff their nodes share an element; vector
    problems expand each node adjacency into a dense components^2 block.
    The result is symmetric with a full diagonal, reindexed to free-dof
    positions.  A free dof that no element touches would leave an empty
    row: it raises ``ValueError`` naming the dof.
    """
    elems = mesh.elems
    npe = elems.shape[1]
    rows = np.repeat(elems, npe, axis=1).ravel()
    cols = np.tile(elems, (1, npe)).ravel()
    data = np.ones(rows.size, dtype=np.int8)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    adj.data[:] = 1

    c = dofmap.components
    if c > 1:
        adj = sp.kron(adj, np.ones((c, c), dtype=np.int8), format="csr")
    free = dofmap.freedofs
    restricted = adj[free][:, free].tocsr()
    empty = np.flatnonzero(np.diff(restricted.indptr) == 0)
    if empty.size:
        raise ValueError(f"free dof {int(free[empty[0]])} belongs to no element")
    return SparsityPattern.from_csr(restricted)


def element_slots(dofs: np.ndarray, dofmap: DofMap, pattern: SparsityPattern) -> np.ndarray:
    """Slot in ``pattern.indices`` of every element Hessian entry (e, a, b).

    ``dofs`` (E, L) holds the full-field dof behind each element-local
    index (``Program.element_dofs``); entry (e, a, b) couples local row a
    with local column b of element e.  Entries on a fixed dof go to the
    spare slot ``pattern.nnz``.  Returns shape (E, L, L), in the pattern's
    index dtype (int32 below 2^31 stored entries).

    Each entry is looked up within its own CSR row, by scipy's fancy
    indexing into a matrix that holds every slot's number.  Fixed dofs sit
    on an extra empty row and column n, so their entries find nothing, as
    a coupling outside the pattern does; one count tells the two apart.
    The lookups run in blocks of about ``_SLOT_LOOKUP_BLOCK`` entries, so
    that scipy's index copies stay small next to the (E, L, L) result.
    """
    n, nnz, dtype = pattern.n, pattern.nnz, pattern.indices.dtype
    position = np.full(dofmap.n_total, n, dtype=dtype)
    position[dofmap.freedofs] = np.arange(n)
    # slot k holds k - nnz, so an entry that finds nothing (0) reads as nnz
    numbers = sp.csr_array(
        (np.arange(-nnz, 0, dtype=dtype), pattern.indices, np.append(pattern.indptr, nnz)),
        shape=(n + 1, n + 1),
    )
    local = position[dofs]
    n_elems, n_local = local.shape
    slots = np.empty((n_elems, n_local, n_local), dtype=dtype)
    step = max(1, _SLOT_LOOKUP_BLOCK // n_local**2)
    for start in range(0, n_elems, step):
        block = local[start : start + step]
        rows = np.repeat(block, n_local, axis=1).ravel()
        cols = np.tile(block, (1, n_local)).ravel()
        found = numbers[rows, cols]
        found += nnz
        if np.count_nonzero(found == nnz) != np.count_nonzero((rows == n) | (cols == n)):
            raise ValueError("an element couples free dofs outside the sparsity pattern")
        slots[start : start + step] = found.reshape(-1, n_local, n_local)
    return slots
