"""Structured simplicial meshes for the three benchmark domains.

All builders are deterministic: nodes are enumerated lexicographically by
grid index ((y, x) in 2D, (z, y, x) in 3D), each grid square is split into
two triangles along the lower-left/upper-right diagonal, and each cubic
cell is split into six tetrahedra sharing the main diagonal.  Doubling the
grid per level makes the node set of level k a geometric subset of the
node set of level k + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Region",
    "MeshData",
    "build_lshape_mesh",
    "build_square_mesh",
    "build_bar_mesh",
    "bar_mesh_from_cells",
]

BAR_CELL_SIZE = 0.005  # level-1 cubic cell edge of the bar benchmark


class Region(Enum):
    """Tag identifying which benchmark domain a mesh discretizes."""

    LSHAPE = "lshape"
    SQUARE = "square"
    BAR = "bar"


@dataclass(frozen=True, eq=False)
class MeshData:
    """Simplicial mesh with Dirichlet boundary classification.

    Attributes
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    nodes : ndarray, shape (n_nodes, dim)
        Node coordinates.
    elems : ndarray, shape (n_elems, dim + 1)
        Node indices of each simplex, enumerated with positive signed
        volume.
    boundary_nodes : ndarray
        Sorted indices of the nodes on the Dirichlet boundary.
    region : Region
        Benchmark domain tag.
    """

    dim: int
    nodes: np.ndarray
    elems: np.ndarray
    boundary_nodes: np.ndarray
    region: Region

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]

    def interior_nodes(self) -> np.ndarray:
        """Indices of the nodes not on the Dirichlet boundary."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]


def _check_level(level: int) -> None:
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool) or level < 1:
        raise ValueError(f"refinement level must be a positive integer, got {level!r}")


def _check_size(elem_entries: int) -> None:
    # the element table is a builder's largest array; numpy refuses one of
    # more bytes than its index type holds with a bare ValueError
    if elem_entries * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
        raise MemoryError(
            f"mesh too large: its element table of {elem_entries} entries "
            "exceeds numpy's index range"
        )


def _split_cells_into_triangles(ll, lr, ul, ur) -> np.ndarray:
    # lower-left -> upper-right diagonal; both triangles counterclockwise
    n = ll.size
    elems = np.empty((2 * n, 3), dtype=np.int64)
    elems[0::2, 0] = ll
    elems[0::2, 1] = lr
    elems[0::2, 2] = ur
    elems[1::2, 0] = ll
    elems[1::2, 1] = ur
    elems[1::2, 2] = ul
    return elems


def build_lshape_mesh(level: int) -> MeshData:
    """Uniform right-triangle mesh of the L-shape (0,2)^2 minus [1,2]^2.

    Level 1 has grid spacing 1/4 (33 interior nodes); each level halves
    the spacing.
    """
    _check_level(level)
    n = 2 ** (level + 2)  # cells per side of the bounding square
    m = n // 2
    h = 2.0 / n
    _check_size(6 * (n * n - m * m))

    jj, ii = np.mgrid[0 : n + 1, 0 : n + 1]  # y-major enumeration
    keep = (ii <= m) | (jj <= m)
    new_id = np.full((n + 1) * (n + 1), -1, dtype=np.int64)
    new_id[keep.ravel()] = np.arange(int(keep.sum()))

    ik = ii.ravel()[keep.ravel()]
    jk = jj.ravel()[keep.ravel()]
    nodes = np.column_stack([ik * h, jk * h])

    on_boundary = (
        (ik == 0)
        | (jk == 0)
        | (ik == n)
        | (jk == n)
        | ((ik == m) & (jk >= m))
        | ((jk == m) & (ik >= m))
    )
    boundary_nodes = np.nonzero(on_boundary)[0]

    cj, ci = np.mgrid[0:n, 0:n]
    ckeep = ((ci < m) | (cj < m)).ravel()
    ci = ci.ravel()[ckeep]
    cj = cj.ravel()[ckeep]
    base = cj * (n + 1) + ci
    elems = _split_cells_into_triangles(
        new_id[base], new_id[base + 1], new_id[base + n + 1], new_id[base + n + 2]
    )
    return MeshData(2, nodes, elems, boundary_nodes, Region.LSHAPE)


def build_square_mesh(level: int) -> MeshData:
    """Uniform right-triangle mesh of the square (-1,1)^2.

    Level 1 is a 9x9 node grid (49 interior nodes); each level doubles
    the grid.
    """
    _check_level(level)
    n = 2 ** (level + 2)
    h = 2.0 / n
    _check_size(6 * n * n)

    jj, ii = np.mgrid[0 : n + 1, 0 : n + 1]
    ik = ii.ravel()
    jk = jj.ravel()
    nodes = np.column_stack([ik * h - 1.0, jk * h - 1.0])
    boundary_nodes = np.nonzero((ik == 0) | (jk == 0) | (ik == n) | (jk == n))[0]

    cj, ci = np.mgrid[0:n, 0:n]
    base = (cj * (n + 1) + ci).ravel()
    elems = _split_cells_into_triangles(base, base + 1, base + n + 1, base + n + 2)
    return MeshData(2, nodes, elems, boundary_nodes, Region.SQUARE)


def _kuhn_tetrahedra() -> np.ndarray:
    """The six corner-offset quadruples splitting the unit cube.

    All tetrahedra share the (0,0,0)-(1,1,1) diagonal; vertex order is
    fixed so every signed volume is positive.
    """
    eye = np.eye(3, dtype=np.int64)
    tets = []
    for perm in itertools.permutations(range(3)):
        offs = [np.zeros(3, dtype=np.int64)]
        acc = np.zeros(3, dtype=np.int64)
        for axis in perm[:2]:
            acc = acc + eye[axis]
            offs.append(acc.copy())
        offs.append(np.ones(3, dtype=np.int64))
        if np.linalg.det(np.array(offs[1:]) - offs[0]) < 0:
            offs[2], offs[3] = offs[3], offs[2]
        tets.append(offs)
    return np.array(tets)  # (6, 4, 3)


_KUHN_TETS = _kuhn_tetrahedra()


def bar_mesh_from_cells(nx: int, ny: int, nz: int, h: float) -> MeshData:
    """Structured tetrahedral mesh of the box (0, nx*h) x (+-ny*h/2) x (+-nz*h/2).

    Each cubic cell of edge ``h`` is split into six tetrahedra with a fixed
    (Kuhn) convention.  The Dirichlet boundary is the two faces x = 0 and
    x = nx*h.
    """
    if min(nx, ny, nz) < 1 or h <= 0:
        raise ValueError("cell counts must be positive and h > 0")
    kk, jj, ii = np.mgrid[0 : nz + 1, 0 : ny + 1, 0 : nx + 1]  # z-major enumeration
    ik = ii.ravel()
    jk = jj.ravel()
    kshow = kk.ravel()
    nodes = np.column_stack(
        [ik * h, jk * h - (ny * h) / 2.0, kshow * h - (nz * h) / 2.0]
    )
    boundary_nodes = np.nonzero((ik == 0) | (ik == nx))[0]

    ck, cj, ci = np.mgrid[0:nz, 0:ny, 0:nx]
    ci = ci.ravel()
    cj = cj.ravel()
    ck = ck.ravel()
    n_cells = ci.size

    def node_id(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    elems = np.empty((6 * n_cells, 4), dtype=np.int64)
    for t, tet in enumerate(_KUHN_TETS):
        for v, (dx, dy, dz) in enumerate(tet):
            elems[t::6, v] = node_id(ci + dx, cj + dy, ck + dz)
    return MeshData(3, nodes, elems, boundary_nodes, Region.BAR)


def build_bar_mesh(level: int) -> MeshData:
    """Structured tetrahedral mesh of the 0.4 x 0.01 x 0.01 bar.

    Level 1 uses (80, 2, 2) cubic cells of edge 0.005; each level doubles
    all three counts.  Boundary nodes are the two end faces x = 0 and
    x = 0.4.
    """
    _check_level(level)
    f = 2 ** (level - 1)
    nx, ny, nz = 80 * f, 2 * f, 2 * f
    _check_size(24 * nx * ny * nz)  # six tetrahedra of 4 nodes per cell
    return bar_mesh_from_cells(nx, ny, nz, BAR_CELL_SIZE / f)
