"""Sparse Hessians from a few Hessian-vector products.

Two constructions share the pattern and the symmetrization in its slots:

- ``recover_hessian`` works for any energy.  A distance-2 coloring groups
  columns so that no two same-colored columns share a structurally nonzero
  row; one Hessian-vector product per color then determines every stored
  entry exactly (63 products for the bar, 9 for the 2D benchmarks).
  ``EnergyProblem`` colors its pattern only when this path first asks.
- ``assemble_element_hessian`` needs an energy that is a sum of element
  densities and every element's (L, L) Hessian block, L = npe *
  components (12 for tetrahedra, 3 for triangles), which
  ``EnergyProblem.hessian`` takes from the energy tape
  (``Program.element_hessian_blocks``) a few hundred elements at a time.
  The blocks are summed into the pattern through a precomputed slot map
  by ``np.add.at``, which adds in the order ``np.bincount`` does, so no
  (E, L, L) array is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

from .fem import SparsityPattern

__all__ = [
    "Coloring",
    "ColoringError",
    "color_pattern",
    "recover_hessian",
    "assemble_element_hessian",
]


# directions per product: the tape's working memory grows with the block
_PROBE_BLOCK = 8


class ColoringError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Coloring:
    """Column-color assignment for a symmetric sparsity pattern."""

    color_of: np.ndarray

    @property
    def n_colors(self) -> int:
        return int(self.color_of.max(initial=-1)) + 1


def color_pattern(pattern: SparsityPattern) -> Coloring:
    """Greedy distance-2 coloring of the pattern's columns.

    Columns are visited in descending-degree order (ties by ascending
    index); each takes the smallest color not used by any column within
    distance 2 in the adjacency graph.  Deterministic for a given pattern.
    """
    n = pattern.n
    a = pattern.tocsr(dtype=np.int8)
    # columns conflict iff they share a row; for a symmetric pattern with a
    # full diagonal that is exactly the structure of A @ A
    conflict = (a @ a).tocsr()
    conflict.sort_indices()

    degree = np.diff(a.indptr)
    order = np.lexsort((np.arange(n), -degree))
    color = [-1] * n
    # memoryviews, as in solvers._aggregate: no Python int per stored entry
    indptr, indices = memoryview(conflict.indptr), memoryview(conflict.indices)
    for j in order.tolist():
        used = {color[i] for i in indices[indptr[j] : indptr[j + 1]]}
        c = 0
        while c in used:
            c += 1
        color[j] = c
    return Coloring(color_of=np.array(color, dtype=np.int64))


def recover_hessian(
    hvp: Callable[[np.ndarray], np.ndarray],
    coloring: Coloring,
    pattern: SparsityPattern,
) -> sp.csr_matrix:
    """Assemble the sparse Hessian from one probe per color.

    ``hvp`` must map stacked directions of shape (n, k) to the matching
    products (n, k).  Probes use the color indicator vectors; entry (i, j)
    is read from component i of the probe for j's color.  The result is
    symmetrized as (H + H^T) / 2 in the pattern's slots; values outside
    the pattern are discarded.  A non-finite probe raises, naming its color.
    """
    n, k = pattern.n, coloring.n_colors
    seeds = np.zeros((n, k))
    seeds[np.arange(n), coloring.color_of] = 1.0

    probes = np.empty((n, k))
    for start in range(0, k, _PROBE_BLOCK):
        stop = min(start + _PROBE_BLOCK, k)
        block = np.asarray(hvp(seeds[:, start:stop]))
        if block.shape != (n, stop - start):
            raise ValueError(f"hvp returned shape {block.shape}, expected ({n}, {stop - start})")
        probes[:, start:stop] = block
    finite = np.isfinite(probes).all(axis=0)
    if not finite.all():
        raise ColoringError(f"non-finite Hessian probe for color {int(np.nonzero(~finite)[0][0])}")

    rows, cols = pattern.rows_cols()
    return _symmetrized(probes[rows, coloring.color_of[cols]], pattern)


def assemble_element_hessian(
    blocks: Iterable[tuple[int, np.ndarray]],
    slots: np.ndarray,
    pattern: SparsityPattern,
) -> sp.csr_matrix:
    """Assemble the sparse Hessian of a sum of element densities.

    ``blocks`` yields ``(start, block)`` pairs in element order
    (``Program.element_hessian_blocks``): block (b, L, L) holds the
    Hessian blocks of elements start to start + b.  ``slots`` (E, L, L)
    holds the pattern slot of each block entry, the spare slot
    ``pattern.nnz`` for entries on fixed dofs.  ``np.add.at`` adds each
    block's entries there, onto zeros, in index order, so the sums are
    those of one ``np.bincount`` over all blocks, bit for bit; they are
    symmetrized as in ``recover_hessian``.  A block whose shape is not
    that of its rows of ``slots`` raises ``ValueError``, and a non-finite
    sum ``ColoringError``, naming its row.
    """
    data = np.zeros(pattern.nnz + 1)
    for start, block in blocks:
        part = slots[start : start + len(block)]
        if block.shape != part.shape:
            raise ValueError(
                f"element blocks from row {start} have shape {block.shape}, slots {part.shape}"
            )
        np.add.at(data, part.ravel(), block.ravel())
    data = data[: pattern.nnz]
    finite = np.isfinite(data)
    if not finite.all():
        row = int(np.searchsorted(pattern.indptr, np.nonzero(~finite)[0][0], side="right")) - 1
        raise ColoringError(f"non-finite element Hessian entry in row {row}")
    return _symmetrized(data, pattern)


def _symmetrized(data: np.ndarray, pattern: SparsityPattern) -> sp.csr_matrix:
    """(H + H^T) / 2 of the matrix with ``data`` in the pattern's slots, kept in those slots."""
    return pattern.matrix((data + data[pattern.mirror]) * 0.5)
