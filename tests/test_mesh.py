import numpy as np
import pytest

from minfem.mesh import (
    Region,
    bar_mesh_from_cells,
    build_bar_mesh,
    build_lshape_mesh,
    build_square_mesh,
)

# interior-node counts from the benchmark tables
LSHAPE_DOFS = {1: 33, 2: 161, 3: 705, 4: 2945, 5: 12033, 6: 48641, 7: 195585, 8: 784385}
SQUARE_DOFS = {1: 49, 2: 225, 3: 961, 4: 3969, 5: 16129, 6: 65025, 7: 261121, 8: 1046529}
BAR_DOFS = {1: 2133, 2: 11925, 3: 77517}


def signed_volumes(mesh):
    coords = mesh.nodes[mesh.elems]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    return np.linalg.det(edges) / (2.0 if mesh.dim == 2 else 6.0)


@pytest.mark.parametrize("level", sorted(LSHAPE_DOFS))
def test_lshape_interior_counts(level):
    mesh = build_lshape_mesh(level)
    assert mesh.n_nodes - mesh.boundary_nodes.size == LSHAPE_DOFS[level]


@pytest.mark.parametrize("level", sorted(SQUARE_DOFS))
def test_square_interior_counts(level):
    mesh = build_square_mesh(level)
    assert mesh.n_nodes - mesh.boundary_nodes.size == SQUARE_DOFS[level]


@pytest.mark.parametrize("level", sorted(BAR_DOFS))
def test_bar_vector_dof_counts(level):
    mesh = build_bar_mesh(level)
    assert 3 * (mesh.n_nodes - mesh.boundary_nodes.size) == BAR_DOFS[level]
    # counts follow (nx - 1)(ny + 1)(nz + 1) free nodes
    f = 2 ** (level - 1)
    assert mesh.n_nodes - mesh.boundary_nodes.size == (80 * f - 1) * (2 * f + 1) ** 2


def test_lshape_level1_uniform_areas():
    mesh = build_lshape_mesh(1)
    vols = signed_volumes(mesh)
    assert np.allclose(vols, 1.0 / 32.0, rtol=0, atol=1e-15)
    assert abs(vols.sum() - 3.0) < 1e-12  # |Omega| of the L-shape


@pytest.mark.parametrize("level", [1, 2, 3])
def test_square_partition_area(level):
    mesh = build_square_mesh(level)
    assert abs(signed_volumes(mesh).sum() - 4.0) < 1e-12


@pytest.mark.parametrize("level", [1, 2])
def test_bar_partition_volume(level):
    mesh = build_bar_mesh(level)
    assert abs(signed_volumes(mesh).sum() - 4.0e-5) < 1e-15


@pytest.mark.parametrize(
    "builder", [build_lshape_mesh, build_square_mesh, build_bar_mesh]
)
def test_positive_orientation_and_index_range(builder):
    mesh = builder(1)
    assert (signed_volumes(mesh) > 0).all()
    assert mesh.elems.min() >= 0 and mesh.elems.max() < mesh.n_nodes


@pytest.mark.parametrize(
    "builder,levels",
    [
        (build_lshape_mesh, (1, 2)),
        (build_lshape_mesh, (2, 3)),
        (build_square_mesh, (1, 2)),
        (build_square_mesh, (2, 3)),
        (build_bar_mesh, (1, 2)),
    ],
)
def test_refinement_nests_nodes_exactly(builder, levels):
    coarse = builder(levels[0])
    fine = builder(levels[1])
    fine_set = {tuple(p) for p in fine.nodes}
    missing = [tuple(p) for p in coarse.nodes if tuple(p) not in fine_set]
    assert not missing, f"coarse nodes absent from refinement: {missing[:3]}"


def _on_lshape_boundary(x, y, tol=1e-12):
    def seg(val, lo, hi, coord):
        return abs(coord) < tol and lo - tol <= val <= hi + tol

    return (
        seg(x, 0, 2, y)  # y = 0
        or seg(y, 0, 1, x - 2)  # x = 2
        or seg(x, 1, 2, y - 1)  # y = 1 re-entrant
        or seg(y, 1, 2, x - 1)  # x = 1 re-entrant
        or seg(x, 0, 1, y - 2)  # y = 2
        or seg(y, 0, 2, x)  # x = 0
    )


@pytest.mark.parametrize("level", [1, 2, 3])
def test_lshape_boundary_matches_geometry(level):
    mesh = build_lshape_mesh(level)
    flags = np.array([_on_lshape_boundary(x, y) for x, y in mesh.nodes])
    assert np.array_equal(np.nonzero(flags)[0], mesh.boundary_nodes)


@pytest.mark.parametrize("level", [1, 2])
def test_square_boundary_matches_geometry(level):
    mesh = build_square_mesh(level)
    tol = 1e-12
    flags = (np.abs(np.abs(mesh.nodes[:, 0]) - 1) < tol) | (
        np.abs(np.abs(mesh.nodes[:, 1]) - 1) < tol
    )
    assert np.array_equal(np.nonzero(flags)[0], mesh.boundary_nodes)


@pytest.mark.parametrize("level", [1, 2])
def test_bar_boundary_is_end_faces(level):
    mesh = build_bar_mesh(level)
    tol = 1e-12
    x = mesh.nodes[:, 0]
    flags = (np.abs(x) < tol) | (np.abs(x - 0.4) < tol)
    assert np.array_equal(np.nonzero(flags)[0], mesh.boundary_nodes)


@pytest.mark.parametrize(
    "builder", [build_lshape_mesh, build_square_mesh, build_bar_mesh]
)
@pytest.mark.parametrize("bad", [0, -1, -7])
def test_rejects_nonpositive_level(builder, bad):
    with pytest.raises(ValueError):
        builder(bad)


@pytest.mark.parametrize(
    "builder", [build_lshape_mesh, build_square_mesh, build_bar_mesh]
)
@pytest.mark.parametrize("level", [29, 40])
def test_levels_beyond_numpys_index_range_raise_memory_error(builder, level):
    # refused before anything is allocated
    with pytest.raises(MemoryError, match="exceeds numpy's index range"):
        builder(level)


def test_bar_cells_validation():
    with pytest.raises(ValueError):
        bar_mesh_from_cells(0, 2, 2, 0.005)
    with pytest.raises(ValueError):
        bar_mesh_from_cells(4, 2, 2, -1.0)


@pytest.mark.parametrize(
    "builder,region",
    [
        (build_lshape_mesh, Region.LSHAPE),
        (build_square_mesh, Region.SQUARE),
        (build_bar_mesh, Region.BAR),
    ],
)
def test_deterministic_build_and_tag(builder, region):
    a = builder(2)
    b = builder(2)
    assert a.region is region
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.elems, b.elems)
    assert np.array_equal(a.boundary_nodes, b.boundary_nodes)


def test_node_ordering_is_grid_lexicographic():
    mesh = build_square_mesh(1)
    # y-major then x: sorting by (y, x) must be a no-op
    order = np.lexsort((mesh.nodes[:, 0], mesh.nodes[:, 1]))
    assert np.array_equal(order, np.arange(mesh.n_nodes))
    bar = build_bar_mesh(1)
    order = np.lexsort((bar.nodes[:, 0], bar.nodes[:, 1], bar.nodes[:, 2]))
    assert np.array_equal(order, np.arange(bar.n_nodes))
