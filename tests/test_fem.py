import numpy as np
import pytest
import scipy.sparse as sp

from minfem.energies import build_problem, problem_from_mesh
from minfem.fem import (
    SparsityPattern,
    assemble_load_vector,
    build_dofmap,
    precompute_gradients,
    sparsity_pattern,
)
from minfem.mesh import MeshData, Region, build_bar_mesh, build_lshape_mesh, build_square_mesh


def mesh_2d(nodes, elems, boundary=()):
    return MeshData(
        2,
        np.asarray(nodes, dtype=float),
        np.asarray(elems, dtype=np.int64),
        np.asarray(sorted(boundary), dtype=np.int64),
        Region.SQUARE,
    )


def mesh_3d(nodes, elems, boundary=()):
    return MeshData(
        3,
        np.asarray(nodes, dtype=float),
        np.asarray(elems, dtype=np.int64),
        np.asarray(sorted(boundary), dtype=np.int64),
        Region.BAR,
    )


REF_TRI = mesh_2d([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
REF_TET = mesh_3d([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)])
TWO_TRIS = mesh_2d([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, 2)])


def test_reference_triangle_tables():
    data = precompute_gradients(REF_TRI)
    assert np.allclose(data.dvx, [[-1.0, 1.0, 0.0]])
    assert np.allclose(data.dvy, [[-1.0, 0.0, 1.0]])
    assert np.allclose(data.vol, [0.5])
    assert data.dvz is None


def test_reference_tetrahedron_tables():
    data = precompute_gradients(REF_TET)
    assert np.allclose(data.dvx, [[-1.0, 1.0, 0.0, 0.0]])
    assert np.allclose(data.dvy, [[-1.0, 0.0, 1.0, 0.0]])
    assert np.allclose(data.dvz, [[-1.0, 0.0, 0.0, 1.0]])
    assert np.allclose(data.vol, [1.0 / 6.0])


def test_affine_triangles_reproduce_linear_gradients():
    # exactness of linear interpolation: v = 3x - 2y has gradient (3, -2)
    rng = np.random.default_rng(42)
    for _ in range(100):
        pts = rng.uniform(-2, 2, size=(3, 2))
        if abs(np.linalg.det(pts[1:] - pts[0])) < 1e-3:
            continue
        mesh = mesh_2d(pts, [(0, 1, 2)])
        data = precompute_gradients(mesh)
        v = 3.0 * pts[:, 0] - 2.0 * pts[:, 1]
        gx = float((v * data.dvx[0]).sum())
        gy = float((v * data.dvy[0]).sum())
        assert abs(gx - 3.0) < 1e-9 and abs(gy + 2.0) < 1e-9


@pytest.mark.parametrize(
    "mesh", [build_lshape_mesh(2), build_square_mesh(2), build_bar_mesh(1)]
)
def test_partition_of_unity_gradients(mesh):
    data = precompute_gradients(mesh)
    assert np.abs(data.dvx.sum(axis=1)).max() < 1e-12
    assert np.abs(data.dvy.sum(axis=1)).max() < 1e-12
    if data.dvz is not None:
        assert np.abs(data.dvz.sum(axis=1)).max() < 1e-12
    assert (data.vol > 0).all()


def lapack_tables(mesh):
    """dvx, dvy and areas from numpy's batched LAPACK inverse and determinant."""
    coords = mesh.nodes[mesh.elems]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    grads = np.linalg.inv(edges).transpose(0, 2, 1)
    full = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
    return full[:, :, 0], full[:, :, 1], np.abs(np.linalg.det(edges)) / 2.0


def test_closed_form_triangle_tables_match_lapack():
    rng = np.random.default_rng(25)
    pts = rng.uniform(-2.0, 2.0, size=(400, 3, 2))
    edges = pts[:, 1:] - pts[:, :1]
    det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    pts = pts[np.abs(det) > 0.1 * np.abs(edges).max(axis=(1, 2)) ** 2][:100]
    assert len(pts) == 100
    mesh = mesh_2d(pts.reshape(-1, 2), np.arange(300).reshape(100, 3))
    data = precompute_gradients(mesh)
    dvx, dvy, vol = lapack_tables(mesh)
    for got, want in ((data.dvx, dvx), (data.dvy, dvy)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.abs(data.vol - vol) <= 1e-14 * vol)


@pytest.mark.parametrize("build", [build_square_mesh, build_lshape_mesh])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_triangle_gradient_tables_keep_lapack_bits(build, level):
    mesh = build(level)
    data = precompute_gradients(mesh)
    dvx, dvy, _ = lapack_tables(mesh)
    assert np.array_equal(data.dvx, dvx) and np.array_equal(data.dvy, dvy)


def test_degenerate_element_is_named():
    bad = mesh_2d([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 3, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="element 1"):
        precompute_gradients(bad)


def test_dofmap_lshape_level1():
    mesh = build_lshape_mesh(1)
    dofmap = build_dofmap(mesh, 1, {int(b): 0.0 for b in mesh.boundary_nodes})
    assert dofmap.n_free == 33
    assert np.all(dofmap.u_0 == 0.0)
    fixed = np.setdiff1d(np.arange(dofmap.n_total), dofmap.freedofs)
    assert fixed.size + dofmap.n_free == dofmap.n_total
    assert np.all(dofmap.u_0[dofmap.freedofs] == 0.0)


def test_dofmap_bar_identity_deformation():
    mesh = build_bar_mesh(1)
    dirichlet = {int(b): mesh.nodes[b] for b in mesh.boundary_nodes}
    dofmap = build_dofmap(mesh, 3, dirichlet)
    assert dofmap.n_free == 2133
    # interleaved layout: node k occupies dofs 3k..3k+2
    node = int(mesh.boundary_nodes[0])
    assert np.allclose(dofmap.u_0[3 * node : 3 * node + 3], mesh.nodes[node])


def test_dofmap_square_constant_dirichlet_count():
    mesh = build_square_mesh(1)
    c = 2.5
    dofmap = build_dofmap(mesh, 1, {int(b): c for b in mesh.boundary_nodes})
    assert int((dofmap.u_0 == c).sum()) == mesh.n_nodes - 49


def test_dofmap_rejects_bad_dirichlet():
    mesh = build_square_mesh(1)
    interior = int(mesh.interior_nodes()[0])
    data = {int(b): 0.0 for b in mesh.boundary_nodes}
    with pytest.raises(ValueError, match="non-boundary"):
        build_dofmap(mesh, 1, {**data, interior: 1.0})
    removed = dict(data)
    removed.pop(int(mesh.boundary_nodes[0]))
    with pytest.raises(ValueError, match="missing"):
        build_dofmap(mesh, 1, removed)
    bar = build_bar_mesh(1)
    with pytest.raises(ValueError, match="components"):
        build_dofmap(bar, 3, {int(b): (0.0, 0.0) for b in bar.boundary_nodes})


def test_load_vector_reference_triangle():
    data = precompute_gradients(REF_TRI)
    f = assemble_load_vector(REF_TRI, data, -10.0)
    assert np.allclose(f, -10.0 * 0.5 / 3.0)
    assert np.all(assemble_load_vector(REF_TRI, data, 0.0) == 0.0)


def test_load_vector_integrates_constant():
    # sum_i f_i = f * |Omega| because the basis sums to one
    mesh = build_lshape_mesh(1)
    data = precompute_gradients(mesh)
    f = assemble_load_vector(mesh, data, -10.0)
    assert abs(f.sum() - (-30.0)) < 1e-12
    assert abs(2.0 * f.sum() - assemble_load_vector(mesh, data, -20.0).sum()) < 1e-12


def all_free_dofmap(mesh, components=1):
    return build_dofmap(mesh, components, {})


def test_sparsity_single_triangle_dense():
    mesh = mesh_2d([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    pattern = sparsity_pattern(mesh, all_free_dofmap(mesh))
    assert pattern.nnz == 9


def test_sparsity_two_triangles_brute_force():
    pattern = sparsity_pattern(TWO_TRIS, all_free_dofmap(TWO_TRIS))
    # oracle: enumerate node pairs sharing an element
    expected = set()
    for elem in TWO_TRIS.elems:
        for i in elem:
            for j in elem:
                expected.add((int(i), int(j)))
    assert pattern.nnz == len(expected) == 14
    rows, cols = pattern.rows_cols()
    assert set(zip(rows.tolist(), cols.tolist())) == expected


def test_sparsity_refuses_a_free_dof_outside_every_element():
    # GL L2 plus one interior node that no element uses
    mesh = build_square_mesh(2)
    orphan = mesh.n_nodes
    mesh = MeshData(
        2,
        np.vstack([mesh.nodes, [[0.5, 0.5]]]),
        mesh.elems,
        mesh.boundary_nodes,
        Region.SQUARE,
    )
    dofmap = build_dofmap(mesh, 1, {int(b): 0.0 for b in mesh.boundary_nodes})
    with pytest.raises(ValueError, match=f"free dof {orphan} belongs to no element"):
        sparsity_pattern(mesh, dofmap)
    with pytest.raises(ValueError, match=f"free dof {orphan} belongs to no element"):
        problem_from_mesh("ginzburg_landau", mesh)


def test_sparsity_single_tet_vector_block():
    pattern = sparsity_pattern(REF_TET, all_free_dofmap(REF_TET, components=3))
    assert pattern.n == 12
    assert pattern.nnz == 144


@pytest.mark.parametrize(
    "mesh,components",
    [(build_lshape_mesh(2), 1), (build_square_mesh(2), 1), (build_bar_mesh(1), 3)],
)
def test_sparsity_symmetric_with_full_diagonal(mesh, components):
    if components == 1:
        dirichlet = {int(b): 0.0 for b in mesh.boundary_nodes}
    else:
        dirichlet = {int(b): mesh.nodes[b] for b in mesh.boundary_nodes}
    dofmap = build_dofmap(mesh, components, dirichlet)
    pattern = sparsity_pattern(mesh, dofmap)
    mat = pattern.tocsr()
    assert (mat != mat.T).nnz == 0
    assert np.all(mat.diagonal() == 1.0)


@pytest.mark.parametrize("kind, level", [("ginzburg_landau", 5), ("neohooke", 1)])
def test_pattern_matrices_share_the_patterns_int32_indices(kind, level):
    pattern = build_problem(kind, level).pattern
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    mat = pattern.matrix(np.ones(pattern.nnz))
    assert np.shares_memory(mat.indices, pattern.indices)
    assert np.shares_memory(mat.indptr, pattern.indptr)
    assert pattern.holds(mat)


def test_pattern_from_csr_roundtrip():
    import scipy.sparse as sp

    mat = sp.csr_matrix(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.int8))
    pattern = SparsityPattern.from_csr(mat)
    assert pattern.n == 3 and pattern.nnz == 7
    assert (pattern.tocsr() != mat.astype(float)).nnz == 0


def test_pattern_mirror_maps_each_slot_to_its_transpose():
    pattern = build_problem("neohooke", 1).pattern
    rows, cols = pattern.rows_cols()
    mirror = pattern.mirror
    assert mirror.dtype == np.int32
    assert np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows)
    assert np.array_equal(pattern.diagonal_slots, np.flatnonzero(rows == cols))


def test_pattern_refuses_a_mirror_when_not_symmetric():
    pattern = SparsityPattern.from_csr(sp.csr_matrix(np.array([[1, 1], [0, 1]])))
    with pytest.raises(ValueError, match="not symmetric"):
        pattern.mirror


def test_pattern_refuses_diagonal_slots_when_one_is_missing():
    pattern = SparsityPattern.from_csr(sp.csr_matrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])))
    assert np.array_equal(pattern.mirror, [0, 2, 1, 4, 3, 5])
    with pytest.raises(ValueError, match="diagonal entries in 2 of 3 rows"):
        pattern.diagonal_slots


def test_band_slots_place_the_upper_triangle_in_the_band():
    pattern = build_problem("plaplace", 2).pattern
    order = pattern.band_ordering
    w, n = order.bandwidth, pattern.n
    rows, cols = pattern.rows_cols()
    upper = order.position[rows] <= order.position[cols]
    assert order.band_slots.dtype == np.int32
    assert np.all(order.band_slots[~upper] == n * (w + 1))
    # one place per upper slot, and it is the dense band's entry
    dense = pattern.matrix(np.arange(1.0, pattern.nnz + 1.0)).toarray()
    dense = dense[np.ix_(order.perm, order.perm)]
    band = np.zeros(n * (w + 1))
    band[order.band_slots[upper]] = np.arange(1.0, pattern.nnz + 1.0)[upper]
    band = band.reshape(n, w + 1).T
    for k in range(w + 1):
        assert np.array_equal(band[w - k, k:], np.diagonal(dense, offset=k))
