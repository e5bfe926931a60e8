import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from minfem import autodiff, coloring
from minfem.coloring import (
    ColoringError,
    assemble_element_hessian,
    color_pattern,
    recover_hessian,
)
from helpers import (
    assert_in_pattern_layout,
    assert_same_bits,
    element_dofs,
    element_local_program,
    quadratic_plaplace,
    random_benchmark_state,
)
from minfem.autodiff import Recorder
from minfem.energies import build_problem
from minfem.fem import SparsityPattern, build_dofmap, sparsity_pattern
from minfem.minimize import benchmark_initial_guess
from minfem.mesh import build_lshape_mesh, build_square_mesh


def pattern_from_dense(mask) -> SparsityPattern:
    return SparsityPattern.from_csr(sp.csr_matrix(np.asarray(mask, dtype=np.int8)))


def assert_valid_coloring(pattern: SparsityPattern, coloring) -> None:
    """No two same-colored columns may share a structurally nonzero row."""
    rows, cols = pattern.rows_cols()
    pairs = np.stack([rows, coloring.color_of[cols]], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    dup = (np.diff(pairs[:, 0]) == 0) & (np.diff(pairs[:, 1]) == 0)
    assert not dup.any(), "same-colored columns share a row"


def tridiagonal_pattern(n: int) -> SparsityPattern:
    mat = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
    return SparsityPattern.from_csr(mat)


def test_dense_pattern_needs_one_color_per_column():
    coloring = color_pattern(pattern_from_dense(np.ones((3, 3))))
    assert coloring.n_colors == 3


def test_diagonal_pattern_needs_one_color():
    coloring = color_pattern(pattern_from_dense(np.eye(7)))
    assert coloring.n_colors == 1


def test_empty_pattern_needs_no_color():
    coloring = color_pattern(pattern_from_dense(np.zeros((0, 0))))
    assert coloring.color_of.shape == (0,) and coloring.n_colors == 0


def test_tridiagonal_needs_exactly_three_colors():
    pattern = tridiagonal_pattern(5)
    coloring = color_pattern(pattern)
    assert_valid_coloring(pattern, coloring)
    assert coloring.n_colors == 3
    # brute force: no valid 2-coloring exists (columns 0 and 2 meet in row 1)
    rows, cols = pattern.rows_cols()
    for assignment in itertools.product(range(2), repeat=5):
        colors = np.array(assignment)
        pairs = set(zip(rows.tolist(), colors[cols].tolist()))
        if len(pairs) == rows.size:
            pytest.fail(f"found a valid 2-coloring {assignment}")


@pytest.mark.parametrize("level", [1, 2, 3])
def test_benchmark_colorings_valid_and_bounded_2d(level):
    for build in (build_lshape_mesh, build_square_mesh):
        mesh = build(level)
        dofmap = build_dofmap(mesh, 1, {int(b): 0.0 for b in mesh.boundary_nodes})
        pattern = sparsity_pattern(mesh, dofmap)
        coloring = color_pattern(pattern)
        assert_valid_coloring(pattern, coloring)
        assert coloring.n_colors <= 16


def test_bar_coloring_valid_and_bounded(tiny_bar_problem):
    assert_valid_coloring(tiny_bar_problem.pattern, tiny_bar_problem.coloring)
    assert tiny_bar_problem.coloring.n_colors <= 64


def test_coloring_is_deterministic():
    pattern = build_problem("ginzburg_landau", 1).pattern
    c1, c2 = color_pattern(pattern), color_pattern(pattern)
    assert np.array_equal(c1.color_of, c2.color_of)
    assert c1.n_colors == c2.n_colors


def test_recover_tridiagonal_matrix_exactly():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    pattern = pattern_from_dense(a != 0)
    coloring = color_pattern(pattern)
    recovered = recover_hessian(lambda s: a @ s, coloring, pattern)
    assert np.array_equal(recovered.toarray(), a)


def test_recover_diagonal_with_single_probe():
    d = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
    pattern = pattern_from_dense(np.eye(5))
    coloring = color_pattern(pattern)
    assert coloring.n_colors == 1
    recovered = recover_hessian(lambda s: d[:, None] * s, coloring, pattern)
    assert np.array_equal(recovered.toarray(), np.diag(d))


def test_recovery_exact_for_random_matrices_on_pattern():
    # any matrix whose nonzeros lie within the pattern is recovered to round-off
    problem = build_problem("ginzburg_landau", 1)
    pattern = problem.pattern
    rng = np.random.default_rng(31)
    rows, cols = pattern.rows_cols()
    for _ in range(5):
        upper = rows <= cols
        vals = np.zeros(rows.size)
        vals[upper] = rng.standard_normal(int(upper.sum()))
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(pattern.n, pattern.n))
        mat = mat + sp.triu(mat, 1).T  # symmetric on the symmetric pattern
        recovered = recover_hessian(lambda s: mat @ s, color_pattern(pattern), pattern)
        assert np.abs((recovered - mat).toarray()).max() <= 1e-13


def test_recovery_matches_dense_probe_hessian_gl():
    problem = build_problem("ginzburg_landau", 1)
    u = np.full(problem.n_dofs, 0.7)
    recovered = recover_hessian(problem.hvp_operator(u), problem.coloring, problem.pattern)
    dense = problem.hessian_vector_product(u, np.eye(problem.n_dofs))
    rows, cols = problem.pattern.rows_cols()
    gap = np.abs(recovered.toarray()[rows, cols] - dense[rows, cols]).max()
    assert gap < 1e-12


def test_nonfinite_probe_names_color():
    pattern = pattern_from_dense(np.eye(4))
    coloring = color_pattern(pattern)

    def bad_hvp(s):
        out = np.asarray(s, dtype=float).copy()
        out[0] = np.nan
        return out

    with pytest.raises(ColoringError, match="color 0"):
        recover_hessian(bad_hvp, coloring, pattern)


def test_probe_blocks_do_not_change_result(monkeypatch):
    problem = build_problem("plaplace", 1)
    u = np.linspace(-1.0, 1.0, problem.n_dofs)
    op = problem.hvp_operator(u)
    monkeypatch.setattr("minfem.coloring._PROBE_BLOCK", 64)
    full = recover_hessian(op, problem.coloring, problem.pattern)
    monkeypatch.setattr("minfem.coloring._PROBE_BLOCK", 3)
    small = recover_hessian(op, problem.coloring, problem.pattern)
    assert np.array_equal(full.toarray(), small.toarray())


def greedy_coloring_oracle(pattern: SparsityPattern) -> np.ndarray:
    """The distance-2 greedy coloring with per-column np.unique gap search."""
    a = pattern.tocsr(dtype=np.int8)
    conflict = (a @ a).tocsr()
    conflict.sort_indices()
    order = np.lexsort((np.arange(pattern.n), -np.diff(a.indptr)))
    color = np.full(pattern.n, -1, dtype=np.int64)
    for j in order:
        used = color[conflict.indices[conflict.indptr[j] : conflict.indptr[j + 1]]]
        used = np.unique(used[used >= 0])
        gap = np.nonzero(used != np.arange(used.size))[0]
        color[j] = int(gap[0]) if gap.size else used.size
    return color


@pytest.mark.parametrize(
    "kind,level", [("plaplace", 3), ("ginzburg_landau", 3), ("neohooke", 1)]
)
def test_coloring_matches_greedy_oracle_on_benchmark_patterns(kind, level):
    pattern = build_problem(kind, level).pattern
    coloring = color_pattern(pattern)
    expected = greedy_coloring_oracle(pattern)
    assert np.array_equal(coloring.color_of, expected)
    assert coloring.n_colors == expected.max() + 1


def test_element_assembly_nonfinite_entry_names_row():
    problem = build_problem("plaplace", 1)
    u = benchmark_initial_guess(problem)
    x = problem.full_field(u)[element_dofs(problem.elemdata.elems, 1)].ravel()
    target = problem.dofmap.freedofs[5]  # a free node; its rows go non-finite
    program = element_local_program(problem)
    n_elems = problem.elemdata.elems.shape[0]
    seeds = np.broadcast_to(np.eye(3), (n_elems, 3, 3)).reshape(x.size, 3)
    blocks = program.hessian_vector_product(x, seeds).reshape(n_elems, 3, 3)
    blocks[problem.elemdata.elems == target] = np.inf

    with pytest.raises(ColoringError, match="row 5$"):
        assemble_element_hessian([(0, blocks)], problem.element_slots, problem.pattern)


def bincount_assembly(problem, u):
    """The Hessian from one (E, L, L) array of element blocks and one
    ``np.bincount``, symmetrized in the pattern's slots."""
    blocks = problem.program.element_hessians(problem.full_field(u))
    slots, pattern = problem.element_slots, problem.pattern
    data = np.bincount(slots.ravel(), weights=blocks.ravel(), minlength=pattern.nnz + 1)
    data = data[: pattern.nnz]
    return blocks, pattern.matrix((data + data[pattern.mirror]) * 0.5)


@pytest.mark.parametrize(
    "kind,level", [("plaplace", 2), ("ginzburg_landau", 2), ("neohooke", 1), ("tiny-bar", 0)]
)
def test_row_blocks_assemble_the_bits_of_one_bincount(kind, level, tiny_bar_problem, monkeypatch):
    problem = tiny_bar_problem if kind == "tiny-bar" else build_problem(kind, level)
    u = random_benchmark_state(problem, np.random.default_rng(29))
    n_elems = problem.element_slots.shape[0]
    # one block of every element computes the blocks in one product
    monkeypatch.setattr(autodiff, "_ELEMENT_ROW_BLOCK", n_elems)
    blocks, want = bincount_assembly(problem, u)
    for rows in (1, 7, 10**6):
        monkeypatch.setattr(autodiff, "_ELEMENT_ROW_BLOCK", rows)
        pairs = problem.program.element_hessian_blocks(problem.full_field(u))
        assert [start for start, _ in pairs] == list(range(0, n_elems, rows))
        assert_same_bits(problem.program.element_hessians(problem.full_field(u)), blocks)
        h = problem.hessian(u)
        assert np.array_equal(h.indptr, want.indptr) and np.array_equal(h.indices, want.indices)
        assert_same_bits(h.data, want.data)


def test_row_blocks_of_a_linear_tape_are_zero(monkeypatch):
    # F = 0: no cut entry, so every block is K^T W'' K over empty matrices
    rec = Recorder(3)
    z = rec.input_var[np.array([[0, 1], [1, 2]])]
    program = rec.build((z @ np.array([1.0, 2.0])).sum())
    monkeypatch.setattr(autodiff, "_ELEMENT_ROW_BLOCK", 1)
    pairs = list(program.element_hessian_blocks(np.ones(3)))
    assert [start for start, _ in pairs] == [0, 1]
    for _, block in pairs:
        assert_same_bits(block, np.zeros((1, 2, 2)))


def test_nonfinite_entry_in_a_later_block_names_its_row():
    problem = build_problem("plaplace", 1)
    u = benchmark_initial_guess(problem)
    blocks = problem.program.element_hessians(problem.full_field(u))
    elems, free = problem.elemdata.elems, problem.dofmap.freedofs
    # the free node whose first element comes last: none of its rows is in the first block
    first = [np.flatnonzero((elems == node).any(axis=1))[0] for node in free]
    row = int(np.argmax(first))
    assert first[row] >= 7
    blocks[elems == free[row]] = np.inf
    pairs = [(start, blocks[start : start + 7]) for start in range(0, len(blocks), 7)]
    with pytest.raises(ColoringError, match=f"row {row}$"):
        assemble_element_hessian(pairs, problem.element_slots, problem.pattern)


def test_blocks_that_disagree_with_their_slots_are_refused():
    problem = build_problem("plaplace", 1)
    blocks = problem.program.element_hessians(problem.full_field(np.zeros(problem.n_dofs)))
    slots, pattern = problem.element_slots, problem.pattern
    for pairs in ([(0, blocks[:, :2])], [(0, blocks[:3]), (len(blocks) - 1, blocks[3:5])]):
        with pytest.raises(ValueError, match="element blocks from row"):
            assemble_element_hessian(pairs, slots, pattern)


def test_element_hessian_working_set_stays_under_two_element_arrays():
    # a warm bar L1 Hessian allocates less than two (E, L, L) arrays at
    # its peak: no (E, L, L) stack, and the sweep drops its dead slots
    problem = build_problem("neohooke", 1)
    u = random_benchmark_state(problem, np.random.default_rng(31))
    problem.hessian(u)
    tracemalloc.start()
    try:
        problem.hessian(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * problem.element_slots.size * np.dtype(float).itemsize


@pytest.mark.parametrize("colored", [False, True], ids=["element", "colored"])
@pytest.mark.parametrize("kind", ["plaplace", "ginzburg_landau", "neohooke", "p2-at-zero"])
def test_hessian_is_scipys_symmetrization_in_the_pattern_slots(kind, colored, monkeypatch):
    if kind == "p2-at-zero":
        problem = quadratic_plaplace(2)
        u = np.zeros(problem.n_dofs)
    else:
        problem = build_problem(kind, 1 if kind == "neohooke" else 2)
        u = random_benchmark_state(problem, np.random.default_rng(61))
    if colored:
        problem = dataclasses.replace(problem, element_slots=None)
    unsymmetrized = []
    symmetrized = coloring._symmetrized
    monkeypatch.setattr(
        coloring, "_symmetrized", lambda data, p: unsymmetrized.append(data) or symmetrized(data, p)
    )
    h = problem.hessian(u)
    raw = problem.pattern.matrix(unsymmetrized[0])
    want = (raw + raw.T) * 0.5
    assert_in_pattern_layout(h, want, problem.pattern)
    if kind == "p2-at-zero":
        # the P1 Laplacian's exact zeros, which scipy's add drops, stay in their slots
        assert want.nnz < problem.pattern.nnz
