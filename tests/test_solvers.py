import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from minfem import fem, solvers
from minfem.coloring import recover_hessian
from minfem.energies import PLaplaceParams, bar_dirichlet_values, build_problem, record_plaplace
from minfem.minimize import _solve_newton_system, benchmark_initial_guess
from minfem.solvers import (
    DIRECT_DOF_LIMIT,
    AmgHierarchy,
    IndefiniteSystemError,
    SolverError,
    _aggregate,
    _tentative_prolongator,
    build_amg,
    pcg_solve,
    solve_direct,
)


def laplacian_1d(n: int) -> sp.csr_matrix:
    return sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr"
    )


def stiffness_on_square(level: int):
    """Exact 2D stiffness matrix through the p = 2 tape at u = 0."""
    problem = build_problem("ginzburg_landau", level)
    params = PLaplaceParams(p=2.0, f_vec=np.zeros(problem.dofmap.n_total))
    program = record_plaplace(problem.dofmap, problem.elemdata, params)
    quad = dataclasses.replace(problem, params=params, program=program)
    zeros = np.zeros(problem.n_dofs)
    return recover_hessian(quad.hvp_operator(zeros), problem.coloring, problem.pattern)


def test_direct_identity_and_hand_solve():
    eye = sp.identity(4, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(solve_direct(eye, b), b)
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(solve_direct(a, np.array([3.0, 3.0])), [1.0, 1.0])


def test_direct_random_spd_residual():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((50, 50))
    a = sp.csr_matrix(m.T @ m + np.eye(50))
    b = rng.standard_normal(50)
    x = solve_direct(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_direct_singular_raises():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve_direct(singular, np.array([1.0, 0.0]))


def test_direct_refuses_an_indefinite_system():
    # zero diagonal, eigenvalues -2 cos(k pi / 51) of both signs: the
    # Cholesky factor breaks down, and the named error says why
    a = (laplacian_1d(50) - 2.0 * sp.identity(50)).tocsr()
    b = np.random.default_rng(5).standard_normal(50)
    with pytest.raises(IndefiniteSystemError, match="not positive definite"):
        solve_direct(a, b)


def test_amg_build_refuses_an_indefinite_system_with_a_positive_diagonal():
    # diagonal 0.5 passes the diagonal check; the coarsest factor breaks down
    a = (laplacian_1d(400) - 1.5 * sp.identity(400)).tocsr()
    assert a.diagonal().min() > 0.0
    with pytest.raises(IndefiniteSystemError, match="not positive definite"):
        build_amg(a, np.ones(400))


def test_direct_adds_duplicate_entries_and_leaves_the_matrix_be():
    # diag(4, 9), the 4 split into duplicates: square pivots keep [1, 1] exact
    a = sp.csr_matrix(
        (np.array([2.0, 2.0, 9.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2)
    )
    assert not a.has_canonical_format
    assert np.array_equal(solve_direct(a, np.array([4.0, 9.0])), [1.0, 1.0])
    assert np.array_equal(a.indices, [0, 0, 1]) and np.array_equal(a.data, [2.0, 2.0, 9.0])


def test_direct_refuses_an_entry_outside_the_pattern_band():
    pattern = fem.SparsityPattern.from_csr(laplacian_1d(10))
    assert pattern.band_ordering.bandwidth == 1
    a = laplacian_1d(10).tolil()
    a[0, 9] = a[9, 0] = 0.5
    with pytest.raises(ValueError, match="does not hold its data in the slots of its pattern"):
        solve_direct(a.tocsr(), np.ones(10), pattern)


def test_direct_refuses_a_matrix_with_fewer_entries_than_its_pattern():
    a = laplacian_1d(10)
    pattern = fem.SparsityPattern.from_csr(a)
    b = np.ones(10)
    fewer = sp.diags(a.diagonal(), format="csr")
    with pytest.raises(ValueError, match="does not hold its data in the slots of its pattern"):
        solve_direct(fewer, b, pattern)
    # the same diagonal matrix with the off-diagonal zeros kept in their slots
    rows, cols = pattern.rows_cols()
    kept = pattern.matrix(np.where(rows == cols, 2.0, 0.0))
    assert np.array_equal(solve_direct(kept, b, pattern), solve_direct(fewer, b))


def test_bar_hessians_solve_banded_with_one_ordering_per_pattern(monkeypatch):
    orderings = []

    def counted(*args, **kwargs):
        orderings.append(args)
        return rcm(*args, **kwargs)

    rcm = fem.reverse_cuthill_mckee
    monkeypatch.setattr(fem, "reverse_cuthill_mckee", counted)
    problem = build_problem("neohooke", 1)
    for step in (1, 2):
        stepped = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, step * np.pi / 3.0))
        assert stepped.pattern is problem.pattern
        h = stepped.hessian(stepped.initial_guess)
        b = -stepped.gradient(stepped.initial_guess)
        x = solve_direct(h, b, stepped.pattern)
        assert np.linalg.norm(h @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert len(orderings) == 1
    # without a pattern, the matrix's own structure is ordered afresh
    assert np.linalg.norm(h @ solve_direct(h, b) - b) <= 1e-10 * np.linalg.norm(b)
    assert len(orderings) == 2


@pytest.mark.parametrize("kind", ["plaplace", "neohooke"])
def test_build_problem_leaves_the_band_ordering_for_the_first_solve(kind):
    problem = build_problem(kind, 1)
    assert "band_ordering" not in vars(problem.pattern)


def test_amg_hierarchy_structure_1d():
    a = laplacian_1d(1000)
    hier = build_amg(a, np.ones(1000))
    sizes = hier.level_sizes()
    assert hier.n_levels >= 3
    assert all(b < a_ for a_, b in zip(sizes, sizes[1:]))
    assert all(b <= 0.7 * a_ for a_, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= 64


def test_amg_small_input_single_level():
    a = laplacian_1d(50)
    hier = build_amg(a, np.ones(50))
    assert hier.n_levels == 1
    r = np.random.default_rng(2).standard_normal(50)
    assert np.allclose(a @ hier.apply(r), r, atol=1e-10)  # direct coarse solve


def test_amg_galerkin_identity_on_probes():
    hier = build_amg(laplacian_1d(500), np.ones(500))
    rng = np.random.default_rng(4)
    for lvl, nxt in zip(hier.levels, hier.levels[1:]):
        for _ in range(20):
            probe = rng.standard_normal(nxt.a.shape[0])
            lhs = nxt.a @ probe
            rhs = lvl.r @ (lvl.a @ (lvl.p @ probe))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_amg_rejects_nonpositive_diagonal():
    a = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
    with pytest.raises(SolverError, match="diagonal"):
        build_amg(a, np.ones(3))


def test_amg_near_nullspace_is_one_array_with_a_row_per_dof():
    a = laplacian_1d(500)
    assert_same_hierarchy(build_amg(a, np.ones(500)), build_amg(a, np.ones((500, 1))))
    for bad in (np.ones(499), np.ones((501, 2)), [np.ones(500), np.zeros(500)]):
        with pytest.raises(ValueError, match="near-nullspace has"):
            build_amg(a, bad)


def test_vcycle_preconditioner_is_spd():
    a = stiffness_on_square(3)
    hier = build_amg(a, np.ones(a.shape[0]))
    rng = np.random.default_rng(6)
    for _ in range(5):
        r1 = rng.standard_normal(a.shape[0])
        r2 = rng.standard_normal(a.shape[0])
        left = float(r1 @ hier.apply(r2))
        right = float(r2 @ hier.apply(r1))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))
        assert float(r1 @ hier.apply(r1)) > 0.0


def benchmark_hierarchy(kind: str, level: int) -> tuple[sp.csr_matrix, AmgHierarchy]:
    """The Hessian at the benchmark start and its hierarchy over the problem's near-nullspace."""
    problem = build_problem(kind, level)
    h = problem.hessian(benchmark_initial_guess(problem))
    return h, build_amg(h, problem.near_nullspace())


@pytest.mark.parametrize("kind, level", [("ginzburg_landau", 3), ("plaplace", 3), ("neohooke", 1)])
def test_chebyshev_bounds_cover_every_smoothed_level(kind, level):
    _, hier = benchmark_hierarchy(kind, level)
    assert hier.n_levels >= 2
    rng = np.random.default_rng(9)
    for lvl in hier.levels[:-1]:
        lo, hi = lvl.bounds
        a = lvl.a.toarray()
        # the degree-2 polynomial damps every eigenvalue of D^-1 A in (0, lo + hi)
        lam = scipy.linalg.eigh(a, np.diag(np.diag(a)), eigvals_only=True)
        assert 0.0 < lam[0] and lam[-1] < lo + hi
        e = rng.standard_normal(a.shape[0])
        smoothed = lvl.smooth(np.zeros_like(e), e)
        assert float(smoothed @ (a @ smoothed)) < float(e @ (a @ e))


@pytest.mark.parametrize("kind, level", [("ginzburg_landau", 3), ("neohooke", 1)])
def test_vcycle_is_spd_on_benchmark_hessians(kind, level):
    h, hier = benchmark_hierarchy(kind, level)
    assert hier.n_levels >= 2
    m = np.column_stack([hier.apply(col) for col in np.eye(h.shape[0])])
    assert np.abs(m - m.T).max() <= 1e-10 * np.abs(m).max()
    np.linalg.cholesky(0.5 * (m + m.T))  # raises unless positive definite


def test_amg_cycle_and_build_factor_only_the_coarsest_level():
    a = stiffness_on_square(4)
    hier = build_amg(a, np.ones(a.shape[0]))
    assert hier.n_levels >= 3
    b = np.random.default_rng(0).standard_normal(a.shape[0])
    x, _ = pcg_solve(a, b, hier, rtol=1e-8, maxiter=400)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_amg_stall_is_stored_and_reused(monkeypatch):
    n = 100
    a = sp.diags(np.linspace(1.0, 2.0, n), format="csr")  # every row its own aggregate
    calls = []
    monkeypatch.setattr(solvers, "_aggregate", lambda mat: calls.append(1) or _aggregate(mat))
    first = build_amg(a, np.ones(n))
    second = build_amg(a, np.ones(n), first.structure)
    assert len(calls) == 1
    assert len(second.structure) == 1 and second.structure[0] is first.structure[0]
    assert first.structure[0].t is None and first.structure[0].b_coarse is None
    assert_same_hierarchy(second, first)
    r = np.random.default_rng(1).standard_normal(n)
    assert second.apply(r).tobytes() == first.apply(r).tobytes()


def test_pcg_identity_converges_immediately():
    eye = sp.identity(30, format="csr")
    b = np.random.default_rng(1).standard_normal(30)
    x, iters = pcg_solve(eye, b, None, rtol=1e-12, maxiter=10)
    assert iters == 1
    assert np.allclose(x, b)


def test_pcg_detects_indefiniteness():
    a = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(IndefiniteSystemError):
        pcg_solve(a, np.array([1.0, 1.0]), None, rtol=1e-8, maxiter=50)


def test_pcg_maxiter_exceeded():
    a = stiffness_on_square(2)
    b = np.ones(a.shape[0])
    with pytest.raises(SolverError, match="iterations"):
        pcg_solve(a, b, None, rtol=1e-14, maxiter=2)


@pytest.mark.parametrize(
    ("name", "rtol", "maxiter"),
    [
        ("rtol", np.nan, 50),
        ("rtol", np.inf, 50),
        ("rtol", 0.0, 50),
        ("rtol", 1.0, 50),
        ("rtol", -1e-8, 50),
        ("maxiter", 1e-8, -1),
        ("maxiter", 1e-8, 0),
        ("maxiter", 1e-8, 2.5),
        ("maxiter", 1e-8, True),
    ],
)
def test_pcg_rejects_bad_arguments_before_iterating(name, rtol, maxiter):
    a = stiffness_on_square(2)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        pcg_solve(a, np.ones(a.shape[0]), None, rtol=rtol, maxiter=maxiter)


@pytest.mark.parametrize("shape", [(9,), (11,), (10, 2), (1, 10), ()])
@pytest.mark.parametrize(
    "solve",
    [solve_direct, lambda a, b: pcg_solve(a, b, None, rtol=1e-8, maxiter=50)],
    ids=["solve_direct", "pcg_solve"],
)
def test_solvers_refuse_a_right_hand_side_not_of_shape_n(solve, shape):
    message = f"right-hand side of shape {shape} against a matrix of order 10"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(laplacian_1d(10), np.ones(shape))


def test_amg_cg_beats_diagonal_on_laplacian():
    a = stiffness_on_square(4)
    b = np.random.default_rng(0).standard_normal(a.shape[0])
    hier = build_amg(a, np.ones(a.shape[0]))
    x_amg, it_amg = pcg_solve(a, b, hier, rtol=1e-8, maxiter=400)
    x_diag, it_diag = pcg_solve(a, b, a.diagonal(), rtol=1e-8, maxiter=10000)
    assert it_amg <= 20  # run-and-record regression bound
    assert it_diag > it_amg
    gap = np.abs(x_amg - x_diag).max() / np.abs(x_diag).max()
    assert gap <= 1e-4  # both iterative at rtol 1e-8 on a conditioned system


def test_direct_and_amg_paths_agree():
    a = stiffness_on_square(4)  # 3,969 unknowns: inside the comparison band
    b = np.random.default_rng(3).standard_normal(a.shape[0])
    x_direct = solve_direct(a, b)
    hier = build_amg(a, np.ones(a.shape[0]))
    x_amg, _ = pcg_solve(a, b, hier, rtol=1e-8, maxiter=400)
    gap = np.abs(x_direct - x_amg).max() / np.abs(x_direct).max()
    assert gap <= 1e-6


def test_auto_dispatch_paths():
    def auto(a, b):
        n = a.shape[0]
        return _solve_newton_system(
            a, b, "auto", np.ones((n, 1)), fem.SparsityPattern.from_csr(a), 1e-8
        )

    small = laplacian_1d(33)
    b = np.arange(33, dtype=float)
    x, path, _, build_s = auto(small, b)
    assert path == "direct" and build_s == 0.0
    assert np.allclose(x, solve_direct(small, b))
    # the threshold is inclusive: 15,000 unknowns still go direct
    _, path, _, _ = auto(laplacian_1d(DIRECT_DOF_LIMIT), np.ones(DIRECT_DOF_LIMIT))
    assert path == "direct"
    above = laplacian_1d(DIRECT_DOF_LIMIT + 1)
    x, path, inner, build_s = auto(above, np.ones(DIRECT_DOF_LIMIT + 1))
    assert path == "amg" and inner > 0 and build_s > 0.0
    assert np.linalg.norm(above @ x - 1.0) <= 1e-8 * np.linalg.norm(np.ones(DIRECT_DOF_LIMIT + 1))


# ---------------------------------------------------------------------------
# AMG structure reuse


def two_hessians(kind: str, level: int):
    """Hessians at the benchmark start and at a perturbed point, plus the near-nullspace."""
    problem = build_problem(kind, level)
    u0 = benchmark_initial_guess(problem)
    rng = np.random.default_rng(11)
    u1 = 0.9 * u0 + 0.05 * np.abs(u0).max() * rng.uniform(-1.0, 1.0, u0.size)
    return problem.hessian(u0), problem.hessian(u1), problem.near_nullspace()


def assert_same_hierarchy(got: AmgHierarchy, want: AmgHierarchy):
    assert got.level_sizes() == want.level_sizes()
    for g, w in zip(got.levels, want.levels):
        for name in ("a", "p", "r"):
            gm, wm = getattr(g, name), getattr(w, name)
            if wm is None:
                assert gm is None
                continue
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(gm, field), getattr(wm, field)), (name, field)
    assert len(got.structure) == len(want.structure)
    for g, w in zip(got.structure, want.structure):
        assert np.array_equal(g.b_coarse, w.b_coarse)
        if w.t is None:  # a stalled level
            assert g.t is None
            continue
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(g.t, field), getattr(w.t, field))


@pytest.mark.parametrize("kind, level", [("ginzburg_landau", 3), ("plaplace", 3)])
def test_amg_structure_reuse_is_bit_identical(kind, level):
    h0, h1, ns = two_hessians(kind, level)
    shift = 1e-3 * float(np.abs(h1.diagonal()).max())
    shifted = (h1 + shift * sp.identity(h1.shape[0], format="csr")).tocsr()
    rhs = np.random.default_rng(5).standard_normal(h1.shape[0])
    stored = build_amg(h0, ns).structure
    assert len(stored) >= 2
    for h in (h1, shifted):
        fresh = build_amg(h, ns)
        reused = build_amg(h, ns, stored)
        assert all(new is old for new, old in zip(reused.structure, stored))
        assert_same_hierarchy(reused, fresh)
        _, it_fresh = pcg_solve(h, rhs, fresh, rtol=1e-8, maxiter=400)
        _, it_reused = pcg_solve(h, rhs, reused, rtol=1e-8, maxiter=400)
        assert it_reused == it_fresh


def test_amg_structure_change_rebuilds_that_level_and_coarser():
    h0, h1, ns = two_hessians("ginzburg_landau", 3)
    stored = build_amg(h0, ns).structure
    assert len(stored) >= 2

    # a coupling removed from the fine pattern: every level is rebuilt
    pruned = h1.tolil()
    pruned[0, 1] = pruned[1, 0] = 0.0
    pruned = pruned.tocsr()
    pruned.eliminate_zeros()
    for h, b in ((pruned, ns), (h1, 2.0 * ns)):
        rebuilt = build_amg(h, b, stored)
        assert all(new is not old for new, old in zip(rebuilt.structure, stored))
        assert_same_hierarchy(rebuilt, build_amg(h, b))

    # a stale level-0 key rebuilds level 1 too, although its own key still matches
    tampered = list(stored)
    tampered[0] = dataclasses.replace(stored[0], near_nullspace=2.0 * ns)
    rebuilt = build_amg(h1, ns, tampered)
    assert all(new is not old for new, old in zip(rebuilt.structure, stored))
    assert_same_hierarchy(rebuilt, build_amg(h1, ns))

    # a changed near-nullspace at level 1 keeps level 0 and rebuilds level 1 on
    tampered = list(stored)
    tampered[1] = dataclasses.replace(stored[1], near_nullspace=2.0 * stored[1].near_nullspace)
    rebuilt = build_amg(h1, ns, tampered)
    assert rebuilt.structure[0] is stored[0]
    assert all(new is not old for new, old in zip(rebuilt.structure[1:], stored[1:]))
    assert_same_hierarchy(rebuilt, build_amg(h1, ns))

    # so does a changed pattern at level 1
    tampered[1] = dataclasses.replace(stored[1], indices=stored[1].indices[::-1].copy())
    rebuilt = build_amg(h1, ns, tampered)
    assert rebuilt.structure[0] is stored[0]
    assert all(new is not old for new, old in zip(rebuilt.structure[1:], stored[1:]))


def test_amg_reused_coarsest_level_keeps_its_band_ordering(monkeypatch):
    h0, h1, ns = two_hessians("ginzburg_landau", 3)
    orderings = []
    rcm = fem.reverse_cuthill_mckee
    monkeypatch.setattr(
        fem, "reverse_cuthill_mckee", lambda *args, **kw: orderings.append(1) or rcm(*args, **kw)
    )
    stored = build_amg(h0, ns).structure
    assert len(orderings) == 1 and stored[-1].t is None and len(stored) >= 3
    reused = build_amg(h1, ns, stored)
    assert len(orderings) == 1 and reused.structure[-1] is stored[-1]
    fresh = build_amg(h1, ns)
    assert len(orderings) == 2
    assert_same_hierarchy(reused, fresh)
    r = np.random.default_rng(2).standard_normal(h1.shape[0])
    assert reused.apply(r).tobytes() == fresh.apply(r).tobytes()

    # a changed coarsest structure is ordered afresh, under the kept finer levels
    tampered = list(stored)
    tampered[-1] = dataclasses.replace(stored[-1], indices=stored[-1].indices[::-1].copy())
    rebuilt = build_amg(h1, ns, tampered)
    assert len(orderings) == 3
    assert all(new is old for new, old in zip(rebuilt.structure[:-1], stored[:-1]))
    assert rebuilt.structure[-1] is not stored[-1]
    assert_same_hierarchy(rebuilt, fresh)
    assert rebuilt.apply(r).tobytes() == fresh.apply(r).tobytes()


# the per-row NumPy implementations that `_aggregate` and `_tentative_prolongator`
# replaced, kept as oracles


def aggregate_oracle(a: sp.csr_matrix) -> tuple[np.ndarray, int]:
    n = a.shape[0]
    indptr, indices = a.indptr, a.indices
    agg = np.full(n, -1, dtype=np.int64)
    next_agg = 0

    def neighbors(i: int) -> np.ndarray:
        nbr = indices[indptr[i] : indptr[i + 1]]
        return nbr[nbr != i]

    for i in range(n):
        if agg[i] != -1:
            continue
        nbr = neighbors(i)
        if (agg[nbr] == -1).all():
            agg[i] = next_agg
            agg[nbr] = next_agg
            next_agg += 1
    attach: list[tuple[int, int]] = []
    for i in range(n):
        if agg[i] != -1:
            continue
        cand = agg[neighbors(i)]
        cand = cand[cand >= 0]
        if cand.size:
            attach.append((i, int(cand[0])))
    for i, k in attach:
        agg[i] = k
    for i in range(n):
        if agg[i] != -1:
            continue
        nbr = neighbors(i)
        agg[i] = next_agg
        agg[nbr[agg[nbr] == -1]] = next_agg
        next_agg += 1
    return agg, next_agg


def tentative_prolongator_oracle(agg: np.ndarray, n_agg: int, b: np.ndarray):
    n, m = b.shape
    order = np.argsort(agg, kind="stable")
    bounds = np.searchsorted(agg[order], np.arange(n_agg + 1))
    rows, cols, vals, coarse_rows = [], [], [], []
    col_offset = 0
    for k in range(n_agg):
        members = order[bounds[k] : bounds[k + 1]]
        q_mat, r_mat = np.linalg.qr(b[members])
        diag = np.abs(np.diag(r_mat))
        keep = diag > 1e-12 * max(diag.max(), 1e-300)
        if not keep.any():
            keep[0] = True
        q_mat = q_mat[:, keep]
        kk = q_mat.shape[1]
        rows.append(np.repeat(members, kk))
        cols.append(np.tile(np.arange(col_offset, col_offset + kk), members.size))
        vals.append(q_mat.ravel())
        coarse_rows.append(r_mat[keep, :])
        col_offset += kk
    t = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, col_offset),
    )
    return t, np.vstack(coarse_rows)


def identical(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind, level", [("ginzburg_landau", 3), ("plaplace", 3), ("neohooke", 1)])
def test_aggregation_and_tentative_prolongator_match_oracles(kind, level):
    problem = build_problem(kind, level)
    a = problem.hessian(benchmark_initial_guess(problem))
    n = a.shape[0]
    coarse = build_amg(a + sp.identity(n), problem.near_nullspace()).levels[1].a
    # a node with an empty row between the two becomes its own root
    holed = sp.block_diag([a, sp.csr_matrix((1, 1)), coarse], format="csr")
    assert np.diff(holed.indptr)[n] == 0
    for mat in (a, coarse, holed):
        agg, n_agg = _aggregate(mat)
        want_agg, want_n = aggregate_oracle(mat)
        assert n_agg == want_n and identical(agg, want_agg)
        assert agg.min() == 0 and np.unique(agg).size == n_agg
    agg, n_agg = _aggregate(a)
    # the benchmark near-nullspace, then one with a repeated column and an
    # all-zero aggregate, which drop columns in the keep rule
    ns = problem.near_nullspace()
    degenerate = np.column_stack([ns, ns[:, :1], np.arange(n) % 3]).astype(float)
    degenerate[agg == 0] = 0.0
    for b in (ns, degenerate):
        t, b_coarse = _tentative_prolongator(agg, n_agg, b)
        want_t, want_b = tentative_prolongator_oracle(agg, n_agg, b)
        assert identical(b_coarse, want_b)
        for field in ("data", "indices", "indptr"):
            assert identical(getattr(t, field), getattr(want_t, field))
