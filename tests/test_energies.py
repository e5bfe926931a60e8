import dataclasses
import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    dense_hessian_by_probes,
    element_local_hessian,
    jittered,
    make_quadratic_problem,
    random_benchmark_state,
)
from minfem import autodiff, energies, fem
from minfem.autodiff import Recorder
from minfem.coloring import ColoringError, color_pattern, recover_hessian
from minfem.energies import (
    EnergyProblem,
    GinzburgLandauParams,
    NeoHookeParams,
    PLaplaceParams,
    bar_dirichlet_values,
    build_problem,
    problem_from_mesh,
    record_neohooke,
    record_plaplace,
)
from minfem.fem import DofMap, SparsityPattern, build_dofmap, element_slots, precompute_gradients
from minfem.mesh import MeshData, Region, bar_mesh_from_cells


def single_triangle_setup():
    mesh = MeshData(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([], dtype=np.int64),
        Region.SQUARE,
    )
    elemdata = precompute_gradients(mesh)
    dofmap = build_dofmap(mesh, 1, {})
    return mesh, elemdata, dofmap


def test_plaplace_zero_state_zero_energy():
    problem = build_problem("plaplace", 1)
    assert problem.evaluate(np.zeros(problem.n_dofs)) == 0.0


def test_plaplace_single_triangle_hand_value():
    _, elemdata, dofmap = single_triangle_setup()
    params = PLaplaceParams(p=3.0, f_vec=np.zeros(3))
    value = record_plaplace(dofmap, elemdata, params).evaluate(np.array([0.0, 1.0, 0.0]))
    # F = (1, 0): J = (1/3) * 1 * (1/2)
    assert abs(value - 1.0 / 6.0) < 1e-15


def test_gl_constant_states():
    problem = build_problem("ginzburg_landau", 1)
    zeros = np.zeros(problem.n_dofs)
    # v = 1 needs Dirichlet 1 as well: evaluate the field tape on all ones;
    # the quadrature weights sum to 1 only to round-off, hence the 1e-30
    assert abs(problem.program.evaluate(np.ones(problem.dofmap.n_total))) < 1e-30
    # v = 0 everywhere: constant integrand 1/4 over |Omega| = 4
    assert abs(problem.evaluate(zeros) - 1.0) < 1e-14


def test_neohooke_identity_is_stress_free(tiny_bar_problem):
    problem = tiny_bar_problem
    u = problem.initial_guess
    assert abs(problem.evaluate(u)) < 1e-18
    assert np.abs(problem.gradient(u)).max() < 1e-9


def test_neohooke_uniform_dilation_hand_value():
    mesh = MeshData(
        3,
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]),
        np.array([[0, 1, 2, 3]]),
        np.array([], dtype=np.int64),
        Region.BAR,
    )
    elemdata = precompute_gradients(mesh)
    dofmap = build_dofmap(mesh, 3, {})
    params = NeoHookeParams.from_moduli()
    u = 2.0 * mesh.nodes.ravel()
    value = record_neohooke(dofmap, elemdata, params).evaluate(u)
    expected = (params.c1 * (12.0 - 3.0 - 2.0 * np.log(8.0)) + params.d1 * 49.0) / 6.0
    assert abs(value - expected) < 1e-9 * abs(expected)


def test_neohooke_translation_and_rotation_invariance(free_bar_problem):
    problem = free_bar_problem
    rng = np.random.default_rng(9)
    v = problem.initial_guess + 2e-4 * rng.standard_normal(problem.n_dofs)
    j0 = problem.evaluate(v)
    shifted = (v.reshape(-1, 3) + np.array([0.3, -1.2, 0.7])).ravel()
    assert abs(problem.evaluate(shifted) - j0) <= 1e-10 * abs(j0)
    angle = 0.83
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rotated = (v.reshape(-1, 3) @ rot.T).ravel()
    assert abs(problem.evaluate(rotated) - j0) <= 1e-8 * abs(j0)


def straight_loop_gl(v_full, mesh, elemdata, params):
    """Independent per-element evaluation of the double-well energy."""
    total = 0.0
    for e in range(mesh.n_elems):
        vloc = v_full[mesh.elems[e]]
        fx = float((vloc * elemdata.dvx[e]).sum())
        fy = float((vloc * elemdata.dvy[e]).sum())
        e1 = 0.5 * params.eps * (fx**2 + fy**2)
        q = vloc @ params.ip
        e2 = 0.25 * float((((q**2 - 1.0) ** 2) * params.w).sum())
        total += (e1 + e2) * elemdata.vol[e]
    return total


def test_gl_matches_independent_element_loop():
    problem = build_problem("ginzburg_landau", 1)
    states = [np.ones(problem.n_dofs)]
    rng = np.random.default_rng(41)
    states.append(1.0 + 0.5 * rng.standard_normal(problem.n_dofs))
    for u in states:
        v_full = problem.full_field(u)
        expected = straight_loop_gl(v_full, problem.mesh, problem.elemdata, problem.params)
        got = problem.evaluate(u)
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))


def test_plaplace_energy_is_convex_on_segments():
    problem = build_problem("plaplace", 1)
    rng = np.random.default_rng(13)
    for _ in range(10):
        u1 = rng.standard_normal(problem.n_dofs)
        u2 = rng.standard_normal(problem.n_dofs)
        mid = problem.evaluate(0.5 * (u1 + u2))
        avg = 0.5 * (problem.evaluate(u1) + problem.evaluate(u2))
        assert mid <= avg + 1e-12


def test_hessian_nonzeros_stay_inside_pattern(tiny_bar_problem):
    problems = [
        build_problem("plaplace", 1),
        build_problem("ginzburg_landau", 1),
        tiny_bar_problem,
    ]
    rng = np.random.default_rng(29)
    for problem in problems:
        u = random_benchmark_state(problem, rng)
        dense = dense_hessian_by_probes(problem, u)
        outside = np.ones_like(dense, dtype=bool)
        rows, cols = problem.pattern.rows_cols()
        outside[rows, cols] = False
        scale = np.abs(dense).max()
        assert np.abs(dense[outside]).max() <= 1e-14 * scale


def test_build_problem_shapes_and_counts():
    problem = build_problem("plaplace", 1)
    assert problem.n_dofs == 33
    assert np.all(problem.pattern.tocsr().diagonal() == 1.0)
    bar = build_problem("neohooke", 1)
    assert bar.n_dofs == 2133
    # each tetrahedron couples its 12 vector dofs densely
    mat = bar.pattern.tocsr()
    elem = bar.mesh.elems[0]
    dofs = np.array([3 * n + c for n in elem for c in range(3)])
    free_pos = np.searchsorted(bar.dofmap.freedofs, dofs)
    inside = np.isin(dofs, bar.dofmap.freedofs)
    sub = mat[free_pos[inside]][:, free_pos[inside]].toarray()
    assert np.all(sub == 1.0)


def test_build_problem_deterministic():
    a = build_problem("ginzburg_landau", 1)
    b = build_problem("ginzburg_landau", 1)
    assert a.program.signature() == b.program.signature()
    assert np.array_equal(a.coloring.color_of, b.coloring.color_of)


def test_with_dirichlet_reuses_tape(tiny_bar_problem):
    problem = tiny_bar_problem
    twisted = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, np.pi / 6))
    assert twisted.program is problem.program
    assert twisted.pattern is problem.pattern
    assert not np.array_equal(twisted.dofmap.u_0, problem.dofmap.u_0)
    # identity free part under twisted faces stores finite energy
    assert np.isfinite(twisted.evaluate(problem.initial_guess))


def test_coloring_is_derived_once_on_first_use(monkeypatch):
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return color_pattern(pattern)

    monkeypatch.setattr("minfem.energies.color_pattern", counting)
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    problem = make_quadratic_problem(a, np.ones(3))
    assert "coloring" not in {f.name for f in dataclasses.fields(EnergyProblem)}
    assert calls == []
    for _ in range(2):
        assert np.array_equal(problem.hessian(np.zeros(3)).toarray(), a)
    assert calls == [problem.pattern]
    assert problem.coloring is problem.coloring
    assert len(calls) == 1


def test_bar_dirichlet_rotation_values():
    mesh = bar_mesh_from_cells(4, 2, 2, 0.005)
    theta = np.pi / 2.0
    values = bar_dirichlet_values(mesh, theta)
    for node, val in values.items():
        x, y, z = mesh.nodes[node]
        if x > 0.01:  # right face: quarter turn maps (y, z) -> (z, -y)
            assert np.allclose(val, [x, z, -y], atol=1e-15)
        else:
            assert np.allclose(val, [x, y, z])


def test_param_validation():
    with pytest.raises(ValueError):
        PLaplaceParams(p=1.0, f_vec=np.zeros(3))
    with pytest.raises(ValueError):
        GinzburgLandauParams(eps=-0.1)
    with pytest.raises(ValueError):
        GinzburgLandauParams(eps=0.01, ip=np.eye(3) * 2.0)
    with pytest.raises(ValueError):
        NeoHookeParams(c1=-1.0, d1=1.0)
    with pytest.raises(ValueError):
        build_problem("unknown", 1)


def test_quadrature_defaults_match_rule():
    params = GinzburgLandauParams(eps=0.01)
    assert np.allclose(params.ip.sum(axis=1), 1.0)
    assert np.allclose(np.sort(params.ip[0]), [1 / 6, 1 / 6, 2 / 3])
    assert np.allclose(params.w, 1 / 3)


def test_record_consistency_between_surfaces():
    _, elemdata, dofmap = single_triangle_setup()
    params = PLaplaceParams(p=3.0, f_vec=np.array([1.0, 2.0, 3.0]))
    program = record_plaplace(dofmap, elemdata, params)
    u = np.array([0.5, -1.0, 2.0])
    assert program.evaluate(u) == record_plaplace(dofmap, elemdata, params).evaluate(u)


def twisted_bar_state(problem, angle, rng):
    """Free dofs of a bar twisted uniformly along its axis, plus small noise."""
    x, y, z = problem.mesh.nodes.T
    t = angle * x / x.max()
    field = np.stack([x, y * np.cos(t) + z * np.sin(t), -y * np.sin(t) + z * np.cos(t)], axis=1)
    return field.ravel()[problem.dofmap.freedofs] + 3e-4 * rng.standard_normal(problem.n_dofs)


def assert_matches_colored_recovery(problem, u):
    elementwise = problem.hessian(u)
    colored = recover_hessian(problem.hvp_operator(u), problem.coloring, problem.pattern)
    scale = abs(colored).max()
    assert scale > 0.0
    assert abs(elementwise - colored).max() <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["plaplace", "ginzburg_landau", "neohooke"])
def test_element_hessian_matches_colored_recovery(kind, tiny_bar_problem):
    problem = tiny_bar_problem if kind == "neohooke" else build_problem(kind, 2)
    assert problem.element_slots is not None
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert_matches_colored_recovery(problem, random_benchmark_state(problem, rng))


def test_element_hessian_matches_colored_recovery_on_rebound_bar():
    problem = build_problem("neohooke", 1)
    angle = 2.0 * np.pi / 3.0
    twisted = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, angle))
    assert twisted.program is problem.program
    assert twisted.element_slots is problem.element_slots
    rng = np.random.default_rng(8)
    assert_matches_colored_recovery(twisted, twisted_bar_state(problem, angle, rng))


def record_neohooke_gathers_reordered(dofmap, elemdata, params):
    """The bar's tape with its component gathers recorded in the order 2, 0, 1."""
    rec = Recorder(dofmap.n_total)
    v = rec.input_var
    comps = [None] * 3
    for k in (2, 0, 1):
        comps[k] = v[3 * elemdata.elems + k]
    return rec.build(energies._neohooke_density(comps, elemdata, params).sum())


def test_element_hessian_follows_the_tapes_own_gathers(monkeypatch):
    # the same energy with another local order: the slot map that
    # problem_from_mesh builds must follow the tape, not the mesh
    problem = build_problem("neohooke", 1)
    monkeypatch.setattr(energies, "record_neohooke", record_neohooke_gathers_reordered)
    reordered = problem_from_mesh("neohooke", problem.mesh)
    elems = problem.mesh.elems
    assert np.array_equal(reordered.program.element_dofs[:, :3], 3 * elems[:, :1] + [2, 0, 1])
    assert not np.array_equal(reordered.element_slots, problem.element_slots)
    rng = np.random.default_rng(71)
    for _ in range(2):
        u = random_benchmark_state(problem, rng)
        assert reordered.evaluate(u) == problem.evaluate(u)
        assert_matches_colored_recovery(reordered, u)


def assert_slots_match_pattern_entries(problem):
    # oracle: a dict from (row, col) of each stored entry to its slot
    rows, cols = problem.pattern.rows_cols()
    slot_of = {rc: k for k, rc in enumerate(zip(rows.tolist(), cols.tolist()))}
    position = {dof: i for i, dof in enumerate(problem.dofmap.freedofs.tolist())}
    spare = problem.pattern.nnz
    slots = problem.element_slots
    fixed = 0
    for elem_dofs, elem_slots in zip(problem.program.element_dofs.tolist(), slots.tolist()):
        local = [position.get(dof) for dof in elem_dofs]
        for i, row in zip(local, elem_slots):
            for j, slot in zip(local, row):
                if i is None or j is None:
                    fixed += 1
                    assert slot == spare
                else:
                    assert slot == slot_of[i, j]
    assert 0 < fixed < slots.size


def test_element_slots_match_the_patterns_entries(tiny_bar_problem, monkeypatch):
    problems = [build_problem("plaplace", 2), build_problem("ginzburg_landau", 2), tiny_bar_problem]
    monkeypatch.setattr(energies, "record_neohooke", record_neohooke_gathers_reordered)
    problems.append(problem_from_mesh("neohooke", tiny_bar_problem.mesh))
    assert not np.array_equal(problems[-1].element_slots, tiny_bar_problem.element_slots)
    for problem in problems:
        assert_slots_match_pattern_entries(problem)


def test_problem_without_element_slots_uses_colored_recovery():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((6, 6))
    a = m.T @ m + np.eye(6)
    problem = make_quadratic_problem(a, rng.standard_normal(6))
    assert problem.element_slots is None
    u = rng.standard_normal(6)
    expected = recover_hessian(problem.hvp_operator(u), problem.coloring, problem.pattern)
    assert np.array_equal(problem.hessian(u).toarray(), expected.toarray())


@pytest.fixture(scope="module")
def hessian_cases(tiny_bar_problem):
    """(problem, u): p-Laplace and GL L3 plain and jittered, the tiny bar plain and twisted."""
    rng = np.random.default_rng(47)
    pl, gl = build_problem("plaplace", 3), build_problem("ginzburg_landau", 3)
    cases = []
    for problem in (pl, jittered(pl, 3), gl, jittered(gl, 4), tiny_bar_problem):
        cases.append((problem, random_benchmark_state(problem, rng)))
    twist = bar_dirichlet_values(tiny_bar_problem.mesh, np.pi / 3)
    twisted = tiny_bar_problem.with_dirichlet(twist)
    cases.append((twisted, twisted_bar_state(tiny_bar_problem, np.pi / 3, rng)))
    return cases


def test_hessian_equals_element_local_tape_reference(hessian_cases):
    # every block is K^T W'' K at the frontier, equal to the reference to rounding
    for problem, u in hessian_cases:
        got, want = problem.hessian(u), element_local_hessian(problem, u)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()


def test_replaced_program_gives_its_own_hessian():
    problem = build_problem("plaplace", 2)
    params = PLaplaceParams(p=2.0, f_vec=problem.params.f_vec)
    program = record_plaplace(problem.dofmap, problem.elemdata, params)
    quad = dataclasses.replace(problem, params=params, program=program)
    rng = np.random.default_rng(53)
    for u in (np.zeros(quad.n_dofs), random_benchmark_state(quad, rng)):
        colored = recover_hessian(quad.hvp_operator(u), quad.coloring, quad.pattern)
        scale = abs(colored).max()
        assert scale > 0.0
        assert abs(quad.hessian(u) - colored).max() <= 1e-13 * scale


def test_problem_from_mesh_records_one_tape(monkeypatch):
    builds = []
    build = autodiff.Recorder.build

    def counting_build(rec, output):
        builds.append(rec.n_inputs)
        return build(rec, output)

    monkeypatch.setattr(autodiff.Recorder, "build", counting_build)
    for kind in ("plaplace", "ginzburg_landau", "neohooke"):
        builds.clear()
        problem = build_problem(kind, 1)
        assert builds == [problem.dofmap.n_total]


def free_dof_problem_cases(tiny_bar_problem):
    """(problem, u) for the three kinds and the tiny bar twisted by pi/3."""
    rng = np.random.default_rng(43)
    cases = []
    problems = [build_problem("plaplace", 1), build_problem("ginzburg_landau", 1), tiny_bar_problem]
    for problem in problems:
        cases.append((problem, random_benchmark_state(problem, rng)))
    twist = bar_dirichlet_values(tiny_bar_problem.mesh, np.pi / 3)
    twisted = tiny_bar_problem.with_dirichlet(twist)
    cases.append((twisted, twisted_bar_state(tiny_bar_problem, np.pi / 3, rng)))
    return cases, rng


def test_problem_replays_are_field_program_replays(tiny_bar_problem):
    cases, rng = free_dof_problem_cases(tiny_bar_problem)
    for problem, u in cases:
        free = problem.dofmap.freedofs
        v = problem.full_field(u)
        assert np.array_equal(v[free], u)
        fixed = np.setdiff1d(np.arange(problem.dofmap.n_total), free)
        assert np.array_equal(v[fixed], problem.dofmap.u_0[fixed])
        value, grad = problem.program.value_and_gradient(v)
        assert problem.evaluate(u) == problem.program.evaluate(v)
        got_value, got_grad = problem.value_and_gradient(u)
        assert got_value == value
        assert np.array_equal(got_grad, grad[free])
        assert np.array_equal(problem.gradient(u), grad[free])
        for s in (rng.standard_normal(problem.n_dofs), rng.standard_normal((problem.n_dofs, 4))):
            lifted = np.zeros((problem.dofmap.n_total,) + s.shape[1:])
            lifted[free] = s
            expected = problem.program.hessian_vector_product(v, lifted)[free]
            assert np.array_equal(problem.hessian_vector_product(u, s), expected)
            assert np.array_equal(problem.hvp_operator(u)(s), expected)


def test_problem_gradient_routes_only_free_dofs():
    # J(v) = sum v^2 over a field whose middle entry is fixed at 5
    rec = Recorder(3)
    program = rec.build((rec.input_var**2).sum())
    dofmap = DofMap(3, 1, freedofs=np.array([0, 2]), u_0=np.array([0.0, 5.0, 0.0]))
    pattern = SparsityPattern.from_csr(sp.identity(2, format="csr"))
    problem = EnergyProblem(
        kind="squares",
        mesh=None,
        elemdata=None,
        dofmap=dofmap,
        params=None,
        program=program,
        pattern=pattern,
        initial_guess=np.zeros(2),
    )
    u = np.array([1.0, -2.0])
    assert problem.evaluate(u) == 1.0 + 25.0 + 4.0
    assert np.array_equal(problem.gradient(u), [2.0, -4.0])
    assert np.array_equal(problem.hessian_vector_product(u, np.array([1.0, 3.0])), [2.0, 6.0])
    with pytest.raises(ValueError, match="free-dof vector"):
        problem.evaluate(np.zeros(3))


def test_problem_hvp_refuses_directions_by_free_dof_shape():
    problem = build_problem("ginzburg_landau", 1)
    n, u = problem.n_dofs, problem.initial_guess
    # (n_total,) is a field, not a free-dof vector
    for shape in ((problem.dofmap.n_total,), (n + 1, 3), (n, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(f"({n},) or ({n}, k), got {shape}")):
            problem.hessian_vector_product(u, np.zeros(shape))


def test_element_slots_reject_couplings_outside_pattern():
    problem = build_problem("plaplace", 1)
    diagonal = SparsityPattern.from_csr(sp.identity(problem.n_dofs, format="csr"))
    with pytest.raises(ValueError, match="outside the sparsity pattern"):
        element_slots(problem.program.element_dofs, problem.dofmap, diagonal)


def test_element_slots_looked_up_in_blocks(monkeypatch, tiny_bar_problem):
    problem = tiny_bar_problem
    dofs, dofmap = problem.program.element_dofs, problem.dofmap
    whole = element_slots(dofs, dofmap, problem.pattern)
    monkeypatch.setattr(fem, "_SLOT_LOOKUP_BLOCK", 1000)  # 6 elements of 144 entries
    assert np.array_equal(element_slots(dofs, dofmap, problem.pattern), whole)
    # a pattern without one coupling of the last element, in the last block
    i, j = np.flatnonzero(np.isin(dofmap.freedofs, dofs[-1]))[:2]
    dense = problem.pattern.tocsr().toarray()
    dense[i, j] = dense[j, i] = 0.0
    with pytest.raises(ValueError, match="outside the sparsity pattern"):
        element_slots(dofs, dofmap, SparsityPattern.from_csr(sp.csr_matrix(dense)))


def test_element_cut_choice_is_pinned(tiny_bar_problem):
    # every benchmark is cut at its frontier, whatever its width F against
    # the L local dofs: bar 9 < 12, p-Laplace 2 < 3 (its load term is
    # linear), Ginzburg-Landau 2 + 3 = 5 > 3
    pl, gl = build_problem("plaplace", 1), build_problem("ginzburg_landau", 1)
    for problem, width in ((tiny_bar_problem, 9), (pl, 2), (gl, 5)):
        n_elems, npe = problem.mesh.elems.shape
        local = npe * problem.dofmap.components
        cut = problem.program.element_cut
        assert cut.jacobian.shape == (n_elems, width, local)


def test_element_cut_patterns_and_colors_are_pinned(tiny_bar_problem):
    # Ginzburg-Landau's f_x, f_y and z_q meet in no nonlinear op: W'' is
    # diagonal and one color seeds all five entries; the p-Laplace and bar
    # densities couple every pair, so each entry takes its own color
    pl, gl = build_problem("plaplace", 1), build_problem("ginzburg_landau", 1)
    for problem, width, dense in ((gl, 5, False), (pl, 2, True), (tiny_bar_problem, 9, True)):
        cut = problem.program.element_cut
        pattern = np.ones((width, width), dtype=bool) if dense else np.eye(width, dtype=bool)
        assert np.array_equal(cut.pattern, pattern), problem.kind
        colors = np.arange(width) if dense else np.zeros(width)
        assert np.array_equal(cut.coloring.color_of, colors), problem.kind


def test_frontier_hessian_matches_colored_recovery(tiny_bar_problem):
    bar = build_problem("neohooke", 1)
    angle = 2.0 * np.pi / 3.0
    twisted = bar.with_dirichlet(bar_dirichlet_values(bar.mesh, angle))
    rng = np.random.default_rng(61)
    pl = jittered(build_problem("plaplace", 3), 5)
    cases = [
        (twisted, twisted_bar_state(bar, angle, rng)),
        (tiny_bar_problem, random_benchmark_state(tiny_bar_problem, rng)),
        (pl, random_benchmark_state(pl, rng)),
    ]
    for problem, u in cases:
        assert problem.program.element_cut is not None
        assert_matches_colored_recovery(problem, u)


# SHA-256 of ``problem.hessian(u).data``.  The bar's digest is from before
# Ginzburg-Landau joined the frontier cut.  The 2D digests are from the
# closed-form triangle areas, which moved the last bits of some element
# areas against LAPACK's determinant
HESSIAN_PINNED = {
    "plaplace": (71, "b0ebc4602dd2ccf5ae41cf3942d23c33b219bde661a56f1bc36c83596b4a8add"),
    "neohooke": (73, "cc1c78e36efe4b6f14b37c5b7fad9b5fd402b2b6958d79525763495e62918362"),
    "ginzburg_landau": (79, "2fbe2ee1b7072858e4d9cfaf65de3af67ff856081b8eb93037f6b6ac1b39d9ad"),
}


def test_frontier_hessian_bits_are_pinned(tiny_bar_problem):
    gl = build_problem("ginzburg_landau", 3)
    for problem in (build_problem("plaplace", 3), tiny_bar_problem, gl):
        seed, digest = HESSIAN_PINNED[problem.kind]
        u = random_benchmark_state(problem, np.random.default_rng(seed))
        data = problem.hessian(u).data
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest, problem.kind


def test_nonfinite_frontier_hessian_names_a_row():
    # |grad u|^3 has no finite second derivative at grad u = 0
    problem = build_problem("plaplace", 1)
    assert problem.program.element_cut is not None
    with pytest.raises(ColoringError, match=r"non-finite element Hessian entry in row \d+$"):
        problem.hessian(np.zeros(problem.n_dofs))


def test_element_jacobian_is_computed_once_per_program(monkeypatch):
    calls = []
    element_cut = autodiff._element_cut
    monkeypatch.setattr(autodiff, "_element_cut", lambda p: calls.append(p) or element_cut(p))
    problem = problem_from_mesh("neohooke", bar_mesh_from_cells(4, 2, 2, 0.005))
    # set-up leaves it to the first Hessian
    assert calls == [] and "element_cut" not in vars(problem.program)
    twisted = problem.with_dirichlet(bar_dirichlet_values(problem.mesh, np.pi / 3))
    for p in (problem, twisted, problem):
        p.hessian(p.initial_guess)
    assert calls == [problem.program]
    assert twisted.program.element_cut is problem.program.element_cut
