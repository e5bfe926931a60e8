import dataclasses

import numpy as np
import pytest

from helpers import (
    central_difference_gradient,
    dense_hessian_by_probes,
    element_blocks_by_hvp,
    element_local_program,
    jittered,
    make_quadratic_problem,
    random_benchmark_state,
)
from minfem import autodiff
from minfem.autodiff import Recorder, dot
from minfem.energies import build_problem
from minfem.fem import element_dofs


def sum_of_squares_program(n=3):
    rec = Recorder(n)
    u = rec.input_var
    return rec.build((u**2).sum())


def quadratic_program(a):
    rec = Recorder(a.shape[0])
    u = rec.input_var
    return rec.build(0.5 * dot(u @ a, u))


@pytest.fixture(scope="module")
def small_benchmarks(tiny_bar_problem):
    return [
        build_problem("plaplace", 1),
        build_problem("ginzburg_landau", 1),
        tiny_bar_problem,
    ]


def random_states(problem, rng, count):
    for _ in range(count):
        yield random_benchmark_state(problem, rng)


def test_sum_of_squares_value_gradient_hvp():
    prog = sum_of_squares_program()
    u = np.array([1.0, 2.0, 3.0])
    assert prog.evaluate(u) == 14.0
    assert np.allclose(prog.gradient(u), [2.0, 4.0, 6.0])
    s = np.array([0.5, -1.0, 2.0])
    assert np.allclose(prog.hessian_vector_product(u, s), 2.0 * s)


def test_quadratic_hvp_is_matrix_product():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    a = m + m.T
    prog = quadratic_program(a)
    u = rng.standard_normal(5)
    s = rng.standard_normal(5)
    assert np.allclose(prog.hessian_vector_product(u, s), a @ s, atol=1e-13)
    stacked = rng.standard_normal((5, 4))
    assert np.allclose(prog.hessian_vector_product(u, stacked), a @ stacked, atol=1e-13)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_hvp_through_a_squared_dot_product(k):
    # the dot products' scalar adjoints carry tangents of their own, which
    # the reverse sweep spreads over the vectors' entries
    rec = Recorder(5)
    u = rec.input_var
    c = np.array([0.4, -1.0, 2.0, 0.3, -0.7])
    prog = rec.build(dot(u, u) ** 2 + dot(c, u) ** 3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(5)
    s = rng.standard_normal((5, k))
    hessian = 4.0 * (x @ x) * np.eye(5) + 8.0 * np.outer(x, x) + 6.0 * (c @ x) * np.outer(c, c)
    assert np.allclose(prog.hessian_vector_product(x, s), hessian @ s, atol=1e-13)


def test_gradient_matches_central_differences(small_benchmarks):
    rng = np.random.default_rng(11)
    for problem in small_benchmarks:
        for u in random_states(problem, rng, 3):
            g = problem.gradient(u)
            fd = central_difference_gradient(problem, u)
            rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert rel < 1e-6, f"{problem.kind}: relative error {rel:.2e}"


def test_hvp_matches_fd_of_gradient(small_benchmarks):
    rng = np.random.default_rng(5)
    for problem in small_benchmarks:
        u = next(iter(random_states(problem, rng, 1)))
        n = u.size
        dense = dense_hessian_by_probes(problem, u)
        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * max(1.0, abs(u[j]))
            up, down = u.copy(), u.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (problem.gradient(up) - problem.gradient(down)) / (2 * h)
        rel = np.abs(dense - fd).max() / np.abs(fd).max()
        assert rel < 1e-5, f"{problem.kind}: relative error {rel:.2e}"


def test_hvp_linearity_and_symmetry(small_benchmarks):
    rng = np.random.default_rng(17)
    for problem in small_benchmarks:
        u = next(iter(random_states(problem, rng, 1)))
        n = u.size
        s1, s2 = rng.standard_normal(n), rng.standard_normal(n)
        hvp = problem.hessian_vector_product
        combo = hvp(u, 0.3 * s1 - 1.7 * s2)
        parts = 0.3 * hvp(u, s1) - 1.7 * hvp(u, s2)
        scale = np.abs(parts).max()
        assert np.abs(combo - parts).max() <= 1e-12 * scale
        sym_gap = abs(float(s2 @ hvp(u, s1)) - float(s1 @ hvp(u, s2)))
        assert sym_gap <= 1e-10 * max(abs(float(s1 @ hvp(u, s2))), 1e-300)


def test_directional_derivative_second_order(small_benchmarks):
    # steps chosen per benchmark so truncation dominates roundoff
    step_sets = {
        "plaplace": (1e-2, 1e-3, 1e-4),
        "ginzburg_landau": (1e-2, 1e-3, 1e-4),
        "neohooke": (3e-5, 1e-5, 3e-6),
    }
    rng = np.random.default_rng(23)
    for problem in small_benchmarks:
        u = next(iter(random_states(problem, rng, 1)))
        s = rng.standard_normal(u.size)
        s /= np.linalg.norm(s)
        exact = float(problem.gradient(u) @ s)
        steps = np.array(step_sets[problem.kind])
        errors = []
        for eps in steps:
            fd = (problem.evaluate(u + eps * s) - problem.evaluate(u - eps * s)) / (2 * eps)
            errors.append(abs(fd - exact))
        slope = np.polyfit(np.log(steps), np.log(np.maximum(errors, 1e-300)), 1)[0]
        assert slope > 1.7, f"{problem.kind}: observed order {slope:.2f}"


def test_replay_determinism_bitwise():
    problem = build_problem("ginzburg_landau", 1)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(problem.n_dofs)
    s = rng.standard_normal(problem.n_dofs)
    assert problem.evaluate(u) == problem.evaluate(u)
    g1, g2 = problem.gradient(u), problem.gradient(u)
    assert np.array_equal(g1, g2)
    h1 = problem.hessian_vector_product(u, s)
    h2 = problem.hessian_vector_product(u, s)
    assert np.array_equal(h1, h2)


def test_abs_uses_sign_zero_at_origin():
    rec = Recorder(3)
    prog = rec.build(abs(rec.input_var).sum())
    assert np.all(prog.gradient(np.zeros(3)) == 0.0)
    assert np.allclose(prog.gradient(np.array([2.0, -3.0, 0.0])), [1.0, -1.0, 0.0])


def test_input_shape_errors():
    prog = sum_of_squares_program(3)
    with pytest.raises(ValueError):
        prog.evaluate(np.zeros(4))
    with pytest.raises(ValueError):
        prog.hessian_vector_product(np.zeros(3), np.zeros((4, 2)))


def test_nonfinite_propagates_to_caller():
    rec = Recorder(2)
    from minfem.autodiff import log

    prog = rec.build(log(rec.input_var).sum())
    assert prog.evaluate(np.array([1.0, 1.0])) == 0.0
    assert prog.evaluate(np.array([0.0, 1.0])) == -np.inf


def test_zeroth_power_has_zero_derivatives_at_zero():
    rec = Recorder(3)
    v = rec.input_var
    prog = rec.build((v**0.0).sum() + v.sum())
    u = np.array([0.0, 1.0, 2.0])
    assert prog.evaluate(u) == 6.0
    assert_same_bits(prog.gradient(u), np.ones(3))
    assert_same_bits(prog.hessian_vector_product(u, np.array([1.0, -2.0, 0.5])), np.zeros(3))
    assert_same_bits(prog.hessian_vector_product(u, np.eye(3)), np.zeros((3, 3)))


def test_first_power_derivatives_are_finite_at_zero():
    rec = Recorder(3)
    y = rec.input_var**1.0
    prog = rec.build((y**2).sum() + y.sum())
    u = np.array([0.0, 1.0, -2.0])
    s = np.array([1.0, -2.0, 0.5])
    assert_same_bits(prog.gradient(u), 2.0 * u + 1.0)
    assert_same_bits(prog.hessian_vector_product(u, s), 2.0 * s)
    assert_same_bits(prog.hessian_vector_product(u, np.eye(3)), 2.0 * np.eye(3))


def test_program_signature_is_stable():
    p1 = build_problem("plaplace", 1)
    p2 = build_problem("plaplace", 1)
    assert p1.program.signature() == p2.program.signature()


# the replay kernels as they were first written: numpy's row reduction and
# unbuffered np.add.at; the faster kernels must reproduce their bits


def oracle_sum_rows(a):
    if not isinstance(a, autodiff._Dual):
        return a.sum(axis=1)
    return autodiff._Dual(a.val.sum(axis=1), a.dot.sum(axis=2))


def oracle_scatter_add(g, idx, n):
    if not isinstance(g, autodiff._Dual):
        out = np.zeros(n)
        np.add.at(out, idx, g)
        return out
    val = np.zeros(n)
    np.add.at(val, idx, g.val)
    dot = np.zeros((g.dot.shape[0], n))
    np.add.at(dot, (slice(None), idx), g.dot)
    return autodiff._Dual(val, dot)


def assert_same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def assert_same_dual_bits(x, y):
    if isinstance(y, autodiff._Dual):
        assert isinstance(x, autodiff._Dual)
        assert_same_bits(x.val, y.val)
        assert_same_bits(x.dot, y.dot)
    else:
        assert_same_bits(x, y)


def heavy_tailed(rng, shape):
    """Cauchy samples over 16 decades with signed zeros mixed in."""
    data = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-8, 9, shape)
    zeros = rng.random(shape) < 0.05
    data[zeros] = np.where(rng.random(shape) < 0.5, -0.0, 0.0)[zeros]
    return data


@pytest.mark.parametrize("width", range(1, 10))
def test_sum_rows_matches_numpy_reduction(width):
    rng = np.random.default_rng(100 + width)
    a = heavy_tailed(rng, (2000, width))
    a[:3] = -0.0  # all -0.0 rows sum to +0.0
    assert_same_bits(autodiff._sum_rows(a), oracle_sum_rows(a))
    for k in (1, 6):
        dual = autodiff._Dual(a, heavy_tailed(rng, (k, 2000, width)))
        dual.dot[:, :3] = -0.0
        assert_same_dual_bits(autodiff._sum_rows(dual), oracle_sum_rows(dual))


def test_scatter_add_matches_add_at():
    rng = np.random.default_rng(7)
    n = 50
    idx = rng.integers(0, n - 5, (700, 3))  # repeats, and entries never hit
    idx[:10] = 4
    g = heavy_tailed(rng, idx.shape)
    g[:10] = -0.0  # an entry reached only by -0.0 stays +0.0
    assert_same_bits(autodiff._scatter_add(g, idx, n), oracle_scatter_add(g, idx, n))
    for k in (1, 6):
        dot = heavy_tailed(rng, (k,) + idx.shape)
        dot[:, :10] = -0.0
        dual = autodiff._Dual(g, dot)
        assert_same_dual_bits(
            autodiff._scatter_add(dual, idx, n), oracle_scatter_add(dual, idx, n)
        )


def replays(program, u, s):
    value, grad = program.value_and_gradient(u)
    return program.evaluate(u), value, grad, program.hessian_vector_product(u, s)


@pytest.fixture(scope="module")
def level3_benchmarks(tiny_bar_problem):
    gl = build_problem("ginzburg_landau", 3)
    return [
        gl,
        build_problem("plaplace", 3),
        tiny_bar_problem,
        jittered(gl, 1),
        jittered(tiny_bar_problem, 2),
    ]


def test_tape_replays_match_oracle_kernels(level3_benchmarks, monkeypatch):
    rng = np.random.default_rng(31)
    cases = []
    for problem in level3_benchmarks:
        u = random_benchmark_state(problem, rng)
        v = problem.full_field(u)
        x = v[element_dofs(problem.elemdata.elems, problem.dofmap.components)].ravel()
        cases.append((problem.program, v, rng.standard_normal((v.size, 6))))
        cases.append((element_local_program(problem), x, rng.standard_normal((x.size, 6))))
    fast = [replays(*case) for case in cases]
    monkeypatch.setattr(autodiff, "_sum_rows", oracle_sum_rows)
    monkeypatch.setattr(autodiff, "_scatter_add", oracle_scatter_add)
    for case, got in zip(cases, fast):
        for x, y in zip(got, replays(*case)):
            assert_same_bits(x, y)


def test_negative_gather_indices_match_add_at_oracle():
    idx = np.array([-1, 0, -1])
    rec = Recorder(3)
    w = rec.input_var[idx]
    prog = rec.build((w**3).sum())
    u = np.array([0.7, -1.3, 2.1])
    s = np.array([0.4, 1.1, -0.6])
    grad = np.zeros(3)
    np.add.at(grad, idx, 3.0 * u[idx] ** 2)
    hvp = np.zeros(3)
    np.add.at(hvp, idx, 6.0 * u[idx] * s[idx])
    assert prog.evaluate(u) == float((u[idx] ** 3.0).sum())
    assert_same_bits(prog.gradient(u), grad)
    assert_same_bits(prog.hessian_vector_product(u, s), hvp)


def test_gather_needs_a_vector_operand():
    rec = Recorder(4)
    block = rec.input_var[np.array([[0, 1], [2, 3]])]
    with pytest.raises(TypeError):
        block[np.array([0])]


def input_gathers(program):
    return [ins for ins in program.instrs if ins.op == "take" and ins.args == (0,)]


def scattered_hessian(program, u):
    """``element_hessians`` summed through the gathers' index matrices, dense."""
    gathers = input_gathers(program)
    dofs = np.stack([ins.aux for ins in gathers], axis=2).reshape(gathers[0].aux.shape[0], -1)
    h = np.zeros((u.size, u.size))
    for e, block in enumerate(program.element_hessians(u)):
        h[np.ix_(dofs[e], dofs[e])] += block
    return h


def assert_scatters_to_hessian(program, u):
    want = program.hessian_vector_product(u, np.eye(u.size))
    got = scattered_hessian(program, u)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    return want


def assert_close_with_nans(got, want):
    # p-Laplace has no finite second derivative where grad u = 0: elements
    # with all nodes on the boundary give NaN on both sides
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.abs(got[~nan] - want[~nan]).max() <= 1e-13 * np.abs(want[~nan]).max()


def test_element_hessians_scatter_to_hessian_vector_product(level3_benchmarks):
    rng = np.random.default_rng(37)
    for problem in level3_benchmarks:
        program = problem.program
        u = random_benchmark_state(problem, rng)
        v = problem.full_field(u)
        blocks = program.element_hessians(v)
        assert_close_with_nans(blocks, element_blocks_by_hvp(problem, u))
        s = rng.standard_normal((v.size, 6))
        dofs = element_dofs(problem.elemdata.elems, problem.dofmap.components)
        products = np.einsum("eab,ebk->eak", blocks, s[dofs])
        scattered = np.stack(
            [np.bincount(dofs.ravel(), products[..., j].ravel(), v.size) for j in range(6)], axis=1
        )
        assert_close_with_nans(scattered, program.hessian_vector_product(v, s))


def test_element_hessians_reject_other_reads_of_the_input():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 4))
    problem = make_quadratic_problem(m.T @ m, rng.standard_normal(4))
    with pytest.raises(ValueError, match="'matmul'"):
        problem.program.element_hessians(np.zeros(4))
    rec = Recorder(3)
    v = rec.input_var
    prog = rec.build((v[np.array([[0, 1], [1, 2]])] ** 2).sum() + dot(v, v))
    with pytest.raises(ValueError, match="'dot'"):
        prog.element_hessians(np.zeros(3))


def ops_of(program, slots):
    writers = {ins.out: ins.op for ins in program.instrs}
    return [writers[slot] for slot in slots]


def test_frontier_of_benchmark_tapes(small_benchmarks):
    pl, gl, bar = (problem.program for problem in small_benchmarks)
    # the bar: the nine entries of F, one row sum each, after 3 gathers,
    # 9 products and 9 row sums
    assert ops_of(bar, bar.frontier.slots) == ["sum_rows"] * 9
    assert len(bar.frontier.prefix) == 21
    assert len(bar.frontier.prefix) + len(bar.frontier.suffix) == len(bar.instrs)
    # Ginzburg-Landau: f_x, f_y and v_elems @ ip
    assert ops_of(gl, gl.frontier.slots) == ["sum_rows", "sum_rows", "matmul"]
    # p-Laplace: f_x, f_y and the load term's dot product
    assert ops_of(pl, pl.frontier.slots) == ["sum_rows", "sum_rows", "dot"]


def test_along_matches_evaluate_on_benchmarks(small_benchmarks):
    rng = np.random.default_rng(59)
    for problem in small_benchmarks:
        u = random_benchmark_state(problem, rng)
        d = random_benchmark_state(problem, rng) - u
        line = problem.along(u, d)
        assert line.n_inputs == 1
        for alpha in (0.25, 1.0, 1.9):
            want = problem.evaluate(u + alpha * d)
            assert abs(line.evaluate([alpha]) - want) <= 1e-13 * abs(want), problem.kind


def test_along_inverting_direction_is_nonfinite(tiny_bar_problem):
    # d = -u collapses every element away from the end faces to a point at
    # alpha = 1: det F = 0 there, and log(det F) = -inf
    problem = tiny_bar_problem
    u = problem.initial_guess
    line = problem.along(u, -u)
    assert not np.isfinite(problem.evaluate(u - u))
    assert not np.isfinite(line.evaluate([1.0]))
    assert np.isfinite(line.evaluate([0.5]))


def test_along_on_a_tape_that_is_nonlinear_in_the_input():
    rec = Recorder(3)
    program = rec.build((rec.input_var**2).sum())
    assert program.frontier.slots == (program.input_slot,)
    assert program.frontier.prefix == ()
    u, d = np.array([0.3, -1.2, 2.5]), np.array([1.1, 0.4, -0.7])
    line = program.along(u, d)
    for alpha in (0.25, 1.0, 1.9):
        # z0 + alpha * z1 is u + alpha * d, so no bit moves
        assert line.evaluate([alpha]) == program.evaluate(u + alpha * d)


def test_dependent_frontier_slots_are_cut_at_the_frontier():
    # w and 2 w are both read by the product: each is seeded on its own
    rec = Recorder(3)
    w = rec.input_var[np.array([[0, 1], [1, 2]])]
    twice = 2.0 * w
    program = rec.build((w * twice).sum())
    assert program.frontier.slots == (w.slot, twice.slot)
    assert program.element_cut.jacobian.shape == (2, 4, 2)
    u, d = np.array([0.3, -1.2, 2.5]), np.array([1.1, 0.4, -0.7])
    assert program.along(u, d).evaluate([0.5]) == program.evaluate(u + 0.5 * d)
    assert_scatters_to_hessian(program, u)


def test_operations_on_constants_are_folded():
    rec = Recorder(2)
    c = rec.constant(np.array([1.0, 2.0]))
    program = rec.build(dot(c * 3.0 + 1.0, rec.input_var))
    assert [ins.op for ins in program.instrs] == ["dot"]
    assert program.evaluate(np.array([1.0, 1.0])) == 4.0 + 7.0


def test_element_hessians_of_linear_terms_are_zero():
    rec = Recorder(3)
    v = rec.input_var
    idx = np.array([[0, 1], [1, 2]])
    program = rec.build((3.0 * v[idx]).sum() - dot(np.array([1.0, 2.0, 3.0]), v))
    assert program.frontier.slots == (program.output_slot,)
    # a frontier of width 0: K is (E, 0, L) and the blocks are zero
    cut = program.element_cut
    assert cut.slots == ()
    assert cut.jacobian.shape == (2, 0, 2)
    assert_same_bits(program.element_hessians(np.ones(3)), np.zeros((2, 2, 2)))
    u, d = np.array([0.3, -1.2, 2.5]), np.array([1.1, 0.4, -0.7])
    want = program.evaluate(u + 0.5 * d)
    assert abs(program.along(u, d).evaluate([0.5]) - want) <= 1e-15 * abs(want)


def test_gather_hvp_of_linear_terms_is_zero():
    # gathers and dot products with constants only: every HVP is zero,
    # and so is the Hessian the element blocks scatter to
    rec = Recorder(3)
    v = rec.input_var
    idx = np.array([[0, 1], [1, 2]])
    program = rec.build((3.0 * v[idx]).sum() - dot(np.array([1.0, 2.0, 3.0]), v))
    assert_same_bits(scattered_hessian(program, np.ones(3)), np.zeros((3, 3)))
    assert_same_bits(program.hessian_vector_product(np.ones(3), np.eye(3)), np.zeros((3, 3)))


def test_element_hessians_at_an_array_frontier_match_the_hvp():
    # a per-element (E, 1) frontier slot, v_e @ m, and a load term
    rng = np.random.default_rng(67)
    idx = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 0]])
    m = rng.standard_normal((3, 1))
    rec = Recorder(6)
    v = rec.input_var
    z = v[idx] @ m
    program = rec.build(((z**4) @ np.ones(1)).sum() - dot(rng.standard_normal(6), v))
    cut = program.element_cut
    assert cut.shapes == ((1,),) and cut.jacobian.shape == (3, 1, 3)
    assert_scatters_to_hessian(program, rng.standard_normal(6))


ROW_PAIRS = np.array([[0, 1], [1, 2], [2, 3]])
PERM = np.array([1, 2, 0])
U4 = np.array([0.3, -1.2, 2.5, 0.8])


def row_sum_tape(energy):
    """A tape of ``energy(v, g, z)`` over 4 dofs and 3 elements: ``g`` is
    the (3, 2) gather and ``z`` the per-element row sum of g * [1, -1]."""
    rec = Recorder(4)
    v = rec.input_var
    g = v[ROW_PAIRS]
    z = (g * np.array([1.0, -1.0])).sum(axis=1)
    return rec.build(energy(v, g, z))


def separable_by_permutation(v, g, z):
    # sum_e z[perm[e]]**4 is sum_e z[e]**4, but the take mixes rows
    return (z[PERM] ** 4).sum()


def test_rows_mixed_in_the_prefix_are_refused():
    # a take across rows cannot be told apart from a coupling of elements
    program = row_sum_tape(separable_by_permutation)
    assert len(program.frontier.slots) == 1
    with pytest.raises(ValueError, match=r"slot \d+ \('pow'\)"):
        program.element_hessians(U4)


@pytest.mark.parametrize(
    ("energy", "op"),
    [
        (lambda v, g, z: ((z**2).sum()) ** 2, "pow"),
        (lambda v, g, z: ((z + z[PERM]) ** 4).sum(), "pow"),
        # an (E,) by (E, 3) product contracts across rows
        (lambda v, g, z: ((z @ np.arange(9.0).reshape(3, 3)) ** 2).sum(), "pow"),
    ],
    ids=[
        "square-of-the-sum",
        "coupled-rows",
        "contraction-across-rows",
    ],
)
def test_element_hessians_refuse_tapes_that_are_not_sums_of_element_densities(energy, op):
    program = row_sum_tape(energy)
    with pytest.raises(ValueError, match=f"'{op}'.*sum of element densities"):
        program.element_hessians(U4)


@pytest.mark.parametrize(
    "energy",
    [
        # an input-dependent scalar broadcast across the rows
        lambda v, g, z: (z**2 * (z**2).sum()).sum(),
        # an (E, 1) by (E,) product broadcasts across rows
        lambda v, g, z: (g @ np.ones((2, 1)) * z).sum(),
        lambda v, g, z: (z * np.ones((3, 1))).sum(),
        lambda v, g, z: ((z**2).sum() * np.ones(3)).sum(),
    ],
    ids=["times-the-sum", "broadcast-across-rows", "rows-into-columns", "sum-across-rows"],
)
def test_broadcasts_of_input_dependent_operands_are_refused_when_recorded(energy):
    with pytest.raises(TypeError, match=r"'mul' broadcasts .* result shape \(3,"):
        row_sum_tape(energy)


@pytest.mark.parametrize("shape", [(4,), (2, 1, 2)])
def test_row_sums_need_a_matrix(shape):
    rec = Recorder(4)
    v = rec.input_var if len(shape) == 1 else rec.input_var[np.arange(4).reshape(shape)]
    with pytest.raises(ValueError, match=r"sum\(axis=1\) needs a 2-D operand"):
        v.sum(axis=1)


@pytest.mark.parametrize(
    "energy",
    [
        lambda v, g, z: (g * (2.0 * g)).sum(),
        lambda v, g, z: 0.5 * g.sum(),
        lambda v, g, z: (z @ np.array([[0.5, -1.0], [2.0, 0.3], [-0.7, 1.1]])).sum() + (z**4).sum(),
        lambda v, g, z: ((z**3)[PERM] * np.array([1.5, -0.4, 0.9])).sum(),
        lambda v, g, z: dot(z**3, np.array([1.5, -0.4, 0.9])) - dot(U4[::-1], v),
    ],
    ids=[
        "dependent-frontier-slots",
        "scaled-linear-terms",
        "contraction-used-linearly",
        "take-used-linearly",
        "dot-products",
    ],
)
def test_element_hessians_of_sums_of_element_densities_match_the_hvp(energy):
    assert_scatters_to_hessian(row_sum_tape(energy), U4)


def test_a_refused_tape_gets_its_hessian_by_colored_recovery():
    # without a slot map the problem recovers the Hessian through its coloring
    tridiagonal = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
    program = row_sum_tape(separable_by_permutation)
    problem = dataclasses.replace(make_quadratic_problem(tridiagonal, np.zeros(4)), program=program)
    assert problem.element_slots is None
    want = program.hessian_vector_product(U4, np.eye(4))
    got = problem.hessian(U4).toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(want).max() > 1.0
