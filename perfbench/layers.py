"""Which minfem callables the traced run wraps, and the per-layer metrics.

Each public callable is wrapped where its caller looks it up: the mesh,
element-table, pattern, recording and coloring functions in
``minfem.energies`` (``build_problem`` calls them there), Newton, the
initial guess, Hessian recovery and the line search in ``minfem.minimize``,
the solvers in ``minfem.solvers`` (``minimize`` calls ``solvers.<name>``),
and the ``Program`` and ``EnergyProblem`` methods on their classes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from minfem import autodiff, energies, minimize, solvers
from spans import Span, Tracer, self_times, subtree

__all__ = ["instrumented", "setup_metrics", "solve_metrics", "breakdown"]


def _newton_counts(args, result):
    return {
        "iterations": result.iterations,
        "shifted": sum(rec.shift > 0.0 for rec in result.iteration_log),
    }


_TARGETS = [
    (energies, "build_square_mesh", "mesh.build", None),
    (energies, "build_bar_mesh", "mesh.build", None),
    (energies, "precompute_gradients", "fem.precompute", None),
    (energies, "sparsity_pattern", "fem.pattern", lambda a, r: {"nnz": r.nnz}),
    (energies, "record_ginzburg_landau", "energies.record", None),
    (energies, "record_neohooke", "energies.record", None),
    (energies, "color_pattern", "coloring.color", lambda a, r: {"n_colors": r.n_colors}),
    (energies.EnergyProblem, "with_dirichlet", "energies.rebind", None),
    (minimize, "newton_minimize", "minimize.newton", _newton_counts),
    (minimize, "benchmark_initial_guess", "minimize.initial_guess", None),
    (minimize, "recover_hessian", "coloring.recover", None),
    (minimize, "golden_section", "minimize.linesearch", None),
    (autodiff.Program, "evaluate", "autodiff.evaluate", None),
    (autodiff.Program, "value_and_gradient", "autodiff.grad", None),
    (
        autodiff.Program,
        "hessian_vector_product",
        "autodiff.hvp",
        lambda a, r: {"columns": 1 if np.ndim(a[2]) == 1 else np.shape(a[2])[1]},
    ),
    (solvers, "solve_direct", "solvers.direct", None),
    (solvers, "build_amg", "solvers.amg_build", lambda a, r: {"levels": r.n_levels}),
    (solvers, "pcg_solve", "solvers.pcg", lambda a, r: {"iters": r[1]}),
]


@contextmanager
def instrumented(tracer: Tracer):
    """Route every traced callable through ``tracer`` for the block."""
    try:
        for owner, attr, name, describe in _TARGETS:
            tracer.wrap(owner, attr, name, describe)
        yield tracer
    finally:
        tracer.restore()


class _Tree:
    """The spans under one root, grouped by name."""

    def __init__(self, spans: list[Span], root: Span):
        self.root = root
        self.spans = subtree(spans, root)
        self.self_s = self_times(self.spans)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name[name])

    def own(self, name: str) -> float:
        return sum(self.self_s[s.id] for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def attr(self, name: str, key: str) -> list:
        return [s.attrs[key] for s in self.by_name[name] if key in s.attrs]


def setup_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced ``build_problem``."""
    tree = _Tree(spans, root)
    return {
        "mesh.build_s": tree.total("mesh.build"),
        "fem.precompute_s": tree.total("fem.precompute"),
        "fem.pattern_s": tree.total("fem.pattern"),
        "fem.pattern_nnz": sum(tree.attr("fem.pattern", "nnz")),
        "energies.record_s": tree.total("energies.record"),
        "coloring.color_s": tree.total("coloring.color"),
        "coloring.n_colors": sum(tree.attr("coloring.color", "n_colors")),
    }


def solve_metrics(spans: list[Span], root: Span, problem) -> dict[str, float]:
    """Per-layer metrics of one traced solve (span ``root``) of ``problem``.

    The ``computed.*`` counts are derived, not timed: directions pushed
    through the tape (HVP columns times dofs), and the Hessian entries each
    recovery reads from its probes (the pattern's nnz).
    """
    tree = _Tree(spans, root)
    linesearch_ids = {s.id for s in tree.by_name["minimize.linesearch"]}
    steps = [s.duration for s in tree.by_name["minimize.newton"]]
    hvp_columns = sum(tree.attr("autodiff.hvp", "columns"))
    return {
        "coloring.recover_s": tree.total("coloring.recover"),
        "coloring.recover_self_s": tree.own("coloring.recover"),
        "coloring.recover_calls": tree.calls("coloring.recover"),
        "autodiff.hvp_s": tree.total("autodiff.hvp"),
        "autodiff.hvp_calls": tree.calls("autodiff.hvp"),
        "autodiff.hvp_columns": hvp_columns,
        "minimize.linesearch_s": tree.total("minimize.linesearch"),
        "minimize.linesearch_evals": sum(
            s.parent in linesearch_ids for s in tree.by_name["autodiff.evaluate"]
        ),
        "autodiff.evaluate_s": tree.total("autodiff.evaluate"),
        "autodiff.evaluate_calls": tree.calls("autodiff.evaluate"),
        "autodiff.grad_s": tree.total("autodiff.grad"),
        "autodiff.grad_calls": tree.calls("autodiff.grad"),
        "solvers.amg_build_s": tree.total("solvers.amg_build"),
        "solvers.amg_build_calls": tree.calls("solvers.amg_build"),
        "solvers.amg_levels": max(tree.attr("solvers.amg_build", "levels"), default=0),
        "solvers.pcg_s": tree.total("solvers.pcg"),
        "solvers.pcg_iters": sum(tree.attr("solvers.pcg", "iters")),
        "solvers.direct_s": tree.total("solvers.direct"),
        "solvers.direct_calls": tree.calls("solvers.direct"),
        "solvers.errors": sum(
            s.error is not None for s in tree.spans if s.name.startswith("solvers.")
        ),
        "minimize.newton_iters": sum(tree.attr("minimize.newton", "iterations")),
        "minimize.shifted_iters": sum(tree.attr("minimize.newton", "shifted")),
        "minimize.self_s": tree.own("minimize.newton"),
        "minimize.load_step_s_p50": statistics.median(steps),
        "minimize.load_step_s_max": max(steps),
        "energies.rebind_s": tree.total("energies.rebind"),
        "computed.hvp_column_dofs": hvp_columns * problem.n_dofs,
        "computed.hessian_nnz_per_recovery": problem.pattern.nnz,
        "trace.accounted_frac": 1.0 - tree.self_s[root.id] / root.duration,
    }


def breakdown(spans: list[Span], root: Span) -> list[tuple[str, int, float]]:
    """(span name, calls, self seconds) under ``root``, largest first.

    The self times partition the root's duration: they sum to it exactly.
    """
    tree = _Tree(spans, root)
    rows = [(name, len(group), tree.own(name)) for name, group in tree.by_name.items()]
    return sorted(rows, key=lambda row: -row[2])
