"""Benchmark harness: run the three benchmarks, print tables, export fields.

Exit codes: 0 on full convergence, 2 on partial results, 1 on usage
errors and unwritable export paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .coloring import ColoringError
from .energies import EnergyProblem, build_problem
from .mesh import MeshData
from .minimize import (
    SOLVERS,
    MinimizeResult,
    NewtonConfig,
    NewtonError,
    benchmark_initial_guess,
    continuation_hyperelastic,
    newton_minimize,
)
from .solvers import SolverError

__all__ = ["BenchmarkReport", "ReportRow", "run_benchmark", "report_table", "export_solution", "main"]

BENCHMARK_NAMES = {"plaplace": "plaplace", "gl": "ginzburg_landau", "hyper": "neohooke"}
CSV_HEADER = "dofs,setup_s,solve_s,iters,J"
# failures that end a level with a partial report instead of a traceback;
# MemoryError covers a level too large to build
LEVEL_ERRORS = (NewtonError, SolverError, ColoringError, MemoryError)


@dataclass(frozen=True)
class ReportRow:
    dofs: int
    setup_s: float
    solve_s: float
    iters: int
    J: float


@dataclass(eq=False)
class BenchmarkReport:
    """Rows of one benchmark run plus the configuration that produced them."""

    benchmark: str
    rows: list[ReportRow]
    config: dict
    complete: bool = True
    results: list[tuple[MinimizeResult, EnergyProblem]] = field(default_factory=list, repr=False)
    error: str | None = None


def _parse_levels(text: str) -> list[int]:
    """Levels from ``N``, ``N..M`` or ``N,M,...``; ValueError if malformed or empty."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            levels = list(range(int(lo), int(hi) + 1))
        elif "," in text:
            levels = [int(part) for part in text.split(",") if part.strip()]
        else:
            levels = [int(text)]
    except ValueError:
        raise ValueError(f"invalid levels {text!r}; expected N, N..M or N,M,...") from None
    if not levels:
        raise ValueError(f"levels {text!r} select no level")
    return levels


# the command-line flag behind each NewtonConfig field it sets
_CONFIG_FLAGS = {"grad_tol": "--tol-grad", "energy_tol": "--tol-energy", "solver": "--solver"}


def _run_level(kind: str, level: int, config: NewtonConfig):
    t0 = time.perf_counter()
    problem = build_problem(kind, level)
    setup_s = time.perf_counter() - t0

    rows: list[ReportRow] = []
    results: list[tuple[MinimizeResult, EnergyProblem]] = []
    if kind == "neohooke":
        steps = continuation_hyperelastic(problem, config)
        for res in steps[2::3]:  # the reported load steps t = 3, 6, ..., 24
            rows.append(ReportRow(problem.n_dofs, setup_s, res.solve_s, res.iterations, res.energy))
            results.append((res, problem))
    else:
        t0 = time.perf_counter()
        u0 = benchmark_initial_guess(problem)
        res = newton_minimize(problem, u0, config)
        solve_s = time.perf_counter() - t0
        rows.append(ReportRow(problem.n_dofs, setup_s, solve_s, res.iterations, res.energy))
        results.append((res, problem))
    return rows, results


def run_benchmark(
    name: str, levels: Iterable[int], config: NewtonConfig | None = None
) -> BenchmarkReport:
    """Build and minimize each level, timing setup and solve separately.

    ``name`` is one of plaplace | gl | hyper; ``config`` None means
    ``NewtonConfig()``.  Nonconvergence, a solver or Hessian failure
    anywhere in a level (the initial guess included), or a level too
    large to build stops the run and yields a partial report (``complete
    = False`` with ``error`` naming the level).
    """
    if name not in BENCHMARK_NAMES:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {sorted(BENCHMARK_NAMES)}")
    kind = BENCHMARK_NAMES[name]
    config = config or NewtonConfig()
    levels = list(levels)

    report = BenchmarkReport(
        benchmark=name,
        rows=[],
        config={
            "benchmark": name,
            "levels": levels,
            "grad_tol": config.grad_tol,
            "energy_tol": config.energy_tol,
            "solver": config.solver,
        },
    )

    for level in levels:
        try:
            rows, results = _run_level(kind, level, config)
        except LEVEL_ERRORS as exc:
            report.complete = False
            report.error = f"level {level}: {exc}"
            break
        report.rows.extend(rows)
        report.results.extend(results)
    return report


def report_table(report: BenchmarkReport, fmt: str = "text", stream: TextIO | None = None) -> str:
    """Render the report as text (4-decimal J), csv, or json."""
    lines: list[str] = []
    if fmt == "text":
        lines.append(f"benchmark: {report.benchmark}   config: {report.config}")
        lines.append(f"{'dofs':>10} {'setup_s':>10} {'solve_s':>10} {'iters':>6} {'J':>12}")
        for row in report.rows:
            lines.append(
                f"{row.dofs:>10d} {row.setup_s:>10.2f} {row.solve_s:>10.2f} "
                f"{row.iters:>6d} {row.J:>12.4f}"
            )
        if not report.complete:
            lines.append(f"incomplete: {report.error}")
    elif fmt == "csv":
        lines.append(CSV_HEADER)
        for row in report.rows:
            lines.append(
                f"{row.dofs},{row.setup_s:.17g},{row.solve_s:.17g},{row.iters},{row.J:.17g}"
            )
    elif fmt == "json":
        payload = [
            {"dofs": row.dofs, "setup_s": row.setup_s, "solve_s": row.solve_s,
             "iters": row.iters, "J": row.J}
            for row in report.rows
        ]
        lines.append(json.dumps(payload, indent=2))
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def export_solution(result: MinimizeResult, mesh: MeshData, path: str, fmt: str = "csv") -> None:
    """Write the nodal solution field as CSV or legacy-ASCII VTK.

    CSV holds one row per node (coordinates then solution components) with
    a header row, '.' decimals, comma separators, and LF line endings at
    full (17 significant digit) precision.
    """
    values = result.u_full.reshape(mesh.n_nodes, -1)
    n_comp = values.shape[1]
    if fmt == "csv":
        coord_names = ["x", "y", "z"][: mesh.dim]
        value_names = ["u"] if n_comp == 1 else [f"v{ax}" for ax in ("x", "y", "z")[:n_comp]]
        lines = [",".join(coord_names + value_names)]
        for node in range(mesh.n_nodes):
            lines.append(",".join(f"{x:.17g}" for x in (*mesh.nodes[node], *values[node])))
    elif fmt == "vtk-legacy":
        npe = mesh.elems.shape[1]
        cell_type = 5 if npe == 3 else 10
        lines = [
            "# vtk DataFile Version 3.0",
            "minfem solution export",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {mesh.n_nodes} double",
        ]
        for node in range(mesh.n_nodes):
            coords = list(mesh.nodes[node]) + [0.0] * (3 - mesh.dim)
            lines.append(" ".join(f"{c:.17g}" for c in coords))
        lines.append(f"CELLS {mesh.n_elems} {mesh.n_elems * (npe + 1)}")
        for elem in mesh.elems:
            lines.append(" ".join([str(npe)] + [str(int(v)) for v in elem]))
        lines.append(f"CELL_TYPES {mesh.n_elems}")
        lines.extend([str(cell_type)] * mesh.n_elems)
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        if n_comp == 1:
            lines.append("SCALARS u double 1")
            lines.append("LOOKUP_TABLE default")
            for node in range(mesh.n_nodes):
                lines.append(f"{values[node, 0]:.17g}")
        else:
            lines.append("VECTORS v double")
            for node in range(mesh.n_nodes):
                lines.append(" ".join(f"{v:.17g}" for v in values[node]))
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minfem", description="Nonlinear energy-minimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a benchmark and print its table")
    run.add_argument("benchmark", choices=sorted(BENCHMARK_NAMES))
    run.add_argument("--levels", help="refinement levels: N, N..M, or N,M,...")
    run.add_argument("--level", type=int, help="single refinement level")
    run.add_argument("--tol-grad", type=float, dest="tol_grad")
    run.add_argument("--tol-energy", type=float, dest="tol_energy")
    run.add_argument("--solver", choices=SOLVERS)
    run.add_argument("--format", choices=["text", "csv", "json"], default="text")
    run.add_argument("--export", metavar="PATH", help="write the last solution field to PATH")
    run.add_argument("--export-format", choices=["csv", "vtk-legacy"], default="csv")
    return parser


def _error(message: str) -> int:
    print(f"minfem: error: {message}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.levels and args.level is not None:
        return _error("give either --level or --levels, not both")
    if args.levels:
        try:
            levels = _parse_levels(args.levels)
        except ValueError as exc:
            return _error(str(exc))
    elif args.level is not None:
        levels = [args.level]
    else:
        levels = [1]
    if any(level < 1 for level in levels):
        return _error("levels must be positive")
    values = {"grad_tol": args.tol_grad, "energy_tol": args.tol_energy, "solver": args.solver}
    try:
        config = NewtonConfig(**{name: v for name, v in values.items() if v is not None})
    except ValueError as exc:
        # NewtonConfig's message starts with the field's name
        field_name = str(exc).split()[0]
        return _error(f"{_CONFIG_FLAGS.get(field_name, field_name)}: {exc}")
    if args.export and not os.path.isdir(os.path.dirname(os.path.abspath(args.export))):
        return _error(f"--export directory of {args.export!r} does not exist")

    report = run_benchmark(args.benchmark, levels, config)
    report_table(report, args.format, stream=sys.stdout)

    if args.export and report.results:
        result, problem = report.results[-1]
        try:
            export_solution(result, problem.mesh, args.export, args.export_format)
        except OSError as exc:
            return _error(f"cannot write --export {args.export!r}: {exc}")
    return 0 if report.complete else 2


if __name__ == "__main__":
    sys.exit(main())
