import json
from types import SimpleNamespace

import numpy as np
import pytest

from minfem.cli import (
    CSV_HEADER,
    _parse_levels,
    export_solution,
    main,
    report_table,
    run_benchmark,
)
from minfem.coloring import ColoringError
from minfem.minimize import NewtonConfig, NewtonError
from minfem.solvers import SolverError


@pytest.fixture(scope="module")
def plaplace_report():
    return run_benchmark("plaplace", [1, 2])


def test_parse_levels_forms():
    assert _parse_levels("3") == [3]
    assert _parse_levels("1..4") == [1, 2, 3, 4]
    assert _parse_levels("1,3,5") == [1, 3, 5]


def test_run_benchmark_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_benchmark("poisson", [1])


def test_run_benchmark_values(plaplace_report):
    report = plaplace_report
    assert report.complete
    assert [row.dofs for row in report.rows] == [33, 161]
    assert abs(report.rows[0].J - (-7.3411)) < 5e-4
    assert abs(report.rows[1].J - (-7.7767)) < 5e-4
    assert report.config["benchmark"] == "plaplace"
    assert report.config["levels"] == [1, 2]


def test_report_table_text_four_decimals(plaplace_report):
    text = report_table(plaplace_report, "text")
    assert "-7.3411" in text and "-7.7767" in text
    assert "dofs" in text.splitlines()[1]


def test_report_table_csv_contract(plaplace_report):
    lines = report_table(plaplace_report, "csv").splitlines()
    assert lines[0] == CSV_HEADER == "dofs,setup_s,solve_s,iters,J"
    first = lines[1].split(",")
    assert int(first[0]) == 33
    # full precision round-trips
    assert float(first[4]) == plaplace_report.rows[0].J


def test_report_table_json_contract(plaplace_report):
    payload = json.loads(report_table(plaplace_report, "json"))
    assert isinstance(payload, list) and len(payload) == 2
    assert set(payload[0]) == {"dofs", "setup_s", "solve_s", "iters", "J"}
    assert payload[0]["J"] == plaplace_report.rows[0].J


def test_report_table_unknown_format(plaplace_report):
    with pytest.raises(ValueError):
        report_table(plaplace_report, "xml")


def test_export_csv_roundtrip(tmp_path, plaplace_report):
    result, problem = plaplace_report.results[0]
    path = tmp_path / "solution.csv"
    export_solution(result, problem.mesh, str(path), "csv")
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "x,y,u"
    assert len(lines) - 1 == problem.mesh.n_nodes == 65
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, :2], problem.mesh.nodes)
    assert np.array_equal(parsed[:, 2], result.u_full)


def test_export_vtk_structure(tmp_path, plaplace_report):
    result, problem = plaplace_report.results[0]
    path = tmp_path / "solution.vtk"
    export_solution(result, problem.mesh, str(path), "vtk-legacy")
    content = path.read_text().splitlines()
    assert content[3] == "DATASET UNSTRUCTURED_GRID"
    assert content[4] == f"POINTS {problem.mesh.n_nodes} double"
    assert f"CELLS {problem.mesh.n_elems} {problem.mesh.n_elems * 4}" in content
    assert f"POINT_DATA {problem.mesh.n_nodes}" in content
    assert "SCALARS u double 1" in content


def test_export_vector_field_vtk(tmp_path, tiny_bar_problem):
    from minfem.minimize import newton_minimize
    from minfem.energies import bar_dirichlet_values

    problem = tiny_bar_problem.with_dirichlet(
        bar_dirichlet_values(tiny_bar_problem.mesh, 0.5)
    )
    result = newton_minimize(problem, tiny_bar_problem.initial_guess)
    path = tmp_path / "bar.vtk"
    export_solution(result, problem.mesh, str(path), "vtk-legacy")
    content = path.read_text()
    assert "VECTORS v double" in content


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", "plaplace", "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "-7.3411" in out

    # usage errors exit 1
    assert main(["run", "unknown-benchmark"]) == 1
    assert main(["run", "plaplace", "--level", "1", "--levels", "2"]) == 1
    assert main(["run", "plaplace", "--level", "0"]) == 1
    capsys.readouterr()


def test_main_csv_and_export(tmp_path, capsys):
    out_file = tmp_path / "field.csv"
    code = main(
        ["run", "gl", "--level", "1", "--format", "csv", "--export", str(out_file)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert out_file.exists()
    assert out_file.read_text().splitlines()[0] == "x,y,u"


def test_export_to_missing_directory_is_rejected_before_any_level(tmp_path, capsys, monkeypatch):
    import minfem.cli as cli

    def no_level(*args):
        raise AssertionError("a level ran before the export path was checked")

    monkeypatch.setattr(cli, "run_benchmark", no_level)
    missing = tmp_path / "no" / "such" / "dir" / "u.csv"
    assert main(["run", "plaplace", "--level", "1", "--export", str(missing)]) == 1
    captured = capsys.readouterr()
    assert "minfem: error:" in captured.err and str(missing) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_export_write_failure_is_a_named_error(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    assert main(["run", "plaplace", "--level", "1", "--export", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "-7.3411" in captured.out  # the table still printed
    assert "minfem: error:" in captured.err and "--export" in captured.err
    assert "Traceback" not in captured.err


def test_runs_are_deterministic():
    a = run_benchmark("gl", [1, 2])
    b = run_benchmark("gl", [1, 2])
    assert [r.J for r in a.rows] == [r.J for r in b.rows]
    assert [r.iters for r in a.rows] == [r.iters for r in b.rows]


def test_solver_override_flag():
    report = run_benchmark("plaplace", [1], NewtonConfig(solver="amg"))
    assert report.complete
    assert abs(report.rows[0].J - (-7.3411)) < 5e-4
    log = report.results[0][0].iteration_log
    assert log and all(rec.solver == "amg" and rec.inner_iterations > 0 for rec in log)


def test_unknown_solver_is_a_usage_error(capsys):
    assert main(["run", "plaplace", "--level", "1", "--solver", "diag-cg"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--solver" in captured.err and "diag-cg" in captured.err
    assert captured.out == ""


def test_nonconvergence_yields_partial_report(monkeypatch, capsys):
    import minfem.cli as cli

    real = cli.newton_minimize
    calls = {"n": 0}

    def flaky(problem, u_init, config=None):
        calls["n"] += 1
        if calls["n"] > 1:
            raise NewtonError("forced failure for the partial-report path")
        return real(problem, u_init, config)

    monkeypatch.setattr(cli, "newton_minimize", flaky)
    report = run_benchmark("plaplace", [1, 2])
    assert not report.complete
    assert "forced failure" in report.error
    assert len(report.rows) == 1  # the completed level survives

    calls["n"] = 0
    code = main(["run", "plaplace", "--levels", "1..2"])
    assert code == 2
    assert "incomplete" in capsys.readouterr().out


@pytest.mark.parametrize("levels", ["abc", "3..1", "1..x"])
def test_malformed_or_empty_levels_are_usage_errors(levels, capsys):
    assert main(["run", "plaplace", "--levels", levels]) == 1
    captured = capsys.readouterr()
    assert "minfem: error:" in captured.err and "levels" in captured.err
    assert captured.out == ""


def test_parallel_levels_is_a_usage_error(capsys):
    assert main(["run", "plaplace", "--parallel-levels"]) == 1
    captured = capsys.readouterr()
    assert "minfem: error:" in captured.err and "--parallel-levels" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("error", [SolverError, ColoringError])
def test_failure_outside_newton_yields_partial_report(error, monkeypatch, capsys):
    import minfem.cli as cli

    def failing_guess(problem):
        raise error("forced failure in the initial guess")

    monkeypatch.setattr(cli, "benchmark_initial_guess", failing_guess)
    report = run_benchmark("plaplace", [1])
    assert not report.complete
    assert "forced failure" in report.error
    assert report.rows == []

    assert main(["run", "plaplace", "--level", "1"]) == 2
    assert "incomplete" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["plaplace", "gl", "hyper"])
def test_level_too_large_to_build_yields_partial_report(name, capsys):
    # level 40's element table overflows numpy's index range, so the mesh
    # builder refuses it before allocating anything
    assert main(["run", name, "--level", "40"]) == 2
    captured = capsys.readouterr()
    assert "incomplete: level 40: mesh too large" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("flag", ["--tol-grad", "--tol-energy"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-6"])
def test_nonfinite_or_nonpositive_tolerances_are_usage_errors(flag, value, capsys):
    assert main(["run", "plaplace", "--level", "1", f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert "minfem: error:" in captured.err and flag in captured.err
    assert captured.out == ""


def test_bar_rows_report_measured_load_step_times(monkeypatch, tiny_bar_problem):
    import minfem.cli as cli

    # equal iteration counts with unequal times: a share of the total by
    # iterations would report the same time on every row
    steps = [
        SimpleNamespace(iterations=4, energy=float(t), solve_s=0.01 * t * t) for t in range(1, 25)
    ]
    monkeypatch.setattr(cli, "build_problem", lambda kind, level: tiny_bar_problem)
    monkeypatch.setattr(cli, "continuation_hyperelastic", lambda problem, config: steps)
    report = run_benchmark("hyper", [1])
    assert [row.solve_s for row in report.rows] == [0.01 * t * t for t in range(3, 25, 3)]
    assert [row.J for row in report.rows] == [float(t) for t in range(3, 25, 3)]
    assert all(row.iters == 4 and row.dofs == tiny_bar_problem.n_dofs for row in report.rows)


def test_failing_load_step_yields_partial_report(monkeypatch, tiny_bar_problem):
    import minfem.cli as cli
    import minfem.minimize as minimize

    real = minimize.newton_minimize
    steps = []

    def fail_at_step_2(problem, u_init, config=None):
        steps.append(len(steps) + 1)
        if len(steps) == 2:
            raise NewtonError("forced failure")
        return real(problem, u_init, config)

    monkeypatch.setattr(cli, "build_problem", lambda kind, level: tiny_bar_problem)
    monkeypatch.setattr(minimize, "newton_minimize", fail_at_step_2)
    report = run_benchmark("hyper", [1])
    assert not report.complete
    assert "load step 2" in report.error and "forced failure" in report.error
    assert report.rows == []
