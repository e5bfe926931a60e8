"""The benchmark's traced run wraps minfem callables by name; check they exist
and that a traced set-up and solve give the declared per-layer metrics."""

import json
from pathlib import Path

from minfem import energies, minimize
from minfem.energies import build_problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve_and_setup_runs_under_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import measure
    import spans

    original = energies.record_ginzburg_landau
    tracer = spans.Tracer("check")
    with layers.instrumented(tracer):
        key = measure._setup_key(build_problem("ginzburg_landau", 1))
    assert energies.record_ginzburg_landau is original
    assert key[0] == 49
    names = {span.name for span in tracer.spans}
    assert {"mesh.build", "fem.precompute", "fem.pattern", "energies.record"} <= names
    assert "coloring.color" in names


def test_traced_solve_reports_the_declared_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["per_layer"]}
    tracer = spans.Tracer("check")
    with layers.instrumented(tracer):
        with tracer.span("setup") as setup_root:
            problem = build_problem("ginzburg_landau", 1)
        with tracer.span("solve") as solve_root:
            minimize.newton_minimize(problem, minimize.benchmark_initial_guess(problem))
    metrics = layers.setup_metrics(tracer.spans, setup_root)
    metrics.update(layers.solve_metrics(tracer.spans, solve_root, problem))
    assert set(metrics) | {"trace.solve_s", "trace.overhead_s"} == declared
    # J(u) comes with each gradient: every energy replay is a line-search sample
    assert metrics["autodiff.evaluate_calls"] == metrics["minimize.linesearch_evals"] > 0
    assert metrics["autodiff.grad_calls"] == metrics["minimize.newton_iters"] + 1
