"""The benchmark's traced run wraps minfem callables by name; check they exist."""

from pathlib import Path

from minfem import energies
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
