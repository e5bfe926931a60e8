"""One benchmark run: repeated set-ups, repeated solves, gates and report.

The run calls ``build_problem`` 3 to 25 times, three times first and the
others between solves, up to 5 at a time, while set-up has taken less than
15% of the time so far; the set-up samples then span the run, as the solves
do.  The rest of ``--seconds`` goes to solves: at least two, all untraced with
``--trace 0``; with ``--trace 1`` every third solve is untraced and the
others are traced, so the tracing overhead is measured in the same process.
A new repetition starts only while the median so far predicts that it ends
in time.

``setup_s`` is the median of the set-ups.  ``solve_s`` is the 90th
percentile of the untraced solves: the host's speed swings between two
levels for tens of seconds at a time, so a run's median lands on either
level, while its slow tail is there in nearly every run and moves with the
program's own cost.  Per-layer times are medians over the traced solves.

Every solve is gated: each Newton solve must converge, the last one must
reach the paper's table energy, and every solve of the seed must repeat
the first one exactly (energy bits, Newton, inner and shifted iterations;
in traced solves also every per-layer count).  Every set-up must give the
same pattern and coloring.  A Newton solve that breaks a gate counts as
failed; nothing is dropped.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from layers import breakdown, instrumented, setup_metrics, solve_metrics
from spans import Tracer
from workloads import WORKLOADS, signature

__all__ = ["run"]

SETUP_SHARE = 0.15
MIN_SETUPS, MAX_SETUPS, SETUPS_PER_ROUND = 3, 25, 5


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _p90(samples: list[float]) -> float:
    """The 90th percentile, interpolated between samples (a lone one is its own)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _fits(started: float, budget: float, samples: list[float]) -> bool:
    """Whether one more repetition likely ends within ``budget`` seconds."""
    return time.perf_counter() - started + statistics.median(samples) <= budget


def _setup_key(problem) -> tuple:
    return (
        problem.n_dofs,
        problem.coloring.n_colors,
        problem.coloring.color_of.tobytes(),
        problem.pattern.indptr.tobytes(),
        problem.pattern.indices.tobytes(),
    )


def _print_metrics(declared: list[dict], values: dict) -> None:
    for metric in declared:
        print(f"  {metric['name']:<36} {values[metric['name']]:>14.6g} {metric['unit']}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, spec: dict, out_dir: Path) -> int:
    workload = WORKLOADS[workload_name]
    started = time.perf_counter()
    tracer = Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}") if trace else None
    count_names = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    notes: list[str] = []

    # -- set-up: at least MIN_SETUPS now, then topped up between solves -------
    setup_s: list[float] = []
    setup_keys: set[tuple] = set()

    def set_up(limit: int):
        """Build the problem until set-up holds its share of the time so far."""
        nonlocal problem
        for _ in range(limit):
            if len(setup_s) >= MIN_SETUPS and (
                len(setup_s) >= MAX_SETUPS
                or sum(setup_s) >= SETUP_SHARE * (time.perf_counter() - started)
            ):
                return
            gc.collect()
            t0 = time.perf_counter()
            problem = workload.setup()
            setup_s.append(time.perf_counter() - t0)
            setup_keys.add(_setup_key(problem))

    problem = None
    set_up(MIN_SETUPS)
    layer_values: dict[str, float] = {}
    if tracer:
        gc.collect()
        with instrumented(tracer), tracer.span("setup") as root:
            setup_keys.add(_setup_key(workload.setup()))
        layer_values.update(setup_metrics(tracer.spans, root))

    # -- solves ---------------------------------------------------------------
    solve_s: list[float] = []
    traced_roots = []
    traced_layers: list[dict] = []
    first_signature = first_counts = None
    attempted = failed = 0
    while True:
        set_up(SETUPS_PER_ROUND)
        index = len(solve_s) + len(traced_roots)
        quota_met = (len(solve_s) >= 1 and len(traced_roots) >= 2) if tracer else len(solve_s) >= 2
        if quota_met and not _fits(started, seconds, solve_s + [r.duration for r in traced_roots]):
            break
        traced = tracer is not None and index % 3 != 0
        gc.collect()
        if traced:
            with instrumented(tracer), tracer.span("solve") as root:
                outcomes = workload.solve(problem, seed)
            traced_roots.append(root)
            traced_layers.append(solve_metrics(tracer.spans, root, problem))
        else:
            t0 = time.perf_counter()
            outcomes = workload.solve(problem, seed)
            solve_s.append(time.perf_counter() - t0)

        reasons = workload.failures(outcomes)
        first_signature = first_signature or signature(outcomes)
        if signature(outcomes) != first_signature:
            reasons = [r or "differs from the first solve of this seed" for r in reasons]
        if traced:
            counts = {k: v for k, v in traced_layers[-1].items() if k in count_names}
            first_counts = first_counts or counts
            if counts != first_counts:
                changed = ", ".join(sorted(k for k in counts if counts[k] != first_counts[k]))
                reasons = [r or f"counts differ from the first traced solve: {changed}" for r in reasons]
        attempted += len(reasons)
        failed += sum(r is not None for r in reasons)
        notes += [f"solve {index + 1}, Newton solve {k + 1}: {r}" for k, r in enumerate(reasons) if r]
    if len(setup_keys) != 1:
        notes.append(f"set-up gave {len(setup_keys)} different patterns or colorings")
        failed = attempted

    # -- report ---------------------------------------------------------------
    end_to_end = {"setup_s": statistics.median(setup_s), "solve_s": _p90(solve_s)}
    end_to_end["time_to_solution_s"] = end_to_end["setup_s"] + end_to_end["solve_s"]
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        for name in traced_layers[0]:  # counts repeat exactly (gated above)
            samples = [sample[name] for sample in traced_layers]
            layer_values[name] = samples[0] if name in count_names else statistics.median(samples)
        layer_values["trace.solve_s"] = statistics.median(r.duration for r in traced_roots)
        layer_values["trace.overhead_s"] = layer_values["trace.solve_s"] - statistics.median(solve_s)
    declared = spec["per_layer" if tracer else "end_to_end"]
    values = layer_values if tracer else end_to_end
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json's")
    environment = _environment()

    print(f"perfbench workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"samples: setup {len(setup_s)}, solve {len(solve_s)}, traced solve {len(traced_roots)}")
    print("end-to-end (setup_s: median; solve_s: 90th percentile):")
    _print_metrics(spec["end_to_end"], end_to_end)
    if tracer:
        print("per layer (traced; times are medians over traced solves):")
        _print_metrics(spec["per_layer"], layer_values)
        root = sorted(traced_roots, key=lambda r: r.duration)[(len(traced_roots) - 1) // 2]
        print(f"self time of the median traced solve ({root.duration:.4f} s):")
        for name, calls, own in breakdown(tracer.spans, root):
            print(f"  {name:<24} {calls:>7d} calls {own:>10.4f} s {100.0 * own / root.duration:6.1f}%")
    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} Newton solves)")
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)

    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment,
        "samples": {
            "setup_s": setup_s,
            "solve_s": solve_s,
            "traced_solve_s": [r.duration for r in traced_roots],
        },
        "end_to_end": end_to_end,
        "per_layer": layer_values,
        "attempted": attempted,
        "failed": failed,
        "failures": notes,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
