"""minfem benchmark: time to solution on one workload, checked against the paper.

Run from the repository root:

    python3 perfbench/run.py --workload gl-l5-amg --seed 0 --seconds 58 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json.  The run
prints the environment and every metric with its unit, then, as its last
line, one JSON object with the keys correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
It exits 0 when every Newton solve passed its gate, 1 when one failed and
2 on a usage error or when the minfem sources are missing.  A JSON record
of the run, and with --trace 1 its spans, are written to perfbench/results/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS/OpenMP thread: set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=_non_negative, default=0, help="0 is the paper's exact start")
    parser.add_argument("--seconds", type=_positive, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minfem" / "__init__.py").is_file():
        print(f"perfbench: no minfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), spec, HERE / "results")


if __name__ == "__main__":
    sys.exit(main())
