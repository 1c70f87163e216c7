"""Run the benchmark for seeds 1-10 and report how far each metric spreads.

Run from the repository root:

    python3 perfbench/spread.py transit        # or several workloads

Each run is ``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between
the quartiles as a share of the median, next to the metric's bound.  The
result lines go to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def spread(workload: str, seconds: int, bounds: dict) -> None:
    results = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{workload}.json").write_text(json.dumps(results))

    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{(q3 - q1) / abs(med):>8.4f} {bound:>6}")


def main(workloads) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads or [w["name"] for w in bench["workloads"]]:
        spread(workload, bench["run_seconds"], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
