"""Run every workload and record the medians as a baseline.

    python3 perfbench/baseline.py --seeds 1,2,3 --seconds 20

For each workload this runs run.py once per seed with --trace 0 and once with
--trace 1, prints the median of every end-to-end metric (the five in
BENCHMARK.json plus failed_share and inconclusive_share, and on classify-sweep
the number of known-defect probes that fail) and every per-layer metric by
name with its unit, and writes them to perfbench/baseline.json. Runs with
failed problems are recorded as measured, with their failure count.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from problems import WORKLOADS  # noqa: E402
from run import TAIL_PERCENTILE  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Metric name -> (value, unit) from one run's metric lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[1].endswith("_share"):
            metrics[parts[1]] = (float(parts[2]), parts[3])
        if line.startswith(f"{workload} known defect"):
            failed = line.split(": ", 1)[1].split("/")[0]
            metrics["defect_probes_failed"] = (int(failed), "count")
    metrics["attempted"] = (result["attempted"], "count")
    metrics["failed"] = (result["failed"], "count")
    return metrics


def medians(runs: list[dict]) -> dict:
    """Median, unit, all values and, over several runs, the spread: the
    distance between the first and third quartile as a share of the median."""
    out = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        row = out[name] = {"median": statistics.median(values), "unit": unit, "values": values}
        if len(values) > 1 and row["median"]:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row["spread"] = (q3 - q1) / row["median"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    baseline = {"python": platform.python_version(), "machine": platform.machine(),
                "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        end_to_end = medians([run_once(workload, s, args.seconds, 0) for s in seeds])
        layers = medians([run_once(workload, seeds[0], args.seconds, 1)])
        dominant = max((n for n in layers if n.endswith(".self_s")),
                       key=lambda n: layers[n]["median"]).split(".")[0]
        baseline["workloads"][workload] = {
            "tail_percentile": TAIL_PERCENTILE[workload], "dominant_layer": dominant,
            "end_to_end": end_to_end, "per_layer": layers}
        rows = [*end_to_end.items(), *((n, r) for n, r in layers.items() if n not in end_to_end)]
        for name, row in rows:
            spread = f"  spread {row['spread']:.3f}" if "spread" in row else ""
            print(f"{workload:15s} {name:45s} {row['median']:.6g} {row['unit']}{spread}")
        print(f"{workload:15s} dominant layer by self time: {dominant}")
    path = HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
