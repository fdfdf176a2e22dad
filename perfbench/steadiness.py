"""Steadiness report: run each workload over several seeds.

For every end-to-end metric it gives the median and the spread the
acceptance rule uses — the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median — against a third of the metric's bound, and the spread of the
raw measured times for comparison.  For every workload it
gives the median latency of each op kind and the ratio between adjacent
kinds, and a traced run's per-layer metrics with the tracing overhead.
Writes ``perfbench/reports/steadiness.json``, which the mix-design tests
read::

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT = HERE / "reports" / "steadiness.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.NamedTemporaryFile(dir=ROOT / ".perfbench",
                                     suffix=".json") as detail:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--detail", detail.name],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed} incorrect:\n"
                             f"{done.stderr}")
        return json.loads(Path(detail.name).read_text())


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def kind_medians(details: list[dict]) -> dict:
    by_kind: dict = {}
    for detail in details:
        for kind, latency in detail["latencies"]:
            by_kind.setdefault(kind, []).append(latency)
    return {kind: 1e3 * statistics.median(values)
            for kind, values in by_kind.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = (json.loads(REPORT.read_text()) if REPORT.exists()
              else {"workloads": {}})
    sys.path.insert(0, str(HERE))
    import mix

    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        details = [run_once(workload, seed, bench["run_seconds"], 0)
                   for seed in seeds]
        traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
        metrics = {}
        for name, bound in bounds.items():
            values = [d["metrics"][name] for d in details]
            raw = [d["raw"][name] for d in details]
            metrics[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "steady": spread(values) < bound / 3,
                "values": values,
                "raw_spread": spread(raw),
                "raw_values": raw,
            }
        medians = kind_medians(details)
        order = [kind for kind, _ in mix.KINDS[workload]]
        ratios = {f"{a}->{b}": medians[b] / medians[a]
                  for a, b in zip(order, order[1:])}
        untraced = metrics["ops_per_s"]["median"]
        report["workloads"][workload] = {
            "runs": args.runs,
            "seeds": list(seeds),
            "ops_per_run": len(details[0]["latencies"]),
            "metrics": metrics,
            "kind_median_ms": {kind: medians[kind] for kind in order},
            "adjacent_ratios": ratios,
            "per_layer": traced["metrics"],
            "tracing_overhead": 1 - traced["metrics"]["trace.ops_per_s"]
            / untraced,
        }
        print(f"{workload}: ops/run {len(details[0]['latencies'])}")
        for name, row in metrics.items():
            flag = "ok" if row["steady"] else "WIDE"
            print(f"  {name:16} median {row['median']:10.4g}  spread "
                  f"{row['spread']:.3f}  bound/3 {row['bound'] / 3:.3f} "
                  f"{flag}  (raw spread {row['raw_spread']:.3f})")
        print("  kind medians (ms): " + ", ".join(
            f"{kind} {medians[kind]:.1f}" for kind in order))
        print("  adjacent ratios: " + ", ".join(
            f"{key} {value:.2f}" for key, value in ratios.items()))
        print(f"  trace coverage {traced['metrics']['trace.coverage']:.3f}, "
              f"tracing overhead "
              f"{report['workloads'][workload]['tracing_overhead']:.3f}")
        REPORT.parent.mkdir(exist_ok=True)
        REPORT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
