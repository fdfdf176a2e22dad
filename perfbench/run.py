"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload count-warm --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics in reference-host time (the raw measured
figures go to standard error); ``--trace 1`` reports a separate traced
run's per-layer metrics (its spans go to ``.perfbench/traces/``).
``--detail FILE`` also writes every op's kind and latency and every
set-up time, for the steadiness report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("count-warm", "compile-cold", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="FILE")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run = workloads.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for error in run.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if args.trace:
        metrics, text = workloads.per_layer(args.workload, run)
        print(text, file=sys.stderr)
        traces = workloads.SCRATCH / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"windows": run.windows, "spans": run.spans,
                        "report": text}))
        raw = {}
    else:
        metrics = workloads.end_to_end(run)
        raw = workloads.end_to_end(run, reference=False)
        for name, (value, unit) in raw.items():
            print(f"raw {name:28} {value:14.6g} {unit}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "setups": run.setups,
            "latencies": run.latencies, "chunks": run.chunks,
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "raw": {name: value for name, (value, _) in raw.items()},
        }))
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
