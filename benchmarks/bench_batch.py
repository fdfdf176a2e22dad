"""Batch-vs-sequential workload ablation: the multi-query batch
compiler against one-query-at-a-time execution.

Measures the quantity the batch compiler is built around: total time to
answer a whole pattern workload.  The sequential baseline runs the
18-pattern catalog one ``get_pattern_count`` at a time through a session
with a *warm* plan cache — planning is already amortized, so the
comparison isolates execution sharing, not compile latency.  The batched
run submits the same workload through ``submit_batch``: one DAG where
isomorphic queries dedup and decomposition quotients shared by several
parents are enumerated once (the GEO-style rewrite); every other census
runs the plan a sequential count runs.

Two gated metrics:

* **total-time ratio** (gated) — sequential wall time over batched wall
  time for the whole workload, same session options, warm plans on both
  sides.  Each side takes its best (minimum) over the measurement
  rounds — the least-noise estimator of true cost on a shared machine —
  and the acceptance gate requires **>= 1.5x** on the full power-law
  graph; per-round ratios and their geomean are reported alongside.
* **eliminated fraction** (gated) — the sharing report's fraction of
  distinct subpattern enumerations the DAG eliminated versus the
  sequential plan-execution count; the gate requires **>= 30%**.

Counts are asserted bit-identical batched vs sequential every round —
the benchmark is a correctness test as a side effect.

Runs standalone (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_batch.py --smoke --json out.json
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.api.messages import MiningRequest
from repro.api.session import DecoMine
from repro.bench import Table
from repro.graph.generators import power_law
from repro.patterns import catalog

#: Every catalog pattern with at most five vertices — chains, cycles,
#: stars, cliques and the paper's running examples.  Deliberately the
#: same 18-pattern workload ``tests/test_batch.py`` locks bit-identity
#: on.
PATTERNS = {
    "chain3": catalog.chain(3),
    "chain4": catalog.chain(4),
    "chain5": catalog.chain(5),
    "cycle4": catalog.cycle(4),
    "cycle5": catalog.cycle(5),
    "clique4": catalog.clique(4),
    "clique5": catalog.clique(5),
    "star3": catalog.star(3),
    "star4": catalog.star(4),
    "triangle": catalog.triangle(),
    "tailed_triangle": catalog.tailed_triangle(),
    "diamond": catalog.diamond(),
    "house": catalog.house(),
    "gem": catalog.gem(),
    "bowtie": catalog.bowtie(),
    "clique4_minus_edge": catalog.clique_minus_edge(4),
    "clique5_minus_edge": catalog.clique_minus_edge(5),
    "figure6": catalog.figure6_pattern(),
}
WORKLOAD = [(name, PATTERNS[name]) for name in sorted(PATTERNS)]

#: Acceptance gates: geomean sequential/batched total-time ratio, and
#: the sharing report's eliminated fraction (both tiers).
FULL_GATE = 1.5
SMOKE_GATE = 1.2
SHARING_GATE = 0.30


def make_graph(smoke: bool):
    """Power-law graphs sized so the catalog stays direct-census bound.

    On these graphs the cost model keeps the heavy catalog members
    (5-cycle, house, figure6, bowtie) on *direct* plans, the regime
    where a motif-counting workload actually spends its time.  There the
    batch's gain comes from the quotient enumerations its DAG shares.
    """
    if smoke:
        return power_law(300, avg_degree=10.0, exponent=1.8, seed=7)
    return power_law(500, avg_degree=12.0, exponent=1.8, seed=7)


def geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def run_experiment(smoke: bool = False):
    rounds = 1 if smoke else 5
    graph = make_graph(smoke)
    session = DecoMine(graph)
    requests = [
        MiningRequest(pattern=pattern, induced=False, request_id=name)
        for name, pattern in WORKLOAD
    ]

    # Warm every per-pattern plan once so neither side pays plan search
    # inside the timed region (the plan-cache ablation covers that).
    warmup = {name: session.get_pattern_count(pattern)
              for name, pattern in WORKLOAD}

    table = Table(
        "Batch compiler ablation: 18-pattern workload, total seconds "
        "(lower wins)",
        ["round", "sequential", "batched", "ratio"],
    )
    ratios: list[float] = []
    sequential_best = batched_best = float("inf")
    sharing = None
    for round_index in range(rounds):
        start = time.perf_counter()
        sequential = [session.get_pattern_count(pattern)
                      for name, pattern in WORKLOAD]
        sequential_s = time.perf_counter() - start

        start = time.perf_counter()
        responses = session.submit_batch(requests)
        batched_s = time.perf_counter() - start

        assert all(response.ok for response in responses)
        batched = [response.count for response in responses]
        expected = [warmup[name] for name, _ in WORKLOAD]
        assert sequential == expected, "sequential counts drifted"
        assert batched == expected, (
            f"batched counts diverged: {batched} != {expected}"
        )
        sharing = responses[0].metrics["sharing"]
        ratio = sequential_s / batched_s
        ratios.append(ratio)
        sequential_best = min(sequential_best, sequential_s)
        batched_best = min(batched_best, batched_s)
        table.add_row(str(round_index + 1), f"{sequential_s:.3f}",
                      f"{batched_s:.3f}", f"{ratio:.2f}x")

    gate = SMOKE_GATE if smoke else FULL_GATE
    gain = sequential_best / batched_best
    table.add_note(
        f"total-time ratio (best-of-{rounds} each side): {gain:.2f}x "
        f"(acceptance gate: >= {gate:.1f}x); per-round geomean "
        f"{geomean(ratios):.2f}x"
    )
    table.add_note(
        f"sharing: {sharing['plans_batched']} plan executions answered "
        f"{sharing['workload']} queries ({sharing['plans_sequential']} "
        f"sequentially; {sharing['eliminated_fraction']:.0%} eliminated, "
        f"gate >= {SHARING_GATE:.0%})"
    )
    table.add_note(
        "both sides share one session with warm plans and identical "
        "EngineOptions; counts asserted bit-identical every round"
    )
    table.add_note(
        f"graph: |V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"max degree {int(graph.degrees.max())}"
    )
    summary = {
        "total_time_ratio": gain,
        "geomean_round_ratio": geomean(ratios),
        "gate": gate,
        "sharing_gate": SHARING_GATE,
        "sequential_seconds": sequential_best,
        "batched_seconds": batched_best,
        "sharing": sharing,
        "counts": warmup,
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "smoke": smoke,
    }
    return table, summary


def check_gates(summary) -> list[str]:
    failures = []
    if summary["total_time_ratio"] < summary["gate"]:
        failures.append(
            f"total-time ratio {summary['total_time_ratio']:.2f}x "
            f"below the {summary['gate']:.1f}x gate"
        )
    eliminated = summary["sharing"]["eliminated_fraction"]
    if eliminated < summary["sharing_gate"]:
        failures.append(
            f"sharing report eliminated {eliminated:.0%} of subpattern "
            f"enumerations, below the {summary['sharing_gate']:.0%} gate"
        )
    return failures


def test_bench_batch(report, run_once):
    table, summary = run_once(lambda: run_experiment(smoke=False))
    report(table)
    # The tentpole acceptance criterion: the batched workload must beat
    # sequential by >= 1.5x geomean with >= 30% of enumerations shared.
    assert not check_gates(summary), check_gates(summary)


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, one round, low gate (CI)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the summary as JSON")
    args = parser.parse_args(argv)

    table, summary = run_experiment(smoke=args.smoke)
    print(table.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failures = check_gates(summary)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
