"""Orientation ablation: degeneracy-oriented execution vs none.

Runs the clique-heavy workloads orientation was built for (triangle,
4-clique, 5-clique) plus the near-clique fallback cases (5-clique minus
an edge, house) on a skewed power-law graph, through the full session
path — profile, cost-model search, orient pass, oriented engine — with
``EngineOptions(orientation="degeneracy")`` against the unoriented
baseline.

Two regimes surface, both gated:

* **Oriented** — fully symmetric patterns compile to oriented-adjacency
  plans (every ``trim_above`` elided, every intersection running on
  degeneracy-bounded out-neighborhoods).  The acceptance gate requires
  a >= 1.5x geomean speedup here.
* **Fallback** — patterns whose winning plan keeps plain adjacency
  (house's single restriction feeds unrestricted loops; the near-clique
  decomposition's extension counts observe every element) record
  ``orientation="none"`` and execute on the original graph.  The gate
  requires these to stay within noise of the baseline — the fallback
  must be free.

Counts are asserted bit-identical between the two sessions on every
workload, making the benchmark a differential test as a side effect.

Runs standalone too (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_orientation.py --smoke --json out.json
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api.session import DecoMine
from repro.bench import Table
from repro.graph.generators import power_law
from repro.graph.transform import orient
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan

#: The ablation's workloads: the clique tier is the acceptance-gate set,
#: the near-clique tier exercises the sound fallback.
WORKLOADS = [
    ("triangle", catalog.triangle),
    ("clique4", lambda: catalog.clique(4)),
    ("clique5", lambda: catalog.clique(5)),
    ("clique5_minus_edge", lambda: catalog.clique_minus_edge(5)),
    ("house", catalog.house),
]


def make_graph(smoke: bool):
    """Skewed power-law graph: hubs make unoriented intersections pay
    full row-sized kernel costs, which is the regime orientation wins."""
    if smoke:
        return power_law(300, avg_degree=10.0, exponent=1.8, seed=7)
    return power_law(1000, avg_degree=14.0, exponent=1.8, seed=7)


def best_seconds(session, pattern, rounds):
    """Best-of-rounds engine time and the (verified stable) count.

    Runs the session's plan through ``execute_plan`` so the time is the
    execution alone, with the session's rule that a plan without
    oriented ops runs on the original graph.
    """
    plan = session.plan_for(pattern)
    options = session.engine_options
    if plan.orientation == "none":
        options = replace(options, orientation="none")
    best = float("inf")
    count = None
    for _ in range(rounds):
        result = execute_plan(plan, session.graph, options=options)
        value = result.embedding_count
        assert count is None or count == value
        count = value
        best = min(best, result.seconds)
    return best, count


def geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def run_experiment(smoke: bool = False):
    rounds = 1 if smoke else 3
    graph = make_graph(smoke)
    oriented_view = orient(graph, "degeneracy")
    baseline = DecoMine(graph, engine=EngineOptions())
    oriented = DecoMine(graph, engine=EngineOptions(orientation="degeneracy"))

    table = Table(
        "Orientation ablation: degeneracy vs none (seconds, lower wins)",
        ["pattern", "plan", "none", "degeneracy", "speedup"],
    )
    results: dict[str, dict] = {}
    oriented_speedups = []
    fallback_speedups = []
    for name, factory in WORKLOADS:
        pattern = factory()
        base_s, base_count = best_seconds(baseline, pattern, rounds)
        orient_s, orient_count = best_seconds(oriented, pattern, rounds)
        assert base_count == orient_count, (
            f"{name}: oriented count {orient_count} != {base_count}"
        )
        plan_orientation = oriented.plan_for(pattern).orientation
        speedup = base_s / orient_s
        (oriented_speedups if plan_orientation != "none"
         else fallback_speedups).append(speedup)
        results[name] = {
            "count": base_count,
            "seconds_none": base_s,
            "seconds_degeneracy": orient_s,
            "speedup": speedup,
            "plan_orientation": plan_orientation,
        }
        table.add_row(name, plan_orientation or "-", f"{base_s:.3f}",
                      f"{orient_s:.3f}", f"{speedup:.2f}x")

    oriented_gain = geomean(oriented_speedups)
    fallback_gain = geomean(fallback_speedups) if fallback_speedups else 1.0
    table.add_note(
        f"oriented-plan geomean speedup: {oriented_gain:.2f}x "
        "(acceptance gate: >= 1.5x)"
    )
    table.add_note(
        f"fallback geomean: {fallback_gain:.2f}x (gate: >= 0.8x — the "
        "sound fallback runs on the original graph, so it must be free)"
    )
    table.add_note(
        f"graph: |V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"max degree {int(graph.degrees.max())}, degeneracy-bounded "
        f"max out-degree {oriented_view.max_out_degree}"
    )
    summary = {
        "oriented_geomean_speedup": oriented_gain,
        "fallback_geomean_speedup": fallback_gain,
        "overall_geomean_speedup": geomean(
            oriented_speedups + fallback_speedups
        ),
        "cases": results,
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "max_degree": int(graph.degrees.max()),
            "max_out_degree": oriented_view.max_out_degree,
            "avg_out_degree": oriented_view.avg_out_degree,
        },
        "smoke": smoke,
    }
    return table, summary


def test_bench_orientation(report, run_once):
    table, summary = run_once(lambda: run_experiment(smoke=False))
    report(table)
    # The acceptance criterion for the orientation subsystem: workloads
    # whose plans actually orient must beat the baseline by >= 1.5x
    # geomean on the skewed graph.
    assert summary["oriented_geomean_speedup"] >= 1.5
    # Misaligned workloads fall back to the original graph; the fallback
    # must cost nothing beyond noise.
    assert summary["fallback_geomean_speedup"] >= 0.8
    # The clique tier must have compiled to oriented plans at all —
    # otherwise the first gate is vacuous.
    for name in ("triangle", "clique4", "clique5"):
        assert summary["cases"][name]["plan_orientation"] == "degeneracy"


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced graph and repetitions (CI)")
    parser.add_argument("--json", metavar="PATH",
                        help="write machine-readable results to PATH")
    args = parser.parse_args(argv)
    table, summary = run_experiment(smoke=args.smoke)
    print(table.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
