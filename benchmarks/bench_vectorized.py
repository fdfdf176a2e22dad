"""Vectorized-executor ablation: batched NumPy kernels vs codegen.

Runs the catalog patterns through the full session path — profile,
cost-model search, decomposition, optimization passes — twice per
workload: once on the scalar codegen executor, once on the vectorized
executor (``EngineOptions(executor="vectorized")``), on the same skewed
power-law graph the orientation ablation uses.  Counts are asserted
bit-identical per workload, making the benchmark a differential test as
a side effect.

Two regimes surface:

* **Batched** (gated) — plans that spend their time inside per-row set
  kernels.  The frontier execution model turns every level of the loop
  nest into a handful of array-at-a-time ``searchsorted`` kernels, so
  the Python interpreter overhead (the per-embedding dispatch the
  scalar executors pay) amortizes away.  The acceptance gate requires a
  >= 2x geomean speedup here; measured headroom is well above it.
* **Memo-bound** (informational, ungated) — plans whose scalar
  execution is dominated by SetOpCache hits (cycle5: the same hub
  intersections recur across the outer loop, and the scalar executors
  reuse them by operand identity).  The batched kernels recompute what
  the cache would have reused, so vectorized execution lands near — or
  below — parity.  Recorded and reported, not gated: the fix is a
  batched memo keyed on vertex ids, which is future work.

The gated claim is against the scalar executor's per-embedding
dispatch bill, so the codegen session runs on its Python target: the
compiler lookup is hidden from it, as in the native fallback test.  The
C target (:mod:`repro.compiler.cgen`) is reported as one more column,
ungated.

Runs standalone too (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_vectorized.py --smoke --json out.json
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.api.session import DecoMine
from repro.bench import Table
from repro.compiler import cgen
from repro.graph.generators import power_law
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan

#: The gated tier: every catalog workload whose winning plan is
#: kernel-bound.  Spans cliques (intersection-heavy), near-cliques
#: (bounded kernels), sparse tails (subtract/exclude), and the paper's
#: running example.
BATCHED = [
    ("triangle", catalog.triangle),
    ("clique4", lambda: catalog.clique(4)),
    ("clique5", lambda: catalog.clique(5)),
    ("clique4_minus_edge", lambda: catalog.clique_minus_edge(4)),
    ("clique5_minus_edge", lambda: catalog.clique_minus_edge(5)),
    ("diamond", catalog.diamond),
    ("tailed_triangle", catalog.tailed_triangle),
    ("house", catalog.house),
    ("gem", catalog.gem),
    ("bowtie", catalog.bowtie),
    ("cycle4", lambda: catalog.cycle(4)),
    ("figure6", catalog.figure6_pattern),
]

#: The informational tier: SetOpCache-dominated plans where batching
#: forfeits cross-iteration reuse.  Measured with one round (cycle5 is
#: the most expensive workload in the file) and never gated.
MEMO_BOUND = [
    ("cycle5", lambda: catalog.cycle(5)),
]

#: Acceptance gate on the batched tier's geomean speedup.  The full
#: graph has real headroom above 2x; the smoke graph is small enough
#: that per-call kernel overhead eats into the win, so its bar is lower
#: — it exists to catch wholesale regressions in CI, not to certify the
#: speedup claim.
FULL_GATE = 2.0
SMOKE_GATE = 1.2

#: No batched workload may regress past this floor even individually —
#: a tripwire for a pattern silently falling off the fast path.
CASE_FLOOR = 0.8


def make_graph(smoke: bool):
    """The orientation ablation's skewed power-law graph: hubs give the
    batched kernels long rows to amortize over, and give codegen the
    per-embedding dispatch bill the vectorized executor is built to
    avoid."""
    if smoke:
        return power_law(300, avg_degree=10.0, exponent=1.8, seed=7)
    return power_law(1000, avg_degree=14.0, exponent=1.8, seed=7)


@contextlib.contextmanager
def python_target():
    """Keep codegen on its Python target by hiding the compiler lookup."""
    saved = cgen.find_compiler
    cgen.find_compiler = lambda: None
    try:
        yield
    finally:
        cgen.find_compiler = saved


def best_seconds(session, pattern, rounds):
    """Best-of-rounds engine time, the (verified stable) count and the
    target the plan ran on: the session's plan run through
    ``execute_plan`` with its options."""
    plan = session.plan_for(pattern)
    best = float("inf")
    count = None
    for _ in range(rounds):
        result = execute_plan(plan, session.graph,
                              options=session.engine_options)
        value = result.embedding_count
        assert count is None or count == value
        count = value
        best = min(best, result.seconds)
    return best, count, result.target


def geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def run_experiment(smoke: bool = False):
    rounds = 1 if smoke else 3
    graph = make_graph(smoke)
    codegen = DecoMine(graph, engine=EngineOptions(executor="codegen"))
    vectorized = DecoMine(graph, engine=EngineOptions(executor="vectorized"))

    table = Table(
        "Vectorized executor ablation: batched kernels vs codegen "
        "(seconds, lower wins)",
        ["pattern", "tier", "codegen", "vectorized", "speedup",
         "codegen C target", "target"],
    )
    results: dict[str, dict] = {}
    speedups: dict[str, list[float]] = {"batched": [], "memo-bound": []}
    tiers = [("batched", BATCHED, rounds), ("memo-bound", MEMO_BOUND, 1)]
    for tier, workloads, tier_rounds in tiers:
        for name, factory in workloads:
            pattern = factory()
            with python_target():
                base_s, base_count, _ = best_seconds(codegen, pattern,
                                                     tier_rounds)
            vec_s, vec_count, _ = best_seconds(vectorized, pattern,
                                               tier_rounds)
            native_s, native_count, target = best_seconds(codegen, pattern,
                                                          tier_rounds)
            assert base_count == vec_count == native_count, (
                f"{name}: vectorized count {vec_count} / C-target count "
                f"{native_count} != {base_count}"
            )
            speedup = base_s / vec_s
            speedups[tier].append(speedup)
            results[name] = {
                "tier": tier,
                "count": base_count,
                "seconds_codegen": base_s,
                "seconds_vectorized": vec_s,
                "speedup": speedup,
                "seconds_codegen_native": native_s,
                "native_target": target,
            }
            table.add_row(name, tier, f"{base_s:.3f}", f"{vec_s:.3f}",
                          f"{speedup:.2f}x", f"{native_s:.3f}", target)

    gate = SMOKE_GATE if smoke else FULL_GATE
    batched_gain = geomean(speedups["batched"])
    memo_gain = geomean(speedups["memo-bound"])
    table.add_note(
        f"batched geomean speedup: {batched_gain:.2f}x "
        f"(acceptance gate: >= {gate:.1f}x)"
    )
    table.add_note(
        f"memo-bound geomean: {memo_gain:.2f}x (informational — scalar "
        "executors win these through SetOpCache reuse batching forfeits)"
    )
    table.add_note(
        "codegen runs on its Python target; the ungated 'codegen C "
        "target' column is the same session with the C target allowed "
        "(plans priced below NATIVE_MIN_COST stay on Python)"
    )
    table.add_note(
        f"graph: |V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"max degree {int(graph.degrees.max())}"
    )
    summary = {
        "batched_geomean_speedup": batched_gain,
        "memo_bound_geomean_speedup": memo_gain,
        "gate": gate,
        "case_floor": CASE_FLOOR,
        "cases": results,
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "max_degree": int(graph.degrees.max()),
        },
        "smoke": smoke,
    }
    return table, summary


def check_gates(summary) -> list[str]:
    """Every gate violation in ``summary``, as printable messages."""
    failures = []
    if summary["batched_geomean_speedup"] < summary["gate"]:
        failures.append(
            f"batched geomean {summary['batched_geomean_speedup']:.2f}x "
            f"below the {summary['gate']:.1f}x gate"
        )
    for name, case in summary["cases"].items():
        if case["tier"] == "batched" and case["speedup"] < CASE_FLOOR:
            failures.append(
                f"{name}: speedup {case['speedup']:.2f}x below the "
                f"{CASE_FLOOR:.1f}x per-case floor"
            )
    return failures


def test_bench_vectorized(report, run_once):
    table, summary = run_once(lambda: run_experiment(smoke=False))
    report(table)
    # The acceptance criterion for the vectorized executor: kernel-bound
    # workloads must beat codegen by >= 2x geomean on the skewed graph,
    # and no single workload may silently fall off the fast path.
    assert not check_gates(summary), check_gates(summary)


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
    failures = check_gates(summary)
    for failure in failures:
        print(f"GATE FAILURE: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
