"""Figure 18: compilation time vs execution time.

The paper's claim: compilation (algorithm search + codegen) is orders of
magnitude cheaper than execution, even for 6-motif's 112 patterns.  The
Python front-end here is slower than the paper's C++ compiler in absolute
terms, so the preserved shape is the *ratio*: compilation must stay well
below execution for every workload where execution is non-trivial.
"""

from __future__ import annotations

from repro.bench import Table, profile_for
from repro.compiler.pipeline import compile_pattern
from repro.graph import datasets
from repro.patterns.generation import all_connected_patterns
from repro.runtime.engine import execute_plan

PAPER = {
    (3, "wk"): "CT < 1ms, ET 7ms",
    (4, "wk"): "CT ~2ms, ET 60ms",
    (5, "wk"): "CT ~20ms, ET 8.1s",
    (6, "cs"): "CT < 300ms, ET 270ms (cs)",
}


def run_experiment():
    table = Table(
        "Figure 18: compilation vs execution time (k-MC)",
        ["app", "graph", "compile", "execute", "CT/ET", "paper"],
    )
    ratios = []
    cells = [(3, "wk"), (4, "wk"), (5, "wk"), (6, "cs")]
    for k, name in cells:
        graph = datasets.load(name)
        profile = profile_for(graph)
        compile_total = 0.0
        execute_total = 0.0
        for pattern in all_connected_patterns(k):
            plan = compile_pattern(pattern, profile)
            compile_total += plan.compile_seconds
            execute_total += execute_plan(plan, graph).seconds
        ratio = compile_total / max(execute_total, 1e-9)
        ratios.append(((k, name), ratio, execute_total))
        table.add_row(f"{k}-MC", name, f"{compile_total:.2f}s",
                      f"{execute_total:.2f}s", f"{ratio:.3f}",
                      PAPER.get((k, name), "-"))
    table.add_note(
        "plan caching means repeated workloads pay compilation once; "
        "isomorphic quotient sub-plans are compiled once per pattern"
    )
    return table, ratios


def test_fig18_compilation_cost(report, run_once):
    table, ratios = run_once(run_experiment)
    report(table)
    # Shape: compilation is a minority cost wherever execution is
    # non-trivial (>= 2s of mining).
    for (k, name), ratio, execute_total in ratios:
        if execute_total >= 2.0:
            assert ratio < 1.0, (k, name, ratio)
