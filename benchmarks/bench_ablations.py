"""Ablations of the design decisions DESIGN.md section 6 calls out.

Each test isolates one mechanism and measures its contribution:

* the O(1)-clear shrinkage hash table (paper section 5),
* innermost counting-loop elision (GraphPi's "(count)" optimization),
* the conventional passes LICM/CSE/DCE (paper section 7.1),
* generated-code execution vs AST interpretation (the backend choice),
* edge vs vertex sampling in the profiler (paper section 6.2).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Table, profile_for, time_call_preemptive
from repro.compiler import compile_spec, random_spec
from repro.compiler.build import build_ast
from repro.compiler.codegen import compile_root
from repro.compiler.passes import PassOptions, optimize
from repro.compiler.specs import DecompSpec
from repro.costmodel import estimate_cost, get_model, profile_graph
from repro.graph import datasets
from repro.patterns import catalog
from repro.patterns.decomposition import all_decompositions
from repro.patterns.matching_order import extension_orders
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, execute_plan

TIMEOUT = 120.0


def default_decomp_spec(pattern, prefer_large_vc=False, **kwargs):
    decos = all_decompositions(pattern)
    deco = max(decos, key=lambda d: len(d.cutting_set)) if prefer_large_vc \
        else decos[0]
    ext = tuple(
        extension_orders(pattern, deco.cutting_set, s.component)[0]
        for s in deco.subpatterns
    )
    return DecompSpec(deco, deco.cutting_set, ext, **kwargs)


def test_ablation_hashtable(report, run_once):
    """O(1)-clear stamps vs physical clearing.

    Two measurements: (a) an emit-mode plan (one clear per cutting-set
    match — the integration context), and (b) the regime the paper built
    the trick for: a table holding many entries cleared many times, where
    physical clearing pays O(entries) per clear and stamping pays O(1).
    """

    def run():
        from repro.runtime.hashtable import NaiveTable, ShrinkageTable

        graph = datasets.load("ee")
        spec = default_decomp_spec(catalog.house(), prefer_large_vc=True)
        plan = compile_spec(spec, mode="emit")
        table = Table(
            "Ablation: shrinkage-table clearing strategy",
            ["scenario", "stamped", "naive"],
        )
        plan_timings = {}
        for naive in (False, True):
            ctx = ExecutionContext(plan.root.num_tables,
                                   emit=lambda i, v, c: None)
            if naive:
                ctx.tables = [NaiveTable() for _ in ctx.tables]
            started = time.perf_counter()
            plan.function(graph, ctx)
            plan_timings[naive] = time.perf_counter() - started
        table.add_row("emit plan (small tables)",
                      f"{plan_timings[False]:.2f}s",
                      f"{plan_timings[True]:.2f}s")

        # The paper's claim is that stamped clearing is O(1) in table
        # size.  Measure per-clear time on a tiny and a huge resident
        # table; the ratio must stay near 1.
        def clear_time(entries: int) -> float:
            instance = ShrinkageTable()
            for i in range(entries):
                instance.add((i, i + 1))
            started = time.perf_counter()
            for _ in range(20_000):
                instance.clear()
            return time.perf_counter() - started

        tiny = clear_time(10)
        huge = clear_time(30_000)
        table.add_row("20K clears, 10-entry table",
                      f"{tiny * 1e3:.1f}ms", "-")
        table.add_row("20K clears, 30K-entry table",
                      f"{huge * 1e3:.1f}ms", "-")
        table.add_note(
            "stamped clears are size-independent (the paper's O(1) "
            "claim); note that in pure Python dict.clear is also cheap, "
            "so the end-to-end plan numbers above are close — the trick "
            "targets C++ tables whose clear is O(capacity)"
        )
        return table, (tiny, huge, plan_timings)

    table, (tiny, huge, _plan) = run_once(run)
    report(table)
    # O(1) claim: clearing a 3000x larger table costs about the same.
    assert huge < tiny * 3.0


def test_ablation_elide_and_passes(report, run_once):
    """Loop elision and the conventional passes, each toggled off."""

    def run():
        graph = datasets.load("ee")
        spec = default_decomp_spec(catalog.gem())
        table = Table(
            "Ablation: middle-end passes (gem counting on ee)",
            ["configuration", "runtime", "count"],
        )
        timings = {}
        configs = [
            ("all passes", PassOptions()),
            ("no elision", PassOptions(elide=False)),
            ("no licm/cse/dce", PassOptions(licm=False, cse=False, dce=False)),
            ("no passes", PassOptions.none()),
        ]
        for name, passes in configs:
            plan = compile_spec(spec, passes=passes)
            result = execute_plan(plan, graph)
            timings[name] = result.seconds
            table.add_row(name, f"{result.seconds:.2f}s",
                          result.embedding_count)
        return table, timings

    table, timings = run_once(run)
    report(table)
    assert timings["all passes"] <= timings["no elision"]
    assert timings["all passes"] <= timings["no passes"]


def test_ablation_executor(report, run_once):
    """Generated Python vs tree-walking interpretation."""

    def run():
        graph = datasets.load("ee")
        spec = default_decomp_spec(catalog.house())
        plan = compile_spec(spec)
        table = Table(
            "Ablation: execution backend (house counting on ee)",
            ["executor", "runtime"],
        )
        timings = {}
        for executor in ("codegen", "interpreter"):
            result = execute_plan(plan, graph,
                                  options=EngineOptions(executor=executor))
            timings[executor] = result.seconds
            table.add_row(executor, f"{result.seconds:.2f}s")
        return table, timings

    table, timings = run_once(run)
    report(table)
    assert timings["codegen"] < timings["interpreter"]


def test_ablation_sampling(report, run_once):
    """Edge vs vertex sampling for the profiler (paper section 6.2:
    edge sampling preserves hubs, improving count estimates)."""

    def run():
        from repro.baselines import reference
        from repro.patterns.generation import all_connected_patterns

        graph = datasets.load("wk")  # heavy-tailed: hubs matter
        table = Table(
            "Ablation: profiler sampling strategy (wk)",
            ["sampler", "median relative error (size-3/4 counts)"],
        )
        errors = {}
        exact = {
            pattern: max(
                reference.count_injective_homomorphisms(graph, pattern), 1
            )
            for size in (3, 4) for pattern in all_connected_patterns(size)
        }
        for sampler in ("edge", "vertex"):
            profile = profile_graph(
                graph, max_pattern_size=4, edge_budget=600, trials=250,
                seed=3, sampler=sampler,
            )
            rel = []
            for pattern, truth in exact.items():
                estimate = profile.lookup(pattern)
                rel.append(abs(np.log(max(estimate, 0.5) / truth)))
            errors[sampler] = float(np.median(rel))
            table.add_row(sampler, f"{errors[sampler]:.3f} (log-ratio)")
        table.add_note("lower is better; paper argues edge sampling keeps "
                       "hub structure that vertex sampling drops")
        return table, errors

    table, errors = run_once(run)
    report(table)
    assert errors["edge"] <= errors["vertex"] * 1.1


def test_ablation_guard_probability(report, run_once):
    """The guard-probability refinement of the cost walker: without it,
    decomposition plans on sparse graphs are grossly overpriced."""

    def run():
        graph = datasets.load("pt")
        profile = profile_for(graph)
        model = get_model("approx_mining")
        spec = default_decomp_spec(catalog.cycle(6))
        root, _ = build_ast(spec, "count")
        optimize(root)
        priced = estimate_cost(root, profile, model)
        # Re-price with gate metadata stripped (the naive walker).
        from repro.compiler.ast_nodes import IfPositive, walk

        for node in walk(root):
            if isinstance(node, IfPositive):
                node.gate_metas = None
        naive = estimate_cost(root, profile, model)
        table = Table(
            "Ablation: guard-probability pricing (6-cycle decomposition "
            "on patents)",
            ["walker", "predicted cost"],
        )
        table.add_row("guard-aware", f"{priced:.3g}")
        table.add_row("naive", f"{naive:.3g}")
        return table, (priced, naive)

    table, (priced, naive) = run_once(run)
    report(table)
    assert priced < naive
