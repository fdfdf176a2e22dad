#!/usr/bin/env python3
"""Resource-governance smoke run: budgets, cancellation, bisection, resume.

Exercises the resource governor end-to-end across an 18-pattern catalog
on a small deterministic graph:

* **governed exactness** — every pattern runs on a 2-worker pool under a
  tight vectorized-style frontier budget *and* a seeded oom fault
  schedule; each run must reproduce the ungoverned reference count
  exactly (memory casualties recover via chunk bisection, never retry
  loops).
* **mid-run cancel + resume** — a checkpointed run is cancelled by a
  hard deadline while chunks are wedged on injected delays; rerunning
  without the deadline must adopt the checkpoint (including bisected
  child chunk ids) and land on the exact count.
* **leak audit** — after everything, no cancel-token shared-memory
  segments and no shared-graph segments may remain registered.

Designed as a CI gate::

    PYTHONPATH=src python scripts/resource_smoke.py --json resource_smoke.json

Exits nonzero on any count mismatch, a governed run that needed a pool
restart for a memory casualty, a resume that re-executed everything, or
a leaked segment.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph import shared
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.runtime import resources as resources_mod
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, execute_plan
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.resources import FRONTIER_ROW_BYTES, ResourceBudget
from repro.runtime.supervisor import RunBudget, RunPolicy

PATTERNS = {
    "triangle": catalog.triangle,
    "diamond": catalog.diamond,
    "house": catalog.house,
    "gem": catalog.gem,
    "bowtie": catalog.bowtie,
    "net": catalog.net,
    "tailed-triangle": catalog.tailed_triangle,
    "chain3": lambda: catalog.chain(3),
    "chain4": lambda: catalog.chain(4),
    "chain5": lambda: catalog.chain(5),
    "cycle4": lambda: catalog.cycle(4),
    "cycle5": lambda: catalog.cycle(5),
    "cycle6": lambda: catalog.cycle(6),
    "clique4": lambda: catalog.clique(4),
    "clique5": lambda: catalog.clique(5),
    "star3": lambda: catalog.star(3),
    "star4": lambda: catalog.star(4),
    "star5": lambda: catalog.star(5),
}

WORKERS = 2
CHUNKS_PER_WORKER = 4
OPTIONS = EngineOptions(workers=WORKERS, chunks_per_worker=CHUNKS_PER_WORKER)

#: Tight-but-survivable envelope: the frontier cap stays well under the
#: vectorized default and the bisection floor is one vertex.
BUDGET = ResourceBudget(max_frontier_bytes=256 * FRONTIER_ROW_BYTES)


def governed_policy(checkpoint=None, **budget_kwargs) -> RunPolicy:
    return RunPolicy(
        budget=RunBudget(backoff_s=0.001, **budget_kwargs),
        checkpoint=checkpoint,
        resources=BUDGET,
    )


def run_smoke(seed: int) -> dict:
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    num_chunks = WORKERS * CHUNKS_PER_WORKER
    report: dict = {"seed": seed, "patterns": {}, "ok": True}

    total_bisections = 0
    for index, (name, build) in enumerate(sorted(PATTERNS.items())):
        pattern = build()
        plan = compile_pattern(pattern, profile)
        expected = reference.count_embeddings(graph, pattern)
        faults = FaultPlan.seeded(
            seed + index, num_chunks, oom_rate=0.35, delay_rate=0.1,
            delay_s=0.01,
        )
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx, options=OPTIONS,
                              policy=governed_policy())
        entry = {
            "expected": expected,
            "count": result.embedding_count if result.ok else None,
            "injected_faults": len(faults.faults),
            "bisections": result.metrics.bisections,
            "retries": result.metrics.retries,
            "pool_restarts": result.metrics.pool_restarts,
            "failures": [f.describe() for f in result.failures],
            "ok": (result.ok and result.embedding_count == expected
                   and result.metrics.pool_restarts == 0),
        }
        total_bisections += entry["bisections"]
        report["patterns"][name] = entry
        report["ok"] = report["ok"] and entry["ok"]
    report["total_bisections"] = total_bisections
    # The seeded schedules must actually exercise the bisection ladder.
    if total_bisections == 0:
        report["ok"] = False

    # Mid-run cancellation + resume: chunk 0 booms (bisects), wedged
    # delays run the rest into a hard deadline; the resumed run adopts
    # the checkpoint — bisected children included — and is exact.
    pattern = catalog.house()
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "smoke.jsonl")
        wedged = ExecutionContext(
            plan.root.num_tables,
            faults=FaultPlan(
                (Fault("oom", 0, attempts=None),)
                + tuple(Fault("delay", chunk, attempts=None, delay_s=0.2)
                        for chunk in range(2, num_chunks))
            ),
        )
        first = execute_plan(
            plan, graph, ctx=wedged, options=OPTIONS,
            policy=governed_policy(deadline_s=0.4, checkpoint=path),
        )
        second = execute_plan(
            plan, graph, options=OPTIONS,
            policy=governed_policy(checkpoint=path),
        )
    cancel_resume_ok = (
        not first.ok
        and first.cancelled == "deadline"
        and first.metrics.pool_restarts == 0
        and first.salvage is not None
        and second.ok
        and second.embedding_count == expected
        and second.metrics.resumed_chunks > 0
    )
    report["cancel_resume"] = {
        "first_cancelled": first.cancelled,
        "first_bisections": first.metrics.bisections,
        "first_pool_restarts": first.metrics.pool_restarts,
        "salvage": first.salvage,
        "resumed_chunks": second.metrics.resumed_chunks,
        "count": second.embedding_count if second.ok else None,
        "expected": expected,
        "ok": cancel_resume_ok,
    }
    report["ok"] = report["ok"] and cancel_resume_ok

    # Leak audit: every governed run must have unlinked its cancel token
    # and no shared-graph segment may survive its execution either.
    leaked_tokens = resources_mod.active_tokens()
    leaked_segments = shared.active_segments()
    report["leaked_tokens"] = leaked_tokens
    report["leaked_segments"] = leaked_segments
    report["ok"] = report["ok"] and not leaked_tokens and not leaked_segments
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026,
                        help="base seed for the fault schedules")
    parser.add_argument("--json", metavar="FILE",
                        help="write the counter report as JSON")
    args = parser.parse_args(argv)

    report = run_smoke(args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)
    if not report["ok"]:
        print("resource smoke FAILED: counts diverged, recovery failed, "
              "or a shared segment leaked", file=sys.stderr)
        return 1
    print(
        f"resource smoke OK: {len(report['patterns'])} patterns exact "
        f"under memory faults ({report['total_bisections']} bisections, "
        f"0 pool restarts), deadline cancel salvaged "
        f"{report['cancel_resume']['salvage']['fraction']:.0%} then "
        f"resumed {report['cancel_resume']['resumed_chunks']} chunks to "
        f"the exact count, no leaked segments",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
