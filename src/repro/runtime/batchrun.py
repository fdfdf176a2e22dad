"""DAG execution of a compiled batch: one ``execute_plan`` per node.

Executes a :class:`~repro.compiler.batch.BatchPlan` schedule in
dependency order, sharing the expensive per-run state across nodes:

* **one shared-memory graph segment** — when the batch runs parallel
  and the graph is not already shared (the serve daemon's long-lived
  segment), the graph is shared *once* here and every node's fork
  workers attach the same segment zero-copy, instead of each node
  paying its own copy;
* **one ``SetOpCache``** — a single memo cache threads through every
  node's execution context, so candidate sets computed by one census
  (``N(v) ∩ N(u)`` for the clique family, say) are cache hits for the
  next (identity-keyed: the CSR row views are identity-stable);
* **one deadline** — a ``RunPolicy`` deadline covers the whole batch;
  each node receives the remaining budget, exactly like the engine's
  own aux-plan recursion.

Node values are *embedding counts* keyed by canonical pattern code —
the isomorphism invariant that lets one enumeration serve every
consumer.  For a decomposition node the engine identity

    ``multiplier * aux_raw == automorphism_count(q) * embeddings(q)``

means subtracting ``weight * child_value`` along the DAG edges
reproduces, integer for integer, what ``execute_plan``'s private
aux-plan recursion would have computed — the differential suite locks
batched counts bit-identical to sequential ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.compiler.batch import BatchPlan, SharingReport
from repro.exceptions import ReproError
from repro.graph import shared as shared_mod
from repro.observe import metrics as om
from repro.observe.ledger import new_run_id, run_tags
from repro.observe.trace import span
from repro.runtime.engine import EngineOptions, execute_plan
from repro.runtime.setops import DEFAULT_CACHE_CAPACITY, SetOpCache
from repro.runtime.supervisor import RunPolicy

__all__ = ["BatchNodeResult", "BatchResult", "execute_batch",
           "trivial_count"]


@dataclass
class BatchNodeResult:
    """Outcome of one schedule node."""

    key: tuple
    label: str
    kind: str
    ok: bool
    seconds: float = 0.0
    raw_count: int = 0
    cancelled: str | None = None
    run_id: str = ""


@dataclass
class BatchResult:
    """Outcome of one batch execution.

    ``counts`` is indexed by workload position (submission order);
    entries are None when the run could not complete the nodes that
    query depends on.  ``values`` exposes the per-census embedding
    counts keyed by ``(canonical_code, induced)`` for introspection.
    """

    batch_id: str
    counts: tuple
    ok: bool
    seconds: float
    node_results: tuple
    sharing: SharingReport
    values: dict
    cancelled: str | None = None
    error: str | None = None
    #: The salvage summary of the node that stopped the batch.
    salvage: dict | None = None


def _shared_cache(options: EngineOptions):
    """One memo cache for the whole batch, honoring the cache policy."""
    cache = options.cache
    if isinstance(cache, SetOpCache):
        return cache
    if cache is True:
        return SetOpCache(DEFAULT_CACHE_CAPACITY)
    if isinstance(cache, int) and not isinstance(cache, bool) and cache > 0:
        return SetOpCache(cache)
    return None


def trivial_count(graph, pattern) -> int:
    """Embeddings of a single-vertex pattern: no plan runs."""
    if pattern.is_labeled:
        return int(graph.vertices_with_label(pattern.labels[0]).size)
    return int(graph.num_vertices)


def execute_batch(
    batch_plan: BatchPlan,
    graph,
    *,
    options: EngineOptions | None = None,
    policy: "RunPolicy | None" = None,
    batch_id: str | None = None,
) -> BatchResult:
    """Run a :class:`BatchPlan` schedule and aggregate per-query counts."""
    options = options if options is not None else EngineOptions()
    batch_id = batch_id or new_run_id()
    sharing = batch_plan.sharing

    deadline_at = None
    if policy is not None and policy.budget is not None \
            and policy.budget.deadline_s is not None:
        deadline_at = time.monotonic() + policy.budget.deadline_s

    handle = None
    exec_graph = graph
    if (options.workers > 1 and options.shared_graph
            and getattr(graph, "shared_descriptor", None) is None):
        # Share once: every node's fork workers attach this segment
        # instead of each execute_plan sharing its own copy.
        handle = shared_mod.share_graph(graph)
        exec_graph = handle.graph

    cache = _shared_cache(options)
    if cache is not None:
        options = replace(options, cache=cache)

    values: dict = {}
    node_results: list[BatchNodeResult] = []
    cancelled: str | None = None
    error: str | None = None
    salvage: dict | None = None
    started = time.perf_counter()
    try:
        with span("batch-execute", batch=batch_id,
                  nodes=len(batch_plan.schedule),
                  workload=sharing.workload), \
                run_tags(batch=batch_id):
            for node in batch_plan.schedule:
                if cancelled is not None or error is not None:
                    break
                if node.kind == "trivial":
                    values[node.key] = trivial_count(exec_graph,
                                                     node.pattern)
                    node_results.append(BatchNodeResult(
                        key=node.key, label=node.label, kind="trivial",
                        ok=True,
                    ))
                    continue
                node_options = options
                if (options.orientation != "none"
                        and node.plan.orientation == "none"):
                    # Same rule as the session: relabeling without
                    # oriented ops in the plan buys nothing.
                    node_options = replace(options, orientation="none")
                node_policy = policy
                if deadline_at is not None:
                    # Each node runs on what is left of the batch deadline.
                    node_policy = policy.with_deadline(
                        max(deadline_at - time.monotonic(), 0.001))
                with span("batch-node", pattern=node.label,
                          kind=node.kind):
                    result = execute_plan(
                        node.plan, exec_graph, options=node_options,
                        policy=node_policy,
                    )
                node_results.append(BatchNodeResult(
                    key=node.key, label=node.label, kind=node.kind,
                    ok=result.ok, seconds=result.seconds,
                    raw_count=result.raw_count,
                    cancelled=result.cancelled, run_id=result.run_id,
                ))
                om.counter("repro_batch_nodes_total",
                           "batch DAG nodes executed").inc()
                if result.cancelled is not None:
                    cancelled = result.cancelled
                if not result.ok:
                    salvage = result.salvage
                    error = (f"batch node {node.label!r} incomplete: "
                             f"{len(result.failures)} chunk(s) unrecovered")
                    continue
                raw = result.raw_count
                for child_key, weight in node.deps:
                    raw -= weight * values[child_key]
                if raw % node.divisor != 0:
                    raise ReproError(
                        f"batch node {node.label!r} raw {raw} not "
                        f"divisible by multiplicity {node.divisor}: "
                        f"symmetry accounting is broken"
                    )
                values[node.key] = raw // node.divisor
    finally:
        if handle is not None:
            handle.close()

    counts: list = [None] * sharing.workload
    for query in batch_plan.queries:
        if all(key in values for _, key in query.terms):
            total = sum(coefficient * values[key]
                        for coefficient, key in query.terms)
            for position in query.members:
                counts[position] = total
    ok = error is None and cancelled is None and all(
        count is not None for count in counts
    )
    seconds = time.perf_counter() - started

    om.counter("repro_batch_runs_total", "batch DAG executions").inc()
    om.counter("repro_batch_queries_total",
               "workload queries answered by batch runs").inc(
        sharing.workload)
    if sharing.eliminated > 0:
        om.counter(
            "repro_batch_plans_eliminated_total",
            "plan executions eliminated by batch factoring",
        ).inc(sharing.eliminated)

    return BatchResult(
        batch_id=batch_id,
        counts=tuple(counts),
        ok=ok,
        seconds=seconds,
        node_results=tuple(node_results),
        sharing=sharing,
        values=values,
        cancelled=cancelled,
        error=error,
        salvage=salvage,
    )
