"""Multi-query batch compiler: one DAG of shared plans per workload.

This module shares work *across* a workload of independent counting
queries — the GEO-style multi-query rewrite the roadmap calls for, and
the substrate the serve daemon's request coalescing batches into.

``compile_batch`` factors a workload into a :class:`BatchPlan`:

1. **Canonicalize + dedup.** Workload entries are grouped up to
   isomorphism (``patterns/isomorphism.canonical_code`` + the induced
   flag): isomorphic relabelings become one :class:`BatchQuery` whose
   count fans out to every submitting position.
2. **Expand into census terms.** Each query becomes a linear
   combination of *census problems* — edge-induced embedding counts of
   concrete patterns.  The terms come from the session's
   ``_count_terms``, the same expansion a sequential ``submit`` runs
   (cliques collapse to the edge-induced count, small dense patterns
   may convert through their edge-induced host closure, everything
   else plans a direct vertex-induced census).
3. **Factor shared subpatterns.** Every census problem becomes one DAG
   node keyed by canonical code.  A decomposition plan's globally
   counted shrinkage corrections (its ``aux_plans``) become *edges* to
   child nodes instead of private re-executions: the engine identity
   ``multiplier * aux_raw == automorphism_count(quotient) *
   embeddings(quotient)`` makes the child's embedding count — an
   isomorphism invariant — the only thing a parent needs, so a quotient
   pattern shared by five workload members is enumerated once.

Each remaining direct census runs as its own plan, the one a sequential
``submit`` runs, so a batch builds no C source a sequential run would
not.  The resulting :class:`BatchPlan` is the nodes in post-order —
children strictly before consumers — executed by
:func:`repro.runtime.batchrun.execute_batch`, plus a
:class:`SharingReport` quantifying how many plan executions factoring
eliminated versus running the workload sequentially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.compiler.pipeline import CompiledPlan
from repro.exceptions import ReproError
from repro.observe.ledger import note_phase
from repro.observe.trace import span
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern

__all__ = [
    "BatchNode",
    "BatchPlan",
    "BatchQuery",
    "SharingReport",
    "compile_batch",
]


@dataclass(frozen=True)
class BatchQuery:
    """One deduplicated workload entry and where its count fans out."""

    pattern: Pattern
    induced: bool
    #: Workload positions (submission order) this query answers.
    members: tuple[int, ...]
    #: Aggregation: count = sum(coefficient * node_value) over terms.
    terms: tuple[tuple[int, tuple], ...] = ()
    #: Persistent plan-cache key of the first term's plan ("" if none).
    plan_key: str = ""
    plan_cache_hit: bool = False


@dataclass
class BatchNode:
    """One DAG node: a census problem enumerated exactly once.

    ``kind``:

    * ``"plan"`` — one :class:`CompiledPlan`, stripped of its
      ``aux_plans`` (they became ``deps``).  The node's value is
      ``(raw - sum(weight * child_value)) // divisor``.
    * ``"trivial"`` — a single-vertex pattern; counted straight off the
      graph, no plan executes.
    """

    key: tuple
    pattern: Pattern
    kind: str
    plan: CompiledPlan | None = None
    divisor: int = 1
    #: ``(child_key, weight)`` pairs; weight is
    #: ``automorphism_count(child pattern)`` — the factor turning the
    #: child's embedding count back into the raw correction the engine
    #: would have subtracted via its private aux execution.
    deps: tuple[tuple[tuple, int], ...] = ()

    @property
    def label(self) -> str:
        return self.pattern.name or f"{self.pattern.n}v{self.pattern.num_edges}e"


@dataclass(frozen=True)
class SharingReport:
    """How much enumeration the batch factoring eliminated."""

    #: Workload size as submitted (duplicates included).
    workload: int
    #: Distinct queries after isomorphism dedup.
    unique_queries: int
    #: Plan executions a sequential run of the workload performs
    #: (main plans + recursive aux corrections + host conversions).
    plans_sequential: int
    #: Plan executions the DAG schedule performs.
    plans_batched: int

    @property
    def eliminated(self) -> int:
        return self.plans_sequential - self.plans_batched

    @property
    def eliminated_fraction(self) -> float:
        if not self.plans_sequential:
            return 0.0
        return self.eliminated / self.plans_sequential

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "unique_queries": self.unique_queries,
            "plans_sequential": self.plans_sequential,
            "plans_batched": self.plans_batched,
            "eliminated": self.eliminated,
            "eliminated_fraction": self.eliminated_fraction,
        }


@dataclass
class BatchPlan:
    """A compiled workload: queries, schedule, and the sharing report."""

    queries: tuple[BatchQuery, ...]
    #: Topological execution order: every node precedes its consumers.
    schedule: tuple[BatchNode, ...]
    sharing: SharingReport
    compile_seconds: float = 0.0

    @property
    def num_workload(self) -> int:
        return self.sharing.workload

    def describe(self) -> str:
        s = self.sharing
        return (
            f"batch of {s.workload} queries ({s.unique_queries} distinct): "
            f"{s.plans_batched} plan executions vs {s.plans_sequential} "
            f"sequential ({s.eliminated_fraction:.0%} eliminated)"
        )


def _census_key(pattern: Pattern, induced: bool) -> tuple:
    return (canonical_code(pattern), bool(induced))


def _plan_executions(plan: CompiledPlan) -> int:
    """Plan executions ``execute_plan`` performs for one plan tree."""
    return 1 + sum(
        _plan_executions(aux_plan) for aux_plan, _ in plan.aux_plans
    )


class _BatchBuilder:
    """Accumulates nodes/queries; ``compile_batch`` drives it."""

    def __init__(self, session, options) -> None:
        self.session = session
        self.options = options
        self.nodes: dict[tuple, BatchNode] = {}
        self.plans_sequential = 0

    # ------------------------------------------------------------------
    def ensure_node(self, pattern: Pattern, induced: bool,
                    plan: CompiledPlan) -> tuple:
        """Register the census node for ``pattern`` (post-order), reusing
        an existing node for any isomorphic earlier registration."""
        key = _census_key(pattern, induced)
        if key in self.nodes:
            return key
        deps = []
        for aux_plan, multiplier in plan.aux_plans:
            child_key = self.ensure_node(
                aux_plan.pattern, False, plan=aux_plan
            )
            # engine: acc -= multiplier * aux_raw, and
            # multiplier * aux_divisor == automorphism_count(quotient),
            # so weight * child_embeddings reproduces the correction.
            deps.append((child_key, multiplier * aux_plan.info.divisor))
        stripped = plan
        if plan.aux_plans:
            # One stripped copy per plan per session, so the C lowering
            # kept on its ``native`` serves every later batch.  The entry
            # holds the plan, so its id is not reused while it lives.
            kept = self.session._stripped_plans
            stripped = (kept.get(id(plan)) or kept.setdefault(
                id(plan), (plan, replace(plan, aux_plans=()))))[1]
        self.nodes[key] = BatchNode(
            key=key,
            pattern=pattern,
            kind="plan",
            plan=stripped,
            divisor=plan.info.divisor,
            deps=tuple(deps),
        )
        return key

    # ------------------------------------------------------------------
    def expand_query(self, pattern: Pattern, induced: bool,
                     members: tuple[int, ...]) -> BatchQuery:
        """Turn one deduped workload entry into aggregation terms.

        The session's ``_count_terms`` picks the terms, exactly as a
        sequential ``submit`` would; each term becomes one node.
        """
        events: list[tuple[str, bool]] = []
        terms, plan_key = self.session._count_terms(
            pattern, induced, self.options, events)
        keyed = []
        for coefficient, term_pattern, term_induced, plan in terms:
            if plan is None:
                key = _census_key(term_pattern, False)
                self.nodes.setdefault(key, BatchNode(
                    key=key, pattern=term_pattern, kind="trivial"))
            else:
                key = self.ensure_node(term_pattern, term_induced, plan)
                self.plans_sequential += len(members) * _plan_executions(
                    self._node_plan_for_accounting(key)
                )
            keyed.append((coefficient, key))
        return BatchQuery(
            pattern=pattern,
            induced=induced,
            members=members,
            terms=tuple(keyed),
            plan_key=plan_key,
            plan_cache_hit=bool(events) and all(hit for _, hit in events),
        )

    def _node_plan_for_accounting(self, key: tuple) -> CompiledPlan:
        """The *unstripped* execution count a sequential run would pay.

        The node's stored plan has its aux factored away; sequential
        accounting needs the original shape, which the deps reconstruct.
        """
        node = self.nodes[key]
        # 1 (the node) + the full subtree behind every dep edge.
        return _AccountingPlan(
            tuple(self._node_plan_for_accounting(child)
                  for child, _ in node.deps)
        )


class _AccountingPlan:
    """Minimal stand-in so ``_plan_executions`` can count dep subtrees."""

    def __init__(self, children) -> None:
        self.aux_plans = tuple((child, 1) for child in children)


def compile_batch(
    session,
    workload: Sequence[tuple[Pattern, bool]],
    options=None,
) -> BatchPlan:
    """Compile a workload of ``(pattern, induced)`` counting queries.

    ``session`` is the :class:`~repro.api.session.DecoMine` that owns
    the graph profile and plan caches — per-pattern plans come from the
    session's in-memory/persistent caches exactly as sequential requests
    would, so a warm cache benefits both paths equally.

    Raises :class:`~repro.exceptions.ReproError` on an empty workload
    and propagates the session's pattern validation per entry.
    """
    entries = list(workload)
    if not entries:
        raise ReproError(
            "cannot compile an empty batch: submit at least one pattern"
        )
    options = options if options is not None else session.engine_options
    started = time.perf_counter()
    with span("batch-compile", workload=len(entries)):
        grouped: dict[tuple, list[int]] = {}
        order: list[tuple] = []
        shapes: dict[tuple, tuple[Pattern, bool]] = {}
        for position, (pattern, induced) in enumerate(entries):
            if not isinstance(pattern, Pattern):
                raise ReproError(
                    f"batch entries must be Patterns, got "
                    f"{type(pattern).__name__}"
                )
            session._check(pattern)
            key = _census_key(pattern, induced)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
                shapes[key] = (pattern, bool(induced))
            grouped[key].append(position)

        builder = _BatchBuilder(session, options)
        queries = []
        for key in order:
            pattern, induced = shapes[key]
            queries.append(builder.expand_query(
                pattern, induced, tuple(grouped[key])
            ))
        schedule = tuple(builder.nodes.values())
        sharing = SharingReport(
            workload=len(entries),
            unique_queries=len(queries),
            plans_sequential=builder.plans_sequential,
            plans_batched=sum(1 for node in schedule if node.kind == "plan"),
        )
    elapsed = time.perf_counter() - started
    note_phase("batch-compile", elapsed)
    return BatchPlan(
        queries=tuple(queries),
        schedule=schedule,
        sharing=sharing,
        compile_seconds=elapsed,
    )
