"""Multi-query batch compiler: one DAG of shared plans per workload.

``compiler/multi.py`` shares work *within* one direct census;
this module shares work *across* a workload of independent counting
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
4. **Fuse direct censuses.** Direct (non-decomposed, dependency-free)
   nodes are merged through the ``multi.py`` prefix trie into one
   multi-accumulator plan per shared first loop level.  Grouping by the
   level-1 trie signature guarantees the merged tree keeps a *single*
   outer loop — the invariant the chunked executors' ``start``/``stop``
   slicing relies on (codegen slices only the first outer loop).  The
   session's :class:`FusedMemo` keeps each fused census, so a later
   batch with the same fusion group compiles nothing.

The resulting :class:`BatchPlan` is a topologically ordered schedule —
children strictly before consumers — executed by
:func:`repro.runtime.batchrun.execute_batch`, plus a
:class:`SharingReport` quantifying how many plan executions factoring
eliminated versus running the workload sequentially.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.compiler.codegen import compile_root
from repro.compiler.multi import build_merged_direct
from repro.compiler.pipeline import CompiledPlan
from repro.compiler.specs import DirectSpec
from repro.exceptions import ReproError
from repro.observe.ledger import note_phase
from repro.observe.trace import span
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern

__all__ = [
    "BatchNode",
    "BatchPlan",
    "BatchQuery",
    "FusedMemo",
    "MergedCensusSpec",
    "SharingReport",
    "compile_batch",
]


@dataclass(frozen=True)
class MergedCensusSpec:
    """Identity spec of a fused direct-census node.

    Stands in for a ``PlanSpec`` on the merged :class:`CompiledPlan` so
    checkpoint fingerprints and ledger rows identify the fused node
    distinctly from any of its members' standalone plans.
    """

    specs: tuple[DirectSpec, ...]

    @property
    def kind(self) -> str:
        return "direct"

    @property
    def pattern(self) -> Pattern:
        return self.specs[0].pattern

    def describe(self) -> str:
        names = ", ".join(
            s.pattern.name or f"{s.pattern.n}v" for s in self.specs
        )
        return f"merged census of {len(self.specs)} direct plans ({names})"


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
    * ``"merged"`` — a fused multi-accumulator direct census; each
      ``members`` entry maps one census key to its accumulator and
      divisor.
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
    #: Merged nodes: ``(census_key, accumulator, divisor)`` per member.
    members: tuple[tuple[tuple, str, int], ...] = ()

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
    #: Direct plans fused into merged census nodes.
    fused_members: int
    #: Merged census nodes created.
    merged_nodes: int
    #: Loop levels shared inside merged tries (from ``MergedPlan``).
    shared_loops: int
    total_loops: int

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
            "fused_members": self.fused_members,
            "merged_nodes": self.merged_nodes,
            "shared_loops": self.shared_loops,
            "total_loops": self.total_loops,
        }


@dataclass
class BatchPlan:
    """A compiled workload: queries, schedule, and the sharing report."""

    queries: tuple[BatchQuery, ...]
    #: Topological execution order: every node precedes its consumers.
    schedule: tuple[BatchNode, ...]
    sharing: SharingReport
    compile_seconds: float = 0.0
    #: Every query term's own plan, aux plans kept (fused or not).
    term_plans: tuple[CompiledPlan, ...] = ()

    @property
    def num_workload(self) -> int:
        return self.sharing.workload

    def describe(self) -> str:
        s = self.sharing
        return (
            f"batch of {s.workload} queries ({s.unique_queries} distinct): "
            f"{s.plans_batched} plan executions vs {s.plans_sequential} "
            f"sequential ({s.eliminated_fraction:.0%} eliminated), "
            f"{s.fused_members} direct plans fused into {s.merged_nodes} "
            f"merged node(s)"
        )


#: Fused censuses one session keeps.  A daemon serves few fusion groups,
#: but distinct subsets of its patterns could grow the memo without end.
FUSED_MEMO_SIZE = 32


class FusedMemo:
    """A session's fused direct censuses, least recently used evicted.

    Keyed by everything :meth:`_BatchBuilder.fuse_direct` reads to build
    one (the members' specs in group order, and the session facts beside
    them); the value is the ``(MergedPlan, CompiledPlan)`` pair it built.
    Reusing the plan object also reuses its ``native`` C target.  Safe
    to share between threads: two that miss on one key both build, and
    both go on with the entry stored first.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        """Store ``entry`` unless ``key`` has one; return the stored one."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > FUSED_MEMO_SIZE:
                self._entries.popitem(last=False)
            return entry


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
        self.term_plans: list[CompiledPlan] = []
        #: Fusion groups served from the session's :class:`FusedMemo`.
        self.fused_reused = 0

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
                self.term_plans.append(plan)
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

    # ------------------------------------------------------------------
    def fuse_direct(self) -> tuple[list[BatchNode], int, int, int, int]:
        """Merge dependency-free direct nodes through the prefix trie.

        Groups by the level-1 trie signature so each merged plan keeps a
        single outer loop (the chunking contract: codegen slices only
        the first outer loop under ``start``/``stop``).
        """
        from repro.compiler.multi import _level_signature

        candidates = [
            node for node in self.nodes.values()
            if node.kind == "plan"
            and not node.deps
            and isinstance(node.plan.spec, DirectSpec)
            and not node.plan.spec.constraints
        ]
        groups: dict[tuple, list[BatchNode]] = {}
        for node in candidates:
            spec = node.plan.spec
            signature = _level_signature(
                spec.pattern, spec.order, 0, spec.restrictions, spec.induced
            )
            groups.setdefault(signature, []).append(node)

        merged_nodes: list[BatchNode] = []
        fused_keys: set = set()
        fused_members = shared_loops = total_loops = 0
        passes = replace(self.session.options.passes, orient="none")
        profile = self.session.profile
        memo = self.session._fused_memo
        for group in groups.values():
            if len(group) < 2:
                continue
            first = group[0]
            key = (
                tuple((node.plan.spec, node.plan.cost) for node in group),
                first.pattern, first.plan.info, first.plan.model_name,
                passes, profile.num_vertices, profile.avg_degree,
            )
            entry = memo.get(key)
            if entry is None:
                entry = self._fuse_group(group, passes, profile)
                if entry is None:  # pragma: no cover - grouping guarantees 1
                    continue
                entry = memo.put(key, entry)
            else:
                self.fused_reused += 1
            merged, plan = entry
            members = tuple(
                (node.key, merged.accumulator_for(i), merged.divisors[i])
                for i, node in enumerate(group)
            )
            merged_nodes.append(BatchNode(
                key=("merged", len(merged_nodes)),
                pattern=plan.pattern,
                kind="merged",
                plan=plan,
                members=members,
            ))
            fused_keys.update(node.key for node in group)
            fused_members += len(group)
            shared_loops += merged.shared_loops
            total_loops += merged.total_loops
        # Merged nodes have no dependencies: schedule them first, then
        # the surviving nodes in their (post-order) insertion order.
        schedule = merged_nodes + [
            node for node in self.nodes.values()
            if node.key not in fused_keys
        ]
        return schedule, fused_members, len(merged_nodes), shared_loops, \
            total_loops

    @staticmethod
    def _fuse_group(group: list[BatchNode], passes, profile):
        """Build one fusion group's ``(MergedPlan, CompiledPlan)``, or
        None when the merged tree does not keep a single outer loop."""
        from repro.compiler.multi import choose_sharing_orders

        # GEO-style order selection: each member's standalone plan
        # picked its order for solo cost; re-choose orders (and
        # restriction sets) to deepen shared trie prefixes, judged
        # by marginal cost so sharing is never bought with a
        # degenerate tail.
        specs = choose_sharing_orders(
            [node.plan.spec for node in group],
            num_vertices=profile.num_vertices,
            avg_degree=profile.avg_degree,
        )
        merged = build_merged_direct(specs, passes=passes)
        top_loops = sum(1 for n in merged.root.body if _is_loop(n))
        if top_loops != 1:
            return None
        function, source = compile_root(merged.root)
        spec = MergedCensusSpec(merged.specs)
        first = group[0]
        merged_pattern = Pattern(
            first.pattern.n,
            sorted(first.pattern.edge_set),
            labels=(list(first.pattern.labels)
                    if first.pattern.labels is not None else None),
            name=f"merged-census-{len(group)}",
        )
        plan = CompiledPlan(
            pattern=merged_pattern,
            spec=spec,
            mode="count",
            root=merged.root,
            info=replace(first.plan.info, spec=spec, divisor=1),
            source=source,
            function=function,
            cost=sum(node.plan.cost for node in group),
            compile_seconds=0.0,
            model_name=first.plan.model_name,
            aux_plans=(),
            orientation="none",
        )
        return merged, plan


class _AccountingPlan:
    """Minimal stand-in so ``_plan_executions`` can count dep subtrees."""

    def __init__(self, children) -> None:
        self.aux_plans = tuple((child, 1) for child in children)


def _is_loop(node) -> bool:
    from repro.compiler.ast_nodes import Loop

    return isinstance(node, Loop)


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
    with span("batch-compile", workload=len(entries)) as traced:
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
        schedule, fused_members, merged_count, shared_loops, total_loops = \
            builder.fuse_direct()
        traced.set(fused_reused=builder.fused_reused)
        plans_batched = sum(
            1 for node in schedule if node.kind in ("plan", "merged")
        )
        sharing = SharingReport(
            workload=len(entries),
            unique_queries=len(queries),
            plans_sequential=builder.plans_sequential,
            plans_batched=plans_batched,
            fused_members=fused_members,
            merged_nodes=merged_count,
            shared_loops=shared_loops,
            total_loops=total_loops,
        )
    elapsed = time.perf_counter() - started
    note_phase("batch-compile", elapsed)
    return BatchPlan(
        queries=tuple(queries),
        schedule=tuple(schedule),
        sharing=sharing,
        compile_seconds=elapsed,
        term_plans=tuple(builder.term_plans),
    )
