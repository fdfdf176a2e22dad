"""The DecoMine session: the paper's user-facing API (Figure 8a).

Three calls make up the public surface:

* ``get_pattern_count(pattern)`` — embedding count, edge- or
  vertex-induced.
* ``mine(pattern, process_partial_embedding)`` — stream partial
  embeddings (with their whole-embedding counts) to a UDF, guaranteeing
  the **completeness** and **coverage** properties of section 4.2.
* ``materialize(pe, num)`` — expand a partial embedding into up to
  ``num`` whole embeddings.

plus label constraints (section 7.5) via ``count_with_constraints``.

The session owns the graph profile, the cost model, and a plan cache; all
algorithm selection (cutting sets, matching orders, PLR, decomposition
versus direct fallback) is the compiler's responsibility — users never see
it, which is the paper's central usability claim.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Sequence

from repro.api.messages import MiningRequest, MiningResponse
from repro.compiler import cgen
from repro.compiler.batch import compile_batch
from repro.compiler.pipeline import CompiledPlan, compile_pattern
from repro.compiler.plancache import PlanCache, plan_key
from repro.compiler.search import SearchOptions
from repro.compiler.specs import Constraint, DecompSpec, DirectSpec
from repro.costmodel import CostModel, CostProfile, get_model, profile_graph
from repro.exceptions import ExecutionError, PatternError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.transform import orient
from repro.observe.calibration import calibrating, record_plan_execution
from repro.observe.ledger import graph_fingerprint, new_run_id, note_phase
from repro.observe.trace import span
from repro.patterns.conversion import edge_induced_requirements
from repro.patterns.isomorphism import automorphisms
from repro.patterns.pattern import Pattern
from repro.runtime.batchrun import execute_batch, trivial_count
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, ExecutionResult, execute_plan
from repro.runtime.partial_embedding import PartialEmbedding, materialize
from repro.runtime.supervisor import RunBudget, RunPolicy

__all__ = ["DecoMine"]

ProcessPartialEmbedding = Callable[[PartialEmbedding], None]


class DecoMine:
    """A mining session bound to one input graph.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.csr.CSRGraph`.
    cost_model:
        ``"approx_mining"`` (default), ``"locality"``, ``"automine"``, or
        a :class:`~repro.costmodel.CostModel` instance.
    engine:
        An :class:`~repro.runtime.engine.EngineOptions` bundle applied
        to every counting execution: worker count, chunking, executor
        choice, set-op cache policy, fault plan.
    plan_cache:
        Optional persistent :class:`~repro.compiler.plancache.PlanCache`
        (or a directory path) shared with other sessions and the
        ``repro serve`` daemon: compiled plans are looked up by content
        key before any profiling happens, so a warm pattern skips
        profile+compile+search entirely.  None (the default) keeps the
        session's in-memory cache only.
    search_options:
        Caps/toggles for the compiler's algorithm search.
    profile:
        Pre-computed :class:`~repro.costmodel.CostProfile`; profiled on
        first use otherwise ("amortized with multiple applications", §8.2).
    run_policy:
        A :class:`~repro.runtime.supervisor.RunPolicy` (or bare
        :class:`~repro.runtime.supervisor.RunBudget`) applied to every
        counting execution: retry/backoff caps, deadlines, and an
        optional checkpoint for killed-run resume.  Each
        :class:`MiningResponse` carries what the supervisor had to do
        (``metrics``, ``cancelled``, ``salvage``, ``error``).

    When a calibration recorder is active (``observe.calibrate()``),
    every counting execution logs its per-model cost estimate against
    measured seconds for the prediction-quality report.
    """

    def __init__(
        self,
        graph: CSRGraph,
        cost_model: CostModel | str = "approx_mining",
        search_options: SearchOptions | None = None,
        profile: CostProfile | None = None,
        profile_seed: int = 0,
        run_policy: RunPolicy | RunBudget | None = None,
        *,
        engine: EngineOptions | None = None,
        plan_cache: "PlanCache | str | None" = None,
    ) -> None:
        self.graph = graph
        self.model = (
            get_model(cost_model) if isinstance(cost_model, str) else cost_model
        )
        self.engine_options = engine if engine is not None else EngineOptions()
        self.options = search_options or SearchOptions()
        if isinstance(run_policy, RunBudget):
            run_policy = RunPolicy(budget=run_policy)
        self.run_policy = run_policy
        if plan_cache is None or isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        else:
            self.plan_cache = PlanCache(plan_cache)
        self._profile = profile
        self._profile_seed = profile_seed
        self._plan_cache: dict = {}
        #: Plan keys by request, ``(pattern, name, mode, induced,
        #: constraints, orientation) -> key``: the graph, the model and
        #: the search options are fixed for the session's lifetime.
        self._plan_keys: dict[tuple, str] = {}
        #: Batch nodes' aux-stripped plan copies: id(plan) -> (plan, copy).
        self._stripped_plans: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profile(self) -> CostProfile:
        """The graph profile, computed lazily on first use."""
        if self._profile is None:
            started = time.perf_counter()
            with span("profile", vertices=self.graph.num_vertices):
                self._profile = profile_graph(
                    self.graph, seed=self._profile_seed
                )
            note_phase("profile", time.perf_counter() - started)
        return self._profile

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def plan_for(
        self,
        pattern: Pattern,
        mode: str = "count",
        induced: bool = False,
        constraints: tuple[Constraint, ...] = (),
        options: EngineOptions | None = None,
    ) -> CompiledPlan:
        """Compile (or fetch from cache) the best plan for a pattern.

        Consults the in-memory cache first, then the persistent
        :attr:`plan_cache` when one is attached (storing cold compiles
        back into it).  Under the ``codegen`` executor, the plan's C
        build starts here, on a builder thread.
        """
        options = options if options is not None else self.engine_options
        plan = self._plan_with_provenance(
            pattern, mode, induced, tuple(constraints), options)[0]
        # Here, not in _plan_with_provenance: the batch compiler also
        # consults plans it never runs.
        if options.executor == "codegen":
            cgen.prefetch(plan)
        return plan

    def _plan_with_provenance(
        self,
        pattern: Pattern,
        mode: str,
        induced: bool,
        constraints: tuple[Constraint, ...],
        options: EngineOptions,
        events: list | None = None,
    ) -> tuple[CompiledPlan, str, bool]:
        orientation = "none"
        if mode == "count" and not constraints:
            # Orientation applies to counting plans only — relabeled ids
            # would leak into emit UDFs and constraint predicates — so
            # emit/constrained plans compile unoriented and the engine
            # strips the option at execution time (see _execute).
            orientation = options.orientation
        request = (pattern, pattern.name, mode, induced, constraints,
                   orientation)
        key = self._plan_keys.get(request)
        if key is None:
            key = self._plan_keys[request] = plan_key(
                pattern,
                graph_fingerprint=graph_fingerprint(self.graph),
                model_name=getattr(self.model, "name", str(self.model)),
                mode=mode,
                induced=induced,
                constraints=constraints,
                options=self.options,
                orientation=orientation,
            )
        plan = self._plan_cache.get(key)
        hit = plan is not None
        if plan is None:
            if self.plan_cache is not None:
                plan, hit = self.plan_cache.compile_cached(
                    pattern,
                    lambda: self._profile_for(orientation),
                    self.model,
                    graph_fingerprint=graph_fingerprint(self.graph),
                    mode=mode,
                    induced=induced,
                    constraints=constraints,
                    options=self.options,
                    orientation=orientation,
                )
            else:
                plan = compile_pattern(
                    pattern,
                    self._profile_for(orientation),
                    self.model,
                    mode=mode,
                    induced=induced,
                    constraints=constraints,
                    options=self.options,
                    orientation=orientation,
                )
            self._plan_cache[key] = plan
        if events is not None:
            events.append((key, hit))
        return plan, key, hit

    def _profile_for(self, orientation: str) -> CostProfile:
        """The graph profile, with orientation stats attached on demand.

        Passed to the persistent cache as the *profile factory*: only
        invoked on a cache miss, which is what lets a warm request skip
        graph profiling entirely.
        """
        if orientation != "none":
            self._attach_orientation_stats(orientation)
        return self.profile

    def _attach_orientation_stats(self, orientation: str) -> None:
        """Feed measured out-degree statistics to the cost models.

        ``orient`` memoizes per (graph, mode), so this shares the
        relabeled copy the engine will execute on; the profile fields
        let the models price oriented candidate sets by out-degree
        instead of the ``avg_degree / 2`` fallback.
        """
        profile = self.profile
        if profile.orientation == orientation:
            return
        oriented = orient(self.graph, orientation)
        profile.orientation = orientation
        profile.avg_out_degree = float(oriented.avg_out_degree)
        profile.max_out_degree = float(oriented.max_out_degree)

    def explain(self, pattern: Pattern, induced: bool = False) -> str:
        """Human-readable description of the plan the compiler selected,
        with the target each of its plans runs on."""
        plan = self.plan_for(pattern, induced=induced)
        lines = [plan.describe()]
        for label, target in self._targets(plan):
            reason = f" ({target.reason})" if target.reason else ""
            lines.append(f"{label}target: {target.target}{reason}")
        return "\n".join(lines)

    def _targets(self, plan: CompiledPlan) -> list[tuple[str, "cgen.Target"]]:
        """``(label, target)`` for the plan and each of its aux plans, as
        this session's executor would run them (C entry points are built
        here when they are due)."""
        executor = self.engine_options.executor
        return [("", cgen.target_for(plan, executor))] + [
            (f"aux plan {k} ", cgen.target_for(aux, executor))
            for k, (aux, _) in enumerate(plan.aux_plans, start=1)
        ]

    def explain_json(self, pattern: Pattern, induced: bool = False) -> dict:
        """Machine-readable plan summary (``repro explain --format json``).

        Includes the persistent plan-cache key for this request, whether
        this session got the plan from a cache, and whether a persistent
        entry is currently published under that key.
        """
        plan, key, hit = self._plan_with_provenance(
            pattern, "count", induced, (), self.engine_options,
        )
        (_, target), *aux_targets = self._targets(plan)
        return {
            "pattern": pattern.name or repr(pattern),
            "mode": plan.mode,
            "model": plan.model_name,
            "cost": float(plan.cost),
            "orientation": plan.orientation,
            "aux_plans": len(plan.aux_plans),
            "target": target.target,
            "fallback": target.reason,
            "aux_targets": [
                {"target": aux.target, "fallback": aux.reason}
                for _, aux in aux_targets
            ],
            "compile_seconds": float(plan.compile_seconds),
            "plan": plan.describe(),
            "plan_cache": {
                "key": key,
                "hit": hit,
                "persistent": (
                    self.plan_cache.contains(key)
                    if self.plan_cache is not None else False
                ),
                "path": (str(self.plan_cache.path)
                         if self.plan_cache is not None else None),
            },
        }

    # ------------------------------------------------------------------
    # get_pattern_count
    # ------------------------------------------------------------------
    def get_pattern_count(self, pattern: Pattern, induced: bool = False) -> int:
        """Number of embeddings of ``pattern`` in the graph.

        ``induced=False`` counts edge-induced embeddings (the GPM default
        and the semantics pattern decomposition assumes); ``induced=True``
        counts vertex-induced embeddings, computed either directly or by
        converting edge-induced counts of denser patterns — whichever the
        cost model predicts is cheaper (paper section 2.2).
        """
        response = self.submit(
            MiningRequest(pattern=pattern, induced=induced)
        )
        return self._unwrap_count(response)

    # ------------------------------------------------------------------
    # submit: the one entry point every public call routes through
    # ------------------------------------------------------------------
    def submit(
        self,
        request: MiningRequest,
        *,
        process_partial_embedding: "ProcessPartialEmbedding | None" = None,
        predicates: "Sequence[Callable] | None" = None,
    ) -> MiningResponse:
        """Run one :class:`MiningRequest`, returning a :class:`MiningResponse`.

        The same internals serve the library calls
        (``get_pattern_count``/``mine``/``count_with_constraints`` each
        build a request and call this) and the ``repro serve`` daemon.
        Callables cannot live on the frozen request, so the emit UDF
        (``mode="mine"``) and the constraint predicates
        (``mode="constrained"``, one per ``request.constraints`` entry)
        arrive as keyword arguments.

        Invalid requests and failed compilations raise; *incomplete
        executions* (cancelled, unrecovered chunks) return a response
        with ``ok=False``, ``count=None``, the salvage view and an
        ``error`` saying why.
        """
        if not isinstance(request, MiningRequest):
            raise ReproError("submit() takes a MiningRequest")
        if request.mode == "mine" and process_partial_embedding is None:
            raise ReproError("mode='mine' requires process_partial_embedding")
        if request.mode == "constrained":
            if predicates is None or len(predicates) != len(request.constraints):
                raise ReproError(
                    "mode='constrained' requires one predicate per "
                    "constraints entry"
                )
        self._check(request.pattern)
        options = (request.engine if request.engine is not None
                   else self.engine_options)
        # Constrained runs get their own deadline but not the session
        # policy; mine runs are never supervised (see _execute).
        policy = self.run_policy if request.mode == "count" else None
        if request.deadline_s is not None:
            policy = (policy or RunPolicy()).with_deadline(request.deadline_s)
        events: list[tuple[str, bool]] = []
        started = time.perf_counter()
        result: ExecutionResult | None = None
        if request.mode == "count":
            count, result, key = self._count_request(
                request, options, policy, events)
        elif request.mode == "mine":
            plan, key, _ = self._plan_with_provenance(
                request.pattern, "emit", False, (), options, events)
            emitter = self._make_emitter(plan, process_partial_embedding)
            ctx = ExecutionContext(plan.root.num_tables, emit=emitter)
            result = self._execute(plan, ctx, options=options)
            count = result.embedding_count if result.ok else None
        else:
            specs = tuple(
                Constraint(pred=index, vertices=tuple(vertices))
                for index, vertices in enumerate(request.constraints)
            )
            plan, key, _ = self._plan_with_provenance(
                request.pattern, "count", False, specs, options, events)
            ctx = ExecutionContext(
                plan.root.num_tables, predicates=list(predicates)
            )
            # Constrained plans run serial and unoriented: predicates
            # observe original vertex ids and close over local state.
            constrained = replace(options, workers=1, orientation="none")
            result = self._execute(plan, ctx, options=constrained,
                                   policy=policy)
            count = result.raw_count if result.ok else None
        return MiningResponse(
            request_id=request.request_id or new_run_id(),
            client_id=request.client_id,
            ok=result.ok if result is not None else True,
            count=count,
            raw_count=(result.raw_count if result is not None
                       else int(count or 0)),
            mode=request.mode,
            run_id=result.run_id if result is not None else "",
            plan_key=key,
            plan_cache_hit=bool(events) and all(hit for _, hit in events),
            seconds=time.perf_counter() - started,
            cancelled=result.cancelled if result is not None else None,
            salvage=result.salvage if result is not None else None,
            metrics=(result.metrics.as_dict() if result is not None else {}),
            error=result.error if result is not None else None,
        )

    # ------------------------------------------------------------------
    # submit_batch: multi-query DAG execution
    # ------------------------------------------------------------------
    def submit_batch(
        self, requests: Sequence[MiningRequest]
    ) -> list[MiningResponse]:
        """Run a workload of counting requests as one shared-plan DAG.

        The batch compiler (:mod:`repro.compiler.batch`) canonicalizes
        the workload (isomorphic duplicates collapse to one query),
        factors shared subpatterns — shrinkage quotients, vertex-induced
        host conversions — into a DAG enumerated once per distinct
        census, and runs every other census as its own plan;
        :func:`repro.runtime.batchrun.execute_batch` then runs the
        schedule over one shared graph segment and set-op cache.

        All requests must be ``mode="count"`` and share at most one
        engine override; the tightest per-request deadline governs the
        whole batch.  Returns one :class:`MiningResponse` per request,
        in submission order, all stamped with the same ``batch_id``;
        each carries the batch's sharing report under
        ``metrics["sharing"]``.
        """
        requests = list(requests)
        if not requests:
            raise ReproError(
                "submit_batch() needs at least one MiningRequest"
            )
        for request in requests:
            if not isinstance(request, MiningRequest):
                raise ReproError("submit_batch() takes MiningRequests")
            if request.mode != "count":
                raise ReproError(
                    f"batch requests must be mode='count', got "
                    f"{request.mode!r}"
                )
        overrides = {request.engine for request in requests
                     if request.engine is not None}
        if len(overrides) > 1:
            raise ReproError(
                "batch requests must share one engine override (or none)"
            )
        options = overrides.pop() if overrides else self.engine_options
        policy = self.run_policy
        deadlines = [request.deadline_s for request in requests
                     if request.deadline_s is not None]
        if deadlines:
            policy = (policy or RunPolicy()).with_deadline(min(deadlines))
        started = time.perf_counter()
        batch_plan = compile_batch(
            self, [(request.pattern, request.induced)
                   for request in requests],
            options,
        )
        result = execute_batch(
            batch_plan, self.graph, options=options, policy=policy,
        )
        seconds = time.perf_counter() - started
        sharing = result.sharing.as_dict()
        query_of: dict[int, object] = {}
        for query in batch_plan.queries:
            for position in query.members:
                query_of[position] = query
        responses = []
        for position, request in enumerate(requests):
            count = result.counts[position]
            query = query_of[position]
            responses.append(MiningResponse(
                request_id=request.request_id or new_run_id(),
                client_id=request.client_id,
                ok=count is not None,
                count=count,
                raw_count=int(count) if count is not None else 0,
                mode="count",
                run_id=result.batch_id,
                plan_key=query.plan_key,
                plan_cache_hit=query.plan_cache_hit,
                seconds=seconds,
                cancelled=result.cancelled,
                salvage=result.salvage if count is None else None,
                error=result.error if count is None else None,
                batch_id=result.batch_id,
                metrics={"sharing": dict(sharing)},
            ))
        return responses

    def get_pattern_counts(
        self, patterns: Sequence[Pattern], induced: bool = False
    ) -> list[int]:
        """Batched :meth:`get_pattern_count` over a pattern workload.

        One shared-plan DAG run instead of ``len(patterns)`` sequential
        executions; counts come back in submission order.
        """
        responses = self.submit_batch([
            MiningRequest(pattern=pattern, induced=induced)
            for pattern in patterns
        ])
        counts = []
        for response in responses:
            if response.count is None:
                raise ReproError(
                    f"batch execution incomplete: "
                    f"{response.error or response.cancelled or 'unknown'}"
                )
            counts.append(response.count)
        return counts

    @staticmethod
    def _unwrap_count(response: MiningResponse) -> int:
        """The response's count; an incomplete run raises its error."""
        if response.count is None:
            raise ExecutionError(response.error)
        return response.count

    def _count_request(self, request, options, policy, events):
        """Run a count request's terms and sum them.

        Returns ``(count, result, plan_key)``.  ``count`` is None when a
        run did not complete; ``result`` is the last run's (None when no
        plan ran).
        """
        terms, key = self._count_terms(
            request.pattern, request.induced, options, events)
        total, result = 0, None
        for coefficient, pattern, _, plan in terms:
            if plan is None:
                count = trivial_count(self.graph, pattern)
            else:
                count, result = self._run_count(plan, options, policy)
                if count is None:
                    return None, result, key
            total += coefficient * count
        return total, result, key

    def _count_terms(self, pattern, induced, options, events):
        """Plan a count as ``(coefficient, pattern, induced, plan)`` terms.

        The count is ``sum(coefficient * embeddings(pattern, induced))``
        over the terms; ``plan`` is None for a single-vertex pattern,
        whose count is read off the graph.  Vertex-induced counts run
        directly or convert from edge-induced host counts, whichever
        the cost model prices lower (paper section 2.2).  Both
        :meth:`submit` and the batch compiler plan through here.

        Returns ``(terms, plan_key)``, where ``plan_key`` is the
        persistent cache key of the first term's plan ("" if none).
        """
        def consult(pattern, induced):
            plan, key, _ = self._plan_with_provenance(
                pattern, "count", induced, (), options, events)
            return plan, key

        if pattern.n == 1:
            return [(1, pattern, False, None)], ""
        if not induced or (pattern.is_clique and not pattern.is_labeled):
            # A clique's vertex- and edge-induced counts coincide.
            plan, key = consult(pattern, False)
            return [(1, pattern, False, plan)], key
        direct, direct_key = consult(pattern, True)
        missing_edges = pattern.n * (pattern.n - 1) // 2 - pattern.num_edges
        if pattern.is_labeled or not (pattern.n <= 5 or missing_edges <= 3):
            # Conversion operates on unlabeled patterns, and its host
            # closure (all same-vertex supergraphs) explodes for large
            # sparse patterns — 2^missing_edges in the worst case.  The
            # direct vertex-induced plan is the paper's option (1).
            return [(1, pattern, True, direct)], direct_key
        requirements = edge_induced_requirements(pattern)
        hosts = [consult(host, False) for host, _ in requirements]
        if direct.cost <= sum(plan.cost for plan, _ in hosts):
            return [(1, pattern, True, direct)], direct_key
        terms = [(coefficient, host, False, plan)
                 for (host, coefficient), (plan, _)
                 in zip(requirements, hosts)]
        first_host_key = hosts[0][1]
        return terms, first_host_key

    def _run_count(self, plan, options, policy):
        result = self._execute(plan, options=options, policy=policy)
        return (result.embedding_count if result.ok else None), result

    def _execute(
        self,
        plan: CompiledPlan,
        ctx: ExecutionContext | None = None,
        *,
        options: EngineOptions | None = None,
        policy: "RunPolicy | None" = None,
    ) -> ExecutionResult:
        options = options if options is not None else self.engine_options
        # Supervision re-runs chunks, which is only sound for counting
        # accumulators — emit-mode UDF deliveries are not idempotent.
        if plan.mode != "count":
            policy = None
        overrides = {}
        if plan.mode != "count" and options.workers != 1:
            overrides["workers"] = 1
        if options.orientation != "none" and plan.orientation == "none":
            # The plan carries no oriented ops — either it is an
            # emit/constrained plan (relabeled ids would be observable)
            # or the orient pass found nothing to rewrite.  Relabeling
            # alone buys nothing and can hurt, so run on the original.
            overrides["orientation"] = "none"
        if overrides:
            options = replace(options, **overrides)
        result = execute_plan(
            plan, self.graph, ctx=ctx, options=options, policy=policy,
        )
        if plan.mode == "count" and calibrating():
            record_plan_execution(plan, self.profile, result.seconds)
        return result

    # ------------------------------------------------------------------
    # mine / process_partial_embedding
    # ------------------------------------------------------------------
    def mine(
        self,
        pattern: Pattern,
        process_partial_embedding: ProcessPartialEmbedding,
    ) -> int:
        """Stream partial embeddings of ``pattern`` to a UDF.

        Guarantees (section 4.2): **completeness** — every partial
        embedding of a delivered subpattern is delivered; **coverage** —
        the subpatterns jointly cover every pattern vertex.  For direct
        (non-decomposed) plans each whole embedding is delivered once per
        pattern automorphism, preserving completeness.

        Returns the whole-pattern embedding count as a convenience.
        """
        response = self.submit(
            MiningRequest(pattern=pattern, mode="mine"),
            process_partial_embedding=process_partial_embedding,
        )
        return self._unwrap_count(response)

    def _make_emitter(self, plan: CompiledPlan, udf: ProcessPartialEmbedding):
        pattern = plan.pattern
        layouts = plan.info.emit_layouts
        if plan.info.expand_automorphisms:
            auts = automorphisms(pattern)

            def emit(index: int, vertices: tuple[int, ...], count: int) -> None:
                base = dict(zip(layouts[index], vertices))
                for sigma in auts:
                    mapped = tuple(
                        base[sigma[v]] for v in layouts[index]
                    )
                    udf(PartialEmbedding(
                        pattern, index, layouts[index], mapped, count,
                    ))

            return emit

        def emit(index: int, vertices: tuple[int, ...], count: int) -> None:
            udf(PartialEmbedding(pattern, index, layouts[index], vertices, count))

        return emit

    # ------------------------------------------------------------------
    # materialize
    # ------------------------------------------------------------------
    def materialize(self, pe: PartialEmbedding, num: int | None = None):
        """Expand a partial embedding into up to ``num`` whole embeddings.

        Yields complete ``pattern vertex -> graph vertex`` mappings.
        """
        return materialize(self.graph, pe, num)

    # ------------------------------------------------------------------
    # Label constraints (section 7.5)
    # ------------------------------------------------------------------
    def count_with_constraints(
        self,
        pattern: Pattern,
        constraints: Sequence[tuple[Callable, tuple[int, ...]]],
    ) -> int:
        """Count matches satisfying ``F(e) = F1(e1) ∧ ... ∧ Fk(ek)``.

        Each entry is ``(predicate, pattern_vertices)``; the predicate
        receives the graph vertices matched to those pattern vertices.
        The compiler picks a cutting set whose subpatterns can resolve
        every fragment on partially-materialized embeddings, falling back
        to a direct plan when none exists.

        Returns the number of constraint-satisfying *matches* (injective
        homomorphisms): constraints distinguish pattern vertices, so they
        are generally not automorphism-invariant and the embedding-level
        multiplicity division does not apply.
        """
        response = self.submit(
            MiningRequest(
                pattern=pattern,
                mode="constrained",
                constraints=tuple(
                    tuple(int(v) for v in vertices)
                    for _, vertices in constraints
                ),
            ),
            predicates=[predicate for predicate, _ in constraints],
        )
        return self._unwrap_count(response)

    # ------------------------------------------------------------------
    def _check(self, pattern: Pattern) -> None:
        if not pattern.is_connected:
            raise PatternError("patterns must be connected")
        if pattern.is_labeled and not self.graph.is_labeled:
            raise PatternError("labeled pattern requires a labeled graph")
