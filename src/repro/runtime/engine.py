"""Plan execution engine.

Runs compiled plans over graphs, with the parallel execution strategy of
paper section 7.4: the outermost loop is statically divided into chunks;
idle workers drain remaining chunks dynamically (the work-stealing
analogue of the paper's scheme — a shared queue of statically-cut chunks);
each chunk accumulates into privatized counters merged at the end, which
is correct because all accumulator updates are associative/commutative.

Every chunk — the inline run's single chunk, a fork worker's, or one on
the supervisor's serial path — runs through one function,
:func:`run_chunk`.  It opens the ``"chunk"`` span, parks a chunk of a
cancelled run, fires the fault plan, dispatches to the executor, and
takes that chunk's kernel (:data:`repro.runtime.setops.STATS`),
vectorized (:data:`repro.runtime.vectorops.VSTATS`) and memo-cache
counter deltas (a C entry point counts its own set ops, which are the
chunk's kernel delta as they stand).  The kernel counters are
per-thread, so runs on concurrent threads never count each other's
calls.  Worker spans travel back through the per-chunk result channel.

:func:`_execute` runs as named stages: validate the mode, orient, open
the governor scope, sweep the chunks (supervised or inline), publish,
fold the aux-plan corrections in, and build the result and its ledger
record.  Each sweep yields one tally,
:class:`~repro.runtime.supervisor.SupervisorOutcome`, which is merged
into ``ExecutionResult.metrics`` and published into the
:mod:`repro.observe` metrics registry.

Execution knobs are bundled in :class:`EngineOptions`; supervision knobs
(budget, checkpoint, resource budget) in
:class:`~repro.runtime.supervisor.RunPolicy`.

Chunked runs go through one mechanism,
:class:`repro.runtime.supervisor.Supervisor`: it drains the chunks on a
fork pool (serially on hosts without ``fork``), retries chunks lost to
worker crashes or exceptions, honors ``RunBudget`` deadlines, and
(opt-in) checkpoints completed chunks for resume.  Whether a run is
supervised follows from its inputs alone: more than one worker, a
budget, checkpoint or resource budget, a fault plan, or a progress
reporter.  Any other run executes inline as one chunk.

On a single-core host multiprocessing adds no wall-clock speedup; the
scalability benchmark therefore also reports the measured per-chunk work
balance, from which the multi-core speedup curve follows.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import time
from dataclasses import dataclass, replace

import numpy as np
from types import MappingProxyType
from typing import Mapping

from repro.compiler import cgen
from repro.compiler.build import COUNT_ACC
from repro.compiler.interpreter import run_interpreter
from repro.compiler.pipeline import CompiledPlan
from repro.exceptions import ExecutionError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.transform import ORIENTATIONS, OrientedGraph, orient
from repro.observe import ledger as ledger_mod
from repro.observe import metrics as om
from repro.observe.trace import (
    begin_worker_trace,
    span,
    take_worker_spans,
)
from repro.runtime import setops, vectorops
from repro.runtime.context import ExecutionContext
from repro.runtime.resources import ResourceBudget, ResourceGovernor
from repro.runtime.supervisor import (
    CheckpointStore,
    RunBudget,
    RunPolicy,
    Supervisor,
    SupervisorOutcome,
    _add_counts,
)
from repro.runtime.vectorized import run_vectorized

__all__ = [
    "EXECUTORS",
    "EngineOptions",
    "ExecutionMetrics",
    "ExecutionResult",
    "execute_plan",
    "chunk_ranges",
    "run_chunk",
]

#: Valid ``EngineOptions.executor`` choices.
EXECUTORS = ("codegen", "interpreter", "vectorized")


@dataclass(frozen=True)
class EngineOptions:
    """How to execute a plan (everything except *what* and *on what*).

    Parameters
    ----------
    workers:
        Fork-pool workers (1 = in-process serial).
    chunks_per_worker:
        Static chunking granularity: the outer loop is cut into
        ``workers * chunks_per_worker`` ranges drained dynamically.
    executor:
        ``"codegen"`` (default), ``"interpreter"`` or ``"vectorized"``
        (the array-at-a-time NumPy backend; counting plans only — see
        :mod:`repro.runtime.vectorized`).
    shared_graph:
        Parallel runs only: place the graph's CSR arrays in one
        ``multiprocessing.shared_memory`` segment that fork-pool workers
        attach to zero-copy (see :mod:`repro.graph.shared`), instead of
        relying on copy-on-write heap pages.  The owning run unlinks the
        segment when its pool is done, surviving pool restarts and
        worker deaths without leaks.  Default on; ignored for serial
        runs and on platforms without ``fork``.
    cache:
        Per-chunk set-op memo cache policy, as accepted by
        :class:`~repro.runtime.context.ExecutionContext`: ``True``
        (default capacity), an ``int`` capacity, or ``False`` to disable.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        every chunk context (deterministic fault-injection harness).
    orientation:
        ``"none"`` (default), ``"degree"`` or ``"degeneracy"``: execute
        counting plans on the orientation-relabeled graph (see
        :mod:`repro.graph.transform`).  Counts are unchanged (relabeling
        is an isomorphism); plans compiled with the matching orientation
        replace symmetry-trimmed adjacency with out-neighborhood
        lookups, and chunk ranges are cut by oriented-degree prefix
        sums so relabeled heavy hitters spread across chunks.
    progress:
        Optional :data:`~repro.observe.progress.ProgressReporter`
        callable.  A reporter makes a non-emit execution supervised,
        which fires it once per completed chunk with a
        :class:`~repro.observe.progress.ProgressEvent` (chunks/work
        done, embeddings so far, throughput, ETA) and refreshes the
        ``repro_progress_*`` gauges.
    """

    workers: int = 1
    chunks_per_worker: int = 4
    executor: str = "codegen"
    shared_graph: bool = True
    cache: bool | int = True
    faults: object | None = None
    orientation: str = "none"
    progress: object | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {self.workers}")
        if self.chunks_per_worker < 1:
            raise ExecutionError(
                f"chunks_per_worker must be >= 1, got {self.chunks_per_worker}"
            )
        if self.executor not in EXECUTORS:
            raise ExecutionError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{EXECUTORS}"
            )
        if self.orientation not in ORIENTATIONS:
            raise ExecutionError(
                f"unknown orientation {self.orientation!r}; expected one "
                f"of {ORIENTATIONS}"
            )


@dataclass(frozen=True)
class ExecutionMetrics:
    """Typed read-only telemetry view of one execution.

    Consolidates what PR 1 (kernel/cache counters) and PR 3 (supervisor
    counters) used to scatter across ``ExecutionResult`` attributes; the
    same values are published as per-run deltas into
    :data:`repro.observe.REGISTRY`.
    """

    kernel_stats: Mapping[str, int]
    retries: int = 0
    resumed_chunks: int = 0
    pool_restarts: int = 0
    failures: int = 0
    bisections: int = 0
    watchdog_kills: int = 0
    frontier_downshifts: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Set-op memo cache hit rate over this execution (0.0 if off)."""
        return _hit_rate(self.kernel_stats)

    @property
    def kernel_calls(self) -> int:
        """Total set-op kernel invocations during this execution."""
        return _kernel_calls(self.kernel_stats)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (JSON-ready)."""
        stats = self.kernel_stats.copy()
        return {
            "kernel_stats": stats,
            "kernel_calls": _kernel_calls(stats),
            "cache_hit_rate": _hit_rate(stats),
            "retries": self.retries,
            "resumed_chunks": self.resumed_chunks,
            "pool_restarts": self.pool_restarts,
            "failures": self.failures,
            "bisections": self.bisections,
            "watchdog_kills": self.watchdog_kills,
            "frontier_downshifts": self.frontier_downshifts,
        }


def _hit_rate(stats: Mapping[str, int]) -> float:
    hits = stats.get("cache_hits", 0)
    lookups = hits + stats.get("cache_misses", 0)
    return hits / lookups if lookups else 0.0


def _kernel_calls(stats: Mapping[str, int]) -> int:
    return sum([stats.get(name, 0) for name in setops.KernelStats.FIELDS])


class ExecutionResult:
    """Outcome of a plan execution.

    ``accumulators``/``seconds``/``divisor``/``chunk_seconds`` are the
    result proper; ``failures`` holds structured :class:`ChunkFailure`
    entries for chunks that exhausted recovery (empty on clean runs);
    all remaining telemetry lives on ``metrics``
    (an :class:`ExecutionMetrics` read-only view).  The pre-redesign
    flat telemetry attributes (``kernel_stats``, ``cache_hit_rate``,
    ``retries``, ...) were removed with the options redesign — read
    them off ``metrics``.
    """

    def __init__(
        self,
        accumulators: dict[str, int],
        seconds: float,
        divisor: int,
        chunk_seconds: list[float] | None = None,
        kernel_stats: dict[str, int] | None = None,
        failures: list | None = None,
        retries: int = 0,
        resumed_chunks: int = 0,
        pool_restarts: int = 0,
        cancelled: str | None = None,
        salvage: dict | None = None,
        bisections: int = 0,
        watchdog_kills: int = 0,
        frontier_downshifts: int = 0,
        target: str = "python",
        fallback: str | None = None,
    ) -> None:
        self.accumulators = accumulators
        self.seconds = seconds
        self.divisor = divisor
        self.chunk_seconds = list(chunk_seconds) if chunk_seconds else []
        self.failures = list(failures) if failures else []
        #: Cancel reason that stopped the run early ("deadline" |
        #: "interrupt" | "watchdog"), or None for a run-to-completion.
        self.cancelled = cancelled
        #: Salvage state of a cancelled/incomplete run: completed work
        #: ``fraction`` (degree-weighted), ``chunks_done``/``chunks_total``
        #: and the ``unfinished`` chunk bounds; None on clean runs.
        self.salvage = salvage
        #: Where the plans ran: ``"c"`` when this plan and all its aux
        #: plans ran their C entry points, else ``"python"`` with the
        #: ``fallback`` reason (see :mod:`repro.compiler.cgen`).
        self.target = target
        self.fallback = fallback
        #: Ledger id of this execution's run record, or "" when no
        #: ledger was active (set by ``execute_plan`` after recording).
        self.run_id = ""
        self.metrics = ExecutionMetrics(
            kernel_stats=MappingProxyType(dict(kernel_stats or {})),
            retries=retries,
            resumed_chunks=resumed_chunks,
            pool_restarts=pool_restarts,
            failures=len(self.failures),
            bisections=bisections,
            watchdog_kills=watchdog_kills,
            frontier_downshifts=frontier_downshifts,
        )

    @property
    def ok(self) -> bool:
        """True when every chunk completed (counts are trustworthy)."""
        return not self.failures

    @property
    def raw_count(self) -> int:
        return self.accumulators.get(COUNT_ACC, 0)

    @property
    def error(self) -> str | None:
        """Why the count is not meaningful (None when every chunk ran)."""
        if not self.failures:
            return None
        summary = "; ".join(f.describe() for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            summary += f"; +{more} more"
        return (f"execution incomplete — {len(self.failures)} chunk(s) "
                f"unrecovered, the partial count is not meaningful "
                f"({summary})")

    @property
    def embedding_count(self) -> int:
        if self.failures:
            raise ExecutionError(self.error)
        raw = self.raw_count
        if raw % self.divisor != 0:
            raise ReproError(
                f"raw count {raw} not divisible by multiplicity "
                f"{self.divisor}: the plan's symmetry accounting is broken"
            )
        return raw // self.divisor

    def work_balance(self) -> float:
        """Mean/max chunk time: 1.0 is perfectly balanced."""
        if not self.chunk_seconds:
            return 1.0
        peak = max(self.chunk_seconds)
        if peak == 0:
            return 1.0
        return (sum(self.chunk_seconds) / len(self.chunk_seconds)) / peak

    def __repr__(self) -> str:
        m = self.metrics
        supervision = ""
        if m.retries or m.resumed_chunks or m.pool_restarts or self.failures:
            supervision = (
                f", retries={m.retries}, failures={len(self.failures)}, "
                f"resumed_chunks={m.resumed_chunks}, "
                f"pool_restarts={m.pool_restarts}"
            )
        return (
            f"ExecutionResult(raw_count={self.raw_count}, ok={self.ok}, "
            f"seconds={self.seconds:.4f}, chunks={len(self.chunk_seconds)}"
            f"{supervision})"
        )

    def describe(self) -> str:
        """Human-readable run summary, self-explanatory even on failure."""
        m = self.metrics
        salvage_lines = []
        if self.cancelled is not None or self.salvage is not None:
            salvage = self.salvage or {}
            salvage_lines.append(
                f"cancelled: {self.cancelled or 'no'} — salvaged "
                f"{salvage.get('fraction', 0.0):.1%} of the work "
                f"({salvage.get('chunks_done', 0)}/"
                f"{salvage.get('chunks_total', 0)} chunks)"
            )
        lines = [
            f"{'ok' if self.ok else 'INCOMPLETE'}: raw count "
            f"{self.raw_count:,} / divisor {self.divisor} in "
            f"{self.seconds:.3f}s over {len(self.chunk_seconds)} chunk(s) "
            f"(balance {self.work_balance():.2f})",
            f"supervision: {m.retries} retries, {len(self.failures)} "
            f"failed chunk(s), {m.resumed_chunks} resumed from checkpoint, "
            f"{m.pool_restarts} pool restarts",
            f"kernels: {m.kernel_calls:,} set-op calls, cache hit rate "
            f"{m.cache_hit_rate:.1%}",
            f"target: {self.target}"
            + (f" ({self.fallback})" if self.fallback else ""),
        ]
        lines.extend(salvage_lines)
        if m.bisections:
            lines.append(
                f"resources: {m.bisections} bisection(s), "
                f"{m.watchdog_kills} watchdog kill(s), "
                f"{m.frontier_downshifts} frontier downshift(s)"
            )
        for failure in self.failures[:5]:
            lines.append(f"  {failure.describe()}")
        if len(self.failures) > 5:
            lines.append(f"  ... +{len(self.failures) - 5} more")
        return "\n".join(lines)


def chunk_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous ranges."""
    chunks = max(1, min(chunks, total)) if total else 1
    bounds = [round(i * total / chunks) for i in range(chunks + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(chunks)
        if bounds[i] < bounds[i + 1]
    ]


def _plan_ranges(graph: CSRGraph, orientation: str,
                 chunks: int) -> list[tuple[int, int]]:
    """Chunk the outer vertex loop.

    Unoriented runs keep the historic even vertex split.  Oriented runs
    cut by oriented-degree prefix sums instead: relabeling sorts heavy
    hitters to one end of the id space, so equal-width vertex ranges
    would put nearly all the work into the chunks covering that end.
    Each vertex is weighted by its out-degree plus one (the constant
    loop overhead), so zero-out-degree tails still split.
    """
    if orientation == "none" or not isinstance(graph, OrientedGraph):
        return chunk_ranges(graph.num_vertices, chunks)
    total_vertices = graph.num_vertices
    chunks = max(1, min(chunks, total_vertices)) if total_vertices else 1
    weights = graph.out_degree_prefix + np.arange(
        total_vertices + 1, dtype=np.int64
    )
    total = int(weights[-1])
    targets = [round(i * total / chunks) for i in range(1, chunks)]
    cuts = np.searchsorted(weights, targets, side="left")
    bounds = [0, *(int(c) for c in cuts), total_vertices]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]


def _effective_orientation(plan: CompiledPlan, options: EngineOptions) -> str:
    """Resolve the orientation this execution runs under.

    A plan compiled for an orientation *requires* it (its ``oriented``
    ops read ``graph.out_neighbors``); a bare ``options.orientation``
    merely relabels the graph, which still pays off because symmetry
    trims then cut to out-neighborhood-sized suffixes.  Conflicting
    non-``"none"`` requests are an error rather than a silent pick.
    """
    plan_mode = getattr(plan, "orientation", "none")
    if (
        plan_mode != "none"
        and options.orientation != "none"
        and plan_mode != options.orientation
    ):
        raise ExecutionError(
            f"plan was compiled for orientation {plan_mode!r} but the "
            f"engine was configured with {options.orientation!r}; "
            "recompile the plan or align EngineOptions.orientation"
        )
    orientation = plan_mode if plan_mode != "none" else options.orientation
    if orientation == "none":
        return orientation
    if plan.mode == "emit":
        raise ExecutionError(
            "oriented execution relabels vertex ids, which emit-mode "
            "UDFs observe through partial embeddings; run emit plans "
            "with orientation='none'"
        )
    if getattr(plan.root, "num_preds", 0):
        raise ExecutionError(
            "oriented execution relabels vertex ids, which constraint "
            "predicates observe; run constrained plans with "
            "orientation='none'"
        )
    return orientation


def _resolve_policy(policy):
    """Normalize RunPolicy | RunBudget | None into the (budget,
    checkpoint, resources) tuple the engine works with."""
    budget = checkpoint = resources = None
    if isinstance(policy, RunBudget):
        budget = policy
    elif isinstance(policy, RunPolicy):
        budget = policy.budget
        checkpoint = policy.checkpoint
        resources = policy.resources
    elif policy is not None:
        raise ExecutionError(
            f"policy must be a RunPolicy or RunBudget, got {policy!r}"
        )
    if resources is not None and not isinstance(resources, ResourceBudget):
        raise ExecutionError(
            f"RunPolicy.resources must be a ResourceBudget, got "
            f"{resources!r}"
        )
    if checkpoint is not None and not hasattr(checkpoint, "record"):
        checkpoint = CheckpointStore(checkpoint)
    return budget, checkpoint, resources


#: Registry counter (name, help) for each supervision counter of a run's
#: tally (see ``SupervisorOutcome.COUNTERS``).
_COUNTER_METRICS = {
    "retries": ("repro_chunk_retries_total",
                "chunk re-dispatches by the supervisor"),
    "resumed_chunks": ("repro_checkpoint_resumed_chunks_total",
                       "chunks replayed from a checkpoint"),
    "pool_restarts": ("repro_pool_restarts_total", "worker pool rebuilds"),
    "bisections": ("repro_resource_bisections_total",
                   "chunk bisections after memory/timeout casualties"),
    "watchdog_kills": ("repro_resource_watchdog_kills_total",
                       "hard-RSS cancellations by the memory watchdog"),
    "frontier_downshifts": ("repro_resource_frontier_downshifts_total",
                            "soft-watermark frontier-cap downshifts"),
}


@functools.lru_cache(maxsize=None)
def _stat_metric(key: str) -> str:
    """The registry counter a kernel, vectorized or cache stat feeds."""
    if key.startswith("cache_"):
        return f"repro_setop_cache_{key[6:]}_total"
    if key.startswith("vec_"):
        return f"repro_vectorized_{key[4:]}_total"
    return f"repro_setops_{key}_total"


def _publish_metrics(tally: SupervisorOutcome) -> None:
    """Fold one execution's telemetry delta into the global registry.

    Batched per run (not per kernel call), so the cost is a handful of
    dictionary operations regardless of workload size.
    """
    om.counter(
        "repro_executions_total", "plan executions (aux plans counted)"
    ).inc()
    for key, value in tally.stats.items():
        if value:
            om.counter(_stat_metric(key),
                       "set-op kernel telemetry (per-run delta)").inc(value)
    for field_name, (name, help_text) in _COUNTER_METRICS.items():
        value = getattr(tally, field_name)
        if value:
            om.counter(name, help_text).inc(value)
    if tally.failures:
        om.counter("repro_chunk_failures_total",
                   "chunks that exhausted recovery").inc(len(tally.failures))
    if tally.cancelled is not None:
        om.counter("repro_resource_cancellations_total",
                   "runs stopped early through the cancel token").inc()
    if tally.salvage is not None:
        om.gauge("repro_resource_salvage_fraction",
                 "completed work fraction of the last incomplete run"
                 ).set(float(tally.salvage["fraction"]))
    chunk_hist = om.histogram("repro_chunk_seconds", "per-chunk wall time")
    for seconds in tally.chunk_seconds:
        chunk_hist.observe(seconds)


def execute_plan(
    plan: CompiledPlan,
    graph: CSRGraph,
    ctx: ExecutionContext | None = None,
    options: EngineOptions | None = None,
    policy=None,
) -> ExecutionResult:
    """Execute a compiled plan.

    ``options`` (an :class:`EngineOptions`) bundles the execution knobs:
    worker count, chunking, executor choice, set-op cache policy, fault
    plan, progress reporter.  With ``options.workers > 1`` the outer
    loop is chunked across a fork-based process pool; emit-mode plans
    (UDF callbacks hold user state) run single-process.

    ``policy`` (a :class:`~repro.runtime.supervisor.RunPolicy`, or a
    bare :class:`~repro.runtime.supervisor.RunBudget` for just the
    retry/deadline knobs) bundles supervision: retry caps, backoff,
    per-chunk timeouts, the whole-run deadline, the checkpoint store for
    killed-run resume, and the resource budget.  A non-emit plan runs
    under the :class:`~repro.runtime.supervisor.Supervisor` whenever
    supervision can matter — more than one worker, a budget, checkpoint
    or resource budget, a fault plan, or a progress reporter; otherwise
    it runs inline as a single chunk.
    """
    options = options if options is not None else EngineOptions()
    budget, checkpoint, resources = _resolve_policy(policy)
    return _execute(plan, graph, ctx, options, budget, checkpoint,
                    resources, aux=False)[1]


def _execute(plan, graph, ctx, options, budget, checkpoint, resources, *,
             aux: bool) -> tuple[SupervisorOutcome, ExecutionResult | None]:
    """One execution with an already-resolved policy, as named stages:
    validate the mode, orient, open the governor scope, sweep the chunks
    (supervised or inline), publish, fold the aux corrections in, and
    build the result and its ledger record.  Returns the run's tally and
    its result (see :func:`_finish`).

    ``aux`` marks a shrinkage-correction execution (see
    ``CompiledPlan.aux_plans``) so its ledger record is distinguishable
    from the user-facing run's.
    """
    if ctx is None:
        ctx = ExecutionContext(plan.root.num_tables, cache=options.cache,
                               faults=options.faults)
    supervised = _supervised(plan, ctx, options, budget, checkpoint,
                             resources)
    orientation = _effective_orientation(plan, options)
    # orient() memoizes per (graph, mode), so repeated executions — and
    # the aux-plan recursion, which passes the *original* graph — reuse
    # one relabeled copy.
    exec_graph = orient(graph, orientation) if orientation != "none" else graph
    # Resolved (and built) here in the parent, so fork workers inherit
    # the plan's entry point.
    target = cgen.target_for(plan, options.executor)
    deadline_at = None
    if budget is not None and budget.deadline_s is not None:
        deadline_at = time.monotonic() + budget.deadline_s
    run_span = span(
        "execute", pattern=plan.pattern.name or repr(plan.pattern),
        mode=plan.mode, workers=options.workers, executor=options.executor,
        orientation=orientation, target=target.target,
        fallback=target.reason,
    )
    with _governed(ctx, resources, deadline_at) as governor, run_span:
        started = time.perf_counter()
        if supervised:
            tally = _sweep_supervised(plan, exec_graph, ctx, options,
                                      orientation, budget, checkpoint,
                                      deadline_at, governor)
        else:
            tally = _sweep_inline(plan, exec_graph, ctx, options.executor)
        tally.target, tally.fallback = target.target, target.reason
        # This execution's own telemetry goes to the registry before the
        # aux-plan corrections: each aux execution recurses through
        # _execute and publishes its own delta.
        _publish_metrics(tally)
        _fold_aux_corrections(tally, plan, graph, options, budget,
                              checkpoint, resources, deadline_at)
        elapsed = time.perf_counter() - started
    return tally, _finish(plan, graph, options, tally, elapsed, budget,
                          checkpoint, supervised, aux)


def _supervised(plan, ctx, options, budget, checkpoint, resources) -> bool:
    """Validate the run mode; True when the run goes through the
    :class:`~repro.runtime.supervisor.Supervisor`, False when it runs
    inline as one chunk."""
    governed = (budget is not None or checkpoint is not None
                or resources is not None)
    if plan.mode == "emit":
        if options.workers > 1:
            raise ExecutionError(
                "emit-mode plans run single-process: user UDF state cannot "
                "be merged across workers; aggregate via counting "
                "accumulators instead"
            )
        if governed:
            raise ExecutionError(
                "supervised execution re-runs chunks and would re-deliver "
                "partial embeddings to the UDF; emit-mode plans run "
                "unsupervised"
            )
        return False
    return (options.workers > 1 or governed or ctx.faults is not None
            or options.progress is not None)


def _governed(ctx, resources, deadline_at):
    """Governor scope: a run with a resource budget or a deadline gets
    one :class:`~repro.runtime.resources.ResourceGovernor` per execution
    (a default budget when it has only a deadline), installed on
    ``ctx``.  The supervisor gives it the run's cancel token and closes
    that (a live token is what the deadline timer and a SIGINT flip).
    Every exit path (success, ExecutionError, KeyboardInterrupt)
    restores the caller's context hooks.  Yields the governor, or None
    on ungoverned runs."""
    if resources is None and deadline_at is None:
        return _UNGOVERNED
    return _governor_scope(ctx, resources)


_UNGOVERNED = contextlib.nullcontext()


@contextlib.contextmanager
def _governor_scope(ctx, resources):
    governor = ResourceGovernor(resources)
    saved = (ctx.resources, ctx.poll_cancel)
    ctx.resources, ctx.poll_cancel = governor, governor.poll
    try:
        yield governor
    finally:
        ctx.resources, ctx.poll_cancel = saved


def _sweep_inline(plan, graph, ctx, executor) -> SupervisorOutcome:
    """Run the whole outer loop in the caller's context as one chunk."""
    accumulators, seconds, stats = run_chunk(
        plan, graph, ctx, 0, 1, None, None, executor, allow_exit=False
    )
    return SupervisorOutcome(accumulators, [seconds], stats)


def _sweep_supervised(plan, graph, ctx, options, orientation, budget,
                      checkpoint, deadline_at, governor) -> SupervisorOutcome:
    """Cut the outer loop into chunks and drain them under the
    :class:`~repro.runtime.supervisor.Supervisor`."""
    heartbeat = None
    if options.progress is not None:
        from repro.observe.progress import as_heartbeat

        heartbeat = as_heartbeat(options.progress)
    ranges = _plan_ranges(graph, orientation,
                          options.workers * options.chunks_per_worker)
    return Supervisor(
        plan, graph, ctx, ranges, options.workers, options.executor,
        budget=budget, checkpoint=checkpoint, deadline_at=deadline_at,
        cache=options.cache, progress=heartbeat,
        shared_graph=options.shared_graph, resources=governor,
    ).run()


def _fold_aux_corrections(tally, plan, graph, options, budget, checkpoint,
                          resources, deadline_at) -> None:
    """Globally-counted shrinkage corrections (see
    ``CompiledPlan.aux_plans``): each quotient pattern's injective count
    is subtracted once, instead of re-enumerating quotient extensions per
    cutting-set match.  Aux plans share the checkpoint store (under their
    own fingerprints) and inherit whatever remains of the whole-run
    deadline, so resume and deadline semantics are exact for decomposed
    counts."""
    for aux_plan, multiplier in plan.aux_plans:
        aux_budget = budget
        if deadline_at is not None:
            aux_budget = replace(
                budget, deadline_s=max(0.0, deadline_at - time.monotonic())
            )
        aux_tally, _ = _execute(aux_plan, graph, None, options, aux_budget,
                                checkpoint, resources, aux=True)
        tally.fold_aux(aux_tally, multiplier)


def _finish(plan, graph, options, tally, elapsed, budget, checkpoint,
            supervised, aux) -> ExecutionResult | None:
    """Build the result from the run's tally and record it in the ledger.

    Durable run history: one JSON line per execution when a ledger is
    active (a single flag check otherwise).  Aux (global-shrinkage
    correction) executions record under their own fingerprints; their
    tally folds into the parent's, so an aux run builds a result only
    for the ledger, and returns None when none is active.
    """
    om.histogram("repro_execution_seconds",
                 "whole-execution wall time").observe(elapsed)
    if aux and ledger_mod.active_ledger() is None:
        return None
    result = ExecutionResult(
        tally.accumulators, elapsed, plan.info.divisor, tally.chunk_seconds,
        tally.stats, failures=tally.failures, cancelled=tally.cancelled,
        salvage=tally.salvage, target=tally.target, fallback=tally.fallback,
        **{name: getattr(tally, name) for name in tally.COUNTERS},
    )
    record = ledger_mod.record_run(
        plan, graph, options, result, budget, checkpoint, supervised,
        aux=aux,
    )
    if record is not None:
        result.run_id = record.run_id
    return result


def run_chunk(plan, graph, ctx, index, attempt, start, stop, executor, *,
              allow_exit: bool):
    """Run one chunk — outer-loop vertices ``[start, stop)``, or the whole
    loop when both are None — in ``ctx``.

    The one way a chunk runs: the inline path, the fork worker and the
    supervisor's serial path all call it.  It opens the ``"chunk"``
    span, parks a chunk of a cancelled run before it starts, fires the
    fault plan (``allow_exit`` only inside a disposable worker process),
    dispatches to the executor, and returns ``(accumulators, seconds,
    stats)``: ``stats`` is this chunk's own set-op, vectorized and
    memo-cache delta (the kernel counters are per-thread, so concurrent
    runs on other threads never leak into it) and ``seconds`` is the
    span's window.
    """
    cache_before = ctx.cache_counters()
    started = time.perf_counter()
    with span("chunk", index=index, attempt=attempt,
              worker_pid=os.getpid()) as chunk_span:
        if ctx.resources is not None:
            ctx.resources.check_cancel()
        ctx.fire_faults(index, attempt, allow_exit=allow_exit)
        accumulators, stats = None, {}
        native = cgen.resolve(plan) if executor == "codegen" else None
        if native is not None and native.entry is not None:
            # The C side counts its own set ops: no snapshots needed.
            accumulators, stats = cgen.run(plan, native, graph, ctx, start,
                                           stop)
        if accumulators is None:
            # A Python executor, or the rerun of an inexact C result.
            kernel_before = setops.STATS.snapshot()
            vec_before = vectorops.VSTATS.snapshot()
            accumulators = _run_range(plan, graph, ctx, start, stop,
                                      executor)
            _add_counts(stats, setops.STATS.delta(kernel_before))
            _add_counts(stats, vectorops.VSTATS.delta(vec_before))
    # One clock: under tracing the chunk's reported seconds ARE the span
    # window (a second perf_counter pair could disagree with it), so
    # trace and chunk-coverage accounting are exact.
    seconds = chunk_span.duration or (time.perf_counter() - started)
    for key, value in ctx.cache_counters().items():
        stats[key] = value - cache_before.get(key, 0)
    return accumulators, seconds, stats


def _run_range(plan, graph, ctx, start, stop, executor) -> dict[str, int]:
    if executor == "codegen":
        return plan.function(graph, ctx, start, stop)
    if executor == "interpreter":
        return run_interpreter(plan.root, graph, ctx, start, stop)
    if executor == "vectorized":
        return run_vectorized(plan.root, graph, ctx, start, stop)
    raise ExecutionError(
        f"unknown executor {executor!r}; expected one of {EXECUTORS}"
    )


# ----------------------------------------------------------------------
# Fork-based parallel execution
# ----------------------------------------------------------------------
#
# Fork state is keyed by a per-run token: each run registers its
# (plan, graph, ...) under a fresh token before forking its pool, and
# the pool initializer pins that token in every worker.  Children also
# inherit states registered by *other* concurrent runs (threads, nested
# executions) but only ever read their own — which is what makes
# concurrent/nested ``execute_plan`` calls safe.  A run's state stays
# registered until its pool is finished, because ``multiprocessing.Pool``
# re-forks replacement workers from the parent after a worker death.

_FORK_STATES: dict[int, dict] = {}
_WORKER_TOKEN: int | None = None
_TOKENS = itertools.count(1)


def _register_fork_state(state: dict) -> int:
    token = next(_TOKENS)
    _FORK_STATES[token] = state
    return token


def _release_fork_state(token: int) -> None:
    _FORK_STATES.pop(token, None)


def _set_worker_token(token: int) -> None:
    """Pool initializer: pin this worker to its run's fork state."""
    global _WORKER_TOKEN
    _WORKER_TOKEN = token


def _chunk_worker(task: tuple[int, int, int, int]):
    index, attempt, start, stop = task
    state = _FORK_STATES[_WORKER_TOKEN]
    plan = state["plan"]
    graph = state["graph"]
    if graph is None:
        # The run shares its graph: resolve the zero-copy shared-memory
        # view.  Fork children hit the cache entry seeded by the parent
        # and attach nothing; a worker forked fresh after a pool restart
        # does one real attach, then caches it for its lifetime.
        from repro.graph.shared import attach_cached

        graph = attach_cached(state["graph_descriptor"])
    ctx = ExecutionContext(plan.root.num_tables,
                           predicates=state["predicates"],
                           cache=state["cache"], faults=state["faults"],
                           resources=state["resources"])
    # A forked worker inherits the parent's tracing flag; its spans are
    # recorded into a fresh per-chunk trace and shipped back through the
    # result tuple (the parent grafts them into the live trace).
    worker_trace = begin_worker_trace(f"chunk-{index}")
    accumulators, seconds, stats = run_chunk(
        plan, graph, ctx, index, attempt, start, stop, state["executor"],
        allow_exit=True,
    )
    return (index, attempt, accumulators, seconds, stats,
            take_worker_spans(worker_trace))


def _share_state_graph(state: dict, enabled: bool = True):
    """Move a fork state's graph into shared memory (when enabled).

    Replaces ``state["graph"]`` with ``None`` plus a picklable
    ``graph_descriptor``; :func:`_chunk_worker` resolves it via the
    attach cache.  Returns the owning handle — the caller MUST close it
    in a ``finally`` spanning the pool's whole lifetime (pool restarts
    re-fork from the parent and must still find the segment).
    """
    if not enabled:
        return None
    descriptor = getattr(state["graph"], "shared_descriptor", None)
    if descriptor is not None:
        # The graph is already a view over a long-lived shared segment
        # (the serve daemon holds one for its whole lifetime): point
        # workers at it and leave ownership — and cleanup — with the
        # holder.
        state["graph"] = None
        state["graph_descriptor"] = descriptor
        return None
    from repro.graph import shared

    handle = shared.share_graph(state["graph"])
    state["graph"] = None
    state["graph_descriptor"] = handle.descriptor
    return handle
