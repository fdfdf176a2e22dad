"""Chunk-level fault-tolerant execution supervisor.

The engine's fork-pool path (paper §7.4) statically cuts the outermost
loop into chunks; because every chunk accumulates into associative/
commutative counters, any chunk is safely *re-executable*.  The
supervisor exploits that: it tracks per-chunk state
(pending → running → done/failed), re-dispatches chunks lost to worker
death or wedged workers, retries chunks that raised (capped exponential
backoff), enforces per-chunk timeouts and a whole-run deadline, and
checkpoints completed chunks so a killed run resumes by skipping them.

Recovery ladder, mildest first.  Whichever loop collects a chunk's
outcome (the pool's ready loop, a drain, or the in-process serial path),
:meth:`Supervisor._settle` classifies it; the ladder is written once:

1. **Chunk exception** — the worker survives; the chunk is requeued
   with backoff until ``RunBudget.max_chunk_retries`` is exhausted.
2. **Memory casualty (bisection)** — a chunk that fails with
   :class:`MemoryError` (a ballooning frontier, an injected ``"oom"``
   fault) or a watchdog kill is **bisected**: split at its
   degree-weighted midpoint (the same prefix sums the engine cuts
   chunks by) into two fresh half-chunks and requeued, down to
   ``ResourceBudget.min_chunk_weight`` — finer-grained work instead of
   retrying the whole chunk until the budget burns out.
3. **Chunk timeout** — on a resource-governed run the supervisor flips
   the shared cancel token with reason ``"preempt"``: every in-flight
   chunk parks itself at its next poll, completed results are drained
   during ``RunBudget.drain_grace_s`` (healthy work is never thrown
   away), the wedged chunk is bisected, and the pool is recycled only
   if a worker is still unresponsive after the grace window.  Without
   a governor the pool cannot cancel a running task, so the legacy
   ladder applies: drain finished results, terminate, restart.
4. **Worker death** — detected by a pool health check (worker pid set
   or exit codes changed).  ``multiprocessing.Pool`` replaces dead
   workers but silently loses their in-flight task, so the supervisor
   drains finished results, terminates the pool, and restarts it,
   re-dispatching every unfinished chunk (each in-flight chunk is
   charged one attempt — a dispatch that produced no result).
5. **Pool failure cap** — after ``max_pool_restarts`` restarts the pool
   is abandoned and remaining chunks degrade to in-process serial
   execution (still retried; ``"die"`` faults are simulated there).
6. **Retry exhaustion / deadline / retry budget / cancellation** — the
   chunk surfaces a structured :class:`ChunkFailure` on
   ``ExecutionResult.failures`` instead of crashing the run;
   ``embedding_count`` then refuses with an
   :class:`~repro.exceptions.ExecutionError`.  Deadline expiry and
   SIGINT on governed runs cancel cooperatively through the token —
   no pool teardown — and the outcome carries the completed work
   fraction (salvage) of everything that did finish.

Checkpointing writes one JSON line per completed chunk (accumulators,
chunk time, kernel stats, attempts) keyed by a plan fingerprint that
covers the plan spec, executor, graph content, and chunk count — aux
(global-shrinkage) plans recurse with the same store under their own
fingerprints, so resume is exact for decomposed counts too.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

from repro.compiler import cgen
from repro.compiler.build import COUNT_ACC
from repro.exceptions import ExecutionError
from repro.observe.ledger import graph_fingerprint
from repro.observe.trace import graft_worker_spans
from repro.runtime.context import ExecutionContext
from repro.runtime.resources import ChunkCancelled, MemoryWatchdog

__all__ = [
    "RunBudget",
    "RunPolicy",
    "ChunkFailure",
    "CheckpointStore",
    "Supervisor",
    "SupervisorOutcome",
    "plan_fingerprint",
]


@dataclass(frozen=True)
class RunBudget:
    """Retry/deadline policy for one supervised execution.

    Parameters
    ----------
    deadline_s:
        Whole-run wall-clock deadline (spans aux-plan corrections);
        chunks not finished when it expires fail with reason
        ``"deadline"``.
    chunk_timeout_s:
        Per-chunk timeout on the pool path (unenforceable in-process,
        where a chunk cannot be preempted).  A chunk whose result does
        not arrive in time is presumed lost and triggers a pool restart.
    max_chunk_retries:
        Re-dispatches allowed per chunk before it fails permanently.
    max_retries:
        Optional global retry budget across all chunks of one plan.
    backoff_s / backoff_cap_s:
        Capped exponential backoff between retries of the same chunk:
        ``min(backoff_s * 2**(attempt-1), backoff_cap_s)``.
    max_pool_restarts:
        Pool rebuilds tolerated before degrading to serial execution.
    poll_interval_s:
        Supervisor polling granularity on the pool path.
    drain_grace_s:
        On resource-governed runs, how long to keep collecting results
        from token-cancelled in-flight chunks before giving up on them
        (cooperative preemption needs each worker to reach its next
        poll site; results that land inside the window are kept).
    """

    deadline_s: float | None = None
    chunk_timeout_s: float | None = None
    max_chunk_retries: int = 3
    max_retries: int | None = None
    backoff_s: float = 0.02
    backoff_cap_s: float = 1.0
    max_pool_restarts: int = 2
    poll_interval_s: float = 0.005
    drain_grace_s: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ExecutionError("deadline_s must be >= 0")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ExecutionError("chunk_timeout_s must be > 0")
        if self.drain_grace_s < 0:
            raise ExecutionError("drain_grace_s must be >= 0")
        if self.max_chunk_retries < 0:
            raise ExecutionError("max_chunk_retries must be >= 0")
        if self.max_retries is not None and self.max_retries < 0:
            raise ExecutionError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ExecutionError("backoff must be >= 0")
        if self.max_pool_restarts < 0:
            raise ExecutionError("max_pool_restarts must be >= 0")
        if self.poll_interval_s <= 0:
            raise ExecutionError("poll_interval_s must be > 0")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before re-dispatching after failed ``attempt`` (1-based)."""
        return min(self.backoff_s * (2 ** max(0, attempt - 1)),
                   self.backoff_cap_s)


@dataclass(frozen=True)
class RunPolicy:
    """Session-level bundle: budget + checkpoint + resource budget.

    ``DecoMine(run_policy=...)`` accepts this (or a bare
    :class:`RunBudget`) and threads it into every counting execution.
    Setting any field makes counting executions supervised.
    """

    budget: RunBudget | None = None
    checkpoint: "CheckpointStore | str | Path | None" = None
    #: Optional :class:`~repro.runtime.resources.ResourceBudget` turning
    #: the run into a resource-governed one (cancel token + watchdog +
    #: bisection ladder).
    resources: "object | None" = None

    def with_deadline(self, seconds: float) -> "RunPolicy":
        """This policy with its budget's ``deadline_s`` set to ``seconds``."""
        budget = self.budget if self.budget is not None else RunBudget()
        return replace(self, budget=replace(budget, deadline_s=seconds))


@dataclass(frozen=True)
class ChunkFailure:
    """A chunk that could not be completed, with its exception chain."""

    index: int
    bounds: tuple[int, int]
    attempts: int
    # "exception" | "timeout" | "worker-lost" | "deadline" | "retry-budget"
    # | "cancelled" | "memory" | "watchdog"
    reason: str
    error: str | None = None
    exc_chain: tuple[str, ...] = ()

    def describe(self) -> str:
        detail = f": {self.error}" if self.error else ""
        return (f"chunk {self.index} [{self.bounds[0]}, {self.bounds[1]}) "
                f"failed after {self.attempts} attempt(s) "
                f"({self.reason}){detail}")


def _exception_chain(exc: BaseException) -> tuple[str, ...]:
    """``repr`` of the exception and its ``__cause__``/``__context__`` chain."""
    chain: list[str] = []
    seen: set[int] = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(repr(current))
        current = current.__cause__ or current.__context__
    return tuple(chain)


def plan_fingerprint(plan, graph, executor: str, num_chunks: int) -> str:
    """Stable identity of one (plan, graph, executor, chunking) run.

    Covers everything that determines a chunk's accumulator values, so a
    checkpoint recorded under this key is only ever replayed into an
    identical execution.  The graph is identified by its content
    fingerprint, not its size.  The plan is identified by its spec and
    pattern (code generation is a pure function of those, whereas
    ``plan.source`` embeds gensym counter state that varies across
    compilations); chunk count is included because resume is per-chunk
    — a run re-chunked differently ignores old records and starts clean.
    """
    digest = hashlib.sha256()
    for part in (
        plan.mode, str(plan.info.divisor), executor,
        graph_fingerprint(graph), str(num_chunks),
        repr(plan.pattern), repr(plan.spec),
    ):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


class CheckpointStore:
    """Append-only JSON-lines log of completed chunks.

    One record per line::

        {"plan": <fingerprint>, "chunk": 3, "bounds": [120, 160],
         "accumulators": {...}, "seconds": 0.8, "stats": {...},
         "attempts": 2}

    Records are flushed per chunk, so a killed process loses at most the
    chunk it was writing; a torn final line is skipped on load.  Several
    plans (a decomposed plan and its aux corrections, or many patterns
    of one census) may share a store — records are filtered by
    fingerprint on load.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None

    def load(self, plan_key: str) -> dict[int, dict]:
        """All well-formed records for ``plan_key``, keyed by chunk index."""
        records: dict[int, dict] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write from a killed run
            if not isinstance(record, dict) or record.get("plan") != plan_key:
                continue
            try:
                records[int(record["chunk"])] = record
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def record(
        self,
        plan_key: str,
        index: int,
        bounds: tuple[int, int],
        accumulators: dict[str, int],
        seconds: float,
        stats: dict[str, int],
        attempts: int,
    ) -> None:
        if self._fh is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        line = json.dumps(
            {
                "plan": plan_key,
                "chunk": index,
                "bounds": [int(bounds[0]), int(bounds[1])],
                "accumulators": accumulators,
                "seconds": seconds,
                "stats": stats,
                "attempts": attempts,
            },
            sort_keys=True,
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _add_counts(into: dict[str, int], part) -> None:
    for key, value in part.items():
        into[key] = into.get(key, 0) + value


@dataclass
class SupervisorOutcome:
    """One run's tally: its merged chunk results and every supervision
    counter.

    The one record of a run.  The supervisor fills one per sweep, the
    engine's inline path returns a one-chunk tally, aux-plan corrections
    fold in through :meth:`fold_aux`, and the engine publishes it and
    builds the ``ExecutionResult`` from it.
    """

    #: Supervision counters, named as on ``ExecutionMetrics`` and as the
    #: ``ExecutionResult`` keywords.
    COUNTERS: ClassVar[tuple[str, ...]] = (
        "retries", "resumed_chunks", "pool_restarts", "bisections",
        "watchdog_kills", "frontier_downshifts",
    )

    accumulators: dict[str, int] = field(default_factory=dict)
    chunk_seconds: list[float] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    failures: list[ChunkFailure] = field(default_factory=list)
    retries: int = 0
    resumed_chunks: int = 0
    pool_restarts: int = 0
    bisections: int = 0
    watchdog_kills: int = 0
    frontier_downshifts: int = 0
    #: Cancel-token reason that stopped the run early, or None if it
    #: ran to completion ("deadline" | "interrupt" | "watchdog").
    cancelled: str | None = None
    #: Salvage state of a cancelled/incomplete sweep: completed work
    #: ``fraction`` (degree-weighted), ``chunks_done``/``chunks_total``
    #: and the ``unfinished`` chunk bounds; None on clean runs.
    salvage: dict | None = None
    #: Where the run's plans ran (``"c"`` or ``"python"``, see
    #: :mod:`repro.compiler.cgen`) and why not C: ``"c"`` only when
    #: this plan and every aux plan folded in did.
    target: str = "python"
    fallback: str | None = None

    def add_chunk(self, accumulators: dict[str, int], seconds: float,
                  stats: dict[str, int]) -> None:
        """Merge one completed chunk's privatized counters (valid because
        every accumulator update is associative and commutative)."""
        _add_counts(self.accumulators, accumulators)
        self.chunk_seconds.append(seconds)
        _add_counts(self.stats, stats)

    def fold_aux(self, aux, multiplier: int) -> None:
        """Fold one aux-plan correction run (an ``ExecutionResult``) in:
        its count is subtracted ``multiplier`` times, its telemetry and
        failures add up, its cancel reason and salvage fill in where
        this run has none, and a Python aux plan makes the run's target
        Python."""
        self.accumulators[COUNT_ACC] = (
            self.accumulators.get(COUNT_ACC, 0) - multiplier * aux.raw_count
        )
        _add_counts(self.stats, aux.metrics.kernel_stats)
        self.failures.extend(aux.failures)
        for name in self.COUNTERS:
            setattr(self, name,
                    getattr(self, name) + getattr(aux.metrics, name))
        self.cancelled = self.cancelled or aux.cancelled
        if self.salvage is None:
            self.salvage = aux.salvage
        if self.target == "c" and aux.target != "c":
            self.target = aux.target
            self.fallback = f"aux plan: {aux.fallback}"


class Supervisor:
    """Drives one plan's chunks to completion despite partial failure.

    The caller (``execute_plan``) owns chunking, aux-plan recursion, and
    result assembly; the supervisor owns dispatch, recovery, and the
    checkpoint.  Both the engine's fork-pool workers and the in-process
    serial path run each chunk through the engine's one chunk runner
    (:func:`repro.runtime.engine.run_chunk`), in a fresh per-chunk
    context (the serial path passes ``allow_exit=False``), and every
    outcome, whichever loop collects it, is classified by :meth:`_settle`.
    """

    def __init__(
        self,
        plan,
        graph,
        ctx: ExecutionContext,
        ranges: list[tuple[int, int]],
        workers: int,
        executor: str,
        budget: RunBudget | None = None,
        checkpoint: CheckpointStore | None = None,
        deadline_at: float | None = None,
        cache: bool | int = True,
        progress=None,
        shared_graph: bool = True,
        resources=None,
    ) -> None:
        self.plan = plan
        self.graph = graph
        self.predicates = list(ctx.predicates)
        self.faults = ctx.faults
        self.cache = cache
        self.shared_graph = shared_graph
        self.bounds = dict(enumerate(ranges))
        self.workers = workers
        self.executor = executor
        self.budget = budget or RunBudget()
        self.checkpoint = checkpoint
        if deadline_at is None and self.budget.deadline_s is not None:
            deadline_at = time.monotonic() + self.budget.deadline_s
        self.deadline_at = deadline_at
        self.plan_key = plan_fingerprint(plan, graph, executor, len(ranges))
        # Per-chunk state: completed attempt counts, done accumulators.
        self.attempts: dict[int, int] = dict.fromkeys(self.bounds, 0)
        self.done: set[int] = set()
        self.out = SupervisorOutcome()
        # The resource governor (None on ungoverned runs): carries the
        # ResourceBudget and the shared cancel token.
        self.resources = (
            resources if resources is not None
            else getattr(ctx, "resources", None)
        )
        # Chunk weights from the degree-weighted prefix sums (the same
        # work proxy the oriented engine cuts chunk ranges by).  Always
        # computed: progress heartbeats advance by them, bisection cuts
        # at their midpoint, and salvage reports work_done/work_total.
        self.progress = progress
        self._started = time.monotonic()
        self._weights = {
            index: self._chunk_weight(bounds)
            for index, bounds in self.bounds.items()
        }
        self._work_total = sum(self._weights.values())
        self._work_done = 0
        # Bisected halves get fresh indices past the original chunking
        # so their checkpoint records never collide with the parents'.
        self._initial_chunks = len(ranges)
        self._next_index = len(ranges)
        # Pids the memory watchdog samples (workers + supervisor).
        self._watch_pids: list[int] = [os.getpid()]

    def _chunk_weight(self, bounds: tuple[int, int]) -> int:
        """Degree-weighted work estimate for one chunk (out-degree on
        oriented graphs, total degree otherwise, plus the constant
        per-vertex loop overhead)."""
        start, stop = bounds
        prefix = getattr(self.graph, "out_degree_prefix", None)
        if prefix is None:
            prefix = self.graph.degree_prefix
        return int(prefix[stop]) - int(prefix[start]) + (stop - start)

    def _heartbeat(self) -> None:
        if self.progress is None:
            return
        from repro.observe.progress import ProgressEvent

        self.progress(ProgressEvent(
            chunks_done=len(self.done),
            chunks_total=len(self.bounds),
            work_done=self._work_done,
            work_total=self._work_total,
            embeddings=self.out.accumulators.get(COUNT_ACC, 0),
            elapsed_s=time.monotonic() - self._started,
        ))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> SupervisorOutcome:
        watchdog = self._start_watchdog()
        timer = self._start_deadline_timer()
        try:
            self._load_checkpoint()
            pending = [i for i in sorted(self.bounds) if i not in self.done]
            if pending and self.workers > 1 and hasattr(os, "fork"):
                pending = self._run_pool(pending)
            if pending:
                self._run_serial(pending)
        finally:
            if timer is not None:
                timer.cancel()
            if watchdog is not None:
                watchdog.stop()
                self.out.watchdog_kills = watchdog.kills
                self.out.frontier_downshifts = watchdog.downshifts
            if self.out.cancelled is not None or self.out.failures:
                self.out.salvage = {
                    "fraction": (
                        round(self._work_done / self._work_total, 6)
                        if self._work_total else 1.0
                    ),
                    "chunks_done": len(self.done),
                    "chunks_total": len(self.bounds),
                    "unfinished": [
                        list(f.bounds) for f in self.out.failures[:32]
                    ],
                }
        return self.out

    # ------------------------------------------------------------------
    # Resource-governor plumbing (all no-ops on ungoverned runs)
    # ------------------------------------------------------------------
    def _token(self):
        gov = self.resources
        return gov.token if gov is not None else None

    def _token_reason(self) -> str | None:
        token = self._token()
        if token is None or not token.cancelled:
            return None
        return token.reason

    def _cancel(self, reason: str) -> None:
        token = self._token()
        if token is not None:
            token.cancel(reason)

    def _reset_token(self) -> None:
        token = self._token()
        if token is not None:
            token.reset()

    def _start_watchdog(self) -> MemoryWatchdog | None:
        gov = self.resources
        if gov is None or gov.token is None or gov.budget.max_rss_bytes is None:
            return None
        watchdog = MemoryWatchdog(
            gov.budget, gov.token, lambda: list(self._watch_pids)
        )
        watchdog.start()
        return watchdog

    def _start_deadline_timer(self) -> threading.Timer | None:
        """Flip the cancel token when the deadline passes, so in-flight
        chunks stop cooperatively instead of running to completion and
        being discarded at the next supervisor poll."""
        token = self._token()
        if token is None or self.deadline_at is None:
            return None
        timer = threading.Timer(
            max(0.0, self.deadline_at - time.monotonic()),
            self._cancel, args=("deadline",),
        )
        timer.daemon = True
        timer.start()
        return timer

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _deadline_expired(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline_at

    def _record_success(self, index, attempt, accumulators, seconds, stats,
                        spans=(), from_checkpoint: bool = False) -> None:
        if index in self.done:  # late duplicate after a pool restart
            return
        self.done.add(index)
        graft_worker_spans(list(spans))
        self.attempts[index] = max(self.attempts[index], attempt)
        self.out.add_chunk(accumulators, seconds, stats)
        if from_checkpoint:
            self.out.resumed_chunks += 1
        elif self.checkpoint is not None:
            self.checkpoint.record(
                self.plan_key, index, self.bounds[index], accumulators,
                seconds, stats, attempt,
            )
        self._work_done += self._weights.get(index, 0)
        if self.progress is not None:
            self._heartbeat()

    def _record_failure(self, index: int, attempt: int, reason: str,
                        exc: BaseException | None) -> bool:
        """Charge one failed attempt; True iff the chunk should retry."""
        self.attempts[index] = max(self.attempts[index], attempt)
        budget = self.budget
        exhausted = attempt > budget.max_chunk_retries
        over_budget = (
            budget.max_retries is not None
            and self.out.retries >= budget.max_retries
        )
        if exhausted or over_budget:
            self.out.failures.append(ChunkFailure(
                index=index,
                bounds=self.bounds[index],
                attempts=self.attempts[index],
                reason="retry-budget" if (over_budget and not exhausted)
                       else reason,
                error=repr(exc) if exc is not None else None,
                exc_chain=_exception_chain(exc) if exc is not None else (),
            ))
            return False
        self.out.retries += 1
        return True

    def _fail_remaining(self, indices, reason: str) -> None:
        for index in indices:
            if index in self.done:
                continue
            self.out.failures.append(ChunkFailure(
                index=index,
                bounds=self.bounds[index],
                attempts=self.attempts[index],
                reason=reason,
            ))

    def _load_checkpoint(self) -> None:
        if self.checkpoint is None:
            return
        leftovers: dict[int, dict] = {}
        for index, record in self.checkpoint.load(self.plan_key).items():
            bounds = self.bounds.get(index)
            if bounds is None or list(bounds) != record.get("bounds"):
                leftovers[index] = record
                continue
            self._replay_record(index, record)
        self._adopt_bisected(leftovers)

    def _replay_record(self, index: int, record: dict) -> None:
        self._record_success(
            index,
            int(record.get("attempts", 1)),
            {k: int(v) for k, v in record.get("accumulators", {}).items()},
            float(record.get("seconds", 0.0)),
            {k: int(v) for k, v in record.get("stats", {}).items()},
            from_checkpoint=True,
        )

    def _adopt_bisected(self, leftovers: dict[int, dict]) -> None:
        """Resume completed *bisected* chunks from a prior governed run.

        Bisected halves checkpoint under the same plan key with fresh
        indices (>= the initial chunk count) and bounds nested inside
        one original chunk.  For each pending parent whose recorded
        children tile part of its range without overlap, the parent is
        replaced by those children (replayed as done) plus fresh chunks
        covering the gaps, so resume is exact even mid-bisection.
        Overlapping or malformed records disqualify that parent's
        adoption and it stays pending whole — the torn-line tolerance
        of the store extends to torn *splits*.
        """
        if not leftovers:
            return
        # Reserve every recorded index up front so gap chunks added
        # below can never collide with a child adopted later.
        for index in leftovers:
            self._next_index = max(self._next_index, index + 1)
        by_parent: dict[int, list[tuple[int, dict]]] = {}
        for index, record in leftovers.items():
            if index < self._initial_chunks or index in self.bounds:
                continue
            rb = record.get("bounds")
            if (
                not isinstance(rb, list) or len(rb) != 2
                or not all(isinstance(v, int) for v in rb) or rb[0] >= rb[1]
            ):
                continue
            parent = next(
                (
                    p for p, (ps, pe) in self.bounds.items()
                    if p < self._initial_chunks and p not in self.done
                    and ps <= rb[0] and rb[1] <= pe
                ),
                None,
            )
            if parent is not None:
                by_parent.setdefault(parent, []).append((index, record))
        for parent, children in by_parent.items():
            children.sort(key=lambda item: item[1]["bounds"][0])
            accepted: list[tuple[int, dict]] = []
            cursor = None
            for index, record in children:
                lo, hi = record["bounds"]
                if cursor is not None and lo < cursor:
                    accepted = []  # overlap: stale records, replay none
                    break
                accepted.append((index, record))
                cursor = hi
            if not accepted:
                continue
            start, stop = self.bounds[parent]
            self._remove_chunk(parent)
            cursor = start
            for index, record in accepted:
                lo, hi = record["bounds"]
                if cursor < lo:
                    self._add_chunk((cursor, lo))
                self._install_chunk(index, (lo, hi))
                self._replay_record(index, record)
                cursor = hi
            if cursor < stop:
                self._add_chunk((cursor, stop))

    # ------------------------------------------------------------------
    # Chunk bisection (memory/timeout casualties on governed runs)
    # ------------------------------------------------------------------
    def _min_chunk_width(self) -> int:
        gov = self.resources
        return gov.budget.min_chunk_width if gov is not None else 1

    def _install_chunk(self, index: int, bounds: tuple[int, int]) -> int:
        if index not in self._weights:
            weight = self._chunk_weight(bounds)
            self._weights[index] = weight
            self._work_total += weight
        self.bounds[index] = bounds
        self.attempts.setdefault(index, 0)
        self._next_index = max(self._next_index, index + 1)
        return index

    def _add_chunk(self, bounds: tuple[int, int]) -> int:
        index = self._next_index
        self._next_index += 1
        return self._install_chunk(index, bounds)

    def _remove_chunk(self, index: int) -> None:
        self.bounds.pop(index, None)
        self.attempts.pop(index, None)
        self._work_total -= self._weights.pop(index, 0)

    def _weighted_midpoint(self, start: int, stop: int) -> int:
        """Vertex where the chunk's degree-weighted work halves (same
        ``prefix[x] + x`` proxy the engine cuts chunk ranges by),
        clamped so both halves keep the minimum width."""
        prefix = getattr(self.graph, "out_degree_prefix", None)
        if prefix is None:
            prefix = self.graph.degree_prefix

        def weight(x: int) -> int:
            return int(prefix[x]) + x

        target = (weight(start) + weight(stop)) // 2
        lo, hi = start + 1, stop - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if weight(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        width = self._min_chunk_width()
        return max(start + width, min(lo, stop - width))

    def _bisect(self, index: int) -> list[int] | None:
        """Split a casualty chunk into two half-work chunks with fresh
        indices; None if it is already at minimum width."""
        start, stop = self.bounds[index]
        width = self._min_chunk_width()
        if stop - start < 2 * width:
            return None
        mid = self._weighted_midpoint(start, stop)
        self._remove_chunk(index)
        self.out.bisections += 1
        return [self._add_chunk((start, mid)), self._add_chunk((mid, stop))]

    # ------------------------------------------------------------------
    # The recovery ladder
    # ------------------------------------------------------------------
    def _casualty(self, index, attempt, reason, exc, requeue) -> None:
        """Bisect a memory/watchdog/timeout casualty into the caller's
        queue; only a minimum-width chunk falls back to whole-chunk
        retry (and eventually a structured failure)."""
        self.attempts[index] = max(self.attempts[index], attempt)
        children = self._bisect(index)
        if children is not None:
            for child in children:
                requeue(child, 0.0)
        elif self._record_failure(index, attempt, reason, exc):
            requeue(index, time.monotonic() + self.budget.backoff_for(attempt))

    def _stop(self, indices, reason: str) -> None:
        """Fail ``indices`` for a run-level stop (``"deadline"`` or
        ``"interrupt"``) and mark the run cancelled."""
        self._fail_remaining(
            indices, "deadline" if reason == "deadline" else "cancelled"
        )
        self.out.cancelled = self.out.cancelled or reason

    def _settle(self, index: int, attempt: int, outcome, requeue,
                charge: bool = False) -> str | None:
        """Classify one chunk attempt's outcome: the one recovery ladder.

        ``outcome()`` returns the worker's result tuple or raises what
        the chunk raised; ``requeue(index, not_before)`` puts a chunk
        back on the caller's queue.  A watchdog kill, a
        :class:`MemoryError` or a ``"preempt"`` park of the ``charge``-d
        chunk (the one whose timeout caused the preemption) is bisected;
        any other park is requeued uncharged; a deadline/interrupt
        cancel fails the chunk and the run; any other exception is
        retried after backoff.  Returns the cancel reason of a
        :class:`ChunkCancelled` outcome, else None.
        """
        try:
            result = outcome()
        except ChunkCancelled as exc:
            reason = exc.reason
            if reason in ("deadline", "interrupt"):
                self.attempts[index] = max(self.attempts[index], attempt)
                self._stop([index], reason)
            elif reason == "watchdog" or charge:
                self._casualty(
                    index, attempt,
                    "watchdog" if reason == "watchdog" else "timeout",
                    exc, requeue,
                )
            else:
                requeue(index, 0.0)  # parked cooperatively
            return reason
        except MemoryError as exc:
            self._casualty(index, attempt, "memory", exc, requeue)
        except Exception as exc:
            if self._record_failure(index, attempt, "exception", exc):
                requeue(index,
                        time.monotonic() + self.budget.backoff_for(attempt))
        else:
            self._record_success(*result)
        return None

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _run_pool(self, pending: list[int]) -> list[int]:
        """Run chunks on a fork pool; returns chunks left for serial."""
        import multiprocessing as mp

        from repro.runtime import engine

        mp_context = mp.get_context("fork")
        state = {
            "plan": self.plan,
            "graph": self.graph,
            "executor": self.executor,
            "predicates": self.predicates,
            "faults": self.faults,
            "cache": self.cache,
            # The governor rides into every worker: its CancelToken maps
            # the same shared-memory segment post-fork, so one flip in
            # the supervisor is visible at every executor poll site.
            "resources": self.resources,
        }
        # The shared segment outlives every pool epoch (restarts re-fork
        # replacement workers that must still resolve the descriptor) and
        # is unlinked in the same finally that releases the fork state —
        # worker deaths, ExecutionErrors and deadline bail-outs all pass
        # through here, so no path can leak it.
        shared_handle = engine._share_state_graph(state, self.shared_graph)
        token = engine._register_fork_state(state)
        try:
            while pending:
                reason = self._await_builders()
                if reason is not None:
                    self._stop(pending, reason)
                    return []
                status, pending = self._pool_epoch(mp_context, token, pending)
                if status == "done":
                    return []
                self.out.pool_restarts += 1
                if self.out.pool_restarts > self.budget.max_pool_restarts:
                    return pending  # degrade to in-process serial
        finally:
            engine._release_fork_state(token)
            if shared_handle is not None:
                shared_handle.close()
        return []

    def _await_builders(self) -> str | None:
        """Wait for the C builder threads to exit before forking the pool
        (a fork with other threads alive can deadlock the child), but
        only while the run may go on: the stop reason once the deadline
        passes or the run is cancelled, else None."""
        while True:
            reason = self._token_reason()
            if reason in ("deadline", "interrupt"):
                return reason
            if self._deadline_expired():
                return "deadline"
            if cgen.wait(timeout=0.05):
                return None

    def _pool_epoch(self, mp_context, token, pending):
        """One pool lifetime: dispatch until done or a restart is needed."""
        from repro.runtime import engine

        budget = self.budget
        now = time.monotonic()
        queue: dict[int, float] = {i: now for i in pending}  # not-before
        requeue = queue.__setitem__
        inflight: dict[int, tuple] = {}  # index -> (result, started, attempt)
        pool = mp_context.Pool(
            processes=self.workers,
            initializer=engine._set_worker_token,
            initargs=(token,),
        )
        pids = {worker.pid for worker in pool._pool}
        self._watch_pids = sorted(pids) + [os.getpid()]
        try:
            while queue or inflight:
                now = time.monotonic()
                run_cancel = self._token_reason()
                if (
                    run_cancel in ("deadline", "interrupt")
                    or self._deadline_expired(now)
                ):
                    # Run-level stop: cancel cooperatively through the
                    # token (no pool teardown), keep whatever lands in
                    # the grace window, fail the rest structurally.
                    reason = run_cancel or "deadline"
                    self._cancel(reason)
                    self._drain(
                        inflight, requeue,
                        budget.drain_grace_s if self._token() is not None
                        else 0.0,
                    )
                    self._stop(list(queue) + list(inflight), reason)
                    return "done", []
                progressed = False
                if run_cancel is None:
                    for index in [i for i, t in queue.items() if t <= now]:
                        del queue[index]
                        attempt = self.attempts[index] + 1
                        result = pool.apply_async(
                            engine._chunk_worker,
                            ((index, attempt, *self.bounds[index]),),
                        )
                        inflight[index] = (result, now, attempt)
                        progressed = True
                restart_reason = None
                timed_out = None
                for index, (result, started, attempt) in list(inflight.items()):
                    if result.ready():
                        del inflight[index]
                        progressed = True
                        self._settle(index, attempt, result.get, requeue)
                    elif (
                        budget.chunk_timeout_s is not None
                        and time.monotonic() - started > budget.chunk_timeout_s
                    ):
                        restart_reason = "timeout"
                        timed_out = index
                        break
                if run_cancel == "watchdog" and not progressed:
                    # Hard RSS breach: every in-flight chunk parks at
                    # its next poll and is bisected; the pool is then
                    # recycled so the workers' bloated heaps actually
                    # go back to the OS (a cancelled chunk frees Python
                    # objects, not the process's high-water mark).
                    self._drain(inflight, requeue, budget.drain_grace_s)
                    self._reset_token()
                    for index, (result, _s, attempt) in inflight.items():
                        if index not in self.done:
                            self._casualty(index, attempt, "watchdog", None,
                                           requeue)
                    return "restart", sorted(queue)
                if restart_reason is None and inflight:
                    # Health check: a replaced or exited worker means its
                    # in-flight task is lost forever (Pool repopulates
                    # workers but never re-runs their tasks).
                    alive = pool._pool
                    if (
                        any(w.exitcode is not None for w in alive)
                        or {w.pid for w in alive} != pids
                    ):
                        restart_reason = "worker-lost"
                if restart_reason == "timeout" and self._token() is not None:
                    # Cooperative preemption: flip the token so healthy
                    # in-flight chunks park at their next poll, keep
                    # every result that lands in the grace window,
                    # bisect the wedged chunk, and only recycle the
                    # pool if a worker is still unresponsive afterwards.
                    self._cancel("preempt")
                    self._drain(inflight, requeue, budget.drain_grace_s,
                                charged=timed_out)
                    self._reset_token()
                    if not inflight:
                        continue
                    for index, (result, _s, attempt) in inflight.items():
                        if index not in self.done:
                            self._casualty(index, attempt, "timeout", None,
                                           requeue)
                    return "restart", sorted(queue)
                if restart_reason is not None:
                    # Ungoverned ladder: the pool cannot cancel a
                    # running task, so the whole pool is recycled after
                    # draining finished results.
                    self._drain(inflight, requeue, 0.0)
                    for index, (result, started, attempt) in inflight.items():
                        if index in self.done:
                            continue
                        if self._record_failure(
                            index, attempt, restart_reason, None
                        ):
                            requeue(index, 0.0)
                    return "restart", sorted(queue)
                if not progressed:
                    time.sleep(budget.poll_interval_s)
            return "done", []
        finally:
            pool.terminate()
            pool.join()

    def _drain(self, inflight: dict, requeue, grace: float,
               charged: int | None = None) -> None:
        """Settle in-flight results that finish within ``grace`` seconds.

        With zero grace this consumes the already-finished results
        before a pool is abandoned; with ``drain_grace_s`` it waits for
        token-cancelled chunks to park, so healthy in-flight work is
        never discarded by a preemption.  ``charged`` is the wedged
        chunk that caused a preemption: its park is a timeout casualty,
        every other park is requeued uncharged.
        """
        deadline = time.monotonic() + grace
        while inflight:
            progressed = False
            for index, (result, _s, attempt) in list(inflight.items()):
                if not result.ready():
                    continue
                del inflight[index]
                progressed = True
                self._settle(index, attempt, result.get, requeue,
                             charge=index == charged)
            if not inflight or time.monotonic() >= deadline:
                return
            if not progressed:
                time.sleep(self.budget.poll_interval_s)

    # ------------------------------------------------------------------
    # In-process serial path (non-POSIX hosts, workers=1, degraded mode)
    # ------------------------------------------------------------------
    def _run_serial(self, pending: list[int]) -> None:
        from repro.runtime.engine import run_chunk

        self._watch_pids = [os.getpid()]
        # (index, not_before) pairs.  Requeued chunks go to the front,
        # so a retry runs in place and bisected halves run next.
        queue = [(index, 0.0) for index in pending]
        while queue:
            index, not_before = queue.pop(0)
            if index in self.done or index not in self.bounds:
                continue
            pause = not_before - time.monotonic()
            if self.deadline_at is not None:
                pause = min(pause, self.deadline_at - time.monotonic())
            if pause > 0:
                time.sleep(pause)
            if self._deadline_expired():
                self._stop([index, *(i for i, _ in queue)], "deadline")
                return
            attempt = self.attempts[index] + 1

            def outcome():
                chunk_ctx = ExecutionContext(
                    self.plan.root.num_tables, predicates=self.predicates,
                    faults=self.faults, cache=self.cache,
                    resources=self.resources,
                )
                return (index, attempt, *run_chunk(
                    self.plan, self.graph, chunk_ctx, index, attempt,
                    *self.bounds[index], self.executor, allow_exit=False,
                ))

            requeued: list[tuple[int, float]] = []
            reason = self._settle(
                index, attempt, outcome,
                lambda i, t: requeued.append((i, t)),
            )
            queue[:0] = requeued
            if reason in ("watchdog", "preempt"):
                # Chunk-level casualty: clear the flag (there is no pool
                # to recycle in-process) before the next attempt runs.
                self._reset_token()
            elif reason in ("deadline", "interrupt"):
                self._stop([i for i, _ in queue], reason)
                return
