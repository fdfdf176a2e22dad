"""Execution context shared by the interpreter and generated code.

Bundles everything a plan needs beyond the graph itself: the shrinkage
hash tables, the user predicates for label constraints, the UDF sink for
partial embeddings, the accumulator storage merged across parallel
chunks (paper section 7.4's privatization), and the per-chunk set-op
memo cache.

The context is also the kernel routing point: generated code and the
interpreter both fetch their ``intersect``/``subtract`` entry points from
the context (``ctx.intersect`` / ``ctx.subtract``), which are either the
raw adaptive kernels of :mod:`repro.runtime.setops` or, when the memo
cache is enabled (the default), the cache's memoizing wrappers.  Routing
through one place is what keeps the two executors bit-identical and lets
the cache be toggled without recompiling plans.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.graph import vertex_set as vs
from repro.runtime.hashtable import ShrinkageTable
from repro.runtime.setops import DEFAULT_CACHE_CAPACITY, SetOpCache

__all__ = ["ExecutionContext"]

EmitFn = Callable[[int, tuple[int, ...], int], None]


class ExecutionContext:
    """Mutable per-execution state.

    Parameters
    ----------
    num_tables:
        Number of shrinkage-discount tables (one per subpattern in emit
        mode).
    predicates:
        Callables indexed by ``IfPred.pred``; each receives the bound
        graph vertices of its constraint fragment.
    emit:
        Sink for ``EmitPartial`` — receives ``(subpattern_index,
        graph_vertices, count)``.
    cache:
        Per-chunk set-op memo cache policy: ``True`` (default) builds a
        :class:`~repro.runtime.setops.SetOpCache` with the default entry
        cap, an ``int`` caps it explicitly, ``False``/``None`` disables
        memoization, and a ready-made :class:`SetOpCache` is used as-is.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; chunked
        executions call :meth:`fire_faults` at the start of every chunk
        attempt, which is how the deterministic fault-injection harness
        reaches worker processes (the context is the one object every
        chunk rebuilds from fork state).
    resources:
        Optional :class:`~repro.runtime.resources.ResourceGovernor` for
        resource-governed executions.  Installs ``poll_cancel`` — the
        cooperative-cancellation hook all three executors call at loop
        boundaries — and the frontier accounting the vectorized backend
        reads.  Without a governor ``poll_cancel`` is a module-level
        no-op, so ungoverned runs pay one global load per poll site.
    """

    def __init__(
        self,
        num_tables: int = 0,
        predicates: Sequence[Callable] = (),
        emit: EmitFn | None = None,
        cache: SetOpCache | bool | int | None = True,
        faults=None,
        resources=None,
    ) -> None:
        self.tables = [ShrinkageTable() for _ in range(num_tables)]
        self.predicates = list(predicates)
        self.emit = emit if emit is not None else _ignore_emit
        self.faults = faults
        self.resources = resources
        self.poll_cancel = resources.poll if resources is not None else _no_poll
        self.accumulators: dict[str, int] = {}
        # Set-operation namespace used by generated code.
        self.vs = vs
        if cache is True:
            cache = SetOpCache(DEFAULT_CACHE_CAPACITY)
        elif cache is False:
            cache = None
        elif isinstance(cache, int):
            cache = SetOpCache(cache)
        self.cache: SetOpCache | None = cache
        # Kernel entry points for both executors (cache-routed when on).
        if cache is not None:
            self.intersect = cache.intersect
            self.subtract = cache.subtract
        else:
            self.intersect = vs.intersect
            self.subtract = vs.subtract

    def merge_accumulators(self, partial: dict[str, int]) -> None:
        """Fold one chunk's privatized accumulators into the global ones.

        Valid because all accumulator updates are associative and
        commutative (paper section 7.1).
        """
        for name, value in partial.items():
            self.accumulators[name] = self.accumulators.get(name, 0) + value

    def fire_faults(self, chunk_index: int, attempt: int,
                    allow_exit: bool = True) -> None:
        """Inject any scheduled faults for one chunk attempt (no-op
        without a fault plan).  ``allow_exit`` must be False outside a
        disposable worker process."""
        if self.faults is not None:
            self.faults.fire(chunk_index, attempt, allow_exit=allow_exit)

    def cache_counters(self) -> dict[str, int]:
        """Memo-cache counters (zeros when the cache is disabled)."""
        if self.cache is None:
            return dict.fromkeys(SetOpCache.COUNTER_FIELDS, 0)
        return self.cache.counters()


def _ignore_emit(index: int, vertices: tuple[int, ...], count: int) -> None:
    """Default sink for counting-only executions."""


def _no_poll() -> None:
    """Default cancel-poll hook for resource-ungoverned executions."""
