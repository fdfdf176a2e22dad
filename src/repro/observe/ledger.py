"""Append-only run ledger: a durable record of every execution.

The observability layer (tracing, metrics, calibration) answers
questions about the *current* run; the ledger adds **history**.  When a
ledger is active, every ``execute_plan`` call appends one JSON line
describing what ran and what it cost:

* a generated ``run_id`` (time-sortable, unique per process lifetime),
* the plan fingerprint (the supervisor's checkpoint identity — plan
  spec, executor, graph fingerprint, chunk count) and the graph
  fingerprint (CSR-content hash, memoized on the graph),
* the frozen :class:`~repro.runtime.engine.EngineOptions` and
  supervision policy the run executed under,
* the full :class:`~repro.runtime.engine.ExecutionMetrics` view
  (kernel/cache counters, retries, pool restarts, resumed chunks),
* a per-phase span rollup (``profile`` / ``compile`` / ``search`` /
  ``execute`` seconds) fed by the same call sites the tracing spans
  wrap — but independent of whether tracing is enabled.

Records are plain dicts on disk (one JSON object per line, torn final
lines skipped on load, exactly like the supervisor's
:class:`~repro.runtime.supervisor.CheckpointStore`), and
:class:`RunRecord` views on read.  :meth:`Ledger.runs` is the query
API; the ``repro history`` CLI renders it as a table or JSON.

Like the rest of :mod:`repro.observe` the ledger is **off by default**:
with no active ledger every hook is one module-flag check
(``scripts/observe_overhead.py`` gates the enabled cost below 2% on the
fig16 supervised 4-worker run).
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "Ledger",
    "RunRecord",
    "active_ledger",
    "current_tags",
    "disable_ledger",
    "enable_ledger",
    "graph_fingerprint",
    "new_run_id",
    "note_phase",
    "run_tags",
    "take_phases",
]

#: Default on-disk location (override with the ``REPRO_LEDGER`` env var
#: or an explicit path to :func:`enable_ledger` / ``Ledger(path)``).
DEFAULT_LEDGER_PATH = ".repro/ledger.jsonl"

_ACTIVE: "Ledger | None" = None
_PENDING_PHASES: dict[str, float] = {}
_RUN_SEQ = itertools.count(1)


def default_ledger_path() -> Path:
    """The ledger path used when none is given explicitly."""
    return Path(os.environ.get("REPRO_LEDGER", DEFAULT_LEDGER_PATH))


def new_run_id() -> str:
    """A time-sortable, collision-resistant run identifier.

    ``<epoch-seconds-hex>-<seq>-<random>``: sortable by wall clock at
    one-second granularity, strictly ordered within a process by the
    sequence counter, and disambiguated across processes by random
    bytes.
    """
    return (f"{int(time.time()):08x}"
            f"-{next(_RUN_SEQ):04x}"
            f"-{os.urandom(3).hex()}")


#: Context-local tags stamped onto every record the current task
#: produces — the daemon tags runs with the submitting client id.
_RUN_TAGS: "contextvars.ContextVar[tuple]" = contextvars.ContextVar(
    "repro_run_tags", default=()
)


def current_tags() -> dict:
    """The tags the active :func:`run_tags` scope will stamp on records."""
    return dict(_RUN_TAGS.get())


@contextmanager
def run_tags(**tags):
    """Stamp ``tags`` onto every run recorded inside the scope.

    Context-local (``contextvars``), so concurrent daemon requests on
    different threads/tasks each see only their own tags; nested scopes
    merge, inner keys winning.
    """
    merged = dict(_RUN_TAGS.get())
    merged.update({k: v for k, v in tags.items() if v is not None})
    token = _RUN_TAGS.set(tuple(merged.items()))
    try:
        yield
    finally:
        _RUN_TAGS.reset(token)


def graph_fingerprint(graph) -> str:
    """Content hash of a CSR graph, memoized on the graph itself.

    Covers the adjacency structure (indptr/indices bytes) and labels,
    so two runs share a fingerprint iff they ran on identical graphs —
    the key the ledger query API filters on, the plan cache keys on
    and the supervisor's checkpoint fingerprint covers.  The memo lives
    in the graph's ``_fingerprint`` slot, so it dies with the graph.
    """
    if graph._fingerprint is not None:
        return graph._fingerprint
    digest = hashlib.sha256()
    digest.update(str(graph.num_vertices).encode())
    digest.update(b"\x00")
    digest.update(str(graph.num_edges).encode())
    digest.update(b"\x00")
    digest.update(memoryview(graph.indptr).cast("B"))
    digest.update(memoryview(graph.indices).cast("B"))
    if graph.labels is not None:
        digest.update(memoryview(graph.labels).cast("B"))
    graph._fingerprint = digest.hexdigest()[:16]
    return graph._fingerprint


# ----------------------------------------------------------------------
# Active-ledger lifecycle
# ----------------------------------------------------------------------

def enable_ledger(path: "str | os.PathLike | Ledger | None" = None) -> "Ledger":
    """Install a process-wide ledger; every execution records into it."""
    global _ACTIVE
    if isinstance(path, Ledger):
        _ACTIVE = path
    else:
        _ACTIVE = Ledger(path if path is not None else default_ledger_path())
    _PENDING_PHASES.clear()
    return _ACTIVE


def disable_ledger() -> "Ledger | None":
    """Uninstall the active ledger (returns it, closed)."""
    global _ACTIVE
    ledger, _ACTIVE = _ACTIVE, None
    _PENDING_PHASES.clear()
    if ledger is not None:
        ledger.close()
    return ledger


def active_ledger() -> "Ledger | None":
    return _ACTIVE


def note_phase(name: str, seconds: float) -> None:
    """Accumulate one pre-execution phase's duration (profile/compile/
    search) for the next top-level run record.  No-op without an active
    ledger, so instrumented call sites cost one flag check."""
    if _ACTIVE is None:
        return
    _PENDING_PHASES[name] = _PENDING_PHASES.get(name, 0.0) + float(seconds)


def take_phases() -> dict[str, float]:
    """Pop the accumulated phase rollup (empty when nothing was noted)."""
    phases = dict(_PENDING_PHASES)
    _PENDING_PHASES.clear()
    return phases


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """One ledger line, as a typed read view."""

    run_id: str
    ts: float
    pattern: str
    mode: str
    plan_fingerprint: str
    graph_fingerprint: str
    graph: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    policy: dict | None = None
    seconds: float = 0.0
    raw_count: int = 0
    divisor: int = 1
    ok: bool = True
    chunks: int = 0
    aux: bool = False
    metrics: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    #: Cancel-token reason that stopped the run early, or None.
    cancelled: str | None = None
    #: Salvage state of a cancelled/incomplete run (completed work
    #: fraction, chunk tallies, unfinished bounds), or None.
    salvage: dict | None = None
    #: Caller-supplied tags (e.g. the daemon's client id) from the
    #: enclosing :func:`run_tags` scope; empty for untagged runs.
    tags: dict = field(default_factory=dict)
    #: Where the plan ran (``"c"`` or ``"python"``) and why not C; None
    #: on rows written before the native target existed.
    target: str | None = None
    fallback: str | None = None

    @property
    def embedding_count(self) -> int | None:
        """The user-facing count (None when the run was incomplete)."""
        if not self.ok or self.divisor == 0:
            return None
        if self.raw_count % self.divisor:
            return None
        return self.raw_count // self.divisor

    @property
    def iso_time(self) -> str:
        return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(self.ts))

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "ts": self.ts,
            "pattern": self.pattern,
            "mode": self.mode,
            "plan_fingerprint": self.plan_fingerprint,
            "graph_fingerprint": self.graph_fingerprint,
            "graph": dict(self.graph),
            "options": dict(self.options),
            "policy": dict(self.policy) if self.policy else None,
            "seconds": self.seconds,
            "raw_count": self.raw_count,
            "divisor": self.divisor,
            "ok": self.ok,
            "chunks": self.chunks,
            "aux": self.aux,
            "metrics": dict(self.metrics),
            "phases": dict(self.phases),
            "cancelled": self.cancelled,
            "salvage": dict(self.salvage) if self.salvage else None,
            "tags": dict(self.tags),
            "target": self.target,
            "fallback": self.fallback,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RunRecord":
        return cls(
            run_id=str(record["run_id"]),
            ts=float(record.get("ts", 0.0)),
            pattern=str(record.get("pattern", "")),
            mode=str(record.get("mode", "count")),
            plan_fingerprint=str(record.get("plan_fingerprint", "")),
            graph_fingerprint=str(record.get("graph_fingerprint", "")),
            graph=dict(record.get("graph", {})),
            options=dict(record.get("options", {})),
            policy=(dict(record["policy"])
                    if record.get("policy") else None),
            seconds=float(record.get("seconds", 0.0)),
            raw_count=int(record.get("raw_count", 0)),
            divisor=int(record.get("divisor", 1)),
            ok=bool(record.get("ok", True)),
            chunks=int(record.get("chunks", 0)),
            aux=bool(record.get("aux", False)),
            metrics=dict(record.get("metrics", {})),
            phases=dict(record.get("phases", {})),
            cancelled=(str(record["cancelled"])
                       if record.get("cancelled") else None),
            salvage=(dict(record["salvage"])
                     if record.get("salvage") else None),
            tags=dict(record.get("tags") or {}),
            target=record.get("target"),
            fallback=record.get("fallback"),
        )


class Ledger:
    """Append-only JSON-lines store of :class:`RunRecord` lines.

    Writes are flushed per record, so a killed process loses at most
    the line it was writing; a torn final line is skipped on load.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None

    # ---------------- write side ----------------
    def append(self, record: "RunRecord | dict") -> None:
        if isinstance(record, RunRecord):
            record = record.to_dict()
        if self._fh is None:
            if self.path.parent != Path("."):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------- read side ----------------
    def _iter_records(self) -> Iterator[dict]:
        try:
            text = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write from a killed run
            if isinstance(record, dict) and "run_id" in record:
                yield record

    def runs(
        self,
        pattern: str | None = None,
        graph: str | None = None,
        since: float | str | None = None,
        last: int | None = None,
        include_aux: bool = True,
    ) -> list[RunRecord]:
        """Query the ledger, oldest first.

        ``pattern`` matches the recorded pattern name exactly; ``graph``
        is a graph-fingerprint prefix (so the short forms the CLI prints
        work); ``since`` is a UNIX timestamp or ``YYYY-MM-DD[THH:MM:SS]``
        string; ``last`` keeps only the N most recent matches.
        """
        cutoff = _parse_since(since)
        out: list[RunRecord] = []
        for raw in self._iter_records():
            try:
                record = RunRecord.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue
            if pattern is not None and record.pattern != pattern:
                continue
            if graph is not None and not record.graph_fingerprint.startswith(
                graph
            ):
                continue
            if cutoff is not None and record.ts < cutoff:
                continue
            if not include_aux and record.aux:
                continue
            out.append(record)
        if last is not None and last >= 0:
            out = out[len(out) - min(last, len(out)):]
        return out


def _parse_since(since: float | str | None) -> float | None:
    if since is None:
        return None
    if isinstance(since, (int, float)):
        return float(since)
    text = since.strip()
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
        try:
            return time.mktime(time.strptime(text, fmt))
        except ValueError:
            continue
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"unparseable --since value {since!r}; use a UNIX timestamp "
            "or YYYY-MM-DD[THH:MM:SS]"
        ) from None


# ----------------------------------------------------------------------
# Engine hook
# ----------------------------------------------------------------------

def record_run(
    plan,
    graph,
    options,
    result,
    budget=None,
    checkpoint=None,
    supervised: bool | None = None,
    *,
    aux: bool = False,
) -> "RunRecord | None":
    """Append one execution's record to the active ledger.

    Called by ``execute_plan`` after assembling its
    :class:`~repro.runtime.engine.ExecutionResult`; a no-op (one flag
    check) when no ledger is active.  Top-level runs consume the
    pending phase rollup; aux (globally-counted shrinkage correction)
    runs record under their own fingerprints with ``aux=True``.
    """
    if _ACTIVE is None:
        return None
    from repro.runtime.supervisor import plan_fingerprint

    phases = {} if aux else take_phases()
    phases["execute"] = float(result.seconds)
    record = RunRecord(
        run_id=new_run_id(),
        ts=time.time(),
        pattern=plan.pattern.name or repr(plan.pattern),
        mode=plan.mode,
        plan_fingerprint=plan_fingerprint(
            plan, graph, options.executor, max(1, len(result.chunk_seconds))
        ),
        graph_fingerprint=graph_fingerprint(graph),
        graph={
            "name": getattr(graph, "name", None),
            "vertices": int(graph.num_vertices),
            "edges": int(graph.num_edges),
        },
        options={
            "workers": options.workers,
            "chunks_per_worker": options.chunks_per_worker,
            "executor": options.executor,
            "cache": (options.cache if isinstance(options.cache, (bool, int))
                      else True),
            "orientation": options.orientation,
            "faults": options.faults is not None,
            "progress": getattr(options, "progress", None) is not None,
        },
        policy=_policy_dict(budget, checkpoint, supervised),
        seconds=float(result.seconds),
        raw_count=int(result.raw_count),
        divisor=int(result.divisor),
        ok=bool(result.ok),
        chunks=len(result.chunk_seconds),
        aux=aux,
        metrics=result.metrics.as_dict(),
        phases=phases,
        cancelled=getattr(result, "cancelled", None),
        salvage=getattr(result, "salvage", None),
        tags=current_tags(),
        target=getattr(result, "target", None),
        fallback=getattr(result, "fallback", None),
    )
    _ACTIVE.append(record)
    return record


def _policy_dict(budget, checkpoint, supervised) -> dict | None:
    if budget is None and checkpoint is None and supervised is None:
        return None
    out: dict = {"supervised": bool(supervised)}
    if budget is not None:
        out["budget"] = {
            "deadline_s": budget.deadline_s,
            "chunk_timeout_s": budget.chunk_timeout_s,
            "max_chunk_retries": budget.max_chunk_retries,
            "max_retries": budget.max_retries,
            "max_pool_restarts": budget.max_pool_restarts,
        }
    if checkpoint is not None:
        out["checkpoint"] = str(getattr(checkpoint, "path", checkpoint))
    return out
