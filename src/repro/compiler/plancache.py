"""Persistent, versioned on-disk cache of compiled plans.

The session's in-memory plan dict dies with the process; a long-lived
service wants repeat queries to skip profile+search+codegen across
restarts and across processes.  This module provides that: a
content-addressed directory of frozen plan *specs* keyed by everything
that determines the winning plan —

* the pattern's canonical code (isomorphism-invariant, so ``house`` and
  any relabeling of it share an entry) — or, for constrained plans, the
  exact pattern plus the constraint signature (constraints name original
  vertex ids, which canonicalization would scramble),
* the induced flag and mode,
* the graph *content* fingerprint (profiles — and therefore plan
  choice — depend on the graph; see
  :func:`repro.observe.ledger.graph_fingerprint`),
* the cost-model id and the full search-options digest,
* the requested orientation,
* the cache format version.

A cache **hit** stores no executable code: the winning
:class:`~repro.compiler.specs.PlanSpec` is re-lowered deterministically
(``build_ast`` → ``optimize`` → ``compile_root``) under a single
``"plan-cache"`` tracing span — crucially *without* the ``profile``,
``compile`` or ``search`` spans a cold compile emits, which is the
observable contract warm-path tests assert.  Rebuilding from the spec
(rather than pickling the AST/closure) keeps entries small, robust to
internal AST refactors (the version gate), and guarantees bit-identical
counts: the same spec lowers to the same plan.

Writes are crash- and race-safe: each entry is pickled to a unique temp
file in the cache directory and published with ``os.replace`` (atomic on
POSIX), so concurrent writers — N daemon threads, or a daemon racing a
CLI — can never tear an entry.  Corrupted, truncated, stale-versioned or
wrong-graph entries are treated as misses and silently recompiled.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import replace
from pathlib import Path

from repro.compiler.pipeline import (
    CompiledPlan,
    _uncorrected,
    compile_pattern,
    with_corrections,
)
from repro.compiler.search import SearchOptions
from repro.costmodel import CostProfile
from repro.observe.ledger import note_phase
from repro.observe.trace import span
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern

__all__ = [
    "CACHE_FORMAT_VERSION",
    "PlanCache",
    "default_cache_path",
    "options_digest",
    "plan_key",
]

#: Bump on any change to the entry payload layout *or* to spec lowering
#: semantics (build/passes/codegen): stale-version entries are misses.
CACHE_FORMAT_VERSION = 1

#: Environment override for the default cache directory.
CACHE_ENV_VAR = "REPRO_PLAN_CACHE"

_ENTRY_SUFFIX = ".plan"


def default_cache_path() -> Path:
    """The cache directory used when none is given explicitly."""
    return Path(os.environ.get(CACHE_ENV_VAR, ".repro/plancache"))


def options_digest(options: SearchOptions) -> str:
    """Digest of every search knob that can change the winning plan.

    ``SearchOptions`` (and its nested ``PassOptions``) are frozen
    dataclasses, so their ``repr`` is a complete, deterministic encoding.
    """
    return hashlib.sha256(repr(options).encode()).hexdigest()[:16]


def plan_key(
    pattern: Pattern,
    *,
    graph_fingerprint: str,
    model_name: str,
    mode: str = "count",
    induced: bool = False,
    constraints: tuple = (),
    options: SearchOptions | None = None,
    orientation: str = "none",
    version: int = CACHE_FORMAT_VERSION,
) -> str:
    """The content-addressed cache key for one compilation request.

    Generalizes the supervisor's ``plan_fingerprint`` (which identifies
    a *compiled* plan for checkpointing) to identify a *compilation
    request* before any compilation happens — the property that lets a
    warm request skip profiling entirely.
    """
    if mode == "count" and not constraints:
        pattern_part = repr(canonical_code(pattern))
    else:
        # Constraint fragments and emit layouts observe original vertex
        # ids; canonicalization would conflate distinct requests.
        pattern_part = repr(pattern) + "|" + repr(constraints)
    parts = (
        str(version),
        pattern_part,
        mode,
        str(bool(induced)),
        graph_fingerprint,
        model_name,
        options_digest(options if options is not None else SearchOptions()),
        orientation,
    )
    digest = hashlib.sha256("\x00".join(parts).encode()).hexdigest()
    return digest[:32]


def _freeze_plan(plan: CompiledPlan) -> dict:
    """The minimal picklable payload a plan can be rebuilt from."""
    return {
        "spec": plan.spec,
        "mode": plan.mode,
        "cost": plan.cost,
        "model_name": plan.model_name,
        "orientation": plan.orientation,
        "aux": [
            (_freeze_plan(aux_plan), multiplier)
            for aux_plan, multiplier in plan.aux_plans
        ],
    }


def _rebuild_plan(frozen: dict, passes) -> CompiledPlan:
    """Deterministically re-lower a frozen spec to an executable plan,
    with the frozen aux plans as its corrections (a missing quotient
    class raises, which the caller reads as a miss)."""
    quotients = {canonical_code(aux["spec"].pattern): aux
                 for aux, _multiplier in frozen["aux"]}
    plan = replace(
        _uncorrected(frozen["spec"], frozen["mode"], passes),
        cost=frozen["cost"],
        model_name=frozen["model_name"],
        orientation=frozen["orientation"],
    )
    return with_corrections(
        plan, lambda code, _pattern: _rebuild_plan(quotients[code], passes))


class PlanCache:
    """A directory of compiled-plan entries, shared across processes.

    One instance per cache directory; safe for concurrent readers and
    writers (atomic-rename publication, corrupt entries read as misses).
    ``hits``/``misses``/``stores`` count this instance's traffic and are
    mirrored into the ``repro_plancache_*`` registry counters.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 max_bytes: int | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        #: Size cap for the cache directory; ``store`` prunes
        #: least-recently-used entries past it.  None = unbounded.
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        return self.path / f"{key}{_ENTRY_SUFFIX}"

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` is currently published.

        A quick existence probe (no payload validation) — ``load`` is
        the authoritative check.
        """
        return self.entry_path(key).is_file()

    def load(self, key: str, *, graph_fingerprint: str) -> CompiledPlan | None:
        """Load and re-lower the entry for ``key``; None on any miss.

        Every failure mode — missing entry, truncated or corrupted
        pickle, stale format version, a graph-fingerprint mismatch
        (hash-collision paranoia; the fingerprint is already in the
        key), or a spec the current lowering rejects — degrades to a
        miss: the caller recompiles and overwrites the entry.
        """
        started = time.perf_counter()
        try:
            raw = self.entry_path(key).read_bytes()
            payload = pickle.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("entry payload is not a dict")
            if payload.get("version") != CACHE_FORMAT_VERSION:
                raise ValueError("stale cache format version")
            if payload.get("graph_fingerprint") != graph_fingerprint:
                raise ValueError("graph fingerprint mismatch")
            with span("plan-cache", key=key, hit=True):
                plan = _rebuild_plan(payload["plan"], payload["passes"])
        except FileNotFoundError:
            self._miss()
            return None
        except Exception:
            # Corrupt/stale/incompatible: behave exactly like a cold
            # cache — the recompile path will atomically replace it.
            self._miss()
            return None
        self.hits += 1
        _count("repro_plancache_hits_total",
               "persistent plan-cache hits (profile+search skipped)")
        note_phase("plan-cache", time.perf_counter() - started)
        try:
            # LRU recency signal for eviction: a hit refreshes the
            # entry's mtime, so pruning removes the coldest plans first.
            os.utime(self.entry_path(key))
        except OSError:
            pass
        return plan

    def store(self, key: str, plan: CompiledPlan, *,
              graph_fingerprint: str, passes) -> bool:
        """Publish an entry for ``key`` (atomic; best-effort).

        ``passes`` must be the :class:`~repro.compiler.passes.PassOptions`
        the plan was optimized under (orientation included) so the
        rebuild replays the exact middle-end pipeline.  Returns False
        when the entry could not be written (read-only dir, etc.) —
        never raises for I/O trouble.
        """
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "graph_fingerprint": graph_fingerprint,
            "passes": passes,
            "plan": _freeze_plan(plan),
            "created": time.time(),
        }
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False  # unpicklable spec (shouldn't happen; stay safe)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            tmp = self.path / f".tmp-{key}-{os.getpid()}-{os.urandom(4).hex()}"
            tmp.write_bytes(data)
            os.replace(tmp, self.entry_path(key))
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except (OSError, UnboundLocalError):
                pass
            return False
        self.stores += 1
        _count("repro_plancache_stores_total",
               "persistent plan-cache entries published")
        if self.max_bytes is not None:
            self.prune()
        return True

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries past the size cap.

        Entry recency is the file mtime (refreshed on every hit), so a
        long-lived daemon keeps its hot plans and sheds the cold tail.
        Returns the number of entries removed; races with concurrent
        writers/readers are benign (a vanished entry is a miss, a
        concurrent store re-publishes).  No-op when no cap is set.
        """
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            return 0
        try:
            entries = [
                (entry.stat().st_mtime, entry.stat().st_size, entry)
                for entry in self.path.glob(f"*{_ENTRY_SUFFIX}")
            ]
        except OSError:
            return 0
        total = sum(size for _, size, _ in entries)
        if total <= cap:
            return 0
        evicted = 0
        for _, size, entry in sorted(entries):
            if total <= cap:
                break
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            from repro.observe import metrics as om

            om.counter(
                "repro_plancache_evictions_total",
                "plan-cache entries evicted by the size cap (LRU)",
            ).inc(evicted)
        return evicted

    def size_bytes(self) -> int:
        """Total bytes of published entries (best effort)."""
        try:
            return sum(
                entry.stat().st_size
                for entry in self.path.glob(f"*{_ENTRY_SUFFIX}")
            )
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def compile_cached(
        self,
        pattern: Pattern,
        profile_factory,
        model,
        *,
        graph_fingerprint: str,
        mode: str = "count",
        induced: bool = False,
        constraints: tuple = (),
        options: SearchOptions | None = None,
        orientation: str = "none",
    ) -> tuple[CompiledPlan, bool]:
        """The load-or-compile-and-store composite the session/daemon use.

        ``profile_factory`` is a zero-argument callable returning the
        :class:`CostProfile` — called only on a miss, which is exactly
        what lets a warm request skip graph profiling.  Returns
        ``(plan, hit)``.
        """
        options = options if options is not None else SearchOptions()
        key = plan_key(
            pattern,
            graph_fingerprint=graph_fingerprint,
            model_name=getattr(model, "name", str(model)),
            mode=mode,
            induced=induced,
            constraints=constraints,
            options=options,
            orientation=orientation,
        )
        plan = self.load(key, graph_fingerprint=graph_fingerprint)
        if plan is not None:
            return plan, True
        profile = profile_factory()
        if not isinstance(profile, CostProfile):
            raise TypeError(
                f"profile_factory must return a CostProfile, got {profile!r}"
            )
        plan = compile_pattern(
            pattern, profile, model, mode=mode, induced=induced,
            constraints=constraints, options=options, orientation=orientation,
        )
        # Replay passes exactly as compile_pattern applied them: the
        # orient knob is folded into the pass options for oriented
        # requests (see pipeline.compile_pattern).
        passes = options.passes
        if orientation != "none":
            passes = replace(passes, orient=orientation)
        self.store(key, plan, graph_fingerprint=graph_fingerprint,
                   passes=passes)
        return plan, False

    def stats(self) -> dict:
        return {
            "path": str(self.path),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "max_bytes": self.max_bytes,
        }

    def _miss(self) -> None:
        self.misses += 1
        _count("repro_plancache_misses_total",
               "persistent plan-cache misses (cold compiles)")


def _count(name: str, help_text: str) -> None:
    from repro.observe import metrics as om

    om.counter(name, help_text).inc()
