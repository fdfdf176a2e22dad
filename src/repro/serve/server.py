"""The ``repro serve`` daemon: one graph, many concurrent clients.

The server shares the graph into a single shared-memory segment at
startup (``repro.graph.shared``) and keeps one
:class:`~repro.api.session.DecoMine` session over that view for its
whole lifetime, so

* every parallel run's fork workers attach the *same* segment zero-copy
  (the engine detects ``graph.shared_descriptor`` and skips its per-run
  copy), and
* the session's in-memory plan cache plus the persistent
  :class:`~repro.compiler.plancache.PlanCache` make repeat patterns skip
  profile+compile+search entirely.

Admission control is a two-stage budget: at most ``max_inflight``
requests execute concurrently and at most ``max_pending`` more may wait
for a slot — anything beyond that is *rejected immediately* with an
``ok=False`` response rather than queued without bound.  Per-request
deadlines ride the existing supervisor machinery
(``RunPolicy.budget.deadline_s`` flips the run's shared cancel token),
and a server-wide :class:`~repro.runtime.resources.ResourceBudget` can
govern every run.  Every executed run's ledger row is tagged with the
submitting client id via :func:`repro.observe.ledger.run_tags`.
"""

from __future__ import annotations

import os
import re
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.api.messages import (
    MiningRequest,
    MiningResponse,
    batch_requests_from_wire,
)
from repro.api.session import DecoMine
from repro.exceptions import ReproError
from repro.graph import shared as shared_mod
from repro.observe import metrics as om
from repro.observe.ledger import new_run_id, run_tags
from repro.patterns.isomorphism import canonical_code
from repro.serve.protocol import ProtocolError, read_message, send_message

__all__ = ["MiningServer", "ServerConfig"]

_CLIENT_ID_SANITIZER = re.compile(r"[^A-Za-z0-9_]")


class _Inflight:
    """One in-flight run that identical concurrent requests can join."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: MiningResponse | None = None


@dataclass(frozen=True)
class ServerConfig:
    """Everything about the daemon that is not the graph itself."""

    socket_path: str
    #: Concurrent executions; further admitted requests wait.
    max_inflight: int = 2
    #: Requests allowed to wait for an execution slot; beyond this,
    #: submissions are rejected immediately.
    max_pending: int = 4
    #: Deadline applied to requests that do not bring their own.
    default_deadline_s: float | None = None
    #: Accept-loop poll interval (also bounds shutdown latency).
    poll_interval_s: float = 0.1


class MiningServer:
    """A blocking daemon serving mining requests over a Unix socket.

    Construct, then either :meth:`serve_forever` (blocks until a
    shutdown request or :meth:`stop`) or :meth:`start` /:meth:`stop`
    around test code.  Always :meth:`close` (or use as a context
    manager): it unlinks the shared graph segment and the socket file.
    """

    def __init__(
        self,
        graph,
        config: ServerConfig,
        *,
        session_factory=None,
        **session_kwargs,
    ) -> None:
        self.config = config
        self._handle = shared_mod.share_graph(graph)
        factory = session_factory if session_factory is not None else DecoMine
        self.session = factory(self._handle.graph, **session_kwargs)
        self._slots = threading.Semaphore(config.max_inflight)
        self._pending = 0
        self._inflight = 0
        self._state_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        self._sock: socket.socket | None = None
        self._started = time.time()
        self._coalesce_lock = threading.Lock()
        self._inflight_runs: dict[tuple, _Inflight] = {}
        self.stats = {
            "requests": 0,
            "responses": 0,
            "rejections": 0,
            "errors": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "batches": 0,
            "per_client": {},
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start the accept loop in a thread."""
        path = Path(self.config.socket_path)
        if path.exists():
            path.unlink()
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(path))
        self._sock.listen(16)
        self._sock.settimeout(self.config.poll_interval_s)
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)

    def serve_forever(self) -> None:
        """Run until a shutdown request (or :meth:`stop`) arrives."""
        if self._sock is None:
            self.start()
        try:
            while not self._stop_event.wait(self.config.poll_interval_s):
                pass
        finally:
            self.close()

    def stop(self) -> None:
        self._stop_event.set()

    def close(self) -> None:
        """Stop accepting, join connection threads, release the segment."""
        self._stop_event.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        try:
            Path(self.config.socket_path).unlink()
        except OSError:
            pass
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MiningServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while not self._stop_event.is_set():
                try:
                    message = read_message(reader)
                except ProtocolError as exc:
                    self._bump("errors")
                    send_message(conn, {"op": "error", "error": str(exc)})
                    continue
                if message is None:
                    return
                try:
                    reply = self._dispatch(message)
                except ReproError as exc:
                    self._bump("errors")
                    reply = {"op": "error", "error": str(exc)}
                except Exception as exc:  # never kill the connection
                    self._bump("errors")
                    reply = {"op": "error",
                             "error": f"{type(exc).__name__}: {exc}"}
                try:
                    send_message(conn, reply)
                except OSError:
                    return
                if reply.get("op") == "bye":
                    return
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:
                pass

    def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "submit":
            response = self.handle_request(
                MiningRequest.from_wire(message.get("request"))
            )
            return {"op": "response", "response": response.to_wire()}
        if op == "submit_batch":
            responses = self.handle_batch(
                batch_requests_from_wire(message.get("requests"))
            )
            return {"op": "response_batch",
                    "responses": [r.to_wire() for r in responses]}
        if op == "ping":
            return {"op": "pong", "stats": self.snapshot()}
        if op == "stats":
            return {"op": "stats", "stats": self.snapshot(),
                    "metrics": om.REGISTRY.snapshot()}
        if op == "shutdown":
            self._stop_event.set()
            return {"op": "bye"}
        raise ReproError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Request execution: admission control + the shared session
    # ------------------------------------------------------------------
    def handle_request(self, request: MiningRequest) -> MiningResponse:
        """Admit (or reject) one request and execute it.

        Directly callable without a socket — the smoke tests and the
        in-process tests exercise exactly the daemon's code path.

        Identical concurrent requests *coalesce*: when a request arrives
        while another with the same work identity (canonical pattern,
        induced flag, engine override, deadline) is already executing,
        the latecomer waits for that run and reuses its successful
        response instead of consuming an execution slot.  Failed or
        rejected leader runs are not reused — the follower then executes
        normally (and may itself become the leader for the next wave).
        """
        self._bump("requests")
        self._client_counter(request.client_id, "requests")
        request = self._apply_default_deadline(request)

        def run() -> MiningResponse:
            [response] = self._admit_and_run(
                [request], lambda batch: [self.session.submit(batch[0])])
            return response

        key = self._coalesce_key(request)
        if key is None:
            return run()
        while True:
            with self._coalesce_lock:
                entry = self._inflight_runs.get(key)
                leading = entry is None
                if leading:
                    entry = _Inflight()
                    self._inflight_runs[key] = entry
            if leading:
                try:
                    response = run()
                    entry.response = response
                    return response
                finally:
                    with self._coalesce_lock:
                        self._inflight_runs.pop(key, None)
                    entry.event.set()
            entry.event.wait()
            response = entry.response
            if response is not None and response.ok:
                self._bump("coalesced")
                self._bump("responses")
                om.counter(
                    "repro_serve_coalesced_total",
                    "requests answered by joining an identical "
                    "in-flight run",
                ).inc()
                return replace(
                    response,
                    request_id=request.request_id or response.request_id,
                    client_id=request.client_id,
                    metrics=dict(response.metrics),
                )
            # The leader failed or was rejected: loop and run ourselves
            # (possibly becoming the leader other waiters join).

    def _apply_default_deadline(self, request: MiningRequest) -> MiningRequest:
        if request.deadline_s is None and self.config.default_deadline_s:
            request = replace(request,
                              deadline_s=self.config.default_deadline_s)
        return request

    def _coalesce_key(self, request: MiningRequest) -> "tuple | None":
        """Work identity for coalescing; None = never coalesce.

        Canonical pattern code (so isomorphic submissions share a run),
        the induced flag, the engine override, and the effective
        deadline.  Constrained/mine-mode requests carry callables whose
        identity the server cannot compare — they never coalesce.
        """
        if request.mode != "count" or request.constraints:
            return None
        return (
            repr(canonical_code(request.pattern)),
            bool(request.induced),
            repr(request.engine),
            request.deadline_s,
        )

    def handle_batch(self, requests) -> list[MiningResponse]:
        """Execute a request batch as one shared-subpattern DAG run.

        The whole batch consumes *one* execution slot — a batch is one
        unit of work for admission purposes, exactly as it is one DAG
        run for the engine.  On rejection every request in the batch
        gets its own ``ok=False`` admission response.
        """
        requests = list(requests)
        if not requests:
            raise ReproError("a batch needs at least one request")
        for request in requests:
            self._bump("requests")
            self._client_counter(request.client_id, "requests")
        requests = [self._apply_default_deadline(r) for r in requests]

        def run_batch(batch) -> list[MiningResponse]:
            responses = self.session.submit_batch(batch)
            self._bump("batches")
            om.counter("repro_serve_batches_total",
                       "request batches executed as one DAG run").inc()
            return responses

        return self._admit_and_run(requests, run_batch)

    def _admit_and_run(self, requests, call) -> list[MiningResponse]:
        """Admit ``requests`` as one unit of work and run ``call`` on them.

        The single admission path of the daemon: one execution slot, the
        in-flight gauge, the ledger client tag (plus the request id when
        the unit is one request) and the response counters.  A rejection
        returns one ``ok=False`` admission response per request.
        """
        if not self._admit():
            om.counter("repro_serve_rejections_total",
                       "requests rejected by admission control"
                       ).inc(len(requests))
            rejected = []
            for request in requests:
                self._bump("rejections")
                self._client_counter(request.client_id, "rejections")
                rejected.append(MiningResponse(
                    request_id=request.request_id or new_run_id(),
                    client_id=request.client_id,
                    ok=False,
                    mode=request.mode,
                    error=(f"admission rejected: "
                           f"{self.config.max_inflight} in flight and "
                           f"{self.config.max_pending} pending"),
                ))
            return rejected
        request_tag = (requests[0].request_id or None
                       if len(requests) == 1 else None)
        try:
            with self._state_lock:
                self._inflight += 1
                om.gauge("repro_serve_inflight",
                         "requests currently executing").set(self._inflight)
            with run_tags(client=requests[0].client_id, request=request_tag):
                responses = call(requests)
        finally:
            with self._state_lock:
                self._inflight -= 1
                om.gauge("repro_serve_inflight",
                         "requests currently executing").set(self._inflight)
            self._slots.release()
        om.counter("repro_serve_requests_total",
                   "requests accepted and executed").inc(len(requests))
        for response in responses:
            self._bump("responses")
            if response.plan_cache_hit:
                self._bump("cache_hits")
                om.counter("repro_serve_cache_hits_total",
                           "responses served from a plan cache").inc()
        return responses

    def _admit(self) -> bool:
        """Take an execution slot, waiting in the bounded pending queue.

        Returns False (reject) when ``max_pending`` requests are already
        waiting; otherwise blocks until a slot frees up.
        """
        if self._slots.acquire(blocking=False):
            return True
        with self._state_lock:
            if self._pending >= self.config.max_pending:
                return False
            self._pending += 1
            om.gauge("repro_serve_queue_depth",
                     "requests waiting for an execution slot"
                     ).set(self._pending)
        try:
            self._slots.acquire()
        finally:
            with self._state_lock:
                self._pending -= 1
                om.gauge("repro_serve_queue_depth",
                         "requests waiting for an execution slot"
                         ).set(self._pending)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        graph = self.session.graph
        with self._state_lock:
            state = {
                "uptime_s": time.time() - self._started,
                "pid": os.getpid(),
                "inflight": self._inflight,
                "pending": self._pending,
                "max_inflight": self.config.max_inflight,
                "max_pending": self.config.max_pending,
                "graph": {
                    "name": getattr(graph, "name", None),
                    "vertices": int(graph.num_vertices),
                    "edges": int(graph.num_edges),
                    "segment": self._handle.name if self._handle else None,
                },
                "plan_cache": (self.session.plan_cache.stats()
                               if self.session.plan_cache else None),
                **{key: (dict(value) if isinstance(value, dict) else value)
                   for key, value in self.stats.items()},
            }
        return state

    def _bump(self, key: str) -> None:
        with self._state_lock:
            self.stats[key] += 1

    def _client_counter(self, client_id: str, what: str) -> None:
        tenant = _CLIENT_ID_SANITIZER.sub("_", client_id) or "anonymous"
        with self._state_lock:
            per = self.stats["per_client"].setdefault(
                tenant, {"requests": 0, "rejections": 0})
            per[what] += 1
        om.counter(f"repro_serve_client_{what}_total_{tenant}",
                   f"per-tenant {what} for client {tenant}").inc()
