"""The ``repro serve`` daemon: protocol, admission control, end-to-end.

Runs the real server over real Unix sockets (in-process threads, no
subprocesses) so the tests exercise exactly the daemon's code path:
shared-memory graph, one session, plan-cache provenance, per-client
ledger tags, and the bounded admission queue.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.api.messages import (
    MiningRequest,
    MiningResponse,
    pattern_from_wire,
)
from repro.api.session import DecoMine
from repro.baselines import reference
from repro.exceptions import ReproError
from repro.graph import shared as shared_mod
from repro.graph.generators import erdos_renyi
from repro.observe import ledger as ledger_mod
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions
from repro.runtime.faults import Fault, FaultPlan
from repro.serve import Client, MiningServer, ServerConfig
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    read_message,
    send_message,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(16, 0.35, seed=3)


@pytest.fixture(scope="module")
def expected_house(graph):
    return reference.count_embeddings(graph, catalog.house())


@pytest.fixture()
def server(graph, tmp_path):
    config = ServerConfig(socket_path=str(tmp_path / "repro.sock"),
                          max_inflight=2, max_pending=2)
    with MiningServer(graph, config) as srv:
        yield srv


class TestProtocol:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "ping", "nested": {"x": [1, 2]}})
            reader = b.makefile("rb")
            assert read_message(reader) == {"op": "ping",
                                            "nested": {"x": [1, 2]}}
            a.close()
            assert read_message(reader) is None  # EOF
        finally:
            b.close()

    def test_oversized_send_refused(self):
        a, _b = socket.socketpair()
        with pytest.raises(ProtocolError, match="line cap"):
            send_message(a, {"blob": "x" * MAX_LINE_BYTES})

    def test_bad_json_and_non_object_lines(self):
        a, b = socket.socketpair()
        try:
            reader = b.makefile("rb")
            a.sendall(b"this is not json\n")
            with pytest.raises(ProtocolError, match="invalid JSON"):
                read_message(reader)
            a.sendall(b"[1,2,3]\n")
            with pytest.raises(ProtocolError, match="JSON objects"):
                read_message(reader)
        finally:
            a.close()
            b.close()


class TestServerEndToEnd:
    def test_submit_counts_and_warm_cache(self, server, expected_house):
        with Client(server.config.socket_path, client_id="t1") as client:
            cold = client.submit("house")
            assert cold.ok and cold.count == expected_house
            assert cold.plan_key
            assert cold.plan_cache_hit is False
            assert cold.run_id == ""  # no ledger enabled
            warm = client.submit("house")
            assert warm.ok and warm.count == expected_house
            assert warm.plan_cache_hit is True
            assert warm.plan_key == cold.plan_key

    def test_engine_override_and_request_id(self, server, expected_house):
        from repro.runtime.engine import EngineOptions

        with Client(server.config.socket_path) as client:
            response = client.submit(
                catalog.house(),
                engine=EngineOptions(workers=1, executor="vectorized"),
                request_id="req-7",
            )
            assert response.ok and response.count == expected_house
            assert response.request_id == "req-7"

    def test_ping_stats_and_error_recovery(self, server, graph):
        with Client(server.config.socket_path, client_id="pinger") as client:
            # A bad op errors but leaves the connection usable.
            with pytest.raises(ReproError, match="unknown op"):
                client._rpc({"op": "frobnicate"})
            stats = client.ping()
            assert stats["graph"]["vertices"] == graph.num_vertices
            assert stats["graph"]["segment"]  # shared segment is live
            assert stats["max_inflight"] == 2
            full = client.stats()
            assert "metrics" in full
            client.submit("triangle")
            stats = client.ping()
            assert stats["requests"] >= 1
            assert stats["per_client"]["pinger"]["requests"] >= 1

    def test_malformed_submit_is_an_error_not_a_crash(self, server):
        with Client(server.config.socket_path) as client:
            with pytest.raises(ReproError, match="unknown pattern"):
                client.submit("dodecahedron")
            # Connection still works afterwards.
            assert client.ping()["pid"]

    def test_shutdown_op(self, graph, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "bye.sock"))
        server = MiningServer(graph, config)
        server.start()
        try:
            with Client(config.socket_path) as client:
                assert client.shutdown() is True
            assert server._stop_event.is_set()
        finally:
            server.close()

    def test_concurrent_clients_get_exact_counts(self, server, graph):
        patterns = ["house", "diamond", "triangle"]
        expected = {
            name: reference.count_embeddings(graph, pattern_from_wire(name))
            for name in patterns
        }
        results: dict[str, MiningResponse] = {}
        errors: list[Exception] = []

        def worker(name: str) -> None:
            try:
                with Client(server.config.socket_path,
                            client_id=f"c-{name}") as client:
                    for _ in range(3):
                        results[name] = client.submit(name)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in patterns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for name in patterns:
            assert results[name].ok
            assert results[name].count == expected[name]

    def test_close_releases_segment_and_socket(self, graph, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "seg.sock"))
        server = MiningServer(graph, config)
        server.start()
        segment = server._handle.name
        assert any(segment == name for name in shared_mod.active_segments())
        server.close()
        assert segment not in shared_mod.active_segments()
        assert not (tmp_path / "seg.sock").exists()


class TestAdmissionControl:
    def test_rejection_when_inflight_and_pending_are_full(self, graph,
                                                          tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "adm.sock"),
                              max_inflight=1, max_pending=0)
        server = MiningServer(graph, config)
        try:
            # Occupy the only execution slot so the next request must
            # queue — but the queue is zero-length, so it is rejected.
            assert server._slots.acquire(blocking=False)
            response = server.handle_request(
                MiningRequest(pattern=catalog.triangle(),
                              client_id="burst"))
            assert response.ok is False
            assert "admission rejected" in response.error
            assert server.stats["rejections"] == 1
            assert server.stats["per_client"]["burst"]["rejections"] == 1
            server._slots.release()
            # With the slot free again the same request executes.
            response = server.handle_request(
                MiningRequest(pattern=catalog.triangle(), client_id="burst"))
            assert response.ok and response.count is not None
        finally:
            server.close()

    def test_queued_request_waits_then_runs(self, graph, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "q.sock"),
                              max_inflight=1, max_pending=1)
        server = MiningServer(graph, config)
        try:
            assert server._slots.acquire(blocking=False)
            done = threading.Event()
            box: dict = {}

            def queued() -> None:
                box["response"] = server.handle_request(
                    MiningRequest(pattern=catalog.triangle()))
                done.set()

            thread = threading.Thread(target=queued)
            thread.start()
            # The request is pending, not rejected.
            deadline_poll = 50
            while server._pending == 0 and deadline_poll:
                deadline_poll -= 1
                done.wait(0.02)
            assert server._pending == 1
            assert not done.is_set()
            server._slots.release()
            assert done.wait(30.0)
            thread.join()
            assert box["response"].ok
        finally:
            server.close()

    def test_deadline_cancelled_run_says_why(self, graph, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "dc.sock"))
        server = MiningServer(graph, config)
        try:
            slow = EngineOptions(faults=FaultPlan(tuple(
                Fault("delay", chunk, attempts=None, delay_s=0.1)
                for chunk in range(4)
            )))
            response = server.handle_request(MiningRequest(
                pattern=catalog.house(), engine=slow, deadline_s=0.05))
            assert response.ok is False
            assert response.count is None
            assert response.error
            assert "execution incomplete" in response.error
            assert "(deadline)" in response.error
        finally:
            server.close()

    def test_default_deadline_applied(self, graph, tmp_path):
        seen: list[MiningRequest] = []

        class Recorder:
            def __init__(self, graph, **kwargs):
                self.graph = graph
                self.plan_cache = None

            def submit(self, request):
                seen.append(request)
                return MiningResponse(request_id=request.request_id,
                                      client_id=request.client_id, ok=True,
                                      count=0)

        config = ServerConfig(socket_path=str(tmp_path / "dl.sock"),
                              default_deadline_s=2.5)
        server = MiningServer(graph, config, session_factory=Recorder)
        try:
            server.handle_request(MiningRequest(pattern=catalog.triangle()))
            assert seen[0].deadline_s == 2.5
            # An explicit deadline wins over the default.
            server.handle_request(
                MiningRequest(pattern=catalog.triangle(), deadline_s=9.0))
            assert seen[1].deadline_s == 9.0
        finally:
            server.close()


class TestLedgerTags:
    def test_runs_are_tagged_with_client_id(self, graph, tmp_path):
        ledger = ledger_mod.enable_ledger(tmp_path / "ledger.jsonl")
        try:
            config = ServerConfig(socket_path=str(tmp_path / "tag.sock"))
            server = MiningServer(graph, config)
            try:
                response = server.handle_request(
                    MiningRequest(pattern=catalog.triangle(),
                                  client_id="tenant-9",
                                  request_id="r-42"))
                assert response.ok
                assert response.run_id
            finally:
                server.close()
            runs = list(ledger.runs())
            tagged = [r for r in runs if r.run_id == response.run_id]
            assert tagged, "the served run must appear in the ledger"
            assert tagged[-1].tags.get("client") == "tenant-9"
            assert tagged[-1].tags.get("request") == "r-42"
        finally:
            ledger_mod.disable_ledger()

    def test_run_tags_nest_and_drop_none(self):
        with ledger_mod.run_tags(client="a", request=None):
            assert ledger_mod.current_tags() == {"client": "a"}
            with ledger_mod.run_tags(phase="warm"):
                assert ledger_mod.current_tags() == {"client": "a",
                                                     "phase": "warm"}
            assert ledger_mod.current_tags() == {"client": "a"}
        assert ledger_mod.current_tags() == {}


class TestSessionSubmitSurface:
    """The in-process request/response surface the daemon rides on."""

    def test_submit_matches_legacy_accessor(self, graph, expected_house):
        session = DecoMine(graph)
        response = session.submit(MiningRequest(pattern=catalog.house()))
        assert response.ok and response.count == expected_house
        assert session.get_pattern_count(catalog.house()) == expected_house
        again = session.submit(MiningRequest(pattern=catalog.house()))
        assert again.plan_cache_hit is True  # in-memory

    def test_constrained_and_mine_modes_stay_in_process(self, graph):
        session = DecoMine(graph)
        tri = catalog.triangle()
        response = session.submit(
            MiningRequest(pattern=tri, mode="constrained",
                          constraints=((0, 1, 2),)),
            predicates=[lambda *vs: True],
        )
        assert response.ok and response.count is not None

        hits: list[tuple] = []
        mined = session.submit(
            MiningRequest(pattern=tri, mode="mine"),
            process_partial_embedding=lambda *e: hits.append(e),
        )
        assert mined.ok
        assert hits


class TestBatchOpAndCoalescing:
    def test_submit_batch_over_socket(self, server, graph):
        with Client(server.config.socket_path, client_id="b") as client:
            responses = client.submit_batch(["triangle", "house",
                                             "triangle"])
        tri = reference.count_embeddings(graph, catalog.triangle())
        house = reference.count_embeddings(graph, catalog.house())
        assert [r.count for r in responses] == [tri, house, tri]
        assert all(r.ok for r in responses)
        assert responses[0].batch_id
        assert len({r.batch_id for r in responses}) == 1
        assert server.stats["batches"] == 1
        assert server.stats["requests"] == 3

    def test_batch_consumes_one_admission_slot(self, graph, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "b.sock"),
                              max_inflight=1, max_pending=0)
        server = MiningServer(graph, config)
        try:
            requests = [MiningRequest(pattern=catalog.triangle()),
                        MiningRequest(pattern=catalog.house())]
            responses = server.handle_batch(requests)
            assert all(r.ok for r in responses)
            # With the only slot held, the whole batch is rejected at
            # once — it is one unit of admission-controlled work.
            assert server._slots.acquire(blocking=False)
            try:
                rejected = server.handle_batch(requests)
            finally:
                server._slots.release()
            assert all(not r.ok for r in rejected)
            assert all("admission rejected" in r.error for r in rejected)
        finally:
            server.close()

    def test_empty_batch_is_an_error_not_a_crash(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(server.config.socket_path)
            reader = sock.makefile("rb")
            send_message(sock, {"op": "submit_batch", "requests": []})
            reply = read_message(reader)
            assert reply["op"] == "error"
            send_message(sock, {"op": "ping"})
            assert read_message(reader)["op"] == "pong"

    def test_identical_concurrent_requests_coalesce(self, graph, tmp_path):
        release = threading.Event()
        entered = threading.Event()
        calls: list[str] = []

        class Slow:
            def __init__(self, graph, **kwargs):
                self.graph = graph
                self.plan_cache = None

            def submit(self, request):
                calls.append(request.request_id)
                entered.set()
                release.wait(30.0)
                return MiningResponse(request_id=request.request_id,
                                      client_id=request.client_id,
                                      ok=True, count=42)

        config = ServerConfig(socket_path=str(tmp_path / "co.sock"),
                              max_inflight=4, max_pending=4)
        server = MiningServer(graph, config, session_factory=Slow)
        try:
            box: list[MiningResponse] = []

            def run(request_id: str, client_id: str) -> None:
                box.append(server.handle_request(MiningRequest(
                    pattern=catalog.triangle(), request_id=request_id,
                    client_id=client_id)))

            leader = threading.Thread(target=run, args=("lead", "a"))
            leader.start()
            assert entered.wait(10.0)
            # The leader is inside submit, its in-flight entry published:
            # the follower is guaranteed to join it instead of executing.
            follower = threading.Thread(target=run, args=("follow", "b"))
            follower.start()
            polls = 100
            while server.stats["requests"] < 2 and polls:
                polls -= 1
                release.wait(0.02)
            release.set()
            leader.join(30.0)
            follower.join(30.0)
            assert calls == ["lead"], "only the leader may execute"
            assert all(r.ok and r.count == 42 for r in box)
            assert {r.request_id for r in box} == {"lead", "follow"}
            assert {r.client_id for r in box} == {"a", "b"}
            assert server.stats["coalesced"] == 1
        finally:
            release.set()
            server.close()

    def test_followers_do_not_reuse_failed_runs(self, graph, tmp_path):
        release = threading.Event()
        entered = threading.Event()
        calls: list[str] = []

        class FlakyThenOk:
            def __init__(self, graph, **kwargs):
                self.graph = graph
                self.plan_cache = None

            def submit(self, request):
                calls.append(request.request_id)
                first = len(calls) == 1
                if first:
                    entered.set()
                    release.wait(30.0)
                return MiningResponse(request_id=request.request_id,
                                      client_id=request.client_id,
                                      ok=not first, count=7,
                                      error="boom" if first else None)

        config = ServerConfig(socket_path=str(tmp_path / "fl.sock"),
                              max_inflight=4, max_pending=4)
        server = MiningServer(graph, config, session_factory=FlakyThenOk)
        try:
            box: dict = {}

            def follow() -> None:
                box["follower"] = server.handle_request(MiningRequest(
                    pattern=catalog.triangle(), request_id="follow"))

            lead = threading.Thread(target=lambda: box.update(
                leader=server.handle_request(MiningRequest(
                    pattern=catalog.triangle(), request_id="lead"))))
            lead.start()
            assert entered.wait(10.0)
            follower = threading.Thread(target=follow)
            follower.start()
            polls = 100
            while server.stats["requests"] < 2 and polls:
                polls -= 1
                release.wait(0.02)
            release.set()
            lead.join(30.0)
            follower.join(30.0)
            assert box["leader"].ok is False
            # The follower refused the failed response and ran itself.
            assert box["follower"].ok is True
            assert calls == ["lead", "follow"]
            assert server.stats["coalesced"] == 0
        finally:
            release.set()
            server.close()

    def test_coalesce_key_identity(self, server):
        from repro.patterns.pattern import Pattern

        base = MiningRequest(pattern=catalog.triangle())
        isomorphic = MiningRequest(
            pattern=Pattern(3, [(2, 1), (1, 0), (0, 2)]))
        assert server._coalesce_key(base) == server._coalesce_key(
            isomorphic)
        induced = MiningRequest(pattern=catalog.triangle(), induced=True)
        assert server._coalesce_key(base) != server._coalesce_key(induced)
        other = MiningRequest(pattern=catalog.house())
        assert server._coalesce_key(base) != server._coalesce_key(other)
        mine = MiningRequest(pattern=catalog.triangle(), mode="mine")
        assert server._coalesce_key(mine) is None
