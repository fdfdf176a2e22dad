#!/usr/bin/env python3
"""Serving smoke run: daemon, concurrent tenants, warm cache, admission.

Boots a real :class:`repro.serve.MiningServer` on a Unix socket and
drives it the way production traffic would:

* **cold pass** — one client submits the full 18-pattern catalog once,
  populating the persistent plan cache (every response must be exact
  against the reference counter);
* **warm storm** — three concurrent clients each replay the whole
  catalog; every one of the 54 responses must be exact *and* a plan
  cache hit (100% warm hit rate — profile/compile/search never ran).
  Then all three send the catalog once more as one ``submit_batch``,
  at the same moment, so the daemon's handler threads fill and reuse
  the session's aux-stripped plan copies concurrently; every batched
  count must be exact too;
* **admission burst** — a second daemon with a tiny budget
  (``max_inflight=1, max_pending=0``) takes a synchronized 8-client
  burst, each client submitting a *different* pattern so none can
  coalesce onto another's run; at least one submission must be
  rejected with an ``admission rejected`` response (and every accepted
  one stays exact against its own pattern's count);
* **clean shutdown** — the daemon drains on the shutdown op, unlinks
  its socket, and the audit requires zero leaked shared-memory
  segments and zero leaked cancel tokens.

The JSON report doubles as the CI artifact and embeds the daemon's
final metrics-registry snapshot (``repro_serve_*`` counters included).

Designed as a CI gate::

    PYTHONPATH=src python scripts/serve_smoke.py --json serve_smoke.json

Exits nonzero on any count mismatch (batched counts included), a
cold-pass cache hit, a warm-pass cache miss, zero admission rejections, or a leaked segment/token.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.baselines import reference
from repro.graph import shared
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.runtime import resources as resources_mod
from repro.serve import Client, MiningServer, ServerConfig

PATTERNS = {
    "triangle": catalog.triangle,
    "diamond": catalog.diamond,
    "house": catalog.house,
    "gem": catalog.gem,
    "bowtie": catalog.bowtie,
    "net": catalog.net,
    "tailed-triangle": catalog.tailed_triangle,
    "chain3": lambda: catalog.chain(3),
    "chain4": lambda: catalog.chain(4),
    "chain5": lambda: catalog.chain(5),
    "cycle4": lambda: catalog.cycle(4),
    "cycle5": lambda: catalog.cycle(5),
    "cycle6": lambda: catalog.cycle(6),
    "clique4": lambda: catalog.clique(4),
    "clique5": lambda: catalog.clique(5),
    "star3": lambda: catalog.star(3),
    "star4": lambda: catalog.star(4),
    "star5": lambda: catalog.star(5),
}

NUM_WARM_CLIENTS = 3
#: One distinct pattern per burst client: identical concurrent requests
#: would coalesce onto one run and never reach admission control.
BURST_PATTERNS = ("triangle", "diamond", "house", "gem", "bowtie", "net",
                  "cycle5", "clique4")
BURST_CLIENTS = len(BURST_PATTERNS)
BURST_ATTEMPTS = 5


def expected_counts(graph) -> dict:
    return {name: reference.count_embeddings(graph, build())
            for name, build in sorted(PATTERNS.items())}


def run_catalog(socket_path: str, client_id: str, expected: dict,
                out: dict) -> None:
    """Submit the whole catalog on one connection; record per-pattern."""
    with Client(socket_path, client_id=client_id) as client:
        for name, build in sorted(PATTERNS.items()):
            response = client.submit(build())
            out[name] = {
                "ok": response.ok,
                "count": response.count,
                "expected": expected[name],
                "exact": response.count == expected[name],
                "cache_hit": response.plan_cache_hit,
                "seconds": response.seconds,
            }


def run_catalog_batch(socket_path: str, client_id: str, expected: dict,
                      start: threading.Barrier) -> dict:
    """Submit the whole catalog as one batch once ``start`` releases."""
    names = sorted(PATTERNS)
    with Client(socket_path, client_id=client_id) as client:
        start.wait()
        responses = client.submit_batch([PATTERNS[name]() for name in names])
    exact = sum(1 for name, response in zip(names, responses)
                if response.ok and response.count == expected[name])
    return {"responses": len(responses), "exact": exact,
            "ok": len(responses) == len(names) == exact}


def run_smoke() -> dict:
    graph = erdos_renyi(16, 0.35, seed=3)
    expected = expected_counts(graph)
    report: dict = {"ok": True}

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = str(Path(tmp) / "repro.sock")
        cache_dir = str(Path(tmp) / "plancache")
        config = ServerConfig(socket_path=socket_path, max_inflight=2,
                              max_pending=8)
        server = MiningServer(graph, config, plan_cache=cache_dir)
        server.start()
        segment = server._handle.name
        try:
            # ---- cold pass: one tenant populates the plan cache ----
            cold: dict = {}
            run_catalog(socket_path, "cold", expected, cold)
            cold_ok = (all(e["exact"] for e in cold.values())
                       and not any(e["cache_hit"] for e in cold.values()))
            report["cold"] = {"patterns": cold, "ok": cold_ok}
            report["ok"] &= cold_ok

            # ---- warm storm: concurrent tenants, 100% hit rate ----
            warm: dict = {f"tenant-{i}": {}
                          for i in range(NUM_WARM_CLIENTS)}
            batches: dict = {}
            errors: list[str] = []
            batch_start = threading.Barrier(NUM_WARM_CLIENTS, timeout=60)

            def tenant(tenant_id: str) -> None:
                try:
                    run_catalog(socket_path, tenant_id, expected,
                                warm[tenant_id])
                    batches[tenant_id] = run_catalog_batch(
                        socket_path, tenant_id, expected, batch_start)
                except Exception as exc:
                    batch_start.abort()
                    errors.append(f"{tenant_id}: {exc!r}")

            threads = [threading.Thread(target=tenant, args=(tid,))
                       for tid in warm]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            warm_seconds = time.perf_counter() - start
            responses = [e for per in warm.values() for e in per.values()]
            hits = sum(1 for e in responses if e["cache_hit"])
            warm_ok = (not errors
                       and len(responses) == NUM_WARM_CLIENTS * len(PATTERNS)
                       and all(e["exact"] for e in responses)
                       and hits == len(responses)
                       and len(batches) == NUM_WARM_CLIENTS
                       and all(b["ok"] for b in batches.values()))
            report["warm"] = {
                "clients": NUM_WARM_CLIENTS,
                "responses": len(responses),
                "exact": sum(1 for e in responses if e["exact"]),
                "cache_hits": hits,
                "hit_rate": hits / max(1, len(responses)),
                "seconds": warm_seconds,
                "batches": batches,
                "errors": errors,
                "ok": warm_ok,
            }
            report["ok"] &= warm_ok

            # ---- daemon introspection + metrics artifact ----
            with Client(socket_path, client_id="auditor") as client:
                stats = client.stats()
                report["daemon"] = stats["stats"]
                report["metrics"] = stats["metrics"]
                assert client.shutdown()
            # The accept loop drains on its poll interval.
            deadline = time.time() + 10.0
            while not server._stop_event.is_set() and time.time() < deadline:
                time.sleep(0.05)
        finally:
            server.close()
        shutdown_ok = (server._sock is None
                       and not Path(socket_path).exists()
                       and segment not in shared.active_segments())
        report["shutdown"] = {"socket_unlinked": not Path(socket_path).exists(),
                              "segment_released": segment not in
                              shared.active_segments(),
                              "ok": shutdown_ok}
        report["ok"] &= shutdown_ok

        # ---- admission burst against a tiny budget ----
        report["admission"] = run_admission_burst(graph, tmp, expected)
        report["ok"] &= report["admission"]["ok"]

    # ---- leak audit: nothing survives the daemons ----
    leaked_tokens = resources_mod.active_tokens()
    leaked_segments = shared.active_segments()
    report["leaked_tokens"] = leaked_tokens
    report["leaked_segments"] = leaked_segments
    report["ok"] = bool(report["ok"] and not leaked_tokens
                        and not leaked_segments)
    return report


def run_admission_burst(graph, tmp: str, expected: dict) -> dict:
    """Synchronized burst against max_inflight=1/max_pending=0.

    With one execution slot and a zero-length queue, any overlapping
    pair of distinct submissions forces a rejection.  A barrier releases
    all clients at once; in the (astronomically unlikely) event that the
    scheduler fully serializes them, the burst retries.
    """
    socket_path = str(Path(tmp) / "tiny.sock")
    config = ServerConfig(socket_path=socket_path, max_inflight=1,
                          max_pending=0)
    server = MiningServer(graph, config)
    server.start()
    rejections = coalesced = 0
    accepted_exact = True
    attempts = 0
    try:
        for attempts in range(1, BURST_ATTEMPTS + 1):
            barrier = threading.Barrier(BURST_CLIENTS)
            outcomes: list = [None] * BURST_CLIENTS

            def burst(index: int) -> None:
                with Client(socket_path,
                            client_id=f"burst-{index}") as client:
                    barrier.wait()
                    outcomes[index] = client.submit(
                        PATTERNS[BURST_PATTERNS[index]]())

            threads = [threading.Thread(target=burst, args=(i,))
                       for i in range(BURST_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rejections = sum(
                1 for r in outcomes
                if r is not None and not r.ok
                and "admission rejected" in (r.error or ""))
            accepted = [(name, r)
                        for name, r in zip(BURST_PATTERNS, outcomes)
                        if r is not None and r.ok]
            accepted_exact = all(r.count == expected[name]
                                 for name, r in accepted)
            if rejections and accepted:
                break
    finally:
        coalesced = server.stats["coalesced"]
        server.close()
    ok = bool(rejections >= 1 and accepted_exact)
    return {
        "burst_clients": BURST_CLIENTS,
        "attempts": attempts,
        "rejections": rejections,
        "coalesced": coalesced,
        "accepted_exact": accepted_exact,
        "daemon_rejections_counter": server.stats["rejections"],
        "ok": ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="FILE",
                        help="write the full report (metrics included)")
    args = parser.parse_args(argv)

    report = run_smoke()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)
    if not report["ok"]:
        print("serve smoke FAILED: inexact (or batched inexact) counts, "
              "cache misses on the "
              "warm path, no admission rejection, or a leaked "
              "segment/token", file=sys.stderr)
        return 1
    warm = report["warm"]
    print(
        f"serve smoke OK: {len(PATTERNS)} patterns exact cold, "
        f"{warm['responses']} warm responses across {warm['clients']} "
        f"concurrent tenants at {warm['hit_rate']:.0%} cache hit rate, "
        f"{len(warm['batches'])} concurrent catalog batches exact, "
        f"{report['admission']['rejections']} admission rejections under "
        f"the tiny budget, clean shutdown, no leaked segments or tokens",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
