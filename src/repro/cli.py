"""Command-line interface.

Examples::

    python -m repro count --dataset wikivote --pattern house
    python -m repro count --graph my.snap.txt --pattern 5-cycle --induced
    python -m repro batch --dataset mico --pattern triangle,4-cycle,house
    python -m repro census --dataset emaileucore --size 4
    python -m repro fsm --dataset mico --support 20
    python -m repro explain --dataset wikivote --pattern 4-chain
    python -m repro stats --dataset wikivote --pattern house --format json
    python -m repro count --dataset mico --pattern house --progress --ledger
    python -m repro history --last 10
    python -m repro datasets
    python -m repro serve --dataset wikivote --socket /tmp/repro.sock
    python -m repro submit --socket /tmp/repro.sock --pattern house
    python -m repro ping --socket /tmp/repro.sock
    python -m repro shutdown --socket /tmp/repro.sock

Pattern names: ``triangle``, ``diamond``, ``house``, ``gem``, ``bowtie``,
``net``, ``tailed-triangle``, ``k-chain``, ``k-cycle``, ``k-clique``,
``k-star`` (k a number).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.api.messages import MiningRequest
from repro.api.session import DecoMine
from repro.exceptions import ExecutionError, PatternError, ReproError
from repro.runtime.engine import EngineOptions
from repro.patterns import catalog
from repro.patterns.pattern import Pattern

__all__ = ["main", "parse_pattern", "parse_size"]


def parse_pattern(text: str) -> Pattern:
    """Parse a pattern name like ``house`` or ``6-cycle``."""
    named = {
        "triangle": catalog.triangle,
        "diamond": catalog.diamond,
        "house": catalog.house,
        "gem": catalog.gem,
        "bowtie": catalog.bowtie,
        "net": catalog.net,
        "tailed-triangle": catalog.tailed_triangle,
    }
    key = text.strip().lower()
    if key in named:
        return named[key]()
    if "-" in key:
        head, _, kind = key.partition("-")
        if head.isdigit():
            k = int(head)
            builders = {
                "chain": catalog.chain,
                "path": catalog.chain,
                "cycle": catalog.cycle,
                "clique": catalog.clique,
                "star": catalog.star,
            }
            if kind in builders:
                return builders[kind](k)
    raise PatternError(
        f"unknown pattern {text!r}; use a catalog name or k-chain/k-cycle/"
        "k-clique/k-star"
    )


_SIZE_SUFFIXES = {
    "": 1, "b": 1,
    "k": 1024, "kb": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3,
}


def parse_size(text: str) -> int:
    """Parse a byte size like ``512m``, ``2G``, ``64MB`` or ``1048576``."""
    body = text.strip().lower()
    digits = body.rstrip("kmgb")
    suffix = body[len(digits):]
    try:
        value = float(digits)
        scale = _SIZE_SUFFIXES[suffix]
    except (ValueError, KeyError):
        raise ValueError(
            f"invalid size {text!r}; use BYTES or a K/M/G suffix "
            "(e.g. 512m, 2G)"
        ) from None
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return int(value * scale)


def _load_graph(args):
    from repro.graph import datasets, io

    if args.graph:
        return io.load_edge_list(args.graph)
    if getattr(args, "labeled_graph", None):
        return io.load_labeled_graph(args.labeled_graph)
    if args.dataset:
        return datasets.load(args.dataset)
    raise SystemExit(
        "one of --graph FILE, --labeled-graph FILE or --dataset NAME is "
        "required"
    )


def _add_graph_args(parser):
    parser.add_argument("--graph", help="SNAP-style edge list file")
    parser.add_argument("--labeled-graph",
                        help="GraMi-style labeled graph file (v/e lines)")
    parser.add_argument("--dataset",
                        help="built-in dataset analogue (see `datasets`)")
    parser.add_argument("--cost-model", default="approx_mining",
                        choices=("approx_mining", "locality", "automine"))
    parser.add_argument("--plan-cache", metavar="DIR", nargs="?",
                        const="", default=None,
                        help="persistent compiled-plan cache directory "
                             "(default .repro/plancache or "
                             "$REPRO_PLAN_CACHE): warm patterns skip "
                             "profile+compile+search")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DecoMine-reproduction GPM system"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count a pattern's embeddings")
    _add_graph_args(count)
    count.add_argument("--pattern", required=True)
    count.add_argument("--induced", action="store_true",
                       help="vertex-induced semantics")
    count.add_argument("--workers", type=int, default=1,
                       help="parallel fork-pool workers (default 1)")
    count.add_argument("--executor",
                       choices=("codegen", "interpreter", "vectorized"),
                       default="codegen",
                       help="plan backend: exec-compiled Python loops "
                            "(codegen, default), the IR interpreter, or "
                            "the array-at-a-time NumPy frontier executor "
                            "(vectorized; counting plans only)")
    count.add_argument("--orient", choices=("none", "degree", "degeneracy"),
                       default="none",
                       help="execute on an orientation-relabeled graph: "
                            "counting plans rewrite symmetry-trimmed "
                            "adjacency to bounded out-neighborhoods "
                            "(default none)")
    count.add_argument("--deadline", type=float, metavar="SECONDS",
                       help="whole-run deadline; unfinished chunks are "
                            "reported as failures instead of running over")
    count.add_argument("--resume", metavar="FILE",
                       help="JSON-lines checkpoint file: completed chunks "
                            "are recorded there and a rerun with the same "
                            "file (and same --workers) skips them")
    count.add_argument("--trace", metavar="FILE",
                       help="record a span trace of the run to FILE (JSON)")
    count.add_argument("--chrome-trace", metavar="FILE",
                       help="also write the trace as a Chrome trace_event "
                            "file (chrome://tracing / Perfetto)")
    count.add_argument("--max-rss", metavar="SIZE",
                       help="per-process memory budget (e.g. 512m, 2G): a "
                            "watchdog samples worker RSS and cancels + "
                            "bisects chunks that breach it; forces "
                            "supervised execution")
    count.add_argument("--max-frontier-mb", type=float, metavar="MB",
                       help="frontier byte budget for the vectorized "
                            "executor: soft breaches shrink the descend "
                            "slice, hard breaches bisect the chunk")
    count.add_argument("--progress", action="store_true",
                       help="render a live single-line progress bar "
                            "(chunks done, weighted %%, throughput, ETA); "
                            "forces supervised chunked execution")
    count.add_argument("--ledger", metavar="FILE", nargs="?",
                       const="", default=None,
                       help="record the run in the append-only run ledger "
                            "(default .repro/ledger.jsonl or $REPRO_LEDGER; "
                            "query with `repro history`)")

    batch = sub.add_parser(
        "batch",
        help="count a pattern workload as one shared-subpattern DAG run",
    )
    _add_graph_args(batch)
    batch.add_argument("--pattern", required=True,
                       help="comma-separated pattern list; duplicate and "
                            "isomorphic entries share one enumeration")
    batch.add_argument("--induced", action="store_true",
                       help="vertex-induced semantics for every pattern")
    batch.add_argument("--workers", type=int, default=1,
                       help="parallel fork-pool workers (default 1)")
    batch.add_argument("--executor",
                       choices=("codegen", "interpreter", "vectorized"),
                       default="codegen")
    batch.add_argument("--orient", choices=("none", "degree", "degeneracy"),
                       default="none")
    batch.add_argument("--deadline", type=float, metavar="SECONDS",
                       help="deadline for the whole batch run")
    batch.add_argument("--socket", metavar="PATH",
                       help="submit the workload to a running daemon "
                            "instead of executing locally (graph/engine "
                            "arguments are then ignored)")
    batch.add_argument("--client-id", default="cli")
    batch.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json adds the per-request responses and the "
                            "sharing report")

    census = sub.add_parser("census", help="k-motif census")
    _add_graph_args(census)
    census.add_argument("--size", type=int, required=True)

    fsm = sub.add_parser("fsm", help="frequent subgraph mining")
    _add_graph_args(fsm)
    fsm.add_argument("--support", type=int, required=True)
    fsm.add_argument("--max-edges", type=int, default=3)

    explain = sub.add_parser("explain", help="show the selected plan")
    _add_graph_args(explain)
    explain.add_argument("--pattern", required=True)
    explain.add_argument("--source", action="store_true",
                         help="print the generated plan source")
    explain.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="json adds cost, orientation and the "
                              "plan-cache key + hit/miss")

    stats = sub.add_parser(
        "stats",
        help="run a counting workload with observability on and dump the "
             "metrics registry",
    )
    _add_graph_args(stats)
    stats.add_argument("--pattern", default="triangle",
                       help="pattern name, or a comma-separated list to "
                            "run several (gives the calibration report "
                            "plans to rank)")
    stats.add_argument("--workers", type=int, default=1)
    stats.add_argument("--format", choices=("json", "prometheus"),
                       default="json", help="metrics export format")
    stats.add_argument("--output", metavar="FILE",
                       help="write metrics to FILE instead of stdout")
    stats.add_argument("--trace", metavar="FILE",
                       help="record a span trace of the run to FILE (JSON)")
    stats.add_argument("--chrome-trace", metavar="FILE",
                       help="write the trace as a Chrome trace_event file")
    stats.add_argument("--calibration-out", metavar="FILE",
                       help="record cost-model calibration during the run "
                            "and write the prediction-vs-actual report "
                            "(JSON) to FILE")

    sub.add_parser("datasets", help="list built-in dataset analogues")

    history = sub.add_parser(
        "history",
        help="query the append-only run ledger (see `count --ledger`)",
    )
    history.add_argument("--ledger", metavar="FILE",
                         help="ledger file (default .repro/ledger.jsonl "
                              "or $REPRO_LEDGER)")
    history.add_argument("--format", choices=("table", "json"),
                         default="table")
    history.add_argument("--last", type=int, metavar="N",
                         help="only the N most recent matching runs")
    history.add_argument("--pattern", help="filter by pattern name")
    history.add_argument("--graph-fingerprint", metavar="PREFIX",
                         help="filter by graph-fingerprint prefix")
    history.add_argument("--since", metavar="WHEN",
                         help="UNIX timestamp or YYYY-MM-DD[THH:MM:SS]")
    history.add_argument("--no-aux", action="store_true",
                         help="hide aux (shrinkage-correction) runs")

    serve = sub.add_parser(
        "serve",
        help="run the mining daemon: one shared-memory graph, concurrent "
             "admission-controlled requests over a Unix socket",
    )
    _add_graph_args(serve)
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="Unix socket path to listen on")
    serve.add_argument("--workers", type=int, default=1,
                       help="fork-pool workers per run (default 1)")
    serve.add_argument("--executor",
                       choices=("codegen", "interpreter", "vectorized"),
                       default="codegen")
    serve.add_argument("--max-inflight", type=int, default=2,
                       help="concurrent executions (default 2)")
    serve.add_argument("--max-pending", type=int, default=4,
                       help="requests allowed to queue for a slot before "
                            "admission control rejects (default 4)")
    serve.add_argument("--default-deadline", type=float, metavar="SECONDS",
                       help="deadline for requests that bring none")
    serve.add_argument("--ledger", metavar="FILE", nargs="?",
                       const="", default=None,
                       help="record every request in the run ledger, "
                            "tagged with the client id")
    serve.add_argument("--plan-cache-max-mb", type=float, metavar="MB",
                       help="size cap for the persistent plan cache: "
                            "stores past the cap evict least-recently-"
                            "used entries (requires --plan-cache)")

    submit = sub.add_parser(
        "submit", help="submit one counting request to a running daemon")
    submit.add_argument("--socket", required=True, metavar="PATH")
    submit.add_argument("--pattern", required=True)
    submit.add_argument("--induced", action="store_true")
    submit.add_argument("--deadline", type=float, metavar="SECONDS")
    submit.add_argument("--client-id", default="cli")
    submit.add_argument("--format", choices=("text", "json"),
                        default="text")

    ping = sub.add_parser("ping", help="daemon liveness + stats snapshot")
    ping.add_argument("--socket", required=True, metavar="PATH")
    ping.add_argument("--format", choices=("text", "json"), default="text")

    shutdown = sub.add_parser("shutdown", help="stop a running daemon")
    shutdown.add_argument("--socket", required=True, metavar="PATH")

    args = parser.parse_args(argv)

    if args.command == "datasets":
        from repro.graph.datasets import REGISTRY

        for abbr, spec in REGISTRY.items():
            print(f"{abbr:5} {spec.name:12} paper |V|={spec.paper_vertices:>6} "
                  f"|E|={spec.paper_edges:>6}  {spec.description}")
        return 0

    if args.command == "history":
        return _run_history(args)

    if args.command in ("submit", "ping", "shutdown"):
        return _run_serve_client(args)

    if args.command == "batch" and args.socket:
        return _run_batch_remote(args)

    try:
        graph = _load_graph(args)
    except (OSError, KeyError, ValueError, ReproError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: cannot load graph: {detail}", file=sys.stderr)
        return 2
    if args.command == "serve":
        return _run_serve(args, graph)
    try:
        if getattr(args, "pattern", None):
            for text in str(args.pattern).split(","):
                parse_pattern(text)
    except PatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    resources = None
    if (
        getattr(args, "max_rss", None)
        or getattr(args, "max_frontier_mb", None) is not None
    ):
        from repro.runtime.resources import ResourceBudget

        try:
            max_rss = parse_size(args.max_rss) if args.max_rss else None
            max_frontier = (
                int(args.max_frontier_mb * 1024 ** 2)
                if args.max_frontier_mb is not None else None
            )
            resources = ResourceBudget(
                max_rss_bytes=max_rss,
                max_frontier_bytes=max_frontier,
            )
        except (ValueError, ReproError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    run_policy = None
    if (
        getattr(args, "deadline", None) is not None
        or getattr(args, "resume", None)
        or getattr(args, "progress", False)
        or resources is not None
    ):
        from repro.runtime.supervisor import RunBudget, RunPolicy

        run_policy = RunPolicy(
            budget=RunBudget(deadline_s=getattr(args, "deadline", None)),
            checkpoint=getattr(args, "resume", None),
            resources=resources,
        )
    progress = None
    if getattr(args, "progress", False):
        from repro.observe.progress import ConsoleProgress

        progress = ConsoleProgress()
    if getattr(args, "ledger", None) is not None:
        from repro.observe.ledger import enable_ledger

        enable_ledger(args.ledger or None)
    plan_cache = getattr(args, "plan_cache", None)
    if plan_cache == "":
        from repro.compiler.plancache import default_cache_path

        plan_cache = default_cache_path()
    session = DecoMine(
        graph,
        cost_model=args.cost_model,
        engine=EngineOptions(
            workers=getattr(args, "workers", 1),
            executor=getattr(args, "executor", "codegen"),
            orientation=getattr(args, "orient", "none"),
            progress=progress,
        ),
        run_policy=run_policy,
        plan_cache=plan_cache,
    )
    print(f"graph: {graph}", file=sys.stderr)

    if args.command == "count":
        pattern = parse_pattern(args.pattern)
        tracing = args.trace or args.chrome_trace
        if tracing:
            from repro import observe

            observe.enable("count")
        started = time.perf_counter()
        try:
            with _sigint_cancels(resources is not None):
                response = session.submit(
                    MiningRequest(pattern=pattern, induced=args.induced)
                )
        except ExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            if tracing:
                _write_trace(args.trace, args.chrome_trace)
        if not response.ok:
            print(f"error: {response.error}", file=sys.stderr)
            salvage = response.salvage or {}
            for lo, hi in salvage.get("unfinished", ()):
                print(f"  chunk [{lo}, {hi}) unfinished", file=sys.stderr)
            if response.cancelled is not None:
                fraction = salvage.get("fraction")
                done = "" if fraction is None else (
                    f" after {fraction:.0%} of the work"
                )
                print(f"run cancelled ({response.cancelled}){done}",
                      file=sys.stderr)
            if args.resume:
                print(f"completed chunks are checkpointed in "
                      f"{args.resume}; rerun the same command with "
                      f"--resume {args.resume} to continue",
                      file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        kind = "vertex-induced" if args.induced else "edge-induced"
        print(f"{pattern.name}: {response.count} {kind} embeddings "
              f"({elapsed:.2f}s)")
        metrics = response.metrics
        if run_policy is not None and metrics:
            line = (f"supervisor: {metrics['retries']} retries, "
                    f"{metrics['resumed_chunks']} chunks resumed from "
                    f"checkpoint, {metrics['pool_restarts']} pool restarts")
            if resources is not None:
                line += (f", {metrics['bisections']} bisections, "
                         f"{metrics['watchdog_kills']} watchdog kills, "
                         f"{metrics['frontier_downshifts']} frontier "
                         f"downshifts")
            print(line, file=sys.stderr)
        if args.ledger is not None:
            from repro.observe.ledger import disable_ledger

            ledger = disable_ledger()
            if ledger is not None:
                print(f"ledger: {ledger.path} (query with `repro history`)",
                      file=sys.stderr)
        return 0

    if args.command == "batch":
        return _run_batch(args, session)

    if args.command == "stats":
        return _run_stats(args, session)

    if args.command == "census":
        from repro.apps import DecoMineMiner, count_motifs

        started = time.perf_counter()
        result = count_motifs(DecoMineMiner(session), args.size)
        elapsed = time.perf_counter() - started
        for pattern, value in result.items():
            print(f"{pattern.name:12} {value}")
        print(f"total: {sum(result.values())} ({elapsed:.2f}s)",
              file=sys.stderr)
        return 0

    if args.command == "fsm":
        from repro.apps import DecoMineMiner, frequent_subgraph_mining

        result = frequent_subgraph_mining(
            DecoMineMiner(session), graph, args.support,
            max_edges=args.max_edges,
        )
        for item in sorted(result.frequent, key=lambda f: -f.support):
            p = item.pattern
            print(f"support={item.support:6} labels={list(p.labels)} "
                  f"edges={p.edges()}")
        print(f"{result.num_frequent} frequent patterns "
              f"({result.candidates_examined} candidates)", file=sys.stderr)
        return 0

    if args.command == "explain":
        pattern = parse_pattern(args.pattern)
        executor = session.engine_options.executor
        if args.format == "json":
            payload = session.explain_json(pattern)
            if args.source:
                plan = session.plan_for(pattern)
                payload["source"] = plan.source
                payload["c_source"] = _c_source(plan, executor)
            print(json.dumps(payload, indent=2))
            return 0
        print(session.explain(pattern))
        if args.source:
            plan = session.plan_for(pattern)
            print(plan.source)
            c_source = _c_source(plan, executor)
            if c_source is not None:
                print(c_source)
        return 0

    raise SystemExit(f"unknown command {args.command}")  # pragma: no cover


def _c_source(plan, executor: str) -> str | None:
    """The plan's generated C, when it runs on the C target."""
    from repro.compiler import cgen

    target = cgen.target_for(plan, executor)
    return target.source if target.target == "c" else None


def _run_serve(args, graph) -> int:
    """``repro serve``: run the mining daemon until shutdown."""
    import os

    from repro.serve import MiningServer, ServerConfig

    if args.ledger is not None:
        from repro.observe.ledger import enable_ledger

        enable_ledger(args.ledger or None)
    plan_cache = args.plan_cache
    if plan_cache == "":
        from repro.compiler.plancache import default_cache_path

        plan_cache = default_cache_path()
    if plan_cache is not None and args.plan_cache_max_mb:
        from repro.compiler.plancache import PlanCache

        plan_cache = PlanCache(
            plan_cache,
            max_bytes=int(args.plan_cache_max_mb * 1024 ** 2),
        )
    config = ServerConfig(
        socket_path=args.socket,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        default_deadline_s=args.default_deadline,
    )
    server = MiningServer(
        graph,
        config,
        cost_model=args.cost_model,
        engine=EngineOptions(workers=args.workers, executor=args.executor),
        plan_cache=plan_cache,
    )
    print(f"serving {graph} on {args.socket} (pid {os.getpid()}, "
          f"max {config.max_inflight} in flight + {config.max_pending} "
          f"pending)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    print("daemon stopped", file=sys.stderr)
    return 0


def _run_batch(args, session: DecoMine) -> int:
    """``repro batch`` (local): one DAG run over the whole workload."""
    patterns = [parse_pattern(text) for text in args.pattern.split(",")]
    requests = [
        MiningRequest(pattern=pattern, induced=args.induced,
                      deadline_s=args.deadline, client_id=args.client_id)
        for pattern in patterns
    ]
    started = time.perf_counter()
    try:
        responses = session.submit_batch(requests)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    return _print_batch(args, [p.name for p in patterns], responses, elapsed)


def _run_batch_remote(args) -> int:
    """``repro batch --socket``: submit the workload to a daemon."""
    from repro.serve import Client

    try:
        patterns = [parse_pattern(text) for text in args.pattern.split(",")]
    except PatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        client = Client(args.socket, client_id=args.client_id)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with client:
        started = time.perf_counter()
        try:
            responses = client.submit_batch(
                patterns, induced=args.induced, deadline_s=args.deadline,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
    return _print_batch(args, [p.name for p in patterns], responses, elapsed)


def _print_batch(args, names, responses, elapsed) -> int:
    ok = all(response.ok for response in responses)
    sharing = responses[0].metrics.get("sharing") if responses else None
    if args.format == "json":
        payload = {
            "ok": ok,
            "batch_id": responses[0].batch_id if responses else "",
            "seconds": elapsed,
            "responses": [response.to_wire() for response in responses],
        }
        if sharing is not None:
            payload["sharing"] = sharing
        print(json.dumps(payload, indent=2))
        return 0 if ok else 3
    width = max(len(name) for name in names) if names else 0
    for name, response in zip(names, responses):
        if response.ok:
            print(f"{name:<{width}}  {response.count}")
        else:
            print(f"{name:<{width}}  error: "
                  f"{response.error or response.cancelled}")
    if sharing is not None:
        print(f"sharing: {sharing['plans_batched']} plan runs answered "
              f"{sharing['workload']} queries "
              f"({sharing['plans_sequential']} runs sequentially; "
              f"{sharing['eliminated_fraction']:.0%} eliminated)",
              file=sys.stderr)
    kind = "vertex-induced" if args.induced else "edge-induced"
    print(f"batch {'ok' if ok else 'INCOMPLETE'} "
          f"({elapsed:.2f}s, {kind})", file=sys.stderr)
    return 0 if ok else 3


def _run_serve_client(args) -> int:
    """``repro submit`` / ``ping`` / ``shutdown``: talk to a daemon."""
    from repro.serve import Client

    try:
        client = Client(args.socket,
                        client_id=getattr(args, "client_id", "cli"))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.command == "submit":
                response = client.submit(
                    parse_pattern(args.pattern),
                    induced=args.induced,
                    deadline_s=args.deadline,
                )
                if args.format == "json":
                    print(json.dumps(response.to_wire(), indent=2))
                    return 0 if response.ok else 3
                if not response.ok:
                    print(f"error: {response.error or response.cancelled}",
                          file=sys.stderr)
                    return 3
                source = "warm" if response.plan_cache_hit else "cold"
                print(f"{args.pattern}: {response.count} embeddings "
                      f"({response.seconds:.3f}s, {source} plan, "
                      f"run {response.run_id or 'unrecorded'})")
                return 0
            if args.command == "ping":
                stats = client.ping()
                if args.format == "json":
                    print(json.dumps(stats, indent=2))
                else:
                    print(f"ok: pid {stats['pid']}, up "
                          f"{stats['uptime_s']:.0f}s, "
                          f"{stats['requests']} requests "
                          f"({stats['rejections']} rejected), "
                          f"{stats['inflight']} in flight")
                return 0
            client.shutdown()
            print("daemon shutting down")
            return 0
        except (ReproError, PatternError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def _run_history(args) -> int:
    """``repro history``: render the run ledger as a table or JSON."""
    from repro.observe.ledger import Ledger, default_ledger_path

    path = args.ledger or default_ledger_path()
    try:
        records = Ledger(path).runs(
            pattern=args.pattern,
            graph=args.graph_fingerprint,
            since=args.since,
            last=args.last,
            include_aux=not args.no_aux,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in records], indent=2,
                         sort_keys=True))
        return 0
    if not records:
        print(f"no runs recorded in {path} (run with `repro count "
              f"--ledger` or observe.enable_ledger())", file=sys.stderr)
        return 0
    from repro.bench.reporting import Table

    table = Table(f"run ledger: {path}",
                  ["when", "run_id", "pattern", "graph", "count",
                   "seconds", "chunks", "retries", "ok"])
    for r in records:
        count = r.embedding_count
        verdict = "yes" if r.ok else "NO"
        if getattr(r, "cancelled", None):
            fraction = (r.salvage or {}).get("fraction")
            done = "" if fraction is None else f" {fraction:.0%}"
            verdict = f"NO ({r.cancelled}{done})"
        table.add_row(
            r.iso_time,
            r.run_id,
            r.pattern + (" (aux)" if r.aux else ""),
            f"{r.graph.get('name') or '?'}@{r.graph_fingerprint[:8]}",
            "-" if count is None else f"{count:,}",
            f"{r.seconds:.3f}",
            r.chunks,
            r.metrics.get("retries", 0),
            verdict,
        )
    print(table.render())
    return 0


@contextlib.contextmanager
def _sigint_cancels(governed: bool):
    """Route Ctrl-C through the cooperative cancel token.

    The first SIGINT flips every live run's token ("interrupt"): in-flight
    chunks stop at their next poll, completed chunks stay checkpointed, and
    the incomplete-response path above prints the salvage fraction plus
    the resume command.  A second SIGINT — or one arriving when no token
    is live — falls back to the ordinary KeyboardInterrupt.
    """
    if not governed:
        yield
        return
    import signal

    from repro.runtime.resources import request_cancel

    seen = {"count": 0}

    def _handler(signum, frame):
        seen["count"] += 1
        if seen["count"] > 1 or not request_cancel("interrupt"):
            raise KeyboardInterrupt
        print("\ninterrupt: cancelling run (Ctrl-C again to force quit)",
              file=sys.stderr)

    try:
        previous = signal.signal(signal.SIGINT, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _write_trace(json_path: str | None, chrome_path: str | None) -> None:
    from repro import observe

    trace = observe.disable()
    if trace is None:
        return
    if json_path:
        trace.write_json(json_path)
        print(f"trace: {json_path} ({len(trace.spans)} spans)",
              file=sys.stderr)
    if chrome_path:
        trace.write_chrome(chrome_path)
        print(f"chrome trace: {chrome_path}", file=sys.stderr)


def _run_stats(args, session: DecoMine) -> int:
    """``repro stats``: one observed counting run, then dump the registry."""
    from repro import observe

    tracing = args.trace or args.chrome_trace
    if tracing:
        observe.enable("stats")
    if args.calibration_out:
        observe.calibrate()
    patterns = [parse_pattern(text) for text in args.pattern.split(",")]
    try:
        for pattern in patterns:
            value = session.get_pattern_count(pattern)
            print(f"{pattern.name}: {value} embeddings", file=sys.stderr)
    finally:
        if tracing:
            _write_trace(args.trace, args.chrome_trace)
    if args.calibration_out:
        recorder = observe.calibrate(False)
        report = recorder.report()
        with open(args.calibration_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(report.render(), file=sys.stderr)
        print(f"calibration report: {args.calibration_out}", file=sys.stderr)
    text = (observe.REGISTRY.to_json() if args.format == "json"
            else observe.REGISTRY.to_prometheus())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"metrics: {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
