"""The three workloads: count-warm, compile-cold and serve-mixed.

Each ``run_*`` function alternates ``mix.SETUP_REPS`` set-ups with as
many chunks of its fixed op multiset, issued closed-loop, and returns a
:class:`Run`; ``setup_s`` is the median set-up, and the op metrics cover
the chunks only.  A host-speed probe (``calibrate.py``) runs between
set-ups and chunks, and the end-to-end times are reference-host times:
each set-up and chunk is divided by the probe's factor around it.
Every op's count is checked against ``fixture.json``.
All executions and the daemon use ``workers=1``: two shared cores give
no steady parallel numbers.
"""

from __future__ import annotations

import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import mix
from calibrate import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run-private scratch space inside the checkout (git-ignored).
SCRATCH = ROOT / ".perfbench"

#: Longest wait for the daemon to accept connections or to exit.
DAEMON_WAIT_S = 60.0

now = time.monotonic


@dataclass
class Run:
    """What one run measured."""

    #: ``(seconds, host factor)`` per set-up.
    setups: list = field(default_factory=list)
    #: ``(kind, latency seconds)`` per op, in issue order.
    latencies: list = field(default_factory=list)
    #: ``(first op, end op, wall s, cpu s, host factor)`` per op chunk.
    chunks: list = field(default_factory=list)
    #: ``(start, end)`` of each op chunk, on ``time.monotonic``.
    windows: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Problems that make the run incorrect without being op failures:
    #: set-up count mismatches, leaked segments, an unclean daemon exit.
    errors: list = field(default_factory=list)
    #: Facts for the per-layer metrics.
    overhead_s: list = field(default_factory=list)
    hits: list = field(default_factory=list)
    kernel_calls: list = field(default_factory=list)
    setop_hits: int = 0
    setop_lookups: int = 0
    coalesced_share: float = 0.0
    rejected_share: float = 0.0
    ledger_bytes_per_op: float = 0.0
    spans: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    probe: Probe = field(default_factory=Probe)
    _factor: float = 0.0

    def __post_init__(self) -> None:
        self._factor = self.probe.factor()

    def _factor_around(self) -> float:
        """Mean of the previous probe point and a new one taken now."""
        before, self._factor = self._factor, self.probe.factor()
        return (before + self._factor) / 2

    def add_setup(self, seconds: float) -> None:
        self.setups.append((seconds, self._factor_around()))

    def chunk(self, cpu_clock, ops, issue) -> None:
        """Issue one chunk of ops, recording its wall and CPU time."""
        first, cpu0, start = len(self.latencies), cpu_clock(), now()
        issue(ops)
        end, cpu = now(), cpu_clock() - cpu0
        self.windows.append((start, end))
        self.chunks.append((first, len(self.latencies), end - start, cpu,
                            self._factor_around()))

    def record(self, kind, latency, responses, expected) -> None:
        """Check one op's responses against the fixture and log it."""
        counts = [r.count if r.ok else None for r in responses]
        if counts != expected:
            print(f"perfbench: {kind} failed: got {counts}, want "
                  f"{expected}; errors "
                  f"{[r.error for r in responses if r.error]}",
                  file=sys.stderr)
        stats = responses[0].metrics.get("kernel_stats")
        with self._lock:
            self.attempted += 1
            self.failed += counts != expected
            self.latencies.append((kind, latency))
            self.overhead_s.append(latency - responses[0].seconds)
            self.hits.append(all(r.plan_cache_hit for r in responses))
            if len(responses) == 1 and stats is not None:
                self.kernel_calls.append(responses[0].metrics["kernel_calls"])
                self.setop_hits += stats["cache_hits"]
                self.setop_lookups += (stats["cache_hits"]
                                       + stats["cache_misses"])

    def fail(self, kind, latency, exc) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.latencies.append((kind, latency))
        print(f"perfbench: {kind} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)


class Fixture:
    def __init__(self) -> None:
        self.data = json.loads((HERE / "fixture.json").read_text())

    def pattern(self, name: str):
        from repro.patterns.pattern import Pattern

        spec = self.data["patterns"][name]
        return Pattern(spec["n"], [tuple(e) for e in spec["edges"]],
                       name=name)

    def count(self, dataset: str, name: str) -> int:
        return self.data["counts"][dataset][name]

    @property
    def motif4(self) -> list[str]:
        return self.data["motif4"]

    @property
    def cold_order(self) -> list[str]:
        return self.data["cold_order"]


def _requests(patterns):
    from repro.api.messages import MiningRequest

    return [MiningRequest(pattern=pattern) for pattern in patterns]


def _check_setup(run: Run, what: str, responses, expected) -> None:
    counts = [r.count if r.ok else None for r in responses]
    if counts != expected:
        run.errors.append(f"set-up {what}: got {counts}, want {expected}")


def _check_segments(run: Run) -> None:
    from repro.graph.shared import active_segments

    leaked = active_segments()
    if leaked:
        run.errors.append(f"leaked shared-memory segments: {leaked}")


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine(executor: str):
    from repro.runtime.engine import EngineOptions

    return EngineOptions(workers=1, executor=executor)


# ----------------------------------------------------------------------
# count-warm: warm in-process counting on lj, codegen executor
# ----------------------------------------------------------------------
def run_count_warm(seed: int, seconds: float) -> Run:
    from repro import DecoMine
    from repro.api.messages import MiningRequest
    from repro.compiler.plancache import PlanCache
    from repro.costmodel import profile_graph
    from repro.graph import datasets

    fixture, run = Fixture(), Run()
    kinds = [kind for kind, _ in mix.KINDS["count-warm"]]
    patterns = {kind: fixture.pattern(kind) for kind in kinds}
    expected = {kind: fixture.count("lj", kind) for kind in kinds}
    engine = _engine("codegen")
    ops = mix.ops_for("count-warm", mix.rounds_for("count-warm", seconds),
                      seed)
    reps = mix.SETUP_REPS["count-warm"]
    session = None

    def issue(chunk):
        for kind in chunk:
            started = now()
            try:
                response = session.submit(MiningRequest(pattern=patterns[kind]))
            except Exception as exc:  # a failed op is counted, not fatal
                run.fail(kind, now() - started, exc)
                continue
            run.record(kind, now() - started, [response], [expected[kind]])

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        for rep, chunk in enumerate(mix.split(ops, reps)):
            # Load, profile, compile and publish every plan, execute each
            # once, then restart a session over the published plans.
            session = None
            started = now()
            datasets.clear_cache()
            graph = datasets.load("lj")
            plans = PlanCache(Path(tmp) / f"plans-{rep}")
            compiler = DecoMine(graph, profile=profile_graph(graph),
                                engine=engine, plan_cache=plans)
            for pattern in patterns.values():
                compiler.plan_for(pattern)
            responses = compiler.submit_batch(_requests(patterns.values()))
            session = DecoMine(graph, engine=engine,
                               plan_cache=PlanCache(plans.path))
            for pattern in patterns.values():
                session.plan_for(pattern)
            run.add_setup(now() - started)
            _check_setup(run, "batch", responses,
                         [expected[kind] for kind in kinds])
            run.chunk(time.process_time, chunk, issue)
    run.peak_rss_mb = _self_rss_mb()
    _check_segments(run)
    return run


# ----------------------------------------------------------------------
# compile-cold: cold compiles (write path) and disk reloads (read path)
# ----------------------------------------------------------------------
def run_compile_cold(seed: int, seconds: float) -> Run:
    from repro import DecoMine
    from repro.api.messages import MiningRequest
    from repro.compiler.plancache import PlanCache
    from repro.costmodel import profile_graph
    from repro.graph import datasets

    fixture, run = Fixture(), Run()
    engine = _engine("codegen")
    motif4 = [fixture.pattern(name) for name in fixture.motif4]
    groups = mix.rounds_for("compile-cold", seconds,
                            limit=len(fixture.cold_order) // 4)
    names = fixture.cold_order[:4 * groups]
    patterns = [fixture.pattern(name) for name in names]
    ops = mix.ops_for("compile-cold", groups, seed)
    reps = mix.SETUP_REPS["compile-cold"]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        plan_dir = Path(tmp) / "plans"

        def issue(chunk):
            for kind, index in chunk:
                started = now()
                try:
                    if kind == "cold":
                        # A fresh session over a copy of the set-up
                        # profile (so no plan or estimate from an earlier
                        # op leaks in) and the run-private plan cache:
                        # the op compiles, then stores.
                        own = copy.copy(profile)
                        own.counts = dict(base_counts)
                        session = DecoMine(graph, profile=own, engine=engine,
                                           plan_cache=PlanCache(plan_dir))
                    else:
                        session = DecoMine(graph, engine=engine,
                                           plan_cache=PlanCache(plan_dir))
                    response = session.submit(
                        MiningRequest(pattern=patterns[index]))
                except Exception as exc:  # a failed op is counted
                    run.fail(kind, now() - started, exc)
                    continue
                run.record(kind, now() - started, [response],
                           [fixture.count("cs", names[index])])

        for chunk in mix.split(ops, reps, unit=5):
            # Load, profile, and warm the program's lazy machinery with
            # one batch of 4-vertex motifs (none is a cold pattern).
            started = now()
            datasets.clear_cache()
            graph = datasets.load("cs")
            profile = profile_graph(graph)
            base_counts = dict(profile.counts)
            warm = DecoMine(graph, profile=profile, engine=engine)
            responses = warm.submit_batch(_requests(motif4))
            run.add_setup(now() - started)
            _check_setup(run, "motif4 batch", responses,
                         [fixture.count("cs", name)
                          for name in fixture.motif4])
            run.chunk(time.process_time, chunk, issue)
    run.peak_rss_mb = _self_rss_mb()
    _check_segments(run)
    return run


# ----------------------------------------------------------------------
# serve-mixed: the daemon on wk, driven by two closed-loop clients
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess over run-private paths."""

    def __init__(self, tmp: Path, spans: Path | None) -> None:
        self.socket = os.path.relpath(tmp / "d.sock", ROOT)
        self.log = tmp / "daemon.log"
        args = ["serve", "--dataset", "wk", "--executor", "vectorized",
                "--workers", "1", "--max-inflight", str(mix.SERVE_CLIENTS),
                "--plan-cache", str(tmp / "plans"),
                "--ledger", str(tmp / "ledger.jsonl"),
                "--socket", self.socket]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--spans", str(spans), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                         stdout=log, stderr=log)

    def client(self, client_id: str):
        from repro.exceptions import ReproError
        from repro.serve import Client

        deadline = now() + DAEMON_WAIT_S
        while True:
            try:
                return Client(self.socket, client_id=client_id)
            except ReproError:
                if self.proc.poll() is not None or now() > deadline:
                    raise RuntimeError(
                        f"daemon did not come up:\n{self.log.read_text()}")
                time.sleep(0.01)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self, client, run: Run) -> None:
        try:
            client.shutdown()
        finally:
            client.close()
        try:
            code = self.proc.wait(timeout=DAEMON_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = "timeout"
        if code != 0:
            run.errors.append(f"daemon exit {code}:\n{self.log.read_text()}")
        if os.path.exists(os.path.join(ROOT, self.socket)):
            run.errors.append("daemon left its socket behind")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _serve_op(client, kind, singles, batch, fixture, run: Run) -> None:
    started = now()
    try:
        if kind == "motif4-batch":
            responses = client.submit_batch(batch)
            expected = [fixture.count("wk", name) for name in fixture.motif4]
        else:
            responses = [client.submit(singles[kind])]
            expected = [fixture.count("wk", kind)]
    except Exception as exc:  # a failed op is counted, not fatal
        run.fail(kind, now() - started, exc)
        return
    run.record(kind, now() - started, responses, expected)


def run_serve_mixed(seed: int, seconds: float, trace: bool) -> Run:
    fixture, run = Fixture(), Run()
    kinds = [kind for kind, _ in mix.KINDS["serve-mixed"]]
    singles = {kind: fixture.pattern(kind) for kind in kinds
               if kind != "motif4-batch"}
    batch = [fixture.pattern(name) for name in fixture.motif4]
    ops = mix.ops_for("serve-mixed", mix.rounds_for("serve-mixed", seconds),
                      seed)
    reps = mix.SETUP_REPS["serve-mixed"]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    ledger = tmp / "ledger.jsonl"
    coalesced = rejected = requests = ledger_bytes = 0
    daemon = None

    def issue(chunk):
        threads = [threading.Thread(target=drive, args=(client, share))
                   for client, share in zip(clients, mix.deal(chunk))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def drive(client, share):
        for kind in share:
            _serve_op(client, kind, singles, batch, fixture, run)

    try:
        for rep, chunk in enumerate(mix.split(ops, reps)):
            # Start the daemon and warm every kind.  The first start
            # compiles and publishes; later ones restart over the
            # published plans, as a redeployed daemon does.
            started = now()
            daemon = Daemon(tmp, tmp / f"spans-{rep}.json" if trace else None)
            warm = daemon.client("warm")
            for kind, pattern in singles.items():
                _check_setup(run, kind, [warm.submit(pattern)],
                             [fixture.count("wk", kind)])
            _check_setup(run, "motif4 batch", warm.submit_batch(batch),
                         [fixture.count("wk", name)
                          for name in fixture.motif4])
            run.add_setup(now() - started)
            warm.close()
            # The daemon takes at most two client connections.
            clients = [daemon.client(f"bench-{index}")
                       for index in range(mix.SERVE_CLIENTS)]
            before = clients[0].stats()["stats"]
            ledger_before = ledger.stat().st_size
            run.chunk(daemon.cpu_s, chunk, issue)
            after = clients[0].stats()["stats"]
            requests += after["requests"] - before["requests"]
            coalesced += after["coalesced"] - before["coalesced"]
            rejected += after["rejections"] - before["rejections"]
            ledger_bytes += ledger.stat().st_size - ledger_before
            run.peak_rss_mb = max(run.peak_rss_mb, daemon.peak_rss_mb())
            clients[1].close()
            daemon.shutdown(clients[0], run)
        run.coalesced_share = coalesced / requests
        run.rejected_share = rejected / requests
        run.ledger_bytes_per_op = ledger_bytes / len(ops)
        if trace:
            for rep in range(reps):
                spans = json.loads((tmp / f"spans-{rep}.json").read_text())
                offset = len(run.spans)
                for span in spans:
                    if span[4] >= 0:
                        span[4] += offset
                run.spans.extend(spans)
    finally:
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    return run


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; a traced run also carries its spans."""
    tracer = None
    if trace and workload != "serve-mixed":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "count-warm":
        run = run_count_warm(seed, seconds)
    elif workload == "compile-cold":
        run = run_compile_cold(seed, seconds)
    else:
        run = run_serve_mixed(seed, seconds, trace)
    if tracer is not None:
        run.spans = tracer.spans
    return run


def end_to_end(run: Run, reference: bool = True) -> dict:
    """The end-to-end metrics, in reference-host time by default.

    ``reference=False`` gives the raw measured times, for comparison.
    """
    def scaled(factor):
        return factor if reference else 1.0

    latencies = [latency / scaled(factor)
                 for first, end, _, _, factor in run.chunks
                 for _, latency in run.latencies[first:end]]
    wall = sum(wall / scaled(factor) for _, _, wall, _, factor in run.chunks)
    cpu = sum(cpu / scaled(factor) for _, _, _, cpu, factor in run.chunks)
    return {
        "setup_s": (statistics.median(seconds / scaled(factor)
                                      for seconds, factor in run.setups), "s"),
        "ops_per_s": (run.attempted / wall, "1/s"),
        "latency_p50_ms": (1e3 * mix.percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * mix.percentile(latencies, 0.9), "ms"),
        "cpu_ms_per_op": (1e3 * cpu / run.attempted, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(workload: str, run: Run) -> tuple[dict, str]:
    """Per-layer metrics of a traced run, and the traced-run report."""
    import layers

    op_wall = sum(latency for _, latency in run.latencies)
    summary = layers.summarize(run.spans, run.windows, op_wall)
    self_s = summary.pop("layer_self_s")
    values = {
        **summary,
        "compiler.plan_hit_rate": sum(run.hits) / max(len(run.hits), 1),
        "runtime.kernel_calls_per_op": (
            sum(run.kernel_calls) / max(len(run.kernel_calls), 1)),
        "runtime.setop_cache_hit_rate": (
            run.setop_hits / max(run.setop_lookups, 1)),
        "serve.overhead_ms": (
            1e3 * sum(run.overhead_s) / max(len(run.overhead_s), 1)),
        "serve.coalesced_share": run.coalesced_share,
        "serve.rejected_share": run.rejected_share,
        "observe.ledger_bytes_per_op": run.ledger_bytes_per_op,
        "trace.ops_per_s": end_to_end(run)["ops_per_s"][0],
    }
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, layers.report(workload, values, self_s, op_wall)
