#!/usr/bin/env python3
"""Disabled-mode observability overhead gate.

The tracing layer promises near-zero cost when disabled: every ``span()``
call site collapses to one module-flag check returning a shared no-op
handle.  This script keeps that promise honest on the fig16 smoke
workload (house counting on mico) with two measurements:

* **derived bound** (gated) — microbenchmark the per-call cost of a
  disabled ``span()`` against a bare no-op stub, count how many span
  call sites one run actually hits (by enabling tracing once and
  counting the spans), and bound the instrumentation share of the run
  as ``spans_per_run x per_call_cost / run_seconds``.  A disabled span
  does nothing besides that call, so the product is a tight bound, and
  it is immune to scheduler noise.
* **end-to-end delta** (informational) — the same run timed with the
  engine's ``span`` rebound to a zero-cost stub vs the shipped code.
  On a loaded single-core container run-to-run jitter (several percent
  between *identical* arms) swamps the true sub-0.1% overhead, so this
  is reported but only sanity-checked against an absolute jitter floor.
* **ledger + heartbeat delta** — the fig16 fault-free supervised
  4-worker run timed with the run ledger active and a progress reporter
  attached vs both off.  Both features together must stay under the
  threshold (or the jitter floor): the ledger writes one JSON line per
  run and each heartbeat is a dataclass plus six gauge sets per chunk,
  so this is dominated by the same scheduler noise as the end-to-end
  arm.
* **resource-governor delta** — the same supervised run with an
  unbounded ``ResourceBudget`` attached (shared cancel token, per-vertex
  poll ticks, salvage bookkeeping; no watchdog, nothing ever fires) vs
  plain supervision, gated the same way.

Designed as a CI gate::

    PYTHONPATH=src python scripts/observe_overhead.py --json overhead.json

Exits nonzero when the derived bound exceeds the threshold (default 2%)
or either end-to-end delta exceeds both the threshold and the jitter
floor (default 25ms).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import repro.runtime.engine as engine_mod
from repro import observe
from repro.bench import session_for
from repro.graph import datasets
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan

MICROBENCH_CALLS = 200_000


class _NullSpan:
    """What a span costs when the instrumentation does not exist."""

    duration = None  # callers fall back to their own clock

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self


_NULL = _NullSpan()


def _null_span(name, **attrs):
    return _NULL


def _per_call_overhead() -> float:
    """Seconds of extra cost per disabled ``span()`` call site, best of 5
    microbench rounds (vs an empty stub with the same signature)."""
    from repro.observe.trace import span

    assert not observe.enabled()
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(MICROBENCH_CALLS):
            with span("x", index=0):
                pass
        disabled = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(MICROBENCH_CALLS):
            with _null_span("x", index=0):
                pass
        stub = time.perf_counter() - started
        best = min(best, (disabled - stub) / MICROBENCH_CALLS)
    return max(best, 0.0)


def measure(rounds: int) -> dict:
    graph = datasets.load("mc")
    session = session_for(graph)
    plan = session.plan_for(catalog.house())
    options = EngineOptions(workers=1)
    assert not observe.enabled(), "gate must run with tracing disabled"

    # How many span call sites does one run actually hit?
    observe.enable("overhead-gate")
    try:
        execute_plan(plan, graph, options=options)
    finally:
        trace = observe.disable()
    spans_per_run = len(trace.spans)

    per_call_s = _per_call_overhead()

    def sample() -> float:
        started = time.perf_counter()
        execute_plan(plan, graph, options=options)
        return time.perf_counter() - started

    real_span = engine_mod.span
    instrumented = float("inf")
    stripped = float("inf")
    sample()  # warm caches outside the timed region
    for index in range(rounds):
        # ABBA order so slow drift hits both arms symmetrically.
        arms = ("real", "null") if index % 2 == 0 else ("null", "real")
        for arm in arms:
            if arm == "real":
                instrumented = min(instrumented, sample())
            else:
                engine_mod.span = _null_span
                try:
                    stripped = min(stripped, sample())
                finally:
                    engine_mod.span = real_span

    derived_pct = spans_per_run * per_call_s / instrumented * 100.0
    return {
        "workload": "fig16-smoke: house on mico, serial",
        "spans_per_run": spans_per_run,
        "span_call_overhead_ns": per_call_s * 1e9,
        "run_seconds": instrumented,
        "derived_overhead_pct": derived_pct,
        "measured_instrumented_s": instrumented,
        "measured_stripped_s": stripped,
        "measured_overhead_ms": (instrumented - stripped) * 1000.0,
        "measured_overhead_pct":
            (instrumented - stripped) / stripped * 100.0,
    }


def measure_ledger_and_heartbeats(rounds: int) -> dict:
    """Enabled-mode cost of the run ledger + progress heartbeats.

    Fault-free supervised 4-worker fig16 run (house on mico), best-of-N
    per arm in ABBA order: ledger recording to a throwaway file and a
    no-op progress reporter vs both features off.
    """
    import tempfile

    from repro.observe.ledger import disable_ledger, enable_ledger

    graph = datasets.load("mc")
    session = session_for(graph)
    plan = session.plan_for(catalog.house())
    plain = EngineOptions(workers=4)
    observed = EngineOptions(workers=4, progress=lambda event: None)

    def sample(options) -> float:
        started = time.perf_counter()
        execute_plan(plan, graph, options=options)
        return time.perf_counter() - started

    sample(plain)  # warm the fork-state/pool path outside timing
    baseline = enabled = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(rounds):
            arms = ("on", "off") if index % 2 == 0 else ("off", "on")
            for arm in arms:
                if arm == "off":
                    baseline = min(baseline, sample(plain))
                else:
                    enable_ledger(Path(tmp) / "ledger.jsonl")
                    try:
                        enabled = min(enabled, sample(observed))
                    finally:
                        disable_ledger()
    return {
        "ledger_workload":
            "fig16 fault-free: house on mico, 4 workers, supervised",
        "ledger_baseline_s": baseline,
        "ledger_enabled_s": enabled,
        "ledger_overhead_ms": (enabled - baseline) * 1000.0,
        "ledger_overhead_pct": (enabled - baseline) / baseline * 100.0,
    }


def measure_governor(rounds: int) -> dict:
    """Enabled-mode cost of the resource governor.

    The same fig16 supervised run with an *unbounded*
    :class:`ResourceBudget` attached vs plain supervision: that prices
    exactly the always-on machinery — shared-token create/unlink, the
    per-outer-vertex ``_poll()`` counter tick, and the salvage
    bookkeeping — without any cancellations or bisections firing.
    """
    from repro.runtime.resources import ResourceBudget
    from repro.runtime.supervisor import RunPolicy

    graph = datasets.load("mc")
    session = session_for(graph)
    plan = session.plan_for(catalog.house())
    plain = RunPolicy()
    governed = RunPolicy(resources=ResourceBudget())
    options = EngineOptions(workers=4)

    def sample(policy) -> float:
        started = time.perf_counter()
        execute_plan(plan, graph, options=options, policy=policy)
        return time.perf_counter() - started

    sample(plain)  # warm the fork/pool path outside timing
    baseline = enabled = float("inf")
    for index in range(rounds):
        arms = ("on", "off") if index % 2 == 0 else ("off", "on")
        for arm in arms:
            if arm == "off":
                baseline = min(baseline, sample(plain))
            else:
                enabled = min(enabled, sample(governed))
    return {
        "governor_workload":
            "fig16 fault-free: house on mico, 4 workers, governed",
        "governor_baseline_s": baseline,
        "governor_enabled_s": enabled,
        "governor_overhead_ms": (enabled - baseline) * 1000.0,
        "governor_overhead_pct": (enabled - baseline) / baseline * 100.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed end-to-end samples per arm (best-of)")
    parser.add_argument("--threshold-pct", type=float, default=2.0,
                        help="maximum tolerated disabled-mode overhead")
    parser.add_argument("--floor-ms", type=float, default=25.0,
                        help="absolute end-to-end delta below which the "
                             "measured check always passes (jitter floor)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the measurement report as JSON")
    args = parser.parse_args(argv)

    report = measure(args.rounds)
    report.update(measure_ledger_and_heartbeats(args.rounds))
    report.update(measure_governor(args.rounds))
    derived_ok = report["derived_overhead_pct"] < args.threshold_pct
    measured_ok = (report["measured_overhead_pct"] < args.threshold_pct
                   or abs(report["measured_overhead_ms"]) < args.floor_ms)
    ledger_ok = (report["ledger_overhead_pct"] < args.threshold_pct
                 or abs(report["ledger_overhead_ms"]) < args.floor_ms)
    governor_ok = (report["governor_overhead_pct"] < args.threshold_pct
                   or abs(report["governor_overhead_ms"]) < args.floor_ms)
    ok = derived_ok and measured_ok and ledger_ok and governor_ok
    report.update({
        "threshold_pct": args.threshold_pct,
        "floor_ms": args.floor_ms,
        "derived_ok": derived_ok,
        "measured_ok": measured_ok,
        "ledger_ok": ledger_ok,
        "governor_ok": governor_ok,
        "ok": ok,
    })

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)
    verdict = "OK" if ok else "FAILED"
    print(
        f"observe overhead {verdict}: {report['spans_per_run']} disabled "
        f"span sites x {report['span_call_overhead_ns']:.0f}ns = "
        f"{report['derived_overhead_pct']:.4f}% of the "
        f"{report['run_seconds'] * 1000:.1f}ms run (gate "
        f"<{args.threshold_pct}%); end-to-end delta "
        f"{report['measured_overhead_ms']:+.2f}ms "
        f"({report['measured_overhead_pct']:+.2f}%, jitter floor "
        f"{args.floor_ms}ms); ledger+heartbeats "
        f"{report['ledger_overhead_ms']:+.2f}ms "
        f"({report['ledger_overhead_pct']:+.2f}%) on the 4-worker run; "
        f"resource governor {report['governor_overhead_ms']:+.2f}ms "
        f"({report['governor_overhead_pct']:+.2f}%)",
        file=sys.stderr,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
