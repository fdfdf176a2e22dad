"""Benchmark harness utilities.

Benchmarks in this repository regenerate the paper's tables and figures
at reproduction scale.  The harness provides:

* :func:`time_call` — wall-clock timing with a timeout guard that maps
  over-budget runs to the paper's "T (timeout)" table entries and budget
  blowups (:class:`~repro.exceptions.BudgetExceededError`) to its
  "C (crashed)" entries;
* :class:`Measurement` — one table cell, formatted like the paper's.

Performance of the system itself is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import BudgetExceededError
from repro.observe.trace import span

__all__ = ["Measurement", "time_call", "speedup"]


@dataclass
class Measurement:
    """One benchmark cell: a runtime, a timeout, or a crash."""

    seconds: float | None
    value: object = None
    status: str = "ok"  # 'ok' | 'timeout' | 'crashed'

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def format(self) -> str:
        if self.status == "timeout":
            return "T"
        if self.status == "crashed":
            return "C"
        assert self.seconds is not None
        if self.seconds < 1e-3:
            return f"{self.seconds * 1e6:.0f}us"
        if self.seconds < 1.0:
            return f"{self.seconds * 1e3:.1f}ms"
        if self.seconds < 120.0:
            return f"{self.seconds:.2f}s"
        return f"{self.seconds / 60.0:.1f}m"

    def __str__(self) -> str:
        return self.format()


def time_call(
    fn: Callable,
    *args,
    timeout: float | None = None,
    **kwargs,
) -> Measurement:
    """Time one call.

    ``timeout`` is checked *after* the call (plain Python can't preempt a
    tight loop); callers bound their workload sizes so a over-limit run
    still terminates, and the measurement is reported as the paper's "T".
    A :class:`BudgetExceededError` is reported as the paper's "C".
    """
    started = time.perf_counter()
    try:
        with span("bench:call", fn=getattr(fn, "__name__", "call")):
            value = fn(*args, **kwargs)
    except BudgetExceededError:
        return Measurement(None, None, status="crashed")
    elapsed = time.perf_counter() - started
    if timeout is not None and elapsed > timeout:
        return Measurement(elapsed, value, status="timeout")
    return Measurement(elapsed, value)


def time_call_preemptive(
    fn: Callable,
    timeout: float,
    *args,
    **kwargs,
) -> Measurement:
    """Time one call with a *hard* timeout, via a forked child process.

    This is how the benchmark grid reproduces the paper's "T (timeout)"
    cells without actually spending the paper's 12-hour budget: the child
    is terminated at the deadline.  ``BudgetExceededError`` in the child is
    reported as the paper's "C (crashed)".  The callable's return value
    must be picklable (counts and small dicts are).
    """
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    queue = ctx.SimpleQueue()

    def runner() -> None:
        try:
            queue.put(("ok", fn(*args, **kwargs)))
        except BudgetExceededError:
            queue.put(("crashed", None))

    started = time.perf_counter()
    child = ctx.Process(target=runner)
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.terminate()
        child.join()
        return Measurement(None, None, status="timeout")
    elapsed = time.perf_counter() - started
    status, value = queue.get()
    if status == "crashed":
        return Measurement(None, None, status="crashed")
    return Measurement(elapsed, value)


def measure_cell(fn: Callable, timeout: float, warm: bool = True) -> Measurement:
    """Measure one benchmark cell, warm for cache-bearing systems.

    A forked probe run bounds the cell (timeouts/crashes reported from
    it, without risking the parent).  When the probe succeeds comfortably
    and ``warm`` is set, the cell runs twice more in-parent — once to
    populate plan caches and profiling state, once for the reported warm
    time.  This mirrors the paper's amortization stance ("the runtimes
    exclude graph loading and profiling time as they can be amortized
    with multiple applications", section 8.2): the Python algorithm
    search plays the role of the paper's sub-50ms C++ compilation, and
    repeated workloads pay it once.  Pass ``warm=False`` for systems with
    no caches to warm (the enumerate-everything baselines).
    """
    probe = time_call_preemptive(fn, timeout)
    if not probe.ok or not warm or probe.seconds > timeout / 2:
        return probe
    time_call(fn)  # populate caches in-parent (bounded: probe succeeded)
    return time_call(fn)


def speedup(baseline: Measurement, ours: Measurement) -> str:
    """Format the paper-style "(Nx)" speedup annotation."""
    if not baseline.ok or not ours.ok or not ours.seconds:
        return "-"
    assert baseline.seconds is not None
    return f"{baseline.seconds / ours.seconds:.1f}x"
