"""Paper-table benchmark harness: timing, reporting, shared workloads."""

from repro.bench.harness import (
    Measurement,
    measure_cell,
    speedup,
    time_call,
    time_call_preemptive,
)
from repro.bench.reporting import Table
from repro.bench.workloads import (
    SYSTEM_NAMES,
    make_system,
    profile_for,
    session_for,
)

__all__ = [
    "Measurement",
    "time_call_preemptive",
    "measure_cell",
    "speedup",
    "time_call",
    "Table",
    "SYSTEM_NAMES",
    "make_system",
    "profile_for",
    "session_for",
]
