"""Runtime: set-op kernels, execution engine, contexts, hash tables.

Attributes are resolved lazily (PEP 562): :mod:`repro.runtime.setops` is
the dependency-free bottom of the package (the graph layer's vertex-set
algebra imports it), so this ``__init__`` must not eagerly pull in the
engine/context modules, which sit *above* the graph layer.
"""

from __future__ import annotations

from repro.runtime import setops
from repro.runtime.setops import KernelStats, SetOpCache

__all__ = [
    "EngineOptions",
    "ExecutionContext",
    "ExecutionMetrics",
    "ExecutionResult",
    "chunk_ranges",
    "execute_plan",
    "NaiveTable",
    "ShrinkageTable",
    "PartialEmbedding",
    "materialize",
    "setops",
    "KernelStats",
    "SetOpCache",
    "RunBudget",
    "RunPolicy",
    "CheckpointStore",
    "ChunkFailure",
    "Supervisor",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "ResourceBudget",
    "ResourceGovernor",
    "CancelToken",
    "ChunkCancelled",
    "MemoryWatchdog",
]

_LAZY = {
    "EngineOptions": "repro.runtime.engine",
    "ExecutionContext": "repro.runtime.context",
    "ExecutionMetrics": "repro.runtime.engine",
    "ExecutionResult": "repro.runtime.engine",
    "chunk_ranges": "repro.runtime.engine",
    "execute_plan": "repro.runtime.engine",
    "NaiveTable": "repro.runtime.hashtable",
    "ShrinkageTable": "repro.runtime.hashtable",
    "PartialEmbedding": "repro.runtime.partial_embedding",
    "materialize": "repro.runtime.partial_embedding",
    "RunBudget": "repro.runtime.supervisor",
    "RunPolicy": "repro.runtime.supervisor",
    "CheckpointStore": "repro.runtime.supervisor",
    "ChunkFailure": "repro.runtime.supervisor",
    "Supervisor": "repro.runtime.supervisor",
    "Fault": "repro.runtime.faults",
    "FaultPlan": "repro.runtime.faults",
    "InjectedFault": "repro.runtime.faults",
    "ResourceBudget": "repro.runtime.resources",
    "ResourceGovernor": "repro.runtime.resources",
    "CancelToken": "repro.runtime.resources",
    "ChunkCancelled": "repro.runtime.resources",
    "MemoryWatchdog": "repro.runtime.resources",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
