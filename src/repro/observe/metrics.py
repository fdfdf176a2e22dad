"""Process-local metrics registry: counters, gauges, histograms.

One :data:`REGISTRY` absorbs the telemetry that PR 1 and PR 3 scattered
across ``ExecutionResult`` fields and ad-hoc dicts — set-op kernel
dispatch counts, memo-cache hits, supervisor retries, pool restarts,
checkpoint replays — behind a single API with two exporters:

* :meth:`MetricsRegistry.to_json` — a stable JSON snapshot (the
  ``repro stats`` CLI subcommand and the CI artifact);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, scrape-ready.

Instruments are cheap plain-Python objects (an attribute add per
update); callers on hot paths should nevertheless batch (the engine
publishes one per-run delta rather than counting per kernel call).

Naming scheme (see docs/OBSERVABILITY.md): ``repro_<area>_<what>_total``
for counters, ``repro_<area>_<what>`` for gauges, and
``repro_<area>_<what>_seconds`` for timing histograms.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")

#: Default histogram buckets (seconds), Prometheus' classic latency set.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotone counter."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}

    def expose(self) -> Iterable[str]:
        yield f"{self.name} {_fmt(self._value)}"


class Gauge:
    """Set-to-current-value instrument."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}

    def expose(self) -> Iterable[str]:
        yield f"{self.name} {_fmt(self._value)}"


class Histogram:
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style)."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 for a zero-sample histogram — the
        exporters must never divide by an empty count)."""
        if not self._count:
            return 0.0
        return self._sum / self._count

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts (Prometheus ``le`` semantics)."""
        out, running = [], 0
        for n in self._counts:
            running += n
            out.append(running)
        return out

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "buckets": {
                _fmt(bound): cum
                for bound, cum in zip(self.buckets, self.cumulative())
            },
        }

    def expose(self) -> Iterable[str]:
        for bound, cum in zip(self.buckets, self.cumulative()):
            yield f'{self.name}_bucket{{le="{_fmt(bound)}"}} {cum}'
        yield f'{self.name}_bucket{{le="+Inf"}} {self._count}'
        yield f"{self.name}_sum {_fmt(self._sum)}"
        yield f"{self.name}_count {self._count}"


def _fmt(value: float) -> str:
    """Render floats without a spurious trailing ``.0`` for whole numbers."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ReproError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}; cannot re-register it as a "
                    f"{cls.kind}"
                )
            if cls is Histogram:
                requested = kwargs.get("buckets", DEFAULT_BUCKETS)
                if requested != existing.buckets:
                    requested = tuple(sorted(requested))
                    if requested != existing.buckets:
                        raise ReproError(
                            f"histogram {name!r} is already registered "
                            f"with buckets {existing.buckets}; cannot "
                            f"re-register it with buckets {requested}"
                        )
            return existing
        # Only a name that is not registered yet needs checking.
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        instrument = cls(name, help, **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every instrument (tests and per-run isolation)."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        lines: list[str] = []
        for name in self.names():
            instrument = self._metrics[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            lines.extend(instrument.expose())
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help, buckets=buckets)
