"""Host-speed probe: the yardstick for reference-host times.

The hosts this benchmark runs on are shared. The same code runs at two
speeds about 1.6x apart there, and the host switches between them every
few seconds to minutes. A 10-run set that catches both speeds can read
an `ops_per_s` spread of 0.47 while the code does not change. So each
run times a fixed probe between its set-ups and op chunks, and divides
every time it measures by the probe's factor at that moment.

The probe is pure Python set intersections over fixed random graphs, as
the generated counting loops do. It imports nothing from the program,
so a change to the program never moves it.
"""

from __future__ import annotations

import random
import statistics
import time

#: Probe time (median of one calibration point) on the reference host:
#: a 2-vCPU x86 VM.  Reference-host times are measured times scaled by
#: ``REFERENCE_S / probe time``.
REFERENCE_S = 0.01

_REPEATS = 5


def _random_graph(vertices: int, edges: int, rng: random.Random) -> list:
    adj = [set() for _ in range(vertices)]
    placed = 0
    while placed < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            placed += 1
    return adj


class Probe:
    """Two set-intersection kernels: one whose data fits in a core's
    caches, one whose data (a 6000-vertex graph, read at 1000 random
    vertices, a few MB) does not, since the host's slow phase hurts the
    latter more."""

    def __init__(self) -> None:
        rng = random.Random(20230325)
        self.small = _random_graph(1600, 5000, rng)
        self.big = _random_graph(6000, 24000, rng)
        self.sample = rng.sample(range(6000), 1000)

    def _kernel(self) -> int:
        triangles = 0
        for v, near in enumerate(self.small):
            for u in near:
                if u < v:
                    triangles += len(near & self.small[u])
        for v in self.sample:
            near = self.big[v]
            for u in near:
                triangles += len(near & self.big[u])
        return triangles

    def factor(self) -> float:
        """How much slower than the reference host the host runs now."""
        times = []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        return statistics.median(times) / REFERENCE_S
