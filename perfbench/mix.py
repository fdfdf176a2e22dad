"""Op mixes for the three workloads, and the rank rules they obey.

Pure Python with no import of the program, so the mix-design tests run
without building anything.

The mix rule: a run issues a fixed multiset of ops that depends only on
the workload and ``--seconds``, never on the seed; the seed changes
only the order of the ops, or how they are dealt to the daemon's
clients.  Every workload's kinds have equal weight (compile-cold's are
weighted 1:4 by design) and are listed cheapest first, so the sorted
latencies of a run fall into one block per kind.  The percentile ranks
the benchmark reports then land in the middle of a block, never on the
cliff between two kinds.
"""

from __future__ import annotations

import math
import random

#: Kinds per workload, cheapest first, with their weight per round.
KINDS = {
    "count-warm": (("diamond", 1), ("5-clique", 1), ("4-chain", 1),
                   ("bowtie", 1), ("house", 1)),
    "compile-cold": (("reload", 1), ("cold", 4)),
    "serve-mixed": (("3-chain", 1), ("triangle", 1), ("tailed_triangle", 1),
                    ("bowtie", 1), ("motif4-batch", 1)),
}

#: Nominal ops per second on a 2-core x86 host, used only to size a run
#: so that it measures about ``--seconds`` seconds.
NOMINAL_OPS_PER_S = {"count-warm": 3.5, "compile-cold": 6.5,
                     "serve-mixed": 65.0}

#: The percentile ranks the benchmark reports.
RANKS = (0.5, 0.9)

#: ``latency_p90_ms`` needs at least ten samples above it.
MIN_OPS = 100

#: Set-ups per run; the run reports their median as ``setup_s``.
#: compile-cold's set-up is short, so it takes more samples.
SETUP_REPS = {"count-warm": 5, "compile-cold": 10, "serve-mixed": 5}

#: The two closed-loop clients that drive the daemon.
SERVE_CLIENTS = 2


def round_size(workload: str) -> int:
    return sum(weight for _, weight in KINDS[workload])


def rounds_for(workload: str, seconds: float, limit: int | None = None) -> int:
    """Rounds per run: enough for ``seconds`` and for ``MIN_OPS`` ops."""
    size = round_size(workload)
    wanted = math.ceil(seconds * NOMINAL_OPS_PER_S[workload] / size)
    rounds = max(wanted, math.ceil(MIN_OPS / size))
    return min(rounds, limit) if limit is not None else rounds


def ops_for(workload: str, rounds: int, seed: int) -> list:
    """The run's op sequence: a seed-ordered fixed multiset.

    count-warm and serve-mixed ops are kind names.  compile-cold ops are
    ``("cold", i)`` (compile cold pattern ``i``) and ``("reload", i)``
    (reload pattern ``i`` from disk); group ``g`` holds cold patterns
    ``4g..4g+3`` and reloads pattern ``4g`` after all four.
    """
    rng = random.Random(seed)
    if workload == "compile-cold":
        groups = []
        for group in range(rounds):
            members = [("cold", 4 * group + k) for k in range(4)]
            rng.shuffle(members)
            groups.append(members + [("reload", 4 * group)])
        rng.shuffle(groups)
        return [op for group in groups for op in group]
    ops = [kind for kind, weight in KINDS[workload]
           for _ in range(weight * rounds)]
    rng.shuffle(ops)
    return ops


def split(ops: list, parts: int, unit: int = 1) -> list[list]:
    """Cut an op list into ``parts`` contiguous chunks of whole ``unit``s.

    A run alternates set-ups and op chunks, so that its set-up samples
    and its ops both spread over the run instead of sharing one moment
    of a noisy host.
    """
    units = len(ops) // unit
    return [ops[unit * (k * units // parts):unit * ((k + 1) * units // parts)]
            for k in range(parts)]


def deal(ops: list, clients: int = SERVE_CLIENTS) -> list[list]:
    """Deal a shuffled op list round-robin to the daemon's clients."""
    return [ops[index::clients] for index in range(clients)]


def rank_index(q: float, n: int) -> int:
    """Nearest-rank index of the ``q`` quantile among ``n`` sorted values."""
    return max(0, math.ceil(q * n) - 1)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(q, len(ordered))]


def blocks(workload: str, n_ops: int) -> list[tuple[str, int, int]]:
    """``(kind, first, last)`` sorted-latency index range of each kind.

    Assumes every op of a kind is cheaper than every op of the next
    kind, which the steadiness report checks (adjacent medians >= 1.5x).
    """
    per_unit = n_ops // round_size(workload)
    out, first = [], 0
    for kind, weight in KINDS[workload]:
        last = first + weight * per_unit - 1
        out.append((kind, first, last))
        first = last + 1
    return out


def rank_margin(workload: str, n_ops: int, q: float) -> tuple[str, float]:
    """The kind whose block holds rank ``q``, and the rank's distance
    to the nearer block edge as a share of all ops."""
    index = rank_index(q, n_ops)
    for kind, first, last in blocks(workload, n_ops):
        if first <= index <= last:
            return kind, min(index - first, last - index) / n_ops
    raise ValueError(f"rank {q} outside every block of {workload}")
