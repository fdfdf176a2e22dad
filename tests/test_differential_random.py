"""Randomized property-based differential harness.

The curated 18-pattern suite (:mod:`tests.test_differential_engines`)
locks the executors against hand-picked shapes; this harness locks them
against the shapes nobody picked.  Every case draws a random connected
pattern (3-6 vertices: random spanning tree plus random extra edges)
and a random graph (Erdős–Rényi or power-law, 50-300 vertices), compiles
it through the full pipeline per orientation mode, executes it on all
three executors (codegen on both its Python and its C target), and
requires exact agreement with the brute-force reference enumerator.

Determinism contract: every case is a pure function of its integer seed.
A failure's assertion message carries the seed plus the drawn pattern
and graph, so any red case reproduces with one line::

    pytest tests/test_differential_random.py -k "case 1234" # or:
    python -c "from tests.test_differential_random import run_case; run_case(1234)"

Case volume: ``NUM_CASES`` seeds x len(COLUMNS) executor columns x the
per-seed orientation draw — 240 (pattern, graph) evaluations per
executor by default, >200 as the acceptance floor demands.  Set
``REPRO_RANDOM_CASES`` to widen the sweep (CI keeps the default).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph.generators import erdos_renyi, power_law
from repro.graph.transform import ORIENTATIONS
from repro.patterns.pattern import Pattern
from tests.test_differential_engines import COLUMNS, run_column

NUM_CASES = int(os.environ.get("REPRO_RANDOM_CASES", "240"))

#: Distinct random graphs are expensive (profile + brute-force reference
#: per pattern); seeds share graphs in blocks so the sweep stays fast
#: while still crossing every pattern with several graph regimes.
SEEDS_PER_GRAPH = 12


def random_pattern(rng: random.Random) -> Pattern:
    """A uniform-ish random connected pattern on 3-6 vertices.

    A random spanning tree (each vertex attaches to a uniformly chosen
    earlier vertex) guarantees connectivity; every remaining vertex pair
    then gets an edge with probability 0.4, spanning the sparse-to-dense
    range the executors' set-op mixes differ most on.
    """
    k = rng.randint(3, 6)
    edges = {(rng.randrange(v), v) for v in range(1, k)}
    for u in range(k):
        for v in range(u + 1, k):
            if (u, v) not in edges and rng.random() < 0.4:
                edges.add((u, v))
    return Pattern(k, sorted(edges), name=f"random-{k}v-{len(edges)}e")


def random_graph(rng: random.Random):
    """A random data graph: Erdős–Rényi or power-law, 50-300 vertices.

    Degrees are kept moderate (mean 3-7, power-law exponents >= 2.3) so
    the brute-force reference stays tractable: hub-heavy exponents near
    1.8 put the hom mass on a few high-degree vertices and turn the
    enumeration into minutes per case without adding executor coverage
    (the curated suite already has a heavy-tailed graph).
    """
    n = rng.randint(50, 300)
    seed = rng.randrange(2**31)
    if rng.random() < 0.5:
        # Average degree 3-7, expressed as an edge probability.
        p = rng.uniform(3.0, 7.0) / (n - 1)
        return erdos_renyi(n, p, seed=seed)
    return power_law(
        n,
        avg_degree=rng.uniform(3.0, 6.0),
        exponent=rng.uniform(2.3, 3.0),
        seed=seed,
    )


#: Cap on a case's estimated homomorphism count: the brute-force
#: reference enumerates every injective hom, so an unlucky sparse
#: 6-vertex pattern on a dense 300-vertex graph would take minutes.
#: Patterns over budget are redrawn (deterministically — same rng
#: stream), which skews large-k draws toward denser patterns and small
#: graphs without losing the 3-6 vertex coverage.
WORK_BUDGET = 200_000


def _hom_estimate(pattern: Pattern, graph) -> float:
    """First-order expected injective-hom count of ``pattern`` in
    ``graph``: a spanning-tree walk estimate ``n * d * d2^(k-2)`` (d2 =
    mean neighbor degree, the right moment under degree skew) discounted
    per non-tree edge.  The discount uses only half the random-edge
    probability's log-weight — on skewed graphs the hom mass sits on
    hub-adjacent vertex tuples, where extra edges close far more often
    than ``d/n`` suggests, so the full discount badly underestimates."""
    import numpy as np

    degrees = np.diff(graph.indptr)
    total = int(degrees.sum())
    if total == 0:
        return 0.0
    n = graph.num_vertices
    d = total / n
    d2 = float((degrees.astype(float) ** 2).sum()) / total
    k = pattern.num_vertices
    extra = pattern.num_edges - (k - 1)
    return n * d * d2 ** (k - 2) * (d / n) ** (extra / 2)


def draw_pattern(rng: random.Random, graph) -> Pattern:
    """A random connected pattern whose reference enumeration fits the
    work budget on ``graph`` (redraws from the same stream, so the
    result is still a pure function of the seed)."""
    for _ in range(32):
        pattern = random_pattern(rng)
        if _hom_estimate(pattern, graph) <= WORK_BUDGET:
            return pattern
    return Pattern(3, [(0, 1), (1, 2), (0, 2)], name="fallback-triangle")


_GRAPH_CACHE: dict[int, tuple] = {}


def _graph_for(seed: int):
    """Graph + cost profile for a seed's block (cached per block)."""
    block = seed // SEEDS_PER_GRAPH
    if block not in _GRAPH_CACHE:
        rng = random.Random(f"graph-{block}")
        graph = random_graph(rng)
        profile = profile_graph(graph, max_pattern_size=3, trials=40)
        _GRAPH_CACHE[block] = (graph, profile)
    return _GRAPH_CACHE[block]


def run_case(seed: int) -> None:
    """Evaluate one seed: all executors x one drawn orientation."""
    rng = random.Random(f"pattern-{seed}")
    graph, profile = _graph_for(seed)
    pattern = draw_pattern(rng, graph)
    orientation = ORIENTATIONS[seed % len(ORIENTATIONS)]
    expected = reference.count_embeddings(graph, pattern)
    plan = compile_pattern(pattern, profile, orientation=orientation)
    where = (
        f"case {seed}: pattern={pattern.name} edges={pattern.edges()} "
        f"graph={graph} orientation={orientation}"
    )
    for column in COLUMNS:
        result = run_column(column, plan, graph, orientation=orientation)
        assert result.embedding_count == expected, (
            f"{where} executor={column}: "
            f"got {result.embedding_count}, reference {expected}"
        )


@pytest.mark.parametrize("seed", range(NUM_CASES), ids=lambda s: f"case {s}")
def test_random_differential(seed: int) -> None:
    run_case(seed)


def test_no_shared_segments_leaked() -> None:
    """The sweep above (and anything else in the session) must leave no
    shared-memory segments registered to this process."""
    from repro.graph import shared

    assert shared.active_segments() == []


def test_pattern_generator_is_deterministic() -> None:
    a = random_pattern(random.Random("pattern-7"))
    b = random_pattern(random.Random("pattern-7"))
    assert a.edges() == b.edges() and a.num_vertices == b.num_vertices


def test_pattern_generator_yields_connected() -> None:
    for seed in range(200):
        pattern = random_pattern(random.Random(f"pattern-{seed}"))
        assert pattern.is_connected, f"seed {seed} drew a disconnected pattern"
        assert 3 <= pattern.num_vertices <= 6
