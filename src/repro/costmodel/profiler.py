"""Graph profiling for the cost models (paper Figure 10).

``profile_graph`` measures the statistics every model needs (connection
probability, locality probability, label histogram) and — for the
approximate-mining model — builds the pattern-count table: sample a fixed
edge budget, estimate the injective homomorphism count of every connected
pattern up to ``max_pattern_size`` by neighbor sampling, rescale to
full-graph magnitude, and cache the results keyed by canonical code.

Counts for patterns larger than the table (the paper: "DecoMine can
quickly run the profiling on demand and cache the results") are filled
lazily through :meth:`CostProfile.lookup`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.csr import CSRGraph
from repro.graph.properties import connection_probability, estimate_local_probability
from repro.patterns.generation import all_connected_patterns_up_to
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern
from repro.sampling.edge_sampler import sample_edges, sample_vertices
from repro.sampling.neighbor_sampling import estimate_injective_homomorphisms

__all__ = ["CostProfile", "profile_graph"]

#: Default locality threshold alpha (paper section 6.1: "we empirically
#: choose alpha = 8").  Within pattern diameters every pair is local.
DEFAULT_ALPHA = 8


@dataclass(eq=False)
class CostProfile:
    """Everything the three cost models read about a graph."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    p: float
    p_local: float
    alpha: int
    label_fractions: dict[int, float] | None
    counts: dict[tuple, float] = field(default_factory=dict)
    max_table_size: int = 0
    profiling_seconds: float = 0.0
    sample_ratio: float = 1.0
    #: Orientation statistics, attached by the session when an oriented
    #: execution is requested (see :mod:`repro.graph.transform`).  All
    #: three cost models price ``oriented``-derived candidate sets by
    #: out-degree instead of full degree through these.
    orientation: str = "none"
    avg_out_degree: float = 0.0
    max_out_degree: float = 0.0
    # Lazy on-demand profiling state.
    _graph: CSRGraph | None = None
    _sample: CSRGraph | None = None
    _trials: int = 0
    _seed: int = 0

    def lookup(self, pattern: Pattern) -> float | None:
        """Approximate inj-hom count of (the unlabeled form of) a pattern.

        Returns ``None`` only when on-demand profiling is impossible
        (no graph attached).  A floor of 0.5 keeps ratios finite.
        """
        unlabeled = pattern.without_labels()
        key = canonical_code(unlabeled)
        value = self.counts.get(key)
        if value is None:
            if self._sample is None:
                return None
            value = self._estimate(unlabeled)
            self.counts[key] = value
        return max(value, 0.5)

    def _estimate(self, pattern: Pattern) -> float:
        assert self._sample is not None
        estimate = estimate_injective_homomorphisms(
            self._sample, pattern, trials=self._trials, seed=self._seed
        )
        if self.sample_ratio < 1.0:
            estimate /= self.sample_ratio ** pattern.num_edges
        return estimate

    def oriented_degree(self) -> float:
        """Expected out-degree under the active orientation.

        Falls back to ``avg_degree / 2`` when no measured statistic is
        attached: every orientation keeps exactly one arc per edge, so
        the mean out-degree is ``m / n`` regardless of the order.
        """
        if self.avg_out_degree > 0.0:
            return self.avg_out_degree
        return self.avg_degree / 2.0

    def label_fraction(self, label: int) -> float:
        """Fraction of graph vertices carrying ``label`` (1.0 if unlabeled)."""
        if not self.label_fractions:
            return 1.0
        return self.label_fractions.get(label, 1.0 / max(self.num_vertices, 1))


def profile_graph(
    graph: CSRGraph,
    max_pattern_size: int = 4,
    edge_budget: int = 4096,
    trials: int = 300,
    seed: int = 0,
    alpha: int = DEFAULT_ALPHA,
    p_local: float | None = None,
    sampler: str = "edge",
) -> CostProfile:
    """Profile a graph for cost estimation.

    ``sampler`` may be ``"edge"`` (the paper's choice) or ``"vertex"``
    (the ablation).  ``p_local`` overrides the measured locality
    probability, matching the paper's user-settable parameter.
    ``trials`` is the neighbor-sampling budget per pattern, at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    started = time.perf_counter()
    measured_p_local = (
        p_local
        if p_local is not None
        else estimate_local_probability(graph, seed=seed)
    )
    label_fractions = None
    if graph.is_labeled:
        n = max(graph.num_vertices, 1)
        label_fractions = {
            label: graph.vertices_with_label(label).size / n
            for label in range(graph.num_labels())
        }

    if sampler == "edge":
        sample, ratio = sample_edges(graph, edge_budget, seed=seed)
    elif sampler == "vertex":
        sample, ratio = sample_vertices(graph, edge_budget, seed=seed)
        # Vertex sampling keeps ratio in vertex terms; approximate the
        # edge-retention ratio for rescaling by the squared vertex ratio.
        ratio = ratio * ratio
    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    counts: dict[tuple, float] = {}
    for index, pattern in enumerate(
        all_connected_patterns_up_to(max_pattern_size)
    ):
        estimate = estimate_injective_homomorphisms(
            sample, pattern, trials=trials, seed=seed + 17 * index
        )
        if ratio < 1.0:
            estimate /= ratio ** pattern.num_edges
        counts[canonical_code(pattern)] = estimate

    profile = CostProfile(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=graph.avg_degree,
        p=connection_probability(graph),
        p_local=measured_p_local,
        alpha=alpha,
        label_fractions=label_fractions,
        counts=counts,
        max_table_size=max_pattern_size,
        sample_ratio=ratio,
        _graph=graph,
        _sample=sample,
        _trials=trials,
        _seed=seed,
    )
    profile.profiling_seconds = time.perf_counter() - started
    return profile
