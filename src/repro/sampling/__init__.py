"""Sampling substrate: edge/vertex sampling and ASAP-style estimation."""

from repro.sampling.edge_sampler import sample_edges, sample_vertices
from repro.sampling.neighbor_sampling import estimate_injective_homomorphisms

__all__ = [
    "sample_edges",
    "sample_vertices",
    "estimate_injective_homomorphisms",
]
