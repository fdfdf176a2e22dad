"""Approximate-mining based cost model (paper section 6.2).

Key idea: "estimate the number of loop iterations at a loop level by the
approximate count of the corresponding pattern reaching that level."
Every loop's metadata carries that prefix pattern (built by the AST
front-end); its total iteration count across the whole execution is the
prefix pattern's injective-homomorphism count, so the *per-entry* count is
the ratio between the prefix's count and its parent's count.

Prefixes larger than the profiled table are served by on-demand profiling
(cached in the profile); if even that is unavailable the model falls back
to the locality estimate for the level.
"""

from __future__ import annotations

from repro.compiler.ast_nodes import LoopMeta
from repro.costmodel.base import CostModel
from repro.costmodel.locality import LocalityAwareCostModel
from repro.costmodel.profiler import CostProfile

__all__ = ["ApproxMiningCostModel"]


class ApproxMiningCostModel(CostModel):
    name = "approx_mining"

    def __init__(self) -> None:
        self._fallback = LocalityAwareCostModel()

    def level_iterations(self, meta: LoopMeta, profile: CostProfile) -> float:
        prefix = meta.prefix
        if prefix is None:
            return self._fallback.level_iterations(meta, profile)
        if prefix.n == 1:
            return float(max(profile.num_vertices, 1))
        current = self._count(prefix, profile)
        parent = self._count(
            prefix.induced_subpattern(range(prefix.n - 1)), profile
        )
        if current is None or parent is None:
            return self._fallback.level_iterations(meta, profile)
        return current / parent

    def _count(self, pattern, profile: CostProfile) -> float | None:
        """Approximate inj-hom count; disconnected prefixes factorize.

        A disconnected prefix arises when the cutting set itself is
        disconnected (its vertices are matched from the full vertex set);
        its count is approximated by the product of its components'
        counts, which is exact up to lower-order overlap terms.  A
        connected prefix is its own only component, so it is looked up
        as it is; a single vertex counts the graph's vertices, not the
        sample's.
        """
        if pattern.n == 0:
            return 1.0
        if pattern.n > 1 and pattern.is_connected:
            return profile.lookup(pattern)
        total = 1.0
        for component in pattern.connected_components():
            if len(component) == 1:
                total *= max(profile.num_vertices, 1)
                continue
            value = profile.lookup(pattern.induced_subpattern(component))
            if value is None:
                return None
            total *= value
        return total
