"""Peregrine re-implementation [Jamshidi et al., EuroSys'20].

Peregrine is a pattern-aware system: it derives a matching order and
symmetry-breaking restrictions from the pattern's structure (no input
cost model) and enumerates with vertex-set operations.  Its matching
order heuristic favors a dense core first — approximated here by the
classic degeneracy-style greedy: start at a maximum-degree vertex, always
extend with the vertex most connected to the matched prefix.

Label-constraint workloads materialize whole embeddings and filter —
exactly the cost the paper's section 8.6 measures against DecoMine's
partial resolution.
"""

from __future__ import annotations

from repro.baselines.common import DirectPlanSystem
from repro.compiler.specs import DirectSpec, densest_first
from repro.patterns.pattern import Pattern

__all__ = ["Peregrine"]


class Peregrine(DirectPlanSystem):
    name = "peregrine"

    def select_spec(self, pattern: Pattern, induced: bool, mode: str) -> DirectSpec:
        return densest_first(pattern, induced)
