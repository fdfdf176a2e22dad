"""Plan specifications: the algorithm-level choices the compiler searches.

A spec pins down everything Algorithm 1 leaves open — the cutting set, the
matching order of the cutting set, the extension order of each subpattern
and shrinkage pattern, and whether/where pattern-aware loop rewriting (PLR)
applies.  The search engine (:mod:`repro.compiler.search`) enumerates specs;
the builder (:mod:`repro.compiler.build`) lowers each spec to an AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CompilationError
from repro.patterns.decomposition import Decomposition
from repro.patterns.isomorphism import automorphism_count
from repro.patterns.matching_order import greedy_extension_order
from repro.patterns.pattern import Pattern
from repro.patterns.symmetry import symmetry_breaking_restrictions

__all__ = ["Constraint", "DirectSpec", "DecompSpec", "PlanSpec",
           "densest_first"]


@dataclass(frozen=True)
class Constraint:
    """A label-constraint fragment ``F_j(e_j)`` (paper section 7.5).

    ``pred`` indexes into the runtime predicate table; ``vertices`` is the
    fragment's support — the original pattern vertices the predicate reads.
    """

    pred: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class DirectSpec:
    """A non-decomposed plan: plain nested-loop enumeration.

    Used as the compiler's fallback (paper sections 3.2, 4.3) and as the
    enumeration core of the AutoMine/Peregrine/GraphPi baselines.
    ``restrictions`` are symmetry-breaking constraints ``match[a] < match[b]``;
    with an empty tuple the plan counts injective homomorphisms and the
    driver divides by the automorphism count.
    """

    pattern: Pattern
    order: tuple[int, ...]
    restrictions: tuple[tuple[int, int], ...] = ()
    induced: bool = False
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(self.pattern.n)):
            raise CompilationError(f"order {self.order} is not a permutation")

    @property
    def kind(self) -> str:
        return "direct"

    def describe(self) -> str:
        bits = [f"direct order={self.order}"]
        if self.restrictions:
            bits.append(f"restrictions={list(self.restrictions)}")
        if self.induced:
            bits.append("vertex-induced")
        return ", ".join(bits)


def densest_first(pattern: Pattern, induced: bool = False) -> DirectSpec:
    """The direct plan of the densest-first heuristic (Peregrine's): a
    highest-degree vertex first, then greedy extension by connectivity
    to the matched prefix, with symmetry breaking."""
    first = max(range(pattern.n), key=pattern.degree)
    rest = [v for v in range(pattern.n) if v != first]
    order = (first, *(greedy_extension_order(pattern, [first], rest)
                      if rest else ()))
    restrictions = (tuple(symmetry_breaking_restrictions(pattern))
                    if automorphism_count(pattern) > 1 else ())
    return DirectSpec(pattern, order, restrictions=restrictions,
                      induced=induced)


@dataclass(frozen=True)
class DecompSpec:
    """A pattern-decomposition plan for Algorithm 1.

    ``vc_order``            permutation of the cutting set (original ids).
    ``ext_orders[i]``       order over subpattern *i*'s component vertices.
    ``shrink_orders[q]``    order over shrinkage *q*'s block indices.
    ``plr_k``               apply PLR to the first ``plr_k`` cutting-set
                            loops (0 disables it).
    """

    decomposition: Decomposition
    vc_order: tuple[int, ...]
    ext_orders: tuple[tuple[int, ...], ...]
    shrink_orders: tuple[tuple[int, ...], ...] = ()
    plr_k: int = 0
    constraints: tuple[Constraint, ...] = ()
    #: When False (count mode only) the per-e_C shrinkage loops are
    #: omitted and the invalid-embedding correction is instead computed
    #: *globally*: summed over all cutting-set matches, the per-e_C
    #: shrinkage extensions are exactly the quotient pattern's injective
    #: homomorphisms, so each quotient becomes an independent (smaller)
    #: counting problem compiled with its own best plan — the structure of
    #: ESCAPE's error terms.  Emit mode requires the per-e_C loops (the
    #: discount hash tables are keyed by partial embeddings).
    include_shrinkages: bool = True

    def __post_init__(self) -> None:
        deco = self.decomposition
        if sorted(self.vc_order) != sorted(deco.cutting_set):
            raise CompilationError(
                f"vc_order {self.vc_order} is not a permutation of "
                f"{deco.cutting_set}"
            )
        if len(self.ext_orders) != len(deco.subpatterns):
            raise CompilationError("one extension order per subpattern required")
        for sub, order in zip(deco.subpatterns, self.ext_orders):
            if sorted(order) != sorted(sub.component):
                raise CompilationError(
                    f"extension order {order} does not cover component "
                    f"{sub.component}"
                )
        if self.shrink_orders and len(self.shrink_orders) != len(deco.shrinkages):
            raise CompilationError("one shrink order per shrinkage required")
        if not 0 <= self.plr_k <= len(self.vc_order):
            raise CompilationError(f"plr_k {self.plr_k} out of range")

    @property
    def pattern(self) -> Pattern:
        return self.decomposition.pattern

    @property
    def kind(self) -> str:
        return "decomp"

    def resolved_shrink_orders(self) -> tuple[tuple[int, ...], ...]:
        """Shrink orders, defaulting to the greedy most-constrained order."""
        if self.shrink_orders:
            return self.shrink_orders
        deco = self.decomposition
        num_vc = len(deco.cutting_set)
        orders = []
        for shrinkage in deco.shrinkages:
            quotient = shrinkage.pattern
            anchored = list(range(num_vc))
            ext = [num_vc + b for b in range(len(shrinkage.blocks))]
            order = greedy_extension_order(quotient, anchored, ext)
            orders.append(tuple(b - num_vc for b in order))
        return tuple(orders)

    def describe(self) -> str:
        deco = self.decomposition
        bits = [f"VC={self.vc_order}"]
        for i, order in enumerate(self.ext_orders):
            bits.append(f"ext{i}={order}")
        if self.plr_k:
            bits.append(f"plr_k={self.plr_k}")
        bits.append(f"{len(deco.shrinkages)} shrinkage(s)")
        return ", ".join(bits)


PlanSpec = DirectSpec | DecompSpec
