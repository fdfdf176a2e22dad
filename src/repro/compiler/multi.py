"""Computation reuse across patterns (paper section 2.2, optimization 2).

When an application enumerates many patterns at once — motif counting is
the paper's example, FSM another — different patterns' loop nests often
share their first levels (Figure 5: 4-cliques and tailed-triangles share
the first three loops).  The compiler can merge those prefixes so shared
candidate sets are computed (and iterated) once.

Implementation: each pattern contributes a *direct* plan (order +
restrictions); plans are merged into a trie keyed by the structural
signature of each loop level (the adjacency constraints, trims and label
of the new vertex relative to the already-matched prefix).  Each trie node
is one loop in the merged tree; when a pattern shares a level its loop
variable is renamed to the trie loop's variable and its remaining tree is
grafted inside.  Counts accumulate into one accumulator per pattern.

The paper notes the optimization "may lead to more benefits" with
decomposition since subpattern enumerations repeat across patterns; here
the reuse applies to the direct censuses (AutoMine's strategy and
DecoMine's vertex-induced fallbacks), which is where shared prefixes
dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ast_nodes import (
    Accumulate,
    Loop,
    Node,
    Root,
    child_blocks,
    node_def,
    substitute_args,
    walk,
)
from repro.compiler.build import build_ast
from repro.compiler.passes import PassOptions, optimize
from repro.compiler.specs import DirectSpec
from repro.exceptions import CompilationError
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern

__all__ = [
    "MergedPlan",
    "build_merged_direct",
    "census_accumulator",
]


def census_accumulator(index: int) -> str:
    return f"acc_p{index}"


@dataclass
class MergedPlan:
    """A multi-pattern plan: one tree, one accumulator per distinct pattern.

    Workload entries that are duplicates (or isomorphic relabelings with
    the same induced flag) of an earlier entry dedupe to the earlier
    entry's accumulator: ``accumulator_for(i)`` / ``divisors[i]`` fan the
    single accumulated count back out to every member, so
    ``acc[plan.accumulator_for(i)] // plan.divisors[i]`` is the embedding
    count of member ``i`` regardless of deduplication.
    """

    patterns: tuple[Pattern, ...]
    specs: tuple[DirectSpec, ...]
    root: Root
    divisors: tuple[int, ...]
    shared_loops: int = 0
    total_loops: int = 0
    #: Per-member accumulator name; duplicates alias their
    #: representative's accumulator (``census_accumulator(i)`` for the
    #: non-duplicate members).
    accumulator_names: tuple[str, ...] = ()

    def accumulator_for(self, index: int) -> str:
        """The accumulator member ``index`` reads its raw count from."""
        if self.accumulator_names:
            return self.accumulator_names[index]
        return census_accumulator(index)

    @property
    def unique_patterns(self) -> int:
        """Number of distinct (up to isomorphism) census problems."""
        return len(set(self.accumulator_names)) if self.accumulator_names \
            else len(self.patterns)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of loop levels eliminated by prefix sharing."""
        if not self.total_loops:
            return 0.0
        return self.shared_loops / self.total_loops


def build_merged_direct(
    specs: list[DirectSpec],
    passes: PassOptions = PassOptions(),
) -> MergedPlan:
    """Merge direct counting plans into one tree with shared prefixes.

    Duplicate or isomorphic workload entries (same canonical pattern code
    and induced flag) contribute no tree of their own: they alias the
    first occurrence's accumulator, and ``MergedPlan.accumulator_for``
    fans the shared count back out to every member index.
    """
    if not specs:
        raise CompilationError(
            "cannot merge an empty pattern workload: "
            "build_merged_direct needs at least one DirectSpec"
        )
    patterns: list[Pattern] = []
    divisors: list[int] = []
    accumulators: list[str] = []
    member_accumulators: list[str] = []
    representatives: dict[tuple, int] = {}
    merged_body: list[Node] = []
    trie: dict[tuple, Loop] = {}
    shared = 0
    total = 0

    for index, spec in enumerate(specs):
        census_key = (canonical_code(spec.pattern), spec.induced)
        representative = representatives.get(census_key)
        if representative is not None:
            # Duplicate census problem: every loop level it would have
            # contributed is eliminated outright — count them as shared
            # so reuse_ratio reflects the dedup.
            patterns.append(spec.pattern)
            divisors.append(divisors[representative])
            member_accumulators.append(member_accumulators[representative])
            total += len(spec.order)
            shared += len(spec.order)
            continue
        representatives[census_key] = index
        root, info = build_ast(spec, "count")
        acc = census_accumulator(index)
        _alpha_rename(root, index, acc)
        accumulators.append(acc)
        member_accumulators.append(acc)
        patterns.append(spec.pattern)
        divisors.append(info.divisor)

        rename: dict[str, str] = {}
        signature_path: list = []
        source_block: list[Node] = root.body
        target_block = merged_body
        depth = 0
        while True:
            loop = _single_loop(source_block)
            if loop is None:
                _graft(source_block, target_block, rename)
                break
            total += 1
            signature_path.append(
                _level_signature(spec.pattern, spec.order, depth,
                                 spec.restrictions, spec.induced)
            )
            key = tuple(signature_path)
            existing = trie.get(key)
            if existing is not None:
                # Share: drop this level's candidate-set defs, reuse the
                # trie loop's variable for everything deeper.
                shared += 1
                rename[loop.var] = existing.var
                source_block = loop.body
                target_block = existing.body
            else:
                prefix = [n for n in source_block if n is not loop]
                _graft(prefix, target_block, rename)
                grafted = Loop(
                    loop.var, rename.get(loop.source, loop.source), [],
                    loop.meta,
                )
                target_block.append(grafted)
                trie[key] = grafted
                source_block = loop.body
                target_block = grafted.body
            depth += 1

    merged_root = Root(
        merged_body, accumulators=tuple(accumulators),
        num_tables=0, num_preds=0,
    )
    plan = MergedPlan(
        patterns=tuple(patterns),
        specs=tuple(specs),
        root=merged_root,
        divisors=tuple(divisors),
        shared_loops=shared,
        total_loops=total,
        accumulator_names=tuple(member_accumulators),
    )
    optimize(merged_root, passes)
    return plan


def _level_signature(pattern: Pattern, order, position, restrictions,
                     induced: bool):
    """Structural key of loop level ``position``.

    Two patterns share a level (compute identical candidate sets) iff the
    signatures of all levels up to it agree: same adjacency profile to the
    earlier levels, same symmetry trims, same label, same induced flag
    (induced plans subtract non-neighbor sets, so the non-adjacency
    profile matters too — it is the complement of ``adjacency`` and thus
    covered by it).
    """
    v = order[position]
    adjacency = tuple(
        pattern.has_edge(v, order[j]) for j in range(position)
    )
    trims = []
    for a, b in restrictions:
        if b == v and a in order[:position]:
            trims.append(("above", order[:position].index(a)))
        elif a == v and b in order[:position]:
            trims.append(("below", order[:position].index(b)))
    return (adjacency, tuple(sorted(trims)), pattern.label_of(v), induced)


def _graft(nodes: list[Node], target: list[Node], rename: dict[str, str]) -> None:
    """Move nodes into the merged tree, rewriting shared-variable refs."""
    for node in nodes:
        for inner in walk(node):
            substitute_args(inner, rename)
        target.append(node)


def _single_loop(block: list[Node]) -> Loop | None:
    """The unique Loop in a block, or None (leaf level)."""
    loops = [n for n in block if isinstance(n, Loop)]
    if len(loops) == 1:
        return loops[0]
    return None


def _alpha_rename(root: Root, index: int, accumulator: str) -> None:
    """Suffix every variable of a spec's tree so merged trees never
    collide, and rename its count accumulator."""
    mapping: dict[str, str] = {}
    for node in walk(root):
        defined = node_def(node)
        if defined is not None and defined not in mapping:
            mapping[defined] = f"{defined}_m{index}"
    for node in walk(root):
        substitute_args(node, mapping)
        if isinstance(node, Loop):
            node.var = mapping.get(node.var, node.var)
        else:
            defined = node_def(node)
            if defined is not None:
                node.target = mapping.get(defined, defined)
        if isinstance(node, Accumulate) and node.target == "acc_count":
            node.target = accumulator
