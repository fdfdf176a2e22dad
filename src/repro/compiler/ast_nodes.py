"""The DecoMine intermediate representation (paper section 7.1).

The AST captures a vertex-set-based matching process with the node types
the paper lists: loop nodes, vertex-set operation nodes, arithmetic
(scalar) operation nodes, hash-table operation nodes and a virtual root.
Two small control nodes are added on top — ``IfPositive`` (skip work when a
subpattern count is zero; pure strength reduction) and ``IfPred`` (gate on
a user label constraint, section 7.5).

Variables are single-assignment strings: ``v*`` vertex ids bound by loops,
``s*`` vertex sets, ``c*`` scalars.  Accumulators (declared on the root)
are the only mutable names; their updates are associative and commutative,
which is what makes the privatized parallel execution of section 7.4
correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.patterns.pattern import Pattern

__all__ = [
    "Node",
    "SetOp",
    "ScalarOp",
    "Loop",
    "LoopMeta",
    "Accumulate",
    "HashClear",
    "HashAdd",
    "HashGet",
    "EmitPartial",
    "IfPositive",
    "IfPred",
    "Root",
    "SET_OPS",
    "SCALAR_OPS",
    "node_uses",
    "node_def",
    "child_blocks",
    "walk",
    "substitute_args",
]

Arg = Union[str, int]

#: Vertex-set operations and their arity (-1 = variadic tail).
SET_OPS = {
    "universe": 0,        # all graph vertices
    "neighbors": 1,       # (vertex var)
    # Oriented adjacency: neighbors with a higher id, i.e. the tail
    # slice of the sorted row on an orientation-relabeled graph.  Only
    # the middle-end orient pass emits this op; the engine guarantees
    # such plans execute on an OrientedGraph.
    "oriented": 1,        # (vertex var)
    "intersect": 2,       # (set, set)
    "subtract": 2,        # (set, set)
    "copy": 1,            # (set)
    "trim_below": 2,      # (set, vertex var)  -> elements < var
    "trim_above": 2,      # (set, vertex var)  -> elements > var
    # Bounded (trim-fused) forms, produced by the middle-end fuse pass
    # from an intersect/subtract immediately trimmed by a symmetry
    # restriction; they map 1:1 onto the repro.runtime.setops kernels.
    "intersect_upto": 3,  # (set, set, vertex var) -> (a ∩ b) < var
    "intersect_from": 3,  # (set, set, vertex var) -> (a ∩ b) > var
    "subtract_upto": 3,   # (set, set, vertex var) -> (a - b) < var
    "subtract_from": 3,   # (set, set, vertex var) -> (a - b) > var
    "exclude": -1,        # (set, vertex var...)
    "filter_label": 2,    # (set, label const)
    "label_universe": 1,  # (label const)
}

SCALAR_OPS = {
    "const": 1,     # (int)
    "size": 1,      # (set)
    "mul": 2,
    "add": 2,
    "sub": 2,
    "floordiv": 2,
}


class Node:
    """Base marker class for AST nodes."""

    __slots__ = ()


@dataclass
class LoopMeta:
    """Cost-model annotations attached to every loop (paper section 6).

    ``prefix`` is the pattern "reaching this level": the enforced edges
    among the already-matched vertices plus the vertex this loop binds.
    The approximate-mining cost model estimates the loop's total iteration
    count by the approximate count of this pattern.
    """

    prefix: Optional[Pattern] = None
    constraint_degree: int = 0
    num_trims: int = 0
    label: Optional[int] = None
    role: str = "direct"  # 'vc' | 'extension' | 'shrinkage' | 'direct'


@dataclass
class SetOp(Node):
    target: str
    op: str
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        arity = SET_OPS.get(self.op)
        if arity is None:
            raise ValueError(f"unknown set op {self.op!r}")
        if arity >= 0 and len(self.args) != arity:
            raise ValueError(f"{self.op} expects {arity} args, got {self.args}")


@dataclass
class ScalarOp(Node):
    target: str
    op: str
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        if self.op not in SCALAR_OPS:
            raise ValueError(f"unknown scalar op {self.op!r}")


@dataclass
class Loop(Node):
    var: str
    source: str
    body: list[Node]
    meta: LoopMeta = field(default_factory=LoopMeta)


@dataclass
class Accumulate(Node):
    """``target += value`` on a root-declared accumulator."""

    target: str
    value: Arg


@dataclass
class HashClear(Node):
    table: int


@dataclass
class HashAdd(Node):
    table: int
    key: tuple[str, ...]


@dataclass
class HashGet(Node):
    target: str
    table: int
    key: tuple[str, ...]


@dataclass
class EmitPartial(Node):
    """Deliver a partial embedding to the user UDF (paper section 4).

    ``index`` identifies the subpattern; ``vertices`` are the bound vertex
    variables in ascending original-pattern-vertex order; ``count`` is the
    scalar holding the number of whole-pattern embeddings expandable from
    this partial embedding.
    """

    index: int
    vertices: tuple[str, ...]
    count: Arg


@dataclass
class IfPositive(Node):
    scalar: str
    body: list[Node]
    #: Loop metadata of the nest that accumulated ``scalar`` (attached by
    #: the builder for subpattern-count guards).  Cost models use it to
    #: estimate the probability the guard passes: on sparse graphs most
    #: cutting-set matches have zero extensions for some subpattern, so
    #: charging guarded bodies fully would grossly misprice decomposition.
    gate_metas: tuple["LoopMeta", ...] | None = None


@dataclass
class IfPred(Node):
    """Gate on a user predicate over bound vertices (label constraints)."""

    pred: int
    vertices: tuple[str, ...]
    body: list[Node]


@dataclass
class Root(Node):
    body: list[Node]
    accumulators: tuple[str, ...] = ()
    num_tables: int = 0
    num_preds: int = 0
    outer_parallel: bool = True


# ----------------------------------------------------------------------
# Generic traversal helpers used by the optimization passes
# ----------------------------------------------------------------------

def node_def(node: Node) -> Optional[str]:
    """The variable this node defines, if any."""
    if isinstance(node, (SetOp, ScalarOp, HashGet)):
        return node.target
    if isinstance(node, Loop):
        return node.var
    return None


def node_uses(node: Node) -> set[str]:
    """Variables this node reads (not counting its child blocks)."""
    if isinstance(node, (SetOp, ScalarOp)):
        return {a for a in node.args if isinstance(a, str)}
    if isinstance(node, Loop):
        return {node.source}
    if isinstance(node, Accumulate):
        return {node.value} if isinstance(node.value, str) else set()
    if isinstance(node, (HashAdd,)):
        return set(node.key)
    if isinstance(node, HashGet):
        return set(node.key)
    if isinstance(node, EmitPartial):
        uses = set(node.vertices)
        if isinstance(node.count, str):
            uses.add(node.count)
        return uses
    if isinstance(node, IfPositive):
        return {node.scalar}
    if isinstance(node, IfPred):
        return set(node.vertices)
    return set()


#: Node types owning one child statement block, ``body``.
_BLOCK_NODES = (Loop, IfPositive, IfPred, Root)


def child_blocks(node: Node) -> list[list[Node]]:
    """Mutable child statement blocks of a node."""
    if isinstance(node, _BLOCK_NODES):
        return [node.body]
    return []


def walk(node: Node) -> Iterable[Node]:
    """Pre-order traversal of the subtree rooted at ``node``.

    An explicit stack rather than nested generators: each yielded node
    costs one resume however deep it sits, which matters to the passes
    that walk every candidate tree of a search several times.
    """
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, _BLOCK_NODES):
            pending.extend(reversed(node.body))


def substitute_args(node: Node, mapping: dict[str, str]) -> None:
    """Rewrite variable references through ``mapping`` in place.

    Child blocks are not visited; callers walk the tree themselves.
    Definition targets are not rewritten.
    """

    def sub(a: Arg) -> Arg:
        return mapping.get(a, a) if isinstance(a, str) else a

    if isinstance(node, (SetOp, ScalarOp)):
        node.args = tuple(sub(a) for a in node.args)
    elif isinstance(node, Loop):
        node.source = mapping.get(node.source, node.source)
    elif isinstance(node, Accumulate):
        node.value = sub(node.value)
    elif isinstance(node, HashAdd):
        node.key = tuple(mapping.get(k, k) for k in node.key)
    elif isinstance(node, HashGet):
        node.key = tuple(mapping.get(k, k) for k in node.key)
    elif isinstance(node, EmitPartial):
        node.vertices = tuple(mapping.get(v, v) for v in node.vertices)
        node.count = sub(node.count)
    elif isinstance(node, IfPositive):
        node.scalar = mapping.get(node.scalar, node.scalar)
    elif isinstance(node, IfPred):
        node.vertices = tuple(mapping.get(v, v) for v in node.vertices)
