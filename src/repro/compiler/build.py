"""Front-end: lower a plan spec to the DecoMine AST (Algorithm 1).

For a :class:`~repro.compiler.specs.DecompSpec` the generated tree follows
the paper's Algorithm 1, with two structural refinements that preserve its
semantics exactly:

* subpattern counting is nested in ``IfPositive`` guards — when some
  ``M_i`` is zero the whole cutting-set match contributes nothing and no
  shrinkage embedding can exist (a shrinkage embedding projects to a valid
  extension of *every* subpattern), so the remaining work is skipped;
* pattern-aware loop rewriting (PLR, paper section 7.2) is applied at
  build time: the first ``plr_k`` cutting-set loops run under symmetry-
  breaking restrictions of the prefix subpattern and the remaining tree is
  re-emitted once per prefix automorphism with permuted vertex variables —
  the "compensation" subtrees whose shared subexpressions CSE then merges.

The builder also computes :class:`PlanInfo` — everything the runtime needs
beyond the tree itself (the multiplicity divisor, partial-embedding
layouts, ...).

:func:`build_skeleton` lowers only the start of a decomposition tree, for
the search to bound a candidate before lowering the rest of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler.ast_nodes import (
    Accumulate,
    EmitPartial,
    HashAdd,
    HashClear,
    HashGet,
    IfPositive,
    IfPred,
    Loop,
    LoopMeta,
    Node,
    Root,
    ScalarOp,
    SetOp,
)
from repro.compiler.specs import Constraint, DecompSpec, DirectSpec, PlanSpec
from repro.exceptions import CompilationError
from repro.patterns.isomorphism import automorphism_count, automorphisms
from repro.patterns.pattern import Pattern
from repro.patterns.symmetry import symmetry_breaking_restrictions

__all__ = ["PlanInfo", "build_ast", "build_skeleton", "COUNT_ACC"]

#: Name of the embedding-count accumulator present in every plan.
COUNT_ACC = "acc_count"


@dataclass(frozen=True)
class PlanInfo:
    """Runtime-facing facts about a built plan.

    ``divisor``
        What the raw accumulated count must be divided by to obtain the
        embedding count (the pattern's automorphism multiplicity, or 1
        when symmetry breaking already canonicalizes).
    ``emit_layouts``
        For each subpattern index, the original pattern vertex ids in the
        order their graph vertices appear in ``EmitPartial.vertices``.
    ``expand_automorphisms``
        True for symmetric direct plans in emit mode: the runtime must
        replay each emitted whole embedding through every pattern
        automorphism to preserve the completeness property of section 4.
    """

    spec: PlanSpec
    mode: str
    divisor: int
    emit_layouts: tuple[tuple[int, ...], ...]
    expand_automorphisms: bool = False


def build_ast(
    spec: PlanSpec,
    mode: str = "count",
    prefix: Callable[[Pattern, tuple[int, ...]], Pattern] | None = None,
) -> tuple[Root, PlanInfo]:
    """Lower ``spec`` to an AST.  ``mode`` is ``'count'`` or ``'emit'``.

    ``prefix(pattern, vertices)`` must return
    ``pattern.induced_subpattern(vertices)``; a search passes its memo's,
    so the loops of all its candidates share one copy of each prefix.
    """
    if mode not in ("count", "emit"):
        raise CompilationError(f"unknown mode {mode!r}")
    builder = _Builder(mode, prefix or Pattern.induced_subpattern)
    if isinstance(spec, DirectSpec):
        return builder.build_direct(spec)
    if isinstance(spec, DecompSpec):
        return builder.build_decomp(spec)
    raise CompilationError(f"unknown spec type {type(spec).__name__}")


def build_skeleton(
    spec: DecompSpec,
    mode: str = "count",
    prefix: Callable[[Pattern, tuple[int, ...]], Pattern] | None = None,
) -> Root:
    """Lower the skeleton of ``spec``: its cutting-set loop nest (the
    first PLR instance only) and, inside it, the candidate-set ops of the
    first extension vertex.

    The skeleton's nodes are the first nodes, in pre-order, of
    ``build_ast(spec, mode, prefix)``'s tree, with the same names; its
    innermost cutting-set loop keeps a body that is not a lone
    accumulate.  It raises the same :class:`CompilationError` for
    constraints that fit no subpattern.
    """
    if mode not in ("count", "emit"):
        raise CompilationError(f"unknown mode {mode!r}")
    builder = _Builder(mode, prefix or Pattern.induced_subpattern,
                       skeleton=True)
    return builder.build_decomp(spec)[0]


class _Builder:
    def __init__(
        self,
        mode: str,
        prefix: Callable[[Pattern, tuple[int, ...]], Pattern],
        skeleton: bool = False,
    ) -> None:
        self.mode = mode
        self._prefix = prefix
        self._skeleton = skeleton
        self._set_counter = 0
        self._scalar_counter = 0
        self._vertex_counter = 0

    # ------------------------------------------------------------------
    # Name supply
    # ------------------------------------------------------------------
    def _set_name(self) -> str:
        self._set_counter += 1
        return f"s{self._set_counter}"

    def _scalar_name(self) -> str:
        self._scalar_counter += 1
        return f"c{self._scalar_counter}"

    def _vertex_name(self) -> str:
        self._vertex_counter += 1
        return f"v{self._vertex_counter}"

    def _emit_set(self, block: list[Node], op: str, args: tuple) -> str:
        name = self._set_name()
        block.append(SetOp(name, op, args))
        return name

    def _emit_scalar(self, block: list[Node], op: str, args: tuple) -> str:
        name = self._scalar_name()
        block.append(ScalarOp(name, op, args))
        return name

    # ------------------------------------------------------------------
    # Candidate-set construction (the core of vertex-set-based matching)
    # ------------------------------------------------------------------
    def _candidates(
        self,
        block: list[Node],
        pattern: Pattern,
        new_vertex: int,
        matched: list[tuple[int, str]],
        trims: list[tuple[str, int]],
        induced: bool = False,
    ) -> tuple[str, LoopMeta]:
        """Emit set ops computing the candidate set for ``new_vertex``.

        ``matched`` holds ``(pattern_vertex, var)`` pairs already bound;
        ``trims`` holds ``(op, pattern_vertex)`` symmetry restrictions.
        Returns the candidate set variable and the loop metadata.
        """
        matched_map = dict(matched)
        adjacent = pattern.neighbors(new_vertex)
        neighbors = [v for v, _ in matched if v in adjacent]
        label = pattern.label_of(new_vertex)

        if neighbors:
            current = self._emit_set(
                block, "neighbors", (matched_map[neighbors[0]],)
            )
            for v in neighbors[1:]:
                other = self._emit_set(block, "neighbors", (matched_map[v],))
                current = self._emit_set(block, "intersect", (current, other))
            if label is not None:
                current = self._emit_set(block, "filter_label", (current, label))
        elif label is not None:
            current = self._emit_set(block, "label_universe", (label,))
        else:
            current = self._emit_set(block, "universe", ())

        if induced:
            for v, var in matched:
                if v not in neighbors:
                    other = self._emit_set(block, "neighbors", (var,))
                    current = self._emit_set(block, "subtract", (current, other))

        trimmed: set[int] = set()
        for op, other_vertex in trims:
            current = self._emit_set(
                block, op, (current, matched_map[other_vertex])
            )
            trimmed.add(other_vertex)

        excludes = tuple(
            var
            for v, var in matched
            if v not in neighbors and v not in trimmed
        )
        if excludes:
            current = self._emit_set(block, "exclude", (current,) + excludes)

        prefix_vertices = tuple(v for v, _ in matched) + (new_vertex,)
        meta = LoopMeta(
            prefix=self._prefix(pattern, prefix_vertices),
            constraint_degree=len(neighbors),
            num_trims=len(trims),
            label=label,
        )
        return current, meta

    def _open_loop(
        self, block: list[Node], source: str, meta: LoopMeta
    ) -> tuple[str, list[Node]]:
        var = self._vertex_name()
        loop = Loop(var, source, [], meta)
        block.append(loop)
        return var, loop.body

    def _gate_constraints(
        self,
        block: list[Node],
        ready: list[Constraint],
        var_of: dict[int, str],
    ) -> list[Node]:
        """Wrap the remaining body in IfPred gates for ready constraints."""
        for constraint in ready:
            gate = IfPred(
                constraint.pred,
                tuple(var_of[v] for v in constraint.vertices),
                [],
            )
            block.append(gate)
            block = gate.body
        return block

    @staticmethod
    def _ready_constraints(
        constraints: list[Constraint], bound: set[int], newly: int
    ) -> list[Constraint]:
        return [
            c
            for c in constraints
            if newly in c.vertices and set(c.vertices) <= bound
        ]

    # ------------------------------------------------------------------
    # Direct (non-decomposed) plans
    # ------------------------------------------------------------------
    def build_direct(self, spec: DirectSpec) -> tuple[Root, PlanInfo]:
        pattern = spec.pattern
        root_body: list[Node] = []
        block = root_body
        matched: list[tuple[int, str]] = []
        bound: set[int] = set()
        var_of: dict[int, str] = {}
        constraints = list(spec.constraints)

        for position, v in enumerate(spec.order):
            trims = []
            for a, b in spec.restrictions:
                if b == v and a in bound:
                    trims.append(("trim_above", a))
                elif a == v and b in bound:
                    trims.append(("trim_below", b))
            source, meta = self._candidates(
                block, pattern, v, matched, trims, induced=spec.induced
            )
            meta.role = "direct"
            var, block = self._open_loop(block, source, meta)
            matched.append((v, var))
            bound.add(v)
            var_of[v] = var
            block = self._gate_constraints(
                block, self._ready_constraints(constraints, bound, v), var_of
            )

        block.append(Accumulate(COUNT_ACC, 1))
        layout = tuple(range(pattern.n))
        if self.mode == "emit":
            block.append(
                EmitPartial(0, tuple(var_of[v] for v in layout), 1)
            )
        divisor = 1 if spec.restrictions else automorphism_count(pattern)
        info = PlanInfo(
            spec=spec,
            mode=self.mode,
            divisor=divisor,
            emit_layouts=(layout,),
            expand_automorphisms=(
                self.mode == "emit" and bool(spec.restrictions)
            ),
        )
        root = Root(
            root_body,
            accumulators=(COUNT_ACC,),
            num_tables=0,
            num_preds=_num_preds(spec.constraints),
        )
        return root, info

    # ------------------------------------------------------------------
    # Decomposition plans (Algorithm 1)
    # ------------------------------------------------------------------
    def build_decomp(self, spec: DecompSpec) -> tuple[Root, PlanInfo]:
        deco = spec.decomposition
        pattern = deco.pattern
        vc = spec.vc_order
        plr_k = spec.plr_k if spec.plr_k >= 2 else 0

        prefix_restrictions: list[tuple[int, int]] = []
        prefix_automorphisms: tuple[tuple[int, ...], ...] = ((),)
        if plr_k:
            prefix_pattern = self._prefix(pattern, tuple(vc[:plr_k]))
            prefix_automorphisms = automorphisms(prefix_pattern)
            if len(prefix_automorphisms) == 1:
                plr_k = 0
                prefix_automorphisms = ((),)
            else:
                prefix_restrictions = symmetry_breaking_restrictions(
                    prefix_pattern
                )

        root_body: list[Node] = []
        block = root_body
        matched: list[tuple[int, str]] = []
        bound: set[int] = set()
        var_of: dict[int, str] = {}
        constraints = list(spec.constraints)
        vc_constraints = [c for c in constraints if set(c.vertices) <= set(vc)]

        # --- cutting-set loops, possibly with a PLR prefix -------------
        prefix_len = plr_k if plr_k else len(vc)
        for position in range(prefix_len):
            v = vc[position]
            trims = []
            if plr_k:
                for a_pos, b_pos in prefix_restrictions:
                    if b_pos == position:
                        trims.append(("trim_above", vc[a_pos]))
                    elif a_pos == position and vc[b_pos] in bound:
                        trims.append(("trim_below", vc[b_pos]))
            source, meta = self._candidates(block, pattern, v, matched, trims)
            meta.role = "vc"
            var, block = self._open_loop(block, source, meta)
            matched.append((v, var))
            bound.add(v)
            var_of[v] = var

        if plr_k:
            # One compensation instance per prefix automorphism; CSE later
            # merges their shared set computations (paper section 7.2).
            position_var = [var_of[vc[j]] for j in range(plr_k)]
            if self._skeleton:
                prefix_automorphisms = prefix_automorphisms[:1]
            for sigma in prefix_automorphisms:
                instance_vars = dict(var_of)
                for j in range(plr_k):
                    instance_vars[vc[j]] = position_var[sigma[j]]
                self._emit_decomp_tail(
                    block,
                    spec,
                    instance_vars,
                    [(vc[j], instance_vars[vc[j]]) for j in range(plr_k)],
                    set(vc[:plr_k]),
                    vc_constraints,
                )
        else:
            block = self._gate_vc_constraints(
                block, vc_constraints, bound, var_of
            )
            self._emit_per_ec_body(block, spec, var_of)

        num_tables = len(deco.subpatterns) if self.mode == "emit" else 0
        layouts = tuple(
            tuple(sorted(sub.vertices)) for sub in deco.subpatterns
        )
        info = PlanInfo(
            spec=spec,
            mode=self.mode,
            divisor=automorphism_count(pattern),
            emit_layouts=layouts,
        )
        root = Root(
            root_body,
            accumulators=(COUNT_ACC,),
            num_tables=num_tables,
            num_preds=_num_preds(spec.constraints),
        )
        return root, info

    def _gate_vc_constraints(self, block, vc_constraints, bound, var_of):
        ready = [c for c in vc_constraints if set(c.vertices) <= bound]
        return self._gate_constraints(block, ready, var_of)

    def _emit_decomp_tail(
        self,
        block: list[Node],
        spec: DecompSpec,
        var_of: dict[int, str],
        matched_prefix: list[tuple[int, str]],
        bound_prefix: set[int],
        vc_constraints: list[Constraint],
    ) -> None:
        """Emit remaining cutting-set loops plus the per-e_C body.

        Used by the PLR path, once per prefix automorphism with permuted
        prefix variables.
        """
        pattern = spec.decomposition.pattern
        vc = spec.vc_order
        matched = list(matched_prefix)
        bound = set(bound_prefix)
        local_vars = dict(var_of)
        for position in range(len(matched_prefix), len(vc)):
            v = vc[position]
            source, meta = self._candidates(block, pattern, v, matched, [])
            meta.role = "vc"
            var, block = self._open_loop(block, source, meta)
            matched.append((v, var))
            bound.add(v)
            local_vars[v] = var
        block = self._gate_vc_constraints(block, vc_constraints, bound, local_vars)
        self._emit_per_ec_body(block, spec, local_vars)

    # ------------------------------------------------------------------
    # The per-e_C body: subpattern counting, shrinkages, emission
    # ------------------------------------------------------------------
    def _emit_per_ec_body(
        self, block: list[Node], spec: DecompSpec, var_of: dict[int, str]
    ) -> None:
        deco = spec.decomposition
        constraints = list(spec.constraints)
        sub_constraints: list[list[Constraint]] = []
        for sub in deco.subpatterns:
            scope = set(sub.vertices)
            component = set(sub.component)
            sub_constraints.append(
                [
                    c
                    for c in constraints
                    if set(c.vertices) <= scope and set(c.vertices) & component
                ]
            )
        vc_set = set(deco.cutting_set)
        placed = set()
        for bucket in sub_constraints:
            placed.update(bucket)
        for c in constraints:
            if c not in placed and not set(c.vertices) <= vc_set:
                raise CompilationError(
                    f"constraint over {c.vertices} does not fit the cutting "
                    f"set or any single subpattern of {deco.describe()}; "
                    "choose a compatible cutting set or fall back to a "
                    "direct plan (paper section 7.5)"
                )

        if self.mode == "emit":
            for table in range(len(deco.subpatterns)):
                block.append(HashClear(table))

        # Count M_i per subpattern, nesting in IfPositive guards.
        m_vars: list[str] = []
        for index, sub in enumerate(deco.subpatterns):
            m_var = self._emit_scalar(block, "const", (0,))
            if self._skeleton:
                # The first candidate set ``_emit_extension_loops`` builds.
                self._candidates(block, deco.pattern, spec.ext_orders[0][0],
                                 list(var_of.items()), [])
                return
            nest_metas: list[LoopMeta] = []
            leaf = self._emit_extension_loops(
                block,
                deco.pattern,
                spec.ext_orders[index],
                var_of,
                sub_constraints[index],
                metas_out=nest_metas,
            )
            leaf.append(Accumulate(m_var, 1))
            m_vars.append(m_var)
            guard = IfPositive(m_var, [], gate_metas=tuple(nest_metas))
            block.append(guard)
            block = guard.body

        m_total = m_vars[0]
        for m_var in m_vars[1:]:
            m_total = self._emit_scalar(block, "mul", (m_total, m_var))
        block.append(Accumulate(COUNT_ACC, m_total))

        if spec.include_shrinkages:
            self._emit_shrinkage_loops(block, spec, var_of)
        elif self.mode == "emit":
            raise CompilationError(
                "emit mode requires per-e_C shrinkage loops "
                "(include_shrinkages=False is count-only)"
            )
        if self.mode == "emit":
            self._emit_partial_loops(
                block, spec, var_of, m_total, m_vars, sub_constraints
            )

    def _emit_extension_loops(
        self,
        block: list[Node],
        pattern: Pattern,
        order: tuple[int, ...],
        var_of: dict[int, str],
        constraints: list[Constraint],
        leaf_vars: dict[int, str] | None = None,
        metas_out: list[LoopMeta] | None = None,
    ) -> list[Node]:
        """Nested loops extending the matched cutting set along ``order``.

        Returns the innermost block (where the caller appends its leaf);
        if ``leaf_vars`` is given it is filled with the extension vars,
        and ``metas_out`` with each level's loop metadata (consumed by the
        guard-probability cost estimation).
        """
        matched = [(v, var) for v, var in var_of.items()]
        bound = set(var_of)
        local_vars = dict(var_of)
        for v in order:
            source, meta = self._candidates(block, pattern, v, matched, [])
            meta.role = "extension"
            if metas_out is not None:
                metas_out.append(meta)
            var, block = self._open_loop(block, source, meta)
            matched.append((v, var))
            bound.add(v)
            local_vars[v] = var
            if leaf_vars is not None:
                leaf_vars[v] = var
            block = self._gate_constraints(
                block,
                self._ready_constraints(constraints, bound, v),
                local_vars,
            )
        return block

    def _emit_shrinkage_loops(
        self, block: list[Node], spec: DecompSpec, var_of: dict[int, str]
    ) -> None:
        deco = spec.decomposition
        num_vc = len(spec.vc_order)
        shrink_orders = spec.resolved_shrink_orders()
        for q_index, shrinkage in enumerate(deco.shrinkages):
            quotient = shrinkage.pattern
            # Quotient-local ids: cutting-set vertex i of the *decomposition
            # order* is quotient vertex i; blocks follow.
            q_var_of = {
                i: var_of[v] for i, v in enumerate(deco.cutting_set)
            }
            matched = list(q_var_of.items())
            block_vars: dict[int, str] = {}
            inner = block
            bound_blocks: set[int] = set()
            ready_constraint_state = list(spec.constraints)
            for b in shrink_orders[q_index]:
                q_vertex = num_vc + b
                source, meta = self._candidates(
                    inner, quotient, q_vertex, matched, []
                )
                meta.role = "shrinkage"
                var, inner = self._open_loop(inner, source, meta)
                matched.append((q_vertex, var))
                block_vars[b] = var
                bound_blocks.add(b)
                inner = self._gate_shrinkage_constraints(
                    inner,
                    spec,
                    shrinkage,
                    ready_constraint_state,
                    bound_blocks,
                    var_of,
                    block_vars,
                    b,
                )
            inner.append(Accumulate(COUNT_ACC, -1))
            if self.mode == "emit":
                for i, sub in enumerate(deco.subpatterns):
                    key = tuple(
                        block_vars[block_index]
                        for block_index in shrinkage.projections[i]
                    )
                    inner.append(HashAdd(i, key))

    def _gate_shrinkage_constraints(
        self,
        block: list[Node],
        spec: DecompSpec,
        shrinkage,
        constraints: list[Constraint],
        bound_blocks: set[int],
        var_of: dict[int, str],
        block_vars: dict[int, str],
        newly_bound_block: int,
    ) -> list[Node]:
        """Gate constraints inside shrinkage loops via projected variables."""
        deco = spec.decomposition
        vc_set = set(deco.cutting_set)
        block_of: dict[int, int] = {}
        for b, members in enumerate(shrinkage.blocks):
            for v in members:
                block_of[v] = b
        for constraint in list(constraints):
            support = set(constraint.vertices)
            ext_support = support - vc_set
            needed_blocks = {block_of[v] for v in ext_support}
            if not ext_support or not needed_blocks <= bound_blocks:
                continue
            if newly_bound_block not in needed_blocks:
                continue
            args = tuple(
                var_of[v] if v in vc_set else block_vars[block_of[v]]
                for v in constraint.vertices
            )
            gate = IfPred(constraint.pred, args, [])
            block.append(gate)
            block = gate.body
        return block

    def _emit_partial_loops(
        self,
        block: list[Node],
        spec: DecompSpec,
        var_of: dict[int, str],
        m_total: str,
        m_vars: list[str],
        sub_constraints: list[list[Constraint]],
    ) -> None:
        deco = spec.decomposition
        for index, sub in enumerate(deco.subpatterns):
            leaf_vars: dict[int, str] = {}
            leaf = self._emit_extension_loops(
                block,
                deco.pattern,
                spec.ext_orders[index],
                var_of,
                sub_constraints[index],
                leaf_vars=leaf_vars,
            )
            key = tuple(leaf_vars[v] for v in sorted(sub.component))
            share = self._emit_scalar(
                leaf, "floordiv", (m_total, m_vars[index])
            )
            discount = self._scalar_name()
            leaf.append(HashGet(discount, index, key))
            final = self._emit_scalar(leaf, "sub", (share, discount))
            guard = IfPositive(final, [])
            layout = tuple(sorted(sub.vertices))
            emit_vars = tuple(
                var_of[v] if v in var_of else leaf_vars[v] for v in layout
            )
            guard.body.append(EmitPartial(index, emit_vars, final))
            leaf.append(guard)


def _num_preds(constraints: tuple[Constraint, ...]) -> int:
    return max((c.pred for c in constraints), default=-1) + 1
