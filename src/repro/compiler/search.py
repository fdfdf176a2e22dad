"""Algorithm search engine (paper section 7.3, Figure 12).

The search space has two algorithm-level axes: how to decompose the
pattern (which vertex cutting set, including "don't decompose") and the
matching orders.  The candidates are the direct plans and the
decomposition plans a closed-form spec-level estimate ranks cheapest.
Each is bounded from below, and only one the bound cannot rule out is
optimized by the middle end and priced by the cost model; the cheapest
priced candidate wins.

Three scoping devices keep the search fast, the first two mirroring the
paper's structure:

* extension orders of different subpatterns contribute *additively* to the
  plan cost given the cutting-set match, so the best order is picked per
  subpattern independently before full plans are assembled;
* PLR is only attempted on cutting-set prefixes whose induced subpattern
  actually has symmetry;
* :func:`search` is a branch and bound: each candidate first gets a lower
  bound on its optimized cost (:func:`_lower_bound`, the work no
  middle-end pass removes), and one whose bound reaches the best cost so
  far is neither optimized nor priced.  A decomposition candidate is
  first bounded on its skeleton (:func:`build_skeleton`, its cutting-set
  loops), a prefix of its tree that bounds the whole, and is lowered in
  full only when that bound does not prune it.  The winner and its cost
  are exactly the exhaustive minimum's; :func:`enumerate_candidates`
  still prices every candidate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from repro.compiler.ast_nodes import (
    Accumulate,
    EmitPartial,
    HashAdd,
    HashClear,
    IfPositive,
    IfPred,
    Loop,
    LoopMeta,
    Root,
    SetOp,
)
from repro.compiler.build import PlanInfo, build_ast, build_skeleton
from repro.compiler.passes import PassOptions, optimize
from repro.compiler.specs import Constraint, DecompSpec, DirectSpec, PlanSpec
from repro.costmodel import CostModel, CostProfile, estimate_cost
from repro.costmodel.base import (
    _ANY_OPERAND_ORIENTED,
    _FIRST_OPERAND_ORIENTED,
    _LOOP_OVERHEAD,
    _SCALAR_OP_WEIGHT,
    _SET_OP_BASE,
    _SET_OP_PER_DEGREE,
)
from repro.exceptions import CompilationError
from repro.observe.trace import span
from repro.patterns.decomposition import Decomposition, all_decompositions
from repro.patterns.isomorphism import automorphism_count
from repro.patterns.matching_order import (
    cap_orders,
    connected_orders,
    extension_orders,
)
from repro.patterns.pattern import Pattern
from repro.patterns.symmetry import symmetry_breaking_restrictions

__all__ = ["SearchOptions", "PlanCandidate", "enumerate_candidates",
           "search", "random_spec"]


@dataclass(frozen=True)
class SearchOptions:
    """Caps and toggles bounding the search space."""

    max_vc_orders: int = 4
    max_ext_orders: int = 12
    max_direct_orders: int = 4
    #: Decompositions with more shrinkage patterns than this are skipped:
    #: many-singleton-component cuts (stars are the extreme) produce a
    #: Bell-number quotient explosion that no cost model needs to price.
    max_shrinkages: int = 64
    #: Decomposition candidates are pre-ranked with a closed-form spec
    #: estimate and only the cheapest this-many get the full
    #: build-optimize-price evaluation (6-motif compiles 112 patterns;
    #: full evaluation of every candidate would dominate compile time).
    full_eval_limit: int = 32
    enable_plr: bool = True
    enable_decomposition: bool = True
    enable_direct: bool = True
    symmetry_breaking: bool = True
    passes: PassOptions = field(default_factory=PassOptions)


@dataclass
class PlanCandidate:
    """One evaluated point of the search space."""

    spec: PlanSpec
    root: Root
    info: PlanInfo
    cost: float
    #: Middle-end activity for this candidate's tree.  Kept so the
    #: pipeline can publish the *winning* plan's pass counters (orient
    #: rewrites, fusions) without every losing candidate inflating the
    #: metrics registry.
    report: object | None = None


def search(
    pattern: Pattern,
    profile: CostProfile,
    model: CostModel,
    mode: str = "count",
    induced: bool = False,
    constraints: tuple[Constraint, ...] = (),
    options: SearchOptions = SearchOptions(),
) -> PlanCandidate:
    """Return the cheapest candidate; raises if the space is empty.

    A branch and bound over :func:`enumerate_candidates`' sequence: a
    candidate whose :func:`_lower_bound` is at least the best cost so far
    cannot win (a tie goes to the earlier candidate), so it is neither
    optimized nor priced.  A decomposition candidate is bounded on its
    skeleton first (:func:`_skeleton_bound`) and lowered in full only if
    that bound is below the best cost.  The choice and its cost are the
    exhaustive minimum's, bit for bit.
    """
    memo = _SearchMemo(profile, model)
    best: PlanCandidate | None = None
    seen = evaluated = unlowered = 0
    skeleton_walks: dict[tuple, float] = {}
    known = len(profile.counts)
    with span("search") as s:
        for spec in _candidate_specs(pattern, induced, constraints, options,
                                     memo, mode):
            if best is not None and isinstance(spec, DecompSpec):
                try:
                    bound = _skeleton_bound(spec, mode, memo, options.passes,
                                            skeleton_walks)
                except CompilationError:
                    continue  # constraint placement infeasible for this VC
                if bound >= best.cost:
                    seen += 1
                    unlowered += 1
                    continue
            lowered = _lower(spec, mode, memo)
            if lowered is None:
                continue
            seen += 1
            root, info = lowered
            if best is not None and _lower_bound(
                spec, root, memo, options.passes
            ) >= best.cost:
                continue
            evaluated += 1
            candidate = _price(spec, root, info, memo, options)
            if best is None or candidate.cost < best.cost:
                best = candidate
        s.set(candidates=seen, evaluated=evaluated, pruned=seen - evaluated,
              unlowered=unlowered, estimates=len(profile.counts) - known)
    if best is None:
        raise CompilationError(
            f"no feasible plan for {pattern!r} "
            f"(induced={induced}, constraints={len(constraints)})"
        )
    return best


def enumerate_candidates(
    pattern: Pattern,
    profile: CostProfile,
    model: CostModel,
    mode: str = "count",
    induced: bool = False,
    constraints: tuple[Constraint, ...] = (),
    options: SearchOptions = SearchOptions(),
):
    """Yield every evaluated candidate (used directly by Figure 19)."""
    memo = _SearchMemo(profile, model)
    for spec in _candidate_specs(pattern, induced, constraints, options,
                                 memo, mode):
        lowered = _lower(spec, mode, memo)
        if lowered is not None:
            yield _price(spec, *lowered, memo, options)


def _candidate_specs(pattern, induced, constraints, options, memo, mode):
    """Every candidate spec, in search order: the direct specs, then the
    pre-ranked decomposition specs."""
    if options.enable_direct:
        yield from _direct_specs(pattern, induced, constraints, options, memo)
    if options.enable_decomposition and not induced and pattern.n >= 3:
        ranked = sorted(
            _decomp_specs(pattern, memo, constraints, options, mode),
            key=lambda pair: pair[0],
        )
        for _prelim, (deco, vc_order, ext, plr_k, include) in ranked[
            : options.full_eval_limit
        ]:
            yield DecompSpec(
                decomposition=deco,
                vc_order=vc_order,
                ext_orders=ext,
                plr_k=plr_k,
                constraints=constraints,
                include_shrinkages=include,
            )


def _lower(spec, mode, memo):
    """``build_ast(spec)``, or None for a decomposition spec whose
    constraints fit none of its subpatterns."""
    try:
        return build_ast(spec, mode, memo.prefix)
    except CompilationError:
        if isinstance(spec, DirectSpec):
            raise
        return None


class _SearchMemo(CostModel):
    """The facts one :func:`enumerate_candidates` call asks for repeatedly.

    Candidates of one search share most of their loops: a 5- or 6-vertex
    search asks for each distinct loop price about fourteen times.  This
    wrapper prices each distinct loop once and stands in for the model
    wherever the search prices: :func:`estimate_cost` walks candidate
    trees with it, and the spec-level helpers below read it directly.
    It also keeps the searched patterns' induced prefixes, the price of
    each spec-level step (:meth:`step`) and each quotient's global count
    estimate.  Every value is exactly what the
    uncached call returns, so plan choices and their costs do not change.

    The memo is bound to one profile and dies with its call.  It is never
    hung on a :class:`Pattern` (the global ``lru_cache``s keep patterns
    alive, so such a cache would leak) nor on a :class:`CostProfile`
    (``copy.copy`` shares the cache, and ``profile.counts`` may change
    between searches); nor is it module state, since the daemon compiles
    on several threads.
    """

    def __init__(self, profile: CostProfile, model: CostModel) -> None:
        self.profile = profile
        self.model = model
        self._iterations: dict[tuple, float] = {}
        self._prefixes: dict[tuple, Pattern] = {}
        self._steps: dict[tuple, float] = {}
        self._global_counts: dict[Pattern, float] = {}

    def level_iterations(self, meta: LoopMeta, profile: CostProfile) -> float:
        return self.model.level_iterations(meta, profile)

    def adjusted_iterations(
        self,
        meta: LoopMeta,
        profile: CostProfile,
        oriented: bool = False,
    ) -> float:
        assert profile is self.profile, "a search memo prices one profile"
        key = (meta.prefix, meta.constraint_degree, meta.num_trims,
               meta.label, meta.role, oriented)
        value = self._iterations.get(key)
        if value is None:
            value = self.model.adjusted_iterations(meta, profile, oriented)
            self._iterations[key] = value
        return value

    def step(self, pattern: Pattern, matched: tuple[int, ...],
             role: str) -> float:
        """Adjusted iterations, at least ``1e-9``, of an untrimmed
        spec-level loop binding the last of ``matched`` in ``pattern``
        (the loop over its induced prefix).  The first request prices
        the step, so the profile is asked what it was always asked, in
        the same order; a repeat builds no prefix and no loop metadata."""
        key = (pattern, matched, role)
        value = self._steps.get(key)
        if value is None:
            prefix = self.prefix(pattern, matched)
            last = prefix.n - 1
            meta = LoopMeta(prefix=prefix,
                            constraint_degree=prefix.degree(last),
                            label=prefix.label_of(last), role=role)
            value = self._steps[key] = max(
                self.adjusted_iterations(meta, self.profile), 1e-9)
        return value

    def prefix(self, pattern: Pattern, vertices: tuple[int, ...]) -> Pattern:
        """``pattern.induced_subpattern(vertices)``, built once."""
        key = (pattern, vertices)
        prefix = self._prefixes.get(key)
        if prefix is None:
            prefix = pattern.induced_subpattern(vertices)
            self._prefixes[key] = prefix
        return prefix

    def global_count(self, quotient: Pattern) -> float:
        """:func:`_global_count_estimate`, keyed by the quotient's
        structure (its greedy order depends on the numbering, so
        isomorphic quotients do not share)."""
        value = self._global_counts.get(quotient)
        if value is None:
            value = _global_count_estimate(quotient, self)
            self._global_counts[quotient] = value
        return value


def _price(
    spec: PlanSpec,
    root: Root,
    info: PlanInfo,
    memo: _SearchMemo,
    options: SearchOptions,
) -> PlanCandidate:
    """Optimize a lowered candidate in place and price it."""
    with span("candidate", kind=spec.kind) as s:
        report = optimize(root, options.passes)
        cost = _plus_global_counts(
            estimate_cost(root, memo.profile, memo), spec, memo
        )
        s.set(cost=float(cost))
    return PlanCandidate(spec=spec, root=root, info=info, cost=cost,
                         report=report)


def _plus_global_counts(cost: float, spec: PlanSpec, memo) -> float:
    """``cost`` plus each quotient's count when the plan corrects its
    shrinkages globally (added in one fixed order, so a bound and the
    cost it bounds round alike)."""
    if isinstance(spec, DecompSpec) and not spec.include_shrinkages:
        for shrinkage in spec.decomposition.shrinkages:
            cost += memo.global_count(shrinkage.pattern)
    return cost


# ----------------------------------------------------------------------
# The bound
# ----------------------------------------------------------------------

#: Set ops that come out of every pass as a full-price set op: the
#: middle end may share, hoist or fuse them, but never makes one a slice
#: or a copy.  (The orient pass may turn ``trim_above`` into a copy, so
#: that op counts only when orientation is off.)
_KEPT_SET_OPS = frozenset(
    {"intersect", "subtract", "exclude", "filter_label", "trim_below"}
)
_EFFECTS = (Accumulate, EmitPartial, HashAdd, HashClear)

#: Headroom for rounding: the bound and the cost sum different terms in
#: different orders, so each may be off by a few ulps.
_ROUNDING = 1.0 - 1e-12


def _lower_bound(spec, root, memo, passes: PassOptions) -> float:
    """A price that ``estimate_cost`` of any optimized form of ``root``
    reaches, computed on the lowered tree without running the passes:
    :func:`_walk_bound` plus the spec's global-correction counts."""
    return _plus_global_counts(_walk_bound(root, memo, passes), spec, memo)


def _skeleton_bound(spec, mode, memo, passes, walks) -> float:
    """:func:`_lower_bound` of ``spec``'s skeleton, at most the bound of
    its whole tree.

    The skeleton is a pre-order prefix of the tree, and the walk adds
    non-negative terms in pre-order, so it sums a prefix of the tree's
    terms.  Its innermost cutting-set loop is no counting loop in either,
    so every loop is charged alike.  The two ``include_shrinkages``
    variants of a cutting-set order share one skeleton, so ``walks``
    keeps each walk for the other.
    """
    key = (id(spec.decomposition), spec.vc_order, spec.plr_k)
    walk = walks.get(key)
    if walk is None:
        skeleton = build_skeleton(spec, mode, memo.prefix)
        walk = walks[key] = _walk_bound(skeleton, memo, passes)
    return _plus_global_counts(walk, spec, memo)


def _walk_bound(root, memo, passes: PassOptions) -> float:
    """The part of :func:`_lower_bound` that walks ``root``.

    It counts only what no pass removes, each at the fewest entries any
    pass could move it to:

    * every effect (accumulate, hash and emit nodes), where it stands;
    * a loop's overhead and body, unless elision will replace the loop
      by a size count (a body of one constant accumulate);
    * one kept set op (:data:`_KEPT_SET_OPS`) per class of equal
      expressions, charged to the loop of its deepest operand.  CSE
      keeps one op of each class, in an enclosing block; loop-invariant
      code motion moves an op to its deepest operand's loop level, so
      it stays inside that loop; fusion merges a trim into the
      intersect or subtract it reads, so such trims are not charged.
      The op is charged the fewest entries on the path from that loop's
      body to where it was built, at out-degree when every set it reads
      may be oriented.

    Iteration counts come from the same memo as the cost, at the
    oriented cap for a loop whose source may be oriented.  The walk
    asks the memo for the loops and guards ``estimate_cost`` will price,
    in the order it prices them, so a candidate pruned on its tree leaves
    the profile's on-demand estimates exactly as pricing it would have.
    A skeleton's walk asks for the first of them only; the spec-level
    ranking has already looked up every prefix a decomposition tree
    loops over, so the rest would fire no estimate either
    (``tests/test_search_estimates.py``).
    """
    profile = memo.profile
    oriented = passes.orient != "none"
    kept = _KEPT_SET_OPS if oriented else _KEPT_SET_OPS | {"trim_above"}
    full_row = _SET_OP_BASE + _SET_OP_PER_DEGREE * max(profile.avg_degree,
                                                       1.0)
    out_row = full_row
    if oriented:
        out_row = _SET_OP_BASE + _SET_OP_PER_DEGREE * max(
            min(profile.avg_degree, profile.oriented_degree()), 1.0)
    if not passes.licm:
        # Without hoisting, fusion may merge ops of different loops.
        kept = frozenset()
    depth_of: dict[str, int] = {}     # set or loop var -> its loop level
    same: dict[str, str] = {}         # set var -> first var of its class
    first_of: dict[tuple, str] = {}   # class key -> its first var
    fusable: set[str] = set()         # intersect and subtract results
    orientable: set[str] = set()      # sets the orient pass may orient
    # Per enclosing loop: the fewest entries on the path from its body
    # to the block being walked.
    levels: list[float] = []

    def nested(block, entries) -> float:
        saved = levels[:]
        levels[:] = [min(least, entries) for least in levels]
        total = walk(block, entries)
        levels[:] = saved
        return total

    def walk(block, entries) -> float:
        total = 0.0
        for node in block:
            if isinstance(node, SetOp):
                op = node.op
                args = []
                depth = 0
                for arg in node.args:
                    if isinstance(arg, str):
                        arg = same.get(arg, arg)
                        depth = max(depth, depth_of.get(arg, 0))
                    args.append(arg)
                if op == "intersect":
                    args.sort(key=repr)
                elif op == "exclude":
                    args[1:] = sorted(args[1:])
                args = tuple(args)
                depth_of[node.target] = depth
                if op in ("intersect", "subtract"):
                    fusable.add(node.target)
                first = first_of.get((op, args))
                if first is not None:  # CSE shares one op per class
                    same[node.target] = first
                    continue
                first_of[(op, args)] = node.target
                if oriented and _may_orient(op, args, orientable):
                    orientable.add(node.target)
                if (depth and op in kept and not (
                    op.startswith("trim") and node.args[0] in fusable
                )):
                    sets = [a for a in args if isinstance(a, str)
                            and not a.startswith(("v", "c"))]
                    narrow = all(a in orientable for a in sets)
                    total += levels[depth - 1] * (
                        out_row if narrow else full_row)
            elif isinstance(node, _EFFECTS):
                total += entries * _SCALAR_OP_WEIGHT
            elif isinstance(node, Loop):
                if passes.elide and _counting_loop(node):
                    total += entries * _SCALAR_OP_WEIGHT  # its accumulate
                    continue
                total += entries * _LOOP_OVERHEAD
                inner = entries * memo.adjusted_iterations(
                    node.meta, profile,
                    oriented=same.get(node.source, node.source) in orientable,
                )
                levels.append(inner)
                depth_of[node.var] = len(levels)
                total += nested(node.body, inner)
                levels.pop()
            elif isinstance(node, IfPositive):
                probability = 1.0
                if node.gate_metas:
                    expected = 1.0
                    for meta in node.gate_metas:
                        expected *= memo.adjusted_iterations(meta, profile)
                    probability = min(1.0, expected)
                total += nested(node.body, entries * probability)
            elif isinstance(node, IfPred):
                total += nested(node.body, entries)
        return total

    return walk(root.body, 1.0) * _ROUNDING


def _may_orient(op: str, args: tuple, orientable: set[str]) -> bool:
    """Whether the set ``op`` defines may read oriented rows once the
    orient pass has run (``estimate_cost``'s propagation rules)."""
    if op == "neighbors":
        return True
    if op in _ANY_OPERAND_ORIENTED:
        return any(a in orientable for a in args)
    return op in _FIRST_OPERAND_ORIENTED and args[0] in orientable


def _counting_loop(loop: Loop) -> bool:
    """True when elision replaces ``loop`` by a size count."""
    body = loop.body
    return (len(body) == 1 and isinstance(body[0], Accumulate)
            and isinstance(body[0].value, int))


def _global_count_estimate(pattern, memo) -> float:
    """Rough cost of counting a quotient pattern as its own problem.

    Priced as a symmetry-broken direct plan under a greedy order; the
    recursive compilation of the actual quotient plan (which may itself
    decompose) can only do better.
    """
    from repro.patterns.matching_order import greedy_extension_order

    first = max(range(pattern.n), key=pattern.degree)
    rest = [v for v in range(pattern.n) if v != first]
    order = greedy_extension_order(pattern, [first], rest) if rest else ()
    n = max(memo.profile.num_vertices, 1)
    cost = float(n)
    cost += n * _order_cost(memo, pattern, (first,), order, "extension")[0]
    return cost / automorphism_count(pattern)


# ----------------------------------------------------------------------
# Direct plans
# ----------------------------------------------------------------------

def _direct_specs(pattern, induced, constraints, options, memo):
    if pattern.n == 1:
        yield DirectSpec(pattern, (0,), constraints=constraints)
        return
    restrictions: tuple[tuple[int, int], ...] = ()
    if (
        options.symmetry_breaking
        and not constraints  # constrained counting uses match semantics
        and automorphism_count(pattern) > 1
    ):
        restrictions = tuple(symmetry_breaking_restrictions(pattern))
    for order in _direct_order_candidates(
        pattern, memo, options.max_direct_orders
    ):
        yield DirectSpec(
            pattern,
            order,
            restrictions=restrictions,
            induced=induced,
            constraints=constraints,
        )


def _direct_order_candidates(pattern, memo, limit):
    """Promising connected matching orders, by beam search under the model.

    Enumerating all connected permutations is both infeasible for 8-vertex
    patterns and a poor candidate generator (the first few permutations
    are arbitrary).  The beam grows orders one vertex at a time, scoring
    prefixes by estimated cumulative loop trips; the classic
    densest-first greedy order (Peregrine's heuristic) is always included,
    so the search space contains the heuristic baselines' plans.
    """
    from repro.patterns.matching_order import greedy_extension_order

    n = pattern.n
    n_est = float(max(memo.profile.num_vertices, 1))
    width = max(2 * limit, 8)
    # state: (order, entries at the innermost level, total cost)
    states = [((v,), n_est, n_est) for v in range(n)]
    for _ in range(n - 1):
        grown = []
        for order, cumulative, cost in states:
            matched = set(order)
            for v in range(n):
                if v in matched or not (pattern.neighbors(v) & matched):
                    continue
                entries = cumulative * memo.step(pattern, order + (v,),
                                                 "direct")
                grown.append((order + (v,), entries, cost + entries))
        grown.sort(key=lambda s: s[2])
        states = grown[:width]
    ranked = [order for order, _entries, _cost in states]

    first = max(range(n), key=pattern.degree)
    rest = [v for v in range(n) if v != first]
    greedy = (first,) + (
        greedy_extension_order(pattern, [first], rest) if rest else ()
    )
    candidates = [greedy] + [o for o in ranked if o != greedy]
    return candidates[:limit]


# ----------------------------------------------------------------------
# Decomposition plans
# ----------------------------------------------------------------------

def _decomp_specs(pattern, memo, constraints, options, mode):
    """Yield ``(preliminary_cost, fields)`` pairs for all decompositions,
    where ``fields`` is ``(decomposition, vc_order, ext_orders, plr_k,
    include_shrinkages)``.

    The preliminary cost is a closed-form spec-level estimate (no AST is
    built); the caller pre-ranks on it and builds a :class:`DecompSpec`
    only for the top candidates it goes on to evaluate.
    """
    induced = functools.partial(memo.prefix, pattern)
    for deco in all_decompositions(pattern):
        if len(deco.shrinkages) > options.max_shrinkages:
            continue
        if not _constraints_fit(deco, constraints):
            continue
        ext_choices = [
            _best_extension_order(
                pattern, deco.cutting_set, sub.component, memo, options
            )
            for sub in deco.subpatterns
        ]
        ext = tuple(order for order, _cost, _expected in ext_choices)
        shrinkage_variants = [True]
        if mode == "count" and not constraints and deco.shrinkages:
            # Count-only plans may correct invalid embeddings globally
            # (one sub-count per quotient) instead of per cutting-set
            # match; the cost model arbitrates.
            shrinkage_variants.append(False)
        per_ec_shrinkage = None
        global_shrinkage = None
        for vc_order in _vc_orders(pattern, deco, options):
            vc_cost, ec_count = _order_cost(memo, pattern, (), vc_order,
                                            "vc")
            body = _gated_body_cost(ext_choices)
            gate = 1.0
            for _o, _c, expected in ext_choices:
                gate *= min(1.0, expected)
            plr_choices = [0]
            if options.enable_plr:
                plr_choices += _plr_choices(vc_order, induced)
            for plr_k in plr_choices:
                for include in shrinkage_variants:
                    if include:
                        if per_ec_shrinkage is None:
                            per_ec_shrinkage = _shrinkage_body_cost(
                                deco, memo
                            )
                        prelim = vc_cost + ec_count * (
                            body + gate * per_ec_shrinkage
                        )
                    else:
                        if global_shrinkage is None:
                            global_shrinkage = sum(
                                memo.global_count(s.pattern)
                                for s in deco.shrinkages
                            )
                        prelim = vc_cost + ec_count * body + global_shrinkage
                    yield prelim, (deco, vc_order, ext, plr_k, include)


def _gated_body_cost(ext_choices) -> float:
    """Per-e_C cost of the guarded subpattern-count nests."""
    body = 0.0
    gate = 1.0
    for _order, cost, expected in ext_choices:
        body += gate * cost
        gate *= min(1.0, expected)
    return body


def _shrinkage_body_cost(deco, memo) -> float:
    """Per-e_C cost of enumerating every shrinkage quotient."""
    from repro.patterns.matching_order import greedy_extension_order

    total = 0.0
    num_vc = len(deco.cutting_set)
    for shrinkage in deco.shrinkages:
        quotient = shrinkage.pattern
        anchored = list(range(num_vc))
        ext = [num_vc + b for b in range(len(shrinkage.blocks))]
        order = greedy_extension_order(quotient, anchored, ext)
        cost, _expected = _order_cost(memo, quotient, tuple(anchored), order,
                                      "extension")
        total += cost
    return total


def _constraints_fit(deco: Decomposition, constraints) -> bool:
    vc_set = set(deco.cutting_set)
    scopes = [set(sub.vertices) for sub in deco.subpatterns]
    for constraint in constraints:
        support = set(constraint.vertices)
        if support <= vc_set:
            continue
        if not any(support <= scope for scope in scopes):
            return False
    return True


def _vc_orders(pattern, deco: Decomposition, options) -> list[tuple[int, ...]]:
    """Cutting-set orders, preferring connected prefixes (cheaper loops)."""
    def sort_key(order):
        # Count positions whose vertex has no earlier neighbor: each one
        # forces a full vertex scan.
        scans = 0
        for i, v in enumerate(order):
            if i and not any(
                pattern.has_edge(v, order[j]) for j in range(i)
            ):
                scans += 1
        return scans

    orders = sorted(
        itertools.permutations(deco.cutting_set), key=sort_key
    )
    return orders[: options.max_vc_orders]


def _plr_choices(vc_order, induced) -> list[int]:
    """PLR prefix lengths whose induced prefix (``induced(vertices)``)
    has symmetry."""
    choices = []
    for k in range(2, len(vc_order) + 1):
        if automorphism_count(induced(vc_order[:k])) > 1:
            choices.append(k)
    return choices


def _best_extension_order(
    pattern, cutting_set, component, memo, options
) -> tuple[tuple[int, ...], float, float]:
    """Cheapest extension order for one subpattern, priced standalone.

    Extension costs are additive across subpatterns given a cutting-set
    match, so this greedy factorization loses nothing.  Returns
    ``(order, per-e_C cost, expected extension count)``.
    """
    orders = cap_orders(
        extension_orders(pattern, cutting_set, component),
        options.max_ext_orders,
    )
    best = None
    for order in orders:
        cost, expected = _order_cost(memo, pattern, cutting_set, order,
                                     "extension")
        if best is None or cost < best[1]:
            best = (order, cost, expected)
    assert best is not None
    return best


def _order_cost(memo, pattern, anchored, order, role) -> tuple[float, float]:
    """(per-entry loop cost, expected number of full matches) of binding
    ``order`` after the already matched ``anchored`` vertices."""
    matched = tuple(anchored)
    cumulative = 1.0
    cost = 0.0
    for v in order:
        matched += (v,)
        cumulative *= memo.step(pattern, matched, role)
        cost += cumulative
    return cost, cumulative


# ----------------------------------------------------------------------
# Random implementations (Figure 11's 100-sample methodology)
# ----------------------------------------------------------------------

def random_spec(pattern: Pattern, rng, plr: bool = False) -> PlanSpec:
    """A uniformly random decomposition/order choice (or a direct plan
    when the pattern has no cutting set)."""
    decos = all_decompositions(pattern)
    if not decos:
        orders = connected_orders(pattern)
        order = orders[rng.randrange(len(orders))]
        return DirectSpec(
            pattern, order,
            restrictions=tuple(symmetry_breaking_restrictions(pattern)),
        )
    deco = decos[rng.randrange(len(decos))]
    vc_order = tuple(rng.sample(deco.cutting_set, len(deco.cutting_set)))
    ext = []
    for sub in deco.subpatterns:
        orders = extension_orders(pattern, deco.cutting_set, sub.component)
        ext.append(orders[rng.randrange(len(orders))])
    plr_k = 0
    if plr:
        choices = [0] + _plr_choices(vc_order, pattern.induced_subpattern)
        plr_k = choices[rng.randrange(len(choices))]
    return DecompSpec(deco, vc_order, tuple(ext), plr_k=plr_k)
