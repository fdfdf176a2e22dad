"""Top-level compilation pipeline (paper Figure 12).

``compile_pattern`` runs the full front-end → middle-end → cost-model →
back-end flow and returns a :class:`CompiledPlan` ready for the runtime
engine.  ``compile_spec`` skips the search and compiles one explicit spec
(used by the PLR and cost-model experiments, which sweep the space
manually).  Both, and the plan cache's reload, attach a global-shrinkage
spec's corrections through :func:`with_corrections`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.compiler.build import PlanInfo, build_ast
from repro.compiler.codegen import compile_root
from repro.compiler.passes import PassOptions, optimize
from repro.compiler.search import SearchOptions, search
from repro.compiler.specs import Constraint, PlanSpec, densest_first
from repro.costmodel import CostModel, CostProfile, get_model
from repro.exceptions import CompilationError
from repro.observe.ledger import note_phase
from repro.observe.trace import span
from repro.patterns.isomorphism import automorphism_count, canonical_code
from repro.patterns.pattern import Pattern

__all__ = [
    "CompiledPlan", "compile_pattern", "compile_spec", "with_corrections",
]


@dataclass
class CompiledPlan:
    """An executable GPM plan plus everything needed to explain it.

    ``aux_plans`` carries the globally-counted shrinkage corrections of a
    ``include_shrinkages=False`` decomposition: pairs of (quotient plan,
    injective-count multiplier); the engine subtracts
    ``multiplier * quotient_raw_count`` from the main accumulator.
    """

    pattern: Pattern
    spec: PlanSpec
    mode: str
    root: object
    info: PlanInfo
    source: str
    function: Callable
    cost: float
    compile_seconds: float
    model_name: str
    aux_plans: tuple[tuple["CompiledPlan", int], ...] = ()
    #: Orientation the plan was compiled for.  Non-``"none"`` plans may
    #: contain ``oriented`` adjacency ops and must execute on the
    #: matching :class:`~repro.graph.transform.OrientedGraph`; the
    #: engine wraps the input graph accordingly.
    orientation: str = "none"
    #: The C target :func:`repro.compiler.cgen.resolve` lowered and
    #: loaded for this plan, kept here so fork workers inherit it.
    native: object = field(default=None, compare=False, repr=False)

    @property
    def uses_decomposition(self) -> bool:
        return self.spec.kind == "decomp"

    def describe(self) -> str:
        kind = "decomposition" if self.uses_decomposition else "direct"
        aux = (
            f", {len(self.aux_plans)} global shrinkage plan(s)"
            if self.aux_plans else ""
        )
        return (
            f"{kind} plan for {self.pattern.name or 'pattern'}: "
            f"{self.spec.describe()}{aux} (predicted cost {self.cost:.3g}, "
            f"compiled in {self.compile_seconds * 1e3:.1f} ms)"
        )


def compile_pattern(
    pattern: Pattern,
    profile: CostProfile,
    model: CostModel | str = "approx_mining",
    mode: str = "count",
    induced: bool = False,
    constraints: tuple[Constraint, ...] = (),
    options: SearchOptions = SearchOptions(),
    orientation: str = "none",
    _quotients: dict | None = None,
) -> CompiledPlan:
    """Search the algorithm space and compile the best candidate.

    ``orientation`` enables the middle-end's adjacency-rewriting pass:
    the resulting plan expects to run on the matching orientation-
    relabeled graph (the engine wraps the input automatically).  Only
    count-mode unconstrained plans may be oriented — relabeling changes
    vertex ids, which emit-mode UDFs and constraint predicates observe.
    ``_quotients`` is private to the recursion: the top-level call's
    canonical code → plan map of the shrinkage quotients compiled so far.
    """
    if isinstance(model, str):
        model = get_model(model)
    if orientation != "none":
        if mode != "count" or constraints:
            raise CompilationError(
                "orientation applies to unconstrained counting plans "
                "only: relabeled vertex ids would leak into emit-mode "
                "partial embeddings and constraint predicates"
            )
        options = replace(
            options, passes=replace(options.passes, orient=orientation)
        )
    started = time.perf_counter()
    with span("compile", pattern=pattern.name or repr(pattern), mode=mode,
              orientation=orientation):
        search_started = time.perf_counter()
        best = search(
            pattern, profile, model, mode=mode, induced=induced,
            constraints=constraints, options=options,
        )
        note_phase("search", time.perf_counter() - search_started)
        with span("codegen"):
            function, source = compile_root(best.root)
        # Quotient classes compile once per top-level call, recursion
        # included.
        quotients = {} if _quotients is None else _quotients

        def quotient(code, pattern):
            if code not in quotients:
                quotients[code] = compile_pattern(
                    pattern, profile, model, mode="count", options=options,
                    orientation=orientation, _quotients=quotients,
                )
            return quotients[code]

        # Sound fallback: when the orient pass rewrote nothing (the
        # winning plan's restrictions don't align with the rank), the
        # plan records orientation "none" and the session executes it on
        # the *original* graph.  Relabeling without rewrites still counts
        # correctly but can actively hurt — it systematically makes the
        # higher-degree endpoint of every edge the extension pivot.
        effective_orientation = orientation
        if orientation != "none" and not (best.report
                                          and best.report.oriented):
            effective_orientation = "none"
        plan = with_corrections(CompiledPlan(
            pattern=pattern,
            spec=best.spec,
            mode=mode,
            root=best.root,
            info=best.info,
            source=source,
            function=function,
            cost=best.cost,
            compile_seconds=0.0,
            model_name=model.name,
            orientation=effective_orientation,
        ), quotient)
    elapsed = time.perf_counter() - started
    note_phase("compile", elapsed)
    _publish_orient_counters(orientation, best.report)
    plan.compile_seconds = elapsed
    return plan


def with_corrections(plan: CompiledPlan, quotient) -> CompiledPlan:
    """``plan`` with the aux plans its spec's global shrinkage
    corrections need (see ``CompiledPlan.aux_plans``): the one place
    that attaches them, for :func:`compile_pattern`, :func:`compile_spec`
    and the plan cache's reload.  A spec with inline shrinkages needs
    none.

    ``quotient(code, pattern)`` returns the plan counting the quotient
    pattern whose canonical code is ``code``.  A count depends only on
    the isomorphism class, so each class becomes one aux plan:
    ``automorphism_count(q) // divisor`` is the same for every member,
    and the multipliers add.
    """
    if getattr(plan.spec, "include_shrinkages", True):
        return plan
    plans: dict = {}
    multipliers: dict = {}
    for shrinkage in plan.spec.decomposition.shrinkages:
        code = canonical_code(shrinkage.pattern)
        if code not in plans:
            plans[code] = quotient(code, shrinkage.pattern)
        multipliers[code] = multipliers.get(code, 0) + (
            automorphism_count(shrinkage.pattern) // plans[code].info.divisor)
    return replace(plan, aux_plans=tuple(
        (plans[code], m) for code, m in multipliers.items()))


def _publish_orient_counters(orientation: str, report) -> None:
    """Registry counters for the *selected* plan's orient-pass activity.

    Published here rather than inside the pass: the search optimizes
    every candidate, and counting losing candidates would overstate the
    rewrite's reach by an order of magnitude.
    """
    if orientation == "none" or report is None:
        return
    from repro.observe import metrics as om

    if report.oriented:
        om.counter(
            "repro_orient_loops_rewritten_total",
            "adjacency lookups switched to oriented out-neighborhoods",
        ).inc(report.oriented)
    if report.orient_elided:
        om.counter(
            "repro_orient_trims_elided_total",
            "symmetry trims proven redundant by orientation",
        ).inc(report.orient_elided)
    if report.orient_fallbacks:
        om.counter(
            "repro_orient_fallbacks_total",
            "trim chains kept on plain adjacency (misaligned restriction)",
        ).inc(report.orient_fallbacks)


def compile_spec(
    spec: PlanSpec,
    mode: str = "count",
    passes: PassOptions = PassOptions(),
    profile: CostProfile | None = None,
    model: CostModel | str | None = None,
) -> CompiledPlan:
    """Compile one explicit spec without searching.

    A global-shrinkage spec gets its corrections attached
    (:func:`with_corrections`): each quotient compiles as its
    densest-first direct plan with symmetry breaking, whatever
    ``profile`` and ``model`` are (they only price ``spec``).
    """
    started = time.perf_counter()
    plan = with_corrections(
        _uncorrected(spec, mode, passes, profile, model),
        lambda _code, pattern: compile_spec(densest_first(pattern),
                                            passes=passes))
    plan.compile_seconds = time.perf_counter() - started
    return plan


def _uncorrected(spec: PlanSpec, mode: str, passes: PassOptions,
                 profile: CostProfile | None = None,
                 model: CostModel | str | None = None) -> CompiledPlan:
    """``spec`` lowered to a plan, without its corrections."""
    started = time.perf_counter()
    root, info = build_ast(spec, mode)
    optimize(root, passes)
    cost = float("nan")
    model_name = "none"
    if profile is not None and model is not None:
        if isinstance(model, str):
            model = get_model(model)
        from repro.costmodel import estimate_cost

        cost = estimate_cost(root, profile, model)
        model_name = model.name
    function, source = compile_root(root)
    return CompiledPlan(
        pattern=spec.pattern,
        spec=spec,
        mode=mode,
        root=root,
        info=info,
        source=source,
        function=function,
        cost=cost,
        compile_seconds=time.perf_counter() - started,
        model_name=model_name,
    )
