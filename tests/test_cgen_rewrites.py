"""Small-scope checks of the C target's row slices and floors.

Two rewrites in :mod:`repro.compiler.cgen` change how restricted loops
read their sets without changing the AST: a trim of a row ``N(v)`` by
``v`` is a slice at ``CSRGraph.split``, and a set whose every read
reaches only its members above a bound is computed from operands trimmed
above it (rewrite d).  A wrong slice or a wrong floor is a wrong count
with ``ok=True``, so every connected pattern of 3-5 vertices runs its
chosen plan and aux plans on C against ``plan.function``, the Python
target of the same AST, on graphs whose vertex ids correlate with degree
in different ways: ``lj`` (r = -0.60), ``cs`` (r = -0.09) and
``orient(lj, "degree")`` (ids ranked by degree).  Hand-built ASTs then
pin each read that must block rewrite (d).
"""

from __future__ import annotations

import re

import pytest

from repro.baselines import reference
from repro.compiler import cgen
from repro.compiler.ast_nodes import Accumulate, Loop, ScalarOp, SetOp
from repro.compiler.build import COUNT_ACC
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph import datasets
from repro.graph.transform import orient
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import execute_plan
from tests.test_cgen import _hand_plan

pytestmark = pytest.mark.skipif(cgen.find_compiler() is None,
                                reason="no C compiler on this host")

PATTERNS = [pattern for k in (3, 4, 5) for pattern in all_connected_patterns(k)]


@pytest.fixture(autouse=True)
def native_everywhere(monkeypatch):
    monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)


@pytest.fixture(scope="module")
def graphs():
    lj = datasets.load("lj")
    return {"lj": lj, "cs": datasets.load("cs"),
            "lj-degree": orient(lj, "degree")}


@pytest.fixture(scope="module")
def profile(graphs):
    return profile_graph(graphs["lj"])


def _plans(plan) -> list:
    """The plan and its aux plans, recursively."""
    return [plan, *(each for aux, _ in plan.aux_plans for each in _plans(aux))]


def _c_counts(plan, graph) -> dict:
    native = cgen.resolve(plan)
    assert native.target == "c", native.reason
    return cgen.run(plan, native, graph, ExecutionContext())[0]


def _c_equals_python(plan, graph) -> dict:
    counts = _c_counts(plan, graph)
    assert counts == plan.function(graph, ExecutionContext())
    return counts


@pytest.mark.parametrize("orientation", ["none", "degree"])
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_every_small_pattern_counts_alike_on_both_targets(
        graphs, profile, pattern, orientation, small_random_graph):
    plan = compile_pattern(pattern, profile, orientation=orientation)
    for each in _plans(plan):
        if each.orientation == "none":
            expected = _c_equals_python(each, graphs["lj"])
            _c_equals_python(each, graphs["cs"])
            # A relabeling keeps every count.  The Python target takes
            # seconds on the relabeled rows, so lj's count stands in.
            assert _c_counts(each, graphs["lj-degree"]) == expected
        else:
            _c_equals_python(each, graphs["lj-degree"])
    # The whole run (aux corrections and divisor included) against the
    # brute-force reference, on graphs where that is cheap.
    cheap = [small_random_graph]
    if pattern.n == 3:
        cheap += [graphs["lj"], graphs["cs"]]
    for graph in cheap:
        result = execute_plan(plan, graph)
        assert result.target == "c"
        assert result.embedding_count == reference.count_embeddings(
            graph, pattern)


def test_the_small_scope_reaches_both_rewrites(profile):
    """The patterns above exercise row slices and non-row floors, so the
    differential check covers what the rewrites emit."""
    sliced = floored = 0
    for pattern in PATTERNS:
        for each in _plans(compile_pattern(pattern, profile)):
            facts = cgen._Facts(each.root)
            sliced += "+ split[" in cgen._lower(each).source
            floored += any(facts.defs[name].op != "neighbors"
                           for name in facts.floors)
    assert sliced >= 20 and floored >= 3


def test_five_clique_filters_each_level_above_its_vertex(profile):
    """Every level of 5-clique reads only members above its own vertex,
    so each row is its upper slice and each bitmap holds only those."""
    plan = compile_pattern(catalog.clique(5), profile)
    nest = cgen.resolve(plan).source
    nest = nest[nest.index("decomine_plan("):]
    rows = re.findall(r"= \(set_t\)\{indices \+ (\w+)\[(v\d+)\]", nest)
    assert rows == [("split", f"v{k}") for k in range(4)]
    assert "lower(" not in nest and "trim_above(" not in nest
    assert len(re.findall(r"bm_mark\(s\d+, m\d+, 1\);", nest)) == 3


# ----------------------------------------------------------------------
# Reads that need the whole set
# ----------------------------------------------------------------------

def _blocked(read: list) -> CompiledPlan:
    """``s2 = N(v1)``, read above ``v1`` by the loop's trim, plus one
    more read of ``s2`` inside the loop over ``v2 > v1``."""
    return _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        SetOp("s3", "trim_above", ("s2", "v1")),
        Loop("v2", "s3", [
            SetOp("s4", "neighbors", ("v2",)),
            SetOp("s5", "trim_above", ("s4", "v2")),
            *read,
        ]),
    ])


def _sized(op: str, *args) -> list:
    return [SetOp("s6", op, args), ScalarOp("c1", "size", ("s6",)),
            Accumulate(COUNT_ACC, "c1")]


def _looped(op: str, *args) -> list:
    return [SetOp("s6", op, args), Loop("v3", "s6", [
        ScalarOp("c1", "const", (1,)), Accumulate(COUNT_ACC, "c1")])]


BLOCKING = {
    "size": [ScalarOp("c1", "size", ("s2",)), Accumulate(COUNT_ACC, "c1")],
    "subtract-left": _sized("subtract", "s2", "s5"),
    "exclude-sized": _sized("exclude", "s2", "v2"),
    "exclude-looped": _looped("exclude", "s2", "v2"),
    "trim-below": _looped("trim_below", "s2", "v2"),
    "loop-source": [Loop("v3", "s2", [
        ScalarOp("c1", "const", (1,)), Accumulate(COUNT_ACC, "c1")])],
    "intersect-unbounded-partner": _sized("intersect", "s4", "s2"),
    "subtract-right-unbounded-left": _sized("subtract", "s4", "s2"),
}


@pytest.mark.parametrize("read", BLOCKING.values(), ids=BLOCKING)
def test_a_read_of_the_whole_set_blocks_the_floor(read, graphs,
                                                  small_random_graph):
    plan = _blocked(read)
    assert "s2" not in cgen._Facts(plan.root).floors
    source = cgen.resolve(plan).source
    # N(v1) (C's v0: names are renumbered from 0) stays the whole row.
    assert "{indices + indptr[v0], indptr[v0 + 1] - indptr[v0]}" in source
    for graph in (small_random_graph, graphs["lj"], graphs["cs"]):
        _c_equals_python(plan, graph)


QUALIFYING = {
    "intersect-above-partner": _sized("intersect", "s5", "s2"),
    "subtract-right": _sized("subtract", "s5", "s2"),
    "trim-above-tighter": _looped("trim_above", "s2", "v2"),
    "bounded-from": _sized("intersect_from", "s4", "s2", "v2"),
}


@pytest.mark.parametrize("read", QUALIFYING.values(), ids=QUALIFYING)
def test_reads_above_the_bound_let_the_floor_fire(read, graphs,
                                                  small_random_graph):
    """The controls: the same nest, with the second read reaching only
    members above ``v2 > v1``, lowers ``N(v1)`` as its upper slice."""
    plan = _blocked(read)
    assert cgen._Facts(plan.root).floors["s2"] == "v1"
    source = cgen.resolve(plan).source
    assert "indices + indptr[v0]" not in source
    for graph in (small_random_graph, graphs["lj"], graphs["cs"]):
        _c_equals_python(plan, graph)


def test_a_row_below_its_own_vertex_is_a_slice(graphs, small_random_graph):
    """``trim_below(N(v), v)``, alone or as the bound of an ``*_upto``
    merge (on whichever operand is ``v``'s row), is the row's part below
    ``split[v]``."""
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        SetOp("s3", "trim_below", ("s2", "v1")),
        Loop("v2", "s3", [
            SetOp("s4", "neighbors", ("v2",)),
            SetOp("s5", "intersect_upto", ("s1", "s4", "v2")),
            ScalarOp("c1", "size", ("s5",)),
            Accumulate(COUNT_ACC, "c1"),
        ]),
    ])
    nest = cgen.resolve(plan).source
    nest = nest[nest.index("decomine_plan("):]
    for v in ("v0", "v1"):  # C names count from 0
        assert f"(set_t){{indices + indptr[{v}], split[{v}] - indptr[{v}]}}" in nest
    assert "trim_below(" not in nest
    for graph in (small_random_graph, graphs["lj"], graphs["cs"]):
        assert _c_equals_python(plan, graph)[COUNT_ACC] > 0
