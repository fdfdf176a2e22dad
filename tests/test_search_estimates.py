"""Pruning in ``search`` never moves an on-demand estimate.

``CostProfile.lookup`` estimates a pattern it has no count for from the
first numbering of it that it is asked about, and keeps that estimate
for every later numbering.  A candidate that ``search`` prunes, on its
skeleton or on its tree, asks for fewer loop prices than pricing it
would; if one of the prices it skips were the first to ask for some
pattern, later plan choices could depend on what was pruned.  So
``search`` must leave ``profile.counts`` exactly as
``enumerate_candidates``, which prices every candidate, leaves it: the
same items in the same insertion order.
"""

from __future__ import annotations

import copy
import importlib
from dataclasses import replace

import pytest

from repro.costmodel import get_model, profile_graph
from repro.graph import datasets

from .test_search_golden import _workload

search_module = importlib.import_module("repro.compiler.search")

CASES = [(graph, pattern) for graph, patterns in sorted(_workload().items())
         for pattern in patterns]


@pytest.fixture(scope="module")
def profiles():
    return {graph: profile_graph(datasets.load(graph))
            for graph in _workload()}


def _own(profile):
    own = copy.copy(profile)
    own.counts = dict(profile.counts)
    return own


@pytest.mark.parametrize("orient", ["none", "degree"])
@pytest.mark.parametrize(
    "graph, pattern", CASES, ids=[f"{g}-{p.name}" for g, p in CASES],
)
def test_search_leaves_the_estimates_of_full_enumeration(
    graph, pattern, orient, profiles
):
    options = search_module.SearchOptions()
    options = replace(options, passes=replace(options.passes, orient=orient))
    model = get_model("approx_mining")
    searched = _own(profiles[graph])
    search_module.search(pattern, searched, model, options=options)
    enumerated = _own(profiles[graph])
    for _candidate in search_module.enumerate_candidates(
        pattern, enumerated, model, options=options
    ):
        pass
    assert list(searched.counts.items()) == list(enumerated.counts.items())
