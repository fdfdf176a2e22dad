"""The branch and bound in ``search`` prunes only candidates that lose.

``search._lower_bound`` prices a lowered candidate without running the
middle end; ``search`` skips optimizing and pricing any candidate whose
bound is at least the best cost so far.  A decomposition candidate is
first bounded on its skeleton (``search._skeleton_bound``) and is not
lowered in full when that bound already prunes it.  That is exact only
if skeleton bound <= tree bound <= the candidate's optimized cost, so
every candidate ``enumerate_candidates`` yields is checked against both
here, and the branch and bound's choice against the exhaustive minimum
(the first of equal-cost candidates wins, as in the enumeration).
"""

from __future__ import annotations

import copy
import importlib
from dataclasses import replace

import pytest

from repro.compiler.specs import DecompSpec
from repro.costmodel import get_model, profile_graph
from repro.graph import datasets
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns

from .test_search_golden import _catalog

# ``repro.compiler`` re-exports the function ``search`` under the
# module's name, so the module itself comes from importlib.
search_module = importlib.import_module("repro.compiler.search")

GRAPHS = ("cs", "ee")


@pytest.fixture(scope="module", params=GRAPHS)
def profile(request):
    return profile_graph(datasets.load(request.param))


@pytest.fixture(scope="module")
def cs_profile():
    return profile_graph(datasets.load("cs"))


def _own(profile):
    own = copy.copy(profile)
    own.counts = dict(profile.counts)
    return own


def _bounds_and_candidates(pattern, profile, options, monkeypatch):
    """Every enumerated candidate with the bounds of its skeleton (None
    for a direct plan) and of its lowered tree, taken just before the
    enumeration optimizes and prices it."""
    bounds = []
    price = search_module._price

    def bounded_price(spec, root, info, memo, options):
        skeleton = None
        if isinstance(spec, DecompSpec):
            skeleton = search_module._skeleton_bound(
                spec, "count", memo, options.passes, {})
        bounds.append((skeleton, search_module._lower_bound(
            spec, root, memo, options.passes)))
        return price(spec, root, info, memo, options)

    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_price", bounded_price)
        candidates = list(search_module.enumerate_candidates(
            pattern, _own(profile), get_model("approx_mining"),
            options=options,
        ))
    assert len(bounds) == len(candidates)
    return bounds, candidates


def _check(pattern, profile, monkeypatch, orient="none"):
    options = search_module.SearchOptions()
    options = replace(options, passes=replace(options.passes, orient=orient))
    bounds, candidates = _bounds_and_candidates(pattern, profile, options,
                                                monkeypatch)
    for (skeleton, bound), candidate in zip(bounds, candidates):
        assert bound <= candidate.cost, (
            f"{pattern.name}: bound {bound!r} > cost {candidate.cost!r} "
            f"for {candidate.spec.describe()}"
        )
        assert skeleton is None or skeleton <= bound, (
            f"{pattern.name}: skeleton bound {skeleton!r} > tree bound "
            f"{bound!r} for {candidate.spec.describe()}"
        )
    exhaustive = candidates[0]
    for candidate in candidates[1:]:
        if candidate.cost < exhaustive.cost:
            exhaustive = candidate
    best = search_module.search(pattern, _own(profile),
                                get_model("approx_mining"), options=options)
    assert best.spec == exhaustive.spec
    assert repr(best.cost) == repr(exhaustive.cost)


SMALL = [p for k in (2, 3, 4, 5) for p in all_connected_patterns(k)]


@pytest.mark.parametrize(
    "pattern", SMALL + _catalog(), ids=lambda p: p.name,
)
def test_bound_holds_and_search_matches_the_exhaustive_minimum(
    pattern, profile, monkeypatch
):
    _check(pattern, profile, monkeypatch)


@pytest.mark.parametrize(
    "pattern", list(all_connected_patterns(6)), ids=lambda p: p.name,
)
def test_six_vertex_motifs_on_cs(pattern, cs_profile, monkeypatch):
    _check(pattern, cs_profile, monkeypatch)


@pytest.mark.parametrize("pattern", SMALL, ids=lambda p: p.name)
def test_bound_holds_under_orientation(pattern, cs_profile, monkeypatch):
    """The orient pass caps loops and may turn trims into copies."""
    _check(pattern, cs_profile, monkeypatch, orient="degree")


@pytest.mark.parametrize("pattern", SMALL, ids=lambda p: p.name)
def test_bound_holds_under_degeneracy_orientation(pattern, cs_profile,
                                                  monkeypatch):
    _check(pattern, cs_profile, monkeypatch, orient="degeneracy")


def test_search_span_counts_skeleton_pruning(cs_profile):
    """``candidates`` counts every enumerated candidate, lowered or not;
    ``unlowered`` the pruned ones whose tree was never lowered;
    ``estimates`` the on-demand estimates the search added to the
    profile."""
    from repro.observe import trace

    pattern = catalog.house()
    model = get_model("approx_mining")
    enumerated = list(search_module.enumerate_candidates(
        pattern, _own(cs_profile), model))
    searched_profile = _own(cs_profile)
    trace.enable("search-span")
    try:
        search_module.search(pattern, searched_profile, model)
        search_module.search(pattern, searched_profile, model)
    finally:
        recorded = trace.disable()
    first, again = recorded.find("search")
    attrs = first.attrs
    assert attrs["candidates"] == len(enumerated)
    assert attrs["evaluated"] + again.attrs["evaluated"] == len(
        recorded.find("candidate"))
    assert attrs["pruned"] == attrs["candidates"] - attrs["evaluated"]
    assert 0 < attrs["unlowered"] <= attrs["pruned"]
    added = len(searched_profile.counts) - len(cs_profile.counts)
    assert attrs["estimates"] == added > 0
    assert again.attrs["estimates"] == 0
