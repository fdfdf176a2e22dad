"""Golden plan choices: the search picks the same plan at the same price.

``data/search_golden.json`` records, for every covered graph and pattern,
the winning spec, the ``repr`` of its predicted cost (so the float must
match to the last bit) and its global-shrinkage aux plans, recursively.
Any change meant only to make the search faster must leave every entry
as it is.  Regenerate the file, when a plan choice is meant to change,
with::

    PYTHONPATH=src python tests/test_search_golden.py --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.compiler import compile_pattern
from repro.costmodel import profile_graph
from repro.graph import datasets
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.patterns.pattern import Pattern

GOLDEN = Path(__file__).parent / "data" / "search_golden.json"


def _catalog() -> list[Pattern]:
    """Named shapes, numbered differently from the motif representatives
    (greedy orders depend on numbering), plus one labeled pattern."""
    labeled = catalog.house()
    return [
        catalog.chain(4), catalog.chain(5), catalog.chain(6),
        catalog.cycle(4), catalog.cycle(5), catalog.cycle(6),
        catalog.clique(4), catalog.clique(5), catalog.star(4),
        catalog.star(5), catalog.tailed_triangle(), catalog.diamond(),
        catalog.house(), catalog.gem(), catalog.bowtie(), catalog.net(),
        catalog.clique_minus_edge(5), catalog.figure6_pattern(),
        catalog.figure11_patterns()["p4"],
        Pattern(5, labeled.edge_set, labels=[0, 1, 0, 1, 2],
                name="labeled-house"),
    ]


def _workload() -> dict[str, list[Pattern]]:
    motifs5 = list(all_connected_patterns(5))
    return {
        "cs": motifs5 + list(all_connected_patterns(6)) + _catalog(),
        "ee": motifs5 + _catalog(),
    }


def _key(pattern: Pattern) -> str:
    labels = f" labels={list(pattern.labels)}" if pattern.labels else ""
    return f"{pattern.name} n={pattern.n} edges={pattern.edges()}{labels}"


def _record(plan) -> dict:
    return {
        "spec": plan.spec.describe(),
        "global_shrinkage": not getattr(plan.spec, "include_shrinkages",
                                        True),
        "cost": repr(plan.cost),
        "aux": [[multiplier, _record(aux)]
                for aux, multiplier in plan.aux_plans],
    }


def _choices(graph_name: str) -> dict[str, dict]:
    """Compile every workload pattern against its own copy of one profile,
    so each choice is independent of the order of the others."""
    profile = profile_graph(datasets.load(graph_name))
    base_counts = dict(profile.counts)
    choices = {}
    for pattern in _workload()[graph_name]:
        own = copy.copy(profile)
        own.counts = dict(base_counts)
        choices[_key(pattern)] = _record(compile_pattern(pattern, own))
    return choices


@pytest.mark.parametrize("graph_name", sorted(_workload()))
def test_plan_choices_match_golden(graph_name):
    expected = json.loads(GOLDEN.read_text())[graph_name]
    actual = _choices(graph_name)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, (
        f"{len(changed)} plan choice(s) changed on {graph_name}, first: "
        f"{changed[0]}\nexpected {expected[changed[0]]}\n"
        f"actual   {actual[changed[0]]}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: _choices(name) for name in sorted(_workload())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
