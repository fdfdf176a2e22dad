"""Neighbor-sampling estimates stay equal to the last bit.

``data/sampling_lock.json`` records the ``repr`` of every profiled count
on ``cs`` and ``lj`` and of the raw estimates ``CostProfile.lookup``
makes on demand for some 5- and 6-vertex patterns, each looked up on a
fresh copy of the profile.  The plan search ranks candidates by these
numbers, so a change to a trial's draw order or float arithmetic would
move plan choices; a change meant only to make sampling faster must
leave every entry as it is.  Regenerate the file, when an estimate is meant to change, with::

    PYTHONPATH=src python tests/test_sampling_lock.py --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.costmodel import profile_graph
from repro.graph import datasets
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern

LOCK = Path(__file__).parent / "data" / "sampling_lock.json"


def _looked_up() -> list[Pattern]:
    """Patterns past the profiled table (4 vertices), two numberings of
    the house among them: the first numbering looked up is estimated."""
    house = catalog.house()
    reversed_house = Pattern(5, [(4 - u, 4 - v) for u, v in house.edges()],
                             name="house-reversed")
    motifs6 = list(all_connected_patterns(6))
    return [house, reversed_house, catalog.bowtie(), catalog.gem(),
            catalog.clique(5), catalog.cycle(6), catalog.chain(6),
            motifs6[0], motifs6[40], motifs6[-1]]


def _estimates(graph_name: str) -> dict:
    profile = profile_graph(datasets.load(graph_name))
    counts = {repr(code): repr(value)
              for code, value in profile.counts.items()}
    lookups = {}
    for pattern in _looked_up():
        own = copy.copy(profile)
        own.counts = dict(profile.counts)
        own.lookup(pattern)  # estimates and caches the raw value
        key = f"{pattern.name} edges={pattern.edges()}"
        lookups[key] = repr(own.counts[canonical_code(pattern)])
    return {"counts": counts, "lookups": lookups}


@pytest.mark.parametrize("graph_name", ["cs", "lj"])
def test_estimates_match_the_lock(graph_name):
    expected = json.loads(LOCK.read_text())[graph_name]
    assert _estimates(graph_name) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sampling_lock.py --write")
    data = {name: _estimates(name) for name in ("cs", "lj")}
    LOCK.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
