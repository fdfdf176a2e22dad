"""Regenerate ``fixture.json``: the expected count of every op.

The counts come from :func:`repro.baselines.reference.count_embeddings`,
a brute-force backtracking matcher that shares no code with the
compiler, the plan cache or the executors.  The fixture also fixes the
patterns themselves (as edge lists) and the order in which compile-cold
draws its cold patterns, so a run's inputs do not depend on how the
program enumerates motifs.

Run from the repository root (takes a few minutes, mostly the lj
counts)::

    python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.baselines.reference import count_embeddings  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.patterns import catalog  # noqa: E402
from repro.patterns.generation import all_connected_patterns  # noqa: E402

#: Seed of the one-off shuffle that orders compile-cold's cold patterns;
#: any prefix of the order mixes 5- and 6-vertex patterns.
COLD_ORDER_SEED = 20230325


def named_patterns() -> dict:
    patterns = [
        catalog.diamond(), catalog.clique(5), catalog.chain(4),
        catalog.bowtie(), catalog.house(), catalog.chain(3),
        catalog.triangle(), catalog.tailed_triangle(),
    ]
    out = {pattern.name: pattern for pattern in patterns}
    out["tailed_triangle"] = out.pop("tailed-triangle")
    out["triangle"] = out.pop("3-clique")
    return out


def main() -> int:
    named = named_patterns()
    motif4 = list(all_connected_patterns(4))
    cold = list(all_connected_patterns(5)) + list(all_connected_patterns(6))
    random.Random(COLD_ORDER_SEED).shuffle(cold)
    uses = {
        "lj": ["diamond", "5-clique", "4-chain", "bowtie", "house"],
        "wk": (["3-chain", "triangle", "tailed_triangle", "bowtie"]
               + [p.name for p in motif4]),
        "cs": [p.name for p in motif4] + [p.name for p in cold],
    }
    every = {**named, **{p.name: p for p in motif4 + cold}}
    counts: dict = {}
    for dataset, names in uses.items():
        graph = datasets.load(dataset)
        counts[dataset] = {}
        for name in names:
            started = time.perf_counter()
            counts[dataset][name] = count_embeddings(graph, every[name])
            print(f"{dataset} {name}: {counts[dataset][name]} "
                  f"({time.perf_counter() - started:.1f}s)", file=sys.stderr)
    fixture = {
        "reference": "repro.baselines.reference.count_embeddings",
        "patterns": {
            name: {"n": pattern.n,
                   "edges": sorted([u, v] for u, v in pattern.edge_set)}
            for name, pattern in sorted(every.items())
        },
        "motif4": [p.name for p in motif4],
        "cold_order": [p.name for p in cold],
        "counts": counts,
    }
    # One line per pattern and per dataset keeps the file reviewable.
    body = ",\n".join(f' "{key}": {json.dumps(value)}'
                      for key, value in fixture.items()
                      if key not in ("patterns", "counts"))
    patterns = ",\n".join(f'  "{name}": {json.dumps(spec)}'
                          for name, spec in fixture["patterns"].items())
    counts = ",\n".join(f'  "{name}": {json.dumps(table)}'
                        for name, table in fixture["counts"].items())
    (HERE / "fixture.json").write_text(
        "{\n" + body + ',\n "patterns": {\n' + patterns
        + '\n },\n "counts": {\n' + counts + "\n }\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
