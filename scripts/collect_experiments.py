#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the saved benchmark reports.

Run the benchmarks first (``pytest benchmarks/ --benchmark-only``), then::

    python scripts/collect_experiments.py

The preamble (scope, substitutions, per-experiment verdicts) lives in
this script; the measured tables are pulled from ``benchmarks/reports/``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "benchmarks" / "reports"

#: Experiment order and commentary: (report file stem, verdict paragraph).
EXPERIMENTS = [
    ("test_fig01_pattern_size",
     "**Reproduced (shape).** The DecoMine/Peregrine gap grows with "
     "pattern size for motifs, and Peregrine exceeds the budget first on "
     "cycles while DecoMine finishes — the paper's motivating figure."),
    ("test_tab02_automine_inhouse",
     "**Reproduced (gradient).** Each +1 in pattern size costs the "
     "AutoMine baseline orders of magnitude, as in the paper's Table 2; "
     "absolute values reflect the ~1000x smaller analogue graphs."),
    ("test_tab03_overall",
     "**Reproduced (shape).** DecoMine completes every cell and never "
     "loses; RStream/Arabesque produce the paper's T/C texture as soon "
     "as the pattern size grows; the AutoMine gap widens with size."),
    ("test_tab04_peregrine_pangolin_fractal",
     "**Reproduced (shape).** Pangolin's BFS frontier exhausts its "
     "budget on the larger cells (paper's C entries); Peregrine's "
     "whole-embedding FSM collapses at lower supports."),
    ("test_fig14_graphpi",
     "**Reproduced (shape).** DecoMine >= GraphPi everywhere; the "
     "counting optimization helps GraphPi but does not close the gap."),
    ("test_tab05_native_escape",
     "**Reproduced (shape).** ESCAPE's closed-form census beats "
     "single-thread DecoMine on 4-MC (paper: 4x); DecoMine beats "
     "GraphPi (paper: 17.3x average)."),
    ("test_fig15_plr",
     "**Reproduced (shape).** PLR improves a clear majority of size-5 "
     "patterns (paper: 'more than a half'), topping out around 2.4x "
     "(paper: 6.5x — the CSE-across-compensation-subtrees savings are "
     "numpy set-ops here, with different constant factors than the "
     "paper's C++)."),
    ("test_tab06_large_graphs",
     "**Reproduced (ordering).** Same system ordering on the two "
     "largest analogues."),
    ("test_tab07_large_patterns",
     "**Partially reproduced.** The growth shape holds: at k = 7 "
     "DecoMine finishes ~4x ahead of Peregrine (paper: 24x), and the "
     "baselines approach the budget first.  At k = 6 on the heavy-tailed "
     "analogues the per-level symmetry-trim heuristic misranks matching "
     "orders and DecoMine's direct plan runs ~2x behind Peregrine's — a "
     "cost-model accuracy limit consistent with the paper's own R < 1 "
     "correlations.  The paper-scale mechanism (decomposition dominating "
     "cycles) needs the uncapped hub degrees of the real graphs; see "
     "DESIGN.md section 6."),
    ("test_fig16_scalability",
     "**Reproduced (modeled).** Near-linear scaling from measured "
     "per-iteration work via an LPT schedule; the fork-pool runtime is "
     "exercised for correctness (single-core container — see "
     "DESIGN.md section 1)."),
    ("test_fig17_fsm_thresholds",
     "**Partially reproduced.** The sweep completes with DecoMine and "
     "AutoMine at parity (0.6-1.0x) rather than the paper's mid-range "
     "70x peak: at analogue scale labeled-pattern domains are small, so "
     "the whole-embedding materialization cost that decomposition avoids "
     "never dominates.  The extreme-threshold behaviour (both systems "
     "converge as patterns are filtered away) matches the paper."),
    ("test_sec86_label_constraints",
     "**Reproduced.** Identical match counts; DecoMine's partial "
     "resolution beats Peregrine's whole-embedding filtering."),
    ("test_fig18_compilation_cost",
     "**Not reproduced at this scale (ratio).** The paper's compile "
     "time stays far below execution. Here the C target runs every "
     "k-MC cell in under a second on the small analogues, while the "
     "Python search remains much slower than the paper's C++ front-end, "
     "so compilation about equals execution at 4-MC and exceeds it from "
     "5-MC up, and the shape check (CT < ET wherever ET >= 2 s) has no "
     "cell to check. The search's branch and bound skips most candidates "
     "before optimizing them, and most of those before lowering them in "
     "full (6-MC on cs compiled in 13.5 s without it, 8.8-9.9 s with "
     "the bound on lowered trees and 6.4-7.9 s with the skeleton stage, "
     "two runs each on one host). Bulk sampling draws and a step table "
     "for the spec-level ranking, which move no estimate, took it from "
     "7.5-8.3 s to 5.5-6.8 s (two runs each, alternating, on one "
     "host). Plans are cached per session, so a repeated workload "
     "compiles once."),
    ("test_fig11_cost_models",
     "**Reproduced (ranking).** The approximate-mining model correlates "
     "best with measured runtimes and its selected plans are at least "
     "as fast as the other models'."),
    ("test_fig19_cost_model_contribution",
     "**Reproduced.** DecoMine under the approximate-mining model "
     "matches or beats oracle-equipped AutoMine; an inaccurate model "
     "can select worse plans."),
    ("test_sec63_profiling_cost",
     "**Reproduced.** Profiling cost is flat in graph size (fixed edge "
     "budget), matching the paper's 1.96-7.10s narrow band."),
    ("test_bench_setops",
     "**Engineering (not a paper figure).** The adaptive set-operation "
     "kernels (galloping probe vs sort-merge, selected by operand size "
     "ratio) against the repository's original membership-mask "
     "implementation; the skewed rows are the neighbor-intersection "
     "regime that dominates enumeration."),
    ("test_bench_orientation",
     "**Engineering (not a paper figure).** Degeneracy-oriented "
     "execution against the unoriented engine on a skewed power-law "
     "graph: clique workloads compile to oriented-adjacency plans "
     "(every trim elided, intersections on degeneracy-bounded "
     "out-neighborhoods) and must beat the baseline by >= 1.5x "
     "geomean; plans the orient pass cannot rewrite fall back to the "
     "original graph and must stay within noise."),
    ("test_ablation_hashtable", None),
    ("test_ablation_elide_and_passes", None),
    ("test_ablation_executor", None),
    ("test_ablation_sampling", None),
    ("test_ablation_guard_probability", None),
]

PREAMBLE = """\
# EXPERIMENTS — paper vs reproduction

Generated by `scripts/collect_experiments.py` from the tables that
`pytest benchmarks/ --benchmark-only` saves under `benchmarks/reports/`.

**Ground rules** (see DESIGN.md for the full substitution table): the
substrate is a pure-Python engine running on fixed-seed synthetic
analogues of the paper's datasets, roughly 1000x smaller, with hub
degrees capped to keep star-shaped counts within single-core Python
budgets.  Absolute runtimes are therefore not comparable; every
experiment below states which *shape* of the paper's result is
reproduced and asserts it in its benchmark where statistically safe.
Timeout cells ("T") use scaled per-cell budgets in place of the paper's
12/24-hour limits; crash cells ("C") are stored-embedding budget
exhaustions standing in for the paper's out-of-memory failures.

**Headline reproduction results**

* The generalized pattern decomposition algorithm (Algorithm 1) is
  *exactly* correct: property tests validate counts and per-partial-
  embedding expansion counts against brute force over random graphs,
  patterns, cutting sets, matching orders, PLR and labeled variants.
* The motivating gap (Figure 1) reproduces: the enumeration system's
  runtime explodes with pattern size while DecoMine's grows far slower,
  with the baseline timing out first.
* The cost-model story reproduces end to end: approximate-mining >
  locality-aware > G(n,p) in ranking accuracy, and the model acts as the
  paper's "performance floor" — DecoMine never loses to the best
  baseline plan because its search space contains it.
* The partial-embedding API supports FSM (exact MNI domains), the
  star-center query and label-constrained counting without whole-pattern
  materialization, beating the whole-embedding baselines.

**Known deviations** (each discussed under its experiment): 6-cycle
matching orders are occasionally misranked on the heavy-tailed analogues
(Table 7), the FSM threshold sweep shows parity instead of the paper's
mid-range peak (Figure 17), and compile time is relatively heavier than
the paper's C++ front-end (Figure 18).

---
"""


def main() -> int:
    sections = [PREAMBLE]
    missing = []
    for stem, verdict in EXPERIMENTS:
        path = REPORTS / f"{stem}.txt"
        if not path.exists():
            missing.append(stem)
            continue
        body = path.read_text().rstrip()
        title = stem.replace("test_", "").replace("_", " ")
        sections.append(f"## {title}\n")
        if verdict:
            sections.append(verdict + "\n")
        sections.append("```text\n" + body + "\n```\n")
    if missing:
        sections.append(
            "## pending\n\nReports not yet generated: "
            + ", ".join(missing) + "\n"
        )
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(sections))
    print(f"wrote EXPERIMENTS.md ({len(EXPERIMENTS) - len(missing)} "
          f"experiments, {len(missing)} pending)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
