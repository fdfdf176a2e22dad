"""Mix-design checks for the benchmark (run: python3 -m pytest perfbench).

They need no program build: the mix rules are pure, and the measured
kind costs come from the committed steadiness report.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import layers
import mix

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REPORT = HERE / "reports" / "steadiness.json"
FIXTURE = json.loads((HERE / "fixture.json").read_text())


def _rounds(workload: str) -> int:
    # compile-cold runs out of cold patterns before it runs out of time.
    limit = (len(FIXTURE["cold_order"]) // 4 if workload == "compile-cold"
             else None)
    return mix.rounds_for(workload, BENCH["run_seconds"], limit=limit)


def _n_ops(workload: str) -> int:
    return _rounds(workload) * mix.round_size(workload)


def test_benchmark_names_its_workloads_and_metrics():
    assert WORKLOADS == ["count-warm", "compile-cold", "serve-mixed"]
    assert [m["name"] for m in BENCH["end_to_end"]] == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
        "cpu_ms_per_op", "peak_rss_mb"]
    assert [m["name"] for m in BENCH["per_layer"]] == [
        name for name, _, _ in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_multiset_is_seed_independent(workload):
    runs = [mix.ops_for(workload, _rounds(workload), seed)
            for seed in range(1, 21)]
    assert all(Counter(ops) == Counter(runs[0]) for ops in runs)
    assert len({tuple(ops) for ops in runs}) == len(runs)
    dealt = mix.deal(runs[0])
    assert Counter(op for share in dealt for op in share) == Counter(runs[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_have_enough_ops_for_p90(workload):
    assert _n_ops(workload) >= mix.MIN_OPS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("q", mix.RANKS)
def test_rank_lies_inside_one_kinds_block(workload, q):
    kind, margin = mix.rank_margin(workload, _n_ops(workload), q)
    # At least 5% of the run's ops separate the rank from a kind boundary.
    assert margin >= 0.05, (kind, margin)


def test_percentiles_land_on_the_intended_kinds():
    assert mix.rank_margin("count-warm", _n_ops("count-warm"), 0.5)[0] == "4-chain"
    assert mix.rank_margin("count-warm", _n_ops("count-warm"), 0.9)[0] == "house"
    for q in mix.RANKS:
        assert mix.rank_margin("compile-cold", _n_ops("compile-cold"), q)[0] == "cold"
    assert mix.rank_margin("serve-mixed", _n_ops("serve-mixed"), 0.5)[0] == "tailed_triangle"
    assert mix.rank_margin("serve-mixed", _n_ops("serve-mixed"), 0.9)[0] == "motif4-batch"


def test_every_reload_follows_the_cold_compile_it_reads():
    for seed in range(1, 21):
        ops = mix.ops_for("compile-cold", 20, seed)
        seen = set()
        for kind, index in ops:
            if kind == "cold":
                seen.add(index)
            else:
                assert index in seen


def test_fixture_covers_every_op():
    fixture = FIXTURE
    counts = fixture["counts"]
    assert {k for k, _ in mix.KINDS["count-warm"]} <= set(counts["lj"])
    singles = {k for k, _ in mix.KINDS["serve-mixed"]} - {"motif4-batch"}
    assert singles | set(fixture["motif4"]) <= set(counts["wk"])
    assert len(fixture["cold_order"]) == 133  # every 5- and 6-vertex motif
    assert set(fixture["cold_order"]) | set(fixture["motif4"]) <= set(counts["cs"])
    assert set(fixture["patterns"]) >= set().union(*counts.values())


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert mix.percentile(values, 0.5) == 50
    assert mix.percentile(values, 0.9) == 90


def test_self_time_subtracts_direct_children():
    spans = [["api", "submit", 0.0, 10.0, -1, {}],
             ["compiler", "compile", 1.0, 4.0, 0, {}],
             ["compiler", "compile", 2.0, 3.0, 1, {}],
             ["runtime", "execute", 5.0, 9.0, 0, {}]]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_steadiness_report_separates_adjacent_kinds(workload):
    report = json.loads(REPORT.read_text())["workloads"][workload]
    medians = report["kind_median_ms"]
    order = [kind for kind, _ in mix.KINDS[workload]]
    assert set(medians) == set(order)
    for a, b in zip(order, order[1:]):
        assert medians[b] >= 1.5 * medians[a], (a, b, medians)
    assert report["ops_per_run"] == _n_ops(workload)
    assert report["per_layer"]["trace.coverage"] >= 0.9
