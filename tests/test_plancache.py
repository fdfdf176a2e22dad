"""The persistent compiled-plan cache (``repro.compiler.plancache``).

Pins the correctness contract the serving architecture leans on:

* warm (cache-hit) plans produce **bit-identical counts** to cold
  compiles, across all three executors and both orientations;
* every corruption mode — truncated pickle, garbage bytes, stale
  format version, wrong graph fingerprint — degrades to a miss and a
  clean recompile, never an error;
* concurrent writers publish atomically (no torn entries);
* a warm request runs **no** ``profile``/``compile``/``search`` span —
  only the ``plan-cache`` rebuild span (the observable skip-profiling
  contract) — and never touches the session's lazy graph profile.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import observe
from repro.api.messages import MiningRequest
from repro.api.session import DecoMine
from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.compiler.plancache import (
    CACHE_FORMAT_VERSION,
    PlanCache,
    options_digest,
    plan_key,
)
from repro.compiler.search import SearchOptions
from repro.costmodel import get_model, profile_graph
from repro.graph.generators import erdos_renyi
from repro.observe.ledger import graph_fingerprint
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(16, 0.35, seed=3)


@pytest.fixture(scope="module")
def profile(graph):
    return profile_graph(graph, max_pattern_size=3, trials=60)


@pytest.fixture(scope="module")
def model():
    return get_model("approx_mining")


def _fp(graph):
    return graph_fingerprint(graph)


class TestPlanKey:
    def test_key_is_deterministic_and_isomorphism_invariant(self, graph):
        house = catalog.house()
        relabeled = house.relabeled([2, 0, 1, 4, 3])
        a = plan_key(house, graph_fingerprint=_fp(graph), model_name="m")
        b = plan_key(relabeled, graph_fingerprint=_fp(graph), model_name="m")
        assert a == b
        assert a == plan_key(house, graph_fingerprint=_fp(graph),
                             model_name="m")

    def test_key_separates_every_axis(self, graph):
        house = catalog.house()
        base = dict(graph_fingerprint=_fp(graph), model_name="m")
        key = plan_key(house, **base)
        assert plan_key(catalog.gem(), **base) != key
        assert plan_key(house, **base, induced=True) != key
        assert plan_key(house, **base, orientation="degree") != key
        assert plan_key(house, **base, mode="emit") != key
        assert plan_key(house, graph_fingerprint="0" * 16,
                        model_name="m") != key
        assert plan_key(house, graph_fingerprint=_fp(graph),
                        model_name="other") != key
        assert plan_key(
            house, **base,
            options=SearchOptions(enable_decomposition=False),
        ) != key

    def test_constrained_keys_use_exact_vertex_ids(self, graph):
        from repro.compiler.specs import Constraint

        tri = catalog.triangle()
        base = dict(graph_fingerprint=_fp(graph), model_name="m")
        a = plan_key(tri, **base,
                     constraints=(Constraint(pred=0, vertices=(0, 1)),))
        b = plan_key(tri, **base,
                     constraints=(Constraint(pred=0, vertices=(1, 2)),))
        assert a != b

    def test_options_digest_covers_nested_passes(self):
        from dataclasses import replace

        options = SearchOptions()
        tweaked = replace(options, passes=replace(options.passes,
                                                  fuse=False))
        assert options_digest(options) != options_digest(tweaked)


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("executor", ["codegen", "interpreter",
                                          "vectorized"])
    @pytest.mark.parametrize("orientation", ["none", "degree"])
    def test_bit_identical_counts(self, tmp_path, graph, profile, model,
                                  executor, orientation):
        cache = PlanCache(tmp_path / "cache")
        for pattern in (catalog.house(), catalog.net(), catalog.clique(4)):
            expected = reference.count_embeddings(graph, pattern)
            cold, hit = cache.compile_cached(
                pattern, lambda: profile, model,
                graph_fingerprint=_fp(graph), orientation=orientation,
            )
            assert not hit
            # A fresh cache instance over the same directory: pure reload.
            warm, hit = PlanCache(tmp_path / "cache").compile_cached(
                pattern, lambda: pytest.fail("profiled on a warm hit"),
                model, graph_fingerprint=_fp(graph), orientation=orientation,
            )
            assert hit
            assert warm.orientation == cold.orientation
            options = EngineOptions(executor=executor,
                                    orientation=warm.orientation)
            a = execute_plan(cold, graph, options=options).embedding_count
            b = execute_plan(warm, graph, options=options).embedding_count
            assert a == b == expected

    def test_aux_plans_roundtrip(self, tmp_path, graph, profile, model):
        cache = PlanCache(tmp_path / "cache")
        options = SearchOptions()
        pattern = catalog.house()
        cold, _ = cache.compile_cached(
            pattern, lambda: profile, model,
            graph_fingerprint=_fp(graph), options=options,
        )
        warm, hit = PlanCache(tmp_path / "cache").compile_cached(
            pattern, lambda: profile, model,
            graph_fingerprint=_fp(graph), options=options,
        )
        assert hit
        assert len(warm.aux_plans) == len(cold.aux_plans)
        assert [m for _, m in warm.aux_plans] == [m for _, m in
                                                 cold.aux_plans]
        a = execute_plan(cold, graph).embedding_count
        b = execute_plan(warm, graph).embedding_count
        assert a == b == reference.count_embeddings(graph, pattern)


class TestCorruptionFallsBackToRecompile:
    def _seed(self, tmp_path, graph, profile, model):
        cache = PlanCache(tmp_path / "cache")
        pattern = catalog.diamond()
        plan, hit = cache.compile_cached(
            pattern, lambda: profile, model, graph_fingerprint=_fp(graph),
        )
        assert not hit
        key = plan_key(pattern, graph_fingerprint=_fp(graph),
                       model_name=model.name)
        assert cache.contains(key)
        return cache, pattern, key, plan

    def test_garbage_bytes_read_as_miss(self, tmp_path, graph, profile,
                                        model):
        cache, pattern, key, _ = self._seed(tmp_path, graph, profile, model)
        cache.entry_path(key).write_bytes(b"\x00not a pickle")
        assert cache.load(key, graph_fingerprint=_fp(graph)) is None
        plan, hit = cache.compile_cached(
            pattern, lambda: profile, model, graph_fingerprint=_fp(graph),
        )
        assert not hit  # recompiled...
        assert cache.load(key, graph_fingerprint=_fp(graph)) is not None
        assert (execute_plan(plan, graph).embedding_count
                == reference.count_embeddings(graph, pattern))

    def test_truncated_entry_reads_as_miss(self, tmp_path, graph, profile,
                                           model):
        cache, _, key, _ = self._seed(tmp_path, graph, profile, model)
        data = cache.entry_path(key).read_bytes()
        cache.entry_path(key).write_bytes(data[: len(data) // 2])
        assert cache.load(key, graph_fingerprint=_fp(graph)) is None

    def test_stale_format_version_reads_as_miss(self, tmp_path, graph,
                                                profile, model):
        cache, _, key, _ = self._seed(tmp_path, graph, profile, model)
        payload = pickle.loads(cache.entry_path(key).read_bytes())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        cache.entry_path(key).write_bytes(pickle.dumps(payload))
        assert cache.load(key, graph_fingerprint=_fp(graph)) is None

    def test_graph_fingerprint_mismatch_reads_as_miss(self, tmp_path, graph,
                                                      profile, model):
        cache, _, key, _ = self._seed(tmp_path, graph, profile, model)
        assert cache.load(key, graph_fingerprint="f" * 16) is None
        assert cache.load(key, graph_fingerprint=_fp(graph)) is not None

    def test_unwritable_store_is_best_effort(self, tmp_path, graph, profile,
                                             model):
        # Obstruct the cache directory with a regular file: store must
        # return False, never raise (root ignores mode bits, so chmod
        # is not a reliable obstruction here).
        plan = compile_pattern(catalog.triangle(), profile, model)
        obstruction = tmp_path / "cache"
        obstruction.write_bytes(b"not a directory")
        cache = PlanCache(obstruction)
        stored = cache.store("k" * 32, plan, graph_fingerprint=_fp(graph),
                             passes=SearchOptions().passes)
        assert stored is False
        assert cache.load("k" * 32, graph_fingerprint=_fp(graph)) is None


class TestConcurrentWriters:
    def test_racing_stores_never_tear(self, tmp_path, graph, profile, model):
        cache = PlanCache(tmp_path / "cache")
        pattern = catalog.house()
        plan = compile_pattern(pattern, profile, model)
        key = plan_key(pattern, graph_fingerprint=_fp(graph),
                       model_name=model.name)
        passes = SearchOptions().passes
        errors = []

        def writer():
            try:
                for _ in range(12):
                    assert cache.store(key, plan,
                                       graph_fingerprint=_fp(graph),
                                       passes=passes)
                    loaded = cache.load(key, graph_fingerprint=_fp(graph))
                    assert loaded is not None
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No temp files left behind; the published entry is valid.
        leftovers = [p for p in cache.path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []
        final = cache.load(key, graph_fingerprint=_fp(graph))
        assert (execute_plan(final, graph).embedding_count
                == reference.count_embeddings(graph, pattern))


class TestWarmSessionSkipsProfiling:
    def test_warm_run_has_no_profile_compile_or_search_spans(self, tmp_path,
                                                             graph):
        cache_dir = tmp_path / "cache"
        pattern = catalog.house()
        cold = DecoMine(graph, plan_cache=cache_dir).submit(
            MiningRequest(pattern=pattern))
        expected = cold.count
        assert cold.plan_cache_hit is False

        warm = DecoMine(graph, plan_cache=cache_dir)
        observe.enable("warm")
        try:
            response = warm.submit(MiningRequest(pattern=pattern))
        finally:
            trace = observe.disable()
        assert response.count == expected
        names = {entry.name for entry in trace.spans}
        assert "profile" not in names
        assert "compile" not in names
        assert "search" not in names
        assert "plan-cache" in names
        assert response.plan_cache_hit is True
        # The lazy graph profile was never even computed.
        assert warm._profile is None

    def test_in_memory_hit_also_reports_warm(self, graph):
        session = DecoMine(graph)
        request = MiningRequest(pattern=catalog.diamond())
        assert session.submit(request).plan_cache_hit is False
        assert session.submit(request).plan_cache_hit is True


class TestEviction:
    def _seed_entries(self, path, count, size=1000):
        import os
        import time as time_mod

        path.mkdir(parents=True, exist_ok=True)
        now = time_mod.time()
        for index in range(count):
            entry = path / f"key{index}.plan"
            entry.write_bytes(b"x" * size)
            os.utime(entry, (now - 100 + index, now - 100 + index))

    def test_prune_removes_oldest_first(self, tmp_path):
        cache = PlanCache(tmp_path / "cache", max_bytes=3000)
        self._seed_entries(tmp_path / "cache", 6)
        assert cache.prune() == 3
        survivors = sorted(p.name for p in
                           (tmp_path / "cache").glob("*.plan"))
        assert survivors == ["key3.plan", "key4.plan", "key5.plan"]
        assert cache.evictions == 3
        assert cache.size_bytes() == 3000
        assert cache.stats()["evictions"] == 3
        assert cache.stats()["max_bytes"] == 3000

    def test_prune_noop_without_cap_or_under_cap(self, tmp_path):
        uncapped = PlanCache(tmp_path / "cache")
        self._seed_entries(tmp_path / "cache", 4)
        assert uncapped.prune() == 0
        roomy = PlanCache(tmp_path / "cache", max_bytes=10_000)
        assert roomy.prune() == 0
        assert roomy.evictions == 0

    def test_store_triggers_pruning(self, tmp_path, graph, profile, model):
        cache = PlanCache(tmp_path / "cache", max_bytes=1)
        plan, hit = cache.compile_cached(
            catalog.triangle(), lambda: profile, model,
            graph_fingerprint=_fp(graph),
        )
        assert not hit
        # The cap is one byte: the entry just stored is itself evicted.
        assert cache.evictions >= 1
        assert cache.size_bytes() == 0

    def test_hits_refresh_recency(self, tmp_path, graph, profile, model):
        import os
        import time as time_mod

        cache = PlanCache(tmp_path / "cache", max_bytes=None)
        for pattern in (catalog.triangle(), catalog.chain(3)):
            cache.compile_cached(pattern, lambda: profile, model,
                                 graph_fingerprint=_fp(graph))
        entries = sorted((tmp_path / "cache").glob("*.plan"))
        assert len(entries) == 2
        # Age both entries, then hit only the triangle: its mtime must
        # move forward so pruning would evict the other one first.
        stale = time_mod.time() - 1000
        for entry in entries:
            os.utime(entry, (stale, stale))
        plan, hit = cache.compile_cached(
            catalog.triangle(), lambda: pytest.fail("warm hit expected"),
            model, graph_fingerprint=_fp(graph),
        )
        assert hit
        refreshed = [entry for entry in entries
                     if entry.stat().st_mtime > stale + 500]
        assert len(refreshed) == 1
        total = sum(entry.stat().st_size for entry in entries)
        capped = PlanCache(tmp_path / "cache", max_bytes=total - 1)
        assert capped.prune() == 1
        assert refreshed[0].exists()

    def test_warm_counts_survive_eviction_churn(self, tmp_path, graph,
                                                profile, model):
        # A cap that fits roughly one entry: every store evicts the
        # previous plan, and every reload must still be bit-identical.
        first = PlanCache(tmp_path / "cache").compile_cached(
            catalog.triangle(), lambda: profile, model,
            graph_fingerprint=_fp(graph),
        )[0]
        size = PlanCache(tmp_path / "cache").size_bytes()
        cache = PlanCache(tmp_path / "cache", max_bytes=size)
        for pattern in (catalog.diamond(), catalog.house()):
            plan, hit = cache.compile_cached(
                pattern, lambda: profile, model,
                graph_fingerprint=_fp(graph),
            )
            assert not hit
            got = execute_plan(plan, graph).embedding_count
            assert got == reference.count_embeddings(graph, pattern)
        assert cache.evictions >= 1
