"""Codegen/interpreter differential tests plus runtime engine tests."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.baselines import reference
from repro.compiler.build import COUNT_ACC, build_ast
from repro.compiler.codegen import compile_root, generate_source
from repro.compiler.interpreter import run_interpreter
from repro.compiler.passes import optimize
from repro.compiler.pipeline import compile_spec
from repro.compiler.specs import DecompSpec, DirectSpec
from repro.patterns import catalog
from repro.patterns.decomposition import all_decompositions
from repro.patterns.generation import all_connected_patterns
from repro.patterns.matching_order import connected_orders, extension_orders
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, chunk_ranges, execute_plan
from repro.runtime.hashtable import NaiveTable, ShrinkageTable


def decomp_spec(pattern, which=0, plr_k=0):
    deco = all_decompositions(pattern)[which]
    ext = tuple(
        extension_orders(pattern, deco.cutting_set, s.component)[0]
        for s in deco.subpatterns
    )
    return DecompSpec(deco, deco.cutting_set, ext, plr_k=plr_k)


class TestCodegen:
    @pytest.mark.parametrize("size", [3, 4])
    def test_codegen_matches_interpreter(self, size, small_random_graph):
        for pattern in all_connected_patterns(size):
            specs = [DirectSpec(pattern, connected_orders(pattern)[0])]
            if all_decompositions(pattern):
                specs.append(decomp_spec(pattern))
            for spec in specs:
                for mode in ("count", "emit"):
                    root, _ = build_ast(spec, mode)
                    optimize(root)

                    def run(use_codegen):
                        emitted = defaultdict(int)
                        ctx = ExecutionContext(
                            root.num_tables,
                            emit=lambda i, v, c: emitted.__setitem__(
                                (i, v), emitted[(i, v)] + c
                            ),
                        )
                        if use_codegen:
                            fn, _ = compile_root(root)
                            acc = fn(small_random_graph, ctx)
                        else:
                            acc = run_interpreter(root, small_random_graph, ctx)
                        return acc[COUNT_ACC], dict(emitted)

                    assert run(True) == run(False), (pattern.name, mode)

    def test_source_is_readable_python(self):
        spec = decomp_spec(catalog.chain(4))
        root, _ = build_ast(spec, "count")
        optimize(root)
        source = generate_source(root)
        assert source.startswith("def _plan(")
        compile(source, "<test>", "exec")  # must parse

    def test_chunked_execution_sums_to_full(self, small_random_graph):
        spec = decomp_spec(catalog.cycle(4))
        root, _ = build_ast(spec, "count")
        optimize(root)
        fn, _ = compile_root(root)
        full = fn(small_random_graph, ExecutionContext())[COUNT_ACC]
        n = small_random_graph.num_vertices
        total = sum(
            fn(small_random_graph, ExecutionContext(), start, stop)[COUNT_ACC]
            for start, stop in chunk_ranges(n, 5)
        )
        assert total == full


class TestEngine:
    def test_chunk_ranges_cover_exactly(self):
        ranges = chunk_ranges(17, 4)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(17))

    def test_chunk_ranges_degenerate(self):
        assert chunk_ranges(0, 4) == []
        assert chunk_ranges(3, 10) == [(0, 1), (1, 2), (2, 3)]

    def test_execute_plan_counting(self, small_random_graph):
        pattern = catalog.cycle(4)
        plan = compile_spec(decomp_spec(pattern))
        result = execute_plan(plan, small_random_graph)
        assert result.embedding_count == reference.count_embeddings(
            small_random_graph, pattern
        )
        assert result.seconds > 0

    def test_execute_plan_interpreter_backend(self, small_random_graph):
        pattern = catalog.chain(4)
        plan = compile_spec(decomp_spec(pattern))
        a = execute_plan(plan, small_random_graph,
                         options=EngineOptions(executor="codegen"))
        b = execute_plan(plan, small_random_graph,
                         options=EngineOptions(executor="interpreter"))
        assert a.embedding_count == b.embedding_count

    def test_unknown_executor_rejected(self, small_random_graph):
        from repro.exceptions import ExecutionError

        plan = compile_spec(decomp_spec(catalog.chain(3)))
        with pytest.raises(ExecutionError):
            execute_plan(plan, small_random_graph,
                         options=EngineOptions(executor="jit"))

    def test_parallel_execution_matches_serial(self, medium_random_graph):
        pattern = catalog.cycle(4)
        plan = compile_spec(decomp_spec(pattern))
        serial = execute_plan(plan, medium_random_graph,
                              options=EngineOptions(workers=1))
        parallel = execute_plan(plan, medium_random_graph,
                                options=EngineOptions(workers=2))
        assert parallel.raw_count == serial.raw_count
        assert len(parallel.chunk_seconds) > 1
        assert 0.0 < parallel.work_balance() <= 1.0

    def test_emit_mode_rejects_parallel(self, small_random_graph):
        # An ExecutionError (a ReproError) so callers catch engine
        # errors uniformly.
        from repro.exceptions import ExecutionError, ReproError

        plan = compile_spec(decomp_spec(catalog.chain(3)), mode="emit")
        with pytest.raises(ExecutionError):
            execute_plan(plan, small_random_graph,
                         options=EngineOptions(workers=2))
        with pytest.raises(ReproError):
            execute_plan(plan, small_random_graph,
                         options=EngineOptions(workers=2))


class TestHashTables:
    @pytest.mark.parametrize("table_cls", [ShrinkageTable, NaiveTable])
    def test_basic_semantics(self, table_cls):
        table = table_cls()
        table.add(("a",))
        table.add(("a",))
        table.add(("b",), 3)
        assert table.get(("a",)) == 2
        assert table.get(("b",)) == 3
        assert table.get(("missing",)) == 0
        table.clear()
        assert table.get(("a",)) == 0

    def test_stamp_clear_is_lazy(self):
        table = ShrinkageTable()
        table.add((1,))
        table.clear()
        # The stale entry is physically present but logically invisible.
        assert table.get((1,)) == 0
        assert len(table) == 0
        table.add((1,))
        assert table.get((1,)) == 1

    def test_many_clears_cheap_and_correct(self):
        table = ShrinkageTable()
        for round_index in range(500):
            table.clear()
            table.add((round_index % 3,))
            assert table.get((round_index % 3,)) == 1
            assert table.get(((round_index + 1) % 3,)) == 0
        assert table.clears == 500

    def test_overflow_reinitializes(self, monkeypatch):
        import repro.runtime.hashtable as ht

        monkeypatch.setattr(ht, "_STAMP_LIMIT", 3)
        table = ShrinkageTable()
        for _ in range(5):
            table.clear()
            table.add(("x",))
        assert table.full_resets >= 1
        assert table.get(("x",)) == 1

    def test_tables_interchangeable_in_execution(self, small_random_graph):
        pattern = catalog.house()
        spec = decomp_spec(pattern)
        root, info = build_ast(spec, "emit")
        optimize(root)
        fn, _ = compile_root(root)

        def run(naive):
            got = defaultdict(int)
            ctx = ExecutionContext(
                root.num_tables,
                emit=lambda i, v, c: got.__setitem__((i, v), got[(i, v)] + c),
            )
            if naive:
                ctx.tables = [NaiveTable() for _ in ctx.tables]
            fn(small_random_graph, ctx)
            return dict(got)

        assert run(False) == run(True)
