"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.baselines import reference
from repro import cli
from repro.cli import main, parse_pattern
from repro.exceptions import PatternError
from repro.graph import io
from repro.patterns import catalog


@pytest.fixture()
def edge_list_file(tmp_path, small_random_graph):
    path = tmp_path / "graph.txt"
    io.save_edge_list(small_random_graph, path)
    return str(path)


def test_docstring_examples_cover_every_subcommand(capsys):
    """The module docstring shows one example per registered subcommand."""
    documented = set(re.findall(r"python -m repro (\w+)", cli.__doc__))
    with pytest.raises(SystemExit):
        main(["--help"])
    registered = set(
        re.search(r"\{([\w,]+)\}", capsys.readouterr().out)
        .group(1).split(",")
    )
    assert documented == registered


class TestParsePattern:
    @pytest.mark.parametrize("text,expected", [
        ("triangle", catalog.triangle()),
        ("house", catalog.house()),
        ("HOUSE", catalog.house()),
        ("4-chain", catalog.chain(4)),
        ("5-cycle", catalog.cycle(5)),
        ("4-clique", catalog.clique(4)),
        ("3-star", catalog.star(3)),
        ("6-path", catalog.chain(6)),
    ])
    def test_known_patterns(self, text, expected):
        assert parse_pattern(text) == expected

    @pytest.mark.parametrize("text", ["widget", "x-cycle", "4-blob", "-"])
    def test_unknown_patterns(self, text):
        with pytest.raises(PatternError):
            parse_pattern(text)


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "citeseer" in out and "friendster" in out

    def test_count(self, capsys, edge_list_file, small_random_graph):
        assert main(["count", "--graph", edge_list_file,
                     "--pattern", "triangle"]) == 0
        out = capsys.readouterr().out
        expected = reference.count_embeddings(
            small_random_graph, catalog.triangle()
        )
        assert str(expected) in out

    def test_count_induced(self, capsys, edge_list_file, small_random_graph):
        assert main(["count", "--graph", edge_list_file,
                     "--pattern", "4-chain", "--induced"]) == 0
        out = capsys.readouterr().out
        expected = reference.count_embeddings(
            small_random_graph, catalog.chain(4), induced=True
        )
        assert str(expected) in out

    def test_census(self, capsys, edge_list_file, small_random_graph):
        assert main(["census", "--graph", edge_list_file, "--size", "3"]) == 0
        out = capsys.readouterr().out
        tri = reference.count_embeddings(
            small_random_graph, catalog.triangle(), induced=True
        )
        assert str(tri) in out

    def test_explain_with_source(self, capsys, edge_list_file):
        assert main(["explain", "--graph", edge_list_file,
                     "--pattern", "4-chain", "--source"]) == 0
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "def _plan(" in out

    @pytest.mark.parametrize("orient", ["none", "degree"])
    def test_explain_reports_the_requested_orientation(
        self, capsys, edge_list_file, orient
    ):
        assert main(["explain", "--graph", edge_list_file,
                     "--pattern", "triangle", "--orient", orient,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orientation"] == orient

    def test_requires_graph_source(self):
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "triangle"])

    def test_fsm_command(self, capsys, tmp_path):
        from repro.graph.generators import planted_communities

        graph = planted_communities(40, 3, 0.3, 0.05, num_labels=3, seed=8)
        path = tmp_path / "labeled.lg"
        io.save_labeled_graph(graph, path)
        # FSM needs the labeled loader; route through a dataset instead.
        assert main(["fsm", "--dataset", "cs", "--support", "25"]) == 0
        err = capsys.readouterr().err
        assert "frequent patterns" in err

    def test_count_with_progress_renders_a_bar(self, capsys,
                                               edge_list_file):
        assert main(["count", "--graph", edge_list_file,
                     "--pattern", "triangle", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "chunks" in captured.err
        assert "eta" in captured.err


class TestFriendlyErrors:
    """Bad paths and bad patterns exit nonzero with a one-line message,
    never a traceback."""

    def test_missing_graph_file(self, capsys):
        assert main(["count", "--graph", "/no/such/graph.txt",
                     "--pattern", "triangle"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load graph:")
        assert "Traceback" not in err

    def test_missing_graph_file_for_stats(self, capsys):
        assert main(["stats", "--graph", "/no/such/graph.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load graph:")
        assert "Traceback" not in err

    def test_unreadable_graph_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not an edge list\nat all\n")
        assert main(["count", "--graph", str(path),
                     "--pattern", "triangle"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load graph:")

    def test_unknown_pattern(self, capsys, edge_list_file):
        assert main(["count", "--graph", edge_list_file,
                     "--pattern", "dodecahedron"]) == 2
        err = capsys.readouterr().err
        assert "unknown pattern" in err
        assert "Traceback" not in err

    def test_unknown_dataset(self, capsys):
        assert main(["count", "--dataset", "nope",
                     "--pattern", "triangle"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot load graph:"
        )


class TestHistoryCommand:
    def test_round_trip_through_count_ledger(self, capsys, edge_list_file,
                                             small_random_graph, tmp_path):
        import json
        import re

        from repro.baselines import reference as ref
        from repro.patterns import catalog as cat

        ledger = str(tmp_path / "ledger.jsonl")
        assert main(["count", "--graph", edge_list_file,
                     "--pattern", "triangle", "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["history", "--ledger", ledger,
                     "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        record = records[0]
        expected = ref.count_embeddings(small_random_graph, cat.triangle())
        assert record["pattern"] == cat.triangle().name
        assert record["raw_count"] // record["divisor"] == expected
        assert record["run_id"]
        assert record["plan_fingerprint"]
        assert re.fullmatch(r"[0-9a-f]{16}", record["graph_fingerprint"])
        assert "kernel_stats" in record["metrics"]
        assert "execute" in record["phases"]

    def test_table_format_and_filters(self, capsys, edge_list_file,
                                      tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        for pattern in ("triangle", "house"):
            assert main(["count", "--graph", edge_list_file,
                         "--pattern", pattern, "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["history", "--ledger", ledger, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "house" in out and "3-clique" not in out
        assert main(["history", "--ledger", ledger,
                     "--pattern", "3-clique"]) == 0
        assert "3-clique" in capsys.readouterr().out

    def test_empty_ledger(self, capsys, tmp_path):
        assert main(["history", "--ledger",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "no runs recorded" in capsys.readouterr().err

    def test_bad_since_value(self, capsys, tmp_path):
        assert main(["history", "--ledger", str(tmp_path / "l.jsonl"),
                     "--since", "yesterday-ish"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    def test_local_batch_counts_and_sharing(self, capsys, edge_list_file,
                                            small_random_graph):
        assert main(["batch", "--graph", edge_list_file,
                     "--pattern", "triangle,house,triangle"]) == 0
        captured = capsys.readouterr()
        tri = reference.count_embeddings(small_random_graph,
                                         catalog.triangle())
        house = reference.count_embeddings(small_random_graph,
                                           catalog.house())
        assert str(tri) in captured.out
        assert str(house) in captured.out
        assert "sharing:" in captured.err
        assert "batch ok" in captured.err

    def test_local_batch_json(self, capsys, edge_list_file,
                              small_random_graph):
        import json as json_mod

        assert main(["batch", "--graph", edge_list_file,
                     "--pattern", "triangle,diamond",
                     "--format", "json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["batch_id"]
        assert [r["count"] for r in payload["responses"]] == [
            reference.count_embeddings(small_random_graph,
                                       catalog.triangle()),
            reference.count_embeddings(small_random_graph,
                                       catalog.diamond()),
        ]
        assert payload["sharing"]["workload"] == 2

    def test_batch_bad_pattern_is_friendly(self, capsys, edge_list_file):
        assert main(["batch", "--graph", edge_list_file,
                     "--pattern", "triangle,widget"]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_unreachable_socket_is_friendly(self, capsys, tmp_path):
        assert main(["batch", "--socket", str(tmp_path / "no.sock"),
                     "--pattern", "triangle"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_remote_batch_over_daemon(self, capsys, small_random_graph,
                                      tmp_path):
        from repro.serve import MiningServer, ServerConfig

        sock = str(tmp_path / "cli-batch.sock")
        with MiningServer(small_random_graph,
                          ServerConfig(socket_path=sock)):
            assert main(["batch", "--socket", sock,
                         "--pattern", "triangle,house"]) == 0
        captured = capsys.readouterr()
        tri = reference.count_embeddings(small_random_graph,
                                         catalog.triangle())
        assert str(tri) in captured.out
        assert "batch ok" in captured.err
