"""Unit tests for the command line interface."""

import pytest

from repro.cli import build_parser, main
from repro.rdf import RDFGraph, Triple
from repro.rdf.io import save_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = RDFGraph(
        [
            Triple.of("http://example.org/alice", "http://example.org/knows", "http://example.org/bob"),
            Triple.of("http://example.org/bob", "http://example.org/email", "http://example.org/bob-mail"),
        ]
    )
    path = tmp_path / "data.nt"
    save_graph(graph, path)
    return str(path)


QUERY = "((?x <http://example.org/knows> ?y) OPT (?y <http://example.org/email> ?e))"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_arguments(self):
        args = build_parser().parse_args(["evaluate", "--graph", "g.nt", "--query", "(?x p ?y)"])
        assert args.command == "evaluate"
        assert args.method == "natural"


class TestEvaluateCommand:
    def test_lists_solutions(self, graph_file, capsys):
        exit_code = main(["evaluate", "--graph", graph_file, "--query", QUERY])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "# 1 solution(s)" in out
        assert "?x=<http://example.org/alice>" in out

    def test_naive_method(self, graph_file, capsys):
        exit_code = main(["evaluate", "--graph", graph_file, "--query", QUERY, "--method", "naive"])
        assert exit_code == 0
        assert "1 solution" in capsys.readouterr().out


class TestCheckCommand:
    def test_membership_positive(self, graph_file, capsys):
        exit_code = main(
            [
                "check",
                "--graph",
                graph_file,
                "--query",
                QUERY,
                "--binding",
                "x=http://example.org/alice",
                "--binding",
                "y=http://example.org/bob",
                "--binding",
                "e=http://example.org/bob-mail",
            ]
        )
        assert exit_code == 0
        assert "IN" in capsys.readouterr().out

    def test_membership_negative(self, graph_file, capsys):
        exit_code = main(
            [
                "check",
                "--graph",
                graph_file,
                "--query",
                QUERY,
                "--binding",
                "x=http://example.org/alice",
                "--binding",
                "y=http://example.org/bob",
            ]
        )
        assert exit_code == 1
        assert "NOT-IN" in capsys.readouterr().out

    def test_pebble_method_with_width(self, graph_file, capsys):
        exit_code = main(
            [
                "check",
                "--graph",
                graph_file,
                "--query",
                QUERY,
                "--method",
                "pebble",
                "--width",
                "1",
                "--binding",
                "x=http://example.org/alice",
                "--binding",
                "y=http://example.org/bob",
                "--binding",
                "e=http://example.org/bob-mail",
            ]
        )
        assert exit_code == 0

    def test_malformed_binding_reports_error(self, graph_file, capsys):
        exit_code = main(
            ["check", "--graph", graph_file, "--query", QUERY, "--binding", "nonsense"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestBatchCommand:
    @pytest.fixture
    def bindings_file(self, tmp_path):
        path = tmp_path / "bindings.txt"
        path.write_text(
            "# candidate mappings, one per line\n"
            "x=http://example.org/alice y=http://example.org/bob "
            "e=http://example.org/bob-mail\n"
            "# next line is not maximal\n"
            "x=http://example.org/alice y=http://example.org/bob\n"
            "\n"
            "-\n"
        )
        return str(path)

    def test_batch_reports_per_mapping_answers(self, graph_file, bindings_file, capsys):
        exit_code = main(
            ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", bindings_file]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        lines = [line for line in out.splitlines() if line]
        assert lines[0].startswith("IN")
        assert lines[1].startswith("NOT-IN")
        assert lines[2].startswith("NOT-IN") and lines[2].endswith("-")  # empty mapping
        assert "# 1 of 3 mapping(s) are solutions" in out

    def test_batch_matches_check(self, graph_file, bindings_file, capsys):
        main(["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", bindings_file])
        batch_out = capsys.readouterr().out
        check_codes = []
        for bindings in (
            ["x=http://example.org/alice", "y=http://example.org/bob", "e=http://example.org/bob-mail"],
            ["x=http://example.org/alice", "y=http://example.org/bob"],
        ):
            argv = ["check", "--graph", graph_file, "--query", QUERY]
            for b in bindings:
                argv += ["--binding", b]
            check_codes.append(main(argv))
        capsys.readouterr()
        batch_answers = [line.startswith("IN") for line in batch_out.splitlines()[:2]]
        assert batch_answers == [code == 0 for code in check_codes]

    def test_batch_with_method_and_stats(self, graph_file, bindings_file, capsys):
        exit_code = main(
            [
                "batch",
                "--graph",
                graph_file,
                "--query",
                QUERY,
                "--bindings-file",
                bindings_file,
                "--method",
                "pebble",
                "--width",
                "1",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "# plan: pebble(k=1, trusted)" in out
        assert "# cache:" in out

    def test_batch_missing_bindings_file_reports_error(self, graph_file, capsys):
        exit_code = main(
            ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", "/nonexistent.txt"]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_batch_keeps_fragment_iris_intact(self, tmp_path, capsys):
        # '#' only comments out whole lines; IRIs with fragments must survive.
        graph = RDFGraph(
            [Triple.of("http://example.org/alice", "http://example.org/p", "http://example.org/ns#thing")]
        )
        graph_path = tmp_path / "frag.nt"
        save_graph(graph, graph_path)
        bindings = tmp_path / "frag.txt"
        bindings.write_text("x=http://example.org/alice y=http://example.org/ns#thing\n")
        exit_code = main(
            [
                "batch",
                "--graph",
                str(graph_path),
                "--query",
                "(?x <http://example.org/p> ?y)",
                "--bindings-file",
                str(bindings),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "IN" in out and "y=http://example.org/ns#thing" in out
        assert "# 1 of 1 mapping(s) are solutions" in out

    def test_batch_malformed_line_reports_location(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x=http://example.org/alice\nnonsense-line\n")
        exit_code = main(
            ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", str(bad)]
        )
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "bad.txt:2" in err


class TestEvaluateAutoMethod:
    def test_auto_accepted_and_matches_natural(self, graph_file, capsys):
        assert main(["evaluate", "--graph", graph_file, "--query", QUERY, "--method", "auto"]) == 0
        auto_out = capsys.readouterr().out
        assert main(["evaluate", "--graph", graph_file, "--query", QUERY, "--method", "natural"]) == 0
        assert auto_out == capsys.readouterr().out
        assert "# 1 solution(s)" in auto_out


class TestExplainCommand:
    def test_auto_without_bound_is_natural(self, capsys):
        exit_code = main(["explain", "--query", QUERY])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "chosen strategy  : natural" in out
        assert "rationale" in out

    def test_width_bound_chooses_pebble_trusted(self, capsys):
        exit_code = main(["explain", "--query", QUERY, "--width-bound", "1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "chosen strategy  : pebble" in out
        assert "k = 1" in out
        assert "trusted" in out

    def test_compute_width_certifies(self, capsys):
        exit_code = main(["explain", "--query", QUERY, "--compute-width"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "chosen strategy  : pebble" in out
        assert "certified" in out

    def test_explicit_method(self, capsys):
        exit_code = main(["explain", "--query", QUERY, "--method", "naive"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "chosen strategy  : naive" in out

    def test_cost_requires_graph(self, capsys):
        exit_code = main(["explain", "--query", QUERY, "--cost"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--graph" in err

    def test_graph_requires_cost(self, graph_file, capsys):
        exit_code = main(["explain", "--query", QUERY, "--graph", graph_file])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--cost" in err

    def test_cost_snapshot(self, graph_file, capsys):
        """Snapshot of `explain --cost`: the full cost-annotated plan."""
        exit_code = main(["explain", "--query", QUERY, "--graph", graph_file, "--cost"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out == (
            "query            : ((?x http://example.org/knows ?y) OPT "
            "(?y http://example.org/email ?e))\n"
            "requested method : auto\n"
            "chosen strategy  : natural — exact wdPF evaluation (Lemma 1) with "
            "full homomorphism child tests\n"
            "width bound      : n/a (width-free strategy)\n"
            "cost estimate    : natural ~8.0e+00 · naive ~1.6e+01 (membership)\n"
            "cost inputs      : |G| = 2 triples, |dom(G)| = 5, 2 node(s), 1 OPT child(ren)\n"
            "rationale        : the cost model compared natural ~8.0e+00 · "
            "naive ~1.6e+01 for this graph and the natural strategy is the "
            "cheapest admissible choice (it is exact for every input)\n"
        )

    def test_cost_with_width_bound_admits_pebble(self, graph_file, capsys):
        exit_code = main(
            ["explain", "--query", QUERY, "--graph", graph_file, "--cost", "--width-bound", "1"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "pebble ~" in out
        assert "cost inputs      : |G| = 2 triples" in out


class TestBatchStream:
    @pytest.fixture
    def bindings_file(self, tmp_path):
        path = tmp_path / "stream-bindings.txt"
        path.write_text(
            "x=http://example.org/alice y=http://example.org/bob e=http://example.org/bob-mail\n"
            "x=http://example.org/alice y=http://example.org/bob\n"
            "-\n"
        )
        return str(path)

    def test_stream_output_matches_batched(self, graph_file, bindings_file, capsys):
        argv = ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", bindings_file]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        assert main(argv + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        assert streamed == batched

    def test_stream_with_processes_matches_batched(self, graph_file, bindings_file, capsys):
        """--stream now combines with --processes: verdicts stream back from
        the worker pool in input order, identical to the batched output."""
        argv = ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", bindings_file]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        assert main(argv + ["--stream", "--processes", "2"]) == 0
        streamed = capsys.readouterr().out
        assert streamed == batched

    def test_stream_rejects_invalid_processes(self, graph_file, bindings_file, capsys):
        exit_code = main(
            [
                "batch", "--graph", graph_file, "--query", QUERY,
                "--bindings-file", bindings_file, "--stream", "--processes", "0",
            ]
        )
        assert exit_code == 2
        assert "processes" in capsys.readouterr().err

    def test_empty_binding_value_is_a_typed_error(self, graph_file, tmp_path, capsys):
        path = tmp_path / "empty-value.txt"
        path.write_text("x=\n")
        exit_code = main(
            ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", str(path)]
        )
        assert exit_code == 2
        assert "error: " in capsys.readouterr().err

    def test_stats_reports_worker_mode(self, graph_file, bindings_file, capsys):
        argv = [
            "batch", "--graph", graph_file, "--query", QUERY,
            "--bindings-file", bindings_file, "--stats",
        ]
        assert main(argv) == 0
        assert "# workers: serial" in capsys.readouterr().out
        assert main(argv + ["--processes", "2"]) == 0
        out = capsys.readouterr().out
        assert "# workers: " in out
        assert "# workers: serial" not in out


class TestClassifyAndValidate:
    def test_classify_reports_widths(self, capsys):
        exit_code = main(["classify", "--query", QUERY])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "domination width : 1" in out
        assert "PTIME" in out

    def test_validate_well_designed(self, capsys):
        exit_code = main(["validate", "--query", QUERY])
        assert exit_code == 0
        assert "well-designed" in capsys.readouterr().out

    def test_validate_detects_violation(self, capsys):
        bad = "(((?x p ?y) OPT (?z q ?x)) OPT ((?y r ?z) AND (?z r ?w)))"
        exit_code = main(["validate", "--query", bad])
        assert exit_code == 1
        assert "NOT well-designed" in capsys.readouterr().out
