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

    def test_timeout_prints_verdicts_decided_before_the_trip(self, tmp_path, capsys):
        # The Turán graph T(30,5) has no 6-clique, so the probe's OPT child is
        # an exhaustive search for every mapping whose root edge exists.
        turan = RDFGraph(
            [Triple.of(f"n{i}", "p", f"n{j}") for i in range(30) for j in range(30) if i % 5 != j % 5]
        )
        graph_path = tmp_path / "turan.nt"
        save_graph(turan, graph_path)
        names = [f"?c{i}" for i in range(6)]
        clique = "(?x p ?c0)"
        for a in names:
            for b in names:
                if a != b:
                    clique = f"({clique} AND ({a} p {b}))"
        # n0 and n5 lie in one part: no root edge, so that verdict is
        # immediate; n0 and n1 need the whole clique search.
        bindings = tmp_path / "clique-bindings.txt"
        bindings.write_text("x=n0 y=n5\nx=n0 y=n1\n")
        exit_code = main(
            [
                "batch", "--graph", str(graph_path), "--query", f"((?x p ?y) OPT {clique})",
                "--bindings-file", str(bindings), "--method", "natural", "--timeout", "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "NOT-IN x=n0 y=n5" in captured.out.splitlines()
        assert "1 of 2 verdict(s) decided" in captured.err

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

    def test_cost_snapshot(self, graph_file, capsys):
        """Snapshot of `explain --graph`: the full cost-annotated plan."""
        exit_code = main(["explain", "--query", QUERY, "--graph", graph_file])
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
            ["explain", "--query", QUERY, "--graph", graph_file, "--width-bound", "1"]
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

    def test_empty_binding_value_is_a_typed_error(self, graph_file, tmp_path, capsys):
        path = tmp_path / "empty-value.txt"
        path.write_text("x=\n")
        exit_code = main(
            ["batch", "--graph", graph_file, "--query", QUERY, "--bindings-file", str(path)]
        )
        assert exit_code == 2
        assert "error: " in capsys.readouterr().err

    def test_stats_reports_plan_resilience_and_cache(self, graph_file, bindings_file, capsys):
        argv = [
            "batch", "--graph", graph_file, "--query", QUERY,
            "--bindings-file", bindings_file, "--stats",
        ]
        assert main(argv) == 0
        stats = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# ")]
        assert [line.split(":")[0] for line in stats[1:]] == ["# plan", "# resilience", "# cache"]
        assert stats[2] == "# resilience: 0 deadline trip(s)"


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

    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    def test_hostile_nesting_is_a_typed_error(self, graph_file, command, capsys):
        query = "(" * 600 + "?x p ?y" + ")" * 600
        graph = ["--graph", graph_file] if command == "evaluate" else []
        assert main([command, *graph, "--query", query]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_validate_detects_violation(self, capsys):
        bad = "(((?x p ?y) OPT (?z q ?x)) OPT ((?y r ?z) AND (?z r ?w)))"
        exit_code = main(["validate", "--query", bad])
        assert exit_code == 1
        assert "NOT well-designed" in capsys.readouterr().out
