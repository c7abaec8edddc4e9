"""Smoke tests: the example scripts run end to end and print sensible output.

The examples are part of the public deliverable, so regressions in them
should fail the test suite, not only be discovered by readers.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"examples.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_and_reports_widths(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "solutions" in out
        assert "domination width" in out
        assert "dw(P) = 1" in out


class TestSocialNetwork:
    def test_runs_on_a_small_network(self, capsys):
        module = _load_example("social_network.py")
        module.main(12)
        out = capsys.readouterr().out
        assert "friends+email" in out
        assert "agreement: True" in out


class TestTractabilityAnalysis:
    def test_reports_both_sides_of_the_frontier(self, capsys):
        module = _load_example("tractability_analysis.py")
        module.main()
        out = capsys.readouterr().out
        assert "BOUNDED" in out
        assert "UNBOUNDED" in out


class TestPaperFigures:
    def test_regenerates_figures_for_k3(self, capsys):
        module = _load_example("paper_figures.py")
        module.main(3)
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out and "Figure 3" in out
        assert "dw(F_3) = 1" in out


class TestCliqueReductionDemo:
    def test_demo_building_blocks_run(self, capsys):
        """Run a reduced version of the demo (k = 2 only) to keep the suite fast."""
        module = _load_example("clique_reduction_demo.py")
        import networkx as nx

        module.describe_instance(nx.complete_graph(3), 2)
        out = capsys.readouterr().out
        assert "correct: True" in out
