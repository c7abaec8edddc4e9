"""Unit tests for the planning layer (Strategy registry, Plan, Planner,
cost model, plan memoization)."""

import pytest

from repro.evaluation import CostModel, Engine, PatternStats, Planner, method_names, strategy_for
from repro.evaluation import plan as plan_module
from repro.exceptions import EvaluationError
from repro.patterns.build import wdpf
from repro.rdf.generators import random_graph
from repro.sparql.parser import parse_pattern
from repro.workloads.families import fk_data_graph, fk_forest


class TestRegistry:
    def test_method_names(self):
        assert method_names() == ("auto", "naive", "natural", "pebble")

    def test_strategy_for_known(self):
        for name in ("naive", "natural", "pebble"):
            assert strategy_for(name).name == name

    def test_strategy_for_unknown(self):
        with pytest.raises(EvaluationError):
            strategy_for("quantum")

    def test_enumeration_support_flags(self):
        assert strategy_for("naive").supports_enumeration
        assert strategy_for("natural").supports_enumeration
        assert not strategy_for("pebble").supports_enumeration


class TestPlanner:
    def test_explicit_methods(self):
        planner = Planner()
        assert planner.plan("naive").strategy == "naive"
        assert planner.plan("natural").strategy == "natural"
        for plan in (planner.plan("naive"), planner.plan("natural")):
            assert plan.width is None
            assert not plan.certified

    def test_pebble_per_call_width_wins_over_bound(self):
        planner = Planner(width_bound=1)
        plan = planner.plan("pebble", width=3)
        assert (plan.strategy, plan.width, plan.certified) == ("pebble", 3, False)

    def test_pebble_without_any_bound_needs_oracle(self):
        with pytest.raises(EvaluationError):
            Planner().plan("pebble")

    def test_pebble_oracle_certifies(self):
        planner = Planner(width_oracle=lambda: 2)
        plan = planner.plan("pebble")
        assert (plan.strategy, plan.width, plan.certified) == ("pebble", 2, True)

    def test_auto_prefers_free_bound(self):
        plan = Planner(width_bound=1).plan("auto")
        assert (plan.strategy, plan.width, plan.certified) == ("pebble", 1, False)

    def test_auto_uses_known_width_but_never_computes(self):
        def exploding_oracle():
            raise AssertionError("auto must not compute the domination width")

        planner = Planner(known_width=lambda: None, width_oracle=exploding_oracle)
        assert planner.plan("auto").strategy == "natural"
        planner = Planner(known_width=lambda: 2, width_oracle=exploding_oracle)
        plan = planner.plan("auto")
        assert (plan.strategy, plan.width, plan.certified) == ("pebble", 2, True)

    def test_invalid_width_bound(self):
        with pytest.raises(EvaluationError):
            Planner(width_bound=0)

    def test_unknown_method(self):
        with pytest.raises(EvaluationError):
            Planner().plan("quantum")

    def test_enumeration_auto_is_natural(self):
        plan = Planner(width_bound=1).plan_enumeration("auto")
        assert plan.strategy == "natural"

    def test_enumeration_rejects_pebble(self):
        with pytest.raises(EvaluationError):
            Planner(width_bound=1).plan_enumeration("pebble")

    def test_plan_is_frozen(self):
        plan = Planner().plan("natural")
        with pytest.raises(AttributeError):
            plan.strategy = "naive"

    def test_summary(self):
        assert Planner().plan("natural").summary() == "natural"
        assert Planner(width_bound=2).plan("auto").summary() == "pebble(k=2, trusted)"
        assert Planner(known_width=lambda: 1).plan("auto").summary() == "pebble(k=1, certified)"


class TestEngineAgreement:
    """Regression: `contains` runs the plan `Engine.plan` reports, so the two
    must agree on every method × width-bound combination."""

    METHODS = ("auto", "naive", "natural", "pebble")
    WIDTH_BOUNDS = (None, 1, 2)
    WIDTHS = (None, 2)

    @pytest.fixture(scope="class")
    def workload(self):
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=3)
        queries = sorted(
            Engine(forest=forest).solutions(graph, method="natural"), key=repr
        )[:3]
        assert queries, "workload generated no membership queries"
        return forest, graph, queries

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("width_bound", WIDTH_BOUNDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_contains_matches_resolved_plan(self, workload, method, width_bound, width):
        forest, graph, queries = workload
        engine = Engine(forest=forest, width_bound=width_bound)
        plan = engine.plan(method, width)
        for mu in queries:
            assert engine.contains(graph, mu, method=method, width=width) == engine.contains(
                graph, mu, method=plan.strategy, width=plan.width
            )

    def test_auto_upgrades_after_width_computation(self, workload):
        forest, graph, queries = workload
        engine = Engine(forest=forest)
        plan = engine.plan("auto")
        assert (plan.strategy, plan.width) == ("natural", None)
        before = [engine.contains(graph, mu, method="auto") for mu in queries]
        engine.domination_width()
        plan = engine.plan("auto")
        assert (plan.strategy, plan.width) == ("pebble", 1)
        # dw(F_2) = 1 certifies the pebble run, so the answers are unchanged.
        assert [engine.contains(graph, mu, method="auto") for mu in queries] == before


class TestPatternStats:
    def test_single_node_pattern(self):
        stats = PatternStats.of(wdpf(parse_pattern("(?x p ?y)")))
        assert (stats.trees, stats.nodes, stats.opt_children) == (1, 1, 0)
        assert stats.variables == 2
        assert stats.max_new_vars == 2
        assert stats.max_branch_vars == 2
        assert stats.subtree_bound == 1.0

    def test_opt_children_counted(self):
        pattern = parse_pattern("(((?x p ?y) OPT (?y q ?z)) OPT (?x r ?w))")
        stats = PatternStats.of(wdpf(pattern))
        assert stats.opt_children == 2
        # Two independent OPT children of the root: {root}, {root,a},
        # {root,b}, {root,a,b}.
        assert stats.subtree_bound == 4.0
        # Each child introduces exactly one fresh variable over the root.
        assert stats.max_new_vars == 2  # the root itself introduces ?x ?y
        assert stats.max_branch_vars == 3

    def test_engine_memoizes_stats(self):
        engine = Engine(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        assert engine.pattern_stats() is engine.pattern_stats()


class TestCostModel:
    def _stats(self, **overrides):
        base = dict(
            trees=1,
            nodes=3,
            opt_children=2,
            triples=3,
            variables=4,
            max_new_vars=2,
            max_branch_vars=4,
            subtree_bound=4.0,
        )
        base.update(overrides)
        return PatternStats(**base)

    def test_pebble_inadmissible_without_width(self):
        estimate = CostModel().estimate(self._stats(), 100, 20, None)
        assert estimate.cost_of("pebble") is None
        assert estimate.cheapest() in ("naive", "natural")

    def test_pebble_inadmissible_for_enumeration(self):
        estimate = CostModel().estimate(self._stats(), 100, 20, 1, task="enumeration")
        assert estimate.cost_of("pebble") is None
        assert set(name for name, _ in estimate.costs) == {"naive", "natural"}

    def test_membership_prefers_pebble_under_bounded_width(self):
        # Many fresh variables per child: the n^new_vars child search dwarfs
        # the d^(k+1) pebble game (the Theorem 1 regime).
        stats = self._stats(max_new_vars=5, max_branch_vars=6)
        estimate = CostModel().estimate(stats, 1000, 100, 1)
        assert estimate.cheapest() == "pebble"

    def test_enumeration_naive_wins_on_wide_flat_patterns(self):
        # 2^20 subtrees: natural enumeration explodes, bottom-up naive does
        # one pass per node.
        stats = self._stats(nodes=21, opt_children=20, subtree_bound=2.0**20)
        estimate = CostModel().estimate(stats, 50, 15, None, task="enumeration")
        assert estimate.cheapest() == "naive"

    def test_enumeration_natural_wins_on_deep_chains(self):
        # A chain accumulates variables: the naive materialisation pays
        # n^branch_vars while natural only ever searches fresh variables.
        stats = self._stats(
            nodes=5, opt_children=4, subtree_bound=5.0, max_new_vars=1, max_branch_vars=6
        )
        estimate = CostModel().estimate(stats, 50, 15, None, task="enumeration")
        assert estimate.cheapest() == "natural"

    def test_ties_break_toward_preference_order(self, monkeypatch):
        class FlatModel(CostModel):
            def estimate(self, pattern, graph_triples, graph_domain, width, task="membership"):
                estimate = super().estimate(pattern, graph_triples, graph_domain, width, task)
                flat = tuple((name, 1.0) for name, _ in estimate.costs)
                return type(estimate)(
                    task=estimate.task,
                    costs=flat,
                    graph_triples=estimate.graph_triples,
                    graph_domain=estimate.graph_domain,
                    pattern_nodes=estimate.pattern_nodes,
                    opt_children=estimate.opt_children,
                )

        monkeypatch.setattr(plan_module, "_COST_MODEL", FlatModel())
        stats = lambda: self._stats()  # noqa: E731
        graph = random_graph(6, 20, seed=1)
        # Membership with a free bound: PR 3 chose pebble; so does a tie.
        tied = Planner(width_bound=1, pattern_stats=stats)
        assert tied.plan("auto", graph=graph).strategy == "pebble"
        # Membership without any bound: PR 3 chose natural; so does a tie.
        unbound = Planner(pattern_stats=stats)
        assert unbound.plan("auto", graph=graph).strategy == "natural"
        # Enumeration: PR 3 always chose natural; so does a tie.
        assert tied.plan_enumeration("auto", graph=graph).strategy == "natural"

    def test_unknown_task_rejected(self):
        with pytest.raises(EvaluationError):
            CostModel().estimate(self._stats(), 10, 5, None, task="sorting")

    def test_graph_aware_auto_never_picks_pebble_without_bound(self):
        engine = Engine(forest=fk_forest(2))
        graph = fk_data_graph(5, 25, clique_size=2, seed=3)
        plan = engine.plan("auto", graph=graph)
        assert plan.strategy in ("naive", "natural")
        assert plan.cost is not None
        assert plan.cost.cost_of("pebble") is None

    def test_graph_aware_plan_carries_estimate_in_explain(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        graph = fk_data_graph(5, 25, clique_size=2, seed=3)
        explained = engine.explain("auto", graph=graph)
        assert "cost estimate    :" in explained
        assert "cost inputs      : |G| = " in explained

    def test_graph_aware_auto_answers_match_graph_free(self):
        forest = fk_forest(2)
        graph = fk_data_graph(5, 25, clique_size=2, seed=3)
        queries = sorted(
            Engine(forest=forest).solutions(graph, method="natural"), key=repr
        )[:3]
        engine = Engine(forest=forest, width_bound=1)
        for mu in queries:
            assert engine.contains(graph, mu, method="auto") == engine.contains(
                graph, mu, method="natural"
            )


class TestPlanMemoization:
    def test_graph_free_plans_are_shared(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        assert engine.plan("auto") is engine.plan("auto")
        assert engine.plan("natural") is engine.plan("natural")
        assert engine.plan("pebble", width=2) is engine.plan("pebble", width=2)
        assert engine.plan("auto") is not engine.plan("natural")

    def test_graph_aware_plans_are_shared_per_graph_stats(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        graph = fk_data_graph(5, 25, clique_size=2, seed=3)
        assert engine.plan("auto", graph=graph) is engine.plan("auto", graph=graph)

    def test_memo_invalidated_by_width_computation(self):
        engine = Engine(forest=fk_forest(2))
        before = engine.plan("auto")
        assert before.strategy == "natural"
        engine.domination_width()
        after = engine.plan("auto")
        assert after.strategy == "pebble" and after.certified

    def test_memo_invalidated_by_graph_mutation(self):
        from repro.rdf import Triple

        engine = Engine(parse_pattern("((?x p ?y) OPT (?y q ?z))"))
        graph = random_graph(6, 20, seed=4)
        first = engine.plan("auto", graph=graph)
        graph.add(Triple.of("urn:fresh-node", "urn:fresh-pred", "urn:fresh-object"))
        second = engine.plan("auto", graph=graph)
        assert second is not first  # |G| changed, so the key changed

    def test_enumeration_plans_memoized(self):
        engine = Engine(forest=fk_forest(2))
        planner = engine.planner
        assert planner.plan_enumeration("auto") is planner.plan_enumeration("auto")


class TestExplainSnapshots:
    def test_uncertified_bound(self):
        engine = Engine(forest=fk_forest(2), width_bound=1)
        assert engine.explain("auto") == (
            "requested method : auto\n"
            "chosen strategy  : pebble — Theorem 1: natural evaluation with the "
            "existential (k+1)-pebble relaxation\n"
            "width bound      : k = 1 (trusted: supplied bound, not verified)\n"
            "pebble game      : existential 2-pebble game\n"
            "rationale        : the engine's width_bound declares dw(P) <= 1, so "
            "the polynomial pebble relaxation runs with k = 1; it is exact if the "
            "bound holds (dw(P) <= 1), and sound for every input"
        )

    def test_certified_bound(self):
        engine = Engine(forest=fk_forest(2))
        engine.domination_width()
        assert engine.explain("auto") == (
            "requested method : auto\n"
            "chosen strategy  : pebble — Theorem 1: natural evaluation with the "
            "existential (k+1)-pebble relaxation\n"
            "width bound      : k = 1 (certified: computed domination width of the pattern)\n"
            "pebble game      : existential 2-pebble game\n"
            "rationale        : the domination width dw(P) = 1 was already "
            "computed, so the polynomial pebble relaxation runs with k = 1; the "
            "algorithm is exact (Theorem 1)"
        )

    def test_natural_fallback(self):
        engine = Engine(forest=fk_forest(2))
        assert engine.explain("auto") == (
            "requested method : auto\n"
            "chosen strategy  : natural — exact wdPF evaluation (Lemma 1) with "
            "full homomorphism child tests\n"
            "width bound      : n/a (width-free strategy)\n"
            "rationale        : no width bound was supplied and the domination "
            "width has not been computed; resolving to the exact natural "
            "algorithm instead of paying for a width computation"
        )
