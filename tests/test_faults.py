"""Budget and fault-plan tests: the wall-clock / step budgets of
:mod:`repro.evaluation.budget` on every session entry point, and the
:class:`~repro.evaluation.faults.FaultPlan` the service tests inject.
"""

import time

import pytest

from repro.evaluation import (
    Budget,
    DeadlineExceeded,
    Engine,
    FaultInjected,
    FaultPlan,
    Session,
)
from repro.exceptions import EvaluationError
from repro.rdf import RDFGraph, Triple
from repro.sparql import Mapping, parse_pattern


def line_graph(n=20):
    """Two-hop chains a{i} -> b{i} -> c{i}: every test pattern has answers."""
    return RDFGraph(
        [Triple.of(f"a{i}", "p", f"b{i}") for i in range(n)]
        + [Triple.of(f"b{i}", "p", f"c{i}") for i in range(n)]
    )


def dense_graph(n=12):
    """Every node points at every node: k-chains explode combinatorially."""
    return RDFGraph(
        [Triple.of(f"n{i}", "p", f"n{j}") for i in range(n) for j in range(n)]
    )


def chain_pattern(k=5):
    """A k-variable AND-chain — pathological over a dense graph."""
    text = "(?v0 p ?v1)"
    for i in range(1, k):
        text = f"({text} AND (?v{i} p ?v{i + 1}))"
    return parse_pattern(text)


# --- Budget unit behaviour --------------------------------------------------


class TestBudget:
    def test_unbounded_never_trips(self):
        budget = Budget()
        budget.tick(10_000)
        budget.check()

    def test_step_budget_trips(self):
        budget = Budget(steps=10, check_interval=1)
        with pytest.raises(DeadlineExceeded):
            for _ in range(100):
                budget.tick()

    def test_deadline_trips(self):
        budget = Budget(deadline=0.0)
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_elapsed_and_remaining(self):
        budget = Budget(deadline=60.0)
        assert budget.elapsed() >= 0.0
        assert 0.0 < budget.remaining() <= 60.0
        assert Budget().remaining() is None

    def test_amortized_interval(self):
        budget = Budget(steps=0, check_interval=256)
        budget.tick(10)  # under the interval: no real check yet
        with pytest.raises(DeadlineExceeded):
            budget.tick(300)

    def test_validation(self):
        with pytest.raises(EvaluationError):
            Budget(deadline=-1)
        with pytest.raises(EvaluationError):
            Budget(deadline=float("nan"))
        with pytest.raises(EvaluationError):
            Budget(steps=-1)
        with pytest.raises(EvaluationError):
            Budget(check_interval=0)

    def test_exception_hierarchy(self):
        assert issubclass(DeadlineExceeded, EvaluationError)
        assert issubclass(FaultInjected, EvaluationError)


class TestFaultPlanUnit:
    def test_raise_at(self):
        plan = FaultPlan(raise_at=2)
        plan.fire(0)
        with pytest.raises(FaultInjected):
            plan.fire(2)


# --- deadline behaviour through the entry points ----------------------------


class TestDeadlines:
    def test_engine_contains_zero_deadline(self):
        graph = line_graph(5)
        pattern = parse_pattern("(?x p ?y)")
        mu = Mapping.of(x="a0", y="b0")
        with pytest.raises(DeadlineExceeded):
            Engine(pattern).contains(graph, mu, deadline=0.0)
        session = Session()
        with pytest.raises(DeadlineExceeded):
            session.check(pattern, graph, mu, deadline=0.0)
        assert session.statistics.deadline_trips == 1

    def test_session_check_many_step_budget(self):
        graph = line_graph()
        pattern = parse_pattern("((?x p ?y) OPT ((?y p ?z) OPT (?z p ?w)))")
        session = Session()
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        with pytest.raises(DeadlineExceeded):
            session.check_many(
                pattern, graph, mus, budget=Budget(steps=3, check_interval=1)
            )
        assert session.statistics.deadline_trips == 1

    def test_solutions_attaches_partial(self):
        session = Session()
        with pytest.raises(DeadlineExceeded) as info:
            session.solutions(
                chain_pattern(4), dense_graph(8), budget=Budget(steps=500, check_interval=1)
            )
        # whatever was found before the trip rides on the exception
        assert isinstance(info.value.partial, tuple)

    def test_naive_solutions_trip_their_deadline(self):
        # Naive evaluation has no loop to tick in: it ticks once per pattern
        # node, and without that tick this call materialises 248,832 answers
        # in about 10 s.
        pattern = parse_pattern("(((?a p ?b) AND (?b p ?c)) OPT ((?c p ?d) AND (?d p ?e)))")
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            Session().solutions(pattern, dense_graph(12), method="naive", deadline=0.05)
        assert time.monotonic() - started < 0.5

    def test_natural_solutions_trip_before_every_subtree_is_built(self):
        # The tree of this 20-triple OPT chain is a root with 19 children,
        # so it has 2^19 rooted subtrees; building all of them before the
        # first tick took about 1.7 s.
        pattern = parse_pattern(" OPT ".join(f"(?x{i} p ?y{i})" for i in range(20)))
        graph = RDFGraph([Triple.of("a", "p", "b")])
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            Session().solutions(pattern, graph, method="natural", deadline=0.2)
        assert time.monotonic() - started < 1.0

    def test_solutions_stream_serial_raises_within_bound(self):
        """Acceptance: Session.solutions_stream yields partial results, then
        raises DeadlineExceeded by deadline + 250ms, counting one trip."""
        deadline = 0.3
        session = Session()
        got = []
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            for mu in session.solutions_stream(
                chain_pattern(5), dense_graph(12), deadline=deadline
            ):
                got.append(mu)
        elapsed = time.monotonic() - started
        assert got, "the stream must yield partial results before the trip"
        assert elapsed < deadline + 0.25
        assert session.statistics.deadline_trips == 1
        # A pre-expired budget raises at the call, before any iteration.
        with pytest.raises(DeadlineExceeded):
            session.solutions_stream(chain_pattern(5), dense_graph(12), deadline=0.0)
        assert session.statistics.deadline_trips == 2
