"""Fault-injection and budget tests: the resilience layer end to end.

These tests drive the crash ladder of the membership pool in
:mod:`repro.evaluation.session` with *real* faults — SIGKILLed and raising
pool workers — installed through the test-only
``Session(faults=FaultPlan(...))`` hook, plus the wall-clock / step
budgets of :mod:`repro.evaluation.budget` on every entry point.

The invariant under test everywhere: **answers are bitwise identical to a
serial run**, no matter what the pool does underneath.
"""

import multiprocessing
import pickle
import time

import pytest

from repro.evaluation import (
    Budget,
    DeadlineExceeded,
    Engine,
    EvaluationStatistics,
    FaultInjected,
    FaultPlan,
    Session,
    TimeoutReport,
    WorkerCrashError,
)
from repro.exceptions import EvaluationError
from repro.rdf import RDFGraph, Triple
from repro.sparql import Mapping, parse_pattern

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection suite needs a POSIX multiprocessing platform",
)

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


def turan_graph(n=30, parts=5):
    """Complete *parts*-partite graph: many (parts)-cliques, none larger."""
    return RDFGraph(
        [
            Triple.of(f"n{i}", "p", f"n{j}")
            for i in range(n)
            for j in range(n)
            if i % parts != j % parts
        ]
    )


def clique_probe(k=6):
    """An OPT whose child asks for a k-clique next to ?x — over a Turán
    graph without one, every membership check is an exhaustive search."""
    names = [f"?c{i}" for i in range(k)]
    text = "(?x p ?c0)"
    for a in names:
        for b in names:
            if a != b:
                text = f"({text} AND ({a} p {b}))"
    return parse_pattern(f"((?x p ?y) OPT {text})")


def chain_pattern(k=5):
    """A k-variable AND-chain — pathological over a dense graph."""
    text = "(?v0 p ?v1)"
    for i in range(1, k):
        text = f"({text} AND (?v{i} p ?v{i + 1}))"
    return parse_pattern(text)


def collect_iter(session, patterns, graph, **kwargs):
    """Consume solutions_iter into {cell: set}; returns (cells, report|None)."""
    got, report = {}, None
    for item in session.solutions_iter(patterns, graph, **kwargs):
        if isinstance(item, TimeoutReport):
            report = item
            break
        cell, mu = item
        got.setdefault(cell, set()).add(mu)
    return got, report


# --- Budget unit behaviour --------------------------------------------------


class TestBudget:
    def test_unbounded_never_trips(self):
        budget = Budget()
        budget.tick(10_000)
        budget.check()
        assert not budget.expired()

    def test_step_budget_trips(self):
        budget = Budget(steps=10, check_interval=1)
        with pytest.raises(DeadlineExceeded):
            for _ in range(100):
                budget.tick()
        assert budget.expired()

    def test_deadline_trips(self):
        budget = Budget(deadline=0.0)
        assert budget.expired()
        with pytest.raises(DeadlineExceeded):
            budget.check()

    def test_cancel_trips(self):
        budget = Budget()
        budget.cancel()
        assert budget.cancelled and budget.expired()
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

    def test_pickling_preserves_absolute_expiry(self):
        budget = Budget(deadline=60.0, steps=5)
        budget.tick(3)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.expires_at == budget.expires_at
        assert clone.steps_used == 3 and clone.steps_limit == 5

    def test_validation(self):
        with pytest.raises(EvaluationError):
            Budget(deadline=-1)
        with pytest.raises(EvaluationError):
            Budget(steps=-1)
        with pytest.raises(EvaluationError):
            Budget(check_interval=0)

    def test_exception_hierarchy(self):
        assert issubclass(DeadlineExceeded, EvaluationError)
        assert issubclass(WorkerCrashError, EvaluationError)
        assert issubclass(FaultInjected, EvaluationError)


class TestFaultPlanUnit:
    def test_kill_guard_fires_once_locally(self):
        plan = FaultPlan(kill_at=3)
        assert plan._kill_guard.take()
        assert not plan._kill_guard.take()

    def test_kill_once_false_always_takes(self):
        plan = FaultPlan(kill_at=3, kill_once=False)
        assert plan._kill_guard.take() and plan._kill_guard.take()

    def test_raise_at(self):
        plan = FaultPlan(raise_at=2)
        plan.fire(0)
        with pytest.raises(FaultInjected):
            plan.fire(2)

    def test_plan_survives_pickling(self):
        # An *armed* plan only crosses process boundaries through the pool
        # machinery (mp.Value is inheritance-only); unarmed plans pickle.
        plan = FaultPlan(kill_at=1, raise_at=2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.kill_at == 1 and clone.raise_at == 2
        assert clone._kill_guard.take() and not clone._kill_guard.take()


# --- deadline behaviour through the entry points ----------------------------


class TestDeadlines:
    def test_engine_contains_zero_deadline(self):
        graph = line_graph(5)
        engine = Engine(parse_pattern("(?x p ?y)"))
        stats = EvaluationStatistics()
        with pytest.raises(DeadlineExceeded) as info:
            engine.contains(
                graph, Mapping.of(x="a0", y="b0"), statistics=stats, deadline=0.0
            )
        assert stats.deadline_trips == 1
        assert info.value.statistics is stats

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

    def test_solutions_iter_serial_yields_report_within_bound(self):
        """Acceptance: partial results + terminal report by deadline + 250ms."""
        deadline = 0.3
        session = Session()
        started = time.monotonic()
        got, report = collect_iter(
            session, [chain_pattern(5)], dense_graph(12), deadline=deadline
        )
        elapsed = time.monotonic() - started
        assert report is not None, "pathological cell must time out"
        assert elapsed < deadline + 0.25
        assert report.cells_pending >= 1
        assert report.solutions_yielded == sum(len(s) for s in got.values())
        assert session.statistics.deadline_trips == 1

    def test_check_many_pool_deadline_raises_and_reaps_workers(self):
        deadline = 0.3
        session = Session()
        mus = [Mapping.of(x=f"n{i}", y=f"n{i + 1}") for i in range(4)]
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            session.check_many(
                clique_probe(),
                turan_graph(),
                mus,
                method="natural",
                processes=2,
                deadline=deadline,
            )
        assert time.monotonic() - started < deadline + 1.0
        assert multiprocessing.active_children() == []
        assert session.statistics.deadline_trips == 1

    def test_timeout_report_is_terminal(self):
        session = Session()
        items = list(
            session.solutions_iter(
                [chain_pattern(5)], dense_graph(12), deadline=0.3
            )
        )
        reports = [i for i in items if isinstance(i, TimeoutReport)]
        assert len(reports) == 1 and items[-1] is reports[0]


# --- worker crashes ----------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_check_many_recovers_from_sigkill(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(faults=FaultPlan(kill_at=0))
        stats = EvaluationStatistics()
        assert session.check_many(
            pattern, graph, mus, processes=2, statistics=stats
        ) == reference
        assert session.statistics.worker_crashes >= 1
        assert stats.worker_crashes >= 1

    def test_check_iter_recovers_from_sigkill(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(8)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(faults=FaultPlan(kill_at=0))
        assert list(
            session.check_iter(pattern, graph, mus, processes=2)
        ) == reference
        assert session.statistics.worker_crashes >= 1

    def test_repeated_kills_degrade_serially(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(20)]
        reference = Session().check_many(pattern, graph, mus)
        session = Session(faults=FaultPlan(kill_at=0, kill_once=False))
        assert session.check_many(pattern, graph, mus, processes=2) == reference
        assert session.statistics.cells_degraded_serial >= 1

    def test_worker_mode_carries_resilience_summary(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(8)]
        session = Session(faults=FaultPlan(kill_at=0))
        session.check_many(pattern, graph, mus, processes=2)
        mode = session.worker_mode(2)
        assert "worker crash" in mode
        # a pristine session keeps the plain mode string
        assert "worker crash" not in Session().worker_mode(2)

    def test_injected_raise_surfaces_as_fault(self):
        graph, pattern = line_graph(), parse_pattern("((?x p ?y) OPT (?y p ?z))")
        mus = [Mapping.of(x=f"a{i}", y=f"b{i}") for i in range(8)]
        session = Session(faults=FaultPlan(raise_at=0))
        with pytest.raises(EvaluationError):
            session.check_many(pattern, graph, mus, processes=2)
