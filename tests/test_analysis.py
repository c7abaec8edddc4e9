"""The invariant linter: every rule fires on a known violation and stays
silent on the fixed form; the suppression/baseline machinery behaves.

Fixture projects are built in memory with :meth:`Project.from_sources`
using relpaths that match the real tree's layout, because several rules
scope themselves by path (``evaluation/cache.py``, ``session.py``, …).
"""

import json
import subprocess
import textwrap

import pytest

from repro.analysis import default_rules, rule_registry, run_rules
from repro.analysis.callgraph import project_callgraph
from repro.analysis.framework import Finding, Project
from repro.analysis.rules.blocking import HoldWhileBlockingRule
from repro.analysis.rules.budgets import MonotonicRule, TickRule
from repro.analysis.rules.exceptions_rule import ExceptionTaxonomyRule
from repro.analysis.rules.forkstate import ForkStateRule
from repro.analysis.rules.guards import GuardedByRule
from repro.analysis.rules.lockorder import LOCK_ORDER, LockOrderRule, _find_cycle
from repro.analysis.rules.pickling import PoolPayloadRule
from repro.analysis.rules.versioning import VersionBumpRule
from repro.analysis.rules.yields import YieldUnderLockRule
from repro.analysis.runner import main as lint_main


def project(**sources):
    """Project from {name_with__for_slashes: dedented source}."""
    return Project.from_sources(
        {
            name.replace("__", "/") + ".py": textwrap.dedent(text)
            for name, text in sources.items()
        }
    )


def rule_findings(rule, proj):
    return [f for f in run_rules(proj, [rule]).findings if f.rule == rule.id]


# --- RP-VERSION ---------------------------------------------------------------

GRAPH_OK = """
    class RDFGraph:
        def add(self, triple):
            if triple in self._spo:
                return self
            self._version += 1
            self._insert(triple)
            return self

        def _insert(self, triple):
            self._spo.add(triple)

        def add_all(self, triples):
            batch = [t for t in triples if t not in self._spo]
            if not batch:
                return self
            self._version += 1
            self._spo.extend_sorted(sorted(batch))
            return self
"""


def test_version_rule_silent_on_disciplined_graph():
    assert rule_findings(VersionBumpRule(), project(src__repro__rdf__graph=GRAPH_OK)) == []


def test_version_rule_flags_mutation_without_bump():
    proj = project(
        src__repro__rdf__graph="""
        class RDFGraph:
            def add(self, triple):
                self._spo.add(triple)
                return self
        """
    )
    findings = rule_findings(VersionBumpRule(), proj)
    assert len(findings) == 1
    assert "no _version bump" in findings[0].message


def test_version_rule_flags_double_bump_and_bump_in_loop():
    proj = project(
        src__repro__rdf__graph="""
        class ReferenceRDFGraph:
            def add_all(self, triples):
                for t in triples:
                    self._triples.add(t)
                    self._version += 1
            def discard(self, t):
                self._triples.remove(t)
                self._version += 1
                self._version += 1
        """
    )
    messages = sorted(f.message for f in rule_findings(VersionBumpRule(), proj))
    assert any("inside a loop" in m for m in messages)
    assert any("bumps _version 2 times" in m for m in messages)


def test_version_rule_flags_bumping_method_called_in_loop():
    proj = project(
        src__repro__rdf__graph="""
        class RDFGraph:
            def add(self, t):
                self._version += 1
                self._spo.add(t)
            def add_all(self, triples):
                for t in triples:
                    self.add(t)
        """
    )
    findings = rule_findings(VersionBumpRule(), proj)
    assert any("bumping method add() inside a loop" in f.message for f in findings)


def test_version_rule_tracks_storage_aliases():
    proj = project(
        src__repro__rdf__graph="""
        class RDFGraph:
            def add_all(self, triples):
                spo = self._spo
                spo.extend_sorted(triples)
        """
    )
    findings = rule_findings(VersionBumpRule(), proj)
    assert len(findings) == 1 and "no _version bump" in findings[0].message


# --- RP-PICKLE ----------------------------------------------------------------

def test_pickle_rule_flags_hookless_payload_and_graphpattern():
    proj = project(
        src__repro__evaluation__session="""
        class Payload:
            pass

        def _init_worker(payload: Payload, pattern: "GraphPattern") -> None:
            pass
        """
    )
    messages = [f.message for f in rule_findings(PoolPayloadRule(), proj)]
    assert any("Payload defines no __reduce__" in m for m in messages)
    assert any("GraphPattern" in m for m in messages)


def test_pickle_rule_silent_on_reduce_dataclass_and_registered(monkeypatch):
    from repro.analysis.rules import pickling

    monkeypatch.setitem(pickling.PICKLE_SAFE, "Session", "registered for the test")
    proj = project(
        src__repro__evaluation__session="""
        from dataclasses import dataclass
        from typing import Optional

        class Forest:
            def __reduce__(self):
                return (Forest, ())

        @dataclass
        class Delta:
            entries: list

        def _init_worker(
            forest: Forest, delta: Delta, warm_session: Optional["Session"] = None
        ) -> None:
            pass

        class Session:
            pass
        """
    )
    assert rule_findings(PoolPayloadRule(), proj) == []


def test_pickle_rule_ignores_non_worker_functions():
    proj = project(
        src__repro__evaluation__session="""
        class Payload:
            pass

        def ordinary(payload: Payload) -> None:
            pass
        """
    )
    assert rule_findings(PoolPayloadRule(), proj) == []


# --- RP-TICK ------------------------------------------------------------------

def test_tick_rule_flags_untick_loops_and_accepts_fixed_form():
    bad = project(
        src__repro__evaluation__naive="""
        def evaluate_pattern(pattern, graph, budget=None):
            result = set()
            for triple in graph:
                result.add(triple)
            while result:
                result.pop()
            return result
        """
    )
    findings = rule_findings(TickRule(), bad)
    assert len(findings) == 2  # the for and the while

    good = project(
        src__repro__evaluation__naive="""
        def evaluate_pattern(pattern, graph, budget=None):
            result = set()
            for triple in graph:
                if budget is not None:
                    budget.tick()
                for extra in triple:  # inner loop amortized by the outer tick
                    result.add(extra)
            while result:
                budget.tick(1 + len(result))
                result.pop()
            return result
        """
    )
    assert rule_findings(TickRule(), good) == []


def test_tick_rule_reports_stale_registry_entry():
    proj = project(
        src__repro__evaluation__naive="""
        def renamed_entry_point(pattern, graph):
            return set()
        """
    )
    findings = rule_findings(TickRule(), proj)
    assert any("'evaluate_pattern' not found" in f.message for f in findings)


def test_tick_rule_checks_registered_nested_function():
    proj = project(
        src__repro__hom__homomorphism="""
        def _search_ids(source, index, fixed, budget):
            def backtrack(current):
                for value in current:
                    yield value
            return backtrack(fixed)
        """
    )
    findings = rule_findings(TickRule(), proj)
    assert len(findings) == 1 and "_search_ids.backtrack" in findings[0].message


# --- RP-MONO ------------------------------------------------------------------

def test_mono_rule_flags_wall_clock_forms():
    proj = project(
        src__repro__evaluation__budget="""
        import time
        from time import time as now
        from datetime import datetime

        def deadline(seconds):
            start = time.time()
            stamp = now()
            when = datetime.now()
            return start + seconds, stamp, when
        """
    )
    findings = rule_findings(MonotonicRule(), proj)
    # the import itself, time.time(), the aliased call, argless datetime.now()
    assert len(findings) == 4


def test_mono_rule_silent_on_monotonic_and_tz_aware():
    proj = project(
        src__repro__evaluation__budget="""
        import time
        from time import monotonic, sleep
        from datetime import datetime, timezone

        def deadline(seconds):
            sleep(0)
            stamped = datetime.now(timezone.utc)
            return monotonic() + seconds, time.monotonic(), stamped
        """
    )
    assert rule_findings(MonotonicRule(), proj) == []


# --- RP-EXC -------------------------------------------------------------------

def test_exc_rule_flags_foreign_raises_and_accepts_taxonomy():
    proj = project(
        src__repro__exceptions="""
        class ReproError(Exception):
            pass

        class EvaluationError(ReproError):
            pass
        """,
        src__repro__evaluation__engine="""
        from ..exceptions import EvaluationError

        class FaultInjected(EvaluationError):
            pass

        class RogueError(Exception):
            pass

        def run(mode):
            if mode == "taxonomy":
                raise EvaluationError("fine")
            if mode == "derived":
                raise FaultInjected("fine")
            if mode == "stdlib":
                raise ValueError("fine")
            if mode == "runtime":
                raise RuntimeError("not fine")
            raise RogueError("not fine")
        """,
    )
    findings = rule_findings(ExceptionTaxonomyRule(), proj)
    assert len(findings) == 2
    assert any("raise RuntimeError" in f.message for f in findings)
    assert any("raise RogueError" in f.message for f in findings)


def test_exc_rule_skips_bare_and_variable_reraise():
    proj = project(
        src__repro__evaluation__engine="""
        def run():
            try:
                pass
            except Exception as error:
                raise
            raise error
        """
    )
    assert rule_findings(ExceptionTaxonomyRule(), proj) == []


# --- RP-FORKSTATE -------------------------------------------------------------

FORKSTATE_BAD = """
    _WORKER_STATE = {}

    def _init_worker(graph):
        _WORKER_STATE["graph"] = graph
"""

FORKSTATE_GOOD = """
    # fork-safe: rebound wholesale by the initializer in every worker
    # process before any task runs; never read in the parent.
    _WORKER_STATE = {}

    def _init_worker(graph):
        _WORKER_STATE["graph"] = graph
"""


def test_forkstate_rule_requires_guard_comment():
    bad = project(src__repro__evaluation__session=FORKSTATE_BAD)
    findings = rule_findings(ForkStateRule(), bad)
    assert len(findings) == 1 and "_WORKER_STATE" in findings[0].message

    good = project(src__repro__evaluation__session=FORKSTATE_GOOD)
    assert rule_findings(ForkStateRule(), good) == []


def test_forkstate_rule_ignores_parent_side_functions():
    proj = project(
        src__repro__evaluation__session="""
        _SETTINGS = {}

        def configure(key, value):
            _SETTINGS[key] = value
        """
    )
    assert rule_findings(ForkStateRule(), proj) == []


def test_forkstate_rule_flags_mutator_calls_and_global_rebind():
    proj = project(
        src__repro__evaluation__session="""
        _WORKER_STATE = {}
        _CHUNK_STATE = dict()

        def _init_worker(graph):
            _WORKER_STATE.update(graph=graph)

        def _worker_contains_chunk(task):
            global _CHUNK_STATE
            _CHUNK_STATE = {"task": task}
        """
    )
    messages = [f.message for f in rule_findings(ForkStateRule(), proj)]
    assert any("mutates module global _WORKER_STATE" in m for m in messages)
    assert any("rebinds module global _CHUNK_STATE" in m for m in messages)


# --- the call graph -----------------------------------------------------------

STORE_SRC = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def add(self, item):
            self._bump()

        def _bump(self):
            self._note()

        def _note(self):
            self.count += 1

        def loop(self):
            return self.loop()

        def ping(self):
            return self.pong()

        def pong(self):
            return self.ping()
"""


def test_callgraph_self_call_closure():
    graph = project_callgraph(project(src__repro__store=STORE_SRC))
    info = graph.lookup("store.py", "Store.add")
    edges = graph.callees(info.ref)
    assert [edge.callee.qualname for edge in edges] == ["Store._bump"]
    assert edges[0].via_self
    reached = {ref.qualname for ref in graph.reachable(info.ref)}
    assert reached == {"Store.add", "Store._bump", "Store._note"}


def test_callgraph_max_depth_bounds_closure():
    graph = project_callgraph(project(src__repro__store=STORE_SRC))
    info = graph.lookup("store.py", "Store.add")
    reached = {ref.qualname for ref in graph.reachable(info.ref, max_depth=1)}
    assert reached == {"Store.add", "Store._bump"}


def test_callgraph_recursion_terminates():
    graph = project_callgraph(project(src__repro__store=STORE_SRC))
    direct = graph.lookup("store.py", "Store.loop")
    assert {r.qualname for r in graph.reachable(direct.ref)} == {"Store.loop"}
    mutual = graph.lookup("store.py", "Store.ping")
    assert {r.qualname for r in graph.reachable(mutual.ref)} == {
        "Store.ping",
        "Store.pong",
    }


def test_callgraph_attribute_method_resolution():
    proj = project(
        src__repro__svc="""
        class Stats:
            def note(self):
                self.hits += 1

        class Service:
            def __init__(self):
                self._stats = Stats()

            def record(self):
                self._stats.note()
        """
    )
    graph = project_callgraph(proj)
    assert graph.attr_type("Service", "_stats") == "Stats"
    info = graph.lookup("svc.py", "Service.record")
    edges = graph.callees(info.ref)
    assert [edge.callee.qualname for edge in edges] == ["Stats.note"]
    assert not edges[0].via_self  # different instance: never a same-lock proof


# --- RP-GUARD -----------------------------------------------------------------

def test_guard_rule_flags_access_outside_lock():
    proj = project(
        src__repro__counter="""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._hits += 1

            def peek(self):
                return self._hits
        """
    )
    findings = rule_findings(GuardedByRule(), proj)
    assert len(findings) == 1
    assert "Counter._hits accessed without holding" in findings[0].message
    assert "self._lock" in findings[0].message


def test_guard_rule_proves_helper_called_under_lock():
    proj = project(
        src__repro__counter="""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self._advance()

            def _advance(self):
                self._hits += 1
        """
    )
    assert rule_findings(GuardedByRule(), proj) == []


def test_guard_rule_never_proves_public_methods():
    proj = project(
        src__repro__counter="""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.advance()

            def advance(self):
                self._hits += 1
        """
    )
    findings = rule_findings(GuardedByRule(), proj)
    assert len(findings) == 1
    assert "Counter._hits" in findings[0].message


def test_guard_rule_flags_stale_guarded_by_comment():
    proj = project(
        src__repro__counter="""
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._hits = 0  # guarded-by: _missing
        """
    )
    findings = rule_findings(GuardedByRule(), proj)
    assert len(findings) == 1
    assert "not a lock attribute" in findings[0].message


# --- RP-LOCKORDER -------------------------------------------------------------

def test_lockorder_flags_cycle_and_unsanctioned_edges():
    proj = project(
        src__repro__pair="""
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
        """
    )
    messages = [f.message for f in rule_findings(LockOrderRule(), proj)]
    assert any("Pair._a -> Pair._b" in m for m in messages)
    assert any("Pair._b -> Pair._a" in m for m in messages)
    assert any("lock acquisition cycle" in m for m in messages)


def test_lockorder_flags_interprocedural_edge():
    proj = project(
        src__repro__nested="""
        import threading

        class Inner:
            def __init__(self):
                self._lock = threading.Lock()

            def note(self):
                with self._lock:
                    pass

        class Outer:
            def __init__(self):
                self._lock = threading.Lock()
                self._inner = Inner()

            def submit(self):
                with self._lock:
                    self._inner.note()
        """
    )
    findings = rule_findings(LockOrderRule(), proj)
    assert len(findings) == 1
    assert "Outer._lock -> Inner._lock" in findings[0].message
    assert "via Inner.note" in findings[0].message


def test_lockorder_accepts_sanctioned_edge_names():
    # The same shape as the live tree's one sanctioned edge: admission
    # bookkeeping (ServiceStats._lock) inside the admission lock.
    proj = project(
        src__repro__svc="""
        import threading

        class ServiceStats:
            def __init__(self):
                self._lock = threading.Lock()

            def note(self):
                with self._lock:
                    pass

        class QueryService:
            def __init__(self):
                self._lock = threading.Lock()
                self._stats = ServiceStats()

            def submit(self):
                with self._lock:
                    self._stats.note()
        """
    )
    assert rule_findings(LockOrderRule(), proj) == []


def test_lockorder_flags_nonreentrant_reacquisition():
    proj = project(
        src__repro__relock="""
        import threading

        class Relock:
            def __init__(self):
                self._lock = threading.Lock()
                self._rlock = threading.RLock()

            def bad(self):
                with self._lock:
                    with self._lock:
                        pass

            def fine(self):
                with self._rlock:
                    with self._rlock:
                        pass
        """
    )
    findings = rule_findings(LockOrderRule(), proj)
    assert len(findings) == 1
    assert "guaranteed deadlock" in findings[0].message


def test_sanctioned_lock_order_is_acyclic():
    assert _find_cycle(set(LOCK_ORDER)) is None


# --- RP-HOLD ------------------------------------------------------------------

def test_hold_rule_flags_blocking_queue_put_under_lock():
    proj = project(
        src__repro__pump="""
        import queue
        import threading

        class Pump:
            def __init__(self):
                self._lock = threading.Lock()
                self._queue = queue.Queue()

            def push(self, item):
                with self._lock:
                    self._queue.put(item)

            def push_fast(self, item):
                with self._lock:
                    self._queue.put_nowait(item)

            def pull(self):
                with self._lock:
                    return self._queue.get(timeout=0.5)
        """
    )
    findings = rule_findings(HoldWhileBlockingRule(), proj)
    assert len(findings) == 1
    assert "queue .put() without a timeout" in findings[0].message
    assert "Pump._lock" in findings[0].message


def test_hold_rule_follows_call_graph_to_blocking_op():
    proj = project(
        src__repro__pump="""
        import threading
        import time

        class Pump:
            def __init__(self):
                self._lock = threading.Lock()

            def drain(self):
                with self._lock:
                    self._settle()

            def _settle(self):
                time.sleep(0.1)
        """
    )
    findings = rule_findings(HoldWhileBlockingRule(), proj)
    assert len(findings) == 1
    assert "call to Pump._settle" in findings[0].message
    assert "reaches blocking time.sleep()" in findings[0].message


def test_hold_rule_condition_wait_releases_its_own_lock():
    proj = project(
        src__repro__gatelike="""
        import threading

        class GateLike:
            def __init__(self):
                self._cond = threading.Condition()

            def wait_turn(self):
                with self._cond:
                    self._cond.wait()
        """
    )
    assert rule_findings(HoldWhileBlockingRule(), proj) == []


def test_hold_rule_condition_wait_still_blocks_other_locks():
    proj = project(
        src__repro__gatelike="""
        import threading

        class TwoLocks:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition()

            def bad_wait(self):
                with self._lock:
                    with self._cond:
                        self._cond.wait()
        """
    )
    findings = rule_findings(HoldWhileBlockingRule(), proj)
    assert len(findings) == 1
    assert ".wait() without a timeout" in findings[0].message
    assert "TwoLocks._lock" in findings[0].message
    assert "TwoLocks._cond" not in findings[0].message  # released by wait()


# --- RP-YIELD -----------------------------------------------------------------

def test_yield_rule_flags_yield_under_lock_only():
    proj = project(
        src__repro__streamer="""
        import threading

        class Streamer:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def stream(self):
                with self._lock:
                    for item in self._items:
                        yield item

            def stream_snapshot(self):
                with self._lock:
                    snapshot = list(self._items)
                for item in snapshot:
                    yield item

            def make_gen(self):
                with self._lock:
                    def gen():
                        yield 1
                    return gen
        """
    )
    findings = rule_findings(YieldUnderLockRule(), proj)
    assert len(findings) == 1
    assert "yield while holding Streamer._lock" in findings[0].message


# --- suppressions -------------------------------------------------------------

def test_suppression_on_exact_line_silences_the_rule():
    proj = project(
        src__repro__evaluation__budget="""
        import time

        def stamp():
            return time.time()  # repro: ignore[RP-MONO]
        """
    )
    result = run_rules(proj, default_rules())
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["RP-MONO"]


def test_suppression_on_wrong_line_does_not_silence():
    proj = project(
        src__repro__evaluation__budget="""
        import time

        # repro: ignore[RP-MONO]
        def stamp():
            return time.time()
        """
    )
    result = run_rules(proj, default_rules())
    assert [f.rule for f in result.findings] == ["RP-MONO"]


def test_suppression_with_unknown_rule_id_is_a_finding():
    proj = project(
        src__repro__evaluation__budget="""
        x = 1  # repro: ignore[RP-NOPE]
        """
    )
    result = run_rules(proj, default_rules())
    assert [f.rule for f in result.findings] == ["RP-SUPPRESS"]
    assert "RP-NOPE" in result.findings[0].message


def test_docstring_mentioning_suppression_syntax_is_inert():
    proj = project(
        src__repro__evaluation__budget='''
        """Docs may show `# repro: ignore[RP-NOPE]` without activating it."""
        '''
    )
    assert run_rules(proj, default_rules()).findings == []


def test_syntax_error_becomes_parse_finding():
    proj = project(src__repro__evaluation__budget="def broken(:\n")
    result = run_rules(proj, default_rules())
    assert [f.rule for f in result.findings] == ["RP-PARSE"]


# --- baseline machinery (through the CLI driver) ------------------------------

@pytest.fixture
def fake_repo(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return tmp_path


def baseline_entry():
    return {
        "rule": "RP-MONO",
        "path": "src/repro/clock.py",
        "message": "time.time() is wall clock; deadline/budget code "
        "must use time.monotonic()",
        "rationale": "historic wall-clock stamp kept for log compatibility",
    }


def write_baseline(root, entries):
    (root / "analysis-baseline.json").write_text(json.dumps({"entries": entries}))


def test_runner_reports_findings_and_exit_code(fake_repo, capsys):
    assert lint_main(["--root", str(fake_repo)]) == 1
    out = capsys.readouterr().out
    assert "RP-MONO" in out and "src/repro/clock.py:5" in out


def test_runner_baselined_finding_passes(fake_repo):
    write_baseline(fake_repo, [baseline_entry()])
    assert lint_main(["--root", str(fake_repo)]) == 0


def test_runner_reports_stale_baseline_entry(fake_repo, capsys):
    entry = baseline_entry()
    entry["message"] = "a finding that never fires"
    write_baseline(fake_repo, [baseline_entry(), entry])
    assert lint_main(["--root", str(fake_repo)]) == 1
    assert "stale baseline entry" in capsys.readouterr().err


def test_runner_requires_baseline_rationale(fake_repo, capsys):
    entry = baseline_entry()
    entry["rationale"] = "   "
    write_baseline(fake_repo, [entry])
    assert lint_main(["--root", str(fake_repo)]) == 1
    assert "no rationale" in capsys.readouterr().err


def test_runner_github_format(fake_repo, capsys):
    assert lint_main(["--root", str(fake_repo), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=src/repro/clock.py,line=5,title=RP-MONO::" in out


def test_runner_rules_filter_selects_rules(fake_repo):
    assert lint_main(["--root", str(fake_repo), "--rules", "RP-TICK"]) == 0
    assert lint_main(["--root", str(fake_repo), "--rules", "RP-MONO"]) == 1


def test_runner_unknown_rule_id_is_usage_error(fake_repo, capsys):
    assert lint_main(["--root", str(fake_repo), "--rules", "RP-NOPE"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_runner_partial_run_skips_stale_baseline_check(fake_repo):
    stale = baseline_entry()
    stale["message"] = "a finding that never fires"
    write_baseline(fake_repo, [baseline_entry(), stale])
    assert lint_main(["--root", str(fake_repo)]) == 1  # full run: stale fails
    assert lint_main(["--root", str(fake_repo), "--rules", "RP-MONO"]) == 0


def test_runner_timings_prints_per_rule(fake_repo, capsys):
    lint_main(["--root", str(fake_repo), "--timings", "--rules", "RP-MONO"])
    assert "timing: RP-MONO:" in capsys.readouterr().err


def test_runner_changed_filters_findings_by_git_diff(fake_repo, capsys):
    subprocess.run(["git", "init", "-q"], cwd=fake_repo, check=True)
    subprocess.run(["git", "add", "."], cwd=fake_repo, check=True)
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", "commit", "-qm", "seed"],
        cwd=fake_repo,
        check=True,
    )
    # nothing changed since the commit -> the RP-MONO finding is filtered out
    assert lint_main(["--root", str(fake_repo), "--changed"]) == 0
    clock = fake_repo / "src" / "repro" / "clock.py"
    clock.write_text(clock.read_text() + "\n# touched\n")
    assert lint_main(["--root", str(fake_repo), "--changed"]) == 1
    out = capsys.readouterr()
    assert "changed-files filter" in out.err
    assert "RP-MONO" in out.out


# --- the live tree ------------------------------------------------------------

def test_live_tree_is_clean(capsys):
    """`python -m repro.analysis` on the real src/repro: no new findings."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    assert lint_main(["--root", str(root)]) == 0, capsys.readouterr().out


def test_registry_ids_are_unique_and_prefixed():
    registry = rule_registry()
    assert len(registry) >= 12
    assert all(rule_id.startswith("RP-") for rule_id in registry)
    rules = default_rules()
    assert len({rule.id for rule in rules}) == len(rules)


def test_cli_lint_subcommand_dispatches():
    from repro.cli import main as cli_main
    from pathlib import Path
    import os

    cwd = os.getcwd()
    root = Path(__file__).resolve().parent.parent
    try:
        os.chdir(root)
        assert cli_main(["lint"]) == 0
    finally:
        os.chdir(cwd)


def test_finding_formats():
    finding = Finding(path="src/repro/x.py", line=3, rule="RP-MONO", message="a :: b\nc")
    assert finding.format_text() == "src/repro/x.py:3: RP-MONO: a :: b\nc"
    assert finding.format_github() == "::error file=src/repro/x.py,line=3,title=RP-MONO::a : b c"
