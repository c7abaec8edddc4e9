"""The query service end to end: differential concurrency, admission
control, deadlines, fault injection, and the socket protocol.

The centrepiece is the differential suite: a seeded mixed workload —
membership checks, enumerations, and *answer-affecting* graph mutations —
runs through a :class:`~repro.service.core.QueryService` at 8 worker
threads, and every response is verified against a fresh serial
:class:`~repro.evaluation.session.Session` on the graph **reconstructed at
the version the response reports**.  The reader/writer gate guarantees
each response is pinned to exactly one ``RDFGraph.version``, and every
update is built to bump the version deterministically, so the concurrent
run is checkable bit-for-bit no matter how the threads interleave.
"""

import json
import multiprocessing
import random
import socket
import threading
import time

import pytest

from repro.evaluation import FaultPlan, Session
from repro.exceptions import (
    DeadlineExceeded,
    ProtocolError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.rdf import IRI, Literal, RDFGraph, Triple
from repro.service import (
    QueryService,
    Request,
    Response,
    ServiceClient,
    ServiceServer,
)
from repro.service.protocol import mapping_to_wire
from repro.sparql import Mapping, parse_pattern

KNOWS_QUERY = "(?x knows ?y)"
OPT_QUERY = "((?x knows ?y) OPT (?y email ?e))"


def social_graph(n=12, removable=8):
    """A knows-ring with emails on even nodes, plus *removable* spare edges
    (``remN knows tgtN``) that the mutation workloads delete."""
    triples = [Triple.of(f"p{i}", "knows", f"p{(i + 1) % n}") for i in range(n)]
    triples += [Triple.of(f"p{i}", "email", f"m{i}") for i in range(0, n, 2)]
    triples += [Triple.of(f"rem{i}", "knows", f"tgt{i}") for i in range(removable)]
    return RDFGraph(triples)


def check_request(deadline=None):
    return Request(
        op="check",
        query=KNOWS_QUERY,
        mappings=[Mapping.of(x="p0", y="p1")],
        deadline=deadline,
    )


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --- in-process basics --------------------------------------------------------


class TestServiceBasics:
    def test_round_trip_all_operations(self):
        graph = social_graph()
        with QueryService(graph) as service:
            assert service.check(KNOWS_QUERY, Mapping.of(x="p0", y="p1")) is True
            assert service.check(KNOWS_QUERY, Mapping.of(x="p0", y="p5")) is False
            verdicts = service.check(
                KNOWS_QUERY,
                [Mapping.of(x=f"p{i}", y=f"p{i + 1}") for i in range(3)],
            )
            assert verdicts == [True, True, True]

            answers = service.solutions(KNOWS_QUERY)
            assert answers == Session().solutions(parse_pattern(KNOWS_QUERY), graph)

            assert "strategy" in service.explain(OPT_QUERY)

            result = service.update(add=[Triple.of("x", "knows", "y")])
            assert result["added"] == 1 and result["removed"] == 0
            assert service.check(KNOWS_QUERY, Mapping.of(x="x", y="y")) is True

            snapshot = service.stats()
            assert snapshot["completed"] == snapshot["ok"] >= 5

    def test_responses_are_version_pinned(self):
        graph = social_graph()
        with QueryService(graph) as service:
            response = service.request(Request(op="solutions", query=KNOWS_QUERY))
            assert response.ok and response.graph_version == graph.version
            update = service.request(
                Request(op="update", add=[Triple.of("x", "knows", "y")])
            )
            assert update.graph_version == graph.version
            assert update.graph_version > response.graph_version

    def test_admission_validation(self):
        graph = social_graph()
        with QueryService(graph) as service:
            with pytest.raises(ServiceError, match="unknown operation"):
                service.submit(Request(op="frobnicate"))
            response = service.request(Request(op="check", query=KNOWS_QUERY))
            assert not response.ok and response.error_type == "ServiceError"
            missing = service.request(
                Request(op="check", graph="nope", query=KNOWS_QUERY,
                        mappings=[Mapping.of(x="p0", y="p1")])
            )
            assert not missing.ok and "unknown graph" in missing.error
        with pytest.raises(ServiceError):
            QueryService({})
        with pytest.raises(ServiceError):
            QueryService(social_graph(), max_inflight=0)

    def test_raise_for_error_falls_back_to_service_error(self):
        bad = Response(op="check", ok=False, error="boom", error_type="NoSuchError")
        with pytest.raises(ServiceError, match="boom"):
            bad.raise_for_error()
        with pytest.raises(DeadlineExceeded):
            Response(
                op="check", ok=False, error="late", error_type="DeadlineExceeded"
            ).raise_for_error()

    def test_solution_chunks_are_deterministic_and_complete(self):
        graph = social_graph()
        with QueryService(graph) as service:
            response = service.request(Request(op="solutions", query=KNOWS_QUERY))
            chunks = list(service.solution_chunks(response, chunk_size=3))
            assert all(len(chunk) <= 3 for chunk in chunks)
            flattened = [mu for chunk in chunks for mu in chunk]
            assert set(flattened) == response.result
            assert flattened == sorted(flattened, key=repr)
            with pytest.raises(ServiceError):
                next(service.solution_chunks(Response(op="check", ok=True)))


# --- the differential concurrency suite ---------------------------------------


class TestDifferentialConcurrency:
    """Seeded mixed workload at 8 threads vs a serial session, verified by
    version-pinned replay (module docstring)."""

    N = 12
    SEED = 20260808

    def build_updates(self):
        """Eight answer-affecting mutations with deterministic version
        deltas: add-only and remove-only bump by one, add+remove by two
        (each triple is unique, so every mutation is always effective)."""
        adds = [Triple.of(f"u{i}", "knows", f"w{i}") for i in range(8)]
        removes = [Triple.of(f"rem{i}", "knows", f"tgt{i}") for i in range(8)]
        updates = []
        for i in range(8):
            if i % 3 == 0:
                updates.append(([adds[i]], []))
            elif i % 3 == 1:
                updates.append(([], [removes[i]]))
            else:
                updates.append(([adds[i]], [removes[i]]))
        return updates

    def build_queries(self, rng):
        """Checks and enumerations whose verdicts depend on which mutations
        have landed: candidates span ring edges, to-be-added edges,
        to-be-removed edges, and never-true bindings."""
        candidates = (
            [Mapping.of(x=f"p{i}", y=f"p{(i + 1) % self.N}") for i in range(self.N)]
            + [Mapping.of(x=f"u{i}", y=f"w{i}") for i in range(8)]
            + [Mapping.of(x=f"rem{i}", y=f"tgt{i}") for i in range(8)]
            + [Mapping.of(x="nobody", y="nowhere")]
        )
        rows = []
        for _ in range(48):
            query = rng.choice([KNOWS_QUERY, KNOWS_QUERY, OPT_QUERY])
            if rng.random() < 0.7:
                rows.append(("check", query, rng.sample(candidates, 4)))
            else:
                rows.append(("solutions", query))
        return rows

    def test_mixed_workload_matches_serial_replay(self):
        rng = random.Random(self.SEED)
        graph = social_graph(self.N)
        base = graph.copy()
        base_version = graph.version

        schedule = self.build_queries(rng) + [
            ("update", add, remove) for add, remove in self.build_updates()
        ]
        rng.shuffle(schedule)

        requests = []
        for row in schedule:
            if row[0] == "check":
                requests.append(Request(op="check", query=row[1], mappings=row[2]))
            elif row[0] == "solutions":
                requests.append(Request(op="solutions", query=row[1]))
            else:
                requests.append(Request(op="update", add=row[1], remove=row[2]))

        with QueryService(
            graph, max_inflight=8, max_pending=len(schedule) + 1
        ) as service:
            # The first two requests wait at a held gate until both are in
            # flight, so the run is concurrent however fast a request is.
            assert service.gate.acquire_write()
            try:
                pendings = [
                    (row, service.submit(request))
                    for row, request in zip(schedule[:2], requests[:2])
                ]
                assert wait_until(lambda: service.stats()["inflight"] == 2)
            finally:
                service.gate.release_write()
            pendings += [
                (row, service.submit(request))
                for row, request in zip(schedule[2:], requests[2:])
            ]
            resolved = [(row, p.result(timeout=120.0)) for row, p in pendings]
            assert service.stats()["peak_inflight"] >= 2

        for _row, response in resolved:
            assert response.ok, f"{response.error_type}: {response.error}"

        # Mutation accounting is deterministic: the gate serializes updates,
        # each one is effective, so final versions are distinct and the
        # sorted log is the one true mutation order.
        update_log = sorted(
            (response.graph_version, row)
            for row, response in resolved
            if row[0] == "update"
        )
        final_versions = [version for version, _row in update_log]
        assert len(set(final_versions)) == len(final_versions) == 8
        assert all(version > base_version for version in final_versions)

        def graph_at(version):
            snapshot = base.copy()
            for final_version, (_op, add, remove) in update_log:
                if final_version > version:
                    break
                for triple in remove:
                    snapshot.discard(triple)
                if add:
                    snapshot.add_all(add)
            assert snapshot.version == version  # replay landed exactly there
            return snapshot

        allowed_versions = {base_version, *final_versions}
        observed = set()
        for row, response in resolved:
            if row[0] == "update":
                continue
            # The gate means no query ever observes a half-applied update.
            assert response.graph_version in allowed_versions
            observed.add(response.graph_version)
            snapshot = graph_at(response.graph_version)
            pattern = parse_pattern(row[1])
            if row[0] == "check":
                reference = Session().check_many(pattern, snapshot, row[2])
            else:
                reference = Session().solutions(pattern, snapshot)
            assert reference == response.result, (
                f"{row[0]} at version {response.graph_version} diverged "
                f"from the serial replay"
            )
        assert len(observed) >= 2, "mutations never interleaved with queries"

    def test_update_replay_reconstruction_is_exact(self):
        """Same workload, stronger cross-check: the final live graph equals
        the replay of the full update log over the base snapshot."""
        graph = social_graph(self.N)
        base = graph.copy()
        updates = self.build_updates()
        with QueryService(graph, max_inflight=8, max_pending=64) as service:
            pendings = [
                service.submit(Request(op="update", add=add, remove=remove))
                for add, remove in updates
            ]
            for pending in pendings:
                assert pending.result(timeout=60.0).ok
        for add, remove in updates:
            for triple in remove:
                base.discard(triple)
            if add:
                base.add_all(add)
        assert set(base) == set(graph)


# --- admission control --------------------------------------------------------


class TestAdmissionControl:
    def test_full_backlog_rejects_with_typed_overload(self):
        graph = social_graph()
        service = QueryService(graph, max_inflight=1, max_pending=1)
        assert service.gate.acquire_write()  # wedge the only worker
        try:
            inflight = service.submit(check_request())
            assert wait_until(lambda: service.stats()["backlog"] == 0)
            queued = service.submit(check_request())  # backlog now full
            with pytest.raises(ServiceOverloadedError) as info:
                service.submit(check_request())
            assert info.value.pending == 1 and info.value.max_pending == 1
            snapshot = service.stats()
            assert snapshot["rejected_overload"] == 1
            assert snapshot["backlog"] == 1 and snapshot["inflight"] == 1
        finally:
            service.gate.release_write()
        assert inflight.result(timeout=30.0).ok
        assert queued.result(timeout=30.0).ok
        service.close()

    def test_rejection_is_immediate_not_queued(self):
        # max_pending=0 admits nothing: rejection happens at submit time,
        # without waiting on workers, the gate, or the queue.
        graph = social_graph()
        service = QueryService(graph, max_inflight=1, max_pending=0)
        assert service.gate.acquire_write()  # workers could not help anyway
        try:
            started = time.monotonic()
            with pytest.raises(ServiceOverloadedError):
                service.submit(check_request())
            assert time.monotonic() - started < 1.0
            assert service.stats()["rejected_overload"] == 1
        finally:
            service.gate.release_write()
        service.close()


# --- deadlines ----------------------------------------------------------------


class TestDeadlines:
    def test_expired_while_queued_resolves_typed_error(self):
        graph = social_graph()
        with QueryService(graph) as service:
            response = service.request(check_request(deadline=0.0), timeout=30.0)
            assert not response.ok and response.error_type == "DeadlineExceeded"
            assert service.stats()["deadline_trips"] == 1
            with pytest.raises(DeadlineExceeded):
                response.raise_for_error()

    def test_convenience_entry_points_raise(self):
        graph = social_graph()
        with QueryService(graph) as service:
            with pytest.raises(DeadlineExceeded):
                service.check(KNOWS_QUERY, Mapping.of(x="p0", y="p1"), deadline=0.0)
            with pytest.raises(DeadlineExceeded):
                service.solutions(KNOWS_QUERY, deadline=0.0)

    def test_write_hold_trips_reader_deadline_at_the_gate(self):
        graph = social_graph()
        service = QueryService(graph, max_inflight=2)
        assert service.gate.acquire_write()
        try:
            response = service.request(check_request(deadline=0.2), timeout=30.0)
            assert not response.ok and response.error_type == "DeadlineExceeded"
            assert "gate" in response.error
        finally:
            service.gate.release_write()
        service.close()

    def test_default_deadline_applies_when_request_has_none(self):
        graph = social_graph()
        service = QueryService(graph, max_inflight=2, default_deadline=0.2)
        assert service.gate.acquire_write()
        try:
            response = service.request(check_request(), timeout=30.0)
            assert not response.ok and response.error_type == "DeadlineExceeded"
        finally:
            service.gate.release_write()
        service.close()


# --- the stats endpoint -------------------------------------------------------


class TestStatsEndpoint:
    def test_stats_operation_reports_counters_and_latency(self):
        graph = social_graph()
        with QueryService(graph) as service:
            service.check(KNOWS_QUERY, Mapping.of(x="p0", y="p1"))
            service.solutions(KNOWS_QUERY)
            service.update(add=[Triple.of("x", "knows", "y")])
            service.request(check_request(deadline=0.0), timeout=30.0)
            response = service.request(Request(op="stats"), timeout=30.0)
            assert response.ok
            snapshot = response.result
            # the in-flight stats request itself is already admitted
            assert snapshot["admitted"] == {
                "check": 2, "solutions": 1, "update": 1, "stats": 1,
            }
            assert snapshot["completed"] == 4 and snapshot["ok"] == 3
            assert snapshot["errors"] == 1
            assert snapshot["error_types"] == {"DeadlineExceeded": 1}
            assert snapshot["deadline_trips"] == 1
            assert snapshot["updates_applied"] == 1
            assert snapshot["triples_added"] == 1
            latency = snapshot["latency"]
            assert latency["all"]["count"] == 4
            assert latency["check"]["p50_ms"] <= latency["check"]["p99_ms"]
            assert snapshot["graphs"]["default"]["triples"] == len(graph)
            assert snapshot["graphs"]["default"]["version"] == graph.version
            assert snapshot["peak_inflight"] >= 1
            assert "hits" in snapshot["cache"] or snapshot["cache"]
            assert isinstance(snapshot["resilience"], str)
            assert snapshot["engines"] == service.session.engine_count


# --- fault injection through the service --------------------------------------


class TestServiceFaultInjection:
    """The PR 7 fault harness pointed at the service: injected faults must
    come back as typed error responses with counters bumped — never hung
    clients, never wrong answers on the unaffected requests."""

    def test_injected_raise_resolves_as_typed_error(self):
        graph = social_graph()
        with QueryService(graph, faults=FaultPlan(raise_at=1)) as service:
            pendings = [service.submit(check_request()) for _ in range(3)]
            responses = [pending.result(timeout=30.0) for pending in pendings]
        by_position = {response.request_id: response for response in responses}
        assert not by_position[1].ok
        assert by_position[1].error_type == "FaultInjected"
        assert by_position[0].ok and by_position[2].ok
        assert by_position[0].result == [True]

    def test_queue_stall_trips_the_deadline_not_the_client(self):
        graph = social_graph()
        plan = FaultPlan(stall_at=0, stall_seconds=0.5)
        with QueryService(graph, max_inflight=1, faults=plan) as service:
            stalled = service.submit(check_request(deadline=0.15))
            healthy = service.submit(check_request())
            first = stalled.result(timeout=30.0)
            second = healthy.result(timeout=30.0)
        assert not first.ok and first.error_type == "DeadlineExceeded"
        assert first.elapsed >= 0.5  # the stall really held the worker
        assert second.ok and second.result == [True]

    def test_mid_run_mutation_probe_moves_the_version_only(self):
        graph = social_graph()
        before = graph.version
        plan = FaultPlan(mutate_graph_at=0)
        with QueryService(graph, faults=plan) as service:
            first = service.request(
                Request(op="solutions", query=KNOWS_QUERY), timeout=30.0
            )
            second = service.request(
                Request(op="solutions", query=KNOWS_QUERY), timeout=30.0
            )
        assert first.ok and second.ok
        # the probe adds and discards one triple: two bumps, same answers
        assert graph.version == before + 2
        assert first.result == second.result
        assert second.result == Session().solutions(parse_pattern(KNOWS_QUERY), graph)

    def test_faulty_responses_are_counted(self):
        graph = social_graph()
        with QueryService(graph, faults=FaultPlan(raise_at=0)) as service:
            response = service.request(check_request(), timeout=30.0)
            assert not response.ok
            snapshot = service.stats()
        assert snapshot["errors"] == 1
        assert snapshot["error_types"] == {"FaultInjected": 1}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool crash recovery needs a POSIX multiprocessing platform",
)
class TestServiceWorkerCrash:
    def test_pool_crash_under_the_service_keeps_verdicts_identical(self):
        graph = social_graph(20)
        mus = [Mapping.of(x=f"p{i}", y=f"p{(i + 1) % 20}") for i in range(20)]
        reference = Session().check_many(parse_pattern(OPT_QUERY), graph, mus)
        session = Session(processes=2, faults=FaultPlan(kill_at=0))
        with QueryService(graph, session=session) as service:
            verdicts = service.check(OPT_QUERY, mus)
        assert verdicts == reference
        assert session.statistics.worker_crashes >= 1
        assert "worker crash" in service.stats()["resilience"]


# --- lifecycle ----------------------------------------------------------------


class TestCloseSemantics:
    def test_close_drains_queued_requests_by_default(self):
        graph = social_graph()
        plan = FaultPlan(stall_at=0, stall_seconds=0.3)
        service = QueryService(graph, max_inflight=1, faults=plan)
        pendings = [service.submit(check_request()) for _ in range(3)]
        service.close()  # drain=True: everything queued still runs
        for pending in pendings:
            response = pending.result(timeout=30.0)
            assert response.ok and response.result == [True]

    def test_close_without_drain_resolves_queued_with_closed_error(self):
        graph = social_graph()
        plan = FaultPlan(stall_at=0, stall_seconds=0.5)
        service = QueryService(graph, max_inflight=1, max_pending=16, faults=plan)
        inflight = service.submit(check_request())
        assert wait_until(lambda: service.stats()["inflight"] == 1)
        queued = [service.submit(check_request()) for _ in range(3)]
        service.close(drain=False)
        assert inflight.result(timeout=30.0).ok  # already running: completes
        for pending in queued:
            response = pending.result(timeout=30.0)
            assert not response.ok
            assert response.error_type == "ServiceClosedError"
        with pytest.raises(ServiceClosedError):
            service.submit(check_request())
        service.close()  # idempotent

    def test_every_pending_resolves_exactly_once(self):
        graph = social_graph()
        service = QueryService(graph, max_inflight=4)
        pendings = [service.submit(check_request()) for _ in range(8)]
        service.close()
        assert all(pending.done() for pending in pendings)


# --- the socket protocol ------------------------------------------------------


@pytest.fixture()
def served():
    """A live server over a fresh service; yields (address, service)."""
    service = QueryService(social_graph(), max_inflight=4)
    server = ServiceServer(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.address, service
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        service.close()


class TestSocketProtocol:
    def test_client_round_trip(self, served):
        (host, port), service = served
        with ServiceClient(host, port) as client:
            assert client.check(KNOWS_QUERY, {"x": "p0", "y": "p1"}) is True
            assert client.check(
                KNOWS_QUERY, [{"x": "p0", "y": "p1"}, {"x": "p0", "y": "p5"}]
            ) == [True, False]

            wire = client.solutions(KNOWS_QUERY, chunk_size=2)
            local = service.solutions(KNOWS_QUERY)
            assert {frozenset(row.items()) for row in wire} == {
                frozenset(mapping_to_wire(mu).items()) for mu in local
            }

            result = client.update(add=[("x", "knows", "y")])
            assert result["added"] == 1
            assert client.check(KNOWS_QUERY, {"x": "x", "y": "y"}) is True

            assert "strategy" in client.explain(OPT_QUERY)
            snapshot = client.stats()
            assert snapshot["completed"] >= 5 and snapshot["graphs"]

    def test_wire_errors_reraise_their_library_types(self, served):
        (host, port), service = served
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="unknown graph"):
                client.check(KNOWS_QUERY, {"x": "p0", "y": "p1"}, graph="nope")
            assert service.gate.acquire_write()
            try:
                with pytest.raises(DeadlineExceeded):
                    client.check(KNOWS_QUERY, {"x": "p0", "y": "p1"}, deadline=0.2)
            finally:
                service.gate.release_write()
            # the connection survived both failures
            assert client.check(KNOWS_QUERY, {"x": "p0", "y": "p1"}) is True

    def test_protocol_error_is_in_band_and_connection_survives(self, served):
        (host, port), _service = served
        with socket.create_connection((host, port), timeout=10.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b"this is not json\n")
            line = json.loads(reader.readline())
            assert line["ok"] is False and line["error_type"] == "ProtocolError"
            conn.sendall(
                json.dumps(
                    {
                        "op": "check",
                        "query": KNOWS_QUERY,
                        "bindings": [{"x": "p0", "y": "p1"}],
                        "id": 7,
                    }
                ).encode()
                + b"\n"
            )
            line = json.loads(reader.readline())
            assert line["ok"] is True and line["result"] == [True]
            assert line["id"] == 7

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "check", "query": KNOWS_QUERY, "bindings": [{"x": ""}]},
            {"op": "check", "query": KNOWS_QUERY, "bindings": [{"": "p0"}]},
            {"op": "update", "add": [["", "", ""]]},
            {"op": "check", "query": KNOWS_QUERY, "width": 0, "method": "pebble"},
        ],
        ids=["empty-value", "empty-variable", "empty-triple", "width-zero"],
    )
    def test_invalid_terms_are_in_band_protocol_errors(self, served, message):
        (host, port), _service = served
        with socket.create_connection((host, port), timeout=10.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(json.dumps(message).encode() + b"\n")
            line = json.loads(reader.readline())
            assert line["ok"] is False and line["error_type"] == "ProtocolError"
            conn.sendall(b'{"op": "stats"}\n')
            line = json.loads(reader.readline())
            assert line["ok"] is True and "completed" in line["result"]

    def test_max_requests_shuts_the_server_down(self):
        service = QueryService(social_graph(), max_inflight=2)
        server = ServiceServer(service, max_requests=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.address
        try:
            with ServiceClient(host, port) as client:
                client.stats()
                client.stats()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert server.requests_served == 2
        finally:
            server.shutdown()
            service.close()

    def test_literals_round_trip_over_the_socket(self):
        integer = IRI("http://www.w3.org/2001/XMLSchema#integer")
        graph = RDFGraph(
            [
                Triple(IRI("alice"), IRI("name"), Literal("Alice", language="en")),
                Triple(IRI("bob"), IRI("name"), Literal('Bob "B" Smith')),
                Triple(IRI("carol"), IRI("name"), Literal("5", datatype=integer)),
            ]
        )
        service = QueryService(graph, max_inflight=2)
        server = ServiceServer(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.address
        query = "(?x name ?n)"
        try:
            with ServiceClient(host, port) as client:
                answers = client.solutions(query)
                assert {row["n"] for row in answers} == {
                    '"Alice"@en',
                    '"Bob \\"B\\" Smith"',
                    '"5"^^<http://www.w3.org/2001/XMLSchema#integer>',
                }
                assert client.check(query, answers) == [True] * 3
                assert client.check(query, {"x": "alice", "n": '"Alice"'}) is False

                dave = ["dave", "name", '"Dave"@de']
                assert client.update(add=[dave])["added"] == 1
                assert {"x": "dave", "n": '"Dave"@de'} in client.solutions(query)
                assert Triple(IRI("dave"), IRI("name"), Literal("Dave", language="de")) in graph

                for malformed in ('"unterminated', '"Alice"@', '"a" trailing', '"\\q"'):
                    with pytest.raises(ProtocolError):
                        client.check(query, {"x": "alice", "n": malformed})
                    with pytest.raises(ProtocolError):
                        client.update(add=[["erin", "name", malformed]])
                assert client.check(query, answers[0]) is True
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            service.close()

    def test_oversized_line_is_rejected(self, served):
        (host, port), _service = served
        with socket.create_connection((host, port), timeout=10.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b'{"op": "check", "pad": "' + b"x" * (17 << 20) + b'"}\n')
            line = json.loads(reader.readline())
            assert line["ok"] is False and line["error_type"] == "ProtocolError"


class TestProtocolUnit:
    def test_decode_rejects_garbage(self):
        from repro.service.protocol import decode_line

        with pytest.raises(ProtocolError):
            decode_line(b"not json")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]")

    def test_request_validation(self):
        from repro.service.protocol import request_from_wire

        with pytest.raises(ProtocolError, match="op"):
            request_from_wire({})
        with pytest.raises(ProtocolError, match="deadline"):
            request_from_wire({"op": "check", "query": KNOWS_QUERY, "deadline": -1})
        with pytest.raises(ProtocolError):
            request_from_wire({"op": "check", "bindings": "not-a-list"})

    def test_mapping_round_trip(self):
        from repro.service.protocol import mapping_from_wire, mapping_to_wire

        mu = Mapping.of(x="p0", y="p1")
        assert mapping_from_wire(mapping_to_wire(mu)) == mu
