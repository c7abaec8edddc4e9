"""The repository benchmark: ``repro serve`` over its socket, four seeded workloads.

Run from the repository root::

    python bench/run.py                                  # every workload, seed 17
    python bench/run.py --workload fk-membership --seed 3 --seconds 10 --trace 0
    python bench/run.py --trace                          # per-layer numbers
    python bench/run.py --smoke                          # a few dozen requests each
    python bench/run.py --runs 10 --seed 1 --record bench/results/SHA-1.json

Each workload starts the real CLI server (``python -m repro serve GRAPH``,
CLI defaults) as a subprocess on a generated N-Triples file, replays a
warm-up, then drives the measured window from this one process over at most
two connections.  End-to-end metrics are measured with tracing off.  With
``--trace`` the window runs twice: once untraced, for the numbers the server
reports on the wire (``elapsed_ms``, the ``stats`` counters), and once with
the server started through ``bench/tracer.py``, for per-layer self times.
After the window a seeded sample of responses is re-evaluated in process by
a fresh ``Session`` with the exact natural strategy; a wrong answer fails
the run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every answer checked is right and no request failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / "work"
TRACES = BENCH / "traces"

WORKLOADS = ("social-read", "social-write", "fk-membership", "powerlaw-scan")
DEFAULT_SEED = 17
DEFAULT_SECONDS = 10
#: Server starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Responses per run re-evaluated in process.
CHECK_SAMPLE = 100
STARTUP_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
CLIENT_TIMEOUT = 60.0
#: ``--smoke``: requests per window after a short warm-up, one server start.
SMOKE_WARMUP = 20
SMOKE_REQUESTS = 30


@dataclass(frozen=True)
class Metric:
    """A reported metric; ``bound`` is the share of the baseline median by
    which it may worsen before a change counts as a regression."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: End-to-end metrics every workload reports (``BENCHMARK.json``), each
#: bounded.  Only metrics that repeat within their bound across ten seeds
#: on a shared 2-vCPU VM are here; tails are taken at p90, not p95, by the
#: same rule (see bench/README.md).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "req/s", "higher", 0.25),
    Metric("request_p90_ms", "ms", "lower", 0.25),
    Metric("server_rss_mb", "MB", "lower", 0.10),
)
#: Per-operation latencies and the error rate (0 on a healthy run): reported
#: and compared, not in BENCHMARK.json.  Not every workload sends solutions
#: or updates, and the sub-millisecond check latencies of the social and
#: powerlaw workloads follow the VM's short-term speed (the social-read
#: median spread 37% of itself across ten seeds), so none of these
#: latencies carries a bound.
OP_METRICS = (
    Metric("check_p50_ms", "ms", "lower"),
    Metric("check_p90_ms", "ms", "lower"),
    Metric("solutions_p50_ms", "ms", "lower"),
    Metric("solutions_p90_ms", "ms", "lower"),
    Metric("update_p50_ms", "ms", "lower"),
    Metric("update_p90_ms", "ms", "lower"),
    Metric("error_rate", "fraction", "lower", 0.0),
)
#: Per-layer metrics every workload reports (``BENCHMARK.json``): times of
#: layers every request crosses, and counts and ratios, which may read 0.
PER_LAYER = (
    Metric("check.service_p50_ms", "ms", "lower"),
    Metric("check.wire_p50_ms", "ms", "lower"),
    Metric("wire.bytes_per_req", "B", "lower"),
    Metric("cache.hom_hit_rate", "fraction", "higher"),
    Metric("cache.enum_hit_rate", "fraction", "higher"),
    Metric("cache.subtree_hit_rate", "fraction", "higher"),
    Metric("cache.kernel_hit_rate", "fraction", "higher"),
    Metric("cache.pebble_hit_rate", "fraction", "higher"),
    Metric("cache.invalidations", "count", "lower"),
    Metric("cache.evictions", "count", "lower"),
    Metric("service.peak_inflight", "count", "higher"),
    Metric("service.rejected", "count", "lower"),
    Metric("service.deadline_trips", "count", "lower"),
    Metric("session.engines", "count", "lower"),
    Metric("protocol.decode_ms", "ms", "lower"),
    Metric("protocol.encode_ms", "ms", "lower"),
    Metric("service.submit_ms", "ms", "lower"),
    Metric("service.queue_ms", "ms", "lower"),
    Metric("gate.read_wait_ms", "ms", "lower"),
    Metric("session.engine_ms", "ms", "lower"),
    Metric("session.eval_ms", "ms", "lower"),
    Metric("plan.resolve_ms", "ms", "lower"),
    Metric("plan.fresh_share", "fraction", "lower"),
    Metric("cache.self_ms", "ms", "lower"),
    Metric("store.domain_ms", "ms", "lower"),
    Metric("sparql.parses_per_req", "count", "lower"),
    Metric("hom.find_calls", "count", "lower"),
    Metric("kernel.solves_per_req", "count", "lower"),
    Metric("store.rows_per_answer", "count", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
)
#: Per-layer times of layers only some workloads use (exactly 0 on the
#: others); reported and kept in every record, not in BENCHMARK.json.
LAYER_EXTRAS = (
    Metric("solutions.service_p50_ms", "ms", "lower"),
    Metric("solutions.wire_p50_ms", "ms", "lower"),
    Metric("update.service_p50_ms", "ms", "lower"),
    Metric("update.wire_p50_ms", "ms", "lower"),
    Metric("service.chunk_ms", "ms", "lower"),
    Metric("gate.write_wait_ms", "ms", "lower"),
    Metric("gate.write_hold_ms", "ms", "lower"),
    Metric("sparql.parse_ms", "ms", "lower"),
    Metric("hom.find_ms", "ms", "lower"),
    Metric("hom.enumerate_ms", "ms", "lower"),
    Metric("hom.index_build_ms", "ms", "lower"),
    Metric("kernel.build_ms", "ms", "lower"),
    Metric("kernel.solve_ms", "ms", "lower"),
    Metric("store.scan_ms", "ms", "lower"),
    Metric("store.mutate_ms", "ms", "lower"),
)
METRICS = {metric.name: metric for metric in END_TO_END + OP_METRICS + PER_LAYER + LAYER_EXTRAS}

_CACHE_KINDS = ("hom", "enum", "subtree", "kernel", "pebble")


# --- statistics ---------------------------------------------------------------------


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least *fraction*
    of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def digest(solutions: Iterable[Dict[str, str]]) -> str:
    """An order-independent fingerprint of one answer set."""
    rows = sorted(tuple(sorted(solution.items())) for solution in solutions)
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


# --- the server process ---------------------------------------------------------------


class Server:
    """One ``repro serve`` process, timed from spawn to its first ok response.

    With *spans* the server is started through ``bench/tracer.py``, which
    writes its spans to that file on exit.
    """

    def __init__(self, graph: Path, spans: Optional[Path] = None) -> None:
        serve = ["serve", str(graph)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(BENCH / "tracer.py"), str(spans), *serve]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self._buffer = b""
        started = perf_counter()
        with open(WORK / "server.log", "ab") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=env, bufsize=0
            )
        try:
            match = re.search(rb" on ([\d.]+):(\d+) ", self.read_line())
            if match is None:
                raise RuntimeError("repro serve did not report its address")
            self.address = (match.group(1).decode(), int(match.group(2)))
            with Connection(self.address) as control:
                control.call({"op": "stats"})
            self.setup_s = perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def read_line(self, timeout: float = STARTUP_TIMEOUT) -> bytes:
        """The next line the server prints on standard output."""
        deadline = perf_counter() + timeout
        assert self.process.stdout is not None
        while b"\n" not in self._buffer:
            remaining = deadline - perf_counter()
            readable, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not readable:
                raise TimeoutError(f"no output from the server within {timeout:.0f}s")
            chunk = os.read(self.process.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"server exited (code {self.process.poll()}); see {WORK / 'server.log'}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def trace(self, on: bool) -> None:
        """Start or stop the span recording of a server started with *spans*."""
        self.process.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        if self.read_line().strip() != (b"# trace on" if on else b"# trace off"):
            raise RuntimeError("the traced server did not acknowledge the signal")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Connection:
    """One client connection speaking the line-delimited JSON protocol."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._socket = socket.create_connection(address, timeout=CLIENT_TIMEOUT)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")
        self._ids = itertools.count(1)

    def call(self, message: dict) -> Tuple[dict, List[dict], int]:
        """Send one request; return its final line, the streamed solutions
        and the bytes sent plus received."""
        message = dict(message, id=next(self._ids))
        data = (json.dumps(message) + "\n").encode("utf-8")
        self._socket.sendall(data)
        size = len(data)
        solutions: List[dict] = []
        while True:
            raw = self._reader.readline()
            if not raw:
                raise ConnectionError("server closed the connection mid-response")
            size += len(raw)
            line = json.loads(raw)
            if "chunk" in line:
                solutions.extend(line["chunk"])
                continue
            if line.get("id") != message["id"]:
                raise ConnectionError(f"response id {line.get('id')!r} for request {message['id']}")
            return line, solutions, size

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- driving a window -------------------------------------------------------------------


@dataclass
class Sample:
    """One request of a window and what came back."""

    draw: int
    request: object  # workloads.Request
    sent: float
    done: float = 0.0
    due: Optional[float] = None
    ok: bool = False
    elapsed_ms: float = 0.0
    size: int = 0
    result: object = None
    answers: int = 0
    error: Optional[str] = None
    broken: bool = False  # the connection failed; no reply arrived

    @property
    def latency_ms(self) -> float:
        """Client latency; an update is timed from when it was due."""
        start = self.due if self.due is not None else self.sent
        return (self.done - start) * 1000.0


def exchange(connection: Connection, request, draw: int, due: Optional[float] = None) -> Sample:
    sample = Sample(draw, request, perf_counter(), due=due)
    try:
        final, solutions, sample.size = connection.call(request.message())
    except (OSError, ValueError) as error:
        sample.done = perf_counter()
        sample.error = f"{type(error).__name__}: {error}"
        sample.broken = True
        return sample
    sample.done = perf_counter()
    sample.ok = bool(final.get("ok"))
    sample.elapsed_ms = float(final.get("elapsed_ms", 0.0))
    if not sample.ok:
        sample.error = f"{final.get('error_type')}: {final.get('error')}"
    elif request.op == "check":
        sample.result = tuple(final["result"])
        sample.answers = len(sample.result)
    elif request.op == "solutions":
        sample.result = digest(solutions)
        sample.answers = len(solutions)
        if final.get("count") != len(solutions):
            sample.ok, sample.error = False, "solutions count does not match the streamed chunks"
    else:
        sample.result = (final["result"]["added"], final["result"]["removed"])
    return sample


@dataclass
class Window:
    """The samples of one measured window."""

    reads: List[Sample]
    updates: List[Sample]
    wall_s: float
    writer_lag_ms: float

    @property
    def samples(self) -> List[Sample]:
        return self.reads + self.updates


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run each target on its own thread; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as error:  # re-raised below, in the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Load:
    """The client side of one server: the workload's connections and its
    request stream, shared by the warm-up and the measured window."""

    def __init__(self, server: Server, workload) -> None:
        self._workload = workload
        self._requests = workload.reads()
        self._lock = threading.Lock()
        self._drawn = 0
        #: Cache units (see ``Request.units``) sent before the window.
        self.seen: set = set()
        self._readers: List[Connection] = []
        self._writer: Optional[Connection] = None
        try:
            for _ in range(workload.connections):
                self._readers.append(Connection(server.address))
            if workload.updates is not None:
                self._writer = Connection(server.address)
        except BaseException:
            self.close()
            raise

    def _take(self, end: float, cap: int):
        with self._lock:
            if perf_counter() >= end or self._drawn >= cap:
                return None
            self._drawn += 1
            return self._drawn - 1, next(self._requests)

    def _closed_loop(self, connection: Connection, out: List[Sample], end: float, cap: int) -> None:
        while True:
            taken = self._take(end, cap)
            if taken is None:
                return
            sample = exchange(connection, taken[1], taken[0])
            out.append(sample)
            if sample.broken:
                return

    def warm_up(self, count: int) -> None:
        warm: List[Sample] = []
        _run_threads(
            [lambda c=c: self._closed_loop(c, warm, math.inf, count) for c in self._readers]
        )
        failed = [s for s in warm if not s.ok]
        if failed:
            raise RuntimeError(f"warm-up request failed: {failed[0].error}")
        self.seen.update(unit for sample in warm for unit in sample.request.units())

    def measure(self, seconds: float, limit: int) -> Window:
        """Closed-loop reads (and fixed-rate updates) for *seconds* or until
        *limit* more requests were drawn."""
        reads: List[Sample] = []
        updates: List[Sample] = []
        start = perf_counter()
        end = start + seconds
        cap = self._drawn + limit
        lag = [0.0]

        def fixed_rate() -> None:
            for index, request in enumerate(self._workload.updates()):
                due = start + index / self._workload.update_rate
                if due >= end or index >= limit:
                    return
                pause = due - perf_counter()
                if pause > 0:
                    time.sleep(pause)
                lag[0] = max(lag[0], (perf_counter() - due) * 1000.0)
                updates.append(exchange(self._writer, request, index, due=due))
                if updates[-1].broken:
                    return

        targets = [lambda c=c: self._closed_loop(c, reads, end, cap) for c in self._readers]
        if self._writer is not None:
            targets.append(fixed_rate)
        _run_threads(targets)
        wall = max((s.done for s in reads), default=end) - start
        reads.sort(key=lambda s: s.draw)
        return Window(reads, updates, wall, lag[0])

    def close(self) -> None:
        for connection in self._readers + ([self._writer] if self._writer else []):
            connection.close()

    def __enter__(self) -> "Load":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- answers and metrics ----------------------------------------------------------------


def wrong_answers(workload, samples: Sequence[Sample], seed: int) -> int:
    """Re-evaluate a seeded sample of answered reads with a fresh in-process
    Session using the exact natural strategy; check every update's counts."""
    from repro.evaluation.session import Session
    from repro.sparql.mappings import Mapping
    from repro.sparql.parser import parse_pattern

    reads = [s for s in samples if s.ok and s.request.op in ("check", "solutions")]
    if len(reads) > CHECK_SAMPLE:
        reads = random.Random(seed).sample(reads, CHECK_SAMPLE)
    session = Session()
    patterns: Dict[str, object] = {}
    wrong = 0
    for sample in reads:
        request = sample.request
        if request.query not in patterns:
            patterns[request.query] = parse_pattern(request.query)
        pattern = patterns[request.query]
        if request.op == "check":
            mappings = [Mapping.of(**dict(binding)) for binding in request.bindings]
            expected: object = tuple(
                session.check_many(pattern, workload.graph, mappings, method="natural")
            )
        else:
            answers = session.solutions(pattern, workload.graph, method="natural")
            expected = digest({var.name: term.value for var, term in mu.items()} for mu in answers)
        wrong += expected != sample.result
    for sample in samples:
        if sample.ok and sample.request.op == "update":
            wrong += sample.result != (len(sample.request.add), len(sample.request.remove))
    return wrong


def end_to_end(window: Window, setup: Sequence[float], rss_mb: float) -> Dict[str, float]:
    answered = [s for s in window.samples if s.ok]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_rps": len(window.reads) / window.wall_s,
        "request_p90_ms": percentile((s.latency_ms for s in answered), 0.90),
        "server_rss_mb": rss_mb,
    }
    for op in ("check", "solutions", "update"):
        latencies = [s.latency_ms for s in answered if s.request.op == op]
        if latencies:
            metrics[f"{op}_p50_ms"] = percentile(latencies, 0.50)
            metrics[f"{op}_p90_ms"] = percentile(latencies, 0.90)
    return metrics


def wire_metrics(window: Window, before: dict, after: dict) -> Dict[str, float]:
    """Per-layer numbers the untraced server reports: ``elapsed_ms`` on each
    final line and the ``stats`` counters, as deltas across the window."""
    answered = [s for s in window.samples if s.ok]
    metrics: Dict[str, float] = {}
    for op in ("check", "solutions", "update"):
        mine = [s for s in answered if s.request.op == op]
        if mine:
            metrics[f"{op}.service_p50_ms"] = percentile((s.elapsed_ms for s in mine), 0.50)
            metrics[f"{op}.wire_p50_ms"] = percentile(
                ((s.done - s.sent) * 1000.0 - s.elapsed_ms for s in mine), 0.50
            )
    metrics["wire.bytes_per_req"] = sum(s.size for s in answered) / max(1, len(answered))
    old, new = before["cache"], after["cache"]
    for kind in _CACHE_KINDS:
        hits = new[f"{kind}_hits"] - old[f"{kind}_hits"]
        lookups = hits + new[f"{kind}_misses"] - old[f"{kind}_misses"]
        metrics[f"cache.{kind}_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["cache.invalidations"] = new["invalidations"] - old["invalidations"]
    metrics["cache.evictions"] = new["evictions"] - old["evictions"]
    metrics["service.peak_inflight"] = after["peak_inflight"]
    metrics["service.rejected"] = after["rejected_overload"] - before["rejected_overload"]
    metrics["service.deadline_trips"] = after["deadline_trips"] - before["deadline_trips"]
    metrics["session.engines"] = after["engines"]
    return metrics


def properties(workload, window: Window, seen: set) -> dict:
    """Workload properties of one window (``repeat_share`` counts the cache
    units already sent earlier in the run, warm-up included)."""
    seen = set(seen)
    units = repeated = 0
    for sample in window.reads:
        for unit in sample.request.units():
            units += 1
            repeated += unit in seen
            seen.add(unit)
    counts = {
        f"{op}_samples": sum(s.ok and s.request.op == op for s in window.samples)
        for op in ("check", "solutions", "update")
    }
    return {
        "triples": len(workload.graph),
        "query_texts": len({s.request.query for s in window.reads}),
        "repeat_share": repeated / units if units else 0.0,
        "updates_sent": len(window.updates),
        "writer_lag_ms": window.writer_lag_ms,
        **counts,
    }


def _stats(control: Connection) -> dict:
    return control.call({"op": "stats"})[0]["result"]


def _strategy(control: Connection, workload) -> Optional[str]:
    """The strategy the server's planner picks for the workload's checks."""
    if workload.strategy is None:
        return None
    request = next(workload.reads())
    message = {"op": "explain", "query": request.query, "width": request.width}
    text = control.call(message)[0].get("result") or ""
    match = re.search(r"chosen strategy\s*:\s*(\w+)", text)
    return match.group(1) if match else None


# --- one run ------------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload: the record the report and the result line use."""
    import workloads
    from repro.rdf.io import save_graph

    workload = workloads.build(name, seed)
    warmup, limit = (SMOKE_WARMUP, SMOKE_REQUESTS) if smoke else (workloads.WARMUP_REQUESTS, 10**9)
    starts = 1 if smoke or trace else SETUP_STARTS
    graph = WORK / f"{name}-{seed}.nt"
    save_graph(workload.graph, graph)
    try:
        return _measure(workload, graph, seed, seconds, trace, warmup, limit, starts)
    finally:
        graph.unlink()


def _measure(
    workload, graph: Path, seed: int, seconds: float, trace: bool, warmup: int, limit: int, starts: int
) -> dict:
    name = workload.name
    setup: List[float] = []
    for _ in range(starts - 1):
        with Server(graph) as server:
            setup.append(server.setup_s)
    with Server(graph) as server, Connection(server.address) as control, Load(server, workload) as load:
        setup.append(server.setup_s)
        load.warm_up(warmup)
        before = _stats(control)
        window = load.measure(seconds, limit)
        after = _stats(control)
        rss_mb = server.peak_rss_mb()
        strategy = _strategy(control, workload)
    samples = window.samples
    props = properties(workload, window, load.seen)
    props["check_strategy"] = strategy
    wrong_strategy = workload.strategy is not None and strategy != workload.strategy

    if trace:
        metrics = wire_metrics(window, before, after)
        # One file per workload, overwritten by its next traced run: a
        # social-write trace holds some 200k spans (about 40 MB).
        spans_path = TRACES / f"{name}.jsonl"
        with Server(graph, spans=spans_path) as server, Load(server, workload) as load:
            load.warm_up(warmup)
            server.trace(True)
            traced = load.measure(seconds, limit)
            server.trace(False)
        answers = sum(s.answers for s in traced.samples if s.ok)
        spans = tracer.read_spans(str(spans_path))
        metrics.update(tracer.layer_metrics(spans, len(traced.samples), answers))
        untraced_rps = len(window.reads) / window.wall_s
        metrics["trace.overhead_pct"] = (1.0 - len(traced.reads) / traced.wall_s / untraced_rps) * 100.0
        props["spans"] = len(spans)
        props["spans_file"] = str(spans_path.relative_to(ROOT))
        samples = samples + traced.samples
    else:
        metrics = end_to_end(window, setup, rss_mb)

    wrong = wrong_answers(workload, samples, seed)
    failed = sum(not s.ok for s in samples) + wrong + wrong_strategy
    if not trace:
        metrics["error_rate"] = failed / len(samples)
    errors = sorted({s.error for s in samples if s.error})
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "wrong_answers": wrong,
        "errors": errors[:5],
        "metrics": {k: {"value": v, "unit": METRICS[k].unit} for k, v in metrics.items()},
        "properties": props,
    }


# --- reporting ----------------------------------------------------------------------------


def report(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}, {record['seconds']:g}s window, {mode}")
    for name, metric in record["metrics"].items():
        print(f"   {name:26} {metric['value']:14.4f} {metric['unit']}")
    props = ", ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in record["properties"].items()
    )
    print(f"   workload: {props}")
    print(
        f"   answers: {record['attempted']} attempted, {record['failed']} failed, "
        f"{record['wrong_answers']} wrong in the checked sample"
    )
    for error in record["errors"]:
        print(f"   error: {error}")
    sys.stdout.flush()


def result_line(records: Sequence[dict], trace: bool, single: bool) -> dict:
    """The final JSON line: BENCHMARK.json's metrics for the mode."""
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    metrics: Dict[str, dict] = {}
    for record in records:
        for name in names:
            key = name if single else f"{record['workload']}/{record['seed']}/{name}"
            metrics[key] = record["metrics"][name]
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def write_record(path: Path, records: Sequence[dict], seeds: Sequence[int], args) -> None:
    """A result set: the runs plus what produced them, and its run table."""
    document = {
        "sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": list(seeds),
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {
            m.name: {"unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END + OP_METRICS
        },
        "runs": list(records),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    metric_names = sorted({k for r in records for k in r["metrics"]})
    prop_names = sorted({k for r in records for k in r["properties"]})
    with open(path.with_suffix(".csv"), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["__run_id", "__done", "workload", "seed", "correct", "attempted", "failed"]
            + metric_names
            + prop_names
        )
        for index, r in enumerate(records):
            writer.writerow(
                [f"run_{index}_{r['workload']}_seed_{r['seed']}", "DONE", r["workload"], r["seed"]]
                + [r["correct"], r["attempted"], r["failed"]]
                + [r["metrics"].get(k, {}).get("value", "") for k in metric_names]
                + [r["properties"].get(k, "") for k in prop_names]
            )


# --- command line ---------------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured window")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from an untraced and a traced window",
    )
    parser.add_argument("--smoke", action="store_true", help="a few dozen requests per workload")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds SEED, SEED+1, ...")
    parser.add_argument("--record", type=Path, help="write the runs as a result set (JSON + CSV)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    TRACES.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [args.seed + i for i in range(args.runs)]
    records = []
    for name in names:
        for seed in seeds:
            record = run_workload(name, seed, args.seconds, bool(args.trace), args.smoke)
            report(record)
            records.append(record)
    if args.record is not None:
        write_record(args.record, records, seeds, args)
    single = len(names) == 1 and len(seeds) == 1
    print(json.dumps(result_line(records, bool(args.trace), single)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
