"""The four seeded workloads of the repository benchmark.

A workload is a data graph (served from a generated N-Triples file), a
closed-loop request stream and, for ``social-write``, a fixed-rate update
stream.  Everything is derived from the seed: the same seed gives the same
graph and the same request sequence, and the server sees only the generated
file and the request lines.  ``bench/README.md`` says why each workload was
chosen and which layer it stresses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.generators import power_law_graph
from repro.rdf.graph import RDFGraph
from repro.rdf.namespace import EX
from repro.rdf.triples import Triple
from repro.sparql.parser import to_text
from repro.workloads.families import fk_data_graph, fk_pattern

#: Requests every connection set replays before the measured window opens.
WARMUP_REQUESTS = 200

#: The catalogue of ``benchmarks/bench_service_load.py``: repeated ad-hoc
#: queries over one live social graph.
SOCIAL_QUERIES = (
    "((?x knows ?y) OPT (?y email ?e))",
    "((?x knows ?y) AND (?y knows ?z))",
    "(?x knows ?y)",
    "((?x knows ?y) OPT ((?y knows ?z) OPT (?z email ?e)))",
)
SOCIAL_PEOPLE = 200
#: Knows-edges the social reads draw their mappings from.  The warm-up sweeps
#: every (query, mapping) pair of this pool, so the window replays from cache.
SOCIAL_POOL = 128
#: Updates per second of the social-write writer connection.
UPDATE_RATE = 10.0

#: The paper's F_4 (Figure 2); dw(F_k) = 1 by Example 5.
FK_QUERY = to_text(fk_pattern(4))
FK_WIDTH = 1

_P = EX.term("p").value
_Q = EX.term("q").value
_R = EX.term("r").value
POWERLAW_CHECK_QUERY = f"((?x {_P} ?y) OPT ((?y {_Q} ?z) OPT (?z {_R} ?w)))"
POWERLAW_ANCHORS = 1000
#: Anchors are drawn from nodes with this many distinct p-successors, so one
#: solutions request is a short range scan, never a hub's thousands of rows.
POWERLAW_ANCHOR_DEGREE = (2, 64)

Binding = Tuple[Tuple[str, str], ...]
Wire = Tuple[str, str, str]


class PoolExhausted(RuntimeError):
    """A no-repeat workload needed more distinct mappings than its graph has."""


@dataclass(frozen=True)
class Request:
    """One request of a workload, in the form the protocol sends it."""

    op: str
    query: Optional[str] = None
    bindings: Tuple[Binding, ...] = ()
    width: Optional[int] = None
    add: Tuple[Wire, ...] = ()
    remove: Tuple[Wire, ...] = ()

    def message(self) -> dict:
        """The protocol message (without the ``id`` the client assigns)."""
        message: dict = {"op": self.op}
        if self.query is not None:
            message["query"] = self.query
        if self.bindings:
            message["bindings"] = [dict(binding) for binding in self.bindings]
        if self.width is not None:
            message["width"] = self.width
        if self.op == "update":
            message["add"] = [list(triple) for triple in self.add]
            message["remove"] = [list(triple) for triple in self.remove]
        return message

    def units(self) -> List[Tuple[str, Binding]]:
        """What a cache could replay: (query, mapping) pairs of a check, the
        query text of a solutions request."""
        if self.op == "check":
            return [(self.query or "", binding) for binding in self.bindings]
        if self.op == "solutions":
            return [(self.query or "", ())]
        return []


@dataclass(frozen=True)
class Workload:
    """A workload instance for one seed.

    ``reads`` and ``updates`` are factories: every server started in a run
    replays a fresh stream from the start, so the untraced and traced
    windows of one run send the same requests.
    """

    name: str
    graph: RDFGraph
    connections: int
    reads: Callable[[], Iterator[Request]]
    updates: Optional[Callable[[], Iterator[Request]]] = None
    update_rate: float = 0.0
    #: The strategy the server's planner must pick for the checks, if the
    #: workload exists to exercise one.
    strategy: Optional[str] = None


def _binding(**values: str) -> Binding:
    return tuple(sorted(values.items()))


def _edges(graph: RDFGraph, predicate: str) -> List[Binding]:
    """Every ``predicate``-edge as an ``{x, y}`` mapping, in a fixed order."""
    pairs = sorted(
        (t.subject.value, t.object.value)  # type: ignore[union-attr]
        for t in graph
        if t.predicate.value == predicate  # type: ignore[union-attr]
    )
    return [_binding(x=s, y=o) for s, o in pairs]


def _check(query: str, bindings: Sequence[Binding], width: Optional[int] = None) -> Request:
    return Request("check", query, tuple(bindings), width)


def _blocks(rng: random.Random, kinds: List) -> Iterator:
    """Endless seeded shuffles of *kinds*.

    Every block holds each kind exactly as often as *kinds* lists it, so the
    request mix of a window does not drift with the seed the way independent
    draws would.
    """
    while True:
        block = list(kinds)
        rng.shuffle(block)
        yield from block


# --- social-read / social-write ----------------------------------------------------


def social_graph(seed: int, people: int = SOCIAL_PEOPLE) -> RDFGraph:
    """A knows-ring plus ``people / 2`` chords and ``0.4 * people`` emails.

    The seed places the chords and emails but never changes their number,
    so every seed serves a graph of the same size and similar answer sets.
    """
    rng = random.Random(seed)
    triples = {Triple.of(f"p{i}", "knows", f"p{(i + 1) % people}") for i in range(people)}
    while len(triples) < people + people // 2:
        triples.add(Triple.of(f"p{rng.randrange(people)}", "knows", f"p{rng.randrange(people)}"))
    for i in sorted(rng.sample(range(people), 2 * people // 5)):
        triples.add(Triple.of(f"p{i}", "email", f"mailto:p{i}@example.org"))
    return RDFGraph.from_triples(sorted(triples, key=repr))


def _social_reads(seed: int, edges: List[Binding]) -> Iterator[Request]:
    rng = random.Random(seed)
    pool = rng.sample(edges, min(SOCIAL_POOL, len(edges)))
    # The sweep fits inside the warm-up (4 x 32 + 4 = 132 < 200 requests).
    for query in SOCIAL_QUERIES:
        for start in range(0, len(pool), 4):
            yield _check(query, pool[start : start + 4])
        yield Request("solutions", query)
    kinds = [("check", q) for q in SOCIAL_QUERIES] * 7 + [("solutions", q) for q in SOCIAL_QUERIES] * 3
    for op, query in _blocks(rng, kinds):
        yield _check(query, rng.sample(pool, 4)) if op == "check" else Request("solutions", query)


def _tag_updates(seed: int) -> Iterator[Request]:
    """Each update replaces the previous ``tag`` triple; no query reads
    ``tag``, so answers stay fixed while every update bumps the version."""
    rng = random.Random(seed)
    previous: Tuple[Wire, ...] = ()
    for i in itertools.count():
        triple = (f"p{rng.randrange(SOCIAL_PEOPLE)}", "tag", f"t{i}")
        yield Request("update", add=(triple,), remove=previous)
        previous = (triple,)


# --- fk-membership -------------------------------------------------------------------


def _fk_reads(seed: int, edges: List[Binding]) -> Iterator[Request]:
    order = list(edges)
    random.Random(seed).shuffle(order)
    for start in range(0, len(order) - 1, 2):
        yield _check(FK_QUERY, order[start : start + 2], width=FK_WIDTH)
    raise PoolExhausted(f"fk-membership used all {len(order)} distinct p-edge mappings")


# --- powerlaw-scan -------------------------------------------------------------------


def anchor_query(anchor: str) -> str:
    """The solutions text of one powerlaw anchor: a p-scan plus a q-probe."""
    return f"(({anchor} {_P} ?y) OPT (?y {_Q} {anchor}))"


def _powerlaw_anchors(graph: RDFGraph, seed: int) -> List[str]:
    successors: Dict[str, int] = {}
    for triple in graph:
        if triple.predicate.value == _P:  # type: ignore[union-attr]
            subject = triple.subject.value  # type: ignore[union-attr]
            successors[subject] = successors.get(subject, 0) + 1
    low, high = POWERLAW_ANCHOR_DEGREE
    eligible = sorted(node for node, degree in successors.items() if low <= degree <= high)
    if len(eligible) < POWERLAW_ANCHORS:
        raise PoolExhausted(f"powerlaw-scan has only {len(eligible)} eligible anchors")
    return random.Random(seed).sample(eligible, POWERLAW_ANCHORS)


def _powerlaw_reads(seed: int, edges: List[Binding], anchors: List[str]) -> Iterator[Request]:
    rng = random.Random(seed)
    order = list(edges)
    rng.shuffle(order)
    position = 0
    for op in _blocks(rng, ["check"] * 7 + ["solutions"] * 3):
        if op == "check":
            if position + 6 > len(order):
                raise PoolExhausted(
                    f"powerlaw-scan used all {len(order)} distinct p-edge mappings"
                )
            yield _check(POWERLAW_CHECK_QUERY, order[position : position + 6])
            position += 6
        else:
            yield Request("solutions", anchor_query(rng.choice(anchors)))


# --- the registry ------------------------------------------------------------------


def build(name: str, seed: int) -> Workload:
    """The workload *name* for *seed* (graph generated now, streams lazily)."""
    if name in ("social-read", "social-write"):
        graph = social_graph(seed)
        edges = _edges(graph, "knows")
        reads = lambda: _social_reads(seed, edges)
        if name == "social-read":
            return Workload(name, graph, 2, reads)
        return Workload(name, graph, 1, reads, lambda: _tag_updates(seed), UPDATE_RATE)
    if name == "fk-membership":
        graph = fk_data_graph(2000, 16000, clique_size=4, seed=seed)
        edges = _edges(graph, _P)
        return Workload(name, graph, 1, lambda: _fk_reads(seed, edges), strategy="pebble")
    if name == "powerlaw-scan":
        graph = power_law_graph(10**4, 10**5, exponent=1.1, seed=seed)
        edges = _edges(graph, _P)
        anchors = _powerlaw_anchors(graph, seed)
        return Workload(name, graph, 2, lambda: _powerlaw_reads(seed, edges, anchors))
    raise KeyError(f"unknown workload {name!r}; expected one of {list(WHY)}")


#: One sentence per workload on why it is in the benchmark (BENCHMARK.json).
WHY = {
    "social-read": "read-only traffic whose working set fits the cache, so every "
    "answer replays and all time is the serving path",
    "social-write": "the same reads beside a 10/s writer, so every update resets "
    "the version-keyed caches and queues at the writer-priority gate",
    "fk-membership": "the paper's F_4 with declared width 1 and no repeated mapping, "
    "so each check runs the Theorem 1 pebble relaxation in the kernel",
    "powerlaw-scan": "a 61.7k-triple Zipf graph loaded from N-Triples, fresh mappings and "
    "ad-hoc texts over 1000 anchors, so time goes to store scans, parsing and planning",
}
