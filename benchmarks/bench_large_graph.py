#!/usr/bin/env python3
"""Large-graph substrate throughput: columnar bulk loads, scans and indexes.

The claim behind the interned columnar triple store (:mod:`repro.rdf.graph`):
the substrate must load and query graphs in the 10^5–10^6 triple range at
in-memory speeds, and the sorted-column representation must make

* **bulk loads** (:meth:`RDFGraph.from_triples`) decisively faster than
  feeding the same triples through the incremental per-``add`` path — one
  sort per permutation instead of repeated buffer merges;
* **target-index construction** over a graph
  (:func:`~repro.hom.homomorphism.target_index`) a near-free copy of the
  graph's sorted runs instead of indexing the materialised triple set from
  scratch (:class:`~repro.hom.homomorphism.TargetIndex` over a frozenset:
  every term interned again, three runs sorted) — this is the cost the
  evaluation cache pays again after *every* graph mutation;

while answering membership probes, pattern scans and index joins with the
exact same results as the retained hash-indexed
:class:`~repro.rdf.reference.ReferenceRDFGraph` (checked here on every run).

The workload is a power-law graph (Zipf endpoints — a few heavy hubs, a long
sparse tail), the degree profile of real RDF data sets and the stress case
for range scans.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_large_graph.py [--smoke]

``--smoke`` loads 10^5 distinct triples (the CI tier); the default run loads
10^6.  Either way it prints a throughput table, **asserts** the acceptance
criteria — at least :data:`REQUIRED_TRIPLES` distinct triples loaded, bulk
load at least :data:`REQUIRED_BULK_SPEEDUP` x the incremental per-add rate,
graph-snapshot index build at least :data:`REQUIRED_INDEX_SPEEDUP` x the
triple-set index build, with identical query answers — and writes a machine-readable
perf record to ``BENCH_large_graph.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from itertools import accumulate, islice
from typing import List, Tuple

from repro.hom.homomorphism import TargetIndex, target_index
from repro.rdf.graph import RDFGraph
from repro.rdf.namespace import EX
from repro.rdf.reference import ReferenceRDFGraph
from repro.rdf.terms import IRI, Variable
from repro.rdf.triples import Triple, TriplePattern

#: Minimum number of distinct triples the benchmark graph must contain.
REQUIRED_TRIPLES = 100_000
#: Minimum bulk-load speedup over the incremental per-``add`` rate.
REQUIRED_BULK_SPEEDUP = 1.5
#: Minimum graph-snapshot-over-triple-set target-index build speedup.
REQUIRED_INDEX_SPEEDUP = 5.0
#: Zipf exponent of the endpoint distribution (1.1 ~ web-like degree skew).
ZIPF_EXPONENT = 1.1
#: Per-add baselines are timed on at most this many triples (rates compare).
BASELINE_CAP = 100_000
#: Membership probes per store (half present, half absent).
PROBES = 2_000
#: Index-join bindings enumerated per index for the latency row.
JOIN_LIMIT = 50_000


def power_law_triples(num_triples: int, num_nodes: int, seed: int) -> List[Triple]:
    """Exactly *num_triples* **distinct** Zipf-endpoint triples in a
    deterministic order (duplicate draws are dropped; extra batches are
    drawn until the target is met)."""
    rng = random.Random(seed)
    nodes = [EX.term(f"node{i}") for i in range(num_nodes)]
    preds = [EX.term(p) for p in ("p", "q", "r")]
    cum_weights = list(accumulate((i + 1) ** -ZIPF_EXPONENT for i in range(num_nodes)))
    triples: List[Triple] = []
    seen = set()
    while len(triples) < num_triples:
        batch = max(num_triples - len(triples), 1024)
        subjects = rng.choices(nodes, cum_weights=cum_weights, k=batch)
        objects = rng.choices(nodes, cum_weights=cum_weights, k=batch)
        chosen = rng.choices(preds, k=batch)
        for s, p, o in zip(subjects, chosen, objects):
            t = Triple(s, p, o)
            if t not in seen:
                seen.add(t)
                triples.append(t)
    return triples[:num_triples]


def _best(fn, repeat: int) -> Tuple[float, object]:
    """Minimum wall time of *fn* over *repeat* runs, with its last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(triples: List[Triple], repeat: int, seed: int) -> dict:
    """Time loads, probes, scans and index builds; cross-check every answer
    against the reference store; return the perf record rows."""
    n = len(triples)
    baseline = triples[: min(n, BASELINE_CAP)]

    # --- loads ----------------------------------------------------------
    t_bulk, graph = _best(lambda: RDFGraph.from_triples(triples), repeat)

    def incremental() -> RDFGraph:
        g = RDFGraph()
        for t in baseline:
            g.add(t)
        return g

    t_incr, _ = _best(incremental, repeat)
    t_ref, reference = _best(lambda: ReferenceRDFGraph.from_triples(triples), repeat)
    assert len(graph) == n and len(reference) == n
    bulk_rate = n / t_bulk
    incr_rate = len(baseline) / t_incr
    ref_rate = n / t_ref

    # --- membership probes ---------------------------------------------
    rng = random.Random(seed + 1)
    present = rng.sample(triples, min(PROBES // 2, n))
    absent = [
        Triple(t.object, IRI(str(t.predicate) + "-absent"), t.subject) for t in present
    ]
    probes = present + absent

    def probe(g) -> int:
        return sum(1 for t in probes if t in g)

    t_probe_col, hits_col = _best(lambda: probe(graph), repeat)
    t_probe_ref, hits_ref = _best(lambda: probe(reference), repeat)
    assert hits_col == hits_ref == len(present), "membership answers differ"

    # --- hub range scan -------------------------------------------------
    # node0 carries the most Zipf mass, so this is the longest prefix run.
    hub_pattern = TriplePattern(EX.term("node0"), Variable("hp"), Variable("ho"))
    t_scan_col, scanned_col = _best(
        lambda: sum(1 for _ in graph.matches(hub_pattern)), repeat
    )
    t_scan_ref, scanned_ref = _best(
        lambda: sum(1 for _ in reference.matches(hub_pattern)), repeat
    )
    assert scanned_col == scanned_ref, "hub scan answers differ"
    assert frozenset(graph.matches(hub_pattern)) == frozenset(
        reference.matches(hub_pattern)
    ), "hub scan triples differ"

    # --- target-index build and index join ------------------------------
    frozen = graph.triples()  # materialised outside the timed region
    t_idx_col, columnar_index = _best(lambda: target_index(graph), repeat)
    t_idx_set, set_index = _best(lambda: TargetIndex(frozen), repeat)

    join_pattern = TriplePattern(Variable("x"), EX.term("p"), Variable("y"))

    def join(index) -> int:
        return sum(1 for _ in islice(index.pattern_solutions(join_pattern), JOIN_LIMIT))

    t_join_col, joined_col = _best(lambda: join(columnar_index), repeat)
    t_join_set, joined_set = _best(lambda: join(set_index), repeat)
    assert joined_col == joined_set, "index join answers differ"
    assert joined_col > 0, "index join pattern matched nothing"

    return {
        "triples": n,
        "distinct_terms": len(graph.domain()),
        "bulk_load_triples_per_sec": bulk_rate,
        "incremental_load_triples_per_sec": incr_rate,
        "reference_load_triples_per_sec": ref_rate,
        "bulk_speedup": bulk_rate / incr_rate,
        "bulk_load_ms": t_bulk * 1000.0,
        "membership_probes_per_sec": len(probes) / t_probe_col,
        "reference_probes_per_sec": len(probes) / t_probe_ref,
        "hub_scan_triples": scanned_col,
        "hub_scan_triples_per_sec": scanned_col / t_scan_col if t_scan_col else 0.0,
        "reference_scan_triples_per_sec": scanned_ref / t_scan_ref if t_scan_ref else 0.0,
        "index_build_ms": t_idx_col * 1000.0,
        "triple_set_index_build_ms": t_idx_set * 1000.0,
        "index_build_speedup": t_idx_set / t_idx_col,
        "join_bindings": joined_col,
        "join_bindings_per_sec": joined_col / t_join_col if t_join_col else 0.0,
        "triple_set_join_bindings_per_sec": joined_set / t_join_set if t_join_set else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=1_000_000)
    parser.add_argument(
        "--nodes", type=int, default=None, help="default: triples // 10"
    )
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload: 10^5 triples (still asserts the criteria)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_large_graph.json",
        help="where to write the JSON perf record",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.triples = min(args.triples, REQUIRED_TRIPLES)
    if args.nodes is None:
        args.nodes = max(args.triples // 10, 10)

    triples = power_law_triples(args.triples, args.nodes, args.seed)
    row = run(triples, args.repeat, args.seed)

    columns = list(row)
    width = max(len(c) for c in columns)
    for column in columns:
        print(f"{column.ljust(width)} : {_fmt(row[column])}")

    record = {
        "benchmark": "large_graph",
        "smoke": bool(args.smoke),
        "nodes": args.nodes,
        "zipf_exponent": ZIPF_EXPONENT,
        "required_triples": REQUIRED_TRIPLES,
        "required_bulk_speedup": REQUIRED_BULK_SPEEDUP,
        "required_index_speedup": REQUIRED_INDEX_SPEEDUP,
        **row,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")

    assert row["triples"] >= REQUIRED_TRIPLES, (
        f"workload too small: {row['triples']} < {REQUIRED_TRIPLES} triples"
    )
    assert row["bulk_speedup"] >= REQUIRED_BULK_SPEEDUP, (
        f"bulk load is only {row['bulk_speedup']:.2f}x the incremental rate "
        f"(required: >= {REQUIRED_BULK_SPEEDUP}x)"
    )
    assert row["index_build_speedup"] >= REQUIRED_INDEX_SPEEDUP, (
        f"graph-snapshot index build is only {row['index_build_speedup']:.2f}x the "
        f"triple-set index build (required: >= {REQUIRED_INDEX_SPEEDUP}x)"
    )
    print(
        f"OK: loaded {row['triples']} triples at "
        f"{row['bulk_load_triples_per_sec']:,.0f} triples/s "
        f"({row['bulk_speedup']:.1f}x incremental, >= {REQUIRED_BULK_SPEEDUP}x "
        f"required); index build {row['index_build_speedup']:.1f}x triple set "
        f"(>= {REQUIRED_INDEX_SPEEDUP}x required); all answers match the "
        "reference store."
    )
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
