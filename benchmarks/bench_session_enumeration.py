#!/usr/bin/env python3
"""Session enumeration throughput: one Session over a query log vs fresh engines.

A production query log repeats its queries heavily.  Enumerating such a log
through one :class:`repro.evaluation.session.Session` — one
``Session.solutions`` call per pattern instance — must beat a loop of fresh,
cache-less :meth:`Engine.solutions` calls by a wide margin, with *identical*
answer sets.

The gain is **cache replay of repeated patterns**: the first enumeration of
a pattern records its answer list in the session cache, and every later
instance of that pattern over the unchanged graph replays it instead of
enumerating again.  (Distinct patterns drawn from the same vocabulary also
share the graph's target index and the homomorphism lists of common root
patterns, a smaller effect; child extensions are searched once per
enumeration and shared with no other pattern.)  The number therefore
measures how much a log's repeats are worth, not a faster enumeration
algorithm.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_session_enumeration.py [--smoke]

It prints a throughput table (pattern instances/second) for

* ``fresh``   — one fresh cache-less ``Engine.solutions`` call per pattern
  instance;
* ``session`` — one ``Session`` looped over the whole log;

It then **asserts** the acceptance criterion — session throughput at least
2x the fresh-engine throughput across >= 10 pattern instances, with
identical answer sets — and writes a machine-readable perf record to
``BENCH_session_enumeration.json``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import time
from typing import List, Tuple

from repro.evaluation import Engine, Session
from repro.patterns import WDPatternForest
from repro.rdf.generators import random_graph
from repro.workloads.random_patterns import random_wd_tree

#: Minimum session-over-fresh speedup the session layer must deliver.
REQUIRED_SPEEDUP = 2.0
#: Minimum workload size the requirement is stated for.
REQUIRED_PATTERNS = 10


def query_log_workload(
    distinct: int,
    repeats: int,
    num_nodes: int,
    graph_nodes: int,
    graph_triples: int,
    seed: int,
) -> Tuple[List[WDPatternForest], object]:
    """A pattern stream of ``distinct`` random wdPTs, each appearing
    ``repeats`` times (interleaved, like a real query log), plus the shared
    data graph they are enumerated against."""
    forests = [
        WDPatternForest([random_wd_tree(num_nodes=num_nodes, seed=seed + i)])
        for i in range(distinct)
    ]
    workload = [forests[i % distinct] for i in range(distinct * repeats)]
    graph = random_graph(graph_nodes, graph_triples, seed=seed)
    return workload, graph


def _best_of(function, repeat: int):
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _canonical(answer_sets) -> bytes:
    """Order-independent byte form of a list of answer sets."""
    return pickle.dumps([sorted(map(repr, answers)) for answers in answer_sets])


def run_benchmark(
    distinct: int = 5,
    repeats: int = 4,
    num_nodes: int = 4,
    graph_nodes: int = 14,
    graph_triples: int = 90,
    seed: int = 23,
    repeat: int = 1,
) -> dict:
    workload, graph = query_log_workload(
        distinct, repeats, num_nodes, graph_nodes, graph_triples, seed
    )

    # Baseline: one fresh, cache-less engine per pattern instance.
    t_fresh, fresh = _best_of(
        lambda: [
            Engine(forest=forest).solutions(graph, method="natural") for forest in workload
        ],
        repeat,
    )

    # A fresh Session per run so the timing includes building the cache.
    def session_loop():
        session = Session()
        return [session.solutions(forest, graph, method="natural") for forest in workload]

    t_session, answers = _best_of(session_loop, repeat)

    assert _canonical(answers) == _canonical(fresh), "session answer sets differ"
    n = len(workload)
    return {
        "patterns": n,
        "distinct": distinct,
        "|G|": len(graph),
        "solutions": sum(len(answer) for answer in fresh),
        "fresh (patterns/s)": n / t_fresh,
        "session (patterns/s)": n / t_session,
        "fresh_seconds": t_fresh,
        "session_seconds": t_session,
        "speedup (session/fresh)": t_fresh / t_session,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _print_table(row: dict) -> None:
    columns = list(row)
    widths = {c: max(len(c), len(_fmt(row[c]))) for c in columns}
    print(" | ".join(c.ljust(widths[c]) for c in columns))
    print("-+-".join("-" * widths[c] for c in columns))
    print(" | ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--distinct", type=int, default=5, help="distinct patterns in the log")
    parser.add_argument("--repeats", type=int, default=4, help="occurrences of each pattern")
    parser.add_argument("--num-nodes", type=int, default=4, help="wdPT nodes per pattern")
    parser.add_argument("--graph-nodes", type=int, default=14)
    parser.add_argument("--graph-triples", type=int, default=90)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--repeat", type=int, default=1, help="timing repetitions (best-of)")
    parser.add_argument(
        "--smoke", action="store_true", help="smaller workload for CI smoke runs"
    )
    parser.add_argument(
        "--record",
        default="BENCH_session_enumeration.json",
        help="where to write the JSON perf record",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.distinct = 4
        args.repeats = 3
        args.graph_nodes = 10
        args.graph_triples = 60

    row = run_benchmark(
        distinct=args.distinct,
        repeats=args.repeats,
        num_nodes=args.num_nodes,
        graph_nodes=args.graph_nodes,
        graph_triples=args.graph_triples,
        seed=args.seed,
        repeat=args.repeat,
    )
    _print_table(row)

    record = {
        "benchmark": "session_enumeration",
        "smoke": bool(args.smoke),
        "required_speedup": REQUIRED_SPEEDUP,
        "required_patterns": REQUIRED_PATTERNS,
        **row,
    }
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.record}")

    assert row["patterns"] >= REQUIRED_PATTERNS, (
        f"workload too small: {row['patterns']} < {REQUIRED_PATTERNS} pattern "
        "instances (increase --distinct/--repeats)"
    )
    speedup = row["speedup (session/fresh)"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"one session is only {speedup:.1f}x the fresh-engine throughput "
        f"(required: >= {REQUIRED_SPEEDUP}x)"
    )
    print(
        f"OK: one session is {speedup:.1f}x fresh engines on {row['patterns']} "
        f"pattern instances ({row['distinct']} distinct; the gain is cache replay "
        f"of repeated patterns, >= {REQUIRED_SPEEDUP}x required), answer sets identical."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
