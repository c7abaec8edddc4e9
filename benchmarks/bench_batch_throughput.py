#!/usr/bin/env python3
"""Batch wdEVAL throughput: single-shot vs batched.

The service-layer claim behind :meth:`Session.check_many
<repro.evaluation.session.Session.check_many>`: answering many membership
instances against one graph through the shared
:class:`~repro.evaluation.cache.EvaluationCache` must beat a loop of
independent :meth:`Engine.contains` calls by a wide margin, with *identical*
answers.

The workload is the paper's tree-defined family ``F_k`` (Figure 2) over its
matching synthetic data graph.  The candidate mappings are the classic
partial-solution checks: one mapping ``{?x → a, ?y → b}`` per ``p``-edge
``(a, b)`` of the graph, i.e. exactly the instances whose witness subtree is
the root of ``T1`` and whose child tests include the ``K_k`` clique
extension — the NP-hard step the natural algorithm repeats and the cache
amortises (distinct mappings restrict to few distinct sub-instances).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py

It prints a throughput table (mappings/second) for

* ``single`` — per-call :meth:`Engine.contains`, no cache;
* ``batched`` — :meth:`Session.check_many`, shared cache;

and **asserts** the acceptance criteria: batched throughput at least
:data:`REQUIRED_SPEEDUP` x the single-shot throughput on >= 100 mappings,
with byte-identical answers.

The floor was originally 3x against a single-shot baseline that rebuilt a
hash :class:`~repro.hom.homomorphism.TargetIndex` on every call.  The
columnar substrate (``BENCH_large_graph``) made that per-call index build a
near-free column snapshot, which roughly 2.5x'd the *baseline* while batched
throughput held steady — so the relative floor is restated at 1.8x; both
absolute throughputs are strictly better than before.
"""

from __future__ import annotations

import argparse
import pickle
import time
from typing import Tuple

from repro.evaluation import Engine, Session
from repro.rdf.terms import IRI, Variable
from repro.sparql.mappings import Mapping
from repro.workloads.families import P_PRED, fk_data_graph, fk_forest

#: Minimum batched-over-single speedup the batch layer must deliver (see the
#: module docs for why this moved from 3.0 when the single-shot baseline
#: stopped paying a hash index rebuild per call).
REQUIRED_SPEEDUP = 1.8
#: Minimum workload size the requirement is stated for.
REQUIRED_MAPPINGS = 100


def edge_membership_workload(k: int, nodes: int, triples_per_node: int, seed: int):
    """The ``F_k`` forest, its data graph, and one root-domain mapping per
    ``p``-edge of the graph."""
    forest = fk_forest(k)
    graph = fk_data_graph(nodes, nodes * triples_per_node, clique_size=k, seed=seed)
    p = IRI(P_PRED)
    x, y = Variable("x"), Variable("y")
    mappings = sorted(
        (Mapping({x: t.subject, y: t.object}) for t in graph if t.predicate == p),
        key=repr,
    )
    return forest, graph, mappings


def fresh_session_check_many(forest, graph, mappings, method: str):
    """:meth:`Session.check_many` on a fresh session, so the timing includes
    building the cache."""
    return Session().check_many(forest, graph, mappings, method=method, width=1)


def _best_of(function, repeat: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_throughput(
    k: int = 3,
    nodes: int = 40,
    triples_per_node: int = 8,
    seed: int = 11,
    method: str = "natural",
    repeat: int = 1,
) -> dict:
    """Time both evaluation modes on one workload; returns a result dict."""
    forest, graph, mappings = edge_membership_workload(k, nodes, triples_per_node, seed)
    engine = Engine(forest=forest)

    t_single, single = _best_of(
        lambda: [engine.contains(graph, mu, method=method, width=1) for mu in mappings],
        repeat,
    )
    t_batched, batched = _best_of(
        lambda: fresh_session_check_many(forest, graph, mappings, method), repeat
    )

    assert pickle.dumps(batched) == pickle.dumps(single), "batched answers differ"
    n = len(mappings)
    return {
        "k": k,
        "|G|": len(graph),
        "mappings": n,
        "method": method,
        # The (memoized) plan the engine actually executes per call — for
        # method="auto" this is the cost model's per-cell pick.
        "plan": engine.plan(method, width=1, graph=graph).summary(),
        "positive": sum(single),
        "single (maps/s)": n / t_single,
        "batched (maps/s)": n / t_batched,
        "speedup (batched/single)": t_single / t_batched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=3, help="F_k family parameter")
    parser.add_argument("--nodes", type=int, default=40, help="data graph nodes")
    parser.add_argument("--triples-per-node", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    rows = []
    # "auto" exercises the cost-based planner: it resolves (and memoizes)
    # one plan for this (pattern, graph) cell and the per-call loop pays no
    # further planning cost.
    for method in ("natural", "pebble", "auto"):
        rows.append(
            run_throughput(
                k=args.k,
                nodes=args.nodes,
                triples_per_node=args.triples_per_node,
                seed=args.seed,
                method=method,
                repeat=args.repeat,
            )
        )

    columns = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in columns}
    print(" | ".join(c.ljust(widths[c]) for c in columns))
    print("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        print(" | ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))

    natural = rows[0]
    assert natural["mappings"] >= REQUIRED_MAPPINGS, (
        f"workload too small: {natural['mappings']} < {REQUIRED_MAPPINGS} mappings "
        "(increase --nodes/--triples-per-node)"
    )
    speedup = natural["speedup (batched/single)"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched natural evaluation is only {speedup:.1f}x the single-shot "
        f"throughput (required: >= {REQUIRED_SPEEDUP}x)"
    )
    print(
        f"\nOK: batched natural evaluation is {speedup:.1f}x single-shot on "
        f"{natural['mappings']} mappings (>= {REQUIRED_SPEEDUP}x required), answers identical."
    )
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
