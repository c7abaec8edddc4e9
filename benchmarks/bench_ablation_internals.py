"""Ablation benchmarks for the design choices called out in DESIGN.md.

Two internal choices materially affect performance and are therefore
benchmarked in isolation:

* the **arc-consistency fast path** of the existential 2-pebble game versus
  the generic k-consistency fixpoint (the fast path is what makes the
  Theorem 1 evaluator practical, since bounded-dw classes of width 1 are the
  common case);
* the **forward-checking homomorphism search** versus a naive
  generate-and-test baseline (implemented locally here), which is what keeps
  the natural evaluation algorithm and the core computation usable.
"""

from itertools import product

import pytest

from repro.hom import GeneralizedTGraph, TGraph, find_homomorphism
from repro.pebble.game import _winner_generic, _winner_two_pebbles
from repro.rdf.generators import random_graph
from repro.rdf.namespace import EX
from repro.workloads.families import kk_tgraph

EDGE = EX.term("edge").value


def _pebble_inputs(num_vars: int, graph_size: int, seed: int):
    triples = [(f"?v{i}", EDGE, f"?v{i + 1}") for i in range(num_vars - 1)]
    source = GeneralizedTGraph.of(triples, [])
    graph = random_graph(graph_size, graph_size * 4, predicates=("edge",), seed=seed)
    existential = sorted(source.existential_variables(), key=lambda v: v.name)
    domain_values = sorted(graph.domain(), key=str)
    return list(source.triples()), {}, existential, domain_values, graph


@pytest.mark.parametrize("graph_size", [8, 16])
def bench_pebble_fast_path(benchmark, graph_size):
    triples, fixed, existential, domain_values, graph = _pebble_inputs(5, graph_size, seed=1)
    fast = benchmark(
        lambda: _winner_two_pebbles(triples, fixed, existential, domain_values, graph)
    )
    generic = _winner_generic(triples, fixed, existential, domain_values, graph, 2)
    assert fast == generic


@pytest.mark.parametrize("graph_size", [8, 16])
def bench_pebble_generic_fixpoint(benchmark, graph_size):
    triples, fixed, existential, domain_values, graph = _pebble_inputs(5, graph_size, seed=1)
    benchmark.pedantic(
        lambda: _winner_generic(triples, fixed, existential, domain_values, graph, 2),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


def _naive_homomorphism(source: TGraph, graph) -> bool:
    """Generate-and-test baseline: try every total assignment."""
    variables = sorted(source.variables(), key=lambda v: v.name)
    values = sorted(graph.domain(), key=str)
    for assignment in product(values, repeat=len(variables)):
        mapping = dict(zip(variables, assignment))
        if all(t.substitute(mapping) in graph for t in source):
            return True
    return False


@pytest.mark.parametrize("k", [3, 4])
def bench_hom_search_forward_checking(benchmark, k):
    source = TGraph.of(*kk_tgraph(k, predicate=EDGE))
    graph = random_graph(8, 50, predicates=("edge",), seed=k)
    result = benchmark(lambda: find_homomorphism(source, graph) is not None)
    assert result == _naive_homomorphism(source, graph)


@pytest.mark.parametrize("k", [3, 4])
def bench_hom_search_naive_baseline(benchmark, k):
    source = TGraph.of(*kk_tgraph(k, predicate=EDGE))
    graph = random_graph(8, 50, predicates=("edge",), seed=k)
    benchmark.pedantic(lambda: _naive_homomorphism(source, graph), rounds=1, iterations=1, warmup_rounds=0)
