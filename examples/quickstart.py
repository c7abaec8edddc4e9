#!/usr/bin/env python3
"""Quickstart: build an RDF graph, write well-designed patterns, evaluate them,
and inspect the width measures that govern tractability.

Run with::

    python examples/quickstart.py
"""

from repro import Engine, Mapping, parse_pattern, to_text
from repro.rdf import RDFGraph, Triple
from repro.sparql import is_well_designed
from repro.width import branch_treewidth_of_pattern, domination_width_of_pattern, local_width_of_pattern


def build_graph() -> RDFGraph:
    """A tiny address book: everybody is known, some people have emails."""
    return RDFGraph(
        [
            Triple.of("alice", "knows", "bob"),
            Triple.of("alice", "knows", "carol"),
            Triple.of("bob", "knows", "carol"),
            Triple.of("bob", "email", "mailto:bob@example.org"),
            Triple.of("carol", "phone", "tel:555-0100"),
        ]
    )


def main() -> None:
    graph = build_graph()
    print(f"data graph: {len(graph)} triples")

    # An OPTIONAL query: who does ?x know, and - if available - that person's email.
    pattern = parse_pattern("((?x knows ?y) OPT (?y email ?e))")
    print(f"\nquery: {to_text(pattern)}")
    print(f"well-designed: {is_well_designed(pattern)}")

    engine = Engine(pattern)
    print("\nsolutions (note the OPTIONAL semantics: maximal mappings only):")
    for mapping in sorted(engine.solutions(graph), key=repr):
        print(f"  {mapping}")

    # Membership checks: the paper's wdEVAL problem.  width=1 declares
    # dw(P) <= 1, which lets the polynomial pebble relaxation decide them.
    mu_good = Mapping.of(x="alice", y="carol")
    mu_bad = Mapping.of(x="alice", y="bob")  # not maximal: bob's email exists
    print(f"\nµ = {mu_good} in answers?  {engine.contains(graph, mu_good, width=1)}")
    print(f"µ = {mu_bad} in answers?  {engine.contains(graph, mu_bad, width=1)}")
    agreement = {
        method: engine.contains(graph, mu_good, method=method, width=1)
        for method in ("naive", "natural", "pebble")
    }
    print("per-method agreement:", agreement)

    # The width measures that decide tractability (Theorem 3 of the paper).
    print("\nwidth measures of the query:")
    print(f"  domination width  dw(P) = {domination_width_of_pattern(pattern)}")
    print(f"  branch treewidth  bw(P) = {branch_treewidth_of_pattern(pattern)}")
    print(f"  local width            = {local_width_of_pattern(pattern)}")
    print(
        "\nBounded domination width means the membership checks above run in\n"
        "polynomial time via the existential (k+1)-pebble game (Theorem 1)."
    )


if __name__ == "__main__":
    main()
