#!/usr/bin/env python3
"""Social-network workload: OPTIONAL-heavy queries over a synthetic FOAF graph.

This is the motivating scenario for the OPTIONAL operator: contact data is
incomplete, so queries ask for friends *and, when available*, their email /
phone / city.  The example evaluates three well-designed queries over a
synthetic small-world network, compares the exact natural algorithm with the
Theorem 1 pebble algorithm, and reports their width measures.

Run with::

    python examples/social_network.py [num_people]
"""

import sys
import time

from repro import Engine, parse_pattern, to_text
from repro.rdf.generators import social_network_graph
from repro.rdf.namespace import FOAF
from repro.width import domination_width_of_pattern, local_width_of_pattern


def queries() -> dict:
    """Three well-designed AND/OPT/UNION queries over the FOAF vocabulary."""
    knows, mbox, phone, based = FOAF.knows.value, FOAF.mbox.value, FOAF.phone.value, FOAF.basedNear.value
    return {
        "friends+email": parse_pattern(f"((?x <{knows}> ?y) OPT (?y <{mbox}> ?e))"),
        "friends+email+phone": parse_pattern(
            f"(((?x <{knows}> ?y) OPT (?y <{mbox}> ?e)) OPT (?y <{phone}> ?t))"
        ),
        "reachable-or-colocated": parse_pattern(
            f"((?x <{knows}> ?y) OPT (?y <{mbox}> ?e))"
            f" UNION ((?x <{based}> ?c) AND (?y <{based}> ?c))"
        ),
    }


def main(num_people: int = 40) -> None:
    graph = social_network_graph(num_people, seed=7)
    print(f"social network: {num_people} people, {len(graph)} triples\n")

    for name, pattern in queries().items():
        engine = Engine(pattern)
        start = time.perf_counter()
        solutions = engine.solutions(graph, method="natural")
        enumerate_time = time.perf_counter() - start

        sample = sorted(solutions, key=repr)[:5]
        start = time.perf_counter()
        natural = [engine.contains(graph, mu, method="natural") for mu in sample]
        natural_time = time.perf_counter() - start
        start = time.perf_counter()
        pebble = [engine.contains(graph, mu, method="pebble", width=1) for mu in sample]
        pebble_time = time.perf_counter() - start

        print(f"query '{name}':  {to_text(pattern)}")
        print(f"  domination width: {domination_width_of_pattern(pattern)}"
              f"   local width: {local_width_of_pattern(pattern)}")
        print(f"  solutions: {len(solutions)}  (enumerated in {enumerate_time:.3f}s)")
        print(f"  membership on {len(sample)} sampled solutions: "
              f"natural {natural_time:.3f}s, pebble {pebble_time:.3f}s, "
              f"agreement: {natural == pebble}")
        print()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
