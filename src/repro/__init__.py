"""repro — a reproduction of "The Tractability Frontier of Well-designed
SPARQL Queries" (Miguel Romero, PODS 2018).

The library implements the full stack the paper builds on and contributes:

* an RDF substrate (:mod:`repro.rdf`);
* the AND/OPT/UNION SPARQL algebra with well-designedness checking
  (:mod:`repro.sparql`);
* well-designed pattern trees/forests and the ``GtG`` machinery
  (:mod:`repro.patterns`);
* homomorphisms, cores and treewidth (:mod:`repro.hom`);
* the existential k-pebble game (:mod:`repro.pebble`);
* the width measures — domination width, branch treewidth, local width
  (:mod:`repro.width`);
* three evaluation engines, including the Theorem 1 polynomial algorithm
  (:mod:`repro.evaluation`);
* the Theorem 2 hardness reduction from CLIQUE (:mod:`repro.reductions`);
* workload generators for the paper's example families
  (:mod:`repro.workloads`) and an experiment harness
  (:mod:`repro.experiments`).

Quick start::

    from repro import parse_pattern, Engine, Mapping
    from repro.rdf import RDFGraph, Triple

    graph = RDFGraph([Triple.of("alice", "knows", "bob")])
    pattern = parse_pattern("((?x knows ?y) OPT (?y email ?e))")
    engine = Engine(pattern)
    print(engine.solutions(graph))
"""

from .exceptions import (
    ReproError,
    RDFError,
    ParseError,
    NotWellDesignedError,
    PatternTreeError,
    EvaluationError,
    WidthComputationError,
    ReductionError,
)
from .rdf import IRI, Literal, Variable, Triple, TriplePattern, RDFGraph, Namespace
from .sparql import (
    GraphPattern,
    TriplePatternNode,
    And,
    Opt,
    Union,
    tp,
    conj,
    opt_chain,
    union_of,
    Mapping,
    parse_pattern,
    to_text,
    is_well_designed,
    check_well_designed,
)
from .hom import TGraph, GeneralizedTGraph, ctw, tw, core_of, has_homomorphism, maps_to
from .patterns import WDPatternTree, WDPatternForest, build_wdpt, wdpf
from .pebble import ConsistencyKernel, pebble_game_winner
from .width import (
    domination_width,
    domination_width_of_pattern,
    branch_treewidth,
    branch_treewidth_of_pattern,
    local_width,
    local_width_of_pattern,
)
from .evaluation import (
    Engine,
    EvalContext,
    EvaluationCache,
    Plan,
    Planner,
    Session,
    evaluate_pattern,
    forest_contains,
    forest_contains_pebble,
)
from .reductions import clique_reduction, solve_clique_via_wdeval

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "RDFError",
    "ParseError",
    "NotWellDesignedError",
    "PatternTreeError",
    "EvaluationError",
    "WidthComputationError",
    "ReductionError",
    # rdf
    "IRI",
    "Literal",
    "Variable",
    "Triple",
    "TriplePattern",
    "RDFGraph",
    "Namespace",
    # sparql
    "GraphPattern",
    "TriplePatternNode",
    "And",
    "Opt",
    "Union",
    "tp",
    "conj",
    "opt_chain",
    "union_of",
    "Mapping",
    "parse_pattern",
    "to_text",
    "is_well_designed",
    "check_well_designed",
    # hom
    "TGraph",
    "GeneralizedTGraph",
    "ctw",
    "tw",
    "core_of",
    "has_homomorphism",
    "maps_to",
    # patterns
    "WDPatternTree",
    "WDPatternForest",
    "build_wdpt",
    "wdpf",
    # pebble
    "pebble_game_winner",
    "ConsistencyKernel",
    # width
    "domination_width",
    "domination_width_of_pattern",
    "branch_treewidth",
    "branch_treewidth_of_pattern",
    "local_width",
    "local_width_of_pattern",
    # evaluation
    "Engine",
    "Session",
    "Plan",
    "Planner",
    "EvalContext",
    "EvaluationCache",
    "evaluate_pattern",
    "forest_contains",
    "forest_contains_pebble",
    # reductions
    "clique_reduction",
    "solve_clique_via_wdeval",
]
