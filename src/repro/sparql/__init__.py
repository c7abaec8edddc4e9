"""SPARQL algebra for the AND/OPT/UNION fragment: AST, mappings, parser,
well-designedness."""

from .algebra import (
    GraphPattern,
    TriplePatternNode,
    And,
    Opt,
    Union,
    tp,
    conj,
    opt_chain,
    union_of,
)
from .mappings import Mapping, compatible, merge, join_sets, left_outer_join_sets, union_sets
from .parser import parse_pattern, to_text
from .well_designed import (
    WellDesignedViolation,
    find_violation,
    is_well_designed,
    is_union_free_well_designed,
    check_well_designed,
    union_operands,
)

__all__ = [
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
    "compatible",
    "merge",
    "join_sets",
    "left_outer_join_sets",
    "union_sets",
    "parse_pattern",
    "to_text",
    "WellDesignedViolation",
    "find_violation",
    "is_well_designed",
    "is_union_free_well_designed",
    "check_well_designed",
    "union_operands",
]
