"""Exact recognition of clique/stable-set defined graph classes.

Bitset graphs, clique/stable-set enumeration, class predicates (CIS and
relatives, split, triangle conditions, equistable via exact rational LP),
line-graph machinery, the 17-property relation table, and exhaustive
small-graph scans -- with a CLI front end (``cisgraphs``).
"""

from .graphs import (
    Graph,
    GraphError,
    complement,
    disjoint_union,
    encode_graph6,
    is_isomorphic,
    join,
    parse_graph,
    parse_graph6,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "complement",
    "disjoint_union",
    "encode_graph6",
    "is_isomorphic",
    "join",
    "parse_graph",
    "parse_graph6",
    "__version__",
]
