"""Relational-structure substrate: signatures, structures, Gaifman locality.

This package implements Section 2 of Grohe & Schweikardt (2018): finite
relational signatures and structures, Gaifman graphs, distances, balls,
neighbourhood substructures, and the algebra of expansions, reducts and
disjoint unions the paper's constructions are built from.
"""

from .signature import GRAPH_SIGNATURE, RelationSymbol, Signature
from .structure import Element, Structure, Tup
from .interning import ElementInterner
from .columnar import (
    ColumnarStructure,
    bitset_ids,
    bitset_of,
    intersect_sorted,
    union_sorted,
)
from .gaifman import (
    ball,
    connected_components,
    connectivity_graph,
    distance,
    distances_from,
    induced,
    is_connected,
    is_tuple_connected,
    neighbourhood,
    radius_of_set,
    tuple_components,
    tuple_distance,
)
from .operations import (
    are_isomorphic,
    disjoint_union,
    expansion,
    pin_elements,
    reduct,
    relabel,
)
from .builders import (
    COLOURED_GRAPH_SIGNATURE,
    balanced_tree,
    complete_graph,
    coloured_graph_structure,
    cycle_graph,
    forest_structure,
    graph_structure,
    grid_graph,
    path_graph,
    star_graph,
    string_signature,
    string_structure,
)

__all__ = [
    "GRAPH_SIGNATURE",
    "COLOURED_GRAPH_SIGNATURE",
    "RelationSymbol",
    "Signature",
    "Element",
    "Structure",
    "Tup",
    "ElementInterner",
    "ColumnarStructure",
    "bitset_ids",
    "bitset_of",
    "intersect_sorted",
    "union_sorted",
    "ball",
    "connected_components",
    "connectivity_graph",
    "distance",
    "distances_from",
    "induced",
    "is_connected",
    "is_tuple_connected",
    "neighbourhood",
    "radius_of_set",
    "tuple_components",
    "tuple_distance",
    "are_isomorphic",
    "disjoint_union",
    "expansion",
    "pin_elements",
    "reduct",
    "relabel",
    "balanced_tree",
    "complete_graph",
    "coloured_graph_structure",
    "cycle_graph",
    "forest_structure",
    "graph_structure",
    "grid_graph",
    "path_graph",
    "star_graph",
    "string_signature",
    "string_structure",
]
