"""Small-graph engine: ordered-edge graphs modulo sign of edge permutations.

Two families of graphs are handled: internally connected graphs with one
external vertex (hairy two-loop graphs and their differentials) and the
connected graph complex with all vertices at least trivalent (wheels,
insertions, the bracket).  Both live in the quotient where reordering
the edges by an odd permutation flips the sign, so a graph with an
automorphism inducing an odd edge permutation is zero.
"""

from .core import Graph, GraphClass, GraphSum, graph_from_text, graph_to_text
from .canon import canonicalize

__all__ = [
    "Graph",
    "GraphClass",
    "GraphSum",
    "canonicalize",
    "graph_from_text",
    "graph_to_text",
]
