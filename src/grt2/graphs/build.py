"""Reference constructions of the named graphs.

The edge orders fixed here are load-bearing: every sign comparison in
the test suite routes through canonicalization against these layouts.
The uniform convention is strand blocks first (hairs interleaved along
each strand) and junction hairs at the end of the order; it makes the
vertex-splitting differential match the polynomial model with the
coefficients +2 and +1 on the nose, with no stray sign.
"""

from __future__ import annotations

from ..theta import _check_grade, _check_int
from .core import Graph


def _strand_block(left, right, vertices, ext):
    """Path left -> right through ``vertices``, a hair to ``ext`` after
    each interior vertex; a bare strand is the single edge (left, right).
    """
    if not vertices:
        return [(left, right)]
    edges = []
    prev = left
    for v in vertices:
        edges.append((prev, v))
        edges.append((v, ext))
        prev = v
    edges.append((prev, right))
    return edges


def theta_graph(grade, counts):
    """Hairy theta graph with one external vertex.

    ``counts`` gives the hair counts of the three main strands; the
    grade says how many junction hairs remain (grade g has 2 - g).  At
    most one strand may be bare, otherwise the junctions acquire a
    double edge.
    """
    _check_grade("grade", grade)
    k1, k2, k3 = counts
    for c in counts:
        _check_int("each hair count", c)
    if min(counts) < 0:
        raise ValueError("hair counts must be non-negative")
    if sum(1 for c in counts if c == 0) > 1:
        raise ValueError("two bare strands would form a double edge")
    ext, left, right = 0, 1, 2
    n = 3
    strands = []
    for c in counts:
        strands.append(list(range(n, n + c)))
        n += c
    edges = []
    for verts in strands:
        edges.extend(_strand_block(left, right, verts, ext))
    if grade == 0:
        edges.append((left, ext))
    if grade in (0, 1):
        edges.append((right, ext))
    flags = tuple(v == ext for v in range(n))
    return Graph(n, flags, tuple(edges))


def theta_shapes(grade, max_weight):
    """Hair counts k1 >= k2 >= k3 of every theta graph of the grade
    with weight at most ``max_weight``, in sorted order.

    The weight counts the strand hairs and the 2 - grade junction
    hairs.  Only k3 may be 0: two bare strands form a double edge.
    """
    _check_grade("grade", grade)
    _check_int("max_weight", max_weight)
    maxdeg = max_weight - (2 - grade)
    return [(k1, k2, k3)
            for k1 in range(1, maxdeg + 1)
            for k2 in range(1, k1 + 1)
            for k3 in range(min(k2, maxdeg - k1 - k2) + 1)]


def figure_eight(c1, c2):
    """Two loops sharing a single five-valent center vertex, every
    vertex haired; the loops carry c1 and c2 interior vertices.

    The center hair sits between the two loop blocks: with this parity
    the vertex-splitting differential carries the graph onto the marked
    bowtie difference plus four times the theta class, without a sign.
    """
    _check_int("c1", c1)
    _check_int("c2", c2)
    if c1 < 2 or c2 < 2:
        raise ValueError("loops need at least two interior vertices")
    ext, center = 0, 1
    n = 2 + c1 + c2
    edges = (_strand_block(center, center, range(2, 2 + c1), ext)
             + [(center, ext)]
             + _strand_block(center, center, range(2 + c1, n), ext))
    flags = tuple(v == ext for v in range(n))
    return Graph(n, flags, tuple(edges))


def wheel(spokes):
    """Hub joined to an odd cycle, the edge order walking around the
    wheel: spoke to a rim vertex, then the rim arc leaving it.

    Even wheels are rejected: a reflection of the rim induces an odd
    edge permutation, so they vanish in the sign quotient.
    """
    _check_int("spokes", spokes)
    if spokes < 3 or spokes % 2 == 0:
        raise ValueError("wheels need an odd number of spokes, at least 3")
    n = spokes + 1
    edges = []
    for i in range(1, n):
        edges.append((0, i))
        edges.append((i, i + 1 if i < spokes else 1))
    return Graph(n, (False,) * n, tuple(edges))
