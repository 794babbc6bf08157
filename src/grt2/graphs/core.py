"""Graph containers, admissibility checks and the interchange format."""

from __future__ import annotations

from ..poly import _SparsePoly
from ..theta import _check_int, _parse_int


class Graph:
    """An unoriented graph with a linear order on its edges.

    ``ext`` flags which vertices are external; external vertices keep
    their index under relabeling, internal ones are interchangeable.
    Edges are stored as (min, max) pairs; their position in the tuple is
    the edge order.  Graphs are immutable, and equal and hashed by
    ``(n, ext, edges)`` within one exact type.

    ``_search`` holds the result of the labeling search on this graph
    once :mod:`grt2.graphs.canon` has stored it, else None; it dies with
    the graph and takes no part in equality, hashing or the repr.
    """

    __slots__ = ("n", "ext", "edges", "_search")

    def __init__(self, n, ext, edges):
        _check_int("n", n)
        if len(ext) != n:
            raise ValueError("ext flags must cover every vertex")
        norm = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError("edge endpoints must be ints: %r" % ((u, v),))
            if u == v:
                raise ValueError("simple loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            norm.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ext", tuple(ext))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_search", None)

    def __setattr__(self, name, value):
        raise AttributeError("%s instances are immutable"
                             % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n == other.n and self.ext == other.ext
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.ext, self.edges))

    def __repr__(self):
        return "%s(n=%r, ext=%r, edges=%r)" % (
            type(self).__name__, self.n, self.ext, self.edges)

    @property
    def num_edges(self):
        return len(self.edges)

    def valences(self):
        out = [0] * self.n
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out

    def incident_edges(self, v):
        return [i for i, (u, w) in enumerate(self.edges) if v in (u, w)]

    def incidence(self):
        """The edge positions at every vertex, in edge order; one pass
        instead of one ``incident_edges`` scan per vertex.
        """
        out = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            out[u].append(i)
            out[v].append(i)
        return out

    def internal_vertices(self):
        return [v for v in range(self.n) if not self.ext[v]]

    def has_double_edge(self):
        return len(set(self.edges)) < len(self.edges)

    def is_connected(self):
        return components(self, (False,) * self.n)[2] <= 1

    def is_internally_connected(self):
        return components(self, self.ext)[2] <= 1


def components(g, skip):
    """Union-find over the subgraph left when every vertex v with
    ``skip[v]`` true is deleted; ``components(g, g.ext)`` labels the
    internal part.

    Returns the component root of every kept vertex (None for the
    others), the number of edges between kept vertices and the number
    of components.
    """
    root = [None if skip[v] else v for v in range(g.n)]

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    inner = 0
    count = g.n - root.count(None)
    for u, v in g.edges:
        if root[u] is None or root[v] is None:
            continue
        inner += 1
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            count -= 1
    return ([None if r is None else find(v) for v, r in enumerate(root)],
            inner, count)


def icg_check(g):
    """Raise ValueError naming the violated admissibility condition of an
    internally connected graph with external vertices; return g if fine.
    """
    if not any(g.ext):
        raise ValueError("inadmissible: no external vertex")
    if g.has_double_edge():
        raise ValueError("inadmissible: double edge")
    vals = g.valences()
    for v in g.internal_vertices():
        if vals[v] < 3:
            raise ValueError(
                "inadmissible: internal vertex %d has valence %d < 3"
                % (v, vals[v]))
    if not g.is_internally_connected():
        raise ValueError("inadmissible: not internally connected")
    if g.internal_vertices() and not g.is_connected():
        raise ValueError("inadmissible: internal part not joined to an "
                         "external vertex")
    return g


def gc2_check(g):
    """Admissibility for the connected graph complex: no external
    vertices, everything at least trivalent, connected.  Double edges are
    allowed here; they die under canonicalization.
    """
    if any(g.ext):
        raise ValueError("inadmissible: external vertex in a closed graph")
    vals = g.valences()
    for v in range(g.n):
        if vals[v] < 3:
            raise ValueError(
                "inadmissible: vertex %d has valence %d < 3" % (v, vals[v]))
    if not g.is_connected():
        raise ValueError("inadmissible: not connected")
    return g


def gc2_degree(g):
    """-2 - #edges + 2 #vertices."""
    return -2 - g.num_edges + 2 * g.n


class GraphClass(Graph):
    """A canonical representative of a graph modulo internal relabeling
    and edge reordering, built by ``canonicalize`` from normalized edges,
    so the constructor checks nothing.  Graph operations take it as it
    is; it never equals a raw Graph with the same edges, so its type
    marks it as canonical.  ``search`` is the result of the labeling
    search on the class, which ``canonicalize`` reads off the search it
    ran, so a class is never searched itself.
    """

    __slots__ = ()

    def __init__(self, n, ext, edges, search=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_search", search)

    def sort_key(self):
        return (self.n, self.ext, self.edges)


class GraphSum(_SparsePoly):
    """A finite rational linear combination of graph classes, with the
    exact coefficients and the arithmetic of the polynomial sums but no
    product.
    """

    __slots__ = ()
    # the base's own method, bound here because perfbench/tracer.py
    # wraps the __add__ it finds in this class's namespace
    __add__ = _SparsePoly.__add__

    def restrict(self, predicate):
        """Sub-sum of the terms whose class satisfies the predicate."""
        return GraphSum(
            {k: v for k, v in self.terms.items() if predicate(k)})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "GraphSum(0)"
        return "GraphSum(%d classes)" % len(self.terms)


def graph_to_text(g):
    """Line-oriented interchange form; the edge rank is the edge order."""
    lines = ["V %d E %d" % (g.n, g.num_edges)]
    for v in range(g.n):
        lines.append("v %d %s" % (v, "ext" if g.ext[v] else "int"))
    for rank, (u, v) in enumerate(g.edges):
        lines.append("e %d %d %d" % (rank, u, v))
    return "\n".join(lines) + "\n"


def _text_ints(tokens, line):
    try:
        return [_parse_int(t) for t in tokens]
    except ValueError:
        raise ValueError("expected integers in line %r" % line) from None


def graph_from_text(text):
    """Inverse of :func:`graph_to_text`.  Raises ValueError, naming the
    offending line, on a malformed header, a short or unknown line, an
    out-of-range vertex index, edge rank or endpoint, a simple loop, or
    a repeated vertex or edge rank (so there can be no more edge lines
    than the header declares); and, naming the vertex or rank, when a
    vertex or edge line is missing.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("V "):
        raise ValueError("graph text must start with a 'V <n> E <m>' header")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "V" or head[2] != "E":
        raise ValueError("malformed header: %r" % lines[0])
    n, m = _text_ints((head[1], head[3]), lines[0])
    if n < 0 or m < 0:
        raise ValueError("negative count in header: %r" % lines[0])
    ext = [None] * n
    edges = [None] * m
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "v":
            if len(parts) != 3:
                raise ValueError("vertex line must read 'v <index> ext|int': "
                                 "%r" % ln)
            (idx,) = _text_ints(parts[1:2], ln)
            if not 0 <= idx < n:
                raise ValueError("vertex index %d out of range in %r"
                                 % (idx, ln))
            if parts[2] not in ("ext", "int"):
                raise ValueError("vertex flag must be ext or int: %r" % ln)
            if ext[idx] is not None:
                raise ValueError("vertex %d given twice, again in %r"
                                 % (idx, ln))
            ext[idx] = parts[2] == "ext"
        elif parts[0] == "e":
            if len(parts) != 4:
                raise ValueError("edge line must read 'e <rank> <u> <v>': "
                                 "%r" % ln)
            rank, u, v = _text_ints(parts[1:], ln)
            if not 0 <= rank < m:
                raise ValueError("edge rank %d out of range in %r"
                                 % (rank, ln))
            if edges[rank] is not None:
                raise ValueError("edge rank %d given twice, again in %r"
                                 % (rank, ln))
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range in %r" % ln)
            if u == v:
                raise ValueError("edge is a simple loop in %r" % ln)
            edges[rank] = (u, v)
        else:
            raise ValueError("unknown line: %r" % ln)
    for idx, flag in enumerate(ext):
        if flag is None:
            raise ValueError("vertex %d has no 'v <index> ext|int' line"
                             % idx)
    for rank, edge in enumerate(edges):
        if edge is None:
            raise ValueError("edge rank %d has no 'e <rank> <u> <v>' line"
                             % rank)
    return Graph(n, tuple(ext), tuple(edges))
