"""Operations on graphs: differentials, insertion, filtrations, the
external-marking map and the bridge to the polynomial model.
"""

from __future__ import annotations

from itertools import combinations, product

from ..poly import Poly3
from ..theta import ThetaElement
from .build import theta_graph, wheel
from .canon import automorphisms, canonical_sum, canonicalize
from .core import Graph, GraphSum, components, gc2_degree, icg_check


def internal_loop_count(g):
    """First Betti number of the subgraph on internal vertices."""
    _, inner, count = components(g, g.ext)
    return inner - (g.n - sum(g.ext)) + count


def filtration_value(g):
    """Number of vertices minus the maximal vertex valence."""
    return g.n - max(g.valences())


def is_one_vertex_irreducible(g):
    """Whether the graph stays connected after deleting any one vertex.

    Deleting a vertex from a graph on at most two vertices leaves a
    trivially connected remainder.
    """
    return all(components(g, [u == v for u in range(g.n)])[2] <= 1
               for v in range(g.n))


# -- vertex splitting --------------------------------------------------------


def _split(g, v, moved):
    """Split vertex v, moving the edges at positions ``moved`` to a new
    internal vertex; the connecting edge comes last in the order.
    """
    w = g.n
    edges = list(g.edges)
    for i in moved:
        a, b = edges[i]
        edges[i] = (w, b) if a == v else (a, w)
    edges.append((v, w))
    return Graph(g.n + 1, g.ext + (False,), tuple(edges))


def _moved_sets(g, v):
    """The edge positions each admissible split of vertex v moves, in
    the order ``split_terms`` yields the splits.
    """
    incident = g.incident_edges(v)
    m = len(incident)
    if g.ext[v]:
        for size in range(2, m + 1):
            yield from combinations(incident, size)
    elif m >= 4:
        rest = incident[1:]
        for size in range(2, m - 1):
            yield from combinations(rest, size)


def split_terms(g, v):
    """All admissible ways of splitting one vertex.

    An internal vertex splits into two internal vertices, each keeping
    at least two of the old edges; the two halves give the same graph,
    so the first incident edge is pinned to the original vertex.  An
    external vertex sheds any two or more of its edges onto the new
    internal vertex.
    """
    for moved in _moved_sets(g, v):
        yield _split(g, v, moved)


def icg_differential_raw(g, loop_preserving=True):
    """Vertex-splitting differential of a single labeled graph, as a
    canonicalized sum.  Only internally connected terms count; with
    ``loop_preserving`` the terms whose internal loop count exceeds the
    input's are discarded too.

    Both conditions are read off the input and the moved edges before a
    term is built.  Splitting an internal vertex hangs the new vertex on
    it and keeps the loop count, so it is connected exactly when the
    input's internal part is.  Splitting an external vertex joins the
    new vertex to the internal components that its ``a`` moved internal
    edges reach; with ``c`` of them distinct the term is connected
    exactly when ``c`` is the number of components, and it then has
    ``a - c`` more loops than the input.
    """
    root, _, count = components(g, g.ext)

    def kept():
        for v in range(g.n):
            if not g.ext[v]:
                if count == 1:
                    for moved in _moved_sets(g, v):
                        yield _split(g, v, moved), 1
                continue
            # the component each incident edge leads into, None for an
            # edge to another external vertex
            reach = {}
            for i in g.incident_edges(v):
                x, y = g.edges[i]
                reach[i] = root[y if x == v else x]
            # a kept split moves one edge into each component and, when
            # loops are preserved, no further internal edge; the rest of
            # its at least two edges run to other external vertices
            if loop_preserving and count + sum(
                    r is None for r in reach.values()) < 2:
                continue
            for moved in _moved_sets(g, v):
                hit = [reach[i] for i in moved if reach[i] is not None]
                c = len(set(hit))
                if c == count and not (loop_preserving
                                       and len(hit) != c):
                    yield _split(g, v, moved), 1

    terms = {}
    canonical_sum(kept(), terms)
    return GraphSum(terms)


def _add_scaled(terms, gs, scale):
    """Add scale times the graph sum gs into the dict ``terms``."""
    for cls, coeff in gs.terms.items():
        terms[cls] = terms.get(cls, 0) + scale * coeff


def icg_differential(gs, loop_preserving=True):
    """Linear extension of the splitting differential to graph sums."""
    terms = {}
    for cls, coeff in gs.terms.items():
        _add_scaled(terms, icg_differential_raw(cls.graph, loop_preserving),
                    coeff)
    return GraphSum(terms)


# -- operadic insertion ------------------------------------------------------


def insert_at(g1, j, g2, assignment):
    """Replace vertex j of g1 by g2, reattaching the loose edges to the
    vertices of g2 named by ``assignment`` (one target per loose edge, in
    edge order).  Edges of g1 keep their positions, edges of g2 follow.
    """
    n1, n2 = g1.n, g2.n

    def map1(v):
        return v if v < j else v - 1

    def map2(u):
        return n1 - 1 + u

    loose = g1.incident_edges(j)
    if len(assignment) != len(loose):
        raise ValueError("need one target per loose edge")
    target = dict(zip(loose, assignment))
    edges = []
    for i, (u, v) in enumerate(g1.edges):
        if i in target:
            other = v if u == j else u
            edges.append((map1(other), map2(target[i])))
        else:
            edges.append((map1(u), map1(v)))
    for u, v in g2.edges:
        edges.append((map2(u), map2(v)))
    n = n1 + n2 - 1
    return Graph(n, (False,) * n, tuple(edges))


def pre_lie_raw(g1, g2):
    """Sum over all vertices of g1 and all reattachments of the loose
    edges to vertices of g2, canonicalized.

    Aut(g1) x Aut(g2) acts on the pairs (vertex j, assignment): sigma
    moves j to sigma(j) and each loose edge to its image, tau moves
    each target t to tau(t).  The terms of one orbit are one graph up to
    an edge permutation that is even, because a nonzero class has only
    even automorphisms; so each orbit is canonicalized once, through its
    first pair, with its size as coefficient.  If the class of g1 or g2
    is zero, an odd automorphism pairs the terms off and the sum is zero.
    """
    aut1, aut2 = automorphisms(g1), automorphisms(g2)
    if aut1 is None or aut2 is None:
        return GraphSum()
    loose = [g1.incident_edges(j) for j in range(g1.n)]
    position = {e: i for i, e in enumerate(g1.edges)}
    # moves[k][j][i]: where the i-th loose edge at j lands among the
    # loose edges at aut1[k][j]
    moves = []
    for sigma in aut1:
        edge_image = [position[tuple(sorted((sigma[u], sigma[v])))]
                      for u, v in g1.edges]
        moves.append([[loose[sigma[j]].index(edge_image[e])
                       for e in loose[j]] for j in range(g1.n)])

    def orbit_representatives():
        seen = set()
        for j in range(g1.n):
            for assignment in product(range(g2.n), repeat=len(loose[j])):
                if (j, assignment) in seen:
                    continue
                orbit = set()
                for sigma, move in zip(aut1, moves):
                    for tau in aut2:
                        image = [0] * len(assignment)
                        for i, t in zip(move[j], assignment):
                            image[i] = tau[t]
                        orbit.add((sigma[j], tuple(image)))
                seen |= orbit
                yield insert_at(g1, j, g2, assignment), len(orbit)

    terms = {}
    canonical_sum(orbit_representatives(), terms)
    return GraphSum(terms)


def gc2_bracket(s1, s2):
    """Graded commutator of the insertion product on graph sums."""
    terms = {}
    for c1, a1 in s1.terms.items():
        for c2, a2 in s2.terms.items():
            d1 = gc2_degree(c1.graph)
            d2 = gc2_degree(c2.graph)
            koszul = -1 if (d1 * d2) % 2 else 1
            _add_scaled(terms, pre_lie_raw(c1.graph, c2.graph), a1 * a2)
            _add_scaled(terms, pre_lie_raw(c2.graph, c1.graph),
                        -koszul * a1 * a2)
    return GraphSum(terms)


def wheel_class(spokes):
    """The canonical class of an odd wheel, as a one-term sum."""
    cls, sign = canonicalize(wheel(spokes))
    if cls is None:
        raise AssertionError("odd wheels are nonzero")
    return GraphSum({cls: sign})


def bowtie(a, b):
    """Insert the b-spoke wheel into the hub of the a-spoke wheel, with
    all but the last loose edge landing on the inner hub and the last
    one on a rim vertex (keeping the result one-vertex irreducible).
    """
    g1, g2 = wheel(a), wheel(b)
    loose = g1.incident_edges(0)
    assignment = [0] * (len(loose) - 1) + [1]
    return insert_at(g1, 0, g2, tuple(assignment))


def bowtie_difference(a, b):
    """The difference of the two joined-wheel classes on spokes a and b.

    The orientation (insert the a-wheel into the b-wheel, minus the
    other way around) is pinned so that marking the top-valence vertex
    of this difference is exactly what the splitting differential of the
    haired figure-eight produces next to four times the theta class.
    """
    terms = {}
    if canonical_sum(((bowtie(b, a), 1), (bowtie(a, b), -1)), terms):
        raise AssertionError("bowtie classes are nonzero")
    return GraphSum(terms)


# -- marking a vertex as external -------------------------------------------


def mark_one_external_raw(g):
    """Sum over all vertices of the graph with that vertex flagged
    external; terms violating admissibility are dropped.
    """
    def admissible():
        flags = tuple(i == 0 for i in range(g.n))
        for v in range(g.n):
            def remap(w):
                return 0 if w == v else (w + 1 if w < v else w)

            marked = Graph(g.n, flags,
                           tuple((remap(a), remap(b)) for a, b in g.edges))
            try:
                icg_check(marked)
            except ValueError:
                continue
            yield marked, 1

    terms = {}
    canonical_sum(admissible(), terms)
    return GraphSum(terms)


def mark_one_external(gs):
    terms = {}
    for cls, coeff in gs.terms.items():
        _add_scaled(terms, mark_one_external_raw(cls.graph), coeff)
    return GraphSum(terms)


def two_loop_part(gs):
    """Terms with exactly two internal loops."""
    return gs.restrict(lambda cls: internal_loop_count(cls.graph) == 2)


# -- the bridge between theta graphs and monomials ---------------------------


def _theta_shape(g):
    """Recognize a hairy theta shape; returns (grade, counts).
    Raises ValueError for anything else.  Which junction carries the
    grade-1 hair does not matter: reversing the strands is an
    isomorphism onto the reference layout either way.
    """
    exts = g.external_vertices()
    if len(exts) != 1:
        raise ValueError("theta shapes have exactly one external vertex")
    ext = exts[0]
    internal = set(g.internal_vertices())
    int_adj = {v: [] for v in internal}
    hairs = {v: 0 for v in internal}
    for u, v in g.edges:
        if u in internal and v in internal:
            int_adj[u].append(v)
            int_adj[v].append(u)
        elif u in internal:
            hairs[u] += 1
        elif v in internal:
            hairs[v] += 1
    junctions = sorted(v for v in internal if len(int_adj[v]) == 3)
    if len(junctions) != 2:
        raise ValueError("not a theta shape: need two trivalent junctions")
    a, b = junctions
    for v in internal:
        if v in (a, b):
            if hairs[v] > 1:
                raise ValueError("not a theta shape: junction with two hairs")
        elif len(int_adj[v]) != 2 or hairs[v] != 1:
            raise ValueError("not a theta shape: bad strand vertex")
    counts = []
    seen = {a, b}
    for start in int_adj[a]:
        if start == b:
            counts.append(0)
            continue
        length = 0
        prev, cur = a, start
        while cur != b:
            if cur in seen or len(int_adj[cur]) != 2:
                raise ValueError("not a theta shape: strand leaves the path")
            seen.add(cur)
            length += 1
            nxt = [w for w in int_adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        counts.append(length)
    if len(seen) != len(internal):
        raise ValueError("not a theta shape: stray internal vertices")
    junction_hairs = hairs[a] + hairs[b]
    grade = 2 - junction_hairs
    return grade, tuple(counts)


def theta_graph_encode(g):
    """Read a theta-shaped graph as a coinvariant class.

    The hair counts give the monomial; the sign comes from comparing the
    graph with the reference layout through canonicalization.  A graph
    whose class vanishes encodes to zero.
    """
    grade, counts = _theta_shape(g)
    cls, sign = canonicalize(g, check=True)
    mono = Poly3.monomial(counts)
    if cls is None:
        return ThetaElement(grade, Poly3.zero())
    ref = theta_graph(grade, counts)
    ref_cls, ref_sign = canonicalize(ref, check=False)
    if ref_cls != cls:
        raise AssertionError("reference theta does not match input class")
    return ThetaElement(grade, (sign * ref_sign) * mono)


def theta_sum_encode(gs):
    """Encode a sum of theta-shaped classes, grade by grade."""
    by_grade = {}
    for cls, coeff in gs.terms.items():
        elem = theta_graph_encode(cls.graph)
        grade = elem.grade
        by_grade[grade] = by_grade.get(grade, Poly3.zero()) \
            + elem.value.scale(coeff)
    return {
        grade: ThetaElement(grade, value)
        for grade, value in by_grade.items()
    }


def theta_graph_decode(elem_grade, monomial):
    """The reference graph of a single monomial; inverse of the encoding
    on canonical monomials.
    """
    return theta_graph(elem_grade, monomial)
