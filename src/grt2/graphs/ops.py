"""Operations on graphs: differentials, insertion, filtrations, the
external-marking map and the encoding of theta graphs in the d0 matrix.
"""

from __future__ import annotations

from itertools import combinations, product

from ..perms import monomial_normal_form
from ..theta import weight_slice_basis
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


def _moved_sets(g, v, incident):
    """The edge positions each admissible split of vertex v moves, in
    the order ``split_terms`` yields the splits; ``incident`` lists the
    positions of the edges at v.
    """
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
    for moved in _moved_sets(g, v, g.incident_edges(v)):
        yield _split(g, v, moved)


def _edge_images(g, aut):
    """For each automorphism, the position each edge moves to."""
    position = {e: i for i, e in enumerate(g.edges)}
    return [[position[tuple(sorted((sigma[u], sigma[v])))]
             for u, v in g.edges] for sigma in aut]


def _orbit_sum(configs, orbit_of, build):
    """Canonicalized sum of ``build(c)`` over the configurations, one
    term per orbit of an automorphism group acting on them.

    ``orbit_of(c)`` is the set of images of c; a configuration that an
    earlier orbit holds is skipped, and each new orbit contributes
    ``build(c)`` through its first configuration, with the orbit size
    as coefficient.  That equals the sum over every configuration: the
    terms of one orbit are one graph up to an edge permutation, and that
    permutation is even, because a nonzero class has only even
    automorphisms.  (If the class of an input is zero, an odd
    automorphism pairs the terms off and the sum is zero; callers return
    early then.)  When ``build(c)`` is None the orbit adds nothing and
    is never canonicalized.
    """
    def terms():
        seen = set()
        for c in configs:
            if c in seen:
                continue
            orbit = orbit_of(c)
            seen |= orbit
            term = build(c)
            if term is not None:
                yield term, len(orbit)

    out = {}
    canonical_sum(terms(), out)
    return GraphSum(out)


def _add_scaled(terms, gs, scale):
    """Add scale times the graph sum gs into the dict ``terms``."""
    for cls, coeff in gs.terms.items():
        terms[cls] = terms.get(cls, 0) + scale * coeff


def _linear(raw, gs):
    """Linear extension of the map ``raw`` from graphs to graph sums."""
    terms = {}
    for cls, coeff in gs.terms.items():
        _add_scaled(terms, raw(cls), coeff)
    return GraphSum(terms)


def icg_differential_raw(g):
    """Vertex-splitting differential of a single labeled graph, as a
    canonicalized sum.  Only the internally connected terms whose
    internal loop count equals the input's are kept.

    Both conditions are read off the input and the moved edges before a
    term is built.  Splitting an internal vertex hangs the new vertex on
    it and keeps the loop count, so it is connected exactly when the
    input's internal part is.  Splitting an external vertex joins the
    new vertex to the internal components that its ``a`` moved internal
    edges reach; with ``c`` of them distinct the term is connected
    exactly when ``c`` is the number of components, and it then has
    ``a - c`` more loops than the input, so it is kept when ``a`` and
    ``c`` both equal that number.

    Aut(g) acts on the kept splits (vertex v, moved edges), and both
    conditions are invariant under it; the sum runs over its orbits
    through :func:`_orbit_sum`.  An internal vertex's image set that
    holds the pinned first edge stands for its complement, which gives
    the same graph.
    """
    aut = automorphisms(g)
    if aut is None:
        return GraphSum()
    root, _, count = components(g, g.ext)
    incidence = g.incidence()
    images = _edge_images(g, aut)

    def kept():
        for v in range(g.n):
            if not g.ext[v]:
                if count == 1:
                    for moved in _moved_sets(g, v, incidence[v]):
                        yield v, moved
                continue
            # the component each incident edge leads into, None for an
            # edge to another external vertex
            reach = {}
            for i in incidence[v]:
                x, y = g.edges[i]
                reach[i] = root[y if x == v else x]
            # a kept split moves one edge into each component and no
            # further internal edge; the rest of its at least two edges
            # run to other external vertices
            if count + sum(r is None for r in reach.values()) < 2:
                continue
            for moved in _moved_sets(g, v, incidence[v]):
                hit = [reach[i] for i in moved if reach[i] is not None]
                if len(hit) == count == len(set(hit)):
                    yield v, moved

    def orbit_of(split):
        v, moved = split
        orbit = set()
        for sigma, image in zip(aut, images):
            w = sigma[v]
            target = sorted(image[i] for i in moved)
            if not g.ext[w] and incidence[w][0] in target:
                target = [i for i in incidence[w] if i not in target]
            orbit.add((w, tuple(target)))
        return orbit

    return _orbit_sum(kept(), orbit_of, lambda split: _split(g, *split))


def icg_differential(gs):
    """Linear extension of the splitting differential to graph sums."""
    return _linear(icg_differential_raw, gs)


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


def _insertion_sum(g1, g2, pairs):
    """Canonicalized sum of ``insert_at(g1, j, g2, assignment)`` over
    the (vertex j, assignment) pairs, one term per orbit.

    Aut(g1) x Aut(g2) acts on the pairs: sigma moves j to sigma(j) and
    each loose edge to its image, tau moves each target t to tau(t).
    ``pairs`` must be a union of orbits; the sum runs over them through
    :func:`_orbit_sum`, and the product group is walked pair by pair and
    never built as a list.
    """
    aut1, aut2 = automorphisms(g1), automorphisms(g2)
    if aut1 is None or aut2 is None:
        return GraphSum()
    loose = g1.incidence()
    # moves[k][j][i]: where the i-th loose edge at j lands among the
    # loose edges at aut1[k][j]
    moves = []
    for sigma, edge_image in zip(aut1, _edge_images(g1, aut1)):
        moves.append([[loose[sigma[j]].index(edge_image[e])
                       for e in loose[j]] for j in range(g1.n)])

    def orbit_of(pair):
        j, assignment = pair
        orbit = set()
        for sigma, move in zip(aut1, moves):
            for tau in aut2:
                image = [0] * len(assignment)
                for i, t in zip(move[j], assignment):
                    image[i] = tau[t]
                orbit.add((sigma[j], tuple(image)))
        return orbit

    return _orbit_sum(pairs, orbit_of,
                      lambda pair: insert_at(g1, pair[0], g2, pair[1]))


def pre_lie_raw(g1, g2):
    """Sum over all vertices of g1 and all reattachments of the loose
    edges to vertices of g2, canonicalized.
    """
    pairs = ((j, assignment) for j, m in enumerate(g1.valences())
             for assignment in product(range(g2.n), repeat=m))
    return _insertion_sum(g1, g2, pairs)


def _capped(m, caps):
    """The tuples of m vertices in which each vertex u occurs at most
    ``caps[u]`` times.
    """
    if m == 0:
        yield ()
        return
    for u, cap in enumerate(caps):
        if cap:
            rest = caps[:u] + (cap - 1,) + caps[u + 1:]
            for tail in _capped(m - 1, rest):
                yield (u,) + tail


def _level_pairs(g1, g2, p):
    """Each (j, assignment) pair whose insertion has filtration value p,
    once; see :func:`level_part`.
    """
    top = g1.n + g2.n - 1 - p
    caps = tuple(top - d for d in g2.valences())
    if min(caps) < 0:
        return
    valence = g1.valences()
    for j, m in enumerate(valence):
        rest = max(valence[:j] + valence[j + 1:], default=0)
        if rest > top:
            continue
        if rest == top:
            for assignment in _capped(m, caps):
                yield j, assignment
            continue
        for u, cap in enumerate(caps):
            below = tuple(c - 1 for c in caps[:u]) + (0,) + caps[u + 1:]
            if cap > m or min(below) < 0:
                continue
            for chosen in combinations(range(m), cap):
                others = [i for i in range(m) if i not in chosen]
                for filling in _capped(len(others), below):
                    assignment = [u] * m
                    for i, t in zip(others, filling):
                        assignment[i] = t
                    yield j, tuple(assignment)


def level_part(g1, g2, p):
    """The terms of ``pre_lie_raw(g1, g2)`` at filtration value p,
    summed over only the (j, assignment) pairs that reach value p.

    Inserting g2 at vertex j of g1 gives n = n1 + n2 - 1 vertices.  Every
    other vertex of g1 keeps its valence, and a vertex u of g2 gets
    deg(u) plus the number k_u of loose edges sent to it.  So the term
    has value p, i.e. top valence ``n - p``, exactly when no vertex
    exceeds ``n - p`` (k_u <= n - p - deg(u) for every u, and no other
    vertex of g1 is above ``n - p``) and some vertex reaches it.  If
    another vertex of g1 reaches it, every such capped assignment
    counts.  Otherwise some u has k_u = n - p - deg(u), and each
    assignment is produced once, from its least such u: choose which
    loose edges go to u, then send the rest to the vertices before u,
    below their caps, and to those after u, within them.  The full
    product of assignments is never walked.  Valences are invariant
    under automorphisms, so the pairs are a union of orbits.

    p must be an int >= 1: no vertex of a simple graph has valence n,
    so there is no level 0.
    """
    _check_level(p)
    return _insertion_sum(g1, g2, _level_pairs(g1, g2, p))


def _check_level(p):
    if type(p) is not int or p < 1:
        raise ValueError("filtration level p must be an int >= 1, got %r"
                         % (p,))


def _bracket(s1, s2, product_raw):
    """Graded commutator of the bilinear extension of ``product_raw``,
    a product of two graphs, on graph sums.
    """
    terms = {}
    for c1, a1 in s1.terms.items():
        for c2, a2 in s2.terms.items():
            koszul = -1 if (gc2_degree(c1) * gc2_degree(c2)) % 2 else 1
            _add_scaled(terms, product_raw(c1, c2), a1 * a2)
            _add_scaled(terms, product_raw(c2, c1), -koszul * a1 * a2)
    return GraphSum(terms)


def gc2_bracket(s1, s2):
    """Graded commutator of the insertion product on graph sums."""
    return _bracket(s1, s2, pre_lie_raw)


def level_bracket(s1, s2, p):
    """The filtration-value-p part of ``gc2_bracket(s1, s2)``, built
    from :func:`level_part` alone.
    """
    _check_level(p)
    return _bracket(s1, s2, lambda g1, g2: level_part(g1, g2, p))


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


def _markings(g, keep):
    """Sum over the vertices of g of the graph with that vertex flagged
    external and moved to position 0, by orbits of Aut(g) through
    :func:`_orbit_sum`; a marking that is inadmissible or that ``keep``
    rejects adds nothing.
    """
    aut = automorphisms(g)
    if aut is None:
        return GraphSum()
    flags = tuple(i == 0 for i in range(g.n))

    def build(v):
        def remap(w):
            return 0 if w == v else (w + 1 if w < v else w)

        marked = Graph(g.n, flags,
                       tuple((remap(a), remap(b)) for a, b in g.edges))
        try:
            icg_check(marked)
        except ValueError:
            return None
        return marked if keep(marked) else None

    return _orbit_sum(range(g.n), lambda v: {sigma[v] for sigma in aut},
                      build)


def mark_one_external_raw(g):
    """Sum over all vertices of the graph with that vertex flagged
    external; terms violating admissibility are dropped.
    """
    return _markings(g, lambda marked: True)


def two_loop_marking(gs):
    """The marking map on graph sums, restricted to the terms with
    exactly two internal loops.  The loop count is read off each marked
    graph before it is canonicalized, so no other marking is searched.
    """
    return _linear(
        lambda g: _markings(g, lambda m: internal_loop_count(m) == 2), gs)


# -- the bridge between theta graphs and monomials ---------------------------


def _theta_shape(g):
    """Recognize a hairy theta shape; returns (grade, counts).
    Raises ValueError for anything else.  Which junction carries the
    grade-1 hair does not matter: reversing the strands is an
    isomorphism onto the reference layout either way.
    """
    if sum(g.ext) != 1:
        raise ValueError("theta shapes have exactly one external vertex")
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
    """(grade, weight, index, sign) of a theta-shaped graph: ``index``
    places the strictly decreasing rearrangement of its hair counts in
    :func:`weight_slice_basis`; None when the class of g is zero.  The
    sign compares g with the reference layout of its own strand order,
    times the sign action's parity of sorting the strands.
    """
    grade, counts = _theta_shape(g)
    cls, sign = canonicalize(g, check=True)
    if cls is None:
        return None
    ref = theta_graph(grade, counts)
    # g itself when it is its reference layout: a search stored on g is reused
    ref_cls, ref_sign = canonicalize(g if ref == g else ref, check=False)
    if ref_cls != cls:
        raise AssertionError("reference theta does not match input class")
    # a repeated count is an odd strand swap, so cls would be None
    rep, parity = monomial_normal_form(counts)
    weight = sum(counts) + 2 - grade
    index = weight_slice_basis(grade, weight).index(rep)
    return grade, weight, index, sign * ref_sign * parity
