"""Canonical labeling of ordered-edge graphs and the automorphism group
the labeling search finds on the way.

The search is individualization-refinement (McKay & Piperno,
"Practical graph isomorphism, II", arXiv:1301.1493).  External vertices
are singleton cells, so every labeling fixes them; internal vertices
start in one cell.  The search is one loop over a stack of ordered
partitions.  Each one popped is refined until it is equitable; unless
it is discrete, one child per vertex of its first cell with more than
one vertex, that vertex individualized, is pushed so that the first
vertex is searched first.  A leaf, a discrete partition, fills the
internal slots in index order with the internal vertices in cell order;
its certificate is the sorted list of edges under that labeling.  The
tree of a relabeled graph is the relabeled tree, so the least
certificate is the canonical form.  The search keeps the labeling of
every leaf with the least certificate: two of them differ by an
automorphism, and every automorphism arises this way.  The sign of such
a leaf is the parity of moving each edge to its position in the least
certificate, so two of them differ by an automorphism whose parity on
the edges is the product of their signs; the class is zero, and the
search stops, at the first leaf whose sign is not the first one's.  No
branch is pruned with the automorphisms found so far: on the graphs the
checks search, pruning would save a few milliseconds per command.  The
search state refers to nothing that refers back to it, so it is freed
by reference counting when the search returns.

A search result is kept on the graph it describes and dies with it;
there is no table of past searches.  :func:`canonicalize` gives the
:class:`GraphClass` it returns the result of that representative, read
off the search it ran, so the classes that later operations pass in are
never searched.  :func:`automorphisms` stores its result on its
argument.  A raw graph that is only canonicalized is searched on every
call.
"""

from __future__ import annotations

from .core import GraphClass, gc2_check, icg_check

_ZERO = (None, 0, None)


def refine_colors(cells, neighbors):
    """The coarsest equitable refinement of an ordered partition, a list
    of cells (lists of vertices).  Each round splits every cell by its
    members' sorted neighbor-cell indices, the pieces taking the cell's
    place in increasing order of that key, until no cell splits.
    Relabeling the vertices of the input relabels those of the output:
    which vertices share a cell, and the order of the cells, do not
    depend on the labels.
    """
    cell_of = [0] * len(neighbors)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            pieces = {}
            for v in cell:
                key = tuple(sorted([cell_of[u] for u in neighbors[v]]))
                pieces.setdefault(key, []).append(v)
            refined.extend(pieces[key] for key in sorted(pieces))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _parity(perm):
    """Parity (+1/-1) of a permutation of range(m), from its cycles."""
    seen = [False] * len(perm)
    flips = 0
    for i in range(len(perm)):
        j = perm[i]
        seen[i] = True
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            flips += 1
    return -1 if flips % 2 else 1


def _inverse(labeling):
    """The vertex -> slot map of a labeling taking slot s to vertex
    ``labeling[s]``."""
    slot = [0] * len(labeling)
    for s, v in enumerate(labeling):
        slot[v] = s
    return slot


def _relabeled_edges(pairs, labeling):
    """The edges, in their order, under the labeling."""
    slot = _inverse(labeling)
    out = []
    for u, v in pairs:
        a, b = slot[u], slot[v]
        out.append((a, b) if a < b else (b, a))
    return out


def _search(g):
    """The canonical search on g, or the result stored on g.  Returns
    (canonical_edges, sign, labelings): canonical_edges is a sorted
    tuple of vertex pairs and labelings holds every minimizing labeling
    as the tuple taking each slot to a vertex of g, in increasing order.
    When the class is zero the result is (None, 0, None).
    """
    result = g._search
    return _label(g) if result is None else result


def _canonical_result(edges, labelings):
    """The search result of the canonical representative, read off the
    result of a graph with these minimizing labelings.  Slot y of the
    first labeling is vertex y of the representative, so each labeling
    carries over through the first one's inverse; the first becomes the
    identity, and the edge order of the representative is sorted, so
    its sign is +1.
    """
    slot = _inverse(labelings[0])
    moved = sorted(tuple(slot[v] for v in lab) for lab in labelings)
    return edges, 1, tuple(moved)


def _label(g):
    """The search behind :func:`_search`, run afresh."""
    n, ext, pairs = g.n, g.ext, g.edges
    if len(set(pairs)) < len(pairs):
        # swapping two parallel edges is an odd automorphism
        return _ZERO

    neighbors = [[] for _ in range(n)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)

    # External vertices come first, one cell each in index order, so
    # every labeling fixes them; the internal ones share the last cell,
    # which the first refinement splits by valence and more.
    root = [[v] for v in range(n) if ext[v]]
    root.append([v for v in range(n) if not ext[v]])

    best = None
    stack = [root]
    while stack:
        cells = refine_colors(stack.pop(), neighbors)
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                # reversed, so the first vertex is searched first
                for v in reversed(cell):
                    rest = [u for u in cell if u != v]
                    stack.append(cells[:i] + [[v], rest] + cells[i + 1:])
                break
        else:
            # a leaf: the partition is discrete
            internal = iter([c[0] for c in cells if not ext[c[0]]])
            labeling = tuple([s if ext[s] else next(internal)
                              for s in range(n)])
            mapped = _relabeled_edges(pairs, labeling)
            cert = sorted(mapped)
            if best is None or cert < best:
                best, labelings = cert, []
                position = {e: i for i, e in enumerate(cert)}
            elif cert > best:
                continue
            parity = _parity([position[e] for e in mapped])
            if not labelings:
                sign = parity
            elif parity != sign:
                return _ZERO
            labelings.append(labeling)

    labelings.sort()
    return tuple(best), sign, tuple(labelings)


def canonicalize(g, check=True):
    """Minimal labeled representative of a graph modulo internal
    relabeling, with the parity of the induced edge permutation.

    Returns (GraphClass, sign) with sign in {+1, -1}, or (None, 0) when
    some automorphism induces an odd edge permutation (the class is
    zero).  With ``check`` the admissibility conditions of the relevant
    family (external vertices present or not) are enforced first.
    """
    if check:
        if any(g.ext):
            icg_check(g)
        else:
            gc2_check(g)
    edges, sign, labelings = _search(g)
    if sign == 0:
        return None, 0
    return (GraphClass(g.n, g.ext, edges,
                       _canonical_result(edges, labelings)), sign)


def automorphisms(g):
    """The automorphisms of g that fix its external vertices, each a
    tuple mapping a vertex to its image, the identity first; None when
    the class of g is zero (some automorphism is odd on the edges).

    Minimizing labelings l_0, l_i of the search give the automorphism
    l_0 o l_i^-1, and each automorphism comes from exactly one l_i.
    The search result is stored on g.
    """
    result = _search(g)
    object.__setattr__(g, "_search", result)
    _, sign, labelings = result
    if sign == 0:
        return None
    first = labelings[0]
    return [tuple(first[s] for s in _inverse(lab)) for lab in labelings]


def canonical_sum(pairs, terms):
    """Add each (graph, coeff) pair into the dict ``terms`` as coeff
    times the relabeling sign, keyed by the graph's canonical class.
    Graphs whose class is zero are dropped; returns how many were.
    """
    zeros = 0
    for g, coeff in pairs:
        cls, sign = canonicalize(g, check=False)
        if cls is None:
            zeros += 1
        else:
            terms[cls] = terms.get(cls, 0) + coeff * sign
    return zeros
