"""Canonical labeling of ordered-edge graphs and the automorphism group
the labeling search finds on the way.

The search looks, among all relabelings that fix external vertices
pointwise and permute internal vertices within their refinement
classes, for the ones minimizing the lower-triangular adjacency string.
It keeps every minimizing relabeling: two of them differ by an
automorphism, and every automorphism arises this way.  If two of them
induce edge permutations of opposite parity the class is zero, and the
search stops at the first such pair.

Adjacency rows are packed into integers (on n vertices slot t occupies
bit n - 1 - t, so integer order is lexicographic order on rows).  The
champion is stored row by row; when a branch improves on it at some
slot, the champion is truncated there and deeper rows are filled in by
the first branch that reaches them, which keeps every comparison exact
during the search.

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


class _OddAutomorphism(Exception):
    """Two minimizing labelings induce edge permutations of opposite
    parity, so some automorphism is odd and the class is zero.
    """


def refine_colors(n, ext, neighbors):
    """Iterated neighborhood refinement.  External vertices get unique
    colors tied to their index, so every admissible relabeling fixes
    them; internal vertices start from their valence.  Each round ranks
    the signatures (own color, then the sorted neighbor colors) among
    the round's distinct signatures; refinement stops when a round
    splits no class.
    """
    colors = [(0, v) if ext[v] else (1, len(neighbors[v]))
              for v in range(n)]
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    classes = len(rank)
    # Equal colors mean equal valence, so the flat signatures order like
    # (color, sorted neighbor tuple).  A coloring that a round does not
    # split, a discrete one included, ranks to itself.
    while classes < n:
        get = colors.__getitem__
        sigs = [(c, *sorted(map(get, nb)))
                for c, nb in zip(colors, neighbors)]
        rank = dict.fromkeys(sorted(set(sigs)))
        if len(rank) == classes:
            break
        for i, sig in enumerate(rank):
            rank[sig] = i
        colors = [rank[sig] for sig in sigs]
        classes = len(rank)
    return colors


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

    colors = refine_colors(n, ext, neighbors)

    # Internal slots, in increasing index order, are filled class by
    # class in color order; external slots are pinned to themselves.
    internal = [v for v in range(n) if not ext[v]]
    by_color = {}
    for v in internal:
        by_color.setdefault(colors[v], []).append(v)
    candidates = [(s,) for s in range(n)]
    slots = iter(internal)
    for color in sorted(by_color):
        members = by_color[color]
        for _ in members:
            candidates[next(slots)] = members
    bits = [1 << (n - 1 - s) for s in range(n)]

    assigned = [0] * n      # slot -> old vertex
    used = [False] * n
    slotmask = [0] * n      # per old vertex: bits of its assigned neighbors
    best_rows = [0] * n     # the champion; rows from ``depth`` on undefined
    depth = 0
    labelings = []
    champion = {}           # relabeled edge -> position, for labelings[0]

    # Only the free candidates with the least row can extend to a
    # minimizing labeling, so only they are tried, in increasing order:
    # the minimizers are found in increasing order of their tuples.
    def descend(s):
        nonlocal depth
        if s == n:
            if labelings:
                # a tie: the labelings differ by an automorphism, which
                # moves each edge to the champion's edge of the same pair
                if not champion:
                    for i, e in enumerate(
                            _relabeled_edges(pairs, labelings[0])):
                        champion[e] = i
                if _parity([champion[e] for e in
                            _relabeled_edges(pairs, assigned)]) < 0:
                    raise _OddAutomorphism
            labelings.append(tuple(assigned))
            return
        free = candidates[s]
        if len(free) == 1:
            row = slotmask[free[0]]
        else:
            free = [v for v in free if not used[v]]
            row = min([slotmask[v] for v in free])
        if s < depth:
            ref = best_rows[s]
            if row > ref:
                return
            if row < ref:
                best_rows[s] = row
                depth = s + 1
                labelings.clear()
                champion.clear()
        else:
            best_rows[s] = row
            depth = s + 1
        bit = bits[s]
        for v in free:
            if slotmask[v] != row:
                continue
            assigned[s] = v
            used[v] = True
            for u in neighbors[v]:
                slotmask[u] |= bit
            descend(s + 1)
            for u in neighbors[v]:
                slotmask[u] ^= bit
            used[v] = False

    try:
        descend(0)
    except _OddAutomorphism:
        return _ZERO
    finally:
        # descend refers to itself; deleting it frees the search state
        # by reference counting, without waiting for the cycle collector
        del descend

    mapped = _relabeled_edges(pairs, labelings[0])
    order = sorted(range(len(mapped)), key=mapped.__getitem__)
    return (tuple([mapped[i] for i in order]), _parity(order),
            tuple(labelings))


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
