"""Canonical labeling of ordered-edge graphs and the automorphism group
the labeling search finds on the way.

The search looks, among all relabelings that fix external vertices
pointwise and permute internal vertices within their refinement
classes, for the ones minimizing the lower-triangular adjacency string.
It keeps every minimizing relabeling: two of them differ by an
automorphism, and every automorphism arises this way.  If two of them
induce edge permutations of opposite parity the class is zero.

Adjacency rows are packed into integers (slot t occupies bit 63 - t, so
integer order is lexicographic order on rows).  The champion is stored
row by row; when a branch improves on it at some slot, the champion is
truncated there and deeper rows are filled in by the first branch that
reaches them, which keeps every comparison exact during the search.
"""

from __future__ import annotations

from .core import GraphClass, gc2_check, icg_check


def refine_colors(n, ext, neighbors):
    """Iterated neighborhood refinement.  External vertices get unique
    colors tied to their index, so every admissible relabeling fixes
    them; internal vertices start from their valence.
    """
    colors = []
    for v in range(n):
        if ext[v]:
            colors.append((0, v))
        else:
            colors.append((1, len(neighbors[v])))
    palette = sorted(set(colors))
    colors = [palette.index(c) for c in colors]
    while True:
        sigs = []
        for v in range(n):
            neigh = sorted(colors[u] for u in neighbors[v])
            sigs.append((colors[v], tuple(neigh)))
        palette = sorted(set(sigs))
        new = [palette.index(s) for s in sigs]
        if len(palette) == len(set(colors)):
            return new
        colors = new


def _edge_sort_parity(pairs):
    """Parity (+1/-1) of the permutation sorting a list of distinct pairs."""
    inv = 0
    m = len(pairs)
    for i in range(m):
        pi = pairs[i]
        for j in range(i + 1, m):
            if pi > pairs[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _search(g):
    """The canonical search on g.  Returns (canonical_edges, sign,
    slot_maps): canonical_edges is a sorted tuple of vertex pairs and
    slot_maps holds, for every minimizing labeling, the list taking each
    vertex of g to its slot.  When the class is zero the result is
    (None, 0, None).
    """
    n, ext = g.n, g.ext
    if n > 64:
        raise ValueError("canonical search supports at most 64 vertices")
    pairs = g.edges
    if len(set(pairs)) < len(pairs):
        # swapping two parallel edges is an odd automorphism
        return None, 0, None

    neighbors = [[] for _ in range(n)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)

    colors = refine_colors(n, ext, neighbors)

    # Internal slots, in increasing index order, are filled class by
    # class in color order; external slots are pinned to themselves.
    internal = sorted(v for v in range(n) if not ext[v])
    by_color = {}
    for v in internal:
        by_color.setdefault(colors[v], []).append(v)
    slot_candidates = {}
    pos = 0
    for color in sorted(by_color):
        members = by_color[color]
        for _ in members:
            slot_candidates[internal[pos]] = members
            pos += 1

    assigned = [-1] * n     # slot -> old vertex
    used = [False] * n
    slotmask = [0] * n      # per old vertex: bits of its assigned neighbors
    best_rows = [None] * n  # None marks a not-yet-defined champion row
    best_labelings = []

    def descend(s):
        if s == n:
            best_labelings.append(list(assigned))
            return
        candidates = (s,) if ext[s] else slot_candidates[s]
        for v in candidates:
            if used[v]:
                continue
            new_row = slotmask[v]
            ref = best_rows[s]
            if ref is not None and new_row > ref:
                continue
            if ref is None or new_row < ref:
                best_rows[s] = new_row
                for t in range(s + 1, n):
                    best_rows[t] = None
                best_labelings.clear()
            assigned[s] = v
            used[v] = True
            bit = 1 << (63 - s)
            for u in neighbors[v]:
                slotmask[u] |= bit
            descend(s + 1)
            for u in neighbors[v]:
                slotmask[u] &= ~bit
            used[v] = False
            assigned[s] = -1

    descend(0)

    canon_edges = []
    for s in range(n):
        row = best_rows[s]
        for t in range(s):
            if row & (1 << (63 - t)):
                canon_edges.append((t, s))
    canon_edges = tuple(sorted(canon_edges))

    sign = 0
    slot_maps = []
    for labeling in best_labelings:
        perm = [0] * n
        for slot, old in enumerate(labeling):
            perm[old] = slot
        slot_maps.append(perm)
        mapped = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            mapped.append((a, b) if a < b else (b, a))
        parity = _edge_sort_parity(mapped)
        if sign == 0:
            sign = parity
        elif sign != parity:
            return None, 0, None
    return canon_edges, sign, slot_maps


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
    edges, sign, _ = _search(g)
    if sign == 0:
        return None, 0
    return GraphClass(g.n, g.ext, edges), sign


def automorphisms(g):
    """The automorphisms of g that fix its external vertices, each a
    tuple mapping a vertex to its image, the identity first; None when
    the class of g is zero (some automorphism is odd on the edges).

    Minimizing labelings l_0, l_i of the search give the automorphism
    l_0 o l_i^-1, and each automorphism comes from exactly one l_i.
    """
    _, sign, slot_maps = _search(g)
    if sign == 0:
        return None
    first = [0] * g.n  # l_0: slot -> vertex
    for v, slot in enumerate(slot_maps[0]):
        first[slot] = v
    return [tuple(first[slot] for slot in perm) for perm in slot_maps]


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
