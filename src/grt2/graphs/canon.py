"""Backend selection and the public canonicalization entry point."""

from __future__ import annotations

from .core import Graph, GraphClass, gc2_check, icg_check

try:
    from ._canon_cy import canonical_form as _canonical_form
    CANON_BACKEND = "compiled"
except ImportError:
    from ._canon_py import canonical_form as _canonical_form
    CANON_BACKEND = "python"


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
    edges, sign = _canonical_form(g.n, g.ext, g.edges)
    if sign == 0:
        return None, 0
    return GraphClass(g.n, g.ext, edges), sign


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
