"""The symmetric group on three letters and the coinvariant normal form
of its sign action.

A permutation acts on an exponent triple (k1, k2, k3) by sending it to
(k_{s(1)}, k_{s(2)}, k_{s(3)}).  Composition is arranged so that
``(s @ t)`` acts as ``s`` after ``t``.  Under the *sign* action on
three-variable polynomials a permutation also multiplies by its parity;
every class of the coinvariants has one representative supported on
strictly decreasing exponent triples, which
:func:`sign_coinvariant_normal_form` computes.
"""

from __future__ import annotations

from .poly import Poly3


class Perm3:
    """A permutation of {1, 2, 3}, stored as 0-based images."""

    __slots__ = ("images", "sign")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != [0, 1, 2]:
            raise ValueError("not a permutation of {0,1,2}: %r" % (images,))
        object.__setattr__(self, "images", images)
        inversions = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if images[i] > images[j]
        )
        object.__setattr__(self, "sign", -1 if inversions % 2 else 1)

    def __setattr__(self, name, value):
        raise AttributeError("permutations are immutable")

    def __eq__(self, other):
        return isinstance(other, Perm3) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Perm3(%d%d%d)" % tuple(i + 1 for i in self.images)

    def permute(self, triple):
        return tuple(triple[i] for i in self.images)

    def __matmul__(self, other):
        # (s @ t).permute == s.permute after t.permute
        return Perm3(tuple(other.images[i] for i in self.images))

IDENTITY = Perm3((0, 1, 2))
SWAP_12 = Perm3((1, 0, 2))
SWAP_13 = Perm3((2, 1, 0))
SWAP_23 = Perm3((0, 2, 1))
CYCLE_123 = Perm3((1, 2, 0))  # 1 -> 2 -> 3 -> 1
CYCLE_132 = Perm3((2, 0, 1))

S3 = (IDENTITY, SWAP_12, SWAP_13, SWAP_23, CYCLE_123, CYCLE_132)


def monomial_normal_form(key):
    """Canonical coinvariant form of a single exponent triple under the
    sign action: the strictly decreasing rearrangement with the sorting
    permutation's parity, or None when an exponent repeats (such classes
    are 2-torsion, hence zero over Q).
    """
    a, b, c = key
    if a == b or a == c or b == c:
        return None
    order = sorted(range(3), key=lambda i: -key[i])
    return tuple(key[i] for i in order), Perm3(order).sign


def sign_coinvariant_normal_form(p):
    """Rewrite every monomial onto the strictly decreasing representative."""
    out = {}
    for key, coeff in p.terms.items():
        nf = monomial_normal_form(key)
        if nf is None:
            continue
        rep, sign = nf
        out[rep] = out.get(rep, 0) + sign * coeff
    return Poly3(out)


def is_normal_form(p):
    return all(k[0] > k[1] > k[2] for k in p.terms)
