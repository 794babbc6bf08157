"""Shared generators and property routines for the test suite.

The randomized property checks live here so the per-module tests and the
acceptance suite exercise exactly the same regimes.
"""

import random
from fractions import Fraction

from grt2.liealg import ihara_bracket
from grt2.linalg import Echelon
from grt2.perms import S3, induced_action, sign_action
from grt2.poly import NCPoly, Poly2, Poly3, nc_bracket, substitute_phi
from grt2.theta import psi


def random_poly3(rng, max_degree=6, terms=4):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, max_degree // 2) for _ in range(3))
        out[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly3(out)


def random_poly2(rng, max_degree=6, terms=4):
    out = {}
    for _ in range(terms):
        key = (rng.randint(0, max_degree), rng.randint(0, max_degree))
        out[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly2(out)


def random_lie_element(rng, weight):
    """A random element of the free Lie algebra of the given weight,
    built from nested commutators of the letters.
    """
    if weight == 1:
        return NCPoly.letter("x" if rng.random() < 0.5 else "y")
    split = rng.randint(1, weight - 1)
    left = random_lie_element(rng, split)
    right = random_lie_element(rng, weight - split)
    return nc_bracket(left, right)


def check_group_laws(action, rng, samples=3):
    """(s t).p == s.(t.p) and id.p == p over all 36 pairs."""
    from grt2.perms import IDENTITY

    for _ in range(samples):
        p = random_poly3(rng)
        assert action(IDENTITY, p) == p
        for s in S3:
            for t in S3:
                assert action(s @ t, p) == action(s, action(t, p))


def check_induced_group_laws(rng, samples=3):
    from grt2.perms import IDENTITY

    for _ in range(samples):
        p = random_poly2(rng)
        assert induced_action(IDENTITY, p) == p
        for s in S3:
            for t in S3:
                assert induced_action(s @ t, p) == \
                    induced_action(s, induced_action(t, p))


def check_equivariance(rng, samples=20, max_degree=8):
    """induced_action(s, phi(p)) == phi(sign_action(s, p))."""
    for _ in range(samples):
        p = random_poly3(rng, max_degree=max_degree)
        for s in S3:
            assert induced_action(s, substitute_phi(p)) == \
                substitute_phi(sign_action(s, p))


def even_slice_monomials(degree):
    return [(a, degree - a) for a in range(degree + 1)]


def symmetrized_span_rows(degree):
    """Vectors q - sigma_* q over the degree slice, as coordinate rows."""
    monos = even_slice_monomials(degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        base = Poly2.monomial(m)
        for s in S3:
            moved = base - induced_action(s, base)
            row = [Fraction(0)] * len(monos)
            good = True
            for key, c in moved.terms.items():
                if key not in index:
                    good = False
                    break
                row[index[key]] = c
            if good and any(row):
                rows.append(row)
    return monos, rows


def check_psi_inverse(degree):
    """x^a y^b - psi(x^a y^b) lies in the span of q - sigma_* q, for every
    monomial of the given even degree: the projection inverts the
    inclusion at the level of coinvariants.
    """
    monos, rows = symmetrized_span_rows(degree)
    index = {m: i for i, m in enumerate(monos)}
    span = Echelon(rows)
    for m in monos:
        diff = Poly2.monomial(m) - psi(Poly2.monomial(m))
        vec = {index[key]: c for key, c in diff.terms.items()}
        # a vector in the span reduces to zero and leaves span unchanged
        assert span.add(vec) is not None, m


def check_ihara_antisymmetry(rng, samples=15, max_weight=6):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        assert ihara_bracket(a, b) + ihara_bracket(b, a) == NCPoly.zero()
        assert ihara_bracket(a, a).is_zero()


def check_ihara_jacobi(rng, samples=8, max_weight=4):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        c = random_lie_element(rng, rng.randint(1, max_weight))
        total = ihara_bracket(a, ihara_bracket(b, c)) \
            + ihara_bracket(b, ihara_bracket(c, a)) \
            + ihara_bracket(c, ihara_bracket(a, b))
        assert total.is_zero()


def check_ihara_depth_additivity(rng, samples=25, max_weight=6):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        if a.is_zero() or b.is_zero():
            continue
        br = ihara_bracket(a, b)
        if not br.is_zero():
            assert br.depth() >= a.depth() + b.depth()


def check_canonicalize_invariance(rng, graphs, samples=10):
    """Relabeling internal vertices or reordering edges changes the
    canonical form in the tracked way only.
    """
    from grt2.graphs.canon import canonicalize
    from grt2.graphs.core import Graph

    for g in graphs:
        cls, sign = canonicalize(g, check=False)
        internal = [v for v in range(g.n) if not g.ext[v]]
        for _ in range(samples):
            perm = dict(zip(internal, rng.sample(internal, len(internal))))
            mapped = [tuple(sorted((perm.get(u, u), perm.get(v, v))))
                      for u, v in g.edges]
            order = list(range(len(mapped)))
            rng.shuffle(order)
            parity = _permutation_parity(order)
            shuffled = Graph(g.n, g.ext, tuple(mapped[i] for i in order))
            cls2, sign2 = canonicalize(shuffled, check=False)
            assert cls2 == cls
            if cls is not None:
                assert sign2 == sign * parity
            if cls is not None:
                # idempotence on the canonical representative
                cls3, sign3 = canonicalize(cls.graph, check=False)
                assert cls3 == cls and sign3 == 1


def _permutation_parity(order):
    inv = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    return -1 if inv % 2 else 1


def ring_axiom_check(rng, make_random, samples=10):
    """Associativity and distributivity on random triples."""
    for _ in range(samples):
        a, b, c = make_random(rng), make_random(rng), make_random(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
