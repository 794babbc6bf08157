import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grt2.graphs.build import figure_eight, theta_graph, theta_shapes, wheel
from grt2.graphs.canon import automorphisms, canonical_sum, canonicalize
from grt2.graphs.core import Graph, GraphSum
from grt2.graphs.ops import (
    bowtie,
    bowtie_difference,
    filtration_value,
    gc2_bracket,
    icg_differential,
    icg_differential_raw,
    insert_at,
    internal_loop_count,
    is_one_vertex_irreducible,
    mark_one_external,
    mark_one_external_raw,
    pre_lie_raw,
    split_terms,
    theta_graph_decode,
    theta_graph_encode,
    theta_sum_encode,
    two_loop_part,
    wheel_class,
)
from grt2.poly import Poly3
from grt2.theta import ThetaElement, d0_theta
from grt2.perms import sign_coinvariant_normal_form


def test_internal_loop_count():
    assert internal_loop_count(theta_graph(1, (2, 4, 0))) == 2
    assert internal_loop_count(figure_eight(2, 4)) == 2
    tree = Graph(3, (True, False, False), ((1, 2), (0, 1), (0, 2)))
    assert internal_loop_count(tree) == 0


def test_filtration_values():
    for spokes in (3, 5, 7):
        assert filtration_value(wheel(spokes)) == 1
    assert filtration_value(bowtie(3, 5)) == 2
    # a 3-regular graph on 6 vertices sits at level 3
    prism = Graph(6, (False,) * 6,
                  ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                   (0, 3), (1, 4), (2, 5)))
    assert filtration_value(prism) == 3


def test_one_vertex_irreducibility():
    assert is_one_vertex_irreducible(wheel(3))
    assert is_one_vertex_irreducible(wheel(5))
    two_triangles = Graph(
        5, (False,) * 5,
        ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    assert not is_one_vertex_irreducible(two_triangles)
    edge = Graph(2, (False, False), ((0, 1),))
    assert is_one_vertex_irreducible(edge)


def test_d_squared_loop_preserving():
    for grade in (0, 1):
        for counts in theta_shapes(grade, 9):
            first = icg_differential_raw(theta_graph(grade, counts))
            assert icg_differential(first).is_zero(), (grade, counts)


def test_d_squared_and_bridge_through_weight_12():
    # d0^2 = 0 and encode(d0 g) = d0(encode g) on every grade-0 and
    # grade-1 theta shape of weight at most 12
    for grade in (0, 1):
        for counts in theta_shapes(grade, 12):
            g = theta_graph(grade, counts)
            first = icg_differential_raw(g)
            assert icg_differential(first).is_zero(), (grade, counts)
            image = theta_sum_encode(first)
            lhs = image.get(grade + 1,
                            ThetaElement(grade + 1, Poly3.zero()))
            rhs = d0_theta(theta_graph_encode(g))
            assert lhs.value == rhs.value, (grade, counts)


def test_split_terms_counts():
    # an external vertex of valence m sheds any 2..m of its edges; an
    # internal one keeps its first edge and moves 2..m-2 of the rest
    cases = (theta_graph(0, (3, 2, 1)), theta_graph(1, (2, 4, 0)),
             figure_eight(2, 4), wheel(5),
             Graph(4, (True, True, False, False),
                   ((0, 1), (0, 2), (0, 2), (0, 3), (1, 2), (1, 3),
                    (2, 3), (2, 3))))
    for g in cases:
        valences = g.valences()
        for v in range(g.n):
            m = valences[v]
            if g.ext[v]:
                want = 2 ** m - m - 1
            else:
                want = 2 ** (m - 1) - m - 1 if m >= 4 else 0
            terms = list(split_terms(g, v))
            assert len(terms) == want, (g, v)
            for term in terms:
                assert term.n == g.n + 1 and not term.ext[g.n]
                assert term.num_edges == g.num_edges + 1
                assert term.edges[-1] == (v, g.n)
    # the splitting part of perfbench/canon_probe.py's graph set
    seed = theta_graph(0, (3, 2, 1))
    assert sum(len(list(split_terms(seed, v))) for v in range(seed.n)) \
        == 253


def icg_differential_reference(g, loop_preserving):
    """Every split term through the connectivity and loop filters, then
    through canonical_sum: the plain definition of the differential."""
    base = internal_loop_count(g)
    terms = {}
    canonical_sum(
        ((term, 1) for v in range(g.n) for term in split_terms(g, v)
         if term.is_internally_connected()
         and not (loop_preserving and internal_loop_count(term) > base)),
        terms)
    return GraphSum(terms)


@st.composite
def splitting_inputs(draw):
    """Graphs with 1-3 external vertices anywhere in the labeling and up
    to five internal ones: simple graphs, some with a doubled edge, edges
    between external vertices or disconnected internal parts."""
    n_ext = draw(st.integers(1, 3))
    n_int = draw(st.integers(0, 5))
    ext = tuple(draw(st.permutations([True] * n_ext + [False] * n_int)))
    n = len(ext)
    if n < 2:
        return Graph(n, ext, ())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda p: tuple(sorted((p[0], p[1] + (p[1] >= p[0])))))
    edges = draw(st.lists(pairs, max_size=12, unique=True))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=1))
    return Graph(n, ext, tuple(draw(st.permutations(edges))))


@settings(max_examples=300, deadline=None)
@given(splitting_inputs(), st.booleans())
def test_icg_differential_matches_reference(g, loop_preserving):
    got = icg_differential_raw(g, loop_preserving)
    want = icg_differential_reference(g, loop_preserving)
    assert got == want
    assert list(got.terms) == list(want.terms)


def test_d_squared_full_differential():
    cases = [theta_graph(1, (2, 4, 0)), theta_graph(0, (2, 1, 0))]
    for g in cases:
        first = icg_differential_raw(g, loop_preserving=False)
        second = icg_differential(first, loop_preserving=False)
        assert second.is_zero()
    for spokes in (3, 5):
        marked = mark_one_external_raw(wheel(spokes))
        image = icg_differential(marked, loop_preserving=False)
        assert icg_differential(image, loop_preserving=False).is_zero()


def test_differential_matches_polynomial_model():
    for grade in (0, 1):
        for counts in theta_shapes(grade, 9):
            g = theta_graph(grade, counts)
            image = theta_sum_encode(icg_differential_raw(g))
            lhs = image.get(grade + 1,
                            ThetaElement(grade + 1, Poly3.zero()))
            rhs = d0_theta(theta_graph_encode(g))
            assert lhs.value == rhs.value, (grade, counts)


def test_vanishing_classes_match_lemma():
    # graph classes vanish exactly when the polynomial model says so
    for grade in (0, 1, 2):
        for counts in theta_shapes(grade, 9):
            cls, _ = canonicalize(theta_graph(grade, counts))
            deg = sum(counts)
            parity_zero = (grade == 0 and deg % 2 == 0) or \
                (grade == 2 and deg % 2 == 1)
            poly_zero = sign_coinvariant_normal_form(
                Poly3.monomial(counts)).is_zero()
            assert (cls is None) == (parity_zero or poly_zero), \
                (grade, counts)


def test_encode_decode_round_trip():
    for a in range(1, 10):
        for b in range(a):
            for c in range(b):
                if a + b + c > 10 or (b == 0 and c == 0):
                    continue
                mono = (a, b, c)
                elem = theta_graph_encode(theta_graph_decode(1, mono))
                assert elem.grade == 1
                assert elem.value == Poly3.monomial(mono)


def test_encode_reference_figure():
    # the reference layout of the grade-0 shape with hair counts 2, 3, 4
    elem = theta_graph_encode(theta_graph(0, (2, 3, 4)))
    assert elem.grade == 0
    assert elem.value == sign_coinvariant_normal_form(
        Poly3.monomial((2, 3, 4)))
    elem = theta_graph_encode(theta_graph(1, (2, 4, 0)))
    assert elem.value == sign_coinvariant_normal_form(
        Poly3.monomial((2, 4, 0)))


def test_encode_rejects_other_shapes():
    with pytest.raises(ValueError):
        theta_graph_encode(mark_one_external_raw(wheel(3))
                           .sorted_terms()[0][0].graph)


def test_gc2_bracket_antisymmetry():
    w3, w5 = wheel_class(3), wheel_class(5)
    assert gc2_bracket(w3, w3).is_zero()
    assert gc2_bracket(w3, w5) == -gc2_bracket(w5, w3)


def test_gc2_bracket_jacobi_truncated():
    # wheels have degree zero, so the graded signs disappear; the inner
    # brackets are truncated to their bottom filtration level to keep
    # the triple products small
    w3, w5 = wheel_class(3), wheel_class(5)
    level2 = lambda s: s.restrict(
        lambda c: filtration_value(c.graph) == 2)
    inner_ab = level2(gc2_bracket(w3, w3))
    inner_bc = level2(gc2_bracket(w3, w5))
    inner_ca = level2(gc2_bracket(w5, w3))
    total = gc2_bracket(inner_ab, w5) \
        + gc2_bracket(inner_bc, w3) \
        + gc2_bracket(inner_ca, w3)
    assert total.is_zero()


def test_bracket_filtration_additivity():
    for a, b in ((3, 5), (3, 7)):
        br = gc2_bracket(wheel_class(a), wheel_class(b))
        assert not br.is_zero()
        assert all(filtration_value(c.graph) >= 2 for c in br.terms), (a, b)


def test_bracket_level2_is_bowtie_difference():
    br = gc2_bracket(wheel_class(3), wheel_class(5))
    level2 = br.restrict(lambda c: filtration_value(c.graph) == 2)
    diff = bowtie_difference(3, 5)
    assert set(level2.terms) == set(diff.terms)
    ratios = {Fraction(level2.terms[c], diff.terms[c]) for c in diff.terms}
    assert len(ratios) == 1
    assert 0 not in ratios


# The 4-spoke wheel: a rim reflection is an odd automorphism, so its
# class is zero.
WHEEL4 = Graph(5, (False,) * 5,
               ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4), (0, 4),
                (1, 4)))


def pre_lie_reference(g1, g2):
    """Every (vertex, assignment) pair through canonical_sum, each with
    coefficient 1: the plain definition of the insertion product."""
    terms = {}
    canonical_sum(
        ((insert_at(g1, j, g2, assignment), 1)
         for j in range(g1.n)
         for assignment in product(range(g2.n),
                                   repeat=len(g1.incident_edges(j)))),
        terms)
    return GraphSum(terms)


def test_pre_lie_orbits_match_reference():
    w3, w5, w7 = wheel(3), wheel(5), wheel(7)
    level2 = gc2_bracket(wheel_class(3), wheel_class(5)).restrict(
        lambda c: filtration_value(c.graph) == 2)
    g = level2.sorted_terms()[0][0].graph
    for g1, g2 in ((w3, w5), (w5, w3), (w3, w3), (w3, w7), (g, w3),
                   (w3, g)):
        got, want = pre_lie_raw(g1, g2), pre_lie_reference(g1, g2)
        assert got == want, (g1, g2)
        assert list(got.terms) == list(want.terms)
        assert not got.is_zero()
    for g1, g2 in ((WHEEL4, w3), (w3, WHEEL4)):
        assert pre_lie_reference(g1, g2).is_zero()
        assert pre_lie_raw(g1, g2).is_zero()


def assert_automorphism_group(g, group):
    edges = sorted(g.edges)
    assert group[0] == tuple(range(g.n))
    assert len(set(group)) == len(group)
    for sigma in group:
        assert sorted(sigma) == list(range(g.n))
        assert all(sigma[v] == v for v in g.external_vertices())
        assert sorted(tuple(sorted((sigma[u], sigma[v])))
                      for u, v in g.edges) == edges
    members = set(group)
    for sigma in group:
        for tau in group:
            assert tuple(sigma[tau[v]] for v in range(g.n)) in members


def test_automorphism_group():
    rng = random.Random(5)
    orders = {3: 24, 5: 10, 7: 14, 9: 18}
    for spokes, order in orders.items():
        g = wheel(spokes)
        group = automorphisms(g)
        assert len(group) == order
        assert_automorphism_group(g, group)
    for g in (theta_graph(1, (2, 4, 0)), theta_graph(0, (2, 3, 4)),
              figure_eight(2, 4), wheel(3), wheel(7)):
        group = automorphisms(g)
        assert_automorphism_group(g, group)
        internal = g.internal_vertices()
        for _ in range(5):
            perm = dict(zip(internal, rng.sample(internal, len(internal))))
            edges = [(perm.get(u, u), perm.get(v, v)) for u, v in g.edges]
            rng.shuffle(edges)
            relabeled = Graph(g.n, g.ext, tuple(edges))
            other = automorphisms(relabeled)
            assert len(other) == len(group)
            assert_automorphism_group(relabeled, other)
    assert automorphisms(WHEEL4) is None
    assert automorphisms(theta_graph(1, (2, 2, 1))) is None


def test_insertion_counts():
    # inserting at a trivalent vertex reattaches three loose edges
    g1, g2 = wheel(3), wheel(5)
    term = insert_at(g1, 0, g2, (0, 0, 0))
    assert term.n == g1.n + g2.n - 1
    assert term.num_edges == g1.num_edges + g2.num_edges


def test_theta_identity():
    for i2, j2 in ((2, 4), (2, 6), (4, 6)):
        image = icg_differential_raw(figure_eight(i2, j2))
        cls, sign = canonicalize(theta_graph(1, (i2, j2, 0)))
        marked = two_loop_part(
            mark_one_external(bowtie_difference(i2 + 1, j2 + 1)))
        assert image == marked + GraphSum({cls: 4 * sign}), (i2, j2)


def test_marking_wheels():
    # all four markings of the 3-wheel give one class; the 5-wheel
    # splits into hub and rim orbits
    m3 = mark_one_external_raw(wheel(3))
    assert len(m3.terms) == 1
    assert sorted(m3.terms.values()) == [4]
    m5 = mark_one_external_raw(wheel(5))
    assert len(m5.terms) == 2
    assert sorted(m5.terms.values()) == [1, 5]


def test_relation_is_boundary_on_graph_side():
    # the weight-12 bracket relation, read as a combination of theta
    # classes, is a boundary of grade-0 graphs: the graph complex agrees
    # with the polynomial and bracket derivations end to end
    from fractions import Fraction as F

    from grt2.linalg import in_span
    from grt2.theta import weight_slice_basis

    target = GraphSum.zero()
    for (a, b), coeff in (((2, 8), 1), ((4, 6), -3)):
        cls, sign = canonicalize(theta_graph(1, (a, b, 0)))
        target = target + GraphSum({cls: coeff * sign})
    images = [
        icg_differential_raw(theta_graph(0, mono))
        for mono in weight_slice_basis(0, 11)
    ]
    classes = sorted(
        {c for s in images for c in s.terms} | set(target.terms),
        key=lambda c: c.sort_key())
    index = {c: i for i, c in enumerate(classes)}

    def as_vector(s):
        vec = [F(0)] * len(classes)
        for c, coeff in s.terms.items():
            vec[index[c]] = coeff
        return vec

    assert in_span([as_vector(s) for s in images], as_vector(target))
    # a non-relation combination is not a boundary
    wrong = GraphSum.zero()
    for (a, b), coeff in (((2, 8), 1), ((4, 6), -1)):
        cls, sign = canonicalize(theta_graph(1, (a, b, 0)))
        wrong = wrong + GraphSum({cls: coeff * sign})
    assert not in_span([as_vector(s) for s in images], as_vector(wrong))


def test_marking_bowtie_two_loop_projection():
    # only the top-valence marking of a level-2 graph survives the
    # two-loop projection
    g = bowtie(3, 5)
    top = max(range(g.n), key=g.valences().__getitem__)
    marked = mark_one_external_raw(g)
    surviving = two_loop_part(marked)
    assert len(surviving.terms) == 1
    remapped = tuple(
        (0 if u == top else (u + 1 if u < top else u),
         0 if v == top else (v + 1 if v < top else v))
        for u, v in g.edges)
    flags = tuple(i == 0 for i in range(g.n))
    want_cls, want_sign = canonicalize(
        Graph(g.n, flags, remapped), check=False)
    assert surviving.terms == {want_cls: Fraction(want_sign)}
