import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grt2 import cli, perms, theta
from grt2.cli import (
    check_bowtie,
    check_d_squared,
    check_encoding,
    check_filtration,
    check_theta_identity,
)
from grt2.graphs import build, canon, ops
from grt2.graphs.build import figure_eight, theta_graph, theta_shapes, wheel
from grt2.graphs.canon import automorphisms, canonical_sum, canonicalize
from grt2.graphs.core import Graph, GraphSum, gc2_degree, icg_check
from grt2.graphs.ops import (
    bowtie,
    bowtie_difference,
    filtration_value,
    gc2_bracket,
    icg_differential,
    icg_differential_raw,
    insert_at,
    internal_loop_count,
    level_bracket,
    level_part,
    mark_one_external_raw,
    pre_lie_raw,
    split_terms,
    theta_graph_encode,
    two_loop_marking,
    wheel_class,
)
from grt2.poly import Poly3
from grt2.perms import sign_coinvariant_normal_form
from grt2.theta import weight_slice_basis
from helpers import _permutation_parity, failed_cases, in_span


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


def test_d_squared_and_bridge_through_weight_12():
    # d0^2 = 0 and encode(d0 g) = d0(encode g) on every grade-0 and
    # grade-1 theta shape of weight at most 12: the `graphs --check
    # d-squared` and `encoding` suites at their default cap
    assert not failed_cases(check_d_squared(12), check_encoding(12))


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


def icg_differential_reference(g):
    """Every split term through the connectivity and loop filters, then
    through canonical_sum: the plain definition of the differential."""
    base = internal_loop_count(g)
    terms = {}
    canonical_sum(
        ((term, 1) for v in range(g.n) for term in split_terms(g, v)
         if term.is_internally_connected()
         and internal_loop_count(term) == base),
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
@given(splitting_inputs())
def test_icg_differential_matches_reference(g):
    got = icg_differential_raw(g)
    want = icg_differential_reference(g)
    assert got == want
    assert list(got.terms) == list(want.terms)


def test_icg_differential_matches_reference_on_theta_shapes():
    # every input of the d-squared and encoding checks at cap 9; the
    # zero-class shapes among them have an empty reference sum
    zeros = 0
    for grade in (0, 1):
        for counts in theta_shapes(grade, 9):
            g = theta_graph(grade, counts)
            got = icg_differential_raw(g)
            want = icg_differential_reference(g)
            assert got == want, (grade, counts)
            assert list(got.terms) == list(want.terms), (grade, counts)
            if automorphisms(g) is None:
                zeros += 1
                assert want.is_zero(), (grade, counts)
    assert zeros == 32


def test_icg_differential_matches_reference_on_symmetric_inputs():
    # internal vertices of valence at least 4 moved by automorphisms:
    # the orbit of a split can reach an edge set holding the pinned
    # first edge, which stands for its complement
    inputs = [figure_eight(2, 4), figure_eight(3, 3), figure_eight(2, 2)]
    for spokes in (3, 5, 7):
        inputs += [cls for cls, _ in
                   mark_one_external_raw(wheel(spokes)).sorted_terms()]
    assert sum(len(automorphisms(g) or ()) > 1 for g in inputs) >= 4
    for g in inputs:
        got = icg_differential_raw(g)
        want = icg_differential_reference(g)
        assert got == want, g
        assert list(got.terms) == list(want.terms)


def test_d_squared_on_thetas_and_marked_wheels():
    cases = [theta_graph(1, (2, 4, 0)), theta_graph(0, (2, 1, 0))]
    for g in cases:
        assert icg_differential(icg_differential_raw(g)).is_zero()
    for spokes in (3, 5, 7):
        image = icg_differential(mark_one_external_raw(wheel(spokes)))
        assert icg_differential(image).is_zero()
    # the marked 7-wheel has a nonzero image, so d^2 = 0 is not vacuous
    assert len(image.terms) == 28


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
    # a reference layout with decreasing counts is its own basis vector
    for a in range(1, 10):
        for b in range(a):
            for c in range(b):
                if a + b + c > 10 or (b == 0 and c == 0):
                    continue
                mono = (a, b, c)
                weight = a + b + c + 1
                index = weight_slice_basis(1, weight).index(mono)
                assert theta_graph_encode(theta_graph(1, mono)) == \
                    (1, weight, index, 1)


def test_encode_reference_figure():
    # the reference layout of the grade-0 shape with hair counts 2, 3, 4
    # is -(4, 3, 2), the last basis vector of weight 11: reversing the
    # strands is a transposition
    assert weight_slice_basis(0, 11)[6] == (4, 3, 2)
    assert theta_graph_encode(theta_graph(0, (2, 3, 4))) == (0, 11, 6, -1)
    assert weight_slice_basis(1, 7)[1] == (4, 2, 0)
    assert theta_graph_encode(theta_graph(1, (2, 4, 0))) == (1, 7, 1, -1)


def test_encode_rejects_other_shapes():
    with pytest.raises(ValueError):
        theta_graph_encode(mark_one_external_raw(wheel(3))
                           .sorted_terms()[0][0])
    # theta_graph(1, (1, 1, 0)): hair 0, junctions 1 and 2, strand
    # vertices 3 and 4, then the junction hair (2, 0)
    theta = theta_graph(1, (1, 1, 0))
    assert theta.edges == ((1, 3), (0, 3), (2, 3), (1, 4), (0, 4), (2, 4),
                           (1, 2), (0, 2))
    # two loops on the ends of a bridge, each loop vertex haired
    dumbbell = ((1, 3), (0, 3), (3, 4), (0, 4), (1, 4), (1, 2),
                (2, 5), (0, 5), (5, 6), (0, 6), (2, 6))
    # a haired triangle beside the theta shape
    stray = theta.edges + ((5, 6), (6, 7), (5, 7), (0, 5), (0, 6), (0, 7))
    for n, ext, edges, problem in [
        (5, (0, 1), theta.edges, "exactly one external vertex"),
        (5, (0,), theta.edges + ((0, 2),), "junction with two hairs"),
        (5, (0,), theta.edges[:4] + theta.edges[5:], "bad strand vertex"),
        (7, (0,), dumbbell, "strand leaves the path"),
        (8, (0,), stray, "stray internal vertices"),
    ]:
        g = Graph(n, tuple(v in ext for v in range(n)), edges)
        with pytest.raises(ValueError, match=problem):
            theta_graph_encode(g)


def test_encoding_names_the_class_of_every_strand_order():
    # g is sign times the reference graph of the basis vector it names;
    # the strands in every order give both signs
    signs = set()
    for grade in (0, 1, 2):
        for shape in theta_shapes(grade, 9):
            for counts in set(permutations(shape)):
                g = theta_graph(grade, counts)
                cls, sign = canonicalize(g)
                code = theta_graph_encode(g)
                if cls is None:
                    assert code is None, (grade, counts)
                    continue
                _, weight, index, s = code
                mono = weight_slice_basis(grade, weight)[index]
                ref_cls, ref_sign = canonicalize(theta_graph(grade, mono))
                assert (cls, sign) == (ref_cls, s * ref_sign), (grade, counts)
                signs.add(s)
    assert signs == {1, -1}


def test_encoding_fails_when_a_reference_class_is_zero(monkeypatch):
    # the grade-2 references stand in for a graph whose class is zero;
    # the one grade-1 case at cap 5 with a nonzero d0 column fails
    doubled = Graph(3, (True, False, False), ((0, 1), (1, 2), (1, 2)))
    real = build.theta_graph
    monkeypatch.setattr(build, "theta_graph", lambda grade, counts:
                        doubled if grade == 2 else real(grade, counts))
    assert failed_cases(check_encoding(5)) == \
        ["encode d0 = d0 encode, grade 1 (2, 1, 0)"]


def test_encoding_never_reaches_the_polynomial_differential(monkeypatch):
    # every case passes with the polynomial-model differential and its
    # normal form replaced by stand-ins that raise: the check reads only
    # the d0 matrix
    def refuse(*args):
        raise AssertionError("the polynomial model was reached")

    for module, name in ((theta, "d0_theta"), (theta, "ThetaElement"),
                         (theta, "sign_coinvariant_normal_form"),
                         (perms, "sign_coinvariant_normal_form")):
        monkeypatch.setattr(module, name, refuse)
    assert not failed_cases(check_encoding(9))


def test_gc2_bracket_antisymmetry():
    w3, w5 = wheel_class(3), wheel_class(5)
    assert gc2_bracket(w3, w3).is_zero()
    assert gc2_bracket(w3, w5) == -gc2_bracket(w5, w3)


def test_gc2_bracket_odd_degree_sign():
    # a nonzero class of GC2 degree -1: the graded commutator is
    # [a, a] = a.a - (-1)^(1*1) a.a = 2 a.a, where the sign of an
    # even degree would give zero; every wheel has degree 0
    g = Graph(6, (False,) * 6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                (1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
                                (4, 5)))
    assert gc2_degree(g) == -1
    cls, sign = canonicalize(g)
    assert cls is not None
    square = gc2_bracket(GraphSum({cls: sign}), GraphSum({cls: sign}))
    assert not square.is_zero()
    assert square == pre_lie_raw(cls, cls).scale(2)


def test_gc2_bracket_jacobi_truncated():
    # wheels have degree zero, so the graded signs disappear; the inner
    # brackets are truncated to their bottom filtration level to keep
    # the triple products small
    w3, w5 = wheel_class(3), wheel_class(5)
    level2 = lambda s: s.restrict(
        lambda c: filtration_value(c) == 2)
    inner_ab = level2(gc2_bracket(w3, w3))
    inner_bc = level2(gc2_bracket(w3, w5))
    inner_ca = level2(gc2_bracket(w5, w3))
    total = gc2_bracket(inner_ab, w5) \
        + gc2_bracket(inner_bc, w3) \
        + gc2_bracket(inner_ca, w3)
    assert total.is_zero()


def test_bracket_filtration_additivity():
    # [w3,w5] and [w3,w7] are nonzero with every term at level >= 2
    assert not failed_cases(check_filtration(11))


def test_bracket_level2_is_bowtie_difference():
    assert not failed_cases(check_bowtie(None))


@pytest.mark.parametrize("a, b", [(3, 5), (3, 7), (5, 7), (3, 9)])
def test_level_part_matches_restricted_product(a, b):
    # every level up to the largest one present, in both insertion
    # orders, plus the empty levels on either side
    for g1, g2 in ((wheel(a), wheel(b)), (wheel(b), wheel(a))):
        full = pre_lie_raw(g1, g2)
        top = max(filtration_value(c) for c in full.terms)
        # level 0 is empty, and level_part rejects it
        assert min(filtration_value(c) for c in full.terms) >= 1
        for p in range(1, top + 2):
            want = full.restrict(lambda c: filtration_value(c) == p)
            assert level_part(g1, g2, p) == want, (a, b, p)


@pytest.mark.parametrize("p", [0, -1, True, 2.0, None])
def test_level_part_rejects_what_is_no_level(p):
    message = r"filtration level p must be an int >= 1, got %r" % (p,)
    with pytest.raises(ValueError, match=message):
        level_part(wheel(3), wheel(5), p)
    w3, w5 = wheel_class(3), wheel_class(5)
    with pytest.raises(ValueError, match=message):
        level_bracket(w3, w5, p)
    with pytest.raises(ValueError, match=message):
        level_bracket(GraphSum(), w5, p)


def test_level_pairs_list_each_qualifying_pair_once():
    for a, b in ((3, 5), (5, 3), (3, 7), (7, 3)):
        g1, g2 = wheel(a), wheel(b)
        values = {}
        for j, m in enumerate(g1.valences()):
            for assignment in product(range(g2.n), repeat=m):
                g = insert_at(g1, j, g2, assignment)
                values[j, assignment] = filtration_value(g)
        for p in range(max(values.values()) + 2):
            pairs = list(ops._level_pairs(g1, g2, p))
            assert len(pairs) == len(set(pairs)), (a, b, p)
            assert set(pairs) == {c for c, v in values.items() if v == p}


def test_level_2_bracket_is_a_bowtie_multiple():
    # gr_2 [w_a, w_b] = -lambda_a lambda_b D(a, b), where lambda_a is half
    # the order of Aut(w_a)
    lam = {a: len(automorphisms(wheel(a))) // 2 for a in range(3, 14, 2)}
    for a in range(3, 14, 2):
        for b in range(a + 2, 14, 2):
            level2 = level_bracket(wheel_class(a), wheel_class(b), 2)
            diff = bowtie_difference(a, b)
            assert not diff.is_zero()
            assert level2 == diff.scale(-lam[a] * lam[b]), (a, b)


def test_level_1_bracket_is_zero():
    for a in range(3, 12, 2):
        for b in range(a + 2, 12, 2):
            level1 = level_bracket(wheel_class(a), wheel_class(b), 1)
            assert level1.is_zero(), (a, b)


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
        lambda c: filtration_value(c) == 2)
    g = level2.sorted_terms()[0][0]
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
        assert all(sigma[v] == v for v in range(g.n) if g.ext[v])
        assert sorted(tuple(sorted((sigma[u], sigma[v])))
                      for u, v in g.edges) == edges
    members = set(group)
    for sigma in group:
        for tau in group:
            assert tuple(sigma[tau[v]] for v in range(g.n)) in members


def test_automorphism_group():
    rng = random.Random(5)
    # the dihedral group of the rim, and S4 for the 3-wheel (K4)
    orders = {s: 2 * s for s in range(5, 32, 2)}
    orders[3] = 24
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


def brute_force_automorphisms(g):
    """Every permutation of the internal vertices of g that preserves
    its edge set, each a tuple mapping a vertex to its image, found by
    trying them all; and whether one of them permutes the edges oddly.
    """
    internal = g.internal_vertices()
    position = {e: i for i, e in enumerate(g.edges)}
    group, odd = set(), False
    for images in permutations(internal):
        sigma = list(range(g.n))
        for v, w in zip(internal, images):
            sigma[v] = w
        moved = [position.get(tuple(sorted((sigma[u], sigma[v]))))
                 for u, v in g.edges]
        if None not in moved:
            group.add(tuple(sigma))
            odd = odd or _permutation_parity(moved) < 0
    return group, odd


# K_{3,3} and the triangular prism: cubic, vertex-transitive, and with
# 72 and 12 automorphisms.
K33 = Graph(6, (False,) * 6, tuple((u, v) for u in range(3)
                                    for v in range(3, 6)))
PRISM = Graph(6, (False,) * 6,
              ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3),
               (1, 4), (2, 5)))


def test_automorphisms_match_brute_force():
    graphs = [wheel(3), wheel(5), WHEEL4, K33, PRISM, figure_eight(2, 2),
              figure_eight(2, 4), figure_eight(3, 3)]
    thetas = [theta_graph(grade, counts) for grade in (0, 1, 2)
              for counts in theta_shapes(grade, 7)]
    graphs += [g for g in thetas if len(g.internal_vertices()) <= 7]
    assert theta_graph(1, (2, 2, 1)) in graphs
    zeros = 0
    for g in graphs:
        group, odd = brute_force_automorphisms(g)
        found = automorphisms(g)
        if odd:
            zeros += 1
            assert found is None, g
        else:
            assert found is not None and set(found) == group, g
    assert 0 < zeros < len(graphs)


def test_insertion_counts():
    # inserting at a trivalent vertex reattaches three loose edges
    g1, g2 = wheel(3), wheel(5)
    term = insert_at(g1, 0, g2, (0, 0, 0))
    assert term.n == g1.n + g2.n - 1
    assert term.num_edges == g1.num_edges + g2.num_edges
    with pytest.raises(ValueError, match="one target per loose edge"):
        insert_at(g1, 0, g2, (0, 0))


def test_theta_identity():
    assert not failed_cases(check_theta_identity(None))


def test_theta_identity_searches_only_two_loop_markings(monkeypatch):
    # every labeling search of the check on a graph with an external
    # vertex (figure-eight splits, theta graphs, bowtie markings) is on
    # a graph with two internal loops
    searched = []
    label = canon._label

    def counting_label(g):
        searched.append(g)
        return label(g)

    monkeypatch.setattr(canon, "_label", counting_label)
    assert not failed_cases(check_theta_identity(None))
    marked = [g for g in searched if any(g.ext)]
    assert len(marked) < len(searched)
    assert [g for g in marked if internal_loop_count(g) != 2] == []


def test_encoding_searches_each_case_graph_once(monkeypatch):
    # the encoding reads the search that the differential stored on the
    # case graph, and takes the graph itself as its reference layout
    searched = []
    label = canon._label

    def counting_label(g):
        searched.append(g)
        return label(g)

    monkeypatch.setattr(canon, "_label", counting_label)
    cases = cli._theta_cases(7)
    assert len(cases) > 10
    for case in cases:
        monkeypatch.setattr(cli, "_theta_cases", lambda cap: [case])
        searched.clear()
        assert not failed_cases(check_encoding(7))
        g = theta_graph(*case)
        assert sum(s == g for s in searched) == 1, case


def mark_one_external_reference(g):
    """Every vertex marked, each marking with coefficient 1, through
    the admissibility check and canonical_sum: the plain definition of
    the marking map."""
    flags = tuple(i == 0 for i in range(g.n))
    marked = []
    for v in range(g.n):
        def remap(w):
            return 0 if w == v else (w + 1 if w < v else w)

        term = Graph(g.n, flags,
                     tuple((remap(a), remap(b)) for a, b in g.edges))
        try:
            icg_check(term)
        except ValueError:
            continue
        marked.append((term, 1))
    terms = {}
    canonical_sum(marked, terms)
    return GraphSum(terms)


def two_loop_marking_reference(gs):
    """The linear extension of mark_one_external_reference, restricted
    to the terms with two internal loops."""
    terms = {}
    for cls, coeff in gs.terms.items():
        for marked, x in mark_one_external_reference(cls).terms.items():
            if internal_loop_count(marked) == 2:
                terms[marked] = terms.get(marked, 0) + coeff * x
    return GraphSum(terms)


def test_two_loop_marking_matches_reference():
    for a, b in ((3, 5), (3, 7), (5, 7)):
        diff = bowtie_difference(a, b)
        got, want = two_loop_marking(diff), two_loop_marking_reference(diff)
        assert got == want, (a, b)
        assert list(got.terms) == list(want.terms)
        assert not got.is_zero()


def test_marking_orbits_match_reference():
    level2 = gc2_bracket(wheel_class(3), wheel_class(5)).restrict(
        lambda c: filtration_value(c) == 2)
    cases = [wheel(3), wheel(5), wheel(7), bowtie(3, 5), bowtie(5, 3)]
    cases += [cls for cls, _ in level2.sorted_terms()]
    assert len(cases) == 7
    for g in cases:
        got, want = mark_one_external_raw(g), mark_one_external_reference(g)
        assert got == want, g
        assert list(got.terms) == list(want.terms)
        assert not got.is_zero()
    assert mark_one_external_reference(WHEEL4).is_zero()
    assert mark_one_external_raw(WHEEL4).is_zero()


def test_marking_wheels():
    # all four markings of the 3-wheel give one class; the 5-wheel
    # splits into hub and rim orbits
    m3 = mark_one_external_raw(wheel(3))
    assert len(m3.terms) == 1
    assert sorted(m3.terms.values()) == [4]
    # a coefficient's sign follows the edge order of the canonical
    # representative, so the reference fixes the signs
    m5 = mark_one_external_raw(wheel(5))
    assert m5 == mark_one_external_reference(wheel(5))
    assert len(m5.terms) == 2
    assert sorted(map(abs, m5.terms.values())) == [1, 5]


def test_relation_is_boundary_on_graph_side():
    # the weight-12 bracket relation, read as a combination of theta
    # classes, is a boundary of grade-0 graphs: the graph complex agrees
    # with the polynomial and bracket derivations end to end
    from fractions import Fraction as F

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
    cls, sign = canonicalize(g)
    surviving = two_loop_marking(GraphSum({cls: sign}))
    assert len(surviving.terms) == 1
    remapped = tuple(
        (0 if u == top else (u + 1 if u < top else u),
         0 if v == top else (v + 1 if v < top else v))
        for u, v in g.edges)
    flags = tuple(i == 0 for i in range(g.n))
    want_cls, want_sign = canonicalize(
        Graph(g.n, flags, remapped), check=False)
    assert surviving.terms == {want_cls: Fraction(want_sign)}
