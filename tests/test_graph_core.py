import gc
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grt2.cli import check_d_squared
from grt2.graphs import (
    Graph,
    GraphSum,
    canonicalize,
    graph_from_text,
    graph_to_text,
)
from grt2.graphs import canon
from grt2.graphs.build import figure_eight, theta_graph, theta_shapes, wheel
from grt2.graphs.core import gc2_check, gc2_degree, icg_check
from helpers import check_canonicalize_invariance, failed_cases


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (False, False), ((0, 0),))  # simple loop
    with pytest.raises(ValueError):
        Graph(2, (False,), ((0, 1),))  # flag length
    with pytest.raises(ValueError, match="endpoint out of range"):
        Graph(2, (False, False), ((0, 2),))
    # a bool or float vertex count or endpoint is no int
    for n, edges, problem in [
        (True, (), "n must be an int, got True"),
        (3.0, ((0, 1),), "n must be an int, got 3.0"),
        (3, ((0, 1.0),), r"edge endpoints must be ints: \(0, 1.0\)"),
        (3, ((True, 2),), r"edge endpoints must be ints: \(True, 2\)"),
    ]:
        with pytest.raises(ValueError, match=problem):
            Graph(n, (True, False, False), edges)
    g = Graph(2, (True, False), ((1, 0),))
    assert g.edges == ((0, 1),)  # endpoints are stored sorted


def test_graph_stores_ext_as_tuple():
    # a list of flags is copied to a tuple, so the graph hashes and
    # canonicalizes like one built from a tuple
    w3 = wheel(3)
    g = Graph(4, [False] * 4, w3.edges)
    assert g.ext == (False,) * 4 and g == w3 and hash(g) == hash(w3)
    assert canonicalize(g) == canonicalize(w3)


def test_class_is_a_graph_distinct_from_raw_graphs():
    # a canonical class is a Graph, and being of its own exact type it
    # never equals a raw graph with the same edges: as dict keys the
    # two stay apart
    cls, _ = canonicalize(wheel(5))
    raw = Graph(cls.n, cls.ext, cls.edges)
    assert isinstance(cls, Graph)
    assert cls != raw and raw != cls and hash(cls) == hash(raw)
    assert len({cls: 1, raw: 2}) == 2
    with pytest.raises(AttributeError):
        cls.n = 0


def test_admissibility_names_condition():
    # an internal vertex of valence one
    g = Graph(2, (True, False), ((0, 1),))
    with pytest.raises(ValueError, match="valence"):
        icg_check(g)
    # double edge
    g = Graph(3, (True, False, False),
              ((0, 1), (0, 2), (1, 2), (1, 2), (0, 1)))
    with pytest.raises(ValueError, match="double"):
        icg_check(g)
    with pytest.raises(ValueError, match="no external vertex"):
        icg_check(wheel(3))
    # two internal triangles, every vertex also joined to the hair
    triangles = [(0, v) for v in range(1, 7)] + [
        (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    with pytest.raises(ValueError, match="not internally connected"):
        icg_check(Graph(7, (True,) + (False,) * 6, triangles))
    # a wheel beside an isolated external vertex
    apart = Graph(5, (True,) + (False,) * 4,
                  [(u + 1, v + 1) for u, v in wheel(3).edges])
    with pytest.raises(ValueError, match="internal part not joined"):
        icg_check(apart)


def test_gc2_admissibility_names_condition():
    assert gc2_check(wheel(3)) == wheel(3)
    with pytest.raises(ValueError, match="external vertex"):
        gc2_check(Graph(4, (True,) + (False,) * 3, wheel(3).edges))
    with pytest.raises(ValueError, match="valence 2 < 3"):
        gc2_check(Graph(3, (False,) * 3, ((0, 1), (1, 2), (0, 2))))
    two_wheels = wheel(3).edges + tuple(
        (u + 4, v + 4) for u, v in wheel(3).edges)
    with pytest.raises(ValueError, match="not connected"):
        gc2_check(Graph(8, (False,) * 8, two_wheels))


def test_degrees_and_weight():
    # the weight of a graph with one external vertex is that vertex's
    # valence
    theta = theta_graph(1, (2, 4, 0))
    assert theta.valences()[0] == 7
    w3 = wheel(3)
    assert gc2_degree(w3) == 0
    assert w3.n == 4 and w3.num_edges == 6
    w5 = wheel(5)
    assert gc2_degree(w5) == 0
    assert w5.n == 6 and w5.num_edges == 10


def test_wheel_rejects_even():
    with pytest.raises(ValueError):
        wheel(4)
    with pytest.raises(ValueError):
        wheel(2)
    for spokes in (7.0, True):
        with pytest.raises(ValueError,
                           match="spokes must be an int, got %r" % spokes):
            wheel(spokes)


@pytest.mark.parametrize("c1, c2, message", [
    (1, 3, "loops need at least two interior vertices"),
    (2.0, 3, "c1 must be an int, got 2.0"),
    (2, 3.0, "c2 must be an int, got 3.0"),
    (True, 3, "c1 must be an int, got True"),
])
def test_figure_eight_rejects_bad_loops(c1, c2, message):
    with pytest.raises(ValueError, match=message):
        figure_eight(c1, c2)


def test_theta_graph_shape():
    g = theta_graph(0, (2, 3, 4))
    assert g.n == 12  # external + two junctions + nine strand vertices
    assert g.valences()[0] == 11
    with pytest.raises(ValueError):
        theta_graph(1, (0, 0, 3))
    with pytest.raises(ValueError, match="non-negative"):
        theta_graph(1, (2, -1, 3))
    # a bool count used to build the graph of count 1
    for counts, bad in [((True, 2, 1), True), ((2.0, 1, 0), 2.0)]:
        with pytest.raises(ValueError, match="each hair count must be an "
                           "int, got %r" % bad):
            theta_graph(1, counts)


@pytest.mark.parametrize("grade", [5, -1, True, 1.0])
def test_theta_shapes_rejects_bad_grade(grade):
    # the error theta_graph raises, instead of a list of shapes
    with pytest.raises(ValueError, match="grade must be 0, 1 or 2"):
        theta_shapes(grade, 6)
    with pytest.raises(ValueError, match="grade must be 0, 1 or 2"):
        theta_graph(grade, (1, 1, 1))


@pytest.mark.parametrize("max_weight", [True, 5.0])
def test_theta_shapes_rejects_bad_max_weight(max_weight):
    # True used to give [] and 5.0 a TypeError from range
    with pytest.raises(ValueError, match="max_weight must be an int, got %r"
                       % max_weight):
        theta_shapes(1, max_weight)


def test_edge_transposition_flips_sign():
    g = theta_graph(1, (2, 4, 0))
    swapped = Graph(g.n, g.ext, (g.edges[1], g.edges[0]) + g.edges[2:])
    cls1, sign1 = canonicalize(g)
    cls2, sign2 = canonicalize(swapped)
    assert cls1 == cls2
    assert sign1 == -sign2


def test_zero_class_from_equal_strands():
    # equal hair counts on two strands allow an odd automorphism
    g = theta_graph(1, (2, 2, 1))
    cls, sign = canonicalize(g)
    assert cls is None and sign == 0


def test_double_edge_class_is_zero():
    g = Graph(4, (False,) * 4,
              ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3), (0, 3), (1, 2)))
    assert canonicalize(g, check=False) == (None, 0)


# The Frucht graph: cubic, on 12 vertices, with no automorphism but the
# identity.  Refinement cannot split its one root cell, so the search
# must try every vertex of it to find the canonical form.
FRUCHT = Graph(12, (False,) * 12,
               ((0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8),
                (3, 4), (3, 9), (4, 5), (4, 9), (5, 6), (5, 10), (6, 10),
                (7, 11), (8, 9), (8, 11), (10, 11)))


def test_canonicalize_invariance_randomized():
    rng = random.Random(51)
    graphs = [
        wheel(3),
        wheel(5),
        theta_graph(0, (2, 3, 4)),
        theta_graph(1, (2, 4, 0)),
        theta_graph(2, (3, 2, 1)),
        figure_eight(2, 4),
        FRUCHT,
    ]
    check_canonicalize_invariance(rng, graphs)


def test_canonicalize_past_64_vertices():
    # nothing in the search limits the number of vertices
    g = theta_graph(1, (40, 20, 10))
    assert g.n == 73
    assert canonicalize(g)[0] is not None
    check_canonicalize_invariance(random.Random(73), [g], samples=5)


def test_search_memo_seeds_canonical_representative():
    # the search result canonicalize stores on the class it returns is
    # what the class's own search returns, labelings included; the raw
    # graph it was given keeps nothing
    rng = random.Random(11)
    graphs = [wheel(3), wheel(5), wheel(7), figure_eight(2, 4),
              figure_eight(3, 3)]
    graphs += [theta_graph(grade, counts) for grade in (0, 1, 2)
               for counts in theta_shapes(grade, 7)]
    for g in list(graphs):
        internal = [v for v in range(g.n) if not g.ext[v]]
        perm = dict(zip(internal, rng.sample(internal, len(internal))))
        edges = [(perm.get(u, u), perm.get(v, v)) for u, v in g.edges]
        rng.shuffle(edges)
        graphs.append(Graph(g.n, g.ext, tuple(edges)))
    seeded = 0
    for g in graphs:
        cls, _ = canonicalize(g, check=False)
        assert g._search is None, g
        if cls is None:
            continue
        seeded += 1
        assert cls._search == canon._label(cls), g
    assert seeded > 20


def test_search_result_is_no_part_of_a_graph_value():
    g = theta_graph(1, (3, 2, 1))
    fresh = theta_graph(1, (3, 2, 1))
    text = repr(g)
    canon.automorphisms(g)
    assert g._search is not None and fresh._search is None
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == text


def test_graph_checks_leave_no_graph_behind():
    # a search result lives on its graph, so nothing outlives the check
    def graphs():
        gc.collect()
        return sum(isinstance(o, Graph) for o in gc.get_objects())

    before = graphs()
    assert not failed_cases(check_d_squared(5))
    assert graphs() == before


def test_graphsum_arithmetic():
    cls, sign = canonicalize(wheel(3))
    s = GraphSum({cls: sign})
    assert (s - s).is_zero()
    assert s + s == s.scale(2) == 2 * s
    assert (-s).terms[cls] == -sign
    assert len(s) == 1


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_graphsum_rejects_inexact_coefficient(bad):
    cls, sign = canonicalize(wheel(3))
    expected = re.escape(repr(cls)) + ".*" + re.escape(repr(bad))
    with pytest.raises(ValueError, match=expected):
        GraphSum({cls: bad})
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        GraphSum({cls: sign}).scale(bad)


def test_graphsum_has_no_product():
    s = GraphSum({canonicalize(wheel(3))[0]: 1})
    for left, right in ((s, s), (s, GraphSum.zero()), (GraphSum.zero(), s)):
        with pytest.raises(TypeError):
            left * right


def test_graphtext_round_trip():
    for g in (wheel(5), theta_graph(1, (2, 4, 0)), figure_eight(2, 4)):
        text = graph_to_text(g)
        back = graph_from_text(text)
        assert back == g
        assert graph_to_text(back) == text


def test_graphtext_errors():
    with pytest.raises(ValueError):
        graph_from_text("not a graph")
    with pytest.raises(ValueError):
        graph_from_text("V 2 E 1\nv 0 ext\nv 1 int\ne 5 0 1")


GOOD_BODY = "V 3 E 2\nv 0 ext\nv 1 int\nv 2 int\ne 0 0 1\ne 1 1 2\n"


def assert_rejects_line(text, line, problem=""):
    with pytest.raises(ValueError, match=re.escape(repr(line))) as info:
        graph_from_text(text)
    assert str(info.value).startswith(problem)


def test_graphtext_good_body_loads():
    g = graph_from_text(GOOD_BODY)
    assert g == Graph(3, (True, False, False), ((0, 1), (1, 2)))


def test_graphtext_rejects_negative_vertex_index():
    assert_rejects_line(GOOD_BODY + "v -1 ext\n", "v -1 ext")


def test_graphtext_rejects_out_of_range_vertex_index():
    assert_rejects_line(GOOD_BODY.replace("v 2 int", "v 3 int"), "v 3 int")


def test_graphtext_rejects_repeated_vertex():
    assert_rejects_line(GOOD_BODY.replace("v 2 int", "v 1 ext"), "v 1 ext")


def test_graphtext_rejects_duplicate_edge_rank():
    assert_rejects_line(GOOD_BODY.replace("e 1 1 2", "e 0 1 2"), "e 0 1 2")


def test_graphtext_rejects_extra_edge_lines():
    assert_rejects_line(GOOD_BODY + "e 1 0 2\n", "e 1 0 2")


def test_graphtext_rejects_out_of_range_endpoint():
    assert_rejects_line(GOOD_BODY.replace("e 1 1 2", "e 1 1 7"), "e 1 1 7")


def test_graphtext_rejects_loop_edge():
    assert_rejects_line(GOOD_BODY.replace("e 1 1 2", "e 1 2 2"), "e 1 2 2")


def test_graphtext_rejects_short_lines():
    assert_rejects_line(GOOD_BODY.replace("e 1 1 2", "e 1 1"), "e 1 1")
    assert_rejects_line(GOOD_BODY.replace("v 2 int", "v 2"), "v 2")


def test_graphtext_rejects_non_integer_fields():
    assert_rejects_line(GOOD_BODY.replace("e 1 1 2", "e 1 x 2"), "e 1 x 2")
    assert_rejects_line(GOOD_BODY.replace("V 3 E 2", "V 3 E two"),
                        "V 3 E two")


@pytest.mark.parametrize("good, line", [
    ("V 3 E 2", "V \u0663 E 2"), ("V 3 E 2", "V 3 E +2"),
    ("e 1 1 2", "e 0_1 1 2"), ("e 1 1 2", "e 1 1 \uff12"),
])
def test_graphtext_takes_ascii_digits_only(good, line):
    # an Arabic-Indic three, a plus sign, a digit separator and a
    # fullwidth two all pass int(), and none is a numeral of the format
    assert_rejects_line(GOOD_BODY.replace(good, line), line,
                        "expected integers in line")


@pytest.mark.parametrize("line, text, problem", [
    ("V 3 X 2", GOOD_BODY.replace("E", "X"), "malformed header"),
    ("V -1 E 0", "V -1 E 0\n", "negative count"),
    ("v 2 out", GOOD_BODY.replace("v 2 int", "v 2 out"), "vertex flag"),
    ("w 1 2", GOOD_BODY + "w 1 2\n", "unknown line"),
])
def test_graphtext_names_the_problem(line, text, problem):
    assert_rejects_line(text, line, problem)


def test_graphtext_rejects_missing_vertex_line():
    with pytest.raises(ValueError, match="vertex 0 "):
        graph_from_text("V 3 E 2\ne 0 0 1\ne 1 1 2\n")
    with pytest.raises(ValueError, match="vertex 2 "):
        graph_from_text(GOOD_BODY.replace("v 2 int\n", ""))


@st.composite
def shuffled_named_graphs(draw):
    """A wheel, theta graph or figure-eight with every vertex relabeled
    and the edge order shuffled.
    """
    kind = draw(st.sampled_from(("wheel", "theta", "figure-eight")))
    if kind == "wheel":
        g = wheel(draw(st.sampled_from((3, 5, 7))))
    elif kind == "theta":
        grade = draw(st.integers(0, 2))
        g = theta_graph(grade, draw(st.sampled_from(theta_shapes(grade, 8))))
    else:
        g = figure_eight(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    perm = draw(st.permutations(range(g.n)))
    ext = [None] * g.n
    for v in range(g.n):
        ext[perm[v]] = g.ext[v]
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    order = draw(st.permutations(range(len(edges))))
    return Graph(g.n, tuple(ext), tuple(edges[i] for i in order))


@settings(max_examples=100, deadline=None)
@given(shuffled_named_graphs())
def test_graphtext_round_trip_property(g):
    text = graph_to_text(g)
    back = graph_from_text(text)
    assert back == g
    assert graph_to_text(back) == text


@settings(max_examples=50, deadline=None)
@given(shuffled_named_graphs())
def test_graphtext_rejects_any_deleted_line(g):
    lines = graph_to_text(g).splitlines()
    for i in range(len(lines)):
        with pytest.raises(ValueError):
            graph_from_text("\n".join(lines[:i] + lines[i + 1:]) + "\n")
