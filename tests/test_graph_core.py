import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grt2.graphs import (
    Graph,
    GraphSum,
    canonicalize,
    graph_from_text,
    graph_to_text,
)
from grt2.graphs.build import figure_eight, theta_graph, theta_shapes, wheel
from grt2.graphs.core import gc2_degree, icg_check, icg_degree, weight
from helpers import check_canonicalize_invariance


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (False, False), ((0, 0),))  # simple loop
    with pytest.raises(ValueError):
        Graph(2, (False,), ((0, 1),))  # flag length
    g = Graph(2, (True, False), ((1, 0),))
    assert g.edges == ((0, 1),)  # endpoints are stored sorted


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


def test_degrees_and_weight():
    theta = theta_graph(1, (2, 4, 0))
    assert icg_degree(theta) == 1
    assert weight(theta) == 7
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


def test_theta_graph_shape():
    g = theta_graph(0, (2, 3, 4))
    assert g.n == 12  # external + two junctions + nine strand vertices
    assert weight(g) == 11
    with pytest.raises(ValueError):
        theta_graph(1, (0, 0, 3))


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


def test_canonicalize_invariance_randomized():
    rng = random.Random(51)
    graphs = [
        wheel(3),
        wheel(5),
        theta_graph(0, (2, 3, 4)),
        theta_graph(1, (2, 4, 0)),
        theta_graph(2, (3, 2, 1)),
        figure_eight(2, 4),
    ]
    check_canonicalize_invariance(rng, graphs)


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


def assert_rejects_line(text, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        graph_from_text(text)


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
