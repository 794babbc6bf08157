import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grt2.graphs import GraphSum, canonicalize
from grt2.graphs.build import figure_eight, theta_graph, wheel
from grt2.poly import (
    NCPoly,
    Poly2,
    Poly3,
    even_part,
    nc_bracket,
    odd_part,
    substitute_phi,
)
from helpers import random_poly2, random_poly3, ring_axiom_check


def test_zero_absorbs():
    p = Poly2({(1, 0): 1, (0, 1): 1})
    assert (p * Poly2.zero()).is_zero()
    assert (Poly2.zero() * p).is_zero()


def test_nc_concatenation():
    x, y = NCPoly.letter("x"), NCPoly.letter("y")
    assert x * y - y * x == NCPoly({"xy": 1, "yx": -1})


def test_square_expansion():
    x, y = Poly2.variable(0), Poly2.variable(1)
    p = x - y
    assert p * p == Poly2({(2, 0): 1, (1, 1): -2, (0, 2): 1})


def test_scale_and_subtract():
    p = Poly3({(1, 0, 0): Fraction(1, 2)})
    assert p.scale(2) == Poly3({(1, 0, 0): 1})
    assert (p - p).is_zero()
    assert 3 * p == p.scale(3)


def test_phi_kills_sum_of_variables():
    s = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert substitute_phi(s).is_zero()


def test_phi_z_squared():
    z2 = Poly3.monomial((0, 0, 2))
    assert substitute_phi(z2) == Poly2({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_phi_point_evaluation():
    # evaluating the image at (1, 1) agrees with the source at (1, 1, -2)
    m = Poly3.monomial((2, 3, 4))
    image = substitute_phi(m)
    assert image.evaluate((1, 1)) == m.evaluate((1, 1, -2)) == 16


def test_phi_is_ring_map():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly3(rng, max_degree=6)
        q = random_poly3(rng, max_degree=6)
        assert substitute_phi(p * q) == \
            substitute_phi(p) * substitute_phi(q)


def test_phi_kills_ideal():
    rng = random.Random(12)
    s = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    for _ in range(20):
        h = random_poly3(rng)
        assert substitute_phi(s * h).is_zero()


def test_parity_projections():
    p = Poly2({(1, 0): 1, (2, 0): 1})
    assert even_part(p) == Poly2({(2, 0): 1})
    assert odd_part(p) == Poly2({(1, 0): 1})
    xyz = Poly3.monomial((1, 1, 1))
    assert odd_part(xyz) == xyz and even_part(xyz).is_zero()


def test_even_part_of_symmetric_product():
    s = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    xy = Poly3.monomial((1, 1, 0))
    assert even_part(s * xy).is_zero()


def test_parity_parts_sum():
    rng = random.Random(13)
    for _ in range(10):
        p = random_poly3(rng)
        assert even_part(p) + odd_part(p) == p


def test_nc_bracket_basics():
    x, y = NCPoly.letter("x"), NCPoly.letter("y")
    assert nc_bracket(x, x).is_zero()
    assert nc_bracket(x, y) == NCPoly({"xy": 1, "yx": -1})
    assert nc_bracket(x, nc_bracket(x, y)) == \
        NCPoly({"xxy": 1, "xyx": -2, "yxx": 1})


def test_depth_and_weight():
    p = NCPoly({"xyx": 1, "yy": Fraction(1, 3)})
    assert p.depth() == 1
    assert p.weights() == [2, 3]
    with pytest.raises(ValueError):
        NCPoly.zero().depth()


def test_ring_axioms_randomized():
    rng = random.Random(14)
    ring_axiom_check(rng, lambda r: random_poly3(r, max_degree=4, terms=3))
    ring_axiom_check(rng, lambda r: random_poly2(r, max_degree=4, terms=3))

    def random_nc(r):
        words = ["", "x", "y", "xy", "yx", "xxy"]
        return NCPoly({r.choice(words): Fraction(r.randint(-4, 4) or 1)})

    ring_axiom_check(rng, random_nc)


def test_bracket_depth_additivity():
    rng = random.Random(15)
    words = ["x", "y", "xy", "yx", "xyy", "yxy", "xxy"]

    def random_nc(r):
        return NCPoly({r.choice(words): Fraction(r.randint(-4, 4) or 1),
                       r.choice(words): Fraction(r.randint(-4, 4) or 1)})

    for _ in range(30):
        a, b = random_nc(rng), random_nc(rng)
        br = nc_bracket(a, b)
        if a.is_zero() or b.is_zero() or br.is_zero():
            continue
        assert br.depth() >= a.depth() + b.depth()


def test_immutability():
    p = Poly3.monomial((1, 2, 3))
    with pytest.raises(AttributeError):
        p.terms = {}


BAD_COEFFICIENTS = [0.1, "1/3"]


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
def test_constructor_rejects_inexact_coefficient(bad):
    expected = re.escape("(1, 0, 0)") + ".*" + re.escape(repr(bad))
    with pytest.raises(ValueError, match=expected):
        Poly3({(0, 0, 1): 1, (1, 0, 0): bad})


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
def test_monomial_rejects_inexact_coefficient(bad):
    with pytest.raises(ValueError, match="'xy'.*" + re.escape(repr(bad))):
        NCPoly.monomial("xy", bad)


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
def test_scale_rejects_inexact_factor(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Poly2.variable(0).scale(bad)


def _add_keys(k1, k2):
    return tuple(map(operator.add, k1, k2))


EXPONENT = st.integers(0, 3)
GRAPH_CLASSES = [canonicalize(g)[0] for g in (
    wheel(3), wheel(5), theta_graph(1, (2, 4, 0)), figure_eight(2, 4))]
# each sparse-sum type, its key strategy and its product of keys (graph
# sums have none)
RINGS = {
    Poly2: (st.tuples(EXPONENT, EXPONENT), _add_keys),
    Poly3: (st.tuples(EXPONENT, EXPONENT, EXPONENT), _add_keys),
    NCPoly: (st.text("xy", max_size=3), operator.add),
    GraphSum: (st.sampled_from(GRAPH_CLASSES), None),
}
COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4))


def _reference_sum(*dicts):
    out = {}
    for d in dicts:
        for k, c in d.items():
            out[k] = out.get(k, Fraction(0)) + c
    return out


@pytest.mark.parametrize("ring", list(RINGS), ids=lambda r: r.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_reference(ring, data):
    keys, mul_key = RINGS[ring]
    a = data.draw(st.dictionaries(keys, COEFFICIENTS, max_size=4))
    b = data.draw(st.dictionaries(keys, COEFFICIENTS, max_size=4))
    c = data.draw(COEFFICIENTS)
    fa = {k: Fraction(v) for k, v in a.items()}
    fb = {k: Fraction(v) for k, v in b.items()}
    p, q = ring(a), ring(b)
    cases = [
        (p, fa),
        (p + q, _reference_sum(fa, fb)),
        (p - q, _reference_sum(fa, {k: -v for k, v in fb.items()})),
        (p.scale(c), {k: Fraction(c) * v for k, v in fa.items()}),
    ]
    if mul_key is not None:
        product = {}
        for k1, c1 in fa.items():
            for k2, c2 in fb.items():
                k = mul_key(k1, k2)
                product[k] = product.get(k, Fraction(0)) + c1 * c2
        cases.append((p * q, product))
    for got, want in cases:
        assert got.terms == {k: v for k, v in want.items() if v}
        for v in got.terms.values():
            assert type(v) is (int if v.denominator == 1 else Fraction), v
