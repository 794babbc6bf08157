import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from grt2.liealg import bracket_kernel
from grt2.perms import IDENTITY, S3, SWAP_12
from grt2.poly import Poly2, Poly3
from grt2.theta import (
    _d0_columns,
    _induced_difference,
    _psi_monomial,
    RelationVector,
    ThetaElement,
    closed_form_dim,
    cohomology_dim,
    d0_theta,
    generator_count,
    psi,
    relation_space,
    relation_space_psi,
    theta_monomials,
    weight_slice_basis,
)
from helpers import (
    check_psi_inverse,
    in_span,
    induced_action,
    relation_count,
    relation_space_psi_all_perms,
    theta_relation,
)

# the published relation table: seed exponents -> exact projection image
PUBLISHED_RELATIONS = {
    (3, 4): {(4, 6): Fraction(-3, 2), (2, 8): Fraction(1, 2)},
    (4, 6): {(6, 8): Fraction(11, 3), (4, 10): Fraction(-7, 3),
             (2, 12): Fraction(2, 3)},
    (5, 6): {(6, 10): Fraction(26, 12), (4, 12): Fraction(-25, 12),
             (2, 14): Fraction(8, 12)},
    (5, 8): {(8, 10): Fraction(-13, 2), (6, 12): Fraction(14, 2),
             (4, 14): Fraction(-10, 2), (2, 16): Fraction(3, 2)},
    (6, 8): {(8, 12): Fraction(-85, 10), (6, 14): Fraction(136, 10),
             (4, 16): Fraction(-105, 10), (2, 18): Fraction(32, 10)},
}

# weight-24 relations as published, ascending bracket order
K24_FIRST = (10, -33, 44, -33, 20)
K24_SECOND = (-242, 805, -1106, 915, -672)


def test_theta_element_validation():
    with pytest.raises(ValueError):
        ThetaElement(0, Poly3.monomial((3, 1, 0)))  # even degree in grade 0
    with pytest.raises(ValueError):
        ThetaElement(2, Poly3.monomial((2, 1, 0)))  # odd degree in grade 2
    for grade in (3, True, 1.0):
        with pytest.raises(ValueError, match="grade must be 0, 1 or 2"):
            ThetaElement(grade, Poly3.zero())
    elem = ThetaElement(1, Poly3.monomial((2, 3, 0)))
    assert elem.value == Poly3({(3, 2, 0): -1})  # normalized on entry


def test_d0_grade0_example():
    elem = ThetaElement(0, Poly3.monomial((3, 2, 0)))
    image = d0_theta(elem)
    assert image.grade == 1
    assert image.value == Poly3({(4, 2, 0): 2, (3, 2, 1): 2})


def test_d0_grade1_even_input_dies():
    elem = ThetaElement(1, Poly3.monomial((2, 4, 0)))
    assert d0_theta(elem).value.is_zero()


def test_d0_grade1_odd_example():
    elem = ThetaElement(1, Poly3.monomial((3, 4, 0)))
    image = d0_theta(elem)
    assert image.grade == 2
    assert image.value == Poly3({(5, 3, 0): -1, (4, 3, 1): -1})


def test_d0_rejects_top_grade():
    with pytest.raises(ValueError):
        d0_theta(ThetaElement(2, Poly3.monomial((4, 2, 0))))


def test_d0_squared_vanishes():
    for weight in range(3, 32):
        for mono in weight_slice_basis(0, weight):
            elem = ThetaElement(0, Poly3.monomial(mono))
            assert d0_theta(d0_theta(elem)).value.is_zero(), mono


def test_weight_slice_examples():
    assert weight_slice_basis(2, 2) == []
    assert weight_slice_basis(1, 7) == [(5, 1, 0), (4, 2, 0), (3, 2, 1)]
    assert weight_slice_basis(0, 3) == []
    for grade in (0, 1, 2):
        for weight in range(1, 40):
            basis = weight_slice_basis(grade, weight)
            assert basis == sorted(basis, reverse=True), (grade, weight)
    with pytest.raises(ValueError, match="grade must be 0, 1 or 2"):
        weight_slice_basis(-1, 7)
    for weight in (True, 7.0):
        with pytest.raises(ValueError,
                           match="weight must be an int, got %r" % weight):
            weight_slice_basis(1, weight)


def test_cohomology_dims_small():
    for k in (1, 5, 9, 14, 20):
        assert cohomology_dim(0, k) == 0
    assert cohomology_dim(1, 7) == 1
    assert cohomology_dim(1, 5) == 0
    assert cohomology_dim(2, 6) == 1
    assert cohomology_dim(2, 7) == 0
    for k in range(1, 26):
        for i in (0, 1, 2):
            assert cohomology_dim(i, k) == closed_form_dim(i, k), (i, k)


@pytest.mark.parametrize("i, k, message", [
    (5, 7, "degree must be 0, 1 or 2"),
    (-1, 6, "degree must be 0, 1 or 2"),
    (1, 0, "weight must be >= 1"),
    (True, 5, "degree must be 0, 1 or 2"),
    (1, 7.0, "weight must be an int, got 7.0"),
    (1, True, "weight must be an int, got True"),
])
def test_closed_form_dim_rejects_what_cohomology_dim_rejects(i, k, message):
    for dim in (cohomology_dim, closed_form_dim):
        with pytest.raises(ValueError, match=message):
            dim(i, k)


def test_cohomology_dims_match_closed_form_through_101():
    for k in range(1, 102):
        for i in (0, 1, 2):
            assert cohomology_dim(i, k) == closed_form_dim(i, k), (i, k)


def test_d0_columns_match_d0_theta():
    # the direct construction against the polynomial definition
    for grade in (0, 1):
        for k in range(1, 61):
            target = {m: i for i, m in
                      enumerate(weight_slice_basis(grade + 1, k))}
            expect = []
            for mono in weight_slice_basis(grade, k):
                image = d0_theta(ThetaElement(grade, Poly3.monomial(mono)))
                expect.append({target[key]: c
                               for key, c in image.value.terms.items()})
            assert _d0_columns(grade, k) == expect, (grade, k)


def test_psi_boundary_branches():
    assert psi(Poly2.monomial((0, 6))).is_zero()
    assert psi(Poly2.monomial((4, 0))).is_zero()
    for b in (5, 7, 9):
        assert psi(Poly2.monomial((1, b))) == Poly2({(2, b - 1): -1})
    # at b = 3 the image runs through the diagonal, which vanishes
    assert psi(Poly2.monomial((1, 3))).is_zero()
    m = Poly2.monomial((2, 4))
    assert psi(m) == m
    assert psi(Poly2.monomial((6, 2))) == Poly2({(2, 6): -1})


def test_psi_diagonal_vanishes():
    # the swap branch applies to the diagonal and forces antisymmetry
    for a in (2, 3, 4, 5, 8):
        assert psi(Poly2.monomial((a, a))).is_zero()


def test_psi_odd_recursion_value():
    # hand expansion of the recursion at (3, 7):
    # -(1/4) [ psi(x^4 y^6) + 6 psi(x^2 y^8) + psi(x^4 y^6) + 4 psi(x y^9) ]
    assert psi(Poly2.monomial((3, 7))) == \
        Poly2({(4, 6): Fraction(-1, 2), (2, 8): Fraction(-1, 2)})
    # at (3, 3) the recursion cancels to zero outright
    assert psi(Poly2.monomial((3, 3))).is_zero()


def test_psi_rejects_odd_degree():
    with pytest.raises(ValueError):
        psi(Poly2.monomial((1, 2)))


def test_psi_is_projection_onto_normal_span():
    rng = random.Random(31)
    for _ in range(20):
        a = rng.randint(0, 8)
        b = rng.randint(0, 8)
        if (a + b) % 2:
            b += 1
        image = psi(Poly2.monomial((a, b)))
        for (u, v) in image.terms:
            assert 2 <= u < v and u % 2 == 0 and v % 2 == 0
        assert psi(image) == image


@lru_cache(maxsize=None)
def reference_psi_monomial(a, b):
    """The projection of x^a y^b by the recursion in Fractions, as a
    dict, written here independently of the scaled cache in grt2.theta.
    """
    if a == 0 or b == 0 or a == b:
        out = {}
    elif a > b:
        out = {k: -c for k, c in reference_psi_monomial(b, a).items()}
    elif a % 2 == 0:
        out = {(a, b): Fraction(1)}
    else:
        acc = {}
        terms = [(a + 1, b - 1, 1)]
        terms += [(j, a + b - j, comb(a + 1, j)) for j in range(2, a + 2, 2)]
        terms += [(j, a + b - j, comb(a + 1, j)) for j in range(1, a - 1, 2)]
        for u, v, mult in terms:
            for k, c in reference_psi_monomial(u, v).items():
                acc[k] = acc.get(k, 0) + mult * c
        out = {k: Fraction(-c, a + 1) for k, c in acc.items() if c}
    return out


def test_psi_matches_fraction_recursion_through_degree_40():
    for n in range(0, 41, 2):
        for a in range(n + 1):
            image = psi(Poly2.monomial((a, n - a)))
            assert image == Poly2(reference_psi_monomial(a, n - a)), (a, n)
            assert psi(Poly2.monomial((a, n - a), Fraction(3, 7))) == \
                image.scale(Fraction(3, 7))
    for a in range(41):
        for b in range(a % 2, 41 - a, 2):
            assert all(type(c) is int for _, c in _psi_monomial(a, b)), (a, b)


def test_psi_inverts_inclusion():
    for degree in range(2, 27, 2):
        check_psi_inverse(degree)


def test_published_relation_table():
    for (a, b), expect in PUBLISHED_RELATIONS.items():
        assert theta_relation(a, b) == Poly2(expect), (a, b)


def test_theta_relation_zero_seed_is_legal():
    # seeds whose projection happens to vanish report no relation
    assert theta_relation(1, 2).is_zero()


def test_relation_vector_normalization():
    rv = RelationVector(12, (Fraction(-1, 2), Fraction(3, 2)))
    assert rv.coeffs == (1, -3)
    with pytest.raises(ValueError):
        RelationVector(12, (1, 2, 3))
    with pytest.raises(ValueError):
        RelationVector(11, (1,))


def test_relation_vector_equality_needs_weight_and_coefficients():
    rv = RelationVector(12, (1, -3))
    assert rv == RelationVector(12, (2, -6))
    assert hash(rv) == hash(RelationVector(12, (2, -6)))
    assert rv != RelationVector(12, (1, 0))  # same weight
    assert rv != RelationVector(14, (1, -3))  # same coefficients
    assert rv != (12, (1, -3))


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_relation_vector_rejects_inexact_coefficient(bad):
    with pytest.raises(ValueError, match="entry 0 .*" + repr(bad)):
        RelationVector(12, (bad, Fraction(1, 3)))


def test_relation_space_small_weights():
    assert relation_space(10) == []
    vecs = relation_space(12)
    assert len(vecs) == 1 and vecs[0].coeffs == (1, -3)
    # every oracle checks that its weight is an int before using it
    for oracle in (relation_space, relation_space_psi, bracket_kernel):
        for k in (12.0, True):
            with pytest.raises(ValueError,
                               match="weight must be an int, got %r" % k):
                oracle(k)
        with pytest.raises(ValueError, match="even and >= 8"):
            oracle(11)


def test_relation_space_counts():
    for k in range(8, 42, 2):
        assert len(relation_space(k)) == relation_count(k), k


def test_relation_space_contains_published_k24():
    basis = [[Fraction(c) for c in v.coeffs] for v in relation_space(24)]
    assert len(basis) == 2
    assert in_span(basis, [Fraction(c) for c in K24_FIRST])
    assert in_span(basis, [Fraction(c) for c in K24_SECOND])


def test_psi_rows_match_induced_action_through_weight_60():
    # sigma_* v - v built from binomials, for every non-identity sigma,
    # against the Poly3 round trip of helpers.induced_action
    for k in range(8, 61, 2):
        for u in range(k - 1):
            v = k - 2 - u
            base = Poly2.monomial((u, v))
            for perm in S3:
                if perm == IDENTITY:
                    continue
                expect = induced_action(perm, base) - base
                row = Poly2(_induced_difference(perm, u, v))
                assert row == expect, (perm, u, v)
                assert psi(row) == psi(expect), (perm, u, v)


def test_psi_of_swap_rows_vanishes():
    # (12)_* x^u y^v = -x^v y^u and psi is antisymmetric under the swap
    for k in range(8, 61, 2):
        for u in range(k - 1):
            row = Poly2(_induced_difference(SWAP_12, u, k - 2 - u))
            assert psi(row).is_zero(), (k, u)


def test_cycle_rows_span_all_permutation_rows():
    # the (123) rows of the psi oracle span what the rows of all five
    # non-identity permutations span
    for k in range(8, 81, 2):
        assert relation_space_psi(k) == relation_space_psi_all_perms(k), k


def test_theta_relation_lands_in_relation_space():
    for k in range(8, 26, 2):
        basis = [[Fraction(c) for c in v.coeffs] for v in relation_space(k)]
        monos = theta_monomials(k)
        for a in range(1, (k - 2) // 2):
            b = k - 2 - 2 * a
            if b < 1:
                continue
            image = theta_relation(a, b)
            assert set(image.terms) <= set(monos), (k, a)
            vec = [image.terms.get(m, 0) for m in monos]
            assert in_span(basis, vec), (k, a)


def test_generator_bookkeeping():
    assert generator_count(12) == 2
    assert theta_monomials(12) == [(2, 8), (4, 6)]
    assert relation_count(12) == 1
