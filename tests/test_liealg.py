import random
from fractions import Fraction

import pytest

from grt2.liealg import (
    ad_power,
    apply_derivation,
    bracket_kernel,
    depth2_encode,
    encoded_bracket_xy,
    extend_coefficients,
    ihara_bracket,
    schneps_check,
    symmetry_polynomial,
)
from grt2.cli import relations_report
from grt2.linalg import kernel_mod_image
from grt2.perms import CYCLE_123, CYCLE_132, SWAP_13
from grt2.poly import NCPoly, Poly3
from grt2.theta import RelationVector, generator_count, relation_space
from helpers import (
    check_ihara_antisymmetry,
    check_ihara_depth_additivity,
    check_ihara_jacobi,
    encoded_bracket_generator,
    expand_xy,
    plain_action,
    relation_count,
)


def test_ad_power_small():
    assert ad_power(0) == NCPoly({"y": 1})
    assert ad_power(1) == NCPoly({"xy": 1, "yx": -1})
    assert ad_power(2) == NCPoly({"xxy": 1, "xyx": -2, "yxx": 1})
    with pytest.raises(ValueError, match="must be non-negative"):
        ad_power(-1)
    for n in (True, 2.0):
        with pytest.raises(ValueError,
                           match="adjoint power must be an int, got %r" % n):
            ad_power(n)


def test_ad_power_is_iterated_bracket():
    from grt2.poly import nc_bracket

    x = NCPoly.monomial("x")
    value = NCPoly.monomial("y")
    for n in range(6):
        assert ad_power(n) == value
        value = nc_bracket(x, value)


def test_derivation_on_generators():
    index = ad_power(2)
    assert apply_derivation(index, NCPoly.monomial("x")).is_zero()
    y = NCPoly.monomial("y")
    assert apply_derivation(index, y) == y * index - index * y


def test_derivation_leibniz():
    index = NCPoly({"xy": 1})
    xy = NCPoly({"xy": 1})
    y = NCPoly.monomial("y")
    x = NCPoly.monomial("x")
    assert apply_derivation(index, xy) == x * (y * index - index * y)


def test_ihara_self_bracket_vanishes():
    for n in (2, 4):
        a = ad_power(n)
        assert ihara_bracket(a, a).is_zero()


def test_ihara_bracket_depth_two():
    br = ihara_bracket(ad_power(2), ad_power(4))
    assert not br.is_zero()
    assert br.depth() == 2
    assert all(w.count("y") == 2 for w in br.terms)


def test_ihara_properties_randomized():
    rng = random.Random(41)
    check_ihara_antisymmetry(rng)
    check_ihara_jacobi(rng)
    check_ihara_depth_additivity(rng)


def test_depth2_encode_examples():
    assert depth2_encode(NCPoly({"xyxyx": 1})) == Poly3.monomial((1, 1, 1))
    assert depth2_encode(NCPoly({"xyyy": 1})).is_zero()
    ab = Poly3({(1, 0, 0): 1, (0, 1, 0): -1})
    bg = Poly3({(0, 1, 0): 1, (0, 0, 1): -1})
    assert depth2_encode(ad_power(2) * ad_power(2)) == ab * ab * bg * bg


def test_extend_coefficients():
    assert extend_coefficients(12, (1, -3)) == [1, -3, 3, -1]
    assert extend_coefficients(10, (1,)) == [1, 0, -1]
    with pytest.raises(ValueError):
        extend_coefficients(12, (1,))


def test_symmetry_polynomial_matches_encoding():
    # the encoded leading-term product is the binomial-power polynomial
    k = 12
    for i in (1, 2, 3, 4):
        g = symmetry_polynomial(k, [1 if j == i else 0
                                    for j in range(1, (k - 4) // 2 + 1)])
        assert g == depth2_encode(ad_power(2 * i) * ad_power(k - 2 - 2 * i))


def test_symmetry_polynomial_matches_product_definition():
    alpha_beta = Poly3({(1, 0, 0): 1, (0, 1, 0): -1})
    beta_gamma = Poly3({(0, 1, 0): 1, (0, 0, 1): -1})
    rng = random.Random(4711)
    for k in range(8, 39, 2):
        full = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range((k - 4) // 2)]
        full[rng.randrange(len(full))] = Fraction(0)
        expect = Poly3.zero()
        for i, a in enumerate(full, start=1):
            term = Poly3.monomial((0, 0, 0), a)
            for _ in range(2 * i):
                term = term * alpha_beta
            for _ in range(k - 2 - 2 * i):
                term = term * beta_gamma
            expect = expect + term
        assert symmetry_polynomial(k, full) == expect, k


def test_schneps_examples():
    assert schneps_check(RelationVector(12, (1, -3)))
    assert not schneps_check(RelationVector(12, (1, 0)))
    assert schneps_check(RelationVector(12, (0, 0)))


def test_schneps_scaling_invariance():
    rv = RelationVector(12, (1, -3))
    scaled = RelationVector(12, (Fraction(-7, 3), 7))
    assert schneps_check(rv) == schneps_check(scaled)
    assert scaled.coeffs == (1, -3)  # normalization is projective anyway


def test_schneps_check_matches_poly3_definition():
    # both symmetry conditions written with the S3 action on Poly3 in
    # alpha, beta, gamma; integer combinations of a relation basis
    # satisfy them, random integer vectors almost never do
    rng = random.Random(907)
    outcomes = set()
    for k in range(8, 61, 2):
        basis = relation_space(k)
        m = (k - 4) // 4
        for trial in range(8):
            if trial % 2:
                coeffs = [sum(rng.randint(-5, 5) * v.coeffs[i] for v in basis)
                          for i in range(m)]
            else:
                coeffs = [rng.randint(-5, 5) for _ in range(m)]
            rv = RelationVector(k, tuple(coeffs))
            g = symmetry_polynomial(k, extend_coefficients(k, rv.coeffs))
            expect = (g + plain_action(SWAP_13, g)).is_zero() and (
                g + plain_action(CYCLE_123, g)
                + plain_action(CYCLE_132, g)).is_zero()
            assert schneps_check(rv) == expect, (k, rv)
            outcomes.add(expect)
    assert outcomes == {True, False}


def test_symmetry_polynomial_rejects_wrong_length():
    # weight 8 has (8-4)//2 = 2 extended coefficients; extra ones used
    # to be dropped silently
    with pytest.raises(ValueError, match="takes 2 extended coefficients, "
                                         "got 5"):
        symmetry_polynomial(8, [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="takes 4 extended coefficients, "
                                         "got 1"):
        symmetry_polynomial(12, [1])
    with pytest.raises(ValueError, match="even and >= 8"):
        symmetry_polynomial(9, [1, 2])


def test_bracket_kernel_published_values():
    assert bracket_kernel(10) == []
    vecs = bracket_kernel(12)
    assert len(vecs) == 1 and vecs[0].coeffs == (1, -3)
    vecs = bracket_kernel(16)
    assert len(vecs) == 1 and vecs[0].coeffs == (2, -7, 11)


def test_bracket_kernel_counts():
    for k in range(8, 30, 2):
        assert len(bracket_kernel(k)) == relation_count(k), k


def test_kernel_agreement_with_rank_oracle():
    # the cross-check of `relations --oracle all`: span agreement of the
    # psi and Ihara oracles with the rank oracle; the Ihara kernel is the
    # solution space of the symmetry criterion
    for k in range(8, 30, 2):
        assert relations_report(k, "all")["failures"] == [], k


def test_encoded_generator_degree():
    enc = encoded_bracket_generator(1, 12)
    assert {sum(key) for key in enc.terms} == {10}
    xy = encoded_bracket_xy(1, 12)
    assert xy and all(0 <= j <= 10 for j in xy)


def test_encoded_bracket_generator_matches_word_level_reference():
    # the alpha, beta, gamma reference against the NCPoly definition, for
    # every generator of every even weight 8..40
    for k in range(8, 41, 2):
        for i in range(1, generator_count(k) + 1):
            expect = depth2_encode(
                ihara_bracket(ad_power(2 * i), ad_power(k - 2 - 2 * i)))
            assert encoded_bracket_generator(i, k) == expect, (i, k)


def test_encoded_bracket_xy_matches_word_level_reference():
    # the X, Y coefficients expanded through X = alpha-beta and
    # Y = beta-gamma, against the NCPoly definition, for every generator
    # of every even weight 8..40
    for k in range(8, 41, 2):
        for i in range(1, generator_count(k) + 1):
            expect = depth2_encode(
                ihara_bracket(ad_power(2 * i), ad_power(k - 2 - 2 * i)))
            assert expand_xy(encoded_bracket_xy(i, k), k - 2) == expect, \
                (i, k)


def test_bracket_kernel_matches_kernel_over_all_monomials():
    # bracket_kernel eliminates over the X, Y coefficients; the kernel
    # over every alpha, beta, gamma monomial of the encodings is the same
    for k in range(8, 61, 2):
        cols = [encoded_bracket_generator(i, k).terms
                for i in range(1, generator_count(k) + 1)]
        monomials = sorted({key for col in cols for key in col})
        index = {mono: r for r, mono in enumerate(monomials)}
        sparse = [{index[key]: c for key, c in col.items()} for col in cols]
        expect = [RelationVector(k, tuple(v))
                  for v in kernel_mod_image(sparse, [], len(monomials))]
        assert bracket_kernel(k) == expect, k


@pytest.mark.parametrize("i, k, message", [
    (1, 9, "weight k=9"),
    (1, 6, "weight k=6"),
    (0, 12, "i=0 is outside 1..2 at weight k=12"),
    (3, 12, "i=3 is outside 1..2 at weight k=12"),
    (-1, 12, "i=-1 is outside 1..2 at weight k=12"),
    (True, 12, "i must be an int, got True"),
    (1.0, 12, "i must be an int, got 1.0"),
    (1, 12.0, "weight k must be an int, got 12.0"),
    (1, True, "weight k must be an int, got True"),
])
def test_encoded_bracket_generator_rejects_bad_index(i, k, message):
    with pytest.raises(ValueError, match=message):
        encoded_bracket_xy(i, k)


def test_encoded_bracket_is_three_cycle_sum():
    # Schneps's identity: with G_i the antisymmetric extension of the
    # i-th unit vector, the encoded bracket is G_i + (123).G_i + (132).G_i
    # under the S3 action on the expanded G_i, so the bracket kernel is
    # the solution space of the symmetry criterion
    for k in range(8, 41, 2):
        for i in range(1, generator_count(k) + 1):
            unit = [int(j == i) for j in range(1, generator_count(k) + 1)]
            g = symmetry_polynomial(k, extend_coefficients(k, unit))
            expect = g + plain_action(CYCLE_123, g) + plain_action(
                CYCLE_132, g)
            assert expand_xy(encoded_bracket_xy(i, k), k - 2) == expect, \
                (i, k)


def test_oracles_agree_weights_30_to_160():
    # a wider range than the published one, through the cross-check of
    # `relations --oracle all`
    for k in range(30, 161, 2):
        report = relations_report(k, "all")
        assert report["failures"] == [], (k, report["failures"])
        assert len(report["vectors"]["rank"]) == relation_count(k), k
