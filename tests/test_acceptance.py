"""Acceptance suite: one check per shipped claim, one printed line each.

Run under pytest (``pytest -s tests/test_acceptance.py``) or directly
(``python3 tests/test_acceptance.py``); every criterion prints a
``criterion N PASS`` line and any failure raises.  All comparisons are
exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from grt2.liealg import bracket_kernel, schneps_check
from grt2.linalg import in_span, normalize_integer_vector, span_equal
from grt2.perms import sign_coinvariant_normal_form
from grt2.poly import Poly2, Poly3
from grt2.theta import (
    RelationVector,
    ThetaElement,
    closed_form_dim,
    cohomology_dim,
    d0_theta,
    generator_count,
    relation_count,
    relation_space,
    relation_space_psi,
    theta_relation,
)

from helpers import (
    check_canonicalize_invariance,
    check_equivariance,
    check_group_laws,
    check_ihara_antisymmetry,
    check_ihara_depth_additivity,
    check_ihara_jacobi,
    check_induced_group_laws,
    check_psi_inverse,
)


def report(number, description, ok):
    print("criterion %d %s: %s" % (number, "PASS" if ok else "FAIL",
                                   description))
    assert ok, "criterion %d failed: %s" % (number, description)


def test_criterion_1_dimension_theorem():
    ok = True
    for k in range(1, 52):
        ok = ok and cohomology_dim(0, k) == 0
        ok = ok and cohomology_dim(1, k) == closed_form_dim(1, k)
    for k in range(1, 51):
        ok = ok and cohomology_dim(2, k) == closed_form_dim(2, k)
    report(1, "cohomology dimensions match floor(k/6) through weight 51", ok)


PUBLISHED = {
    (3, 4): {(4, 6): -3, (2, 8): 1},
    (4, 6): {(6, 8): 11, (4, 10): -7, (2, 12): 2},
    (5, 6): {(6, 10): 26, (4, 12): -25, (2, 14): 8},
    (5, 8): {(8, 10): -13, (6, 12): 14, (4, 14): -10, (2, 16): 3},
    (6, 8): {(8, 12): -85, (6, 14): 136, (4, 16): -105, (2, 18): 32},
}


def test_criterion_2_relation_tables():
    ok = True
    for (a, b), table in PUBLISHED.items():
        got = theta_relation(a, b)
        monos = sorted(set(got.terms) | set(table))
        got_vec = normalize_integer_vector([got.coeff(m) for m in monos])
        want_vec = normalize_integer_vector(
            [Fraction(table.get(m, 0)) for m in monos])
        ok = ok and got_vec == want_vec
    report(2, "projection images match the published tables up to one "
              "scalar per line", ok)


def test_criterion_3_bracket_relations():
    ok = True
    for k in range(8, 30, 2):
        rank_oracle = [[Fraction(c) for c in v.coeffs]
                       for v in relation_space(k)]
        psi_oracle = [[Fraction(c) for c in v.coeffs]
                      for v in relation_space_psi(k)]
        ihara_oracle = [[Fraction(c) for c in v.coeffs]
                        for v in bracket_kernel(k)]
        ok = ok and span_equal(rank_oracle, psi_oracle)
        ok = ok and span_equal(rank_oracle, ihara_oracle)
        ok = ok and len(rank_oracle) == relation_count(k)
    twelve = relation_space(12)
    ok = ok and len(twelve) == 1 and twelve[0].coeffs == (1, -3)
    basis24 = [[Fraction(c) for c in v.coeffs] for v in relation_space(24)]
    ok = ok and len(basis24) == 2
    ok = ok and in_span(basis24, [Fraction(c)
                                  for c in (10, -33, 44, -33, 20)])
    ok = ok and in_span(basis24, [Fraction(c)
                                  for c in (-242, 805, -1106, 915, -672)])
    report(3, "the three oracles give identical relation spaces with the "
              "published counts and vectors", ok)


def test_criterion_4_symmetry_criterion():
    ok = True
    for k in range(8, 30, 2):
        for oracle in (relation_space, relation_space_psi, bracket_kernel):
            for vec in oracle(k):
                ok = ok and schneps_check(vec)
    rng = random.Random(20260810)
    for k in range(8, 22, 2):
        m = generator_count(k)
        kernel = [[Fraction(c) for c in v.coeffs] for v in relation_space(k)]
        found = 0
        while found < 100:
            vec = tuple(rng.randint(-9, 9) for _ in range(m))
            if all(c == 0 for c in vec):
                continue
            if in_span(kernel, [Fraction(c) for c in vec]):
                continue
            found += 1
            ok = ok and not schneps_check(RelationVector(k, vec))
    report(4, "every emitted relation passes the symmetry criterion and "
              "random non-kernel vectors fail it", ok)


def test_criterion_5_graph_polynomial_bridge():
    from grt2.graphs.build import theta_graph, theta_shapes
    from grt2.graphs.canon import canonicalize
    from grt2.graphs.ops import (icg_differential, icg_differential_raw,
                                 theta_graph_encode, theta_sum_encode)

    ok = True
    for grade in (0, 1):
        for counts in theta_shapes(grade, 9):
            g = theta_graph(grade, counts)
            first = icg_differential_raw(g)
            image = theta_sum_encode(first)
            lhs = image.get(grade + 1,
                            ThetaElement(grade + 1, Poly3.zero()))
            rhs = d0_theta(theta_graph_encode(g))
            ok = ok and lhs.value == rhs.value
            ok = ok and icg_differential(first).is_zero()
    # the vanishing classes land on both sides in the same place
    for grade in (0, 1, 2):
        for counts in theta_shapes(grade, 9):
            cls, _ = canonicalize(theta_graph(grade, counts))
            deg = sum(counts)
            lemma_zero = (grade == 0 and deg % 2 == 0) or \
                (grade == 2 and deg % 2 == 1) or \
                sign_coinvariant_normal_form(
                    Poly3.monomial(counts)).is_zero()
            ok = ok and (cls is None) == lemma_zero
    report(5, "graph splitting matches the polynomial differential on "
              "every theta shape of weight <= 9, with d0^2 = 0", ok)


def test_criterion_6_graph_identities():
    from grt2.graphs.build import figure_eight, theta_graph
    from grt2.graphs.canon import canonicalize
    from grt2.graphs.core import GraphSum
    from grt2.graphs.ops import (bowtie_difference, filtration_value,
                                 gc2_bracket, icg_differential_raw,
                                 mark_one_external, two_loop_part,
                                 wheel_class)

    ok = True
    for i2, j2 in ((2, 4), (2, 6), (4, 6)):
        image = icg_differential_raw(figure_eight(i2, j2))
        cls, sign = canonicalize(theta_graph(1, (i2, j2, 0)))
        marked = two_loop_part(
            mark_one_external(bowtie_difference(i2 + 1, j2 + 1)))
        ok = ok and image == marked + GraphSum({cls: 4 * sign})
    from grt2.graphs.build import wheel

    for spokes in (3, 5, 7):
        ok = ok and filtration_value(wheel(spokes)) == 1
    br35 = gc2_bracket(wheel_class(3), wheel_class(5))
    br37 = gc2_bracket(wheel_class(3), wheel_class(7))
    for br in (br35, br37):
        ok = ok and not br.is_zero()
        ok = ok and all(filtration_value(c.graph) >= 2 for c in br.terms)
    level2 = br35.restrict(lambda c: filtration_value(c.graph) == 2)
    diff = bowtie_difference(3, 5)
    ok = ok and set(level2.terms) == set(diff.terms)
    if ok:
        ratios = {level2.terms[c] / diff.terms[c] for c in diff.terms}
        ok = len(ratios) == 1 and 0 not in ratios
    report(6, "splitting, filtration and bowtie identities hold on the "
              "graph side", ok)


def test_criterion_7_property_suites():
    from grt2.graphs.build import figure_eight, theta_graph, wheel
    from grt2.perms import plain_action, sign_action

    rng = random.Random(77)
    check_group_laws(sign_action, rng)
    check_group_laws(plain_action, rng)
    check_induced_group_laws(rng)
    check_equivariance(rng, samples=25, max_degree=8)
    for degree in range(2, 27, 2):
        check_psi_inverse(degree)
    # psi is the identity on its canonical span
    from grt2.theta import psi

    for a in range(2, 12, 2):
        for b in range(a + 2, 14, 2):
            mono = Poly2.monomial((a, b))
            assert psi(mono) == mono
    check_ihara_antisymmetry(rng)
    check_ihara_jacobi(rng)
    check_ihara_depth_additivity(rng)
    check_canonicalize_invariance(
        rng,
        [wheel(3), wheel(5), theta_graph(0, (2, 3, 4)),
         theta_graph(1, (2, 4, 0)), figure_eight(2, 4)])
    report(7, "module invariants hold under the stated randomized and "
              "exhaustive regimes", True)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(exc)
    raise SystemExit(1 if failures else 0)
