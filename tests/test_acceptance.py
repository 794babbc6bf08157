"""Acceptance suite: one check per shipped claim, one printed line each.

Run under pytest (``pytest -s tests/test_acceptance.py``) or directly
(``python3 tests/test_acceptance.py``); every criterion prints a
``criterion N PASS`` line and any failure raises.  All comparisons are
exact; there are no tolerances anywhere.

Where the command line asserts a claim itself (the oracle cross-check of
``relations --oracle all`` and the ``graphs --check`` suites), the
criterion runs that same check from ``grt2.cli``.
"""

import random
from fractions import Fraction

from grt2.cli import (
    check_bowtie,
    check_d_squared,
    check_encoding,
    check_filtration,
    check_theta_identity,
    relations_report,
)
from grt2.liealg import schneps_check
from grt2.linalg import normalize_integer_vector
from grt2.perms import sign_coinvariant_normal_form
from grt2.poly import Poly2, Poly3
from grt2.theta import (
    RelationVector,
    closed_form_dim,
    cohomology_dim,
    generator_count,
    relation_space,
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
    failed_cases,
    in_span,
    plain_action,
    relation_count,
    sign_action,
    theta_relation,
)


def report(number, description, ok, failed=()):
    """Print the criterion's line and raise unless it passed; ``failed``
    names the cases that did not.
    """
    print("criterion %d %s: %s" % (number, "PASS" if ok else "FAIL",
                                   description))
    assert ok, "criterion %d failed: %s%s" % (
        number, description, "".join("\n  " + case for case in failed))


def cross_check_failures(weights):
    """The failure lines of ``relations --oracle all`` at each weight."""
    return ["weight %d: %s" % (k, failure) for k in weights
            for failure in relations_report(k, "all")["failures"]]


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
        got_vec = normalize_integer_vector(
            [got.terms.get(m, 0) for m in monos])
        want_vec = normalize_integer_vector(
            [Fraction(table.get(m, 0)) for m in monos])
        ok = ok and got_vec == want_vec
    report(2, "projection images match the published tables up to one "
              "scalar per line", ok)


def test_criterion_3_bracket_relations():
    failed = cross_check_failures(range(8, 30, 2))
    ok = not failed
    for k in range(8, 30, 2):
        ok = ok and len(relation_space(k)) == relation_count(k)
    twelve = relation_space(12)
    ok = ok and len(twelve) == 1 and twelve[0].coeffs == (1, -3)
    basis24 = [[Fraction(c) for c in v.coeffs] for v in relation_space(24)]
    ok = ok and len(basis24) == 2
    ok = ok and in_span(basis24, [Fraction(c)
                                  for c in (10, -33, 44, -33, 20)])
    ok = ok and in_span(basis24, [Fraction(c)
                                  for c in (-242, 805, -1106, 915, -672)])
    report(3, "the three oracles give identical relation spaces with the "
              "published counts and vectors", ok, failed)


def test_criterion_4_symmetry_criterion():
    failed = cross_check_failures(range(8, 30, 2))
    ok = not failed
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
    report(4, "the solutions of the symmetry criterion (the Ihara kernel) "
              "span the relation space and random non-kernel vectors fail "
              "it", ok, failed)


def test_criterion_5_graph_polynomial_bridge():
    from grt2.graphs.build import theta_graph, theta_shapes
    from grt2.graphs.canon import canonicalize

    failed = failed_cases(check_d_squared(9), check_encoding(9))
    ok = not failed
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
    report(5, "graph splitting matches the d0 matrix that dims ranks on "
              "every theta shape of weight <= 9, with d0^2 = 0", ok, failed)


def test_criterion_6_graph_identities():
    failed = failed_cases(check_theta_identity(None), check_filtration(11),
                          check_bowtie(None))
    report(6, "splitting, filtration and bowtie identities hold on the "
              "graph side", not failed, failed)


def test_criterion_7_property_suites():
    from grt2.graphs.build import figure_eight, theta_graph, wheel

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
