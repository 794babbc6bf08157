import random
from fractions import Fraction

import pytest

from grt2.linalg import rank_of_columns
from grt2.perms import (
    CYCLE_123,
    IDENTITY,
    S3,
    SWAP_12,
    SWAP_13,
    Perm3,
    is_normal_form,
    sign_coinvariant_normal_form,
)
from grt2.poly import Poly2, Poly3
from helpers import (
    check_equivariance,
    check_group_laws,
    check_induced_group_laws,
    induced_action,
    plain_action,
    random_poly3,
    sign_action,
    substitute_phi,
)


def test_sign_action_examples():
    m = Poly3.monomial((2, 3, 4))
    assert sign_action(IDENTITY, m) == m
    assert sign_action(SWAP_12, m) == Poly3({(3, 2, 4): -1})
    xyz = Poly3.monomial((1, 1, 1))
    assert sign_action(CYCLE_123, xyz) == xyz


def test_plain_action_examples():
    assert plain_action(SWAP_13, Poly3.monomial((2, 0, 4))) == \
        Poly3.monomial((4, 0, 2))
    assert plain_action(CYCLE_123, Poly3.monomial((1, 2, 3))) == \
        Poly3.monomial((2, 3, 1))


def test_plain_action_on_binomial_powers():
    # (13) carries (a-b)^2 (b-g)^4 onto (g-b)^2 (b-a)^4
    ab = Poly3({(1, 0, 0): 1, (0, 1, 0): -1})
    bg = Poly3({(0, 1, 0): 1, (0, 0, 1): -1})
    gb, ba = -bg, -ab
    lhs = plain_action(SWAP_13, ab * ab * bg * bg * bg * bg)
    assert lhs == gb * gb * ba * ba * ba * ba


def test_induced_action_examples():
    m = Poly2.monomial((2, 4))
    assert induced_action(IDENTITY, m) == m
    assert induced_action(SWAP_12, m) == Poly2({(4, 2): -1})


def test_induced_action_on_lifted_power():
    # (13) on x^4 y^4 equals minus (x + y)^4 y^4
    m = Poly2.monomial((4, 4))
    xy = Poly2({(1, 0): 1, (0, 1): 1})
    assert induced_action(SWAP_13, m) == \
        -(xy * xy * xy * xy) * Poly2.monomial((0, 4))


def test_perm3_rejects_a_non_permutation():
    for images in ((0, 1, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            Perm3(images)


def test_group_laws_all_actions():
    rng = random.Random(21)
    check_group_laws(sign_action, rng)
    check_group_laws(plain_action, rng)
    check_induced_group_laws(rng)


def test_equivariance():
    check_equivariance(random.Random(22), samples=25, max_degree=8)


def test_lift_independence():
    # any lift works: lifting with a nonzero z-exponent shifted into the
    # ideal gives the same induced action
    rng = random.Random(23)
    s = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    for _ in range(10):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        base = Poly3.monomial((a, b, 0))
        lift = base + s * random_poly3(rng, max_degree=3, terms=2)
        for perm in S3:
            assert substitute_phi(sign_action(perm, lift)) == \
                induced_action(perm, Poly2.monomial((a, b)))


def test_normal_form_examples():
    assert sign_coinvariant_normal_form(Poly3.monomial((2, 2, 1))).is_zero()
    assert sign_coinvariant_normal_form(Poly3.monomial((2, 3, 0))) == \
        Poly3({(3, 2, 0): -1})
    m = Poly3.monomial((4, 2, 0))
    assert sign_coinvariant_normal_form(m) == m
    assert is_normal_form(m)


def test_normal_form_idempotent_and_invariant():
    rng = random.Random(24)
    for _ in range(20):
        p = random_poly3(rng)
        nf = sign_coinvariant_normal_form(p)
        assert sign_coinvariant_normal_form(nf) == nf
        for perm in S3:
            assert sign_coinvariant_normal_form(sign_action(perm, p)) == nf


def test_normal_form_kernel_dimension():
    # in each degree <= 10 the kernel of the normal form is exactly the
    # span of p - sigma.p, detected through its dimension
    for degree in range(1, 11):
        monos = [
            (a, b, degree - a - b)
            for a in range(degree + 1)
            for b in range(degree + 1 - a)
        ]
        index = {m: i for i, m in enumerate(monos)}
        strict = [m for m in monos if m[0] > m[1] > m[2]]
        rows = []
        for m in monos:
            nf = sign_coinvariant_normal_form(Poly3.monomial(m))
            row = [Fraction(0)] * len(strict)
            for key, c in nf.terms.items():
                row[strict.index(key)] = c
            rows.append(row)
        assert rank_of_columns(rows) == len(strict)
        # the span of p - sigma.p is killed
        for m in monos:
            p = Poly3.monomial(m)
            for perm in S3:
                moved = p - sign_action(perm, p)
                assert sign_coinvariant_normal_form(moved).is_zero()
        # and its dimension matches the rank-nullity count
        span_rows = []
        for m in monos:
            p = Poly3.monomial(m)
            for perm in S3:
                moved = p - sign_action(perm, p)
                row = [Fraction(0)] * len(monos)
                for key, c in moved.terms.items():
                    row[index[key]] = c
                span_rows.append(row)
        assert rank_of_columns(span_rows) == len(monos) - len(strict)
