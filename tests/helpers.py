"""Shared generators and property routines for the test suite.

The randomized property checks live here so the per-module tests and the
acceptance suite exercise exactly the same regimes.
"""

from fractions import Fraction
from math import comb

from grt2.liealg import ihara_bracket
from grt2.linalg import Echelon, row_space_basis
from grt2.perms import IDENTITY, S3
from grt2.poly import NCPoly, Poly2, Poly3, nc_bracket
from grt2.theta import RelationVector, generator_count, psi, theta_monomials


# -- references written on the polynomial rings ------------------------------


def substitute_phi(p):
    """Ring map Poly3 -> Poly2 with x -> x, y -> y, z -> -x - y.

    Kills exactly the ideal generated by x + y + z, hence computes the
    canonical representative of p in the quotient by that ideal.
    """
    out = {}
    for (a, b, c), coeff in p.terms.items():
        # (-x-y)^c = sum_j (-1)^c C(c,j) x^j y^(c-j)
        for j in range(c + 1):
            key = (a + j, b + c - j)
            out[key] = out.get(key, 0) + coeff * (-1) ** c * comb(c, j)
    return Poly2(out)


def evaluate(p, vals):
    """The value of a commutative polynomial at a point."""
    total = Fraction(0)
    for key, coeff in p.terms.items():
        for val, exp in zip(vals, key):
            coeff = coeff * val ** exp
        total += coeff
    return total


def sign_action(perm, p):
    """Permute exponent triples and multiply by the permutation's parity."""
    s = perm.sign
    return Poly3({perm.permute(k): s * c for k, c in p.terms.items()})


def plain_action(perm, p):
    """Permute exponent triples with no sign."""
    return Poly3({perm.permute(k): c for k, c in p.terms.items()})


def induced_action(perm, p):
    """The action on two-variable polynomials obtained from the sign
    action by lifting x^a y^b to x^a y^b z^0 and projecting back through
    z -> -x - y.  Any lift works since the projection kills x + y + z.
    """
    lifted = Poly3({(a, b, 0): c for (a, b), c in p.terms.items()})
    return substitute_phi(sign_action(perm, lifted))


def theta_relation(a, b):
    """psi applied to x^a y^b (-x-y)^a, the seeds of the published
    tables; a nonzero result is a linear relation among the grade-1
    theta classes of total degree 2a + b.
    """
    return psi(substitute_phi(Poly3.monomial((a, b, a))))


def relation_space_psi_all_perms(k):
    """The psi oracle with one row psi(sigma_* v - v) per monomial v of
    degree k-2 and per non-identity sigma in S3, the action taken through
    :func:`induced_action`.
    """
    monos = theta_monomials(k)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for u in range(k - 1):
        base = Poly2.monomial((u, k - 2 - u))
        for perm in S3:
            if perm == IDENTITY:
                continue
            moved = psi(induced_action(perm, base) - base)
            if not moved.is_zero():
                row = [0] * len(monos)
                for key, c in moved.terms.items():
                    row[index[key]] = c
                rows.append(row)
    return [RelationVector(k, tuple(v)) for v in row_space_basis(rows)]


def _signed_binomials(n):
    """The coefficients (-1)^u C(n, u), u = 0 .. n, of ad_x^n(y)."""
    row = [1]
    for u in range(n):
        row.append(-row[-1] * (n - u) // (u + 1))
    return row


def encoded_bracket_generator(i, k):
    """Depth-2 encoding of the bracket of the leading terms of the
    weight-(2i+1) and weight-(k-1-2i) generators, as a Poly3 in alpha,
    beta, gamma.

    With f = ad_x^A(y), g = ad_x^B(y), A = 2i, B = k-2-2i and
    c = (-1)^(u+v) C(A,u) C(B,v), the word pair (u, v) gives the six
    two-y words below, encoded as (alpha, beta, gamma) exponents: two
    from D_f(g), two from -D_g(f) and two from [f, g].  This equals
    depth2_encode(ihara_bracket(ad_power(A), ad_power(B))).
    """
    if k % 2 or k < 8:
        raise ValueError("no bracket generator at weight k=%d (i=%d): the "
                         "weight must be even and >= 8" % (k, i))
    m = generator_count(k)
    if not 1 <= i <= m:
        raise ValueError("bracket generator index i=%d is outside 1..%d at "
                         "weight k=%d" % (i, m, k))
    a, b = 2 * i, k - 2 - 2 * i
    fb = _signed_binomials(b)
    terms = {}
    get = terms.get
    for u, cu in enumerate(_signed_binomials(a)):
        for v, cv in enumerate(fb):
            c = cu * cv
            s = u + v
            for key, x in (((b - v, a - u, s), c), ((a + b - s, u, v), -c),
                           ((a - u, b - v, s), -c), ((a + b - s, v, u), c),
                           ((a - u, u + b - v, v), c),
                           ((b - v, v + a - u, u), -c)):
                terms[key] = get(key, 0) + x
    return Poly3(terms)


def expand_xy(coeffs, d):
    """sum_j coeffs[j] X^j Y^(d-j) as a Poly3 in alpha, beta, gamma, with
    X = alpha - beta and Y = beta - gamma, by the binomial theorem.
    """
    terms = {}
    for j, c in coeffs.items():
        for p in range(j + 1):
            cp = c * comb(j, p) * (-1) ** (j - p)
            for q in range(d - j + 1):
                key = (p, j - p + q, d - j - q)
                terms[key] = terms.get(key, 0) \
                    + cp * comb(d - j, q) * (-1) ** (d - j - q)
    return Poly3(terms)


def relation_count(k):
    """The proven number of weight-k relations."""
    return (k - 4) // 4 - (k - 2) // 6


def in_span(vectors, target):
    """Whether target lies in the linear span of the given vectors."""
    return Echelon(vectors).add(target) is not None


def failed_cases(*check_results):
    """The names of the failed cases of ``grt2.cli`` graph checks."""
    return [name for results in check_results
            for name, ok in results if not ok]


# -- random inputs and property routines -------------------------------------


def random_poly3(rng, max_degree=6, terms=4):
    out = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, max_degree // 2) for _ in range(3))
        out[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly3(out)


def random_poly2(rng, max_degree=6, terms=4):
    out = {}
    for _ in range(terms):
        key = (rng.randint(0, max_degree), rng.randint(0, max_degree))
        out[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly2(out)


def random_lie_element(rng, weight):
    """A random element of the free Lie algebra of the given weight,
    built from nested commutators of the letters.
    """
    if weight == 1:
        return NCPoly.monomial("x" if rng.random() < 0.5 else "y")
    split = rng.randint(1, weight - 1)
    left = random_lie_element(rng, split)
    right = random_lie_element(rng, weight - split)
    return nc_bracket(left, right)


def check_group_laws(action, rng, samples=3):
    """(s t).p == s.(t.p) and id.p == p over all 36 pairs."""
    from grt2.perms import IDENTITY

    for _ in range(samples):
        p = random_poly3(rng)
        assert action(IDENTITY, p) == p
        for s in S3:
            for t in S3:
                assert action(s @ t, p) == action(s, action(t, p))


def check_induced_group_laws(rng, samples=3):
    from grt2.perms import IDENTITY

    for _ in range(samples):
        p = random_poly2(rng)
        assert induced_action(IDENTITY, p) == p
        for s in S3:
            for t in S3:
                assert induced_action(s @ t, p) == \
                    induced_action(s, induced_action(t, p))


def check_equivariance(rng, samples=20, max_degree=8):
    """induced_action(s, phi(p)) == phi(sign_action(s, p))."""
    for _ in range(samples):
        p = random_poly3(rng, max_degree=max_degree)
        for s in S3:
            assert induced_action(s, substitute_phi(p)) == \
                substitute_phi(sign_action(s, p))


def even_slice_monomials(degree):
    return [(a, degree - a) for a in range(degree + 1)]


def symmetrized_span_rows(degree):
    """Vectors q - sigma_* q over the degree slice, as coordinate rows."""
    monos = even_slice_monomials(degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        base = Poly2.monomial(m)
        for s in S3:
            moved = base - induced_action(s, base)
            row = [Fraction(0)] * len(monos)
            good = True
            for key, c in moved.terms.items():
                if key not in index:
                    good = False
                    break
                row[index[key]] = c
            if good and any(row):
                rows.append(row)
    return monos, rows


def check_psi_inverse(degree):
    """x^a y^b - psi(x^a y^b) lies in the span of q - sigma_* q, for every
    monomial of the given even degree: the projection inverts the
    inclusion at the level of coinvariants.
    """
    monos, rows = symmetrized_span_rows(degree)
    index = {m: i for i, m in enumerate(monos)}
    span = Echelon(rows)
    for m in monos:
        diff = Poly2.monomial(m) - psi(Poly2.monomial(m))
        vec = {index[key]: c for key, c in diff.terms.items()}
        # a vector in the span reduces to zero and leaves span unchanged
        assert span.add(vec) is not None, m


def check_ihara_antisymmetry(rng, samples=15, max_weight=6):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        assert ihara_bracket(a, b) + ihara_bracket(b, a) == NCPoly.zero()
        assert ihara_bracket(a, a).is_zero()


def check_ihara_jacobi(rng, samples=8, max_weight=4):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        c = random_lie_element(rng, rng.randint(1, max_weight))
        total = ihara_bracket(a, ihara_bracket(b, c)) \
            + ihara_bracket(b, ihara_bracket(c, a)) \
            + ihara_bracket(c, ihara_bracket(a, b))
        assert total.is_zero()


def check_ihara_depth_additivity(rng, samples=25, max_weight=6):
    for _ in range(samples):
        a = random_lie_element(rng, rng.randint(1, max_weight))
        b = random_lie_element(rng, rng.randint(1, max_weight))
        if a.is_zero() or b.is_zero():
            continue
        br = ihara_bracket(a, b)
        if not br.is_zero():
            assert br.depth() >= a.depth() + b.depth()


def check_canonicalize_invariance(rng, graphs, samples=10):
    """Relabeling internal vertices or reordering edges changes the
    canonical form in the tracked way only.
    """
    from grt2.graphs.canon import canonicalize
    from grt2.graphs.core import Graph

    for g in graphs:
        cls, sign = canonicalize(g, check=False)
        internal = [v for v in range(g.n) if not g.ext[v]]
        for _ in range(samples):
            perm = dict(zip(internal, rng.sample(internal, len(internal))))
            mapped = [tuple(sorted((perm.get(u, u), perm.get(v, v))))
                      for u, v in g.edges]
            order = list(range(len(mapped)))
            rng.shuffle(order)
            parity = _permutation_parity(order)
            shuffled = Graph(g.n, g.ext, tuple(mapped[i] for i in order))
            cls2, sign2 = canonicalize(shuffled, check=False)
            assert cls2 == cls
            if cls is not None:
                assert sign2 == sign * parity
            if cls is not None:
                # idempotence on the canonical representative
                cls3, sign3 = canonicalize(cls, check=False)
                assert cls3 == cls and sign3 == 1


def _permutation_parity(order):
    inv = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    return -1 if inv % 2 else 1


def ring_axiom_check(rng, make_random, samples=10):
    """Associativity and distributivity on random triples."""
    for _ in range(samples):
        a, b, c = make_random(rng), make_random(rng), make_random(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
