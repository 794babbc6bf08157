"""Ihara brackets of adjoint powers and the depth-2 relation oracle.

The weight-(2k+1) generators of the Lie algebra under study are only
known through their leading terms ad_x^(2k)(y).  Because the derivation
in the Ihara bracket raises depth by the depth of its index, the bracket
of two generators agrees with the bracket of the leading terms up to
terms with three or more y letters.  The depth-2 component is therefore
computed exactly from the leading terms, and a linear combination of
brackets vanishes modulo depth 3 precisely when the corresponding
combination of depth-2 components vanishes.

Words with exactly two y letters, x^u y x^v y x^w, are encoded as the
commutative monomials alpha^u beta^v gamma^w; the symmetric group then
acts by plainly permuting exponents, and a coefficient vector gives a
relation if and only if the encoded sum G satisfies both symmetry
conditions G + (13).G = 0 and G + (123).G + (132).G = 0.
"""

from __future__ import annotations

from math import comb

from .linalg import kernel_mod_image
from .poly import NCPoly, Poly3, nc_bracket
from .theta import RelationVector, generator_count, _check_relation_weight


def ad_power(n):
    """The expansion of ad_x^n(y) with the convention ad_x(y) = xy - yx."""
    if n < 0:
        raise ValueError("adjoint power must be non-negative")
    terms = {}
    for u in range(n + 1):
        word = "x" * (n - u) + "y" + "x" * u
        terms[word] = (-1) ** u * comb(n, u)
    return NCPoly(terms)


def apply_derivation(index, w):
    """The derivation sending x to 0 and y to [y, index], extended by the
    Leibniz rule and applied to w.
    """
    out = {}

    def add(word, coeff):
        out[word] = out.get(word, 0) + coeff

    for word, coeff in w.terms.items():
        for i, letter in enumerate(word):
            if letter != "y":
                continue
            head, tail = word[:i], word[i + 1:]
            for pword, pcoeff in index.terms.items():
                add(head + "y" + pword + tail, coeff * pcoeff)
                add(head + pword + "y" + tail, -coeff * pcoeff)
    return NCPoly(out)


def ihara_bracket(a, b):
    """D_a(b) - D_b(a) + [a, b]."""
    return apply_derivation(a, b) - apply_derivation(b, a) + nc_bracket(a, b)


def depth2_encode(p):
    """Keep the words with exactly two y letters and record the three
    runs of x as a commutative monomial.
    """
    out = {}
    for word, coeff in p.terms.items():
        if word.count("y") != 2:
            continue
        first = word.index("y")
        second = word.index("y", first + 1)
        key = (first, second - first - 1, len(word) - second - 1)
        out[key] = out.get(key, 0) + coeff
    return Poly3(out)


def encoded_bracket_generator(i, k):
    """Depth-2 encoding of the bracket of the leading terms of the
    weight-(2i+1) and weight-(k-1-2i) generators.
    """
    return depth2_encode(ihara_bracket(ad_power(2 * i), ad_power(k - 2 - 2 * i)))


def bracket_kernel(k):
    """Relations among the weight-k bracket generators, computed as the
    exact kernel of the depth-2 encodings of the leading-term brackets.
    """
    _check_relation_weight(k)
    m = generator_count(k)
    cols = [encoded_bracket_generator(i, k) for i in range(1, m + 1)]
    monomials = sorted({key for col in cols for key in col.terms})
    index = {mono: r for r, mono in enumerate(monomials)}
    sparse = [{index[key]: c for key, c in col.terms.items()} for col in cols]
    basis = kernel_mod_image(sparse, [], len(monomials))
    return [RelationVector(k, tuple(v)) for v in basis]


def extend_coefficients(k, coeffs):
    """Extend reduced coefficients (a_1 .. a_m) antisymmetrically to the
    full index range 1 <= i <= (k-4)/2, with a_i = -a_(k/2-1-i) and a
    vanishing middle entry when the range has one.
    """
    _check_relation_weight(k)
    m = generator_count(k)
    if len(coeffs) != m:
        raise ValueError("expected %d coefficients for weight %d" % (m, k))
    full = [0] * ((k - 4) // 2 + 1)  # 1-based
    for i, a in enumerate(coeffs, start=1):
        full[i] = a
        full[k // 2 - 1 - i] = -a
    return full[1:]


def symmetry_polynomial(k, full_coeffs):
    """G = sum_i a_i (alpha-beta)^(2i) (beta-gamma)^(k-2-2i), expanded by
    the binomial theorem: with n = k-2-2i, the term alpha^p
    beta^(2i-p+q) gamma^(n-q) carries a_i C(2i,p) C(n,q) (-1)^(2i-p+n-q).
    """
    terms = {}
    for i, a in enumerate(full_coeffs, start=1):
        if a == 0:
            continue
        n = k - 2 - 2 * i
        for p in range(2 * i + 1):
            ap = a * comb(2 * i, p)
            for q in range(n + 1):
                key = (p, 2 * i - p + q, n - q)
                c = ap * comb(n, q)
                if (2 * i - p + n - q) % 2:
                    c = -c
                terms[key] = terms.get(key, 0) + c
    return Poly3(terms)


def schneps_check(rv):
    """Whether a relation vector satisfies both symmetry conditions of
    the depth-2 classification, G + (13).G = 0 and
    G + (123).G + (132).G = 0, read off the coefficients g of G: the
    first holds iff g[p,q,r] + g[r,q,p] = 0 on every key of G, as (13)
    is an involution, and the second iff the sum over the 3-cycle orbit
    of every key of G vanishes, as each key of the sum lies in the orbit
    of a key of G and carries that orbit's sum.
    """
    full = extend_coefficients(rv.weight, rv.coeffs)
    g = symmetry_polynomial(rv.weight, full).terms
    get = g.get
    for (p, q, r), c in g.items():
        if c + get((r, q, p), 0):
            return False
    for (p, q, r), c in g.items():
        if c + get((q, r, p), 0) + get((r, p, q), 0):
            return False
    return True
