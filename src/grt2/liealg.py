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

Both the bracket kernel and the symmetry check work in the difference
variables X = alpha-beta and Y = beta-gamma.  Every word of ad_x^n(y)
has one y, with coefficient (-1)^u C(n, u), so the encoded product of
two adjoint powers ad_x^A(y) ad_x^B(y) is X^A Y^B, and the encoded
bracket of two of them is a binary form of degree A+B whose
coefficients are short signed sums of binomials
(:func:`encoded_bracket_xy`); the bracket kernel is taken over those
k-1 coefficients.  The word-level definition (:func:`ad_power`,
:func:`ihara_bracket`, :func:`depth2_encode`) is kept as its reference.

In the same variables G = sum_i a_i X^(2i) Y^(k-2-2i) is a binary form
of degree k-2 whose coefficients are the a_i themselves.  Written
as substitutions, (13) sends X to -Y and Y to -X, and the two 3-cycles
send X to Y, Y to -X-Y and X to -X-Y, Y to X.  X and Y are
algebraically independent, so Q[X, Y] embeds in Q[alpha, beta, gamma],
and S3 maps that subring to itself by these substitutions; each
condition is therefore an identity between binary forms of degree k-2,
k-1 coefficients each, and holds there exactly when it holds for the
expanded G (:func:`symmetry_polynomial`) under the plain action.

Let G_i = X^(2i) Y^(k-2-2i) - X^(k-2-2i) Y^(2i), the antisymmetric
extension of the i-th unit vector.  G + (13).G = 0 holds for every
antisymmetric G, and G_i + (123).G_i + (132).G_i is the i-th encoded
bracket, term for term.  The bracket kernel is therefore the solution
space of both symmetry conditions (Schneps's characterization), and
:func:`schneps_check` tests one vector against the same columns.
"""

from __future__ import annotations

from math import comb

from .linalg import kernel_mod_image
from .poly import NCPoly, Poly3, nc_bracket
from .theta import (RelationVector, _check_int, _check_relation_weight,
                    generator_count)


def ad_power(n):
    """The expansion of ad_x^n(y) with the convention ad_x(y) = xy - yx."""
    _check_int("adjoint power", n)
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


def encoded_bracket_xy(i, k):
    """Depth-2 encoding of the bracket of the leading terms of the
    weight-(2i+1) and weight-(k-1-2i) generators, as a binary form in the
    difference variables: a dict from j to the coefficient of
    X^j Y^(k-2-j), zeros dropped.

    With f = ad_x^A(y), g = ad_x^B(y), A = 2i and B = k-2-2i, the two-y
    words of D_f(g), -D_g(f) and [f, g] encode to (X+Y)^B (Y^A - X^A),
    -(X+Y)^A (Y^B - X^B) and X^A Y^B - X^B Y^A; expanded through
    X = alpha-beta and Y = beta-gamma their sum is
    depth2_encode(ihara_bracket(ad_power(A), ad_power(B))).
    """
    _check_int("i", i)
    _check_int("weight k", k)
    if k % 2 or k < 8:
        raise ValueError("no bracket generator at weight k=%d (i=%d): the "
                         "weight must be even and >= 8" % (k, i))
    m = generator_count(k)
    if not 1 <= i <= m:
        raise ValueError("bracket generator index i=%d is outside 1..%d at "
                         "weight k=%d" % (i, m, k))
    a, b = 2 * i, k - 2 - 2 * i
    col = {a: 1, b: -1}  # X^A Y^B - X^B Y^A
    for n, e, s in ((b, a, 1), (a, b, -1)):
        for t in range(n + 1):  # s C(n, t) X^t Y^(n-t) (Y^e - X^e)
            c = s * comb(n, t)
            col[t] = col.get(t, 0) + c
            col[e + t] = col.get(e + t, 0) - c
    return {j: c for j, c in col.items() if c}


def bracket_kernel(k):
    """Relations among the weight-k bracket generators, computed as the
    exact kernel of the depth-2 encodings of the leading-term brackets.

    Each encoding is taken as its k-1 coefficients in the difference
    variables X and Y (see :func:`encoded_bracket_xy`).  X and Y are
    algebraically independent, so Q[X, Y] embeds in
    Q[alpha, beta, gamma], and a combination of encodings vanishes
    exactly when its X, Y coefficients do: the kernel, and so its reduced
    echelon basis, is the one over the alpha, beta, gamma monomials.
    """
    _check_relation_weight(k)
    cols = [encoded_bracket_xy(i, k)
            for i in range(1, generator_count(k) + 1)]
    basis = kernel_mod_image(cols, [], k - 1)
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
    _check_relation_weight(k)
    expected = (k - 4) // 2
    if len(full_coeffs) != expected:
        raise ValueError("weight %d takes %d extended coefficients, got %d"
                         % (k, expected, len(full_coeffs)))
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
    G + (123).G + (132).G = 0, for G the antisymmetric extension of its
    coefficients.  The first holds by construction, and the 3-cycle sum
    of G_i is the i-th encoded bracket (see the module docstring), so
    the test is that sum_i a_i encoded_bracket_xy(i, k) vanishes.
    """
    h = {}
    for i, a in enumerate(rv.coeffs, start=1):
        for j, c in encoded_bracket_xy(i, rv.weight).items():
            h[j] = h.get(j, 0) + a * c
    return not any(h.values())
