"""The three-term complex of hairy theta graphs in polynomial form.

Graphs of theta shape with one external vertex are encoded by monomials
x^k1 y^k2 z^k3 recording the hair counts on the three main strands; the
grade 0, 1, 2 counts how many of the two junction vertices still carry a
hair (2, 1 or 0).  Under the sign action of S3 the three components are

    C0 = odd polynomials,  C1 = all polynomials,  C2 = even polynomials
    of positive degree,

all taken modulo the sign action, and the differential is multiplication
by (x + y + z) -- doubled out of grade 0, and projected onto the even
part out of grade 1.  The weight of a homogeneous element of total
degree n in grade g is n + 2 - g; the differential preserves it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .linalg import (
    kernel_mod_image,
    normalize_integer_vector,
    rank_of_columns,
    row_space_basis,
)
from .perms import (
    CYCLE_123,
    is_normal_form,
    sign_coinvariant_normal_form,
)
from .poly import Poly2, Poly3, even_part

_XYZ_SUM = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


class ThetaElement:
    """A coinvariant class in one grade of the theta complex."""

    __slots__ = ("grade", "value")

    def __init__(self, grade, value):
        _check_grade("grade", grade)
        if not is_normal_form(value):
            value = sign_coinvariant_normal_form(value)
        for key in value.terms:
            deg = sum(key)
            if grade == 0 and deg % 2 == 0:
                raise ValueError("grade-0 classes have odd total degree")
            if grade == 2 and (deg % 2 == 1 or deg == 0):
                raise ValueError(
                    "grade-2 classes have even, positive total degree")
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("theta elements are immutable")

    def __eq__(self, other):
        if type(other) is not ThetaElement:
            return NotImplemented
        return self.grade == other.grade and self.value == other.value

    def __hash__(self):
        return hash((self.grade, self.value))

    def __repr__(self):
        return "ThetaElement(grade=%r, value=%r)" % (self.grade, self.value)


def d0_theta(elem):
    """The loop-preserving vertex-splitting differential in polynomial
    form: grade 0 maps by 2(x+y+z), grade 1 by the even part of (x+y+z).
    """
    if elem.grade == 2:
        raise ValueError("top of complex: no differential out of grade 2")
    product = _XYZ_SUM * elem.value
    if elem.grade == 0:
        image = product.scale(2)
    else:
        image = even_part(product)
    return ThetaElement(elem.grade + 1, sign_coinvariant_normal_form(image))


def _check_int(name, value):
    """Raise a ValueError naming the argument unless type(value) is int."""
    if type(value) is not int:
        raise ValueError("%s must be an int, got %r" % (name, value))


def _parse_int(text):
    """int(text) for an optional minus and ASCII digits, nothing else."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise ValueError("invalid literal for int() with base 10: %r" % text)


def _check_grade(name, value):
    """Raise a ValueError naming the argument unless value is 0, 1 or 2."""
    if type(value) is not int or value not in (0, 1, 2):
        raise ValueError("%s must be 0, 1 or 2" % name)


def weight_slice_basis(grade, weight):
    """Strictly decreasing exponent triples spanning one weight slice,
    in decreasing order: the loops run k1, then k2, downwards.
    """
    _check_grade("grade", grade)
    _check_int("weight", weight)
    deg = weight - (2 - grade)
    if deg < 0:
        return []
    if grade == 0 and deg % 2 == 0:
        return []
    if grade == 2 and (deg % 2 == 1 or deg == 0):
        return []
    basis = []
    for k1 in range(deg, -1, -1):
        for k2 in range(min(k1 - 1, deg - k1), -1, -1):
            k3 = deg - k1 - k2
            if k3 < k2:
                basis.append((k1, k2, k3))
    return basis


def _d0_columns(grade, weight):
    """Sparse columns of d0 from one weight slice to the next grade, built
    directly: (x+y+z) x^a y^b z^c with a > b > c has the terms
    x^(a+1) y^b z^c, x^a y^(b+1) z^c (kept iff b+1 < a) and
    x^a y^b z^(c+1) (kept iff c+1 < b), all already strictly decreasing
    with sign +1; a repeated exponent is zero in the coinvariants.  Out
    of grade 0 each entry is 2; out of grade 1 it is 1 when the image
    has even degree, and every column is empty at odd weight.  This
    agrees with :func:`d0_theta` on each basis monomial.
    """
    source = weight_slice_basis(grade, weight)
    if grade == 1 and weight % 2 == 1:
        return [{} for _ in source]
    target = {m: i for i, m in enumerate(weight_slice_basis(grade + 1, weight))}
    coeff = 2 if grade == 0 else 1
    cols = []
    for a, b, c in source:
        col = {target[(a + 1, b, c)]: coeff}
        if b + 1 < a:
            col[target[(a, b + 1, c)]] = coeff
        if c + 1 < b:
            col[target[(a, b, c + 1)]] = coeff
        cols.append(col)
    return cols


def _check_degree_weight(i, k):
    _check_grade("degree", i)
    _check_int("weight", k)
    if k < 1:
        raise ValueError("weight must be >= 1")


def cohomology_dim(i, k):
    """Dimension of the degree-i cohomology of the weight-k slice,
    computed by exact rank over Q.
    """
    _check_degree_weight(i, k)
    dim_here = len(weight_slice_basis(i, k))
    rank_out = rank_of_columns(_d0_columns(i, k)) if i < 2 else 0
    rank_in = rank_of_columns(_d0_columns(i - 1, k)) if i > 0 else 0
    return dim_here - rank_out - rank_in


def closed_form_dim(i, k):
    """The proven dimensions: floor(k/6) in the parity where the slice
    lives, zero elsewhere, and zero in degree 0.
    """
    _check_degree_weight(i, k)
    if i == 0:
        return 0
    if i == 1:
        return k // 6 if k % 2 == 1 else 0
    return k // 6 if k % 2 == 0 else 0


# -- the recursive projection onto the normal-form span A ------------------


@lru_cache(maxsize=None)
def _psi_scale(n):
    """D(n), the product of a + 1 over the odd a < n/2: every
    coefficient of psi on degree n has a denominator dividing it.
    """
    return prod(a + 1 for a in range(1, (n + 1) // 2, 2))


@lru_cache(maxsize=None)
def _psi_monomial(a, b):
    """D(a+b) times the image of x^a y^b, for a + b even (which
    :func:`_psi_scaled` checks), returned as a tuple of ((a', b'), coeff)
    pairs with int coefficients, supported on monomials with
    2 <= a' < b' both even.

    The diagonal a = b is sent to zero: the swap branch applies to it and
    forces antisymmetry.  For a < b both odd the recursion rewrites the
    monomial through x^(a+1) y^(b-1) and binomial lower-order terms,
    descending strictly in the odd exponent, and divides their sum by
    -(a+1).  Every term keeps the degree a+b, so all carry the same
    scale D(a+b); its factor a+1 makes the division exact, and a
    remainder raises ArithmeticError.
    """
    if a == 0 or b == 0 or a == b:
        return ()
    if a > b:
        return tuple((k, -c) for k, c in _psi_monomial(b, a))
    if a % 2 == 0:
        return (((a, b), _psi_scale(a + b)),)
    acc = {}

    def add(pairs, mult):
        for key, c in pairs:
            acc[key] = acc.get(key, 0) + mult * c

    add(_psi_monomial(a + 1, b - 1), 1)
    for j in range(2, a + 2, 2):
        add(_psi_monomial(j, a + b - j), comb(a + 1, j))
    for j in range(1, a - 1, 2):
        add(_psi_monomial(j, a + b - j), comb(a + 1, j))
    out = []
    for key, c in sorted(acc.items()):
        if c:
            q, r = divmod(c, a + 1)
            if r:
                raise ArithmeticError(
                    "psi of x^%d y^%d: %d is not divisible by %d"
                    % (a, b, c, a + 1))
            out.append((key, -q))
    return tuple(out)


def _psi_scaled(terms):
    """The image under psi of the polynomial with the given terms, each
    output monomial of degree n still multiplied by D(n): the sum of the
    cached images of :func:`_psi_monomial`, as a dict that may hold
    zeros.  Its values are ints when the coefficients are.
    """
    acc = {}
    for (a, b), coeff in terms.items():
        if (a + b) % 2 != 0:
            raise ValueError(
                "psi is defined on even polynomials; got x^%d y^%d" % (a, b))
        for key, c in _psi_monomial(a, b):
            acc[key] = acc.get(key, 0) + coeff * c
    return acc


def psi(p):
    """Linear projection of an even two-variable polynomial onto the span
    of x^a y^b with 0 <= a <= b both even.

    The sum is taken over the D(n)-scaled cached images (see
    :func:`_psi_scale` and :func:`_psi_scaled`), and each output
    monomial of degree n is divided by D(n) once.
    """
    out = {}
    for key, c in _psi_scaled(p.terms).items():
        d = _psi_scale(key[0] + key[1])
        q, r = divmod(c, d)
        if r:
            from fractions import Fraction
            q = Fraction(c, d)
        out[key] = q
    return Poly2(out)


# -- relation spaces --------------------------------------------------------


class RelationVector:
    """Coefficients (a_1, ..., a_m) of a weight-k linear relation among
    the brackets {sigma_(2i+1), sigma_(k-1-2i)}, i ascending, normalized
    to coprime integers with positive leading entry.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        _check_relation_weight(weight)
        expected = generator_count(weight)
        if len(coeffs) != expected:
            raise ValueError(
                "weight %d relations have %d coefficients, got %d"
                % (weight, expected, len(coeffs)))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coeffs", normalize_integer_vector(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("relation vectors are immutable")

    def __eq__(self, other):
        if type(other) is not RelationVector:
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.weight, self.coeffs))

    def __repr__(self):
        return "RelationVector(weight=%r, coeffs=%r)" % (
            self.weight, self.coeffs)


def generator_count(k):
    """Number of independent bracket generators in weight k."""
    return (k - 4) // 4


def theta_monomials(k):
    """The A-monomials x^(2i) y^(k-2-2i), i = 1 .. (k-4)//4."""
    return [(2 * i, k - 2 - 2 * i) for i in range(1, generator_count(k) + 1)]


def _check_relation_weight(k):
    _check_int("weight", k)
    if k % 2 != 0 or k < 8:
        raise ValueError("relation weight must be even and >= 8")


def relation_space(k):
    """Relations among the grade-1 theta classes of weight k - 1, found
    by exact rank in the theta complex: the kernel of the map sending a
    coefficient vector to its class modulo the image of the grade-0
    differential.

    Generator i is the class of x^(2i) y^(k-2-2i).  Since
    2i < k-2-2i for every i <= (k-4)/4, its normal form is the single
    term -x^(k-2-2i) y^(2i): the swap of x and y is odd.
    """
    _check_relation_weight(k)
    slice1 = weight_slice_basis(1, k - 1)
    index = {m: i for i, m in enumerate(slice1)}
    gens = [{index[(b, a, 0)]: -1} for a, b in theta_monomials(k)]
    image = _d0_columns(0, k - 1)
    kernel = kernel_mod_image(gens, image, len(slice1))
    return [RelationVector(k, tuple(v)) for v in kernel]


def _induced_difference(perm, u, v):
    """perm_*(x^u y^v) - x^u y^v as a dict of exponent pairs to ints, for
    the action on two-variable polynomials that the sign action induces
    through z -> -x - y, built from binomials: with
    (a, b, c) = perm.permute((u, v, 0)) the action gives
    sign * x^a y^b (-x-y)^c.
    """
    a, b, c = perm.permute((u, v, 0))
    s = -perm.sign if c % 2 else perm.sign
    terms = {(a + j, b + c - j): s * comb(c, j) for j in range(c + 1)}
    terms[(u, v)] = terms.get((u, v), 0) - 1
    return terms


def relation_space_psi(k):
    """The same space derived through the recursive projection: the span
    of psi(sigma_* v - v) over the monomials v of degree k-2 and every
    sigma in S3, built from one row psi((123)_* v - v) per monomial.

    The monomials of degree k-2 span a space V that the induced action
    maps to itself, so the span of sigma_* v - v over S3 is the span over
    the generators (12) and (123), by telescoping:
    st.v - v = s.(t.v) - t.v + (t.v - v), with t.v again in V.  The (12)
    rows vanish under psi: (12)_* x^u y^v = -x^v y^u, and
    psi(x^b y^a) = -psi(x^a y^b).  Every row is summed in ints scaled by
    the common factor D(k-2) (see :func:`_psi_scaled`), which leaves the
    row space unchanged.
    """
    _check_relation_weight(k)
    monos = theta_monomials(k)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for u in range(k - 1):
        moved = _psi_scaled(_induced_difference(CYCLE_123, u, k - 2 - u))
        if any(moved.values()):
            row = [0] * len(monos)
            for key, c in moved.items():
                row[index[key]] = c
            rows.append(row)
    basis = row_space_basis(rows)
    return [RelationVector(k, tuple(v)) for v in basis]
