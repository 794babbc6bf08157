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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .linalg import (
    kernel_mod_image,
    normalize_integer_vector,
    rank_of_columns,
    row_space_basis,
)
from .perms import (
    S3,
    IDENTITY,
    induced_action,
    is_normal_form,
    sign_coinvariant_normal_form,
)
from .poly import Poly2, Poly3, even_part, substitute_phi

_XYZ_SUM = Poly3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


@dataclass(frozen=True)
class ThetaElement:
    """A coinvariant class in one grade of the theta complex."""

    grade: int
    value: Poly3

    def __post_init__(self):
        if self.grade not in (0, 1, 2):
            raise ValueError("grade must be 0, 1 or 2")
        if not is_normal_form(self.value):
            object.__setattr__(
                self, "value", sign_coinvariant_normal_form(self.value))
        for key in self.value.terms:
            deg = sum(key)
            if self.grade == 0 and deg % 2 == 0:
                raise ValueError("grade-0 classes have odd total degree")
            if self.grade == 2 and (deg % 2 == 1 or deg == 0):
                raise ValueError(
                    "grade-2 classes have even, positive total degree")

    def weights(self):
        return sorted({sum(k) + 2 - self.grade for k in self.value.terms})

    def is_zero(self):
        return self.value.is_zero()


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


def theta_generator(i, j):
    """Grade-1 class of x^(2i) y^(2j); zero when i = j."""
    if i < 1 or j < 1:
        raise ValueError("hair counts must be positive")
    return ThetaElement(
        1, sign_coinvariant_normal_form(Poly3.monomial((2 * i, 2 * j, 0))))


def weight_slice_basis(grade, weight):
    """Strictly decreasing exponent triples spanning one weight slice."""
    if grade not in (0, 1, 2):
        raise ValueError("grade must be 0, 1 or 2")
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
    return sorted(basis, reverse=True)


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


def cohomology_dim(i, k):
    """Dimension of the degree-i cohomology of the weight-k slice,
    computed by exact rank over Q.
    """
    if i not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    if k < 1:
        raise ValueError("weight must be >= 1")
    dim_here = len(weight_slice_basis(i, k))
    rank_out = rank_of_columns(_d0_columns(i, k)) if i < 2 else 0
    rank_in = rank_of_columns(_d0_columns(i - 1, k)) if i > 0 else 0
    return dim_here - rank_out - rank_in


def closed_form_dim(i, k):
    """The proven dimensions: floor(k/6) in the parity where the slice
    lives, zero elsewhere, and zero in degree 0.
    """
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
    """D(a+b) times the image of x^a y^b, returned as a tuple of
    ((a', b'), coeff) pairs with int coefficients, supported on
    monomials with 2 <= a' < b' both even.

    The diagonal a = b is sent to zero: the swap branch applies to it and
    forces antisymmetry.  For a < b both odd the recursion rewrites the
    monomial through x^(a+1) y^(b-1) and binomial lower-order terms,
    descending strictly in the odd exponent, and divides their sum by
    -(a+1).  Every term keeps the degree a+b, so all carry the same
    scale D(a+b); its factor a+1 makes the division exact, and a
    remainder raises ArithmeticError.
    """
    if (a + b) % 2 != 0:
        raise ValueError("only even total degree is in the domain")
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


def psi(p):
    """Linear projection of an even two-variable polynomial onto the span
    of x^a y^b with 0 <= a <= b both even.

    The cached images are scaled by D(n) (see :func:`_psi_scale`), so
    the sum is taken over them and each output monomial of degree n is
    divided by D(n) once.
    """
    acc = {}
    for (a, b), coeff in p.terms.items():
        if (a + b) % 2 != 0:
            raise ValueError(
                "psi is defined on even polynomials; got x^%d y^%d" % (a, b))
        for key, c in _psi_monomial(a, b):
            acc[key] = acc.get(key, 0) + coeff * c
    out = {}
    for key, c in acc.items():
        d = _psi_scale(key[0] + key[1])
        q, r = divmod(c, d)
        out[key] = Fraction(c, d) if r else q
    return Poly2(out)


def theta_relation(a, b):
    """psi applied to x^a y^b (-x-y)^a; a nonzero result is a linear
    relation among the grade-1 theta classes of total degree 2a + b.
    """
    if a < 1 or b < 1:
        raise ValueError("strand hair counts must be positive")
    return psi(substitute_phi(Poly3.monomial((a, b, a))))


# -- relation spaces --------------------------------------------------------


@dataclass(frozen=True)
class RelationVector:
    """Coefficients (a_1, ..., a_m) of a weight-k linear relation among
    the brackets {sigma_(2i+1), sigma_(k-1-2i)}, i ascending, normalized
    to coprime integers with positive leading entry.
    """

    weight: int
    coeffs: tuple

    def __post_init__(self):
        if self.weight % 2 != 0 or self.weight < 8:
            raise ValueError("relation weight must be even and >= 8")
        expected = (self.weight - 4) // 4
        if len(self.coeffs) != expected:
            raise ValueError(
                "weight %d relations have %d coefficients, got %d"
                % (self.weight, expected, len(self.coeffs)))
        object.__setattr__(
            self, "coeffs", normalize_integer_vector(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


def generator_count(k):
    """Number of independent bracket generators in weight k."""
    return (k - 4) // 4


def relation_count(k):
    """The proven number of weight-k relations."""
    return (k - 4) // 4 - (k - 2) // 6


def theta_monomials(k):
    """The A-monomials x^(2i) y^(k-2-2i), i = 1 .. (k-4)//4."""
    return [(2 * i, k - 2 - 2 * i) for i in range(1, generator_count(k) + 1)]


def _check_relation_weight(k):
    if k % 2 != 0 or k < 8:
        raise ValueError("relation weight must be even and >= 8")


def relation_space(k):
    """Relations among the grade-1 theta classes of weight k - 1, found
    by exact rank in the theta complex: the kernel of the map sending a
    coefficient vector to its class modulo the image of the grade-0
    differential.
    """
    _check_relation_weight(k)
    slice1 = weight_slice_basis(1, k - 1)
    index = {m: i for i, m in enumerate(slice1)}
    gens = [{index[key]: c for key, c in
             theta_generator(a // 2, b // 2).value.terms.items()}
            for a, b in theta_monomials(k)]
    image = _d0_columns(0, k - 1)
    kernel = kernel_mod_image(gens, image, len(slice1))
    return [RelationVector(k, tuple(v)) for v in kernel]


def relation_space_psi(k):
    """The same space derived through the recursive projection: the
    degree-(k-2) slice of the span of psi(sigma_* v) - psi(v).
    """
    _check_relation_weight(k)
    monos = theta_monomials(k)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for u in range(k - 1):
        v = k - 2 - u
        if (u + v) % 2 != 0:
            continue
        base = Poly2.monomial((u, v))
        for perm in S3:
            if perm == IDENTITY:
                continue
            moved = psi(induced_action(perm, base) - base)
            if moved.is_zero():
                continue
            row = [0] * len(monos)
            for key, c in moved.terms.items():
                row[index[key]] = c
            rows.append(row)
    basis = row_space_basis(rows)
    return [RelationVector(k, tuple(v)) for v in basis]


def relation_from_poly(k, p):
    """Read a degree-(k-2) element of the normal-form span as a relation
    vector; returns None when p is zero.
    """
    if p.is_zero():
        return None
    monos = set(theta_monomials(k))
    coeffs = {}
    for key, c in p.terms.items():
        if key not in monos:
            raise ValueError("unexpected monomial x^%d y^%d" % key)
        coeffs[key] = c
    return RelationVector(
        k, tuple(coeffs.get(m, 0) for m in theta_monomials(k)))
