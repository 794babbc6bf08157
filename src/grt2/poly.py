"""Sparse polynomials over Q with exact coefficients.

Three rings are provided:

* :class:`Poly3` -- commutative polynomials in three variables, keyed by
  exponent triples.  Used both for the hairy-theta-graph coordinates
  (x, y, z) and for the depth-2 letter encoding (alpha, beta, gamma);
  :func:`even_part` gives the grade-1 differential its projection.
* :class:`Poly2` -- commutative polynomials in two variables, the
  domain and range of the projection ``theta.psi``.
* :class:`NCPoly` -- polynomials in two noncommuting letters ``x`` and
  ``y``; words are plain strings over the alphabet ``xy``.  With
  :func:`nc_bracket` it carries the word-level Ihara bracket of
  :mod:`grt2.liealg`, the reference for its closed forms.

The sparse base they share also carries the graph sums of
:mod:`grt2.graphs.core`, which add and scale but have no product.

A coefficient is stored as an ``int`` when it is integral and as a
:class:`fractions.Fraction` only when it is not, so integer data never
pays for rational arithmetic; any other value, such as a ``float`` or a
``str``, raises ``ValueError``.  :mod:`fractions` is loaded only by code
that builds or receives a value that is not an int, so integer sums and
products never load it.  Zero terms are never stored, so
equality is structural.  Instances are treated as immutable:
no method mutates ``self`` or its arguments.
"""

from __future__ import annotations


def _exact(c):
    """c as an int when integral and as a Fraction otherwise, or None
    when c is neither an int nor a Fraction.
    """
    if type(c) is int:
        return c
    from fractions import Fraction
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    return None


class _SparsePoly:
    """Shared arithmetic for the dict-backed sums; a ring subclass gives
    ``_mul_key``, the key of a product of two keys.
    """

    __slots__ = ("terms",)
    _mul_key = None

    def __init__(self, terms=None):
        out = {}
        if terms:
            for k, c in terms.items():
                if type(c) is not int:
                    exact = _exact(c)
                    if exact is None:
                        raise ValueError(
                            "coefficient of %r is not an int or a Fraction: "
                            "%r" % (k, c))
                    c = exact
                if c:
                    out[k] = c
        object.__setattr__(self, "terms", out)

    def __setattr__(self, name, value):
        raise AttributeError("polynomial instances are immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, key, coeff=1):
        return cls({key: coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = _exact(c)
        if f is None:
            raise ValueError(
                "scale factor is not an int or a Fraction: %r" % (c,))
        if f == 0:
            return type(self).zero()
        return type(self)({k: f * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if not isinstance(c, int):
            from fractions import Fraction
            if not isinstance(c, Fraction):
                return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        # a product of two polynomials never loads fractions
        if type(other) is not type(self) or self._mul_key is None:
            return self.__rmul__(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = self._mul_key(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return type(self)(out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, c in self.sorted_terms():
            bits.append("%s*%s" % (c, self._key_str(k)))
        return " + ".join(bits)


class _CommPoly(_SparsePoly):
    """Commutative polynomials; keys are exponent tuples over the
    variables x, y, z in that order.
    """

    @staticmethod
    def _key_str(k):
        return " ".join("%s^%d" % pair for pair in zip("xyz", k))


class Poly3(_CommPoly):
    """Polynomial in three commuting variables; keys are exponent triples."""

    @staticmethod
    def _mul_key(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])


class Poly2(_CommPoly):
    """Polynomial in two commuting variables; keys are exponent pairs."""

    @staticmethod
    def _mul_key(k1, k2):
        return (k1[0] + k2[0], k1[1] + k2[1])


class NCPoly(_SparsePoly):
    """Polynomial in noncommuting letters x, y; keys are words like 'xxy'."""

    @staticmethod
    def _mul_key(k1, k2):
        return k1 + k2

    @staticmethod
    def _key_str(k):
        return k if k else "1"

    def depth(self):
        """Minimal number of y letters over the support; undefined for 0."""
        if not self.terms:
            raise ValueError("depth of the zero polynomial is undefined")
        return min(w.count("y") for w in self.terms)


def even_part(p):
    """Projection onto monomials of even total degree."""
    return type(p)({k: c for k, c in p.terms.items() if sum(k) % 2 == 0})


def nc_bracket(a, b):
    """Commutator ab - ba in the free associative algebra."""
    return a * b - b * a
