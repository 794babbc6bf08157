"""Exact linear algebra over the rationals, on one sparse elimination engine.

:class:`Echelon` holds a row echelon form built one vector at a time.  A
vector is a sparse mapping from index to value or a dense sequence of
values, each an int or a Fraction; any other value is a ValueError.
Pivot rows are sparse dicts of Fractions, keyed by their leading
(smallest) index and scaled to 1 there.  An incoming vector is reduced
forward only: the pivot row at its
current leading index is subtracted until that index carries no pivot,
and the remainder, if any, becomes a new pivot.  Stored pivots are never
touched again, so one vector costs work proportional to the pivots it
meets, not to the number stored.  A tag vector may ride along and
undergoes the same row operations; a vector that reduces to zero hands
back its tag, which is then a linear dependency among the tagged inputs.
One back-substitution at the end gives the reduced row echelon form,
which is unique, so every basis returned here is canonical.

Rank, kernels, row spaces, span tests and the kernel modulo an image are
thin wrappers over that one engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _axpy(dst, f, src):
    """dst += f * src for sparse dicts, dropping entries that cancel."""
    for i, v in src.items():
        nv = dst.get(i, 0) + f * v
        if nv:
            dst[i] = nv
        else:
            dst.pop(i, None)


def _entries(vec):
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _fractions(vec):
    """The nonzero entries of a vector as a sparse dict of Fractions.
    An entry that is neither an int nor a Fraction, such as a float,
    raises ValueError naming its index.
    """
    out = {}
    for i, v in _entries(vec):
        if type(v) is int:
            if v:
                out[i] = Fraction(v)
        elif type(v) is Fraction:
            if v:
                out[i] = v
        else:
            raise ValueError("entry %r is not an int or a Fraction: %r"
                             % (i, v))
    return out


class Echelon:
    """Row echelon form over Q, grown by :meth:`add`; its length is the
    rank of the vectors added so far.
    """

    def __init__(self, vectors=()):
        self._pivots = {}  # leading index -> (row, tag)
        for vec in vectors:
            self.add(vec)

    def __len__(self):
        return len(self._pivots)

    def add(self, vec, tag=None):
        """Reduce a vector against the stored pivots.

        If a nonzero remainder is left it is stored as a new pivot and
        None is returned.  Otherwise the vector lay in the span of the
        vectors added before, and the reduced tag is returned: a sparse
        vector d with sum_j d_j * (vector tagged e_j) = 0 when every
        vector was added with a unit tag ({} when no tag was given).
        """
        vec = _fractions(vec)
        tag = _fractions(tag) if tag else {}
        pivots = self._pivots
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / vec[lead]
                pivots[lead] = ({i: v * inv for i, v in vec.items()},
                                {i: v * inv for i, v in tag.items()})
                return None
            row, row_tag = pivot
            f = -vec[lead]
            _axpy(vec, f, row)
            if row_tag:
                _axpy(tag, f, row_tag)
        return tag

    def reduced_rows(self):
        """The reduced row echelon form, by one back-substitution: the
        (leading index, row) pairs in increasing order of leading index,
        each row zero at every other leading index.
        """
        done = {}
        for lead in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[lead][0])
            # rows already done carry zeros at every other leading index,
            # so each subtraction clears one entry and disturbs no other
            for i in [i for i in row if i != lead and i in done]:
                _axpy(row, -row[i], done[i])
            done[lead] = row
        return [(lead, done[lead]) for lead in sorted(done)]


def _dense(vec, n):
    zero = Fraction(0)
    return [vec.get(i, zero) for i in range(n)]


def _reduced_basis(vectors, n):
    """Rows of the reduced row echelon form of the vectors, each as a
    dense list of length n.
    """
    ech = Echelon(vectors)
    return [_dense(row, n) for _, row in ech.reduced_rows()]


def rref(rows):
    """Reduced row echelon form of a dense matrix, zero rows last.
    Returns (rows, pivot_columns).
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced = Echelon(rows).reduced_rows()
    mat = [_dense(row, ncols) for _, row in reduced]
    mat += [[Fraction(0)] * ncols for _ in range(len(rows) - len(mat))]
    return mat, [lead for lead, _ in reduced]


def rank(rows):
    return len(Echelon(rows))


def rank_of_columns(columns):
    """Rank of a sparse matrix given as an iterable of columns, each a
    mapping from row index to coefficient.
    """
    return len(Echelon(columns))


def nullspace(rows):
    """Basis of the right kernel of the matrix, one vector per free column:
    1 at that column, 0 at the other free columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech = Echelon()
    basis = []
    for j in range(ncols):
        dep = ech.add({i: row[j] for i, row in enumerate(rows)}, {j: 1})
        if dep is not None:
            basis.append(_dense(dep, ncols))
    return basis


def row_space_basis(rows):
    """Nonzero rows of the reduced row echelon form."""
    if not rows:
        return []
    return _reduced_basis(rows, len(rows[0]))


def in_span(vectors, target):
    """Whether target lies in the linear span of the given vectors."""
    return Echelon(vectors).add(target) is not None


def span_equal(vecs_a, vecs_b):
    """Whether two families of vectors span the same subspace."""
    ech = Echelon(vecs_a)
    rank_a = len(ech)
    return (all(ech.add(v) is not None for v in vecs_b)
            and rank(vecs_b) == rank_a)


def kernel_mod_image(gen_cols, image_cols, dim):
    """Kernel of the map a |-> sum_i a_i * gen_cols[i] into the quotient
    of Q^dim by the span of image_cols.

    Columns are vectors of length ``dim``, as sequences or as mappings
    from index to value.  The image is loaded first, then each generator
    with the unit tag e_i; a generator that reduces to zero hands back a
    kernel vector.  Returns a basis of coefficient vectors of length
    len(gen_cols), in reduced row echelon form.
    """
    gens = [dict(_entries(v)) for v in gen_cols]
    image = [dict(_entries(v)) for v in image_cols]
    for vec in gens + image:
        for i in vec:
            if not 0 <= i < dim:
                raise ValueError("index %r outside a space of dimension %d"
                                 % (i, dim))
    ech = Echelon(image)
    kernel = []
    for j, vec in enumerate(gens):
        dep = ech.add(vec, {j: 1})
        if dep is not None:
            kernel.append(dep)
    return _reduced_basis(kernel, len(gens))


def normalize_integer_vector(vec):
    """Scale a rational vector to coprime integers with positive leading
    nonzero entry.  The zero vector is returned unchanged.
    """
    vec = [Fraction(x) for x in vec]
    nonzero = [x for x in vec if x != 0]
    if not nonzero:
        return tuple(int(x) for x in vec)
    mult = 1
    for x in nonzero:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
