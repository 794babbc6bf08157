"""Exact linear algebra over the rationals, on one sparse fraction-free
elimination engine.

:class:`Echelon` holds a row echelon form built one vector at a time.  A
vector is a sparse mapping from index to value or a dense sequence of
values, each an int or a Fraction; any other value is a ValueError.
Pivot rows are sparse dicts of ints, keyed by their leading (smallest)
index and made primitive when stored: divided by the gcd of their
entries and their tag's, with a positive leading entry.  An incoming
vector and its tag are cleared of denominators once, by the lcm of
their denominators, and then reduced forward only, without division:
while a pivot row sits at the vector's leading index, with leading
entries p (the pivot's) and v (the vector's) and g = gcd(p, v), the
vector becomes (p/g) * vector - (v/g) * row.  The remainder, if any,
becomes a new pivot.  Stored pivots are never touched again, so one
vector costs work proportional to the pivots it meets, not to the
number stored.  A tag vector may ride along and undergoes the same row
operations; a vector that reduces to zero hands back its reduced tag, a
linear dependency among the tagged inputs that is positive at the
vector's own unit index.  One back-substitution at the end gives the
reduced row echelon form, each row scaled to primitive ints with a
positive leading entry.  That form is unique, so every basis returned
here is canonical.

Rank, kernels, row spaces, span tests and the kernel modulo an image are
thin wrappers over that one engine, and every vector they return holds
ints: :mod:`fractions` is loaded only to read a Fraction input entry.
"""

from __future__ import annotations

from math import gcd, lcm


def _entries(vec):
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _integral(vec, tag=()):
    """The nonzero entries of a vector and of its tag as sparse dicts of
    ints, both multiplied by the lcm of their denominators.  An entry
    that is neither an int nor a Fraction, such as a float, raises
    ValueError naming its index.
    """
    sparse = ({}, {})
    m = None  # stays None while every entry is an int
    for out, values in zip(sparse, (vec, tag)):
        for i, v in _entries(values):
            if type(v) is not int:
                if m is None:
                    from fractions import Fraction
                if type(v) is not Fraction:
                    raise ValueError("entry %r is not an int or a Fraction: "
                                     "%r" % (i, v))
                m = lcm(m or 1, v.denominator)
            if v:
                out[i] = v
    if m is not None:
        for out in sparse:
            for i, v in out.items():
                out[i] = (v.numerator * (m // v.denominator)
                          if type(v) is Fraction else v * m)
    return sparse


def _combine(dst, a, b, src):
    """a * dst - b * src for sparse int dicts, dropping entries that
    cancel; dst is updated in place when a is 1.
    """
    if a != 1:
        dst = {i: a * x for i, x in dst.items()}
    for i, x in src.items():
        nx = dst.get(i, 0) - b * x
        if nx:
            dst[i] = nx
        else:
            del dst[i]
    return dst


class Echelon:
    """Row echelon form over Q, grown by :meth:`add`; its length is the
    rank of the vectors added so far.
    """

    def __init__(self, vectors=()):
        self._pivots = {}  # leading index -> (row, tag), primitive ints
        for vec in vectors:
            self.add(vec)

    def __len__(self):
        return len(self._pivots)

    def add(self, vec, tag=()):
        """Reduce a vector against the stored pivots.

        If a nonzero remainder is left it is stored as a new pivot and
        None is returned.  Otherwise the vector lay in the span of the
        vectors added before, and the reduced tag is returned as a
        sparse dict of ints: a vector d with
        sum_j d_j * (vector tagged e_j) = 0 and d_j > 0 for this vector's
        j when every vector was added with a unit tag ({} without a tag).
        """
        vec, tag = _integral(vec, tag)
        pivots = self._pivots
        while vec:
            lead = min(vec)
            v = vec[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*vec.values(), *tag.values())
                if v < 0:
                    g = -g
                if g != 1:
                    vec = {i: x // g for i, x in vec.items()}
                    tag = {i: x // g for i, x in tag.items()}
                pivots[lead] = (vec, tag)
                return None
            row, row_tag = pivot
            p = row[lead]
            g = gcd(p, v)
            a, b = p // g, v // g
            vec = _combine(vec, a, b, row)
            if tag or row_tag:
                tag = _combine(tag, a, b, row_tag)
        return tag

    def reduced_rows(self):
        """The reduced row echelon form, by one back-substitution: the
        (leading index, row) pairs in increasing order of leading index,
        each row a sparse dict of primitive ints, positive at its leading
        index and zero at every other leading index.
        """
        done = {}
        for lead in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[lead][0])
            # rows already done carry zeros at every other leading index,
            # so each step clears one entry and disturbs no other; the
            # leading entry stays positive
            for i in [i for i in row if i != lead and i in done]:
                other = done[i]
                g = gcd(other[i], row[i])
                row = _combine(row, other[i] // g, row[i] // g, other)
            g = gcd(*row.values())
            done[lead] = {i: x // g for i, x in row.items()}
        return sorted(done.items())


def _dense(vec, n):
    return [vec.get(i, 0) for i in range(n)]


def _width(rows):
    """The number of columns of a dense matrix, the length of its first
    row; a row of another length raises ValueError naming it.
    """
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("row %d has length %d, expected %d"
                             % (i, len(row), width))
    return width


def _reduced_basis(vectors, n):
    """The nonzero rows of :func:`rref` of the vectors, of length n."""
    return [_dense(row, n) for _, row in Echelon(vectors).reduced_rows()]


def rref(rows):
    """Reduced row echelon form of a dense matrix in primitive int rows,
    each led by a positive entry, zero rows last; (rows, pivot_columns).
    """
    if not rows:
        return [], []
    ncols = _width(rows)
    reduced = Echelon(rows).reduced_rows()
    mat = [_dense(row, ncols) for _, row in reduced]
    mat += [_dense({}, ncols) for _ in range(len(rows) - len(mat))]
    return mat, [lead for lead, _ in reduced]


def rank_of_columns(columns):
    """Rank of a matrix given as an iterable of columns, each a sparse
    mapping from row index to coefficient or a dense sequence.
    """
    return len(Echelon(columns))


def nullspace(rows):
    """Basis of the right kernel of the matrix, one int vector per free
    column: positive at that column, 0 at the other free columns.
    """
    if not rows:
        return []
    ncols = _width(rows)
    ech = Echelon()
    basis = []
    for j in range(ncols):
        dep = ech.add({i: row[j] for i, row in enumerate(rows)}, {j: 1})
        if dep is not None:
            basis.append(_dense(dep, ncols))
    return basis


def row_space_basis(rows):
    """The nonzero rows of :func:`rref`."""
    if not rows:
        return []
    return _reduced_basis(rows, _width(rows))


def span_equal(vecs_a, vecs_b):
    """Whether two families of vectors span the same subspace."""
    ech = Echelon(vecs_a)
    rank_a = len(ech)
    return (all(ech.add(v) is not None for v in vecs_b)
            and len(Echelon(vecs_b)) == rank_a)


def kernel_mod_image(gen_cols, image_cols, dim):
    """Kernel of the map a |-> sum_i a_i * gen_cols[i] into the quotient
    of Q^dim by the span of image_cols.

    Columns are vectors of length ``dim``, as sequences or as mappings
    from index to value.  The image is loaded first, then each generator
    with the unit tag e_i; a generator that reduces to zero hands back a
    kernel vector.  Returns a basis of int coefficient vectors of length
    len(gen_cols), in the reduced row echelon form of :func:`rref`.
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
    nonzero entry.  The zero vector is returned as integer zeros.  An
    entry that is neither an int nor a Fraction, such as a float, a str
    or a bool, raises ValueError naming its index.
    """
    vec = list(vec)
    ints = _integral(vec)[0]
    if ints:
        g = gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        ints = {i: x // g for i, x in ints.items()}
    return tuple(ints.get(i, 0) for i in range(len(vec)))
