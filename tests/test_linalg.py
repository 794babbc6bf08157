from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grt2.linalg import (
    Echelon,
    kernel_mod_image,
    normalize_integer_vector,
    nullspace,
    rank_of_columns,
    row_space_basis,
    rref,
    span_equal,
)
from helpers import in_span


def test_rref_and_rank():
    mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    reduced, pivots = rref(mat)
    assert pivots == [0, 1]
    assert rank_of_columns(mat) == 2


def test_nullspace():
    mat = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(mat)
    assert len(basis) == 2
    for vec in basis:
        assert all(
            sum(Fraction(m) * v for m, v in zip(row, vec)) == 0
            for row in mat
        )


def test_in_span_and_span_equal():
    a = [[1, 0, 1], [0, 1, 1]]
    assert in_span(a, [1, 1, 2])
    assert not in_span(a, [0, 0, 1])
    assert span_equal(a, [[1, 1, 2], [1, -1, 0]])
    assert not span_equal(a, [[1, 0, 0], [0, 1, 0]])
    assert span_equal([], [])


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_inexact_entry_is_rejected(bad):
    with pytest.raises(ValueError, match="entry 0 .*" + repr(bad)):
        rank_of_columns([[bad, 1], [1, 2]])
    with pytest.raises(ValueError, match="entry 3 "):
        Echelon([{0: 1}]).add({0: 1, 3: bad})


@pytest.mark.parametrize("function", [rref, nullspace, row_space_basis],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [0, 0, 5]], "row 1 has length 3, expected 2"),
    ([[1, 2, 3], [0, 5]], "row 1 has length 2, expected 3"),
    ([[1], [2], []], "row 2 has length 0, expected 1"),
], ids=["long", "short", "empty"])
def test_ragged_matrix_is_rejected(function, rows, message):
    # the width is read off the first row; a row of another length used
    # to be padded, truncated or read past its end
    with pytest.raises(ValueError, match=message):
        function(rows)


def test_kernel_mod_image():
    # generators e1, e1 + e2; image spans e2 => kernel is (1, -1)
    gens = [[1, 0], [1, 1]]
    image = [[0, 1]]
    kern = kernel_mod_image(gens, image, 2)
    assert kern == [[1, -1]]


def test_kernel_mod_image_trivial():
    assert kernel_mod_image([], [[1, 0]], 2) == []
    kern = kernel_mod_image([[1, 0]], [], 2)
    assert kern == []
    with pytest.raises(ValueError, match="outside a space of dimension 2"):
        kernel_mod_image([[1, 0, 1]], [], 2)


def test_normalize_integer_vector():
    vec = [Fraction(-2, 3), Fraction(4, 3), Fraction(-2)]
    assert normalize_integer_vector(vec) == (1, -2, 3)
    assert normalize_integer_vector([0, 0]) == (0, 0)
    assert normalize_integer_vector([Fraction(0), Fraction(-5, 7)]) == (0, 1)


@pytest.mark.parametrize("bad", [0.5, "2", True])
def test_normalize_integer_vector_rejects_inexact_entry(bad):
    with pytest.raises(ValueError, match="entry 1 .*" + repr(bad)):
        normalize_integer_vector([1, bad])


def test_row_space_basis():
    rows = [[1, 1, 0], [2, 2, 0], [0, 0, 1]]
    basis = row_space_basis(rows)
    assert len(basis) == 2


def test_sparse_rank_matches_dense():
    cols = [
        {0: 1, 2: 2},
        {0: 2, 2: 4},
        {1: 1},
        {0: 1, 1: 1, 2: 2},
    ]
    dense = [[col.get(r, 0) for col in cols] for r in range(3)]
    assert rank_of_columns(cols) == rank_of_columns(dense) == 2
    assert reference_rank(dense) == 2
    assert rank_of_columns([]) == 0
    assert rank_of_columns([{}]) == 0


# -- properties checked against definitions written here ---------------------


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan elimination over Fractions, independent of
    grt2.linalg: the nonzero rows of the reduced row echelon form.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return mat[:r]


def reference_rank(rows):
    return len(reference_rref(rows, len(rows[0]) if rows else 0))


def transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def combination(coeffs, vectors, n):
    return [sum((c * Fraction(v[i]) for c, v in zip(coeffs, vectors)),
                Fraction(0)) for i in range(n)]


ENTRY = st.one_of(
    st.just(0), st.just(0),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_reference_and_transpose(mat):
    rows, ncols = mat
    rank = rank_of_columns(rows)
    assert rank == reference_rank(rows)
    assert rank == rank_of_columns(transpose(rows, ncols))
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)]
    assert rank_of_columns(columns) == rank


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_annihilates_rows(mat):
    rows, ncols = mat
    if not rows:
        return
    basis = nullspace(rows)
    assert len(basis) == ncols - reference_rank(rows)
    assert reference_rank(basis) == len(basis)
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def assert_reduced_echelon(basis, ncols):
    """The integer reduced echelon form: rows of ncols ints, each
    primitive with a positive leading entry and zero at the leading
    index of every other row, in increasing order of leading index.
    Returns the leading indices.
    """
    leads = []
    for row in basis:
        assert len(row) == ncols
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1
        lead = next(j for j, x in enumerate(row) if x != 0)
        assert row[lead] > 0
        leads.append(lead)
    assert leads == sorted(set(leads))
    for i, lead in enumerate(leads):
        assert all(basis[r][lead] == 0 for r in range(len(basis)) if r != i)
    return leads


def divided_by_leads(basis, leads):
    """Each row divided by its leading entry, in Fractions."""
    return [[Fraction(x, row[lead]) for x in row]
            for row, lead in zip(basis, leads)]


# back-substitution turns the first row into (2, 0, -2), which is not
# primitive until divided by 2
UNPRIMITIVE = [[-2, 1, 0], [-1, 0, 1]]


@settings(max_examples=150, deadline=None)
@given(matrices())
@example((UNPRIMITIVE, 3))
def test_row_space_basis_is_reduced_and_spans_rows(mat):
    rows, ncols = mat
    basis = row_space_basis(rows)
    leads = assert_reduced_echelon(basis, ncols)
    unit = divided_by_leads(basis, leads)
    assert unit == reference_rref(rows, ncols)
    # in reduced echelon form with leading 1s a vector of the row space is
    # the combination of the rows weighted by its entries at the leads
    for row in rows:
        coeffs = [Fraction(row[lead]) for lead in leads]
        assert combination(coeffs, unit, ncols) == [Fraction(x) for x in row]
    if rows:
        reduced, pivots = rref(rows)
        assert reduced[:len(basis)] == basis and pivots == leads
        assert len(reduced) == len(rows)
        assert all(x == 0 for row in reduced[len(basis):] for x in row)


@settings(max_examples=150, deadline=None)
@given(matrices(max_rows=5), matrices(max_rows=3))
# generators whose kernel is the row space of UNPRIMITIVE
@example(([[0, 0, 1], [0, 0, 2], [0, 0, 1]], 3), ([], 1))
def test_kernel_mod_image_matches_definition(gens, image):
    # vectors of the same length: a kernel vector a is one whose
    # combination sum_i a_i g_i lies in the span of the image
    gen_rows, dim = gens
    image_rows = [(row + [0] * dim)[:dim] for row in image[0]]
    kernel = kernel_mod_image(gen_rows, image_rows, dim)
    leads = assert_reduced_echelon(kernel, len(gen_rows))
    assert divided_by_leads(kernel, leads) \
        == reference_rref(kernel, len(gen_rows))
    image_rank = reference_rank(image_rows)
    for vec in kernel:
        target = combination(vec, gen_rows, dim)
        assert reference_rank(image_rows + [target]) == image_rank
    both = reference_rank(image_rows + gen_rows)
    assert len(kernel) == len(gen_rows) - (both - image_rank)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.lists(ENTRY, min_size=6, max_size=6))
def test_in_span_and_span_equal_match_reference(mat, target):
    rows, ncols = mat
    target = target[:ncols]
    base = reference_rank(rows)
    assert in_span(rows, target) == (reference_rank(rows + [target]) == base)
    basis = row_space_basis(rows)
    assert span_equal(rows, basis) and span_equal(basis, rows)
    assert span_equal(rows, rows + [target]) == in_span(rows, target)


def test_echelon_tags_give_dependencies():
    vectors = [{0: 1, 2: 2}, {1: 3}, {0: 2, 1: 6, 2: 4}, {5: 1}]
    ech = Echelon()
    deps = [ech.add(v, {j: 1}) for j, v in enumerate(vectors)]
    assert deps[0] is None and deps[1] is None and deps[3] is None
    assert deps[2] == {0: -2, 1: -2, 2: 1}
    assert len(ech) == 3
    assert ech.add({}) == {}
    assert [lead for lead, _ in ech.reduced_rows()] == [0, 1, 5]


SPARSE_ENTRY = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
NCOLS = 8
SPARSE_VECTORS = st.lists(
    st.dictionaries(st.integers(0, NCOLS - 1), SPARSE_ENTRY, max_size=4),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(SPARSE_VECTORS)
@example([dict(enumerate(row)) for row in UNPRIMITIVE])
def test_echelon_is_fraction_free(vectors):
    dense = [[v.get(c, 0) for c in range(NCOLS)] for v in vectors]
    ech = Echelon()
    for j, vec in enumerate(vectors):
        dep = ech.add(vec, {j: 1})
        if dep is not None:
            assert all(type(x) is int for x in dep.values())
            assert max(dep) == j and dep[j] > 0
            coeffs = [dep.get(i, 0) for i in range(j + 1)]
            assert combination(coeffs, dense[:j + 1], NCOLS) == [0] * NCOLS
    for lead, (row, tag) in ech._pivots.items():
        values = list(row.values()) + list(tag.values())
        assert all(type(x) is int for x in values)
        assert lead == min(row) and row[lead] > 0
        assert gcd(*values) == 1
    reduced = ech.reduced_rows()
    basis = [[row.get(c, 0) for c in range(NCOLS)] for _, row in reduced]
    leads = assert_reduced_echelon(basis, NCOLS)
    assert leads == [lead for lead, _ in reduced]
    assert divided_by_leads(basis, leads) == reference_rref(dense, NCOLS)
