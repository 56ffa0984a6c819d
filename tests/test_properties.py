"""Property tests for the exact linear algebra behind every verdict."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adhmquot.exactalg import GF, QQ, Matrix, kernel_basis, rank, rref

FIELDS = [QQ, GF(2), GF(3), GF(32003)]


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 7))
    # a small entry range makes rank drops and zero columns common
    entries = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, rows, cols, tuple(field.coerce(e) for e in entries))


def _old_kernel(m: Matrix) -> Matrix:
    """Kernel basis as echelonized vectors from an ordinary elimination."""
    reduced, pivots = rref(m)
    zero, one = m.field.zero(), m.field.one()
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [zero] * m.cols
        v[f] = one
        for k, p in enumerate(pivots):
            v[p] = -reduced.entry(k, f)
        vectors.append(v)
    if not vectors:
        return Matrix.zero(m.field, 0, m.cols)
    return rref(Matrix.from_rows(m.field, vectors))[0]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_basis_is_canonical_rref(m):
    basis = kernel_basis(m).basis
    assert basis.cols == m.cols
    assert rref(basis)[0] == basis
    assert basis == _old_kernel(m)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate_and_nullity(m):
    kernel = kernel_basis(m)
    zero = (m.field.zero(),) * m.rows
    for i in range(kernel.dim):
        assert m.apply(kernel.basis.row_tuple(i)) == zero
    assert kernel.dim + rank(m) == m.cols


def test_degenerate_shapes():
    for field in FIELDS:
        assert kernel_basis(Matrix.zero(field, 0, 4)).basis == Matrix.identity(field, 4)
        assert kernel_basis(Matrix.zero(field, 4, 0)).dim == 0
        assert kernel_basis(Matrix.zero(field, 0, 0)).dim == 0
    assert kernel_basis(Matrix(QQ, 1, 2, (Fraction(0), Fraction(2)))).basis == Matrix.from_rows(
        QQ, [[1, 0]]
    )
