"""Property tests for the exact linear algebra behind every verdict."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adhmquot import monad, quotmod
from adhmquot.adhm import (
    AdhmDatum, GenerationError, _krylov_layers, _matrix_polynomial, _powers, act, equivalence,
    is_adhm, is_stable, krylov_closure, random_datum,
)
from adhmquot.exactalg import (
    GF, QQ, GFElement, Matrix, ShapeError, SpanBuilder, Subspace, char_poly,
    joint_eigenspaces, kernel_basis, rank, rational_eigenvalues, rref, solve,
)
from adhmquot.geometry import (
    EquationSystem, ResidualError, _equations, _word_products, coordinate_count, jacobian,
    moduli_dimension_estimate, residual,
)
from adhmquot.monad import (
    LinearFormMatrix, alpha0, alpha_minus1, alpha_minus2_p3, compose, evaluate, sample_points,
)
from adhmquot.punctual import (
    FactorReport, PathData, SupportReport, _factor_reports, _path_data, homotopy_path,
    is_nilpotent_tuple, support, verify_path,
)
from adhmquot.quotmod import (
    NonCommutingError, PolyVector, hilbert_profile, kernel_basis_up_to_degree,
    module_from_generators, monomials_of_degree, phi_apply,
)

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


# ------------------------------------------------ the elimination core


def _reference_echelonize(rows: list[list]) -> list[int]:
    """Gauss-Jordan on the scalar objects themselves, dividing by each pivot."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def _reference_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rows = m.to_rows()
    pivots = _reference_echelonize(rows)
    entries = tuple(x for row in rows[: len(pivots)] for x in row)
    return Matrix(m.field, len(pivots), m.cols, entries), tuple(pivots)


def _reference_solve(a: Matrix, b: tuple) -> tuple | None:
    rows = [list(a.row_tuple(i)) + [b[i]] for i in range(a.rows)]
    pivots = _reference_echelonize(rows)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [a.field.zero()] * a.cols
    for k, p in enumerate(pivots):
        x[p] = rows[k][a.cols]
    return tuple(x)


def _reference_inverse(m: Matrix) -> Matrix | None:
    n = m.rows
    rows = [list(m.row_tuple(i)) + list(Matrix.identity(m.field, n).row_tuple(i)) for i in range(n)]
    pivots = _reference_echelonize(rows)
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    return Matrix.from_rows(m.field, [row[n:] for row in rows])


def _bits(values) -> tuple:
    """Exact representation of scalars, so equal values must also be equal objects."""
    return tuple(
        (type(x).__name__, x.p, x.value) if isinstance(x, GFElement)
        else (type(x).__name__, x.numerator, x.denominator)
        for x in values
    )


@st.composite
def eliminable(draw, square: bool = False):
    """Matrices with rational (non-integer) or residue entries, often rank-deficient."""
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))

    def scalar():
        num = draw(st.integers(-3, 3))
        if field == QQ:
            return Fraction(num, draw(st.sampled_from((1, 2, 3, 7))))
        return field.coerce(num)

    grid = [[scalar() for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):  # force a rank drop
        c = scalar()
        grid[-1] = [c * a + b for a, b in zip(grid[0], grid[1])]
    if cols >= 1 and draw(st.booleans()):  # force a zero column
        j = draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = field.zero()
    return Matrix(field, rows, cols, tuple(x for row in grid for x in row))


@settings(max_examples=400, deadline=None)
@given(eliminable())
def test_from_vectors_matches_reference(m):
    space = Subspace.from_vectors(m.field, m.cols, [m.row_tuple(i) for i in range(m.rows)])
    ref_reduced = _reference_rref(m)[0]
    assert (space.basis.rows, space.basis.cols) == (ref_reduced.rows, ref_reduced.cols)
    assert _bits(space.basis.entries) == _bits(ref_reduced.entries)


@settings(max_examples=400, deadline=None)
@given(eliminable())
def test_rref_and_rank_match_reference(m):
    reduced, pivots = rref(m)
    ref_reduced, ref_pivots = _reference_rref(m)
    assert pivots == ref_pivots
    assert (reduced.rows, reduced.cols) == (ref_reduced.rows, ref_reduced.cols)
    assert _bits(reduced.entries) == _bits(ref_reduced.entries)
    assert rank(m) == len(ref_pivots)


@settings(max_examples=300, deadline=None)
@given(eliminable(), st.data())
def test_solve_matches_reference(a, data):
    b = tuple(
        a.field.coerce(data.draw(st.integers(-3, 3))) for _ in range(a.rows)
    )
    if a.rows and data.draw(st.booleans()):  # a consistent right-hand side
        b = a.apply(tuple(a.field.coerce(k) for k in range(a.cols)))
    x = solve(a, b)
    if a.rows == 0:
        assert x == (a.field.zero(),) * a.cols
        return
    expected = _reference_solve(a, b)
    assert (x is None) == (expected is None)
    if x is not None:
        assert _bits(x) == _bits(expected)
        assert a.apply(x) == b


@settings(max_examples=300, deadline=None)
@given(eliminable(square=True))
def test_inverse_matches_reference(m):
    inv = m.inverse()
    expected = _reference_inverse(m)
    assert (inv is None) == (expected is None)
    if inv is not None:
        assert _bits(inv.entries) == _bits(expected.entries)
        assert m @ inv == Matrix.identity(m.field, m.rows)


def test_elimination_degenerate_shapes():
    for field in FIELDS:
        for shape in ((0, 4), (4, 0), (0, 0)):
            m = Matrix.zero(field, *shape)
            assert rank(m) == 0
            assert rref(m) == (Matrix.zero(field, 0, shape[1]), ())
        assert solve(Matrix.zero(field, 3, 0), (field.zero(),) * 3) == ()
        assert solve(Matrix.zero(field, 3, 0), (field.one(),) * 3) is None
        assert Matrix.zero(field, 0, 0).inverse() == Matrix.zero(field, 0, 0)


def test_rank_leaves_rows_untouched():
    # every elimination works on rows sliced off a cached view: it must
    # neither change the entries nor the view that later products and ranks read
    eliminations = (
        rank, rref, kernel_basis, lambda m: solve(m, m.col_tuple(0)), Matrix.inverse,
    )
    for field, rows in [
        (QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(1, 3)]]),
        (GF(7), [[0, 3, 1], [2, 5, 6], [4, 3, 5]]),
    ]:
        m = Matrix.from_rows(field, rows)
        before = m.entries
        ints, d = m._lifted
        view = list(ints)
        assert rank(m) == 2
        for eliminate in eliminations:
            eliminate(m)
            assert m.entries == before and m._lifted == (view, d)


def _reference_power(m: Matrix, e: int) -> Matrix:
    """The earlier loop: e products starting from the identity."""
    result = Matrix.identity(m.field, m.rows)
    for _ in range(e):
        result = result @ m
    return result


@settings(max_examples=300, deadline=None)
@given(eliminable(square=True), st.integers(0, 5))
def test_power_matches_repeated_products(m, e):
    got = m.power(e)
    expected = _reference_power(m, e)
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert _bits(got.entries) == _bits(expected.entries)


def test_power_degenerate_shapes():
    for field in (QQ, GF(2), GF(32003)):
        empty = Matrix.zero(field, 0, 0)
        for e in range(6):
            assert empty.power(e) == empty
        with pytest.raises(ShapeError):
            Matrix.zero(field, 2, 3).power(2)


DATUM_FIELDS = [QQ, GF(3), GF(32003)]


@st.composite
def adhm_data(draw, min_c: int = 0):
    """Stable, unstable, perturbed (often non-commuting) and raw random data."""
    field = draw(st.sampled_from(DATUM_FIELDS))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(min_c, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("stable", "unstable", "perturbed", "raw")))
    seed = draw(st.integers(0, 10**6))
    if kind == "raw" or (kind == "unstable" and c == 0):
        def entries(k):
            values = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            return tuple(field.coerce(e) for e in values)
        bs = tuple(Matrix(field, c, c, entries(c * c)) for _ in range(n))
        return AdhmDatum(n, c, r, bs, tuple(entries(c) for _ in range(r)))
    stable = {"stable": True, "unstable": False, "perturbed": None}[kind]
    x = random_datum(n, c, r, seed, stable=stable, nilpotent=draw(st.booleans()), field=field)
    if kind == "perturbed" and c >= 2:
        b0 = x.B[0].to_rows()
        b0[0][c - 1] += field.one()
        x = AdhmDatum(n, c, r, (Matrix.from_rows(field, b0),) + x.B[1:], x.v)
    return x


def _reference_apply(m: Matrix, vec) -> tuple:
    """The earlier matrix-vector product: one multiply-add per nonzero pair, on the field objects."""
    vec = tuple(m.field.coerce(x) for x in vec)
    out = []
    for i in range(m.rows):
        acc = m.field.zero()
        for a, x in zip(m.row_tuple(i), vec):
            if a and x:
                acc = acc + a * x
        out.append(acc)
    return tuple(out)


def _reference_reduce(field, rows, pivots, vec) -> tuple[list, list]:
    """The earlier reduction of vec against rows with a 1 at their pivots: (residue, coordinates)."""
    v = [field.coerce(x) for x in vec]
    coords = []
    for row, piv in zip(rows, pivots):
        coeff = v[piv]
        coords.append(coeff)
        if coeff:
            v = [a - coeff * b for a, b in zip(v, row)]
    return v, coords


class _ReferenceSpanBuilder:
    """The earlier span builder: forward-reduced rows of field objects, pivots scaled to 1."""

    def __init__(self, field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: list[list] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        v, _ = _reference_reduce(self.field, self._rows, self._pivots, vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        pv = v[piv]
        self._rows.append([x / pv for x in v])
        self._pivots.append(piv)
        return True

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient dimension")
        return not any(_reference_reduce(self.field, self._rows, self._pivots, vec)[0])

    def to_subspace(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.ambient_dim, self._rows)


def _reference_krylov(x: AdhmDatum):
    """The earlier layer loop, with no stop once the span is all of V."""
    span = _ReferenceSpanBuilder(x.field, x.c)
    frontier = [vec for vec in x.v if span.add(vec)]
    dims = [span.dim]
    while frontier:
        new_frontier = []
        for b in x.B:
            for w in frontier:
                img = _reference_apply(b, w)
                if span.add(img):
                    new_frontier.append(img)
        if new_frontier:
            dims.append(span.dim)
        frontier = new_frontier
    return span.to_subspace(), tuple(dims)


@settings(max_examples=300, deadline=None)
@given(adhm_data())
def test_krylov_verdicts_match_full_layer_loop(x):
    closure, dims = _reference_krylov(x)
    assert is_stable(x) == (closure.dim == x.c)
    got = krylov_closure(x)
    assert got == closure and _bits(got.basis.entries) == _bits(closure.basis.entries)
    if is_adhm(x):
        assert hilbert_profile(x) == dims


# ------------------------------------------------ the one Krylov walk


def _reference_frontier_layers(x: AdhmDatum):
    """The earlier frontier walk: B_i-images of the newest vectors, i-major."""
    span = _ReferenceSpanBuilder(x.field, x.c)
    frontier = [vec for vec in x.v if span.add(vec)]
    dims = [span.dim]
    while frontier and span.dim < x.c:
        new_frontier = []
        for b in x.B:
            for w in frontier:
                img = _reference_apply(b, w)
                if span.add(img):
                    new_frontier.append(img)
        if new_frontier:
            dims.append(span.dim)
        frontier = new_frontier
    return span.to_subspace(), tuple(dims)


def _reference_path_data(x: AdhmDatum) -> PathData:
    """The earlier completion: every word B^alpha v_j rebuilt and scanned in
    (|alpha|, alpha, j) order, for a commuting stable x."""
    span = _ReferenceSpanBuilder(x.field, x.c)
    selected = []
    remaining = []
    for j, vec in enumerate(x.v):
        if span.add(vec):
            selected.append(j)
        else:
            remaining.append(j)
    completion = []
    degree = 1
    while span.dim < x.c and degree <= x.c:
        for alpha in sorted(monomials_of_degree(x.n, degree)):
            for j in range(x.r):
                w = x.v[j]
                for i in range(x.n - 1, -1, -1):
                    for _ in range(alpha[i]):
                        w = _reference_apply(x.B[i], w)
                if span.add(w):
                    completion.append(w)
                    if span.dim == x.c:
                        break
            if span.dim == x.c:
                break
        degree += 1
    assert span.dim == x.c
    needed = len(remaining)
    zero_vec = (x.field.zero(),) * x.c
    padded = list(completion[:needed]) + [zero_vec] * max(0, needed - len(completion))
    return PathData(
        selected=tuple(selected),
        remaining=tuple(remaining),
        completion=tuple(padded),
        permutation=tuple(selected) + tuple(remaining),
    )


@st.composite
def arbitrary_tuples(draw):
    """Sparse small-entry tuples over QQ or GF(2), almost never commuting, so
    many images share an exponent label yet differ."""
    field = draw(st.sampled_from((QQ, GF(2))))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(0, 5)), draw(st.integers(1, 3))

    def entries(k):
        values = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=k, max_size=k))
        return tuple(field.coerce(e) for e in values)

    bs = tuple(Matrix(field, c, c, entries(c * c)) for _ in range(n))
    return AdhmDatum(n, c, r, bs, tuple(entries(c) for _ in range(r)))


def _walk_dims(x: AdhmDatum) -> tuple:
    return tuple(accumulate(len(layer) for layer in _krylov_layers(x)[1]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(arbitrary_tuples(), adhm_data()))
def test_krylov_walk_matches_the_frontier_walk(x):
    closure, dims = _reference_frontier_layers(x)
    got = krylov_closure(x)
    assert got == closure and _bits(got.basis.entries) == _bits(closure.basis.entries)
    assert is_stable(x) == (closure.dim == x.c)
    assert _walk_dims(x) == dims


def test_krylov_walk_tries_every_image_of_a_non_commuting_tuple():
    # B_0 B_1 v = 0 but B_1 B_0 v = e_3: both words carry the label
    # alpha = (1, 1), the first one sorts first, and only the second grows
    # the span; skipping it would leave the closure at dim 3
    b0 = Matrix.from_rows(QQ, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    b1 = Matrix.from_rows(QQ, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    x = AdhmDatum(2, 4, 1, (b0, b1), ((1, 0, 0, 0),))
    assert not is_adhm(x) and is_stable(x)
    assert _reference_frontier_layers(x) == (krylov_closure(x), (1, 3, 4))
    assert [[(alpha, j) for alpha, j, _ in layer] for layer in _krylov_layers(x)[1]] == [
        [((0, 0), 0)], [((0, 1), 0), ((1, 0), 0)], [((1, 1), 0)]
    ]


@st.composite
def commuting_stable_data(draw):
    field = draw(st.sampled_from((QQ, GF(2), GF(3))))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    try:
        return random_datum(n, c, r, draw(st.integers(0, 10**6)), stable=True,
                            nilpotent=draw(st.booleans()), field=field)
    except GenerationError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(commuting_stable_data())
def test_path_selection_and_completion_match_the_full_word_scan(x):
    assert _path_data(x, experimental=True) == _reference_path_data(x)


@st.composite
def invertible(draw, field, c: int) -> Matrix:
    """L D U with unit triangular L, U and a nonzero diagonal D."""
    def scalar(nonzero=False):
        # 1 and 2 are nonzero in every field drawn here
        return field.coerce(draw(st.integers(1, 2) if nonzero else st.integers(-3, 3)))

    zero, one = field.zero(), field.one()
    lower = Matrix.from_rows(field, [[scalar() if j < i else one if j == i else zero
                                      for j in range(c)] for i in range(c)])
    upper = Matrix.from_rows(field, [[scalar() if j > i else one if j == i else zero
                                      for j in range(c)] for i in range(c)])
    diag = Matrix.from_rows(field, [[scalar(nonzero=True) if j == i else zero
                                     for j in range(c)] for i in range(c)])
    return lower @ diag @ upper


@settings(max_examples=200, deadline=None)
@given(adhm_data(min_c=1), st.data())
def test_verdicts_invariant_under_act(x, data):
    g = data.draw(invertible(x.field, x.c))
    y = act(g, x)
    assert is_stable(y) == is_stable(x)
    assert is_adhm(y) == is_adhm(x)
    assert is_nilpotent_tuple(y) == is_nilpotent_tuple(x)


# ------------------------------------------------ the contraction path


@st.composite
def path_inputs(draw):
    """Stable data with r = c, r < c or r > c, and a grid with t = 0, t < 0 and t > 1."""
    field = draw(st.sampled_from(DATUM_FIELDS))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    nilpotent = draw(st.booleans())
    try:
        x = random_datum(n, c, r, draw(st.integers(0, 10**6)), stable=True,
                         nilpotent=nilpotent, field=field)
    except GenerationError:
        assume(False)
    # denominators prime to every characteristic drawn here
    extra = draw(st.lists(st.tuples(st.integers(-6, 6), st.sampled_from((1, 2, 4, 5))),
                          max_size=4))
    grid = ["0", "-1/2", "3/2"] + [f"{a}/{b}" for a, b in extra]
    return x, draw(st.permutations(grid))


@settings(max_examples=200, deadline=None)
@given(path_inputs())
def test_verify_path_flags_are_the_flags_of_each_point(case):
    x, grid = case
    experimental = x.r != x.c
    report = verify_path(x, grid, experimental=experimental)
    assert len(report.samples) == len(grid)
    for sample, t in zip(report.samples, grid):
        pt = homotopy_path(x, t, experimental=experimental)
        assert sample.t == x.field.coerce(t)
        assert (sample.stable, sample.commuting, sample.nilpotent) == (
            is_stable(pt), is_adhm(pt), is_nilpotent_tuple(pt)
        )


# ------------------------------------------------ products, char_poly and evaluate on ints

# the largest prime below the Miller-Rabin bound: residues past 2**81 whose
# products leave every machine word
BOUND_PRIME = 3317044064679887385961813
PRODUCT_FIELDS = [QQ, GF(2), GF(3), GF(32003), GF(BOUND_PRIME)]


def _draw_scalar(draw, field):
    """Small rationals over denominators 1, 2, 3, 7; residues small or anywhere in [0, p)."""
    if field == QQ:
        return Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3, 7))))
    return field.coerce(draw(st.one_of(st.integers(-3, 3), st.integers(0, field.p - 1))))


def _draw_matrix(draw, field, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols, tuple(_draw_scalar(draw, field) for _ in range(rows * cols)))


def _reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The earlier product: one scalar multiply-add per nonzero of a, on the field objects."""
    zero = a.field.zero()
    out = []
    for i in range(a.rows):
        arow = a.row_tuple(i)
        for j in range(b.cols):
            acc = zero
            for k, x in enumerate(arow):
                if x:
                    acc = acc + x * b.entries[k * b.cols + j]
            out.append(acc)
    return Matrix(a.field, a.rows, b.cols, tuple(out))


def _reference_char_poly(m: Matrix) -> tuple:
    """The earlier Faddeev-LeVerrier recursion on Fractions."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    nmat = Matrix.identity(QQ, n)
    for k in range(1, n + 1):
        prod = _reference_matmul(m, nmat)
        a = -sum((prod.entry(i, i) for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = a
        if k < n:
            nmat = prod + Matrix.identity(QQ, n).scale(a)
    return tuple(coeffs)


def _reference_evaluate(m, point) -> Matrix:
    """The earlier evaluation: every coefficient times its coordinate, on the field objects."""
    field = m.field
    pt = tuple(field.coerce(z) for z in point)
    if all(not z for z in pt):
        raise ValueError("the zero tuple is not a point of projective space")
    one = field.one()
    out = [field.zero()] * (m.rows * m.cols)
    for z, ak in zip(pt, m.coeffs):
        if not z:
            continue
        for (i, j), c in ak.items():
            idx = i * m.cols + j
            term = c if z == one else c * z
            out[idx] = out[idx] + term if out[idx] else term
    return Matrix(field, m.rows, m.cols, tuple(out))


def _reference_compose(a: LinearFormMatrix, b: LinearFormMatrix) -> dict:
    """The earlier composition's coefficients: one scalar multiply-add per pair of nonzeros."""
    b_rows = []
    for bl in b.coeffs:
        index: dict = {}
        for (m, j), value in bl.items():
            index.setdefault(m, []).append((j, value))
        b_rows.append(index)
    sums: dict = {}
    for k, ak in enumerate(a.coeffs):
        for l, index in enumerate(b_rows):
            acc = sums.setdefault((min(k, l), max(k, l)), {})
            for (i, m), av in ak.items():
                for j, bv in index.get(m, ()):
                    prev = acc.get((i, j))
                    acc[(i, j)] = av * bv if prev is None else prev + av * bv
    out = {}
    for key, acc in sums.items():
        nonzero = {ij: value for ij, value in acc.items() if value}
        if nonzero:
            out[key] = nonzero
    return out


def _reference_is_adhm(x: AdhmDatum) -> bool:
    return all(
        (_reference_matmul(x.B[i], x.B[j]) - _reference_matmul(x.B[j], x.B[i])).is_zero()
        for i in range(x.n) for j in range(i + 1, x.n)
    )


@st.composite
def product_pairs(draw):
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    rows, inner, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return _draw_matrix(draw, field, rows, inner), _draw_matrix(draw, field, inner, cols)


@settings(max_examples=400, deadline=None)
@given(product_pairs())
def test_matmul_matches_reference(pair):
    a, b = pair
    got, expected = a @ b, _reference_matmul(a, b)
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert _bits(got.entries) == _bits(expected.entries)


def test_matmul_degenerate_shapes():
    for field in PRODUCT_FIELDS:
        for rows, inner, cols in ((0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0), (0, 2, 0)):
            a = Matrix(field, rows, inner, (field.one(),) * (rows * inner))
            b = Matrix(field, inner, cols, (field.one(),) * (inner * cols))
            assert a @ b == Matrix.zero(field, rows, cols) == _reference_matmul(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.builds(
    lambda entries: Matrix(QQ, n, n, tuple(entries)),
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 7))),
             min_size=n * n, max_size=n * n),
)))
def test_char_poly_matches_reference(m):
    assert _bits(char_poly(m)) == _bits(_reference_char_poly(m))


def _draw_form_matrix(draw, field, rows: int, cols: int, nvars: int) -> LinearFormMatrix:
    """Sparse coefficient matrices, about half of each one's entries zero."""
    coeffs = []
    for _ in range(nvars):
        ak = {}
        for i in range(rows):
            for j in range(cols):
                value = _draw_scalar(draw, field) if draw(st.booleans()) else None
                if value:
                    ak[(i, j)] = value
        coeffs.append(ak)
    return LinearFormMatrix(field, rows, cols, tuple(coeffs))


@st.composite
def monad_maps(draw):
    """A monad map of a raw (not necessarily commuting) tuple or a random form matrix,
    and a point that often has zeros."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    if draw(st.booleans()):
        n, c, r = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
        bs = tuple(_draw_matrix(draw, field, c, c) for _ in range(n))
        vs = tuple(tuple(_draw_scalar(draw, field) for _ in range(c)) for _ in range(r))
        x = AdhmDatum(n, c, r, bs, vs)
        builds = [alpha0, alpha_minus1] + ([alpha_minus2_p3] if n == 3 else [])
        m = draw(st.sampled_from(builds))(x)
    else:
        rows, cols, n = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
        m = _draw_form_matrix(draw, field, rows, cols, n + 1)
    point = [field.zero() if draw(st.booleans()) else _draw_scalar(draw, field)
             for _ in range(n)]
    at_infinity = draw(st.booleans())
    point.append(field.zero() if at_infinity else _draw_scalar(draw, field))
    return m, tuple(point)


@settings(max_examples=400, deadline=None)
@given(monad_maps())
def test_evaluate_matches_reference(case):
    m, point = case
    if all(not z for z in point):
        with pytest.raises(ValueError):
            evaluate(m, point)
        return
    got, expected = evaluate(m, point), _reference_evaluate(m, point)
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert _bits(got.entries) == _bits(expected.entries)


@st.composite
def form_pairs(draw):
    """Composable random form matrices; over GF(2) and GF(3) many sums cancel mod p."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    nvars = draw(st.integers(1, 4))
    rows, inner, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (_draw_form_matrix(draw, field, rows, inner, nvars),
            _draw_form_matrix(draw, field, inner, cols, nvars))


def _exact_coeffs(coeffs: dict) -> dict:
    return {key: {ij: _bits((v,)) for ij, v in c.items()} for key, c in coeffs.items()}


@settings(max_examples=400, deadline=None)
@given(form_pairs())
def test_compose_matches_reference(pair):
    a, b = pair
    got = compose(a, b)
    assert (got.field, got.rows, got.cols) == (a.field, a.rows, b.cols)
    assert _exact_coeffs(got.coeffs) == _exact_coeffs(_reference_compose(a, b))


@pytest.mark.parametrize("p", [2, 3])
def test_compose_drops_sums_that_vanish_mod_p(p):
    # the z0^2 block is (row of p ones) @ (column of p ones) = p = 0; only the z0 z1 block is left
    field = GF(p)
    one = field.one()
    a = LinearFormMatrix(field, 2, p, ({(i, m): one for i in range(2) for m in range(p)}, {}))
    b = LinearFormMatrix(field, p, 1, ({(m, 0): one for m in range(p)}, {(0, 0): one}))
    got = compose(a, b)
    assert got.coeffs == _reference_compose(a, b) == {(0, 1): {(0, 0): one, (1, 0): one}}


def _assert_trusted(m: Matrix) -> None:
    """m is what the public constructor makes of its own entries, each the field's scalar type."""
    assert Matrix(m.field, m.rows, m.cols, m.entries) == m
    if m.field == QQ:
        assert all(type(x) is Fraction for x in m.entries)
    else:
        assert all(type(x) is GFElement and x.p == m.field.p for x in m.entries)


@settings(max_examples=200, deadline=None)
@given(product_pairs(), monad_maps())
def test_internal_results_match_the_public_constructor(pair, case):
    a, b = pair
    for m in (a @ b, a.transpose(), b.transpose()):
        _assert_trusted(m)
    m, point = case
    if any(point):
        _assert_trusted(evaluate(m, point))


@st.composite
def commuting_candidates(draw):
    """Tuples over every product field: polynomials in one matrix, the same with B_0 perturbed, or raw."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    n, c = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("commuting", "perturbed", "raw")))
    if kind == "raw":
        bs = [_draw_matrix(draw, field, c, c) for _ in range(n)]
    else:
        seed = _draw_matrix(draw, field, c, c)
        shift = Matrix.identity(field, c)
        bs = [_reference_matmul(seed, seed.power(i)) + shift.scale(_draw_scalar(draw, field))
              for i in range(n)]
        if kind == "perturbed" and c >= 2:
            b0 = bs[0].to_rows()
            b0[0][c - 1] += field.one()
            bs[0] = Matrix.from_rows(field, b0)
    return kind, AdhmDatum(n, c, 1, tuple(bs), ((field.zero(),) * c,))


@settings(max_examples=300, deadline=None)
@given(commuting_candidates())
def test_is_adhm_matches_reference(case):
    kind, x = case
    assert is_adhm(x) == _reference_is_adhm(x)
    if kind == "commuting":
        assert is_adhm(x)


# ------------------------------------------------ the cached int view of a Matrix


def _reference_monomial_table(x: AdhmDatum, degree: int) -> dict:
    """The earlier table of B^alpha v_j, filled degree by degree with products on the field objects."""
    table = {((0,) * x.n, j): x.v[j - 1] for j in range(1, x.r + 1)}
    for d in range(1, degree + 1):
        for alpha in monomials_of_degree(x.n, d):
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent = tuple(a - 1 if k == i else a for k, a in enumerate(alpha))
            for j in range(1, x.r + 1):
                table[(alpha, j)] = _reference_apply(x.B[i], table[(parent, j)])
    return table


def _reference_phi(x: AdhmDatum, p: PolyVector) -> tuple:
    """The earlier evaluation of sum_j p_j(B) v_j: a scalar multiply-add per term and coordinate."""
    table = _reference_monomial_table(x, p.degree())
    acc = [x.field.zero()] * x.c
    for term, coeff in p.terms.items():
        coeff = x.field.coerce(coeff)
        acc = [a + coeff * b for a, b in zip(acc, table[term])]
    return tuple(acc)


def _draw_vectors(draw, field, dim: int) -> list[tuple]:
    """Vectors with mixed denominators or residues, often combinations of earlier ones."""
    vectors: list[tuple] = []
    for _ in range(draw(st.integers(0, 6))):
        if len(vectors) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s = _draw_scalar(draw, field)
            vectors.append(tuple(s * u + w for u, w in zip(a, b)))
        else:
            vectors.append(tuple(_draw_scalar(draw, field) for _ in range(dim)))
    return vectors


@st.composite
def vector_families(draw):
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    dim = draw(st.integers(0, 5))
    return field, dim, _draw_vectors(draw, field, dim), _draw_vectors(draw, field, dim)


@settings(max_examples=200, deadline=None)
@given(vector_families())
def test_span_builder_matches_reference(family):
    field, dim, added, probes = family
    got, ref = SpanBuilder(field, dim), _ReferenceSpanBuilder(field, dim)
    assert [got.add(v) for v in added] == [ref.add(v) for v in added]
    assert got.dim == ref.dim
    assert [got.contains(v) for v in added + probes] == [ref.contains(v) for v in added + probes]
    space, expected = got.to_subspace(), ref.to_subspace()
    assert space == expected and _bits(space.basis.entries) == _bits(expected.basis.entries)


@settings(max_examples=200, deadline=None)
@given(vector_families())
def test_coordinates_match_reference(family):
    field, dim, spanning, probes = family
    space = Subspace.from_vectors(field, dim, spanning)
    rows = [space.basis.row_tuple(i) for i in range(space.dim)]
    pivots = [next(j for j, a in enumerate(row) if a) for row in rows]
    for vec in spanning + probes:
        residue, coords = _reference_reduce(field, rows, pivots, vec)
        expected = None if any(residue) else tuple(coords)
        got = space.coordinates(vec)
        assert got == expected and (got is None or _bits(got) == _bits(expected))
        assert space.contains(vec) == (expected is not None)


@st.composite
def matrix_vector_pairs(draw):
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return _draw_matrix(draw, field, rows, cols), tuple(_draw_scalar(draw, field) for _ in range(cols))


@settings(max_examples=200, deadline=None)
@given(matrix_vector_pairs())
def test_apply_matches_reference(pair):
    m, vec = pair
    assert _bits(m.apply(vec)) == _bits(_reference_apply(m, vec))


@st.composite
def rank_deficient(draw):
    """Mixed-denominator or residue matrices whose later rows are often combinations of earlier ones."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    cols = draw(st.integers(0, 6))
    rows = _draw_vectors(draw, field, cols)
    return Matrix(field, len(rows), cols, tuple(a for row in rows for a in row))


@settings(max_examples=200, deadline=None)
@given(rank_deficient())
def test_rank_matches_reference(m):
    assert rank(m) == len(_reference_echelonize(m.to_rows()))


@st.composite
def sparse_matrices(draw):
    """Up to 60 x 40 with at most 15 % nonzeros, some rows sparse combinations of
    earlier ones: the pivot rows are sparse, so rank updates walk their support."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    rows, cols = draw(st.integers(1, 60)), draw(st.integers(1, 40))
    density = draw(st.sampled_from((0.02, 0.05, 0.1, 0.15)))
    rng = random.Random(draw(st.integers(0, 10**6)))

    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 7)))
        return field.coerce(rng.randint(1, 32002))

    grid = [[scalar() if rng.random() < density else field.zero() for _ in range(cols)]
            for _ in range(rows)]
    for i in range(2, rows):
        if rng.random() < 0.2:  # a rank drop that keeps the row sparse
            a, b = rng.sample(range(i), 2)
            s = scalar()
            grid[i] = [s * u + w for u, w in zip(grid[a], grid[b])]
    return Matrix(field, rows, cols, tuple(x for row in grid for x in row))


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_rank_of_sparse_matrices_matches_reference(m):
    assert rank(m) == len(_reference_echelonize(m.to_rows()))


@st.composite
def phi_cases(draw):
    """A commuting tuple (polynomials in one mixed-denominator or residue matrix) and a polynomial vector."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 2))
    powers = _powers(_draw_matrix(draw, field, c, c), c)
    bs = tuple(_matrix_polynomial(powers, [_draw_scalar(draw, field) for _ in range(c)])
               for _ in range(n))
    vs = tuple(tuple(_draw_scalar(draw, field) for _ in range(c)) for _ in range(r))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        alpha = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[(alpha, draw(st.integers(1, r)))] = _draw_scalar(draw, field)
    return AdhmDatum(n, c, r, bs, vs), PolyVector(n, r, terms)


@st.composite
def matrix_polynomials(draw):
    """Powers of a mixed-denominator or residue matrix, and up to one coefficient per power."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    c = draw(st.integers(0, 4))
    powers = _powers(_draw_matrix(draw, field, c, c), max(c, 1))
    count = len(powers) if draw(st.booleans()) else draw(st.integers(0, len(powers)))
    return powers, [_draw_scalar(draw, field) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(matrix_polynomials())
def test_matrix_polynomial_matches_scaled_sums(case):
    powers, coeffs = case
    expected = Matrix.zero(powers[0].field, powers[0].rows, powers[0].cols)
    for k, a in enumerate(coeffs):
        if a:
            expected = expected + powers[k].scale(a)
    got = _matrix_polynomial(powers, coeffs)
    assert _bits(got.entries) == _bits(expected.entries)
    _assert_trusted(got)


@settings(max_examples=200, deadline=None)
@given(phi_cases())
def test_phi_matches_reference(case):
    x, p = case
    expected = _reference_phi(x, p)
    assert _bits(phi_apply(x, p)) == _bits(expected)
    # the certificate's path: one table for several generators
    table = quotmod._monomial_vector_table(x, p.degree() + 1)
    assert _bits(quotmod._evaluate(x, table, p)) == _bits(expected)
    shifted = p.times_monomial((1,) + (0,) * (x.n - 1))
    assert _bits(quotmod._evaluate(x, table, shifted)) == _bits(_reference_phi(x, shifted))


def test_cached_view_takes_no_part_in_eq_hash_or_repr():
    for field, entries in [(QQ, (Fraction(1, 2), 3, Fraction(-2, 7), 0)), (GF(5), (1, 7, 0, 4))]:
        m, fresh = Matrix(field, 2, 2, entries), Matrix(field, 2, 2, entries)
        before = repr(m)
        assert rank(m) == 2
        assert "_lifted" in vars(m) and "_lifted" not in vars(fresh)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == before == repr(fresh)
        assert m @ fresh == fresh @ fresh
        # a seeded view reads the same values, over QQ also on another denominator
        ints, d = m._lifted
        k = 3 if field == QQ else 1
        seeded = Matrix._of(field, 2, 2, m.entries, ([k * a for a in ints], k * d))
        assert seeded == m and hash(seeded) == hash(m) and repr(seeded) == before
        assert rank(seeded) == rank(m) and seeded.apply((1, 2)) == m.apply((1, 2))


@pytest.mark.parametrize("p", [2, 3])
def test_rank_of_an_evaluation_reads_reduced_residues(p):
    # every entry of the evaluation is the sum of p ones, so it vanishes mod p:
    # a seeded view holding the unreduced sums would count a pivot
    field = GF(p)
    one = field.one()
    m = LinearFormMatrix(field, 2, 2, tuple({(i, j): one for i in range(2) for j in range(2)}
                                            for _ in range(p)))
    a = evaluate(m, (one,) * p)
    assert a.is_zero() and rank(a) == 0 == rank(Matrix(field, 2, 2, a.entries))
    b = evaluate(m, (one,) * (p - 1) + (field.coerce(2),))
    assert rank(b) == 1 == rank(Matrix(field, 2, 2, b.entries))


# ------------------------------------------------ round trip and reduction mod p

ROUND_TRIP_FIELDS = [QQ, GF(32003)]


@st.composite
def small_stable_data(draw, field=None):
    if field is None:
        field = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    n, c, r = draw(st.integers(1, 2)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    try:
        return random_datum(n, c, r, draw(st.integers(0, 10**6)), stable=True,
                            nilpotent=draw(st.booleans()), field=field)
    except GenerationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(small_stable_data(), st.booleans())
def test_jacobian_matches_the_public_constructor(x, nilpotent):
    sys = EquationSystem(nilpotent=nilpotent and is_nilpotent_tuple(x))
    _assert_trusted(jacobian(x, sys))


def _reference_block_value(x: AdhmDatum, block: list, product) -> list:
    """The earlier block value: word products' entries summed as field scalars."""
    one = x.field.one()
    acc = None
    for coeff, word in block:
        entries = product(word).entries
        if coeff != one:
            entries = [coeff * v for v in entries]
        acc = entries if acc is None else [a + v for a, v in zip(acc, entries)]
    return [x.field.zero()] * (x.c * x.c) if acc is None else acc


def _reference_jacobian(x: AdhmDatum, sys: EquationSystem) -> Matrix:
    """The earlier Jacobian: every term L E_ab R added scalar by scalar."""
    blocks = _equations(x, sys)
    product = _word_products(x)
    if any(any(_reference_block_value(x, block, product)) for block in blocks):
        raise ResidualError("datum does not satisfy the equation system exactly")
    field = x.field
    c = x.c
    zero, one = field.zero(), field.one()
    rows = [[zero] * coordinate_count(x) for _ in range(len(blocks) * c * c)]
    for eq, block in enumerate(blocks):
        for coeff, word in block:
            for p, k in enumerate(word):
                left = product(word[:p]).entries
                right = [(i // c, i % c, rv)
                         for i, rv in enumerate(product(word[p + 1:]).entries) if rv]
                for s in range(c):
                    out = rows[(eq * c + s) * c:(eq * c + s + 1) * c]
                    for a in range(c):
                        lv = left[s * c + a]
                        if not lv:
                            continue
                        if coeff != one:
                            lv = lv * coeff
                        terms = right if lv == one else [(b, q, lv * rv) for b, q, rv in right]
                        col = (k * c + a) * c
                        for b, q, v in terms:
                            out[q][col + b] += v
    return Matrix._of(field, len(rows), coordinate_count(x), (v for row in rows for v in row))


@st.composite
def jacobian_cases(draw):
    """Commuting data over QQ and three primes, often conjugated, with equation
    systems that often hold: nilpotency on nilpotent data, relations of degree
    >= c on nilpotent data, and over QQ a rational multiple of B_k's
    Cayley-Hamilton relation."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 2))
    nilpotent = draw(st.booleans())
    try:
        x = random_datum(n, c, r, draw(st.integers(0, 10**6)), nilpotent=nilpotent, field=field)
    except GenerationError:
        assume(False)
    if field != GF(2) and draw(st.booleans()):
        # conjugation keeps every relation; over QQ it gives the word
        # products different denominators
        x = act(draw(invertible(field, c)), x)

    def coeff():
        if field == QQ:
            return Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from((1, 2, 3, 7))))
        return draw(st.integers(-5, 5))

    relations = []
    if nilpotent and draw(st.booleans()):
        # every product of c commuting strictly upper triangular matrices vanishes
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            alpha = [draw(st.integers(0, 2)) for _ in range(n)]
            alpha[0] += max(c - sum(alpha), 0)
            terms[(tuple(alpha), 1)] = coeff()
        relations.append(PolyVector(n, 1, terms))
    if field == QQ and draw(st.booleans()):
        k, scale = draw(st.integers(0, n - 1)), coeff()
        relations.append(PolyVector(n, 1, {
            (tuple(e if i == k else 0 for i in range(n)), 1): scale * a
            for e, a in enumerate(char_poly(x.B[k]))
        }))
    sys = EquationSystem(
        commutators=draw(st.booleans()),
        nilpotent=draw(st.booleans()),
        nilpotency_power=draw(st.one_of(st.none(), st.integers(1, 5))),
        variety_relations=tuple(relations),
    )
    return x, sys


@settings(max_examples=300, deadline=None)
@given(jacobian_cases())
def test_jacobian_and_residual_match_reference(case):
    x, sys = case
    product = _word_products(x)
    expected_residual = [v for block in _equations(x, sys)
                         for v in _reference_block_value(x, block, product)]
    assert _bits(residual(x, sys)) == _bits(expected_residual)
    if any(expected_residual):
        with pytest.raises(ResidualError):
            jacobian(x, sys)
        return
    got, expected = jacobian(x, sys), _reference_jacobian(x, sys)
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert _bits(got.entries) == _bits(expected.entries)
    assert rank(got) == rank(Matrix(x.field, got.rows, got.cols, got.entries))


def _square_zero(n: int, c: int, r: int, a: int, field, seed: int) -> AdhmDatum:
    """B_i = lambda_i I + N_i with N_i mapping the first a coordinates into the
    last c - a (so every N_i N_j = 0), and r random vectors."""
    rng = random.Random(seed)
    bs = []
    for _ in range(n):
        lam = rng.randint(-3, 3)
        bs.append(Matrix(field, c, c, tuple(
            field.coerce(lam if i == j else rng.randint(-3, 3) if i >= a > j else 0)
            for i in range(c) for j in range(c)
        )))
    vs = tuple(tuple(field.coerce(rng.randint(-3, 3)) for _ in range(c)) for _ in range(r))
    return AdhmDatum(n, c, r, tuple(bs), vs)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n,c,r,a,moduli", [
    (4, 4, 2, 2, 16),  # Gerstenhaber's square-zero example
    (5, 5, 2, 2, 26),
    (6, 6, 3, 3, 51),
])
def test_square_zero_tangent_dimensions(field, n, c, r, a, moduli):
    x = _square_zero(n, c, r, a, field, seed=2)
    assert is_adhm(x) and is_stable(x)
    assert moduli_dimension_estimate(x, EquationSystem()) == moduli


@settings(max_examples=150, deadline=None)
@given(small_stable_data())
def test_round_trip_lands_in_the_same_orbit(x):
    y = module_from_generators(x.n, x.r, kernel_basis_up_to_degree(x, x.c))
    assert y.field == x.field and y.c == x.c
    g = equivalence(x, y)
    assert g is not None and act(g, x) == y


@settings(max_examples=150, deadline=None)
@given(small_stable_data(field=QQ), st.integers(0, 10**6))
def test_rank_mod_p_never_exceeds_rank_over_qq(x, seed):
    field = GF(32003)

    def reduce(values):  # x has integer entries, so reduction is entrywise
        return tuple(field.coerce(int(v)) for v in values)

    xp = AdhmDatum(x.n, x.c, x.r, tuple(Matrix(field, x.c, x.c, reduce(b.entries)) for b in x.B),
                   tuple(reduce(vec) for vec in x.v))
    a0, a0p = alpha0(x), alpha0(xp)
    for pt in sample_points(x, 12, seed):
        assert rank(evaluate(a0p, reduce(pt))) <= rank(evaluate(a0, pt))


# ------------------------------------------------ the joint-eigenspace splitter


def _reference_restricted_operator(x: AdhmDatum, space: Subspace, i: int) -> Matrix:
    """Matrix of B_i on an invariant subspace, in the subspace basis."""
    images = []
    for s in range(space.dim):
        img = x.B[i].apply(space.basis.row_tuple(s))
        coords = space.coordinates(img)
        if coords is None:
            raise NonCommutingError("subspace is not invariant under the tuple")
        images.append(coords)
    if not images:
        return Matrix.zero(x.field, 0, 0)
    return Matrix.from_rows(x.field, images).transpose()


def _reference_support(x: AdhmDatum) -> SupportReport:
    """The earlier recursion: generalized eigenspaces of B_0, then of B_1 on each, ..."""
    points: list[tuple[tuple, int]] = []
    factors: list[FactorReport] = []

    def split(space: Subspace, axis: int, coords: tuple):
        if space.dim == 0:
            return
        if axis == x.n:
            points.append((coords, space.dim))
            return
        op = _reference_restricted_operator(x, space, axis)
        roots, irreducible = rational_eigenvalues(op)
        factors.extend(_factor_reports(axis, irreducible))
        for lam, mult in sorted(roots):
            shifted = op - Matrix.identity(x.field, op.rows).scale(lam)
            gen_eigen = kernel_basis(shifted.power(mult))
            vectors = []
            for i in range(gen_eigen.dim):
                cvec = gen_eigen.basis.row_tuple(i)
                vec = [x.field.zero()] * x.c
                for s, coeff in enumerate(cvec):
                    if coeff:
                        row = space.basis.row_tuple(s)
                        vec = [a + coeff * b for a, b in zip(vec, row)]
                vectors.append(vec)
            split(Subspace.from_vectors(x.field, x.c, vectors), axis + 1, coords + (lam,))

    split(Subspace.full(x.field, x.c), 0, ())
    points.sort(key=lambda pm: pm[0])
    complete = sum(m for _, m in points) == x.c
    return SupportReport(points=tuple(points), complete=complete, factorizations=tuple(factors))


def _reference_common_left_eigenvector(x: AdhmDatum, closure: Subspace):
    """The earlier search: split the annihilator of the closure one operator
    at a time under w -> w B_i, along rational eigenvalues."""
    ann = kernel_basis(closure.basis)
    if ann.dim == 0:
        return None

    def restricted(op_index: int, space: Subspace) -> Matrix:
        images = []
        for i in range(space.dim):
            w = space.basis.row_tuple(i)
            img = tuple(
                sum((w[a] * x.B[op_index].entry(a, b) for a in range(x.c)),
                    x.field.zero())
                for b in range(x.c)
            )
            coords = space.coordinates(img)
            if coords is None:
                raise AssertionError("annihilator is not invariant; datum not commuting?")
            images.append(coords)
        if not images:
            return Matrix.zero(x.field, 0, 0)
        return Matrix.from_rows(x.field, images).transpose()

    def search(space: Subspace, axis: int, eigs: tuple):
        if space.dim == 0:
            return None
        if axis == x.n:
            return space.basis.row_tuple(0), eigs
        r = restricted(axis, space)
        roots, _ = rational_eigenvalues(r)
        for lam, _mult in sorted(roots):
            shifted = r - Matrix.identity(x.field, r.rows).scale(lam)
            eigen = kernel_basis(shifted)
            if eigen.dim == 0:
                continue
            vectors = []
            for i in range(eigen.dim):
                coords = eigen.basis.row_tuple(i)
                vec = [x.field.zero()] * x.c
                for s, coeff in enumerate(coords):
                    if coeff:
                        row = space.basis.row_tuple(s)
                        vec = [a + coeff * b for a, b in zip(vec, row)]
                vectors.append(vec)
            sub = Subspace.from_vectors(x.field, x.c, vectors)
            found = search(sub, axis + 1, eigs + (lam,))
            if found is not None:
                return found
        return None

    return search(ann, 0, ())


def _qq_datum(bs, vs) -> AdhmDatum:
    matrices = tuple(Matrix.from_rows(QQ, b) for b in bs)
    return AdhmDatum(len(bs), matrices[0].rows, len(vs), matrices, tuple(vs))


_SQRT2 = [[0, 2], [1, 0]]  # characteristic polynomial z**2 - 2
_JORDAN = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]  # J_2(1) + (2)


@st.composite
def commuting_qq_data(draw):
    """random_datum draws (stable, unstable or either), and polynomials in one
    small integer matrix, whose spectrum is often irrational or repeated and
    whose small vectors often leave the datum unstable."""
    n, c, r = draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(1, 2))
    if draw(st.booleans()):
        stable = draw(st.sampled_from((True, False, None)))
        try:
            return random_datum(n, c, r, draw(st.integers(0, 10**6)), stable=stable,
                                nilpotent=draw(st.booleans()))
        except GenerationError:
            assume(False)

    def small(k):
        return tuple(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)))

    powers = _powers(Matrix(QQ, c, c, small(c * c)), c)
    bs = tuple(_matrix_polynomial(powers, small(c)) for _ in range(n))
    return AdhmDatum(n, c, r, bs, tuple(small(c) for _ in range(r)))


_SPLITTER_EXAMPLES = (
    _qq_datum([_SQRT2], [(1, 0)]),  # stable, irrational support
    _qq_datum([_SQRT2], [(0, 0)]),  # unstable, no rational witness
    _qq_datum([_JORDAN, [[1, 2, 0], [0, 1, 0], [0, 0, 4]]], [(1, 0, 0)]),  # rational witness
)


@settings(max_examples=200, deadline=None)
@given(commuting_qq_data())
@example(_SPLITTER_EXAMPLES[0])
@example(_SPLITTER_EXAMPLES[1])
@example(_SPLITTER_EXAMPLES[2])
def test_support_and_certificate_match_the_separate_recursions(x):
    assume(is_adhm(x))
    assert support(x) == _reference_support(x)
    with mock.patch.object(monad, "_common_left_eigenvector",
                           _reference_common_left_eigenvector):
        reference = monad.surjectivity_certificate(x)
    assert monad.surjectivity_certificate(x) == reference


def test_splitter_examples_cover_each_verdict():
    reports = [(support(x).complete, monad.surjectivity_certificate(x).witness_available)
               for x in _SPLITTER_EXAMPLES]
    assert reports == [(False, None), (False, False), (True, True)]


def test_joint_eigenspaces_on_a_jordan_block():
    """J_2(-1) + (0) + a block with characteristic polynomial z**2 - 2."""
    rows = [[-1, 1, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 2], [0, 0, 0, 1, 0]]
    op = Matrix.from_rows(QQ, rows)
    leaves = {}
    for generalized in (True, False):
        irrational: list = []
        found = list(joint_eigenspaces([op], Subspace.full(QQ, 5), generalized=generalized,
                                       irrational=irrational))
        leaves[generalized] = [(eigs, leaf.dim) for eigs, leaf in found]
        assert irrational == [(0, [((-2, 0, 1), 1)])]
        for (lam,), leaf in found:
            assert leaf.basis == rref(leaf.basis)[0]
            power = 2 if generalized and lam == -1 else 1
            shifted = (op - Matrix.identity(QQ, 5).scale(lam)).power(power)
            for i in range(leaf.dim):
                assert shifted.apply(leaf.basis.row_tuple(i)) == (QQ.zero(),) * 5
    assert leaves[True] == [((-1,), 2), ((0,), 1)]
    assert leaves[False] == [((-1,), 1), ((0,), 1)]
