"""Exact scalars (rationals and prime fields) and dense linear algebra.

Every rank/kernel/solve verdict downstream is a strict algebraic condition,
so arithmetic is exact by construction: rational scalars are
``fractions.Fraction`` (always reduced, positive denominator), prime-field
scalars are canonical residues wrapped in :class:`GFElement`.  There is no
floating-point mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Iterable, Iterator, Sequence, Union


class LinearAlgebraError(ValueError):
    """Base for shape/field errors raised by this module."""


class FieldMismatchError(LinearAlgebraError):
    """Scalars of different modes (or different moduli) were combined."""


class ShapeError(LinearAlgebraError):
    """Matrix/vector dimensions do not fit the requested operation."""


class SingularMatrixError(LinearAlgebraError):
    """An invertible matrix was required."""


# The primes up to 41 are Miller-Rabin witnesses for every composite below
# this bound (Sorenson and Webster, 2015), so the test is deterministic there.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < 3.3e24.

    Larger moduli are rejected with a :class:`LinearAlgebraError` rather
    than answered probabilistically.
    """
    if p >= _MILLER_RABIN_LIMIT:
        raise LinearAlgebraError(
            f"prime modulus {p} is too large (must be below {_MILLER_RABIN_LIMIT})"
        )
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GFElement:
    """Residue in Z/p for a fixed prime p; values stay canonical in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _same_field(self, other: "GFElement") -> None:
        if self.p != other.p:
            raise FieldMismatchError(f"mixed prime moduli {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, GFElement):
            return NotImplemented
        self._same_field(other)
        return GFElement(self.value + other.value, self.p)

    def __sub__(self, other):
        if not isinstance(other, GFElement):
            return NotImplemented
        self._same_field(other)
        return GFElement(self.value - other.value, self.p)

    def __mul__(self, other):
        if not isinstance(other, GFElement):
            return NotImplemented
        self._same_field(other)
        return GFElement(self.value * other.value, self.p)

    def __truediv__(self, other):
        if not isinstance(other, GFElement):
            return NotImplemented
        self._same_field(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return GFElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return (self.value - other) % self.p == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """Tag object for the rationals; elements are ``fractions.Fraction``."""

    name = "rational"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into the rational field")

    def format(self, x) -> str:
        return str(self.coerce(x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Tag object for GF(p); elements are :class:`GFElement` with modulus p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise LinearAlgebraError(f"{p} is not prime")
        self.p = p
        self.name = f"gf({p})"

    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise FieldMismatchError(f"residue mod {x.p} used in GF({self.p})")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/", 1)
                return GFElement(int(num), self.p) / GFElement(int(den), self.p)
            return GFElement(int(x), self.p)
        raise FieldMismatchError(f"cannot coerce {x!r} into GF({self.p})")

    def format(self, x) -> str:
        return str(self.coerce(x).value)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with modulus p."""
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


Field = Union[RationalField, PrimeField]
Scalar = Union[Fraction, GFElement]


class Matrix:
    """Dense matrix with row-major entries over a single exact field.

    Degenerate shapes (0 x k and k x 0) are legal and have rank 0.  A matrix
    is its int view ``_lifted = (ints, d)``, the entries ints[k] / d in the
    canonical form :func:`_lift` gives, whichever constructor built it: ==,
    hash and every operation read it.  The scalar ``entries`` are made from
    it on their first read, unless the constructor was given them.  A matrix
    is immutable, and a pickled or copied matrix keeps its int view.
    """

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        entries = tuple(field.coerce(x) for x in entries)
        self.__dict__.update(field=field, rows=rows, cols=cols, entries=entries,
                             _lifted=_lift(field, entries))

    @classmethod
    def _of_ints(cls, field: Field, rows: int, cols: int, ints: list[int], d: int) -> "Matrix":
        """The matrix of the row-major entries ints[k] / d, built from int sums.

        Takes ownership of ``ints``: it becomes the matrix's int view, in the
        canonical form :func:`_lift` gives, reduced mod p in place over GF(p)
        (only the nonzero sums are touched) and over QQ divided by
        gcd(d, *ints) when d > 1.  The scalar entries are made on their first
        read, so a caller that only reads the int view, such as :func:`rank`,
        never builds them.
        """
        if isinstance(field, PrimeField):
            p = field.p
            for k in compress(range(len(ints)), ints):
                ints[k] %= p
        elif d > 1 and (g := math.gcd(d, *ints)) > 1:
            ints, d = [a // g for a in ints], d // g
        m = object.__new__(cls)
        m.__dict__.update(field=field, rows=rows, cols=cols, _lifted=(ints, d))
        return m

    @cached_property
    def entries(self) -> tuple:
        return tuple(_scalars(self.field, *self._lifted))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.rows, self.cols, self._lifted) == (
            other.field, other.rows, other.cols, other._lifted)

    def __hash__(self):
        ints, d = self._lifted
        return hash((self.field, self.rows, self.cols, tuple(ints), d))

    def __repr__(self):
        return (f"{type(self).__qualname__}(field={self.field!r}, rows={self.rows!r}, "
                f"cols={self.cols!r}, entries={self.entries!r})")

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return cls(field, nrows, ncols, tuple(flat))

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of_ints(field, rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        ints = [0] * (n * n)
        ints[:: n + 1] = [1] * n
        return cls._of_ints(field, n, n, ints, 1)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row_tuple(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col_tuple(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list]:
        return [list(self.row_tuple(i)) for i in range(self.rows)]

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    def _plus(self, other: "Matrix", sign: int, name: str) -> "Matrix":
        """self + sign * other, by :func:`_linear_combination`."""
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"shape mismatch in {name}")
        return _linear_combination([self, other], [1, sign])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "subtraction")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        (a, da), (b, db) = self._lifted, other._lifted
        out = _int_product(a, b, self.rows, self.cols, other.cols)
        return Matrix._of_ints(self.field, self.rows, other.cols, out, da * db)

    def scale(self, s) -> "Matrix":
        return _linear_combination([self], [s])

    def transpose(self) -> "Matrix":
        ints, d = self._lifted
        cols = self.cols
        return Matrix._of_ints(
            self.field, cols, self.rows, [a for j in range(cols) for a in ints[j::cols]], d
        )

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product (vectors are plain scalar tuples)."""
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        field, cols = self.field, self.cols
        x, dx = _lift(field, [field.coerce(v) for v in vec])
        a, da = self._lifted
        out = [sum(map(mul, a[i * cols : (i + 1) * cols], x)) for i in range(self.rows)]
        return tuple(_scalars(field, out, da * dx))

    def power(self, e: int) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeError("power of a non-square matrix")
        if e <= 0:
            return Matrix.identity(self.field, self.rows)
        result = self
        for _ in range(e - 1):
            result = result @ self
        return result

    def is_zero(self) -> bool:
        return not any(self._lifted[0])

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular."""
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        n, field = self.rows, self.field
        a, da = self._lifted
        work = [a[i * n : (i + 1) * n] + [da if j == i else 0 for j in range(n)] for i in range(n)]
        pivots, d = _eliminate(field, work)
        if len(pivots) < n or any(p >= n for p in pivots):
            return None
        return Matrix._of_ints(field, n, n, [a for row in work for a in row[n:]], d)


def _lift(field: Field, values: Sequence) -> tuple[list[int], int]:
    """Scalars as Python ints over one common denominator: (ints, d).

    Over GF(p) the ints are the residues and d = 1.  Over QQ they are the
    numerators scaled by the lcm d of the denominators, so that
    ``values[k] == ints[k] / d``.
    """
    if isinstance(field, PrimeField):
        return [x.value for x in values], 1
    nums = [x.numerator for x in values]
    dens = [x.denominator for x in values]
    d = math.lcm(*dens)
    if d == 1:
        return nums, 1
    return [a * (d // b) for a, b in zip(nums, dens)], d


def _scalars(field: Field, ints: Iterable[int], d: int) -> list:
    """The field elements ints[k] / d (reduced mod p over GF(p)), sharing one zero."""
    zero = field.zero()
    if isinstance(field, PrimeField):
        p = field.p
        return [GFElement(s, p) if s % p else zero for s in ints]
    if d == 1:
        return [Fraction(s) if s else zero for s in ints]
    return [Fraction(s, d) if s else zero for s in ints]


def _reduced(field: Field, ints: list[int]) -> list[int]:
    """ints reduced mod p over GF(p); over QQ the ints as they are."""
    if isinstance(field, PrimeField):
        p = field.p
        return [a % p for a in ints]
    return ints


def _linear_combination(matrices: Sequence[Matrix], coeffs: Sequence) -> Matrix:
    """The sum of coeffs[k] * matrices[k], for up to one coefficient per
    matrix; the zero matrix of their shape for no coefficients.  The one
    place where matrices are summed.

    Summed as ints on the cached int views of the coefficients and of the
    matrices, over one common denominator, into a matrix whose scalars are
    made on first read.  Each term walks only its matrix's nonzero entries.
    """
    field, rows, cols = matrices[0].field, matrices[0].rows, matrices[0].cols
    nums, dc = _lift(field, [field.coerce(a) for a in coeffs])
    terms = [(a, m._lifted) for a, m in zip(nums, matrices) if a]
    d = math.lcm(*(dm for _, (_, dm) in terms))
    cells = range(rows * cols)
    acc = [0] * len(cells)
    for a, (ints, dm) in terms:
        a *= d // dm
        for k in compress(cells, ints):
            acc[k] += a * ints[k]
    return Matrix._of_ints(field, rows, cols, acc, d * dc)


def _int_product(a: list[int], b: list[int], rows: int, inner: int, cols: int) -> list[int]:
    """Row-major product of flat integer matrices a (rows x inner) and b (inner x cols).

    Each output row accumulates the rows of b picked out by the nonzeros of
    the matching row of a, walking only the nonzeros of each such row.
    """
    out: list[int] = []
    inner_range, col_range = range(inner), range(cols)
    for i in range(rows):
        a_row = a[i * inner : (i + 1) * inner]
        acc = [0] * cols
        for k in compress(inner_range, a_row):
            x, b_row = a_row[k], b[k * cols : (k + 1) * cols]
            for j in compress(col_range, b_row):
                acc[j] += x * b_row[j]
        out += acc
    return out


def _int_rows(m: Matrix) -> list[list[int]]:
    """Fresh row lists sliced off m's cached int view, for :func:`_eliminate`."""
    ints, cols = m._lifted[0], m.cols
    return [ints[i * cols : (i + 1) * cols] for i in range(m.rows)]


def _eliminate(field: Field, work: list[list[int]], below_only: bool = False) -> tuple[list[int], int]:
    """Gaussian elimination in place on integer rows, the one elimination core.

    Returns the pivot columns and a denominator d.  Each pivot clears the
    rows below it (``below_only``, what :func:`rank` needs) or every other
    row (Gauss-Jordan), and of those only the rows with a nonzero in the
    pivot column.  The pivot row is zero left of its pivot column, so a
    cleared row changes only from that column on, apart from a rescaling.

    Over GF(p) the rows are residues and each pivot row is normalized to 1,
    so a cleared row changes only at the pivot column and at the pivot
    row's nonzeros after it, and the update walks that support; d = 1.

    Over QQ every row is first divided by its gcd and stays primitive: a
    cleared row becomes (pv/g) row - (f/g) pivot row for g = gcd(pv, f),
    divided by its gcd.  A row below the pivot is zero left of the pivot
    column and is updated from it on; a row above is updated in full.
    After Gauss-Jordan each pivot row is scaled so that its pivot equals d,
    the lcm of the pivots, and the reduced row echelon form is ``work``
    divided by d, its nonzero rows first.  With ``below_only``, d = 1.
    """
    if not work or not work[0]:
        return [], 1
    nrows, ncols = len(work), len(work[0])
    p = field.p if isinstance(field, PrimeField) else None
    gcd = math.gcd
    if p is None:
        work[:] = [[a // g for a in row] if (g := gcd(*row)) > 1 else row for row in work]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if not work[r][col]:
            piv = next((i for i in range(r + 1, nrows) if work[i][col]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
        if p is not None and work[r][col] != 1:
            inv = pow(work[r][col], -1, p)
            work[r] = [a * inv % p for a in work[r]]
        prow = work[r]
        pv = prow[col]
        pivots.append(col)
        if p is not None:
            support = [(j, b) for j in range(col + 1, ncols) if (b := prow[j])]
        # (rows, first column updated): the rows below, then those above
        bands = [(range(r + 1, nrows), col)]
        if not below_only:
            bands.append((range(r), 0))
        for rows, start in bands:
            ptail = prow[start:]
            for i in rows:
                row = work[i]
                f = row[col]
                if not f:
                    continue
                if p is not None:
                    row[col] = 0
                    for j, b in support:
                        row[j] = (row[j] - f * b) % p
                    continue
                g = gcd(pv, f)
                s, f = pv // g, f // g
                row[start:] = tail = [s * a - f * b for a, b in zip(row[start:], ptail)]
                if (g := gcd(*tail)) > 1:
                    row[start:] = [a // g for a in tail]
        if len(pivots) == nrows:
            break
    if p is not None or below_only:
        return pivots, 1
    d = math.lcm(*(row[c] for row, c in zip(work, pivots)))
    for row, c in zip(work, pivots):
        if (s := d // row[c]) != 1:
            row[:] = [s * a for a in row]
    return pivots, d


def _rref(field: Field, cols: int, work: list[list[int]]) -> tuple[Matrix, tuple[int, ...]]:
    """The body of :func:`rref` on integer rows of width ``cols``, which
    ``Subspace.from_vectors`` calls directly so that the benchmark's span
    around ``rref`` counts only outside calls."""
    pivots, d = _eliminate(field, work)
    flat = [a for row in work[: len(pivots)] for a in row]
    return Matrix._of_ints(field, len(pivots), cols, flat, d), tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    return _rref(m.field, m.cols, _int_rows(m))


def rank(m: Matrix) -> int:
    """Rank of m over its field; rank + nullity = cols.

    Eliminates below each pivot only, on the rows of m's cached int view.
    """
    return len(_eliminate(m.field, _int_rows(m), below_only=True)[0])


def _first_independent(field: Field, dim: int, vectors: Sequence[Sequence[int]]) -> list[int]:
    """The indices of the int vectors of length dim (residues over GF(p)) that
    are not in the span of the vectors before them: the pivot columns of the
    matrix whose columns are the vectors."""
    return _eliminate(field, [[v[k] for v in vectors] for k in range(dim)], below_only=True)[0]


def _vector_ints(field: Field, ambient_dim: int, vec: Sequence) -> list[int]:
    """vec coerced into field and lifted to ints; the common denominator is dropped."""
    if len(vec) != ambient_dim:
        raise ShapeError("vector length does not match ambient dimension")
    return _lift(field, [field.coerce(x) for x in vec])[0]


@dataclass(frozen=True)
class Subspace:
    """Subspace of the coordinate space, held as an RREF basis (row per vector)."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise ShapeError("basis width does not match ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def field(self) -> Field:
        return self.basis.field

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(field, 0, ambient_dim))

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(field, ambient_dim))

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of the vectors; each is lifted to ints on its own, as the
        reduced row echelon form does not depend on the rows' scale."""
        rows = [_vector_ints(field, ambient_dim, v) for v in vectors]
        return cls(ambient_dim, _rref(field, ambient_dim, rows)[0])

    @cached_property
    def _pivots(self) -> list[int]:
        """The pivot column of each basis row, read off the cached int view."""
        b, n = self.basis._lifted[0], self.ambient_dim
        return [next(j for j in range(k * n, (k + 1) * n) if b[j]) - k * n for k in range(self.dim)]

    def _contains_ints(self, x: Sequence[int]) -> bool:
        """Whether ints x (over any denominator, unreduced mod p) span a vector
        of the subspace: as the basis is in RREF, whether x equals the rows
        weighted by x at the pivot columns, checked on the basis's int view."""
        n = self.ambient_dim
        b, db = self.basis._lifted
        residue = [db * a for a in x]  # (d * d_basis) * (x / d - combination)
        for k, piv in enumerate(self._pivots):
            if f := x[piv]:
                residue = [s - f * a for s, a in zip(residue, b[k * n : (k + 1) * n])]
        return not any(_reduced(self.field, residue))

    def contains(self, vec: Sequence) -> bool:
        return self.coordinates(vec) is not None

    def coordinates(self, vec: Sequence) -> tuple | None:
        """Coordinates of vec in the basis, or None when vec is outside.

        The basis is in RREF, so the coordinates are vec read at the pivot
        columns.
        """
        field = self.field
        if not self._contains_ints(_vector_ints(field, self.ambient_dim, vec)):
            return None
        return tuple(field.coerce(vec[piv]) for piv in self._pivots)

    def join(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("join of subspaces of different ambient spaces")
        vectors = [self.basis.row_tuple(i) for i in range(self.basis.rows)]
        vectors += [other.basis.row_tuple(i) for i in range(other.basis.rows)]
        return Subspace.from_vectors(self.field, self.ambient_dim, vectors)


def kernel_basis(m: Matrix) -> Subspace:
    """Right kernel {x : m @ x = 0} as a subspace of the column-index space.

    The basis is the canonical one, the reduced row echelon form of the
    kernel, and comes out of a single elimination.  Eliminating with the
    columns reversed makes every pivot row vanish left of its pivot, so the
    vector built for the free column f has its leading 1 at f and zeros at
    every other free column: these vectors, in increasing f, are already the
    RREF basis and need no second echelonization.  The basis holds their
    ints (:meth:`Matrix._of_ints`) and makes its scalars on first read.
    """
    n, field = m.cols, m.field
    work = [row[::-1] for row in _int_rows(m)]
    reversed_pivots, d = _eliminate(field, work)
    pivots = [n - 1 - p for p in reversed_pivots]
    pivot_set = set(pivots)
    ints = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = d
        for row, p in zip(work, pivots):
            v[p] = -row[n - 1 - f]
        ints.extend(v)
    return Subspace(n, Matrix._of_ints(field, n - len(pivots), n, ints, d))


def solve(a: Matrix, b: Sequence) -> tuple | None:
    """Some x with a @ x = b, or None when inconsistent.

    The returned x is the echelon-form particular solution: free variables
    are set to zero.
    """
    if len(b) != a.rows:
        raise ShapeError("right-hand side length does not match row count")
    field, n = a.field, a.cols
    (ints, da), (y, db) = a._lifted, _lift(field, [field.coerce(x) for x in b])
    work = [[x * db for x in ints[i * n : (i + 1) * n]] + [y[i] * da] for i in range(a.rows)]
    pivots, d = _eliminate(field, work)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for row, p in zip(work, pivots):
        x[p] = row[n]
    return tuple(_scalars(field, x, d))


def char_poly(m: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients (constant first, monic last).

    Faddeev-LeVerrier on the integer matrix A = d*m, d the lcm of the
    denominators of m; rational matrices only.  A's characteristic
    polynomial z^n + a_1 z^(n-1) + ... + a_n is integral, so every division
    by k in the recursion is exact, and det(z - m) = d^-n det(dz - A) makes
    the coefficient of z^(n-k) equal to a_k / d^k.
    """
    if m.rows != m.cols:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    if not isinstance(m.field, RationalField):
        raise FieldMismatchError("char_poly is supported over the rationals only")
    n = m.rows
    a, d = m._lifted
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    diagonal = range(0, n * n, n + 1)
    nmat = [0] * (n * n)
    for i in diagonal:
        nmat[i] = 1
    for k in range(1, n + 1):
        prod = _int_product(a, nmat, n, n, n)
        ak = -sum(prod[i] for i in diagonal) // k
        coeffs[n - k] = Fraction(ak, d**k)
        for i in diagonal:
            prod[i] += ak
        nmat = prod
    return tuple(coeffs)


def rational_factorization(
    coeffs: Sequence[Fraction],
) -> tuple[list[tuple[Fraction, int]], tuple[Fraction, ...], list[tuple[tuple[int, ...], int]]]:
    """Rational roots, the root-free remaining factor and its irreducible factors.

    Input is a coefficient list, constant term first; the remainder is
    returned in the same layout and has no rational roots.  Roots come zero
    first, then ascending; the remainder is the input divided exactly by the
    product of the (z - root)^multiplicity, so it keeps the leading
    coefficient.  The irreducible factors of the remainder are primitive
    integer polynomials in the same layout, with multiplicities, in sympy's
    order.  All three are read off one factorization over ZZ (sympy's
    ``dup_factor_list`` on the integer coefficients, the routine behind
    ``Poly.factor_list``), and the remainder is multiplied out on ints; a
    linear input needs none.
    """
    work = [Fraction(c) for c in coeffs]
    while len(work) > 1 and not work[-1]:
        work.pop()
    if len(work) <= 1:
        return [], tuple(work), []
    if len(work) == 2:  # a_1 z + a_0 = a_1 (z - root)
        a0, a1 = work
        return [(-a0 / a1, 1)], (a1,), []
    from sympy import ZZ
    from sympy.polys.factortools import dup_factor_list

    scale = math.lcm(*(c.denominator for c in work))
    ints = [c.numerator * (scale // c.denominator) for c in reversed(work)]
    content, factors = dup_factor_list(ints, ZZ)
    # work = (content / scale) * prod(factor^mult), factors leading term
    # first; a linear factor a z + b is a (z - root), so the remainder
    # collects the a's and the other factors
    lead = Fraction(int(content), scale)
    rest = [1]
    roots: list[tuple[Fraction, int]] = []
    irreducible: list[tuple[tuple[int, ...], int]] = []
    for factor, mult in factors:
        if len(factor) == 2:
            a, b = (int(c) for c in factor)
            roots.append((Fraction(-b, a), mult))
            lead *= a**mult
        else:
            low_first = tuple(int(c) for c in reversed(factor))
            irreducible.append((low_first, mult))
            for _ in range(mult):
                rest = _poly_product(rest, low_first)
    roots.sort(key=lambda rm: (rm[0] != 0, rm[0]))
    return roots, tuple(lead * c for c in rest), irreducible


def _poly_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials, same layout."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], tuple[Fraction, ...]]:
    """Rational roots (with multiplicity) and the root-free remaining factor,
    as in :func:`rational_factorization`."""
    roots, remainder, _ = rational_factorization(coeffs)
    return roots, remainder


def rational_eigenvalues(
    m: Matrix,
) -> tuple[list[tuple[Fraction, int]], list[tuple[tuple[int, ...], int]]]:
    """Rational eigenvalues of m with algebraic multiplicities.

    Also returns the irreducible non-linear factors of the characteristic
    polynomial with multiplicities (empty when the spectrum splits), as in
    :func:`rational_factorization`.
    """
    roots, _, irreducible = rational_factorization(char_poly(m))
    return roots, irreducible


def joint_eigenspaces(
    ops: Sequence[Matrix], space: Subspace, *, generalized: bool, irrational: list | None = None
) -> Iterator[tuple[tuple, Subspace]]:
    """Split an invariant subspace along the rational joint spectrum of ops.

    The operators must commute and leave ``space`` invariant; they act on
    column vectors.  The space is split along the rational eigenvalues of
    ops[0], each part along those of ops[1], and so on, depth first with
    eigenvalues ascending; the nonzero leaves are yielded as (eigenvalue
    tuple, subspace).  A part is the kernel of (op - lambda)^mult, its
    generalized eigenspace, when ``generalized`` is set, and of op - lambda
    otherwise.  The irreducible non-linear factors met on the way are
    appended to ``irrational`` as (axis, factors), in the order the split
    meets them.  The walk is lazy, so a caller after one leaf stops early.
    """

    def walk(space: Subspace, eigs: tuple):
        if space.dim == 0:
            return
        axis = len(eigs)
        if axis == len(ops):
            yield eigs, space
            return
        (a, da), (b, db), n = ops[axis]._lifted, space.basis._lifted, space.ambient_dim
        images = [_int_product(a, b[s * n : (s + 1) * n], n, n, 1) for s in range(space.dim)]
        if not all(map(space._contains_ints, images)):
            raise LinearAlgebraError("subspace is not invariant under the operators")
        # column s of the restricted operator: image s in the RREF basis, read at its pivots
        op = Matrix._of_ints(space.field, space.dim, space.dim,
                             [u[piv] for piv in space._pivots for u in images], da * db)
        roots, factors = rational_eigenvalues(op)
        if factors and irrational is not None:
            irrational.append((axis, factors))
        for lam, mult in sorted(roots):
            shifted = _linear_combination([op, Matrix.identity(space.field, op.rows)], [1, -lam])
            part = kernel_basis(shifted.power(mult if generalized else 1))
            # the rows of part.basis @ space.basis are again in RREF: at the
            # pivot columns of space they read part.basis, zero to their left
            yield from walk(Subspace(space.ambient_dim, part.basis @ space.basis), eigs + (lam,))

    return walk(space, ())
