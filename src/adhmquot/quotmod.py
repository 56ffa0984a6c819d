"""Datum <-> quotient correspondence: the evaluation map Phi, its kernel, and
multiplication matrices on a finite-colength quotient of a free module.

Monomial conventions used throughout (and documented in the JSON formats):
exponent tuples are compared by total degree first, then lexicographically
with z_0 heaviest; term magnitude breaks ties by slot, slot 1 largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Sequence

from .adhm import AdhmDatum, _krylov_layers, is_adhm, is_stable
from .exactalg import (
    QQ, Field, GFElement, Matrix, PrimeField, ShapeError, _lift, _scalars, kernel_basis, rref,
)

Term = tuple[tuple[int, ...], int]  # (exponent tuple, slot index, 1-based)


class NonCommutingError(ValueError):
    """An operation that needs commuting matrices got a non-commuting tuple."""


class QuotientError(ValueError):
    """module_from_generators could not produce a finite-colength quotient."""

    def __init__(self, message: str, dimension_profile: Sequence[int]):
        super().__init__(f"{message}; truncated quotient dimensions {list(dimension_profile)}")
        self.dimension_profile = tuple(dimension_profile)


def scalar_field(x) -> Field:
    from .exactalg import GF

    if isinstance(x, GFElement):
        return GF(x.p)
    return QQ


@dataclass(frozen=True, eq=False)
class PolyVector:
    """Element of (polynomials in z_0..z_{n-1})^r as a sparse term -> coeff map."""

    n: int
    r: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for (alpha, j), coeff in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise ShapeError(f"bad exponent tuple {alpha} for n = {self.n}")
            if not 1 <= j <= self.r:
                raise ShapeError(f"slot {j} out of range 1..{self.r}")
            if coeff:
                clean[(alpha, j)] = coeff
        object.__setattr__(self, "terms", clean)

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        return (self.n, self.r) == (other.n, other.r) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(alpha) for alpha, _ in self.terms)

    def sorted_terms(self) -> list[tuple[Term, object]]:
        """Terms in serialization order: slot-major, then degree, then z_0-major."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][1], sum(kv[0][0]), tuple(-a for a in kv[0][0])),
        )

    def times_monomial(self, beta: Sequence[int]) -> "PolyVector":
        beta = tuple(beta)
        if len(beta) != self.n:
            raise ShapeError("monomial arity does not match n")
        shifted = {
            (tuple(a + b for a, b in zip(alpha, beta)), j): coeff
            for (alpha, j), coeff in self.terms.items()
        }
        return PolyVector(self.n, self.r, shifted)

    @classmethod
    def unit(cls, n: int, r: int, j: int, field: Field = QQ) -> "PolyVector":
        return cls(n, r, {((0,) * n, j): field.one()})

    @classmethod
    def monomial(cls, n: int, r: int, alpha: Sequence[int], j: int, coeff) -> "PolyVector":
        return cls(n, r, {(tuple(alpha), j): coeff})


def monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree d, z_0-heaviest first."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    return out


def monomials_upto(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= d: degree ascending, z_0-heaviest first."""
    out = []
    for deg in range(d + 1):
        out.extend(monomials_of_degree(n, deg))
    return out


def term_magnitude(term: Term) -> tuple:
    """Sort key under which the graded z_0-major, slot-1-major term order increases."""
    alpha, j = term
    return (sum(alpha), alpha, -j)


def _basis_display_key(term: Term) -> tuple:
    alpha, j = term
    return (sum(alpha), tuple(-a for a in alpha), j)


def _monomial_vector_table(x: AdhmDatum, degree: int) -> tuple[dict[Term, list[int]], int]:
    """Values B^alpha v_j for |alpha| <= degree, filled degree by degree on ints.

    Returns (table, d) with B^alpha v_j = table[(alpha, j)] / d.  The B_i
    share one lifted denominator e and the v_j another; degree k carries
    e^k and is scaled by e^(degree - k) at the end.  Over GF(p) all are residues.
    """
    field, n, c, degree = x.field, x.n, x.c, max(degree, 0)
    p = field.p if isinstance(field, PrimeField) else None
    bs, e = _lift(field, [a for b in x.B for a in b.entries])
    rows = [bs[k * c : (k + 1) * c] for k in range(n * c)]  # B_i is rows[i*c : (i+1)*c]
    vs, dv = _lift(field, [a for vec in x.v for a in vec])
    table = {((0,) * n, j): vs[(j - 1) * c : j * c] for j in range(1, x.r + 1)}
    for d in range(1, degree + 1):
        for alpha in monomials_of_degree(n, d):
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent = tuple(a - 1 if k == i else a for k, a in enumerate(alpha))
            for j in range(1, x.r + 1):
                u = table[(parent, j)]
                out = [sum(map(mul, row, u)) for row in rows[i * c : (i + 1) * c]]
                table[(alpha, j)] = out if p is None else [a % p for a in out]
    if e > 1:
        scales = [e ** (degree - k) for k in range(degree + 1)]
        table = {t: [a * scales[sum(t[0])] for a in u] for t, u in table.items()}
    return table, dv * e**degree


def _require_adhm(x: AdhmDatum) -> None:
    if not is_adhm(x):
        raise NonCommutingError("the matrices do not commute")


def _evaluate(x: AdhmDatum, table: tuple[dict[Term, list[int]], int], p: PolyVector) -> tuple:
    """sum_j p_j(B) v_j read off a monomial vector table of x covering p's terms.

    The lifted coefficients weight the table's int rows; one scalar per coordinate.
    """
    field = x.field
    rows, d = table
    coeffs, dc = _lift(field, [field.coerce(a) for a in p.terms.values()])
    acc = [0] * x.c
    for term, k in zip(p.terms, coeffs):
        acc = [a + k * b for a, b in zip(acc, rows[term])]
    return tuple(_scalars(field, acc, d * dc))


def phi_apply(x: AdhmDatum, p: PolyVector) -> tuple:
    """Evaluate sum_j p_j(B_0, ..., B_{n-1}) v_j.

    Monomials are evaluated as products of the B_i in fixed index order, which
    is unambiguous because commutation is required.
    """
    _require_adhm(x)
    if p.n != x.n or p.r != x.r:
        raise ShapeError("polynomial vector shape does not match the datum")
    return _evaluate(x, _monomial_vector_table(x, p.degree()), p)


def kernel_basis_up_to_degree(x: AdhmDatum, d: int) -> list[PolyVector]:
    """Basis of {p of total degree <= d : Phi(p) = 0}.

    The basis is echelonized against the graded term order (leading terms
    first), which makes it adapted to the degree filtration: its elements of
    degree <= e span the whole degree-<= e part of the kernel.  Degree d = c
    is the default presentation degree used by the round trip.
    """
    _require_adhm(x)
    columns = [
        (alpha, j) for alpha in monomials_upto(x.n, d) for j in range(1, x.r + 1)
    ]
    columns.sort(key=term_magnitude, reverse=True)
    table, den = _monomial_vector_table(x, d)
    ints = [table[t][row] for row in range(x.c) for t in columns]
    kernel = kernel_basis(Matrix._of(x.field, x.c, len(columns), _scalars(x.field, ints, den)))
    out = []
    for i in range(kernel.dim):
        coeffs = kernel.basis.row_tuple(i)
        terms = {columns[k]: coeff for k, coeff in enumerate(coeffs) if coeff}
        out.append(PolyVector(x.n, x.r, terms))
    out.reverse()
    return out


def hilbert_profile(x: AdhmDatum) -> tuple[int, ...]:
    """Dimensions of the span of Phi-images of monomials of degree <= d.

    The sequence runs until it stabilizes; its last value is the dimension of
    the Krylov closure and equals c exactly when x is stable.
    """
    _require_adhm(x)
    _, layers = _krylov_layers(x)
    return tuple(accumulate(len(layer) for layer in layers))


def _gens_field(gens: Sequence[PolyVector]) -> Field:
    for g in gens:
        for coeff in g.terms.values():
            return scalar_field(coeff)
    return QQ


def module_from_generators(
    n: int,
    r: int,
    gens: Sequence[PolyVector],
    degree_cap: int | None = None,
) -> AdhmDatum:
    """Multiplication matrices on the quotient of the free rank-r module.

    The quotient by the submodule generated by ``gens`` is truncated degree by
    degree; equal truncated dimensions at two consecutive degrees are the
    finite-colength signal, the standard-monomial basis is frozen there, and
    the returned datum consists of the multiplication-by-z_i matrices together
    with the images of the unit generators.  Before returning, the freeze is
    certified (commuting, generated by the units, every generator's class
    vanishes), which rules out spurious plateaus caused by generators of
    higher degree; an uncertified plateau just continues the scan.

    ``degree_cap`` defaults to max(2, max generator degree) + 2; if no degree
    up to the cap certifies, a :class:`QuotientError` carrying the dimension
    profile is raised.
    """
    if not gens:
        raise ShapeError("need at least one generator")
    for g in gens:
        if g.n != n or g.r != r:
            raise ShapeError("generator shape does not match (n, r)")
    field = _gens_field(gens)
    if degree_cap is None:
        degree_cap = max(2, max((g.degree() for g in gens), default=0)) + 2

    qdims: list[int] = []
    for d in range(degree_cap + 1):
        columns = [
            (alpha, j) for alpha in monomials_upto(n, d) for j in range(1, r + 1)
        ]
        columns.sort(key=term_magnitude, reverse=True)
        col_index = {t: k for k, t in enumerate(columns)}
        rows = []
        for g in gens:
            gdeg = g.degree()
            if gdeg < 0 or gdeg > d:
                continue
            for beta in monomials_upto(n, d - gdeg):
                shifted = g.times_monomial(beta)
                row = [field.zero()] * len(columns)
                for t, coeff in shifted.terms.items():
                    row[col_index[t]] = coeff
                rows.append(row)
        reduced, pivots = rref(
            Matrix._of(field, len(rows), len(columns), [x for row in rows for x in row])
        )
        qdims.append(len(columns) - len(pivots))
        if len(qdims) >= 2 and qdims[-1] == qdims[-2]:
            pivot_set = set(pivots)
            standard = [t for k, t in enumerate(columns) if k not in pivot_set]
            if any(sum(t[0]) >= d for t in standard):
                continue  # a top-degree monomial survived; not stabilized yet
            datum = _freeze_quotient(n, r, field, columns, col_index, reduced, pivots, standard)
            if _certified(datum, gens):
                return datum
            # a generator above this degree cuts the quotient further; the
            # plateau was spurious, so keep scanning
    raise QuotientError(
        f"no certified finite quotient up to degree cap {degree_cap}", qdims
    )


def _certified(datum: AdhmDatum, gens: Sequence[PolyVector]) -> bool:
    """The frozen datum is the true quotient iff it commutes, the units
    generate, and every input generator's class vanishes in it.

    The frozen classes always span the quotient once the truncation
    plateaus, so vanishing generators force the surjection onto the true
    quotient to be an isomorphism.
    """
    if not is_adhm(datum) or not is_stable(datum):
        return False
    table = _monomial_vector_table(datum, max(g.degree() for g in gens))
    return not any(any(_evaluate(datum, table, g)) for g in gens)


def _freeze_quotient(n, r, field, columns, col_index, reduced, pivots, standard) -> AdhmDatum:
    pivot_row = {p: k for k, p in enumerate(pivots)}
    basis = sorted(standard, key=_basis_display_key)
    basis_index = {t: k for k, t in enumerate(basis)}
    c = len(basis)

    def normal_form(term: Term) -> list:
        out = [field.zero()] * c
        k = col_index[term]
        if k in pivot_row:
            row = reduced.row_tuple(pivot_row[k])
            for t, idx in basis_index.items():
                coeff = row[col_index[t]]
                if coeff:
                    out[idx] = -coeff
        else:
            out[basis_index[term]] = field.one()
        return out

    bs = []
    for i in range(n):
        cols = []
        for t in basis:
            alpha, j = t
            shifted = tuple(a + 1 if k == i else a for k, a in enumerate(alpha))
            cols.append(normal_form((shifted, j)))
        entries = tuple(cols[col][row] for row in range(c) for col in range(c))
        bs.append(Matrix(field, c, c, entries))
    vs = tuple(tuple(normal_form(((0,) * n, j))) for j in range(1, r + 1))
    return AdhmDatum(n, c, r, tuple(bs), vs)
