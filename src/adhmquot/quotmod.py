"""Datum <-> quotient correspondence: the evaluation map Phi, its kernel, and
multiplication matrices on a finite-colength quotient of a free module.

Monomial conventions used throughout (and documented in the JSON formats):
exponent tuples are compared by total degree first, then lexicographically
with z_0 heaviest; term magnitude breaks ties by slot, slot 1 largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul
from typing import Sequence

from .adhm import NonCommutingError  # importable from here too
from .adhm import AdhmDatum, _krylov_layers, _require_commuting, is_adhm, is_stable
from .exactalg import (
    GF, QQ, Field, GFElement, Matrix, ShapeError, _lift, _reduced, _scalars, kernel_basis, rref,
)

Term = tuple[tuple[int, ...], int]  # (exponent tuple, slot index, 1-based)


class QuotientError(ValueError):
    """module_from_generators could not produce a finite-colength quotient."""

    def __init__(self, message: str, dimension_profile: Sequence[int]):
        super().__init__(f"{message}; truncated quotient dimensions {list(dimension_profile)}")
        self.dimension_profile = tuple(dimension_profile)


def scalar_field(x) -> Field:
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

    @classmethod
    def _of(cls, n: int, r: int, terms: dict) -> "PolyVector":
        """A vector whose terms are already clean (exponent tuples of length n,
        slots in 1..r, nonzero field coefficients), taken as they are."""
        v = object.__new__(cls)
        v.__dict__.update(n=n, r=r, terms=terms)
        return v

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


def _columns(n: int, r: int, d: int) -> list[Term]:
    """Terms of degree <= d by decreasing :func:`term_magnitude`, made in that order."""
    return [(alpha, j) for deg in range(d, -1, -1) for alpha in monomials_of_degree(n, deg)
            for j in range(1, r + 1)]


def _basis_display_key(term: Term) -> tuple:
    alpha, j = term
    return (sum(alpha), tuple(-a for a in alpha), j)


def _monomial_vector_table(x: AdhmDatum, degree: int) -> tuple[dict[Term, list[int]], int]:
    """Values B^alpha v_j for |alpha| <= degree, filled degree by degree on ints.

    Returns (table, d) with B^alpha v_j = table[(alpha, j)] / d.  The table
    is filled on the datum's int view over its denominator e, so degree k
    carries e^(k+1) and is scaled by e^(degree - k) at the end: d = e^(degree+1).
    Over GF(p) all are residues.
    """
    field, n, degree = x.field, x.n, max(degree, 0)
    rows, vecs, e = x._ints
    table = {((0,) * n, j): vecs[j - 1] for j in range(1, x.r + 1)}
    for d in range(1, degree + 1):
        for alpha in monomials_of_degree(n, d):
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent = tuple(a - 1 if k == i else a for k, a in enumerate(alpha))
            for j in range(1, x.r + 1):
                u = table[(parent, j)]
                table[(alpha, j)] = _reduced(field, [sum(map(mul, row, u)) for row in rows[i]])
    if e > 1:
        scales = [e ** (degree - k) for k in range(degree + 1)]
        table = {t: [a * scales[sum(t[0])] for a in u] for t, u in table.items()}
    return table, e ** (degree + 1)


def _image(rows: dict[Term, list[int]], c: int, terms) -> list[int]:
    """sum_j p_j(B) v_j for p given as lifted (term, int) pairs, read off the
    int rows of a monomial vector table covering its terms.

    The image is the returned ints over the table's denominator times p's;
    over GF(p) the ints are not reduced.
    """
    acc = [0] * c
    for term, a in terms:
        acc = [s + a * b for s, b in zip(acc, rows[term])]
    return acc


def phi_apply(x: AdhmDatum, p: PolyVector) -> tuple:
    """Evaluate sum_j p_j(B_0, ..., B_{n-1}) v_j.

    Monomials are evaluated as products of the B_i in fixed index order, which
    is unambiguous because commutation is required.
    """
    _require_commuting(x, "the matrices do not commute")
    if p.n != x.n or p.r != x.r:
        raise ShapeError("polynomial vector shape does not match the datum")
    field = x.field
    coeffs, dc = _lift(field, [field.coerce(a) for a in p.terms.values()])
    rows, d = _monomial_vector_table(x, p.degree())
    return tuple(_scalars(field, _image(rows, x.c, zip(p.terms, coeffs)), d * dc))


def kernel_basis_up_to_degree(x: AdhmDatum, d: int) -> list[PolyVector]:
    """Basis of {p of total degree <= d : Phi(p) = 0}.

    The basis is echelonized against the graded term order (leading terms
    first), which makes it adapted to the degree filtration: its elements of
    degree <= e span the whole degree-<= e part of the kernel.  Degree d = c
    is the default presentation degree used by the round trip.
    """
    _require_commuting(x, "the matrices do not commute")
    columns = _columns(x.n, x.r, d)
    width = len(columns)
    table, den = _monomial_vector_table(x, d)
    ints = [table[t][row] for row in range(x.c) for t in columns]
    kernel = kernel_basis(Matrix._of_ints(x.field, x.c, width, ints, den))
    basis, kd = kernel.basis._lifted
    out = []
    for start in range(0, kernel.dim * width, width):
        row = basis[start : start + width]
        support = [k for k, a in enumerate(row) if a]
        coeffs = _scalars(x.field, [row[k] for k in support], kd)
        out.append(PolyVector._of(x.n, x.r, {columns[k]: a for k, a in zip(support, coeffs)}))
    out.reverse()
    return out


def hilbert_profile(x: AdhmDatum) -> tuple[int, ...]:
    """Dimensions of the span of Phi-images of monomials of degree <= d.

    The sequence runs until it stabilizes; its last value is the dimension of
    the Krylov closure and equals c exactly when x is stable.
    """
    _require_commuting(x, "the matrices do not commute")
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
    degree; the first degree g with no standard monomial is the finite-colength
    signal, and the standard monomials below g, onto which every monomial of
    degree <= g reduces, are frozen as the basis.  The returned datum consists
    of the multiplication-by-z_i matrices together with the images of the
    unit generators.  Before returning, the freeze is certified (commuting,
    generated by the units, every generator's class vanishes), which rules out
    spurious gaps caused by generators of higher degree; an uncertified gap
    just continues the scan.

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
    lifted = _lifted_generators(field, gens)
    if degree_cap is None:
        degree_cap = max(2, max((gdeg for gdeg, _ in lifted), default=0)) + 2

    qdims: list[int] = []
    for d in range(degree_cap + 1):
        columns = _columns(n, r, d)
        col_index = {t: k for k, t in enumerate(columns)}
        ints: list[int] = []
        nrows = 0
        for gdeg, terms in lifted:
            if gdeg > d:
                continue
            for beta in monomials_upto(n, d - gdeg):
                row = [0] * len(columns)
                for (alpha, j), a in terms:
                    row[col_index[(tuple(map(add, alpha, beta)), j)]] = a
                ints.extend(row)
                nrows += 1
        reduced, pivots = rref(Matrix._of_ints(field, nrows, len(columns), ints, 1))
        qdims.append(len(columns) - len(pivots))
        pivot_set = set(pivots)
        standard = [t for k, t in enumerate(columns) if k not in pivot_set]
        gap = min(set(range(d + 2)) - {sum(t[0]) for t in standard})
        if gap > d:
            continue  # a standard monomial in every degree; not finite yet
        standard = [t for t in standard if sum(t[0]) < gap]
        datum = _freeze_quotient(n, r, field, columns, col_index, reduced, pivots, standard)
        if _certified(datum, lifted):
            return datum
    raise QuotientError(
        f"no certified finite quotient up to degree cap {degree_cap}", qdims
    )


def _lifted_generators(field: Field, gens: Sequence[PolyVector]) -> list[tuple[int, list]]:
    """Each nonzero generator coerced into ``field`` and lifted once, as (degree,
    [(term, int)]): neither the row space nor a vanishing image depends on its scale."""
    return [
        (g.degree(),
         list(zip(g.terms, _lift(field, [field.coerce(a) for a in g.terms.values()])[0])))
        for g in gens if g.terms
    ]


def _certified(datum: AdhmDatum, lifted: Sequence[tuple[int, list]]) -> bool:
    """The frozen datum is the true quotient iff it commutes, the units
    generate, and every input generator's class vanishes in it; the
    generators come lifted by :func:`_lifted_generators`.

    Below a degree gap every monomial reduces onto the frozen classes, so
    they span the true quotient and vanishing generators force the
    surjection onto it to be an isomorphism.
    """
    if not is_adhm(datum) or not is_stable(datum):
        return False
    rows, _ = _monomial_vector_table(datum, max((gdeg for gdeg, _ in lifted), default=0))
    return not any(any(_reduced(datum.field, _image(rows, datum.c, terms)))
                   for _, terms in lifted)


def _freeze_quotient(n, r, field, columns, col_index, reduced, pivots, standard) -> AdhmDatum:
    """The multiplication matrices and unit images on the standard monomials,
    read as ints off the int view of ``reduced``, whose pivots equal its d."""
    (ints, d), width = reduced._lifted, len(columns)
    basis = sorted(standard, key=_basis_display_key)
    c, basis_cols = len(basis), [col_index[t] for t in basis]
    # the class of every monomial of the truncation, as ints over d: a standard
    # one is a basis vector, a pivot one minus its reduced row at the basis
    classes = {t: [d if s == t else 0 for s in basis] for t in basis}
    for k, piv in enumerate(pivots):
        classes[columns[piv]] = [-ints[k * width + j] for j in basis_cols]
    bs = []
    for i in range(n):
        # column s of B_i is the class of z_i times basis monomial s
        cols = [classes[(tuple(a + (k == i) for k, a in enumerate(alpha)), j)]
                for alpha, j in basis]
        bs.append(Matrix._of_ints(field, c, c, [u for row in zip(*cols) for u in row], d))
    vs = tuple(tuple(_scalars(field, classes[((0,) * n, j)], d)) for j in range(1, r + 1))
    return AdhmDatum(n, c, r, tuple(bs), vs)
