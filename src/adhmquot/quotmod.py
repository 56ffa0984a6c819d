"""Datum <-> quotient correspondence: the evaluation map Phi, its kernel, and
multiplication matrices on a finite-colength quotient of a free module.

Monomial conventions used throughout (and documented in the JSON formats):
exponent tuples are compared by total degree first, then lexicographically
with z_0 heaviest; term magnitude breaks ties by slot, slot 1 largest.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate, compress
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


def _term_error(n: int, r: int, alpha: tuple, j: int) -> str | None:
    """Why (alpha, j) is not a term of (polynomials in z_0..z_{n-1})^r, or None."""
    if len(alpha) != n or any(a < 0 for a in alpha):
        return f"bad exponent tuple {alpha} for n = {n}"
    if not 1 <= j <= r:
        return f"slot {j} out of range 1..{r}"
    return None


class PolyVector:
    """Element of (polynomials in z_0..z_{n-1})^r as a sparse term -> coeff map.

    A vector is its int view ``_view = (field, pairs, d)``: its nonzero terms
    as (term, int) pairs in the order given, each coefficient int / d, with d
    the lcm of the reduced denominators over QQ and residues with d = 1 over
    GF(p).  ==, :meth:`degree`, :func:`phi_apply`, the quotient rebuild and
    the serializer read it.  The field is GF(p) when a coefficient is a
    residue mod p, else QQ (also for the zero vector).  The scalar ``terms``
    are made from the view on their first read, unless the public
    constructor was given them: then they are its coefficients as given,
    zero ones dropped.  A vector is immutable.
    """

    def __init__(self, n: int, r: int, terms: dict):
        clean = {}
        for (alpha, j), coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if error := _term_error(n, r, alpha, j):
                raise ShapeError(error)
            if coeff:
                clean[(alpha, j)] = coeff
        field = next((GF(a.p) for a in clean.values() if isinstance(a, GFElement)), QQ)
        ints, d = _lift(field, [field.coerce(a) for a in clean.values()])
        pairs = [(t, a) for t, a in zip(clean, ints) if a]
        degree = max((sum(alpha) for (alpha, _), _ in pairs), default=-1)
        self.__dict__.update(n=n, r=r, terms=clean, _view=(field, pairs, d), _degree=degree)

    @classmethod
    def _of_ints(cls, n: int, r: int, field: Field, pairs: list, d: int,
                 degree: int) -> "PolyVector":
        """The vector of the coefficients int / d of ``pairs``, nonzero (term,
        int) pairs of clean terms (residues and d = 1 over GF(p)), whose
        largest total degree is ``degree``.  Takes ownership of ``pairs``; over
        QQ it is divided by gcd(d, *ints), as :meth:`Matrix._of_ints` does,
        and with no pairs the field is QQ, as for the public constructor."""
        if d > 1 and (g := math.gcd(d, *(a for _, a in pairs))) > 1:
            pairs, d = [(t, a // g) for t, a in pairs], d // g
        v = object.__new__(cls)
        v.__dict__.update(n=n, r=r, _view=(field if pairs else QQ, pairs, d), _degree=degree)
        return v

    @cached_property
    def terms(self) -> dict:
        field, pairs, d = self._view
        return dict(zip([t for t, _ in pairs], _scalars(field, [a for _, a in pairs], d)))

    @property
    def field(self) -> Field:
        return self._view[0]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PolyVector):
            return NotImplemented
        (f, pairs, d), (g, others, e) = self._view, other._view
        return ((self.n, self.r, f, d) == (other.n, other.r, g, e)
                and dict(pairs) == dict(others))

    def __repr__(self):
        return f"PolyVector(n={self.n!r}, r={self.r!r}, terms={self.terms!r})"

    def _ints_in(self, field: Field) -> tuple[list, int]:
        """(pairs, d) of the view, read in ``field``.  A vector of another
        field has its scalar terms coerced and lifted instead: integer
        coefficients read in any field, and a residue or fraction that does
        not belong raises :class:`FieldMismatchError`."""
        own, pairs, d = self._view
        if own == field or not pairs:
            return pairs, d
        ints, d = _lift(field, [field.coerce(a) for a in self.terms.values()])
        return [(t, a) for t, a in zip(self.terms, ints) if a], d

    def is_zero(self) -> bool:
        return not self._view[1]

    def degree(self) -> int:
        """Max total degree of a stored term; -1 for the zero element."""
        return self._degree

    @classmethod
    def unit(cls, n: int, r: int, j: int, field: Field = QQ) -> "PolyVector":
        return cls(n, r, {((0,) * n, j): field.one()})

    @classmethod
    def monomial(cls, n: int, r: int, alpha: Sequence[int], j: int, coeff) -> "PolyVector":
        return cls(n, r, {(tuple(alpha), j): coeff})


@lru_cache(maxsize=512)
def _monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if n == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in _monomials(n - 1, d - first))


def monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree d, z_0-heaviest first.

    Made once per (n, d); each call returns a fresh list.
    """
    return list(_monomials(n, d))


def monomials_upto(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= d: degree ascending, z_0-heaviest first."""
    out = []
    for deg in range(d + 1):
        out.extend(_monomials(n, deg))
    return out


def term_magnitude(term: Term) -> tuple:
    """Sort key under which the graded z_0-major, slot-1-major term order increases."""
    alpha, j = term
    return (sum(alpha), alpha, -j)


@lru_cache(maxsize=512)
def _column_terms(n: int, r: int, d: int) -> tuple[Term, ...]:
    return tuple((alpha, j) for deg in range(d, -1, -1) for alpha in _monomials(n, deg)
                 for j in range(1, r + 1))


def _columns(n: int, r: int, d: int) -> list[Term]:
    """Terms of degree <= d by decreasing :func:`term_magnitude`, made in that order.

    Made once per (n, r, d); each call returns a fresh list.
    """
    return list(_column_terms(n, r, d))


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
        for alpha in _monomials(n, d):
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
    pairs, dc = p._ints_in(field)
    rows, d = _monomial_vector_table(x, p.degree())
    return tuple(_scalars(field, _image(rows, x.c, pairs), d * dc))


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
        pairs = [(columns[k], row[k]) for k in compress(range(width), row)]
        # the leading term comes first, and the columns run by decreasing degree
        out.append(PolyVector._of_ints(x.n, x.r, x.field, pairs, kd, sum(pairs[0][0][0])))
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
    """The field of the first nonzero generator; QQ when there is none."""
    return next((g.field for g in gens if not g.is_zero()), QQ)


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
    """Each nonzero generator's int view read in ``field``, as (degree, [(term,
    int)]), its denominator dropped: neither the row space nor a vanishing
    image depends on its scale."""
    return [(g.degree(), g._ints_in(field)[0]) for g in gens if not g.is_zero()]


def _units_generate(rows: dict[Term, list[int]], d: int, c: int) -> bool:
    """Whether every unit vector d e_k (k < c) is an entry B^alpha v_j of a
    monomial vector table over d (residues and d = 1 over GF(p)); then the
    Krylov words span V.  False leaves the question open."""
    found = {u.index(d) for u in rows.values() if u.count(0) == c - 1 and d in u}
    return len(found) == c


def _certified(datum: AdhmDatum, lifted: Sequence[tuple[int, list]]) -> bool:
    """The frozen datum is the true quotient iff it commutes, the units
    generate, and every input generator's class vanishes in it; the
    generators come lifted by :func:`_lifted_generators`.

    Below a degree gap every monomial reduces onto the frozen classes, so
    they span the true quotient and vanishing generators force the
    surjection onto it to be an isomorphism.  Generation is read off the
    monomial vector table that the vanishing check builds
    (:func:`_units_generate`), and :func:`is_stable` decides only when that
    scan does not.
    """
    if not is_adhm(datum):
        return False
    rows, d = _monomial_vector_table(datum, max((gdeg for gdeg, _ in lifted), default=0))
    if not (_units_generate(rows, d, datum.c) or is_stable(datum)):
        return False
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
