"""Extended ADHM quiver: theta-stability and a brute-force subrepresentation
oracle over small prime fields.

A representation with dimension vector (c, 1) is the datum itself: the n
loops at the big vertex are the B_i and the r framing arrows are the marked
vectors.  For theta < 0 the slope conditions collapse to ADHM stability; for
theta >= 0 the only supported verdict is exhaustive subspace enumeration,
which is feasible over GF(2) and GF(3) up to c = 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator

from .adhm import AdhmDatum, _require_commuting, is_stable
from .exactalg import Matrix, PrimeField, Subspace, _int_rows

MAX_ENUM_PRIME = 3
MAX_ENUM_DIM = 3


class WallConstraintError(ValueError):
    """The parameter does not satisfy c * theta + theta_inf = 0."""


class UnsupportedRangeError(ValueError):
    """The brute-force oracle only runs over tiny prime fields and dimensions."""


@dataclass(frozen=True)
class StabilityParameter:
    theta: Fraction
    theta_inf: Fraction
    c: int

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "theta_inf", Fraction(self.theta_inf))
        if self.c * self.theta + self.theta_inf != 0:
            raise WallConstraintError(
                f"c*theta + theta_inf = {self.c * self.theta + self.theta_inf} != 0"
            )

    @classmethod
    def negative(cls, c: int, theta: Fraction = Fraction(-1)) -> "StabilityParameter":
        theta = Fraction(theta)
        if theta >= 0:
            raise WallConstraintError("negative() wants theta < 0")
        return cls(theta, -c * theta, c)


@dataclass(frozen=True)
class QuiverRep:
    """Representation of the extended ADHM quiver with dimension vector (c, 1)."""

    datum: AdhmDatum

    def __post_init__(self):
        _require_commuting(self.datum, "quiver relations require commuting loop maps")


def all_subspaces(field: PrimeField, dim: int) -> Iterator[Subspace]:
    """Every subspace of GF(p)^dim, one canonical RREF basis each."""
    if not isinstance(field, PrimeField):
        raise UnsupportedRangeError("subspace enumeration needs a prime field")
    if field.p > MAX_ENUM_PRIME or dim > MAX_ENUM_DIM:
        raise UnsupportedRangeError(
            f"enumeration supported for p <= {MAX_ENUM_PRIME}, dim <= {MAX_ENUM_DIM}"
        )
    yield Subspace.zero(field, dim)
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            # the residues of the row-major basis: 1 at each pivot, free values
            # right of it outside the pivot columns
            pivot_ones = [0] * (k * dim)
            for row, piv in enumerate(pivots):
                pivot_ones[row * dim + piv] = 1
            free_positions = [
                row * dim + col
                for row in range(k)
                for col in range(dim)
                if col > pivots[row] and col not in pivots
            ]
            for values in itertools.product(range(field.p), repeat=len(free_positions)):
                ints = pivot_ones.copy()
                for pos, val in zip(free_positions, values):
                    ints[pos] = val
                yield Subspace(dim, Matrix._of_ints(field, k, dim, ints, 1))


def enumerate_subreps(rep: QuiverRep) -> set[tuple[int, int]]:
    """Dimension vectors (c', eps) of all subrepresentations.

    Every invariant subspace S contributes (dim S, 0); it contributes
    (dim S, 1) as well exactly when it contains every marked vector.  The
    full vector (c, 1) and the zero vector (0, 0) are always present.
    """
    x = rep.datum
    field = x.field
    if not isinstance(field, PrimeField):
        raise UnsupportedRangeError("the oracle runs over prime fields only")
    bs, vs, _ = x._ints  # residues
    found: set[tuple[int, int]] = set()
    for space in all_subspaces(field, x.c):
        rows = _int_rows(space.basis)
        if not all(
            space._contains_ints([sum(map(mul, b_row, row)) for b_row in b])
            for b in bs for row in rows
        ):
            continue
        found.add((space.dim, 0))
        if all(space._contains_ints(v) for v in vs):
            found.add((space.dim, 1))
    return found


def definition_verdicts(rep: QuiverRep, param: StabilityParameter) -> tuple[bool, bool]:
    """(stable, semistable) computed straight from the slope inequalities.

    Proper nonzero subrepresentations only: (0, 0) and the full (c, 1) are
    excluded from the quantifier.
    """
    x = rep.datum
    if param.c != x.c:
        raise WallConstraintError("parameter drawn for a different c")
    stable = True
    semistable = True
    for cprime, eps in enumerate_subreps(rep):
        if (cprime, eps) == (0, 0) or (cprime, eps) == (x.c, 1):
            continue
        slope = cprime * param.theta + (param.theta_inf if eps else 0)
        if slope >= 0:
            stable = False
        if slope > 0:
            semistable = False
    return stable, semistable


def theta_verdicts(rep: QuiverRep, param: StabilityParameter) -> tuple[bool, bool]:
    """(theta-stable, theta-semistable).

    For theta < 0 both bits equal ADHM stability: subrepresentations of
    dimension vector (c', 0) satisfy the slope bound automatically, and a
    violating (c', 1) is exactly a proper invariant subspace containing all
    marked vectors.  For theta >= 0 the verdict needs the exhaustive oracle
    and hence a prime field in the supported range.
    """
    x = rep.datum
    if param.c != x.c:
        raise WallConstraintError("parameter drawn for a different c")
    if param.theta < 0:
        bit = is_stable(x)
        return bit, bit
    if not isinstance(x.field, PrimeField):
        raise UnsupportedRangeError(
            "theta >= 0 is decided by enumeration and needs prime-field scalars"
        )
    return definition_verdicts(rep, param)


def is_theta_stable(rep: QuiverRep, param: StabilityParameter) -> bool:
    return theta_verdicts(rep, param)[0]


@dataclass(frozen=True)
class LemmaReport:
    definition_stable: bool
    krylov_stable: bool

    @property
    def agree(self) -> bool:
        return self.definition_stable == self.krylov_stable


def check_lemma(rep: QuiverRep, theta: Fraction = Fraction(-1)) -> LemmaReport:
    """Compare the slope-definition verdict with the invariant-subspace one.

    For theta < 0 the two must coincide; the report records both bits so a
    disagreement is visible rather than swallowed.
    """
    if theta >= 0:
        raise WallConstraintError("the lemma is about theta < 0")
    param = StabilityParameter.negative(rep.datum.c, theta)
    definition_stable, _ = definition_verdicts(rep, param)
    return LemmaReport(
        definition_stable=definition_stable,
        krylov_stable=is_stable(rep.datum),
    )
