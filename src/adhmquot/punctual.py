"""Punctual data: nilpotency, support of the quotient, and the explicit
path contracting a stable datum onto the basepoint configuration.

The support of the quotient attached to a commuting datum is its joint
spectrum; points are produced by recursive generalized-eigenspace splitting
and are complete exactly when every characteristic polynomial encountered
splits over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .adhm import AdhmDatum, _krylov_layers, _require_commuting, equivalence, is_nilpotent_tuple
from .exactalg import QQ, Matrix, ShapeError, Subspace, _scalars, joint_eigenspaces


class PathConstructionError(ValueError):
    """The homotopy needs r = c (or the experimental flag) and a stable datum."""


@dataclass(frozen=True)
class FactorReport:
    """An irreducible non-linear factor blocking the rational splitting."""

    axis: int
    polynomial: str
    multiplicity: int


@dataclass(frozen=True)
class SupportReport:
    points: tuple  # ((lambda_0, ..., lambda_{n-1}), multiplicity) pairs
    complete: bool
    factorizations: tuple  # FactorReport entries, empty when complete

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)


def _poly_str(coeffs: Sequence[int]) -> str:
    """An integer polynomial (constant term first) in z, printed as sympy prints it.

    Terms run by descending degree; a coefficient of magnitude 1 is left out
    in front of z**k, and signs become the joining " + " / " - ".  The match
    with sympy holds for a positive leading coefficient, which every factor
    from ``factor_list`` over ZZ has (sympy reorders some negative-leading ones).
    """
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        a = coeffs[k]
        if not a:
            continue
        if k == 0:
            term = str(abs(a))
        else:
            monomial = "z" if k == 1 else f"z**{k}"
            term = monomial if abs(a) == 1 else f"{abs(a)}*{monomial}"
        if not out:
            out = "-" + term if a < 0 else term
        else:
            out += (" - " if a < 0 else " + ") + term
    return out


def _factor_reports(axis: int, irreducible: Sequence) -> list[FactorReport]:
    """Reports for integer factors (constant term first), printed in z."""
    return [
        FactorReport(axis=axis, polynomial=_poly_str(coeffs), multiplicity=mult)
        for coeffs, mult in irreducible
    ]


def support(x: AdhmDatum) -> SupportReport:
    """Joint spectrum of the commuting tuple with multiplicities.

    Splits along generalized eigenspaces of B_0, then of B_1 restricted to
    each, and so on (:func:`joint_eigenspaces`); points come out sorted.
    When some characteristic polynomial along the way has an irrational
    part, the report is marked incomplete and carries that part's
    irreducible factors; multiplicities then sum to less than c.
    """
    _require_commuting(x, "support requires a commuting datum")
    irrational: list = []
    points = tuple(
        (eigs, leaf.dim)
        for eigs, leaf in joint_eigenspaces(
            x.B, Subspace.full(x.field, x.c), generalized=True, irrational=irrational
        )
    )
    factors = tuple(
        report for axis, found in irrational for report in _factor_reports(axis, found)
    )
    complete = sum(m for _, m in points) == x.c
    return SupportReport(points=points, complete=complete, factorizations=factors)


def basepoint(n: int, c: int) -> AdhmDatum:
    """The datum (0, ..., 0, e_1, ..., e_c) with r = c: stable, commuting, nilpotent."""
    zero = Matrix.zero(QQ, c, c)
    identity = Matrix.identity(QQ, c)
    return AdhmDatum(n, c, c, (zero,) * n, tuple(identity.row_tuple(i) for i in range(c)))


@dataclass(frozen=True)
class PathData:
    """Fixed ingredients of the contraction path for one datum."""

    selected: tuple[int, ...]       # 0-based indices of the greedy independent vectors
    remaining: tuple[int, ...]      # the other slots, in input order
    completion: tuple               # vectors w_i, one per remaining slot (zero-padded)
    permutation: tuple[int, ...]    # slot order of the path endpoint at t = 1


def _path_data(x: AdhmDatum, *, experimental: bool) -> PathData:
    if x.r != x.c and not experimental:
        raise PathConstructionError("the contraction path needs r = c")
    _require_commuting(x, "the path scales a commuting tuple")
    # one Krylov walk decides stability and gives the greedily independent
    # v_j, completed to a basis by the later words, in (|alpha|, alpha, j) order
    kept, layers = _krylov_layers(x)
    if len(kept) != x.c:
        raise PathConstructionError("basis completion needs a stable datum")
    selected = [j for _, j, _ in layers[0]]
    remaining = [j for j in range(x.r) if j not in selected]
    needed = len(remaining)
    # a word kept in layer k is d^(k+1) B^alpha v_j, d the datum's denominator
    d = x._ints[2]
    words = [(k, ints) for k, layer in enumerate(layers[1:], 1) for _, _, ints in layer]
    completion = [tuple(_scalars(x.field, ints, d ** (k + 1))) for k, ints in words[:needed]]
    completion += [(x.field.zero(),) * x.c] * (needed - len(completion))
    return PathData(
        selected=tuple(selected),
        remaining=tuple(remaining),
        completion=tuple(completion),
        permutation=tuple(selected) + tuple(remaining),
    )


def path_permutation(x: AdhmDatum) -> tuple[int, ...]:
    """Slot order (0-based) in which the input vectors appear along the path."""
    return _path_data(x, experimental=(x.r != x.c)).permutation


def reindex_vectors(x: AdhmDatum, permutation: Sequence[int]) -> AdhmDatum:
    """The same datum with marked vectors permuted."""
    if sorted(permutation) != list(range(x.r)):
        raise ShapeError("not a permutation of the vector slots")
    return AdhmDatum(x.n, x.c, x.r, x.B, tuple(x.v[j] for j in permutation))


def homotopy_path(x: AdhmDatum, t, *, experimental: bool = False) -> AdhmDatum:
    """The point phi(t) of the contraction path.

    phi(t) = (t B_0, ..., t B_{n-1}, v_sel..., w_i (1-t) + v_rem_i t ...): the
    greedily selected independent vectors ride along unchanged, each remaining
    slot interpolates between a completion vector and its input vector.
    phi(0) is GL-equivalent to the basepoint configuration and phi(1) is the
    input with the vector slots in :func:`path_permutation` order.

    With ``experimental=True`` the same construction is attempted for r != c
    (the completion list is truncated or zero-padded to fit); no stability
    promise is made there, the verification report just records what happens.
    """
    data = _path_data(x, experimental=experimental)
    t = x.field.coerce(t)
    return AdhmDatum(x.n, x.c, x.r, tuple(b.scale(t) for b in x.B), _path_vectors(x, data, t))


def _path_vectors(x: AdhmDatum, data: PathData, t) -> tuple:
    """The marked vectors of phi(t), for t already in x's field."""
    one = x.field.one()
    vectors = [x.v[j] for j in data.selected]
    for w, j in zip(data.completion, data.remaining):
        vectors.append(
            tuple(wi * (one - t) + vi * t for wi, vi in zip(w, x.v[j]))
        )
    return tuple(vectors)


@dataclass(frozen=True)
class PathSample:
    t: object
    stable: bool
    commuting: bool
    nilpotent: bool

    @property
    def all_flags(self) -> bool:
        return self.stable and self.commuting and self.nilpotent


@dataclass(frozen=True)
class PathReport:
    samples: tuple
    endpoint_equivalent: bool
    permutation: tuple[int, ...]
    input_nilpotent: bool

    def all_flags(self) -> bool:
        return all(s.all_flags for s in self.samples)


def verify_path(x: AdhmDatum, grid: Sequence, *, experimental: bool = False) -> PathReport:
    """Flags (stable, commuting, nilpotent) of phi(t) on a sample grid.

    ``x`` is the datum the path contracts; ``grid`` holds the parameters t,
    each anything x's field coerces (over GF(p): ints, residues or "p/q"
    strings).  For a stable nilpotent datum with r = c the whole segment
    stays inside the stable nilpotent commuting locus, so every grid row
    should be all-true; the report is the desk-scale verification artifact,
    including whether the t = 1 endpoint is GL-equivalent to the reindexed
    input.  The path data (validation of x, selected vectors, completion) is
    computed once and shared by every sample.

    Each flag is an exact verdict on phi(t) = (t B, v(t)), read off without
    forming t B, a commutator or a matrix power at any sample:

    - commuting: [t B_i, t B_j] = t^2 [B_i, B_j], and the path data has
      already checked that x commutes, so every sample commutes;
    - nilpotent: (t B_i)^c = t^c B_i^c and t^c != 0 in a field when t != 0,
      so phi(t) is nilpotent iff t = 0 or x is nilpotent, which is checked
      once per path;
    - stable: for t != 0 a subspace is t B_i-invariant iff it is
      B_i-invariant, so phi(t) is stable iff (B, v(t)) is.  The selected
      vectors ride along unchanged in v(t), and the greedy selection makes
      span(v_sel) = span{v_j}; so the B-closure of v(t) contains the
      B-closure of x's vectors, which is V because the path data has
      checked that x is stable.  So every sample with t != 0 is stable, in
      any field and for r != c too.  phi(0) = (0, v(0)) is stable iff v(0)
      spans V, and that needs no elimination: v(0) is v_sel followed by the
      first r - k completion vectors (zero-padded), and the completion holds
      exactly c - k vectors that extend the k independent v_sel to a basis.
      So v(0) spans min(r, c) dimensions, and phi(0) is stable iff r >= c.
    """
    data = _path_data(x, experimental=experimental)
    field = x.field
    x_nilpotent = is_nilpotent_tuple(x)
    ts = [field.coerce(t) for t in grid]
    samples = [
        PathSample(t=t, stable=bool(t) or x.r >= x.c, commuting=True,
                   nilpotent=not t or x_nilpotent)
        for t in ts
    ]
    endpoint = AdhmDatum(x.n, x.c, x.r, x.B, _path_vectors(x, data, field.one()))
    target = reindex_vectors(x, data.permutation)
    endpoint_equivalent = equivalence(endpoint, target) is not None
    return PathReport(
        samples=tuple(samples),
        endpoint_equivalent=endpoint_equivalent,
        permutation=data.permutation,
        input_nilpotent=x_nilpotent,
    )
