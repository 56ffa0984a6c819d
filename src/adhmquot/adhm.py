"""ADHM data: commutation and stability checks, GL(V) action, equivalence.

A datum is a tuple (B_0, ..., B_{n-1}, v_1, ..., v_r) of n endomorphisms of a
c-dimensional space V and r marked vectors.  The type admits non-commuting
tuples on purpose: membership in the commuting locus is a check
(:func:`is_adhm`), not a constructor invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .exactalg import (
    QQ,
    Field,
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    _eliminate,
    _first_independent,
    _lift,
    _linear_combination,
    _reduced,
    kernel_basis,
    rank,
    solve,
)


class NonCommutingError(ValueError):
    """An operation that needs commuting matrices got a non-commuting tuple."""


class GenerationError(ValueError):
    """random_datum could not satisfy the requested flags within its retry budget."""


# draws a sampler makes before it gives up on its flags
MAX_RETRIES = 64


@dataclass(frozen=True)
class AdhmDatum:
    n: int
    c: int
    r: int
    B: tuple[Matrix, ...]
    v: tuple[tuple, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError("need at least one endomorphism (n >= 1)")
        if self.c < 0 or self.r < 1:
            raise ShapeError("need c >= 0 and r >= 1")
        if len(self.B) != self.n:
            raise ShapeError(f"expected {self.n} matrices, got {len(self.B)}")
        field = self.B[0].field
        for b in self.B:
            if b.rows != self.c or b.cols != self.c:
                raise ShapeError(f"every B_i must be {self.c}x{self.c}")
            if b.field != field:
                raise ShapeError("matrices over different fields")
        if len(self.v) != self.r:
            raise ShapeError(f"expected {self.r} vectors, got {len(self.v)}")
        coerced = []
        for vec in self.v:
            if len(vec) != self.c:
                raise ShapeError("vector length does not match c")
            coerced.append(tuple(field.coerce(x) for x in vec))
        object.__setattr__(self, "v", tuple(coerced))

    @property
    def field(self) -> Field:
        return self.B[0].field

    @cached_property
    def _ints(self) -> tuple[list[list[list[int]]], list[list[int]], int]:
        """The datum lifted once, (rows, vecs, d): B_i = rows[i] / d as row
        lists and v_j = vecs[j] / d, over one common denominator d (residues
        and d = 1 over GF(p)).

        Cached outside the dataclass fields: no part of ==, hash or repr.
        """
        c, views = self.c, [b._lifted for b in self.B]
        vs, dv = _lift(self.field, [a for vec in self.v for a in vec])
        d = math.lcm(dv, *(db for _, db in views))
        rows = [[[d // db * a for a in ints[k * c : (k + 1) * c]] for k in range(c)]
                for ints, db in views]
        vecs = [[d // dv * a for a in vs[j * c : (j + 1) * c]] for j in range(self.r)]
        return rows, vecs, d

    def same_shape(self, other: "AdhmDatum") -> bool:
        return (self.n, self.c, self.r) == (other.n, other.c, other.r)


def commutators(x: AdhmDatum) -> list[Matrix]:
    """The n(n-1)/2 matrices [B_i, B_j] = B_i B_j - B_j B_i for i < j, lexicographic."""
    return [x.B[i] @ x.B[j] - x.B[j] @ x.B[i] for i, j in commutator_pairs(x.n)]


def commutator_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs matching the order used by :func:`commutators`."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def is_adhm(x: AdhmDatum) -> bool:
    """True iff every commutator vanishes, i.e. the tuple lies in the commuting locus."""
    return all(x.B[i] @ x.B[j] == x.B[j] @ x.B[i] for i, j in commutator_pairs(x.n))


def _require_commuting(x: AdhmDatum, message: str) -> None:
    """The guard of every operation defined only on the commuting locus."""
    if not is_adhm(x):
        raise NonCommutingError(message)


def is_nilpotent_tuple(x: AdhmDatum) -> bool:
    """True iff B_i^c = 0 for every i."""
    return all(b.power(x.c).is_zero() for b in x.B)


def _krylov_walk(field: Field, n: int, c: int, rows: list[list[list[int]]],
                 vecs: list[list[int]]) -> tuple[list[list[int]], list[list[tuple]]]:
    """Greedy scan of the Krylov words B^alpha v_j in (|alpha|, alpha, j) order
    for B_i = rows[i] and v_j = vecs[j], ints of length c (residues over GF(p)).

    Returns the kept words' int vectors and, per degree, the kept
    ``(alpha, j, ints)`` (j 0-based); a word is kept when it grows the span.
    Layer 0 is always there, later layers are non-empty, and the scan stops
    at the first empty layer or once the span is V.  Only B_i-images of kept
    words are formed, yet the choice is that of a scan of every word: if w
    was not kept, w is in the span of kept words scanned before it, which B_i
    maps to words scanned before B_i w (adding e_i keeps degree and lex
    comparisons).

    For a non-commuting tuple, alpha only orders the images: all n images of
    every kept word are tried, sorted by (alpha, j, i, k) with k the word's
    place in its layer, none dropped for sharing a label.  So the span is
    still B-invariant, the Krylov closure.

    Each image is reduced mod p over GF(p), and :func:`_first_independent`
    picks each layer's words after the kept ones.  Kept lists are vecs[j] or new.
    """
    layer = [((0,) * n, j, vecs[j]) for j in _first_independent(field, c, vecs)]
    kept = [vec for _, _, vec in layer]
    layers = [layer]
    while layer and len(kept) < c:
        words = sorted(
            (alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], j, i, k)
            for k, (alpha, j, _) in enumerate(layer)
            for i in range(n)
        )
        images = [_reduced(field, [sum(map(mul, row, layer[k][2])) for row in rows[i]])
                  for _, _, i, k in words]
        start = len(kept)
        layer = [(*words[u - start][:2], images[u - start])
                 for u in _first_independent(field, c, kept + images)[start:]]
        kept += [vec for _, _, vec in layer]
        if layer:
            layers.append(layer)
    return kept, layers


def _krylov_layers(x: AdhmDatum) -> tuple[list[list[int]], list[list[tuple]]]:
    """:func:`_krylov_walk` on :attr:`AdhmDatum._ints`: for a commuting tuple a
    word kept in layer k is exactly d^(k+1) B^alpha v_j (residues over GF(p))."""
    rows, vecs, _ = x._ints
    return _krylov_walk(x.field, x.n, x.c, rows, vecs)


def krylov_closure(x: AdhmDatum) -> Subspace:
    """Smallest subspace containing all v_j and invariant under every B_i.

    The span of the kept Krylov words (:func:`_krylov_layers`); each layer
    grows it, so at most c layers follow span{v_j}.
    """
    return Subspace.from_vectors(x.field, x.c, _krylov_layers(x)[0])


def is_stable(x: AdhmDatum) -> bool:
    """True iff no proper subspace contains all v_j and is invariant under all B_i."""
    return krylov_closure(x).dim == x.c


def act(g: Matrix, x: AdhmDatum) -> AdhmDatum:
    """The GL(V) action (g B_0 g^-1, ..., g B_{n-1} g^-1, g v_1, ..., g v_r)."""
    if g.rows != x.c or g.cols != x.c:
        raise ShapeError("group element size does not match c")
    if g.field != x.field:
        raise ShapeError("group element over a different field")
    ginv = g.inverse()
    if ginv is None:
        raise SingularMatrixError("group element is singular")
    new_b = tuple(g @ b @ ginv for b in x.B)
    new_v = tuple(g.apply(vec) for vec in x.v)
    return AdhmDatum(x.n, x.c, x.r, new_b, new_v)


def _intertwiner_system(x: AdhmDatum, y: AdhmDatum) -> Matrix:
    """Coefficient matrix of {xi B_i = B'_i xi, xi v_j = 0} in the c^2 entries
    of xi, built on the int views of x and y over their common denominator."""
    c = x.c
    (bs, vs, dx), (bps, _, dy) = x._ints, y._ints
    d = math.lcm(dx, dy)
    sx, sy = d // dx, d // dy
    ints: list[int] = []
    for b, bp in zip(bs, bps):
        columns = [[sx * row[q] for row in b] for q in range(c)]
        minus_bp = [[-sy * a for a in row] for row in bp]
        for p in range(c):
            for q in range(c):
                # (xi b - bp xi)[p][q]: xi[p][w] b[w][q] - bp[p][u] xi[u][q];
                # the two sums share only the cell w = q, u = p
                row = [0] * (c * c)
                row[p * c : (p + 1) * c] = columns[q]
                row[q::c] = minus_bp[p]
                row[p * c + q] = columns[q][q] + minus_bp[p][p]
                ints += row
    for vec in vs:
        vec = [sx * a for a in vec]
        for p in range(c):
            row = [0] * (c * c)
            row[p * c : (p + 1) * c] = vec
            ints += row
    return Matrix._of_ints(x.field, (x.n * c + x.r) * c, c * c, ints, d)


def stabilizer_lie_dimension(x: AdhmDatum) -> int:
    """dim{xi : [xi, B_i] = 0 for all i, xi v_j = 0 for all j}.

    Zero whenever x is stable: the kernel of such a xi is invariant and
    contains every v_j, hence is all of V.
    """
    return x.c * x.c - rank(_intertwiner_system(x, x))


def equivalence(x: AdhmDatum, y: AdhmDatum) -> Matrix | None:
    """A g with act(g, x) = y, or None.

    The Krylov closure U of the joint datum diag(B_i, B'_i), (v_j, v'_j) on
    V + V' projects onto that of x: x is stable iff U has pivots in the first
    c columns.  The graph {(w, g w)} of a g with act(g, x) = y is invariant
    and holds every (v_j, v'_j), so it contains U, and is U for a stable x.
    So U's first c reduced rows (e_k, g e_k) give the answer g if it is
    invertible; else no g exists, as when U is no graph and a pivot past
    column c - 1 zeroes a row of g.  (A word of a non-commuting tuple is an
    ordered product; the argument stands.)

    For an unstable x the intertwiner solutions may form a positive-
    dimensional family; a bounded deterministic search then looks for an
    invertible point of it and may miss one, the documented best effort.
    """
    if not x.same_shape(y):
        raise ShapeError("equivalence requires matching (n, c, r)")
    if x.field != y.field:
        raise ShapeError("equivalence requires one common field")
    c, field = x.c, x.field
    if x == y:
        return Matrix.identity(field, c)
    (bs, vs, dx), (bps, vps, dy) = x._ints, y._ints
    d = math.lcm(dx, dy)
    sx, sy, zero = d // dx, d // dy, [0] * c
    rows = [[[sx * a for a in row] + zero for row in b]
            + [zero + [sy * a for a in row] for row in bp] for b, bp in zip(bs, bps)]
    vecs = [[sx * a for a in v] + [sy * a for a in vp] for v, vp in zip(vs, vps)]
    kept = _krylov_walk(field, x.n, 2 * c, rows, vecs)[0]
    pivots, e = _eliminate(field, kept)
    if pivots[:c] == list(range(c)):  # x is stable
        # a pivot past column c - 1 (U is no graph) is a zero row of g
        g = Matrix._of_ints(field, c, c, [kept[k][c + m] for m in range(c) for k in range(c)], e)
        return g if g.inverse() is not None else None
    # inhomogeneous system: g B_i - B'_i g = 0, g v_j = v'_j
    coeff = _intertwiner_system(x, y)
    rhs = [0] * (x.n * c * c) + [a for vec in y.v for a in vec]
    particular = solve(coeff, rhs)
    if particular is None:
        return None
    g0 = Matrix._of_ints(field, c, c, *_lift(field, particular))
    if g0.inverse() is not None:
        return g0
    # the homogeneous solutions, sliced out of the kernel basis's int view
    (ints, d), cc = kernel_basis(coeff).basis._lifted, c * c
    hbasis = [Matrix._of_ints(field, c, c, ints[k : k + cc], d) for k in range(0, len(ints), cc)]
    for h in hbasis:
        for s in (1, -1):
            cand = _linear_combination([g0, h], [1, s])
            if cand.inverse() is not None:
                return cand
    rng = random.Random(2024)
    for _ in range(64):
        cand = _linear_combination([g0, *hbasis], [1, *(rng.randint(-3, 3) for _ in hbasis)])
        if cand.inverse() is not None:
            return cand
    return None


def _powers(t: Matrix, count: int) -> list[Matrix]:
    """[I, t, ..., t^(count-1)], and [I] when count < 1."""
    powers = [Matrix.identity(t.field, t.rows)]
    while len(powers) < count:
        powers.append(powers[-1] @ t)
    return powers


def _polynomials(t: Matrix, rows: list[list[int]]) -> tuple[Matrix, ...]:
    """sum_k row[k] t^k for each coefficient row; an empty row gives zero."""
    powers = _powers(t, max(map(len, rows), default=0))
    return tuple(_linear_combination(powers, row) for row in rows)


def _marked_vectors(rng: random.Random, r: int, c: int, bound: int, support: int) -> tuple:
    """r int vectors of length c, drawn in [-bound, bound] on their first
    ``support`` coordinates and zero after them."""
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(support)) + (0,) * (c - support)
                 for _ in range(r))


def _redraw(draw, accept, error: Exception) -> AdhmDatum:
    """The first of ``MAX_RETRIES`` data from ``draw()`` that ``accept``
    passes; ``error`` is raised when none does."""
    for _ in range(MAX_RETRIES):
        if accept(x := draw()):
            return x
    raise error


def _random_commuting_block(
    rng: random.Random, field: Field, n: int, c: int, bound: int, nilpotent: bool
) -> tuple[Matrix, ...]:
    """n commuting c x c matrices: random polynomials in one seed matrix T.

    Rejection sampling on the commutation equations has measure-zero success,
    so commutation is guaranteed by construction instead.  In nilpotent mode
    T is strictly upper triangular with nonzero superdiagonal and the
    polynomials have zero constant term, which forces B_i^c = 0.
    """
    ints = []
    for i in range(c):
        for j in range(c):
            if nilpotent and j <= i:
                ints.append(0)
            elif nilpotent and j == i + 1:
                val = rng.randint(1, max(bound, 1))
                ints.append(val if rng.random() < 0.5 else -val)
            else:
                ints.append(rng.randint(-bound, bound))
    rows = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(n)]
    if nilpotent:  # the constant terms are drawn, then zeroed
        rows = [[0, *row[1:]] for row in rows]
    return _polynomials(Matrix._of_ints(field, c, c, ints, 1), rows)


def _block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """diag(a, b) for square blocks with integer entries (int views over
    d = 1, as the samplers draw them), joined on their int views."""
    (x, _), (y, _), s, t = a._lifted, b._lifted, a.rows, b.rows
    ints = [u for i in range(s) for u in x[i * s : (i + 1) * s] + [0] * t]
    ints += [u for i in range(t) for u in [0] * s + y[i * t : (i + 1) * t]]
    return Matrix._of_ints(a.field, s + t, s + t, ints, 1)


def random_datum(
    n: int,
    c: int,
    r: int,
    seed: int,
    *,
    stable: bool | None = None,
    nilpotent: bool = False,
    entry_bound: int = 3,
    field: Field = QQ,
) -> AdhmDatum:
    """Random commuting datum from a constructive family, deterministic per seed.

    ``stable=None`` leaves stability unconstrained; ``stable=True`` requires a
    stable datum; ``stable=False`` requires an unstable one, built by embedding
    a smaller datum block-diagonally with the marked vectors supported in the
    first block.  Requested flags are verified before returning; after
    ``MAX_RETRIES`` failed draws a :class:`GenerationError` is raised rather
    than silently weakening a flag.
    """
    rng = random.Random(seed)
    if stable is False and c == 0:
        raise GenerationError("a c = 0 datum is vacuously stable")

    def draw() -> AdhmDatum:
        # an unstable datum is block-diagonal, its marked vectors off the first block zero
        c_top = rng.randrange(0, c) if stable is False else c
        bs = _random_commuting_block(rng, field, n, c_top, entry_bound, nilpotent)
        if c_top < c:
            bot = _random_commuting_block(rng, field, n, c - c_top, entry_bound, nilpotent)
            bs = tuple(_block_diagonal(a, b) for a, b in zip(bs, bot))
        return AdhmDatum(n, c, r, bs, _marked_vectors(rng, r, c, entry_bound, c_top))

    def accept(x: AdhmDatum) -> bool:
        return (is_adhm(x) and (not nilpotent or is_nilpotent_tuple(x))
                and (stable is None or is_stable(x) == stable))

    return _redraw(draw, accept, GenerationError(
        f"could not draw a datum with flags stable={stable} nilpotent={nilpotent} "
        f"for (n, c, r) = ({n}, {c}, {r}) in {MAX_RETRIES} tries"
    ))
