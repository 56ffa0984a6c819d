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
from typing import Sequence

from .exactalg import (
    QQ,
    Field,
    Matrix,
    ShapeError,
    SingularMatrixError,
    SpanBuilder,
    Subspace,
    _lift,
    kernel_basis,
    solve,
)


class GenerationError(ValueError):
    """random_datum could not satisfy the requested flags within its retry budget."""


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

    def same_shape(self, other: "AdhmDatum") -> bool:
        return (self.n, self.c, self.r) == (other.n, other.c, other.r)


def commutators(x: AdhmDatum) -> list[Matrix]:
    """The n(n-1)/2 matrices [B_i, B_j] = B_i B_j - B_j B_i for i < j, lexicographic."""
    out = []
    for i in range(x.n):
        for j in range(i + 1, x.n):
            out.append(x.B[i] @ x.B[j] - x.B[j] @ x.B[i])
    return out


def commutator_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs matching the order used by :func:`commutators`."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def is_adhm(x: AdhmDatum) -> bool:
    """True iff every commutator vanishes, i.e. the tuple lies in the commuting locus."""
    return all(x.B[i] @ x.B[j] == x.B[j] @ x.B[i] for i, j in commutator_pairs(x.n))


def is_nilpotent_tuple(x: AdhmDatum) -> bool:
    """True iff B_i^c = 0 for every i."""
    return all(b.power(x.c).is_zero() for b in x.B)


def _krylov_layers(x: AdhmDatum) -> tuple[SpanBuilder, list[list[tuple]]]:
    """Greedy scan of the Krylov words B^alpha v_j in (|alpha|, alpha, j) order.

    Returns the span and, per degree, the kept ``(alpha, j, vector)`` (j
    0-based); a word is kept when it grows the span.  Layer 0 is always
    there, later layers are non-empty, and the scan stops at the first empty
    layer or once the span is V.  Only B_i-images of kept words are formed,
    yet the choice is that of a scan of every word: if w was not kept, w is
    in the span of kept words scanned before it, which B_i maps to words
    scanned before B_i w (adding e_i keeps degree and lex comparisons).

    For a non-commuting tuple, alpha only orders the images: all n images of
    every kept word are tried, sorted by (alpha, j, i, k) with k the word's
    place in its layer, none dropped for sharing a label.  So the span is
    still B-invariant, the Krylov closure.
    """
    span = SpanBuilder(x.field, x.c)
    layer = [((0,) * x.n, j, vec) for j, vec in enumerate(x.v) if span.add(vec)]
    layers = [layer]
    while layer and span.dim < x.c:
        words, layer = layer, []
        for alpha, j, i, k in sorted(
            (alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], j, i, k)
            for k, (alpha, j, _) in enumerate(words)
            for i in range(x.n)
        ):
            vec = x.B[i].apply(words[k][2])
            if span.add(vec):
                layer.append((alpha, j, vec))
                if span.dim == x.c:
                    break
        if layer:
            layers.append(layer)
    return span, layers


def krylov_closure(x: AdhmDatum) -> Subspace:
    """Smallest subspace containing all v_j and invariant under every B_i.

    The span of the kept Krylov words (:func:`_krylov_layers`); each layer
    grows it, so at most c layers follow span{v_j}.
    """
    span, _ = _krylov_layers(x)
    return span.to_subspace()


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
    """Coefficient matrix of {xi B_i = B'_i xi, xi v_j = 0} in the c^2 entries of xi."""
    field = x.field
    c = x.c
    zero = field.zero()
    rows: list[list] = []
    for i in range(x.n):
        b = x.B[i]
        bp = y.B[i]
        for p in range(c):
            minus_bp = [-a for a in bp.row_tuple(p)]
            for q in range(c):
                # (xi b - bp xi)[p][q]: xi[p][w] b[w][q] - bp[p][u] xi[u][q];
                # the two sums share only the cell w = q, u = p
                row = [zero] * (c * c)
                row[p * c : (p + 1) * c] = b.col_tuple(q)
                row[q::c] = minus_bp
                row[p * c + q] = b.entry(q, q) - bp.entry(p, p)
                rows.append(row)
    for vec in x.v:
        for p in range(c):
            row = [zero] * (c * c)
            for w in range(c):
                row[p * c + w] = vec[w]
            rows.append(row)
    if not rows:
        return Matrix.zero(field, 0, c * c)
    return Matrix.from_rows(field, rows)


def stabilizer_lie_dimension(x: AdhmDatum) -> int:
    """dim{xi : [xi, B_i] = 0 for all i, xi v_j = 0 for all j}.

    Zero whenever x is stable: the kernel of such a xi is invariant and
    contains every v_j, hence is all of V.
    """
    system = _intertwiner_system(x, x)
    return kernel_basis(system).dim


def equivalence(x: AdhmDatum, y: AdhmDatum, *, search_seed: int = 2024) -> Matrix | None:
    """A g with act(g, x) = y, or None.

    For stable inputs the intertwiner solution is unique (the difference of
    two solutions kills a generating set), so the answer is exact.  For
    non-stable inputs the solution space may be positive-dimensional; a
    bounded deterministic search then looks for an invertible point of it
    and may miss one, which is the documented best-effort behavior.
    """
    if not x.same_shape(y):
        raise ShapeError("equivalence requires matching (n, c, r)")
    if x.field != y.field:
        raise ShapeError("equivalence requires one common field")
    c = x.c
    field = x.field
    if x == y:
        return Matrix.identity(field, c)
    # inhomogeneous system: g B_i - B'_i g = 0, g v_j = v'_j
    coeff = _intertwiner_system(x, y)
    rhs = [field.zero()] * (x.n * c * c)
    for j in range(x.r):
        rhs.extend(y.v[j])
    particular = solve(coeff, rhs)
    if particular is None:
        return None

    def as_matrix(flat):
        return Matrix(field, c, c, tuple(flat))

    g0 = as_matrix(particular)
    if g0.inverse() is not None:
        return g0
    homogeneous = kernel_basis(coeff)
    hbasis = [as_matrix(homogeneous.basis.row_tuple(i)) for i in range(homogeneous.dim)]
    for h in hbasis:
        for s in (field.one(), -field.one()):
            cand = g0 + h.scale(s)
            if cand.inverse() is not None:
                return cand
    rng = random.Random(search_seed)
    for _ in range(64):
        cand = g0
        for h in hbasis:
            cand = cand + h.scale(field.coerce(rng.randint(-3, 3)))
        if cand.inverse() is not None:
            return cand
    return None


def _powers(t: Matrix, count: int) -> list[Matrix]:
    """[I, t, ..., t^(count-1)], and [I] when count < 1."""
    powers = [Matrix.identity(t.field, t.rows)]
    while len(powers) < count:
        powers.append(powers[-1] @ t)
    return powers


def _matrix_polynomial(powers: Sequence[Matrix], coeffs: Sequence) -> Matrix:
    """The sum of coeffs[k] * powers[k]; the zero matrix for no coefficients.

    Summed as ints on the cached int views of the coefficients and of the
    powers, over one common denominator, and turned into scalars once.
    """
    field = powers[0].field
    nums, dc = _lift(field, [field.coerce(a) for a in coeffs])
    terms = [(a, powers[k]._lifted) for k, a in enumerate(nums) if a]
    d = math.lcm(*(dp for _, (_, dp) in terms))
    acc = [0] * (powers[0].rows * powers[0].cols)
    for a, (ints, dp) in terms:
        a *= d // dp
        acc = [s + a * v for s, v in zip(acc, ints)]
    return Matrix._of_ints(field, powers[0].rows, powers[0].cols, acc, d * dc)


def _random_commuting_block(
    rng: random.Random, field: Field, n: int, c: int, bound: int, nilpotent: bool
) -> tuple[Matrix, ...]:
    """n commuting c x c matrices: random polynomials in one seed matrix T.

    Rejection sampling on the commutation equations has measure-zero success,
    so commutation is guaranteed by construction instead.  In nilpotent mode
    T is strictly upper triangular with nonzero superdiagonal and the
    polynomials have zero constant term, which forces B_i^c = 0.
    """
    if c == 0:
        return tuple(Matrix.zero(field, 0, 0) for _ in range(n))
    rows = []
    for i in range(c):
        row = []
        for j in range(c):
            if nilpotent:
                if j <= i:
                    row.append(0)
                elif j == i + 1:
                    val = rng.randint(1, max(bound, 1))
                    row.append(val if rng.random() < 0.5 else -val)
                else:
                    row.append(rng.randint(-bound, bound))
            else:
                row.append(rng.randint(-bound, bound))
        rows.append([field.coerce(e) for e in row])
    powers = _powers(Matrix.from_rows(field, rows), c)
    bs = []
    for _ in range(n):
        coeffs = [rng.randint(-bound, bound) for _ in range(c)]
        if nilpotent:
            coeffs[0] = 0
        bs.append(_matrix_polynomial(powers, coeffs))
    return tuple(bs)


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
    max_retries: int = 64,
) -> AdhmDatum:
    """Random commuting datum from a constructive family, deterministic per seed.

    ``stable=None`` leaves stability unconstrained; ``stable=True`` requires a
    stable datum; ``stable=False`` requires an unstable one, built by embedding
    a smaller datum block-diagonally with the marked vectors supported in the
    first block.  Requested flags are verified before returning; after
    ``max_retries`` failed draws a :class:`GenerationError` is raised rather
    than silently weakening a flag.
    """
    rng = random.Random(seed)
    if stable is False and c == 0:
        raise GenerationError("a c = 0 datum is vacuously stable")
    for _ in range(max_retries):
        if stable is False:
            c_top = rng.randrange(0, c)
            c_bot = c - c_top
            top = _random_commuting_block(rng, field, n, c_top, entry_bound, nilpotent)
            bot = _random_commuting_block(rng, field, n, c_bot, entry_bound, nilpotent)
            bs = []
            zero = field.zero()
            for i in range(n):
                rows = []
                for p in range(c_top):
                    rows.append(list(top[i].row_tuple(p)) + [zero] * c_bot)
                for p in range(c_bot):
                    rows.append([zero] * c_top + list(bot[i].row_tuple(p)))
                bs.append(Matrix.from_rows(field, rows) if rows else Matrix.zero(field, 0, 0))
            vs = []
            for _ in range(r):
                vec = [field.coerce(rng.randint(-entry_bound, entry_bound)) for _ in range(c_top)]
                vs.append(tuple(vec) + (zero,) * c_bot)
            candidate = AdhmDatum(n, c, r, tuple(bs), tuple(vs))
        else:
            bs = _random_commuting_block(rng, field, n, c, entry_bound, nilpotent)
            vs = tuple(
                tuple(field.coerce(rng.randint(-entry_bound, entry_bound)) for _ in range(c))
                for _ in range(r)
            )
            candidate = AdhmDatum(n, c, r, bs, vs)
        if not is_adhm(candidate):
            continue
        if nilpotent and not is_nilpotent_tuple(candidate):
            continue
        if stable is True and not is_stable(candidate):
            continue
        if stable is False and is_stable(candidate):
            continue
        return candidate
    raise GenerationError(
        f"could not draw a datum with flags stable={stable} nilpotent={nilpotent} "
        f"for (n, c, r) = ({n}, {c}, {r}) in {max_retries} tries"
    )
