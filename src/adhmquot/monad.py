"""Matrices of linear forms realizing the perfect-extended-monad maps.

Forms live in the homogeneous coordinates z_0..z_n of projective n-space with
the hyperplane at infinity cut out by z_n = 0.  Maps are stored so that the
composition "target after source" is literally the matrix product
target @ source, with row counts matching the target term.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Sequence

from .adhm import AdhmDatum, _require_commuting, krylov_closure
from .exactalg import (
    Field,
    Matrix,
    ShapeError,
    Subspace,
    _lift,
    joint_eigenspaces,
    kernel_basis,
    rank,
)
from .punctual import support

# sample points have integer coordinates in [-SAMPLE_BOUND, SAMPLE_BOUND]
SAMPLE_BOUND = 7


@dataclass(frozen=True)
class LinearForm:
    """Homogeneous linear form; coeffs[k] is the coefficient of z_k."""

    coeffs: tuple

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def evaluate(self, point: Sequence):
        acc = None
        for c, z in zip(self.coeffs, point):
            term = c * z
            acc = term if acc is None else acc + term
        return acc


@dataclass(frozen=True)
class LinearFormMatrix:
    """Matrix of linear forms z_0 A_0 + ... + z_n A_n.

    coeffs[k] is the coefficient matrix A_k, a rows x cols :class:`Matrix`.
    """

    field: Field
    rows: int
    cols: int
    coeffs: tuple  # one coefficient Matrix per variable

    @property
    def var_count(self) -> int:
        return len(self.coeffs)

    def entry(self, i: int, j: int) -> LinearForm:
        return LinearForm(tuple(a.entry(i, j) for a in self.coeffs))

    @cached_property
    def _terms(self) -> tuple[list[list[tuple[int, int]]], int]:
        """The A_k over one common denominator d, (terms, d): terms[k] lists
        the nonzero (cell, int) pairs of A_k in row-major order, the one
        layout :func:`compose` and :func:`evaluate` read.

        Cached outside the dataclass fields: no part of ==, hash or repr.
        """
        d = math.lcm(*(a._lifted[1] for a in self.coeffs))
        terms = []
        for a in self.coeffs:
            ints, scale = a._lifted[0], d // a._lifted[1]
            terms.append([(cell, scale * ints[cell]) for cell in compress(range(len(ints)), ints)])
        return terms, d


@dataclass(frozen=True)
class QuadraticFormMatrix:
    """Matrix of quadratic forms: the sum over k <= l of z_k z_l C_kl.

    coeffs maps (k, l) to the coefficient Matrix C_kl; only nonzero ones
    are kept.
    """

    field: Field
    rows: int
    cols: int
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_matrix(self, k: int, l: int) -> Matrix:
        """Scalar matrix of the z_k z_l coefficients."""
        c = self.coeffs.get((min(k, l), max(k, l)))
        return Matrix.zero(self.field, self.rows, self.cols) if c is None else c


def _assemble(x: AdhmDatum, rows: int, cols: int, grid: Sequence[Sequence],
              framing: bool = False) -> tuple:
    """Coefficient matrices, over the datum's denominator, of c x c blocks and framing columns.

    A cell is None (a zero block) or (sign, i) with sign = +-1, the block
    sign (B_i z_n - z_i); the sign flips the rows of B_i in the datum's int
    view, with no product.  With ``framing`` the vectors v_j fill the last r
    columns of A_n.
    """
    n, c = x.n, x.c
    bs, vs, d = x._ints
    ints = [[0] * (rows * cols) for _ in range(n + 1)]
    for block_row, cells in enumerate(grid):
        for block_col, cell in enumerate(cells):
            if cell is not None:
                sign, i = cell
                for a, row in enumerate(bs[i]):
                    at = (block_row * c + a) * cols + block_col * c
                    ints[i][at + a] = -sign * d
                    ints[n][at : at + c] = [sign * e for e in row]
    if framing:
        for j, vec in enumerate(vs):
            ints[n][cols - x.r + j :: cols] = vec
    return tuple(Matrix._of_ints(x.field, rows, cols, a, d) for a in ints)


def alpha0(x: AdhmDatum) -> LinearFormMatrix:
    """The c x (nc + r) map (B_0 z_n - z_0 | ... | B_{n-1} z_n - z_{n-1} | v_j z_n)."""
    n, c, r = x.n, x.c, x.r
    coeffs = _assemble(x, c, n * c + r, [[(1, i) for i in range(n)]], framing=True)
    return LinearFormMatrix(x.field, c, n * c + r, coeffs)


def alpha_minus1(x: AdhmDatum) -> LinearFormMatrix:
    """The (nc + r) x (c n(n-1)/2) map assembled from the blocks A_0, ..., A_{n-2}.

    Block A_i has n - i - 1 block columns: block row i carries
    B_{i+1+m} z_n - z_{i+1+m} across them, and the following block rows carry
    -B_i z_n + z_i down the diagonal.  The r framing rows are zero.
    """
    n, c, r = x.n, x.c, x.r
    block_cols = [(i, m) for i in range(n - 1) for m in range(n - i - 1)]
    grid = [[None] * len(block_cols) for _ in range(n)]
    for col, (i, m) in enumerate(block_cols):
        grid[i][col] = (1, i + 1 + m)
        grid[i + 1 + m][col] = (-1, i)
    rows, cols = n * c + r, len(block_cols) * c
    return LinearFormMatrix(x.field, rows, cols, _assemble(x, rows, cols, grid))


def alpha_minus2_p3(x: AdhmDatum) -> LinearFormMatrix:
    """For n = 3: the 3c x c block column (-B_2 z_3 + z_2; B_1 z_3 - z_1; -B_0 z_3 + z_0)."""
    if x.n != 3:
        raise ShapeError("the depth-two map is only constructed for n = 3")
    grid = [[(-1, 2)], [(1, 1)], [(-1, 0)]]
    return LinearFormMatrix(x.field, 3 * x.c, x.c, _assemble(x, 3 * x.c, x.c, grid))


def compose(a: LinearFormMatrix, b: LinearFormMatrix) -> QuadraticFormMatrix:
    """Exact product a @ b: C_kl = A_k B_l + A_l B_k for k < l, C_kk = A_k B_k.

    One sparse pass over the :attr:`LinearFormMatrix._terms` of both
    factors: every nonzero of every A_k meets the nonzero entries of the
    matching row of every B_l and adds into C_kk or C_kl (k < l), as ints
    over the product of the two common denominators.  Each nonzero C_kl is
    built once with ``Matrix._of_ints``; the others, over GF(p) also a sum
    that vanishes mod p, are left out.
    """
    if a.cols != b.rows:
        raise ShapeError("inner dimensions do not match")
    if a.var_count != b.var_count or a.field != b.field:
        raise ShapeError("factors disagree on variables or field")
    field, inner, cols, count = a.field, a.cols, b.cols, a.var_count
    (terms_a, da), (terms_b, db) = a._terms, b._terms
    # rows[l][j]: the nonzero (column, int) pairs of row j of B_l
    rows = []
    for pairs in terms_b:
        by_row = [[] for _ in range(inner)]
        for cell, y in pairs:
            j, q = divmod(cell, cols)
            by_row[j].append((q, y))
        rows.append(by_row)
    keys = [(k, l) for k in range(count) for l in range(k, count)]
    acc = {key: [0] * (a.rows * cols) for key in keys}
    targets = [[acc[min(k, l), max(k, l)] for l in range(count)] for k in range(count)]
    for pairs, sums in zip(terms_a, targets):
        for cell, x in pairs:
            i, j = divmod(cell, inner)
            base = i * cols
            for row_l, out in zip(rows, sums):
                for q, y in row_l[j]:
                    out[base + q] += x * y
    nonzero = {}
    for key in keys:
        if any(acc[key]):
            c = Matrix._of_ints(field, a.rows, cols, acc[key], da * db)
            if not c.is_zero():
                nonzero[key] = c
    return QuadraticFormMatrix(field, a.rows, cols, nonzero)


def evaluate(m: LinearFormMatrix, point: Sequence) -> Matrix:
    """Scalar matrix obtained by evaluating every entry at a point of P^n:
    the sum of z_k A_k.

    The point is coerced and lifted to ints once; each z_k != 0 then adds
    z_k times the nonzero (cell, int) pairs of A_k, all over the common
    denominator of :attr:`LinearFormMatrix._terms`.
    """
    field = m.field
    pt = [field.coerce(z) for z in point]
    if len(pt) != m.var_count:
        raise ShapeError("point arity does not match the variable count")
    zs, dz = _lift(field, pt)
    if not any(zs):
        raise ValueError("the zero tuple is not a point of projective space")
    terms, d = m._terms
    acc = [0] * (m.rows * m.cols)
    for z, pairs in zip(zs, terms):
        if z:
            for cell, a in pairs:
                acc[cell] += z * a
    return Matrix._of_ints(field, m.rows, m.cols, acc, d * dz)


@dataclass(frozen=True)
class SurjectivityCertificate:
    """Verdict for fiberwise surjectivity of the degree-zero monad map."""

    surjective: bool
    witness_covector: tuple | None = None
    witness_point: tuple | None = None
    witness_available: bool | None = None
    note: str = ""


def _common_left_eigenvector(x: AdhmDatum, closure: Subspace) -> tuple[tuple, tuple] | None:
    """A covector w != 0 and rational eigentuple z with w B_i = z_i w, w v_j = 0.

    Witnesses must annihilate the Krylov closure of x, passed in as
    ``closure``, so the search runs inside its annihilator: the first leaf
    of its joint eigenspace split under the row action w -> w B_i.  Returns
    None when no fully rational witness exists.
    """
    leaves = joint_eigenspaces(
        [b.transpose() for b in x.B], kernel_basis(closure.basis), generalized=False
    )
    for eigs, leaf in leaves:
        return leaf.basis.row_tuple(0), eigs
    return None


def surjectivity_certificate(x: AdhmDatum) -> SurjectivityCertificate:
    """Decide whether the degree-zero map has full rank c at every point.

    At infinity the rank is automatically c; on the affine chart a rank drop
    at z is equivalent to a covector w with w B_i = z_i w and w v_j = 0, which
    exists over the algebraic closure exactly when the datum is unstable.  The
    verdict is therefore the stability check; for unstable data with rational
    joint spectrum an explicit witness (w, point) is attached.
    """
    _require_commuting(x, "certificate requires a commuting datum")
    closure = krylov_closure(x)
    if closure.dim == x.c:  # stable, as in is_stable
        return SurjectivityCertificate(surjective=True)
    found = _common_left_eigenvector(x, closure)
    if found is None:
        return SurjectivityCertificate(
            surjective=False,
            witness_available=False,
            note="rank drops only at irrational points; no witness over the rationals",
        )
    w, eigs = found
    point = tuple(eigs) + (x.field.one(),)
    return SurjectivityCertificate(
        surjective=False,
        witness_covector=tuple(w),
        witness_point=point,
        witness_available=True,
    )


@dataclass(frozen=True)
class FiberReport:
    """Ranks and fiber dimensions of the monad maps at one point."""

    point: tuple
    term_dims: tuple
    ranks: dict
    middle_dim: int
    euler: int | None


def fiber_report(x: AdhmDatum, point: Sequence) -> FiberReport:
    """Evaluate the chain at a point and report ranks and the middle fiber.

    For n = 3 the full chain is used and the alternating sum of the term
    dimensions (always r) is included; other n report the degree -1 and 0
    pair only.
    """
    a0 = evaluate(alpha0(x), point)
    am1 = evaluate(alpha_minus1(x), point)
    ranks = {"alpha0": rank(a0), "alpha_minus1": rank(am1)}
    n, c, r = x.n, x.c, x.r
    middle = (n * c + r) - ranks["alpha_minus1"] - ranks["alpha0"]
    euler = None
    term_dims: tuple
    if n == 3:
        am2 = evaluate(alpha_minus2_p3(x), point)
        ranks["alpha_minus2"] = rank(am2)
        term_dims = (c, 3 * c, 3 * c + r, c)
        euler = c - 3 * c + (3 * c + r) - c
    else:
        term_dims = (c * (n * (n - 1) // 2), n * c + r, c)
    pt = tuple(x.field.coerce(z) for z in point)
    return FiberReport(point=pt, term_dims=term_dims, ranks=ranks, middle_dim=middle, euler=euler)


def sample_points(x: AdhmDatum, count: int, seed: int) -> list[tuple]:
    """Deterministic rational sample points on P^n: affine-chart points plus a
    few on the hyperplane at infinity."""
    rng = random.Random(seed)
    field = x.field
    pts = []
    infinity = max(1, count // 8)
    for _ in range(count - infinity):
        pts.append(
            tuple(field.coerce(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)) for _ in range(x.n))
            + (field.one(),)
        )
    for _ in range(infinity):
        while True:
            coords = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(x.n)]
            if any(coords):
                break
        pts.append(tuple(field.coerce(z) for z in coords) + (field.zero(),))
    return pts


def rank_sample_report(x: AdhmDatum, samples: int, seed: int) -> dict:
    """Rank of the degree-zero map at sampled points plus rational support points.

    Support points are added when the joint spectrum is rational; otherwise
    the report says that sampling used random points only.
    """
    pts = sample_points(x, samples, seed)
    sup = support(x)
    support_pts = [
        tuple(coord for coord in point) + (x.field.one(),)
        for point, _mult in sup.points
    ]
    a0 = alpha0(x)
    rows = []
    for pt in pts:
        rows.append({"point": pt, "rank": rank(evaluate(a0, pt)), "support_point": False})
    for pt in support_pts:
        rows.append({"point": pt, "rank": rank(evaluate(a0, pt)), "support_point": True})
    return {
        "expected_rank": x.c,
        "support_complete": sup.complete,
        "all_full_rank": all(row["rank"] == x.c for row in rows),
        "samples": rows,
    }
