"""Matrices of linear forms realizing the perfect-extended-monad maps.

Forms live in the homogeneous coordinates z_0..z_n of projective n-space with
the hyperplane at infinity cut out by z_n = 0.  Maps are stored so that the
composition "target after source" is literally the matrix product
target @ source, with row counts matching the target term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .adhm import AdhmDatum, is_adhm, krylov_closure
from .exactalg import (
    Field,
    Matrix,
    ShapeError,
    Subspace,
    _lift,
    _scalars,
    joint_eigenspaces,
    kernel_basis,
    rank,
)
from .quotmod import NonCommutingError


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

    coeffs[k] is the coefficient matrix A_k, stored sparsely as a dict
    {(i, j): scalar} that never holds a zero, so equal maps compare equal.
    """

    field: Field
    rows: int
    cols: int
    coeffs: tuple  # one sparse coefficient matrix per variable

    @property
    def var_count(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _lifted(self) -> tuple[tuple[list, ...], int]:
        """The coefficients as Python ints, lifted once: (per variable [(i, j, int)], d).

        All variables share one common denominator d (residues and d = 1
        over GF(p)), so A_k[i, j] == int / d.  The view is cached outside
        the dataclass fields: it takes no part in == or repr.
        """
        ints, d = _lift(self.field, [c for ak in self.coeffs for c in ak.values()])
        it = iter(ints)  # consumed in the order the coefficients were listed
        return tuple([(i, j, v) for (i, j), v in zip(ak, it)] for ak in self.coeffs), d

    def entry(self, i: int, j: int) -> LinearForm:
        zero = self.field.zero()
        return LinearForm(tuple(a.get((i, j), zero) for a in self.coeffs))


@dataclass(frozen=True)
class QuadraticFormMatrix:
    """Matrix of quadratic forms: the sum over k <= l of z_k z_l C_kl.

    coeffs maps (k, l) to C_kl, a sparse matrix like those of
    LinearFormMatrix; only nonzero coefficient matrices are kept.
    """

    field: Field
    rows: int
    cols: int
    coeffs: dict

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_matrix(self, k: int, l: int) -> Matrix:
        """Scalar matrix of the z_k z_l coefficients."""
        c = self.coeffs.get((min(k, l), max(k, l)), {})
        zero = self.field.zero()
        return Matrix(
            self.field, self.rows, self.cols,
            tuple(c.get((i, j), zero) for i in range(self.rows) for j in range(self.cols)),
        )


def _assemble(x: AdhmDatum, grid: Sequence[Sequence]) -> list[dict]:
    """Coefficient matrices of a grid of c x c blocks.

    A cell is None (a zero block) or (sign, i), the block sign (B_i z_n - z_i).
    """
    n, c = x.n, x.c
    coeffs: list[dict] = [{} for _ in range(n + 1)]
    for block_row, cells in enumerate(grid):
        for block_col, cell in enumerate(cells):
            if cell is None:
                continue
            sign, i = cell
            s = x.field.coerce(sign)
            r0, c0 = block_row * c, block_col * c
            for a in range(c):
                coeffs[i][(r0 + a, c0 + a)] = -s
                for b, value in enumerate(x.B[i].row_tuple(a)):
                    if value:
                        coeffs[n][(r0 + a, c0 + b)] = s * value
    return coeffs


def alpha0(x: AdhmDatum) -> LinearFormMatrix:
    """The c x (nc + r) map (B_0 z_n - z_0 | ... | B_{n-1} z_n - z_{n-1} | v_j z_n)."""
    n, c, r = x.n, x.c, x.r
    coeffs = _assemble(x, [[(1, i) for i in range(n)]])
    for j in range(r):
        for row, value in enumerate(x.v[j]):
            if value:
                coeffs[n][(row, n * c + j)] = value
    return LinearFormMatrix(x.field, c, n * c + r, tuple(coeffs))


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
    return LinearFormMatrix(
        x.field, n * c + r, len(block_cols) * c, tuple(_assemble(x, grid))
    )


def alpha_minus2_p3(x: AdhmDatum) -> LinearFormMatrix:
    """For n = 3: the 3c x c block column (-B_2 z_3 + z_2; B_1 z_3 - z_1; -B_0 z_3 + z_0)."""
    if x.n != 3:
        raise ShapeError("the depth-two map is only constructed for n = 3")
    grid = [[(-1, 2)], [(1, 1)], [(-1, 0)]]
    return LinearFormMatrix(x.field, 3 * x.c, x.c, tuple(_assemble(x, grid)))


def compose(a: LinearFormMatrix, b: LinearFormMatrix) -> QuadraticFormMatrix:
    """Exact product a @ b: C_kl = A_k B_l + A_l B_k for k < l, C_kk = A_k B_k."""
    if a.cols != b.rows:
        raise ShapeError("inner dimensions do not match")
    if a.var_count != b.var_count or a.field != b.field:
        raise ShapeError("factors disagree on variables or field")
    (a_lifted, da), (b_lifted, db) = a._lifted, b._lifted
    # each B_l as {row: [(col, int), ...]}, so A_k B_l walks nonzeros only
    b_rows = []
    for bl in b_lifted:
        index: dict = {}
        for m, j, value in bl:
            index.setdefault(m, []).append((j, value))
        b_rows.append(index)
    sums: dict = {}
    for k, ak in enumerate(a_lifted):
        for l, index in enumerate(b_rows):
            acc = sums.setdefault((min(k, l), max(k, l)), {})
            for i, m, av in ak:
                for j, bv in index.get(m, ()):
                    acc[(i, j)] = acc.get((i, j), 0) + av * bv
    out = {}
    for key, acc in sums.items():
        # sums that vanish (mod p over GF(p)) come back as the falsy zero
        values = _scalars(a.field, acc.values(), da * db)
        nonzero = {ij: value for ij, value in zip(acc, values) if value}
        if nonzero:
            out[key] = nonzero
    return QuadraticFormMatrix(a.field, a.rows, b.cols, out)


def evaluate(m: LinearFormMatrix, point: Sequence) -> Matrix:
    """Scalar matrix obtained by evaluating every entry at a point of P^n.

    The sums run on Python ints: the point is lifted over one common
    denominator (residues over GF(p)) and multiplied into the form
    matrix's cached lifted coefficients, and each entry becomes one scalar
    at the end.  The sums seed the result's cached int view, so a rank
    of the result reads them without lifting again.
    """
    field = m.field
    pt = tuple(field.coerce(z) for z in point)
    if len(pt) != m.var_count:
        raise ShapeError("point arity does not match the variable count")
    if all(not z for z in pt):
        raise ValueError("the zero tuple is not a point of projective space")
    zs, dz = _lift(field, pt)
    lifted, dc = m._lifted
    cols = m.cols
    acc = [0] * (m.rows * cols)
    for z, ak in zip(zs, lifted):
        if z:
            for i, j, c in ak:
                acc[i * cols + j] += c * z
    return Matrix._of_ints(field, m.rows, cols, acc, dz * dc)


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
    if not is_adhm(x):
        raise NonCommutingError("certificate requires a commuting datum")
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


def sample_points(x: AdhmDatum, count: int, seed: int, *, bound: int = 7) -> list[tuple]:
    """Deterministic rational sample points on P^n: affine-chart points plus a
    few on the hyperplane at infinity."""
    rng = random.Random(seed)
    field = x.field
    pts = []
    infinity = max(1, count // 8)
    for _ in range(count - infinity):
        pts.append(
            tuple(field.coerce(rng.randint(-bound, bound)) for _ in range(x.n))
            + (field.one(),)
        )
    for _ in range(infinity):
        while True:
            coords = [rng.randint(-bound, bound) for _ in range(x.n)]
            if any(coords):
                break
        pts.append(tuple(field.coerce(z) for z in coords) + (field.zero(),))
    return pts


def rank_sample_report(x: AdhmDatum, samples: int, seed: int) -> dict:
    """Rank of the degree-zero map at sampled points plus rational support points.

    Support points are added when the joint spectrum is rational; otherwise
    the report says that sampling used random points only.
    """
    from .punctual import support

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
