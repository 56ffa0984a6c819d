"""Jacobian tangent dimensions of the defining equations and moduli-dimension
experiments at constructively sampled generic points.

The scheme structure is the one cut out by the chosen equations: commutator
entries, entries of B_i^e for the nilpotent locus (e defaults to c), and
entries of f(B_0, ..., B_{n-1}) for explicit variety relations evaluated on
commuting tuples in fixed index order.  Tangent dimensions depend on that
choice, which is why it is pinned here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .adhm import (
    AdhmDatum, _marked_vectors, _polynomials, _redraw, commutator_pairs, is_stable,
)
from .exactalg import QQ, Matrix, ShapeError, _lift, _linear_combination, rank


class ResidualError(ValueError):
    """Jacobians are only taken at points satisfying the equations exactly."""


class SamplerError(ValueError):
    """No constructive sampler covers the requested configuration."""


@dataclass(frozen=True)
class EquationSystem:
    """Which equations cut the locus: commutators, nilpotency, variety relations."""

    commutators: bool = True
    nilpotent: bool = False
    nilpotency_power: int | None = None  # defaults to c at evaluation time
    variety_relations: tuple = ()

    def power(self, c: int) -> int:
        return self.nilpotency_power if self.nilpotency_power is not None else c


def _equations(x: AdhmDatum, sys: EquationSystem) -> list[list[tuple]]:
    """The equation blocks in residual order, each a sum of words.

    A block is a list of (coefficient, word) pairs; a word is a tuple of
    B-indices read as a matrix product, so the block's value is the c x c
    matrix sum(coefficient * B_{w_0} B_{w_1} ...).  Commutators are
    B_i B_j - B_j B_i, nilpotency is the word (i,) * e, and a variety
    relation has one word per monomial, its letters in index order.
    """
    field = x.field
    one = field.one()
    blocks = []
    if sys.commutators:
        for i, j in commutator_pairs(x.n):
            blocks.append([(one, (i, j)), (-one, (j, i))])
    if sys.nilpotent:
        e = sys.power(x.c)
        blocks.extend([(one, (i,) * e)] for i in range(x.n))
    for f in sys.variety_relations:
        if f.r != 1 or f.n != x.n:
            raise ShapeError("variety relations are one-slot polynomials in n variables")
        blocks.append([
            (field.coerce(coeff), tuple(i for i in range(x.n) for _ in range(alpha[i])))
            for (alpha, _j), coeff in f.terms.items()
        ])
    return blocks


def _word_products(x: AdhmDatum):
    """Memoised product of a word of B-indices; the empty word is the identity.

    Each product extends its longest proper prefix by one factor, so powers
    and prefixes shared between words are multiplied once.
    """
    memo = {(): Matrix.identity(x.field, x.c)}
    memo.update(((i,), b) for i, b in enumerate(x.B))

    def product(word: tuple) -> Matrix:
        m = memo.get(word)
        if m is None:
            m = memo[word] = product(word[:-1]) @ x.B[word[-1]]
        return m

    return product


def _block_value(block: list, product) -> Matrix:
    """One equation block's value, summed over the memoised word products; a
    block with no words (a zero relation) is the zero matrix."""
    words = [product(word) for _, word in block] or [product(())]
    return _linear_combination(words, [coeff for coeff, _ in block])


def residual(x: AdhmDatum, sys: EquationSystem) -> tuple:
    """All equation values stacked: commutator entries (pairs in lexicographic
    order), then B_i^e entries per i, then each variety relation's entries."""
    product = _word_products(x)
    return tuple(v for block in _equations(x, sys) for v in _block_value(block, product).entries)


def coordinate_count(x: AdhmDatum) -> int:
    return x.n * x.c * x.c + x.r * x.c


def jacobian(x: AdhmDatum, sys: EquationSystem) -> Matrix:
    """Partial derivatives of every scalar equation in the n c^2 + r c coordinates.

    x must satisfy the system exactly.  The marked vectors enter no equation,
    so their columns are zero; they are kept so the column space matches the
    coordinate space of the datum.

    Every block is differentiated word by word and letter by letter: for the
    letter B_k at position p of a word with L and R the products before and
    after it, the unit E_ab in B_k changes the word by L E_ab R, whose entry
    (s, q) is L[s][a] R[b][q].  The terms are summed as ints, read off the
    cached int views of the coefficients and of L and R, over one common
    denominator d, and the matrix is built from them once; its scalars are
    made only if read, which :func:`rank` does not.
    """
    blocks = _equations(x, sys)
    product = _word_products(x)
    if not all(_block_value(block, product).is_zero() for block in blocks):
        raise ResidualError("datum does not satisfy the equation system exactly")
    field, c = x.field, x.c
    ncols = coordinate_count(x)
    # L[s][a] R[b][q] lands in row (eq c + s) c + q and column (k c + a) c + b;
    # base is the flat index of s = q = a = b = 0
    terms = []
    for eq, block in enumerate(blocks):
        for coeff, word in block:
            (num,), dc = _lift(field, [coeff])
            for p, k in enumerate(word):
                left, dl = product(word[:p])._lifted
                right, dr = product(word[p + 1:])._lifted
                terms.append((eq * c * c * ncols + k * c * c, num, dc * dl * dr, left, right))
    d = math.lcm(*(t[2] for t in terms))
    acc = [0] * (len(blocks) * c * c * ncols)
    for base, num, den, left, right in terms:
        scale = num * (d // den)
        right = [(q * ncols + b, rv) for b in range(c) for q in range(c) if (rv := right[b * c + q])]
        for s in range(c):
            for a in range(c):
                if lv := left[s * c + a]:
                    lv *= scale
                    at = base + s * c * ncols + a * c
                    for off, rv in right:
                        acc[at + off] += lv * rv
    return Matrix._of_ints(field, len(blocks) * c * c, ncols, acc, d)


def tangent_dimension(x: AdhmDatum, sys: EquationSystem) -> int:
    """(n c^2 + r c) - rank of the Jacobian at x."""
    return coordinate_count(x) - rank(jacobian(x, sys))


def moduli_dimension_estimate(x: AdhmDatum, sys: EquationSystem) -> int:
    """Tangent dimension minus dim GL(V), at a stable point; unstable input
    is rejected.

    The stabilizer term of the general count is 0 there, so it is not
    computed: a xi with [xi, B_i] = 0 and xi v_j = 0 for all i, j has a
    B-invariant kernel that contains every v_j, hence is V, so xi = 0.
    """
    if not is_stable(x):
        raise ResidualError("moduli estimates need a stable datum")
    return tangent_dimension(x, sys) - x.c * x.c


def _random_invertible(rng: random.Random, t: Matrix) -> Matrix:
    """g t g^-1 for a random invertible g with entries in [-3, 3]."""
    c = t.rows
    while True:
        g = Matrix._of_ints(t.field, c, c, [rng.randint(-3, 3) for _ in range(c * c)], 1)
        ginv = g.inverse()
        if ginv is not None:
            return g @ t @ ginv


def sample_generic_commuting(n: int, c: int, r: int, rng: random.Random) -> AdhmDatum:
    """Stable commuting datum at a regular semisimple point of the commuting locus.

    B_0 is an invertible affine rescaling of a conjugated distinct-eigenvalue
    diagonal matrix T, so it separates every eigenvalue pair; the remaining
    B_i are random polynomials in T.  At such points the commutator Jacobian
    has its generic rank, which is what the dimension formulas describe.
    """

    def draw() -> AdhmDatum:
        diag = [0] * (c * c)
        diag[:: c + 1] = rng.sample(range(-2 * c - 2, 2 * c + 3), c)
        t = _random_invertible(rng, Matrix._of_ints(QQ, c, c, diag, 1))
        scale = rng.choice([1, -1]) * rng.randint(1, 3)
        rows = [[rng.randint(-3, 3), scale]]  # B_0 = shift I + scale T, scale drawn first
        rows += [[rng.randint(-3, 3) for _ in range(c)] for _ in range(n - 1)]
        return AdhmDatum(n, c, r, _polynomials(t, rows), _marked_vectors(rng, r, c, 3, c))

    return _redraw(draw, is_stable,
                   SamplerError("could not draw a stable regular semisimple sample"))


def sample_punctual(n: int, c: int, r: int, rng: random.Random) -> AdhmDatum:
    """Stable nilpotent commuting datum at a generic point of the principal
    nilpotent family: B_i = x_i N + y_i N^2 + ... with N regular nilpotent and
    every linear coefficient x_i nonzero.

    Supported for c <= 3, the range where the nilpotent commuting locus is
    irreducible and this family is dense in it.
    """
    if c > 3:
        raise SamplerError("punctual sampler is constructive for c <= 3 only")

    def draw() -> AdhmDatum:
        shift = [0] * (c * c)
        shift[1 :: c + 1] = [1] * (c - 1)
        t = _random_invertible(rng, Matrix._of_ints(QQ, c, c, shift, 1))
        rows = [[] for _ in range(n)]  # N = 0 when c < 2
        if c >= 2:  # no constant term, a nonzero linear one
            rows = [[0, rng.choice([1, -1]) * rng.randint(1, 3),
                     *(rng.randint(-2, 2) for _ in range(2, c))] for _ in range(n)]
        return AdhmDatum(n, c, r, _polynomials(t, rows), _marked_vectors(rng, r, c, 3, c))

    return _redraw(draw, is_stable, SamplerError("could not draw a stable punctual sample"))


@dataclass(frozen=True)
class DimensionExperiment:
    trials: int
    tangent_min: int | None
    tangent_max: int | None
    histogram: dict
    moduli_histogram: dict


def dimension_experiment(
    n: int,
    c: int,
    r: int,
    *,
    punctual: bool = False,
    trials: int,
    seed: int,
) -> DimensionExperiment:
    """Tangent dimensions at `trials` constructive samples of the chosen locus.

    The minimum over trials is the experiment's dimension estimate at a
    generic point.  trials = 0 yields an empty histogram without error.
    Each trial's moduli value is its tangent dimension minus c^2, as in
    :func:`moduli_dimension_estimate`: both samplers return a datum only
    after ``is_stable`` has accepted it, so neither the rank nor stability
    is decided a second time.
    """
    sys = EquationSystem(commutators=True, nilpotent=punctual)
    rng = random.Random(seed)
    histogram: dict = {}
    moduli_histogram: dict = {}
    for _ in range(trials):
        if punctual:
            datum = sample_punctual(n, c, r, rng)
        else:
            datum = sample_generic_commuting(n, c, r, rng)
        tangent = tangent_dimension(datum, sys)
        histogram[tangent] = histogram.get(tangent, 0) + 1
        estimate = tangent - c * c
        moduli_histogram[estimate] = moduli_histogram.get(estimate, 0) + 1
    return DimensionExperiment(
        trials=trials,
        tangent_min=min(histogram) if histogram else None,
        tangent_max=max(histogram) if histogram else None,
        histogram=histogram,
        moduli_histogram=moduli_histogram,
    )
