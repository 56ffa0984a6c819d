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
from itertools import compress

from .adhm import AdhmDatum, _matrix_polynomial, _powers, commutator_pairs, is_stable
from .exactalg import QQ, Field, Matrix, PrimeField, ShapeError, _lift, _scalars, rank


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


def _block_ints(x: AdhmDatum, block: list, product) -> tuple[list[int], int]:
    """One equation block's value as row-major ints over one denominator, (ints, d).

    Reads the cached int views of the coefficients and word products; over
    GF(p) the ints are residues and d = 1.
    """
    field = x.field
    terms = []
    for coeff, word in block:
        (num,), dc = _lift(field, [coeff])
        ints, dw = product(word)._lifted
        terms.append((num, dc * dw, ints))
    d = math.lcm(*(den for _, den, _ in terms))
    acc = [0] * (x.c * x.c)
    for num, den, ints in terms:
        k = num * (d // den)
        acc = [s + k * v for s, v in zip(acc, ints)]
    if isinstance(field, PrimeField):
        acc = [s % field.p for s in acc]
    return acc, d


def residual(x: AdhmDatum, sys: EquationSystem) -> tuple:
    """All equation values stacked: commutator entries (pairs in lexicographic
    order), then B_i^e entries per i, then each variety relation's entries."""
    product = _word_products(x)
    return tuple(v for block in _equations(x, sys)
                 for v in _scalars(x.field, *_block_ints(x, block, product)))


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
    denominator d, and the matrix is built from them once, converting only
    its nonzero sums.
    """
    blocks = _equations(x, sys)
    product = _word_products(x)
    if any(any(_block_ints(x, block, product)[0]) for block in blocks):
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
    # the matrix is sparse: reduce and convert only the nonzero sums
    nonzero = list(compress(range(len(acc)), acc))
    sums = [acc[k] for k in nonzero]
    if isinstance(field, PrimeField):
        sums = [s % field.p for s in sums]
        for k, s in zip(nonzero, sums):
            acc[k] = s
    entries = [field.zero()] * len(acc)
    for k, value in zip(nonzero, _scalars(field, sums, d)):
        entries[k] = value
    return Matrix._of(field, len(blocks) * c * c, ncols, entries, (acc, d))


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


def _random_invertible(
    rng: random.Random, field: Field, c: int, bound: int = 3
) -> tuple[Matrix, Matrix]:
    """A random invertible c x c matrix g with small entries, and its inverse."""
    while True:
        g = Matrix(
            field, c, c,
            tuple(field.coerce(rng.randint(-bound, bound)) for _ in range(c * c)),
        )
        ginv = g.inverse()
        if ginv is not None:
            return g, ginv


def sample_generic_commuting(
    n: int, c: int, r: int, rng: random.Random, *, max_retries: int = 64
) -> AdhmDatum:
    """Stable commuting datum at a regular semisimple point of the commuting locus.

    B_0 is an invertible affine rescaling of a conjugated distinct-eigenvalue
    diagonal matrix T, so it separates every eigenvalue pair; the remaining
    B_i are random polynomials in T.  At such points the commutator Jacobian
    has its generic rank, which is what the dimension formulas describe.
    """
    field = QQ
    for _ in range(max_retries):
        eigs = rng.sample(range(-2 * c - 2, 2 * c + 3), c)
        g, ginv = _random_invertible(rng, field, c)
        diag = Matrix(
            field, c, c,
            tuple(field.coerce(eigs[i]) if i == j else field.zero()
                  for i in range(c) for j in range(c)),
        )
        t = g @ diag @ ginv
        powers = _powers(t, c)
        scale = field.coerce(rng.choice([1, -1]) * rng.randint(1, 3))
        shift = field.coerce(rng.randint(-3, 3))
        bs = [t.scale(scale) + powers[0].scale(shift)]
        for _ in range(n - 1):
            bs.append(_matrix_polynomial(powers, [rng.randint(-3, 3) for _ in range(c)]))
        vs = tuple(
            tuple(field.coerce(rng.randint(-3, 3)) for _ in range(c)) for _ in range(r)
        )
        datum = AdhmDatum(n, c, r, tuple(bs), vs)
        if is_stable(datum):
            return datum
    raise SamplerError("could not draw a stable regular semisimple sample")


def sample_punctual(
    n: int, c: int, r: int, rng: random.Random, *, max_retries: int = 64
) -> AdhmDatum:
    """Stable nilpotent commuting datum at a generic point of the principal
    nilpotent family: B_i = x_i N + y_i N^2 + ... with N regular nilpotent and
    every linear coefficient x_i nonzero.

    Supported for c <= 3, the range where the nilpotent commuting locus is
    irreducible and this family is dense in it.
    """
    if c > 3:
        raise SamplerError("punctual sampler is constructive for c <= 3 only")
    field = QQ
    for _ in range(max_retries):
        g, ginv = _random_invertible(rng, field, c)
        shift = Matrix(
            field, c, c,
            tuple(field.one() if j == i + 1 else field.zero()
                  for i in range(c) for j in range(c)),
        )
        powers = _powers(g @ shift @ ginv, c)
        bs = []
        for _ in range(n):
            coeffs = []
            if c >= 2:
                coeffs = [0, rng.choice([1, -1]) * rng.randint(1, 3)]
                coeffs += [rng.randint(-2, 2) for _ in range(2, c)]
            bs.append(_matrix_polynomial(powers, coeffs))
        vs = tuple(
            tuple(field.coerce(rng.randint(-3, 3)) for _ in range(c)) for _ in range(r)
        )
        datum = AdhmDatum(n, c, r, tuple(bs), vs)
        if is_stable(datum):
            return datum
    raise SamplerError("could not draw a stable punctual sample")


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
    variety_relations: tuple = (),
) -> DimensionExperiment:
    """Tangent dimensions at `trials` constructive samples of the chosen locus.

    The minimum over trials is the experiment's dimension estimate at a
    generic point.  trials = 0 yields an empty histogram without error.
    Each trial's moduli value is its tangent dimension minus c^2, as in
    :func:`moduli_dimension_estimate`: both samplers return a datum only
    after ``is_stable`` has accepted it, so neither the rank nor stability
    is decided a second time.
    """
    if variety_relations:
        raise SamplerError("no constructive sampler for explicit variety relations")
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
