from __future__ import annotations

import random
from fractions import Fraction

import pytest

from adhmquot.adhm import (
    AdhmDatum,
    GenerationError,
    act,
    commutator_pairs,
    commutators,
    equivalence,
    is_adhm,
    is_stable,
    krylov_closure,
    random_datum,
    stabilizer_lie_dimension,
)
from adhmquot.exactalg import GF, QQ, Matrix, ShapeError, SingularMatrixError

from helpers import datum, mat


def test_commutators_n1_empty():
    x = datum(1, 2, 1, [[[1, 2], [3, 4]]], [(1, 0)])
    assert commutators(x) == []
    assert is_adhm(x)


def test_commutators_identity_pair():
    x = datum(2, 2, 1, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [(1, 0)])
    (comm,) = commutators(x)
    assert comm.is_zero()
    assert is_adhm(x)


def test_commutators_hand_pair(noncommuting_pair):
    b0, b1 = noncommuting_pair
    x = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    (comm,) = commutators(x)
    assert comm == mat([[1, 0], [0, -1]])
    assert not is_adhm(x)


def test_commutator_pair_order():
    assert commutator_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_krylov_examples(jordan2):
    x = datum(1, 1, 1, [[[5]]], [(1,)])
    assert krylov_closure(x).dim == 1
    x = datum(2, 3, 2, [[[1, 0, 0], [0, 2, 0], [0, 0, 3]]] * 2, [(0, 0, 0), (0, 0, 0)])
    assert krylov_closure(x).dim == 0
    x = AdhmDatum(1, 2, 1, (jordan2,), ((1, 0),))
    assert krylov_closure(x).dim == 1 and not is_stable(x)
    x = AdhmDatum(1, 2, 1, (jordan2,), ((0, 1),))
    assert krylov_closure(x).dim == 2 and is_stable(x)


def test_stability_c0_vacuous():
    x = AdhmDatum(2, 0, 1, (Matrix.zero(QQ, 0, 0), Matrix.zero(QQ, 0, 0)), ((),))
    assert is_stable(x)


def test_act_identity_and_scalar():
    x = random_datum(2, 3, 2, seed=1, stable=True)
    assert act(Matrix.identity(QQ, 3), x) == x
    doubled = act(Matrix.identity(QQ, 3).scale(2), x)
    assert doubled.B == x.B
    assert doubled.v == tuple(tuple(2 * e for e in vec) for vec in x.v)


def test_act_permutation_on_diagonal():
    x = datum(1, 3, 1, [[[1, 0, 0], [0, 2, 0], [0, 0, 3]]], [(1, 1, 1)])
    perm = mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # e1->e3, e2->e1, e3->e2
    y = act(perm, x)
    assert y.B[0] == mat([[2, 0, 0], [0, 3, 0], [0, 0, 1]])


def test_act_rejects_singular():
    x = random_datum(2, 2, 1, seed=2, stable=True)
    with pytest.raises(SingularMatrixError):
        act(Matrix.zero(QQ, 2, 2), x)


@pytest.mark.parametrize("seed", range(6))
def test_act_preserves_flags_and_conjugates_commutators(seed):
    rng = random.Random(seed)
    x = random_datum(2, 3, 2, seed=seed, stable=None)
    while True:
        g = Matrix(QQ, 3, 3, tuple(Fraction(rng.randint(-3, 3)) for _ in range(9)))
        if g.inverse() is not None:
            break
    y = act(g, x)
    assert is_stable(y) == is_stable(x)
    assert is_adhm(y) == is_adhm(x)
    ginv = g.inverse()
    for cx, cy in zip(commutators(x), commutators(y)):
        assert cy == g @ cx @ ginv


def test_krylov_stabilizes_within_c_rounds():
    # the closure equals the span of all words of degree < c applied to the v's
    x = random_datum(3, 4, 1, seed=11, stable=None)
    closure = krylov_closure(x)
    bigger = closure
    for b in x.B:
        img = [b.apply(closure.basis.row_tuple(i)) for i in range(closure.dim)]
        from adhmquot.exactalg import Subspace

        bigger = bigger.join(Subspace.from_vectors(QQ, x.c, img))
    assert bigger.dim == closure.dim


def test_stabilizer_examples(jordan2):
    stable = random_datum(2, 3, 2, seed=3, stable=True)
    assert stabilizer_lie_dimension(stable) == 0
    zeros = datum(2, 2, 1, [[[0, 0], [0, 0]]] * 2, [(0, 0)])
    assert stabilizer_lie_dimension(zeros) == 4
    unstable = AdhmDatum(1, 2, 1, (jordan2,), ((1, 0),))
    assert stabilizer_lie_dimension(unstable) == 1


def test_equivalence_reflexive():
    x = random_datum(2, 3, 2, seed=4, stable=True)
    assert equivalence(x, x) == Matrix.identity(QQ, 3)


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_round_trip(seed):
    rng = random.Random(50 + seed)
    x = random_datum(rng.choice([1, 2, 3]), rng.choice([1, 2, 3, 4]), rng.choice([1, 2]),
                     seed=seed, stable=True)
    while True:
        g = Matrix(
            QQ, x.c, x.c, tuple(Fraction(rng.randint(-3, 3)) for _ in range(x.c * x.c))
        )
        if g.inverse() is not None:
            break
    y = act(g, x)
    assert equivalence(x, y) == g  # unique for stable inputs


def test_equivalence_distinguishes_spectra():
    x = datum(1, 2, 1, [[[1, 0], [0, 2]]], [(1, 1)])
    y = datum(1, 2, 1, [[[1, 0], [0, 3]]], [(1, 1)])
    assert is_stable(x) and is_stable(y)
    assert equivalence(x, y) is None


def test_equivalence_on_unstable_orbit():
    # positive-dimensional solution space: the bounded search still finds an
    # invertible intertwiner for points of the same orbit
    rng = random.Random(31)
    x = random_datum(2, 3, 1, seed=31, stable=False)
    while True:
        g = Matrix(QQ, 3, 3, tuple(Fraction(rng.randint(-2, 2)) for _ in range(9)))
        if g.inverse() is not None:
            break
    y = act(g, x)
    h = equivalence(x, y)
    assert h is not None
    assert act(h, x) == y


def test_equivalence_shape_mismatch():
    x = random_datum(2, 2, 1, seed=5)
    y = random_datum(2, 3, 1, seed=5)
    with pytest.raises(ShapeError):
        equivalence(x, y)


def test_random_datum_deterministic():
    a = random_datum(3, 3, 2, seed=7, stable=True, nilpotent=True)
    b = random_datum(3, 3, 2, seed=7, stable=True, nilpotent=True)
    assert a == b


def test_random_datum_flags():
    x = random_datum(2, 1, 1, seed=8, stable=True)
    assert x.c == 1 and is_stable(x) and any(x.v[0])
    y = random_datum(2, 3, 1, seed=9, nilpotent=True)
    assert is_adhm(y)
    assert all(b.power(3).is_zero() for b in y.B)
    z = random_datum(2, 3, 2, seed=10, stable=False)
    assert is_adhm(z) and not is_stable(z)


def test_random_datum_always_commutes():
    for seed in range(12):
        x = random_datum(4, 4, 2, seed=seed)
        assert is_adhm(x)


def test_random_datum_prime_field():
    x = random_datum(2, 3, 2, seed=13, field=GF(3), stable=True)
    assert x.field == GF(3)
    assert is_adhm(x) and is_stable(x)


def test_random_datum_impossible_flags():
    with pytest.raises(GenerationError):
        random_datum(2, 0, 1, seed=14, stable=False)
