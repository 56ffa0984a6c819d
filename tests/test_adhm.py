from __future__ import annotations

import copy
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from adhmquot import adhm, exactalg, monad, punctual, quotmod
from adhmquot.adhm import (
    AdhmDatum,
    GenerationError,
    NonCommutingError,
    UndecidedEquivalenceError,
    _krylov_layers,
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
from adhmquot.quiver import QuiverRep
from adhmquot.serialize import datum_from_obj

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


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_krylov_walk_builds_no_scalars(monkeypatch, field):
    rng = random.Random(5)
    data = []
    for seed in range(12):
        n, c, r = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        x = random_datum(n, c, r, seed=seed, stable=(True, False, None)[seed % 3], field=field)
        # conjugating by diag(1, ..., c) puts denominators into B and v
        g = Matrix.from_rows(field, [[k + 1 if k == i else 0 for k in range(c)] for i in range(c)])
        noncommuting = tuple(
            Matrix.from_rows(field, [[rng.randint(-2, 2) for _ in range(c)] for _ in range(c)])
            for _ in range(n)
        )
        data += [x, act(g, x), AdhmDatum(n, c, r, noncommuting, x.v)]
    expected = [(krylov_closure(x).dim, _krylov_layers(x)) for x in data]

    def no_scalars(*args):
        raise AssertionError("the Krylov walk built scalars")

    monkeypatch.setattr(exactalg, "_scalars", no_scalars)
    walks = [_krylov_layers(x) for x in data]
    assert [(len(kept), (kept, layers)) for kept, layers in walks] == expected


@pytest.mark.parametrize("field,rows", [
    (GF(2), [[1, 1], [1, 1]]),  # B v = (2, 2) = 0
    (GF(3), [[1, 2], [2, 1]]),  # B v = (3, 3) = 0
    (GF(2), [[1, 1, 0], [1, 1, 0], [1, 1, 0]]),  # B v = (2, 2, 2) = 0
    (GF(3), [[1, 2, 0], [2, 1, 0], [1, 2, 0]]),  # B v = (3, 3, 3) = 0
])
def test_krylov_walk_reduces_images_mod_p(field, rows):
    c = len(rows)
    x = AdhmDatum(1, c, 1, (Matrix.from_rows(field, rows),), ((1, 1) + (0,) * (c - 2),))
    kept, layers = _krylov_layers(x)
    assert kept == [[1, 1] + [0] * (c - 2)] and len(layers) == 1
    assert krylov_closure(x).dim == 1 and not is_stable(x)


@pytest.mark.parametrize("field,c", [(QQ, 3), (GF(3), 3), (GF(32003), 3), (QQ, 0)])
def test_datum_int_view_is_exact_and_outside_the_fields(field, c):
    rng = random.Random(c)

    def entry():  # denominators 1, 2, 5 and 7 are units in GF(3) and GF(32003)
        return field.coerce(f"{rng.randint(-3, 3)}/{rng.choice((1, 2, 5, 7))}")

    bs = tuple(Matrix(field, c, c, tuple(entry() for _ in range(c * c))) for _ in range(2))
    vs = tuple(tuple(entry() for _ in range(c)) for _ in range(2))
    x, fresh = AdhmDatum(2, c, 2, bs, vs), AdhmDatum(2, c, 2, bs, vs)
    before = (hash(x), repr(x))
    rows, vecs, d = x._ints
    scale = field.one() / field.coerce(d)
    assert [[[field.coerce(a) * scale for a in row] for row in b] for b in rows] == [
        b.to_rows() for b in x.B
    ]
    assert [tuple(field.coerce(a) * scale for a in vec) for vec in vecs] == list(x.v)
    ints = [a for b in rows for row in b for a in row] + [a for vec in vecs for a in vec]
    if field == QQ:  # one common denominator, the least one
        scalars = [a for b in x.B for a in b.entries] + [a for vec in x.v for a in vec]
        assert d == math.lcm(*(a.denominator for a in scalars))
        assert d > 1 or c == 0
    else:  # residues
        assert d == 1 and all(0 <= a < field.p for a in ints)
    # cached outside the fields: ==, hash and repr do not see it
    assert (hash(x), repr(x)) == before == (hash(fresh), repr(fresh)) and x == fresh
    assert "_ints" in vars(x) and "_ints" not in vars(fresh)
    copies = (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), pickle.loads(pickle.dumps(fresh)))
    for copied in copies:
        assert copied == x and repr(copied) == repr(x) and copied._ints == x._ints


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


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_equivalence_search_reaches_random_combinations(field):
    # the homogeneous solutions h_1, h_2 leave g0 and every g0 +- h_k
    # singular, so only a random combination of all three is invertible
    rng = random.Random(0)
    x = random_datum(2, 2, 1, seed=0, stable=False, field=field)
    while True:
        g = Matrix(field, 2, 2, tuple(field.coerce(rng.randint(-2, 2)) for _ in range(4)))
        if g.inverse() is not None:
            break
    y = act(g, x)
    h = equivalence(x, y)
    assert h is not None
    assert act(h, x) == y


def test_a_missed_search_is_undecided_not_a_verdict():
    # x: n = r = 1, v = 0 and B nilpotent over GF(2) with Jordan blocks of
    # sizes 1..6 (c = 21); y = act(g, x) for the sixth invertible g drawn
    # from random.Random(1), the first of those draws the search misses
    x, y = (datum_from_obj(json.loads(path.read_text()))
            for path in sorted(Path(__file__).parent.glob("data/gf2_jordan_c21_*.json")))
    field, c = GF(2), 21
    starts = {sum(range(1, k)) for k in range(1, 8)}
    shift = [[int(i == k + 1 and i not in starts) for k in range(c)] for i in range(c)]
    assert x == AdhmDatum(1, c, 1, (Matrix.from_rows(field, shift),), ((0,) * c,))
    rng, invertible = random.Random(1), []
    while len(invertible) < 6:
        g = Matrix(field, c, c, tuple(field.coerce(rng.randint(0, 1)) for _ in range(c * c)))
        if g.inverse() is not None:
            invertible.append(g)
    assert act(invertible[-1], x) == y and not is_stable(x)
    with pytest.raises(UndecidedEquivalenceError, match="undecided for an unstable datum"):
        equivalence(x, y)


# B e_1 = e_2 makes the first stable, B e_1 = 0 the second unstable
STABLE_PAIR_X = datum(1, 2, 1, [[[0, 0], [1, 0]]], [(1, 0)])
UNSTABLE_PAIR_Y = datum(1, 2, 1, [[[0, 1], [0, 0]]], [(1, 0)])


def _counting_system(monkeypatch) -> list:
    calls = []
    original = adhm._intertwiner_system

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(adhm, "_intertwiner_system", counting)
    return calls


def test_equivalence_of_a_stable_and_an_unstable_datum_is_none(monkeypatch):
    calls = _counting_system(monkeypatch)
    # x stable: the joint closure is the graph of g = [[1, 0], [0, 0]], which is singular
    assert equivalence(STABLE_PAIR_X, UNSTABLE_PAIR_Y) is None and calls == []
    # x unstable: the intertwiner system has no solution
    assert equivalence(UNSTABLE_PAIR_Y, STABLE_PAIR_X) is None
    assert calls == [(UNSTABLE_PAIR_Y, STABLE_PAIR_X)]


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_a_kernel_shared_by_every_intertwiner_proves_inequivalence(field, monkeypatch):
    # v = 0: g B = B' g.  From B = 0 to the Jordan block J every g has second
    # row 0 (a common covector); from J to 0 every g kills e_1 (a common vector)
    calls = _counting_system(monkeypatch)
    zero, jordan = (AdhmDatum(1, 2, 1, (Matrix.from_rows(field, b),), ((0, 0),))
                    for b in ([[0, 0], [0, 0]], [[0, 1], [0, 0]]))
    assert equivalence(zero, jordan) is None and equivalence(jordan, zero) is None
    assert calls == [(zero, jordan), (jordan, zero)]  # both took the unstable path


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
def test_equivalence_of_a_non_commuting_stable_tuple_returns_g(field):
    # B_0 e_1 = e_2, B_1 e_1 = e_3, B_1 e_2 = e_4: B_0 B_1 v = 0 but B_1 B_0 v = e_4
    unit = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    b0 = [[0] * 4, unit[0], [0] * 4, [0] * 4]
    b1 = [[0] * 4, [0] * 4, unit[0], unit[1]]
    x = AdhmDatum(2, 4, 1, (Matrix.from_rows(field, b0), Matrix.from_rows(field, b1)), ((1, 0, 0, 0),))
    assert is_stable(x) and not is_adhm(x)
    g = Matrix.from_rows(field, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]])  # det -1
    assert equivalence(x, act(g, x)) == g


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_equivalence_at_c0(field):
    x = AdhmDatum(2, 0, 2, (Matrix.zero(field, 0, 0),) * 2, ((), ()))
    assert equivalence(x, copy.deepcopy(x)) == Matrix.identity(field, 0)


def test_equivalence_solves_the_intertwiner_system_only_for_unstable_x(monkeypatch):
    def refuse(*args):
        raise AssertionError("the intertwiner system was built")

    monkeypatch.setattr(adhm, "_intertwiner_system", refuse)
    monkeypatch.setattr(adhm, "solve", refuse)
    x = random_datum(2, 3, 2, seed=4, stable=True)
    g = mat([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    assert equivalence(x, act(g, x)) == g
    assert equivalence(x, random_datum(2, 3, 2, seed=5, stable=True)) is None
    assert equivalence(STABLE_PAIR_X, UNSTABLE_PAIR_Y) is None
    unstable = random_datum(2, 3, 1, seed=31, stable=False)
    with pytest.raises(AssertionError, match="intertwiner system"):
        equivalence(unstable, act(g, unstable))


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


# every operation defined only on the commuting locus, with the message of its refusal
COMMUTING_ONLY = {
    "phi_apply": (lambda x: quotmod.phi_apply(x, quotmod.PolyVector.unit(2, 4, 1, x.field)),
                  "the matrices do not commute"),
    "kernel_basis_up_to_degree": (lambda x: quotmod.kernel_basis_up_to_degree(x, 2),
                                  "the matrices do not commute"),
    "hilbert_profile": (quotmod.hilbert_profile, "the matrices do not commute"),
    "support": (punctual.support, "support requires a commuting datum"),
    "homotopy_path": (lambda x: punctual.homotopy_path(x, 0), "the path scales a commuting tuple"),
    "verify_path": (lambda x: punctual.verify_path(x, [0, 1]),
                    "the path scales a commuting tuple"),
    "path_permutation": (punctual.path_permutation, "the path scales a commuting tuple"),
    "surjectivity_certificate": (monad.surjectivity_certificate,
                                 "certificate requires a commuting datum"),
    "rank_sample_report": (lambda x: monad.rank_sample_report(x, 4, 1),
                           "support requires a commuting datum"),
    "QuiverRep": (QuiverRep, "quiver relations require commuting loop maps"),
}


@pytest.mark.parametrize("entry", COMMUTING_ONLY)
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_every_commuting_only_operation_refuses_a_non_commuting_datum(field, entry):
    # r = c = 4, so the path gets past its r = c check; B_1 B_0 e_1 = e_4 but B_0 B_1 e_1 = 0
    unit = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
    b0 = [[0] * 4, unit[0], [0] * 4, [0] * 4]
    b1 = [[0] * 4, [0] * 4, unit[0], unit[1]]
    x = AdhmDatum(2, 4, 4, (Matrix.from_rows(field, b0), Matrix.from_rows(field, b1)),
                  tuple(map(tuple, unit)))
    call, message = COMMUTING_ONLY[entry]
    with pytest.raises(NonCommutingError) as refused:
        call(x)
    assert type(refused.value) is NonCommutingError and str(refused.value) == message
