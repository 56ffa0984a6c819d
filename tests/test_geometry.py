from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

import pytest

from adhmquot import adhm, geometry
from adhmquot.adhm import AdhmDatum, act, commutator_pairs, random_datum, stabilizer_lie_dimension
from adhmquot.exactalg import GF, QQ, Matrix, ShapeError
from adhmquot.geometry import (
    EquationSystem,
    ResidualError,
    SamplerError,
    coordinate_count,
    dimension_experiment,
    jacobian,
    moduli_dimension_estimate,
    residual,
    sample_generic_commuting,
    sample_punctual,
    tangent_dimension,
)
from adhmquot.quotmod import PolyVector

from helpers import datum

COMMUTATORS = EquationSystem(commutators=True)
PUNCTUAL = EquationSystem(commutators=True, nilpotent=True)


def rand_direction(rng, n, c, field=QQ):
    return [
        Matrix(field, c, c, tuple(field.coerce(rng.randint(-3, 3)) for _ in range(c * c)))
        for _ in range(n)
    ]


def test_jacobian_zero_at_origin():
    x = datum(3, 2, 1, [[[0, 0], [0, 0]]] * 3, [(1, 0)])
    j = jacobian(x, COMMUTATORS)
    assert j.is_zero()
    assert tangent_dimension(x, COMMUTATORS) == coordinate_count(x)


def test_jacobian_n1_has_no_rows():
    x = datum(1, 3, 2, [[[1, 2, 0], [0, 1, 0], [0, 0, 5]]], [(1, 0, 0), (0, 1, 0)])
    j = jacobian(x, COMMUTATORS)
    assert j.rows == 0
    assert tangent_dimension(x, COMMUTATORS) == 1 * 9 + 2 * 3


def test_jacobian_requires_zero_residual(noncommuting_pair):
    b0, b1 = noncommuting_pair
    x = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    assert any(residual(x, COMMUTATORS))
    with pytest.raises(ResidualError):
        jacobian(x, COMMUTATORS)


# ---------------------------------------- the dual-number oracle, independent of jacobian


class _Dual:
    """Matrix pair A + eps A' with eps^2 = 0; the oracle's arithmetic."""

    __slots__ = ("value", "deriv")

    def __init__(self, value: Matrix, deriv: Matrix):
        self.value = value
        self.deriv = deriv

    def __matmul__(self, other: "_Dual") -> "_Dual":
        return _Dual(
            self.value @ other.value,
            self.value @ other.deriv + self.deriv @ other.value,
        )

    def __sub__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value - other.value, self.deriv - other.deriv)

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value + other.value, self.deriv + other.deriv)

    def scale(self, s) -> "_Dual":
        return _Dual(self.value.scale(s), self.deriv.scale(s))

    def power(self, e: int) -> "_Dual":
        field = self.value.field
        n = self.value.rows
        out = _Dual(Matrix.identity(field, n), Matrix.zero(field, n, n))
        for _ in range(e):
            out = out @ self
        return out


def residual_directional(
    x: AdhmDatum, sys: EquationSystem, direction: Sequence[Matrix]
) -> tuple:
    """First-order change of the residual along a direction in the B-coordinates.

    Computed with formal dual numbers (eps^2 = 0), independently of the
    word derivation in :func:`jacobian`; exact, no step size involved.
    """
    if len(direction) != x.n:
        raise ShapeError("direction needs one matrix per B_i")
    duals = [_Dual(b, d) for b, d in zip(x.B, direction)]
    out: list = []
    if sys.commutators:
        for i, j in commutator_pairs(x.n):
            out.extend((duals[i] @ duals[j] - duals[j] @ duals[i]).deriv.entries)
    if sys.nilpotent:
        e = sys.power(x.c)
        for d in duals:
            out.extend(d.power(e).deriv.entries)
    for f in sys.variety_relations:
        field = x.field
        acc = _Dual(Matrix.zero(field, x.c, x.c), Matrix.zero(field, x.c, x.c))
        for (alpha, _j), coeff in f.terms.items():
            word = _Dual(Matrix.identity(field, x.c), Matrix.zero(field, x.c, x.c))
            for i in range(x.n):
                for _ in range(alpha[i]):
                    word = word @ duals[i]
            acc = acc + word.scale(field.coerce(coeff))
        out.extend(acc.deriv.entries)
    return tuple(out)


@pytest.mark.parametrize("seed", range(6))
def test_jacobian_matches_dual_oracle(seed):
    rng = random.Random(seed)
    n, c, r = rng.choice([2, 3]), rng.choice([2, 3]), rng.choice([1, 2])
    x = random_datum(n, c, r, seed=700 + seed, nilpotent=True)
    sys = EquationSystem(commutators=True, nilpotent=True)
    j = jacobian(x, sys)
    for _ in range(3):
        direction = rand_direction(rng, n, c)
        flat = [e for d in direction for e in d.entries]
        flat += [QQ.zero()] * (r * c)
        assert j.apply(flat) == residual_directional(x, sys, direction)


def test_jacobian_oracle_with_variety_relation():
    # B_i strictly upper triangular 2x2 => B_0 B_1 = 0, so f = z_0 z_1 vanishes
    x = datum(2, 2, 1, [[[0, 2], [0, 0]], [[0, -3], [0, 0]]], [(1, 0)])
    f = PolyVector.monomial(2, 1, (1, 1), 1, Fraction(1))
    sys = EquationSystem(commutators=True, variety_relations=(f,))
    assert not any(residual(x, sys))
    j = jacobian(x, sys)
    rng = random.Random(5)
    direction = rand_direction(rng, 2, 2)
    flat = [e for d in direction for e in d.entries] + [QQ.zero()] * 2
    assert j.apply(flat) == residual_directional(x, sys, direction)


def _oracle_cases():
    # strictly upper triangular 3x3: every product of three vanishes, products
    # of two do not, so the cubic relation has nonzero derivative blocks
    upper = datum(2, 3, 1, [[[0, 1, 2], [0, 0, -1], [0, 0, 0]],
                            [[0, 3, 1], [0, 0, 2], [0, 0, 0]]], [(0, 0, 1)])
    cubic = PolyVector(2, 1, {((2, 1), 1): Fraction(1), ((1, 2), 1): Fraction(-2)})
    yield "cubic-relation", upper, EquationSystem(commutators=False, variety_relations=(cubic,))
    # B_i maps e_2 into span(e_0, e_1) and kills both, so every product vanishes
    square_zero = datum(2, 3, 1, [[[0, 0, 1], [0, 0, 2], [0, 0, 0]],
                                  [[0, 0, -1], [0, 0, 3], [0, 0, 0]]], [(0, 0, 1)])
    yield "explicit-power", square_zero, EquationSystem(
        commutators=True, nilpotent=True, nilpotency_power=2)
    prime = GF(32003)
    x = random_datum(2, 3, 2, seed=703, nilpotent=True, field=prime)
    f = PolyVector(2, 1, {((3, 0), 1): 3, ((1, 2), 1): -5})
    yield "gf32003", x, EquationSystem(commutators=True, nilpotent=True, variety_relations=(f,))


@pytest.mark.parametrize("x,sys", [pytest.param(x, sys, id=name) for name, x, sys in _oracle_cases()])
def test_jacobian_oracle_on_more_systems(x, sys):
    assert not any(residual(x, sys))
    j = jacobian(x, sys)
    assert not j.is_zero()
    rng = random.Random(6)
    for _ in range(3):
        direction = rand_direction(rng, x.n, x.c, x.field)
        flat = [e for d in direction for e in d.entries] + [x.field.zero()] * (x.r * x.c)
        assert j.apply(flat) == residual_directional(x, sys, direction)


def test_nilpotency_power_defaults_to_c():
    x = datum(1, 2, 1, [[[0, 1], [0, 0]]], [(0, 1)])
    sys = EquationSystem(commutators=True, nilpotent=True)
    assert not any(residual(x, sys))  # B^2 = 0
    explicit = EquationSystem(commutators=True, nilpotent=True, nilpotency_power=1)
    assert any(residual(x, explicit))  # B != 0


@pytest.mark.parametrize("c,r", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_generic_n2_tangent_dimension(c, r):
    rng = random.Random(c * 10 + r)
    x = sample_generic_commuting(2, c, r, rng)
    assert tangent_dimension(x, COMMUTATORS) == c * c + c + r * c
    assert moduli_dimension_estimate(x, COMMUTATORS) == c * (r + 1)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2), (4, 3)])
def test_punctual_c2_tangent_dimension(n, r):
    rng = random.Random(n * 10 + r)
    x = sample_punctual(n, 2, r, rng)
    assert tangent_dimension(x, PUNCTUAL) == n + 1 + 2 * r
    assert moduli_dimension_estimate(x, PUNCTUAL) == 2 * r + n - 3


def test_nilpotent_cone_tangent_without_commutators():
    # at a regular nilpotent point the rank of d(B^c) is c, so the tangent
    # dimension of {B^c = 0} alone is c^2 - c plus the free v-coordinates
    for c in (2, 3, 4):
        rows = [[Fraction(int(j == i + 1)) for j in range(c)] for i in range(c)]
        x = datum(1, c, 1, [rows], [tuple(int(i == c - 1) for i in range(c))])
        sys = EquationSystem(commutators=False, nilpotent=True)
        assert tangent_dimension(x, sys) == c * c - c + c


def test_monotone_under_more_equations():
    rng = random.Random(9)
    x = sample_punctual(3, 3, 2, rng)
    assert tangent_dimension(x, PUNCTUAL) <= tangent_dimension(x, COMMUTATORS)


def test_tangent_dimension_conjugation_invariant():
    rng = random.Random(10)
    x = sample_punctual(2, 3, 1, rng)
    while True:
        g = Matrix(QQ, 3, 3, tuple(Fraction(rng.randint(-2, 2)) for _ in range(9)))
        if g.inverse() is not None:
            break
    assert tangent_dimension(x, PUNCTUAL) == tangent_dimension(act(g, x), PUNCTUAL)


def test_moduli_estimate_requires_stable():
    x = random_datum(2, 2, 1, seed=11, stable=False)
    with pytest.raises(ResidualError):
        moduli_dimension_estimate(x, COMMUTATORS)


def test_dimension_experiment_empty():
    result = dimension_experiment(2, 2, 1, trials=0, seed=0)
    assert result.histogram == {} and result.tangent_min is None


def test_dimension_experiment_constant_family():
    result = dimension_experiment(2, 2, 1, trials=50, seed=1)
    assert result.tangent_min == result.tangent_max == 2 * 2 + 2 + 2
    assert result.moduli_histogram == {4: 50}


def test_dimension_experiment_computes_each_trial_once(monkeypatch):
    calls = []
    original = geometry.tangent_dimension

    def counting(x, sys):
        calls.append(x)
        return original(x, sys)

    monkeypatch.setattr(geometry, "tangent_dimension", counting)
    result = dimension_experiment(3, 2, 1, punctual=True, trials=20, seed=1)
    assert len(calls) == 20
    expected: dict = {}
    for x in list(calls):
        estimate = moduli_dimension_estimate(x, PUNCTUAL)
        expected[estimate] = expected.get(estimate, 0) + 1
    assert result.moduli_histogram == expected


def test_punctual_sampler_guard():
    rng = random.Random(12)
    with pytest.raises(SamplerError):
        sample_punctual(2, 4, 1, rng)
    with pytest.raises(SamplerError):
        dimension_experiment(
            2, 2, 1, trials=1, seed=0,
            variety_relations=(PolyVector.monomial(2, 1, (1, 0), 1, Fraction(1)),),
        )


def test_moduli_estimate_does_not_compute_the_stabilizer(monkeypatch):
    calls = []
    original = adhm.stabilizer_lie_dimension

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(adhm, "stabilizer_lie_dimension", counting)
    monkeypatch.setattr(geometry, "stabilizer_lie_dimension", counting, raising=False)
    rng = random.Random(12)
    assert moduli_dimension_estimate(sample_generic_commuting(2, 3, 2, rng), COMMUTATORS) == 9
    assert moduli_dimension_estimate(sample_punctual(3, 3, 2, rng), PUNCTUAL) == 7
    assert calls == []


def _criterion_shaped_stable_data():
    """Stable data shaped like criteria 4 (generic, n = 2) and 5 (punctual)."""
    rng = random.Random(13)
    prime = GF(32003)
    for c, r in ((1, 1), (2, 3), (3, 2), (4, 1)):
        yield sample_generic_commuting(2, c, r, rng), COMMUTATORS
        yield random_datum(2, c, r, seed=10 * c + r, stable=True, field=prime), COMMUTATORS
    for n, c, r in ((2, 2, 1), (4, 2, 3), (2, 3, 2), (3, 3, 3)):
        yield sample_punctual(n, c, r, rng), PUNCTUAL
        yield random_datum(n, c, r, seed=10 * n + c + r, stable=True, nilpotent=True,
                           field=prime), PUNCTUAL


def test_moduli_estimate_matches_the_formula_with_the_stabilizer_term():
    fields = set()
    for x, sys in _criterion_shaped_stable_data():
        fields.add(x.field)
        assert moduli_dimension_estimate(x, sys) == (
            tangent_dimension(x, sys) - x.c * x.c + stabilizer_lie_dimension(x)
        )
    assert fields == {QQ, GF(32003)}
