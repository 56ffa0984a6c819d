from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from adhmquot.adhm import AdhmDatum, equivalence, is_adhm, is_stable, random_datum
from adhmquot.exactalg import QQ, Matrix
from adhmquot.quotmod import (
    NonCommutingError,
    PolyVector,
    QuotientError,
    _certified,
    hilbert_profile,
    kernel_basis_up_to_degree,
    module_from_generators,
    monomials_of_degree,
    monomials_upto,
    phi_apply,
)

from helpers import datum


def unit(n, r, j):
    return PolyVector.unit(n, r, j)


def mono(n, r, alpha, j, coeff=1):
    return PolyVector.monomial(n, r, alpha, j, Fraction(coeff))


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_upto(2, 1) == [(0, 0), (1, 0), (0, 1)]
    for n, d in [(1, 5), (2, 4), (3, 3)]:
        assert len(monomials_upto(n, d)) == math.comb(n + d, n)


def test_polyvector_drops_zero_terms():
    p = PolyVector(2, 1, {((1, 0), 1): Fraction(0), ((0, 1), 1): Fraction(2)})
    assert len(p.terms) == 1
    assert p.degree() == 1


def test_phi_unit_and_monomial(jordan2):
    x = random_datum(2, 3, 2, seed=1, stable=True)
    assert phi_apply(x, unit(2, 2, 1)) == x.v[0]
    assert phi_apply(x, unit(2, 2, 2)) == x.v[1]
    assert phi_apply(x, mono(2, 2, (1, 0), 1)) == x.B[0].apply(x.v[0])
    xj = AdhmDatum(1, 2, 1, (jordan2,), ((0, 1),))
    assert phi_apply(xj, mono(1, 1, (2,), 1)) == (Fraction(0), Fraction(0))


def test_phi_rejects_noncommuting(noncommuting_pair):
    b0, b1 = noncommuting_pair
    x = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    with pytest.raises(NonCommutingError):
        phi_apply(x, unit(2, 1, 1))


@pytest.mark.parametrize("seed", range(5))
def test_phi_linearity_and_shift(seed):
    x = random_datum(2, 3, 1, seed=seed, stable=True)
    rng = random.Random(seed)
    terms = {}
    for alpha in monomials_upto(2, 2):
        coeff = rng.randint(-3, 3)
        if coeff:
            terms[(alpha, 1)] = Fraction(coeff)
    p = PolyVector(2, 1, terms)
    for i in range(2):
        shifted = p.times_monomial(tuple(1 if k == i else 0 for k in range(2)))
        assert phi_apply(x, shifted) == x.B[i].apply(phi_apply(x, p))


def test_kernel_c0_is_everything():
    x = AdhmDatum(2, 0, 2, (Matrix.zero(QQ, 0, 0),) * 2, ((), ()))
    basis = kernel_basis_up_to_degree(x, 2)
    assert len(basis) == 2 * len(monomials_upto(2, 2))


def test_kernel_at_origin():
    x = datum(2, 1, 1, [[[0]], [[0]]], [(1,)])
    basis = kernel_basis_up_to_degree(x, 1)
    expected = [mono(2, 1, (1, 0), 1), mono(2, 1, (0, 1), 1)]
    assert len(basis) == 2
    assert {frozenset(b.terms.items()) for b in basis} == {
        frozenset(e.terms.items()) for e in expected
    }


@pytest.mark.parametrize("seed", range(5))
def test_kernel_codimension_is_c(seed):
    x = random_datum(2, 3, 2, seed=seed, stable=True)
    d = x.c
    basis = kernel_basis_up_to_degree(x, d)
    n_columns = len(monomials_upto(x.n, d)) * x.r
    assert n_columns - len(basis) == x.c
    zero = (Fraction(0),) * x.c
    for p in basis:
        assert phi_apply(x, p) == zero


def test_module_from_generators_jordan_block():
    c = 4
    x = module_from_generators(1, 1, [mono(1, 1, (c,), 1)])
    assert (x.n, x.c, x.r) == (1, c, 1)
    assert x.v[0] == (Fraction(1),) + (Fraction(0),) * (c - 1)
    # multiplication by z is the shift 1 -> z -> ... -> z^{c-1} -> 0
    for k in range(c - 1):
        col = tuple(x.B[0].entry(row, k) for row in range(c))
        assert col == tuple(Fraction(1 if row == k + 1 else 0) for row in range(c))
    assert all(x.B[0].entry(row, c - 1) == 0 for row in range(c))


def test_module_from_generators_origin_and_zero():
    p = module_from_generators(2, 1, [mono(2, 1, (1, 0), 1), mono(2, 1, (0, 1), 1)])
    assert (p.c, p.B[0].is_zero(), p.B[1].is_zero(), p.v[0]) == (1, True, True, (Fraction(1),))
    z = module_from_generators(2, 2, [unit(2, 2, 1), unit(2, 2, 2)])
    assert z.c == 0


def test_module_from_generators_infinite_quotient():
    with pytest.raises(QuotientError):
        module_from_generators(2, 1, [mono(2, 1, (2, 0), 1)], degree_cap=6)


def test_module_from_generators_cap_reports_profile():
    with pytest.raises(QuotientError) as info:
        module_from_generators(1, 1, [mono(1, 1, (5,), 1)], degree_cap=3)
    assert info.value.dimension_profile == (1, 2, 3, 4)


def test_module_outputs_pass_flags():
    x = module_from_generators(2, 1, [mono(2, 1, (2, 0), 1), mono(2, 1, (0, 1), 1)])
    assert is_adhm(x) and is_stable(x)


def test_module_spurious_plateau_is_rejected():
    # (z^3 - z^2, z^9) = (z^2): the early plateau at dimension 3 must not be
    # frozen, because the degree-9 generator does not vanish in it
    p = PolyVector(1, 1, {((3,), 1): Fraction(1), ((2,), 1): Fraction(-1)})
    high = mono(1, 1, (9,), 1)
    x = module_from_generators(1, 1, [p, high])
    assert x.c == 2
    assert x.B[0].entry(1, 0) == 1 and x.B[0].power(2).is_zero()
    zero = (Fraction(0),) * 2
    assert phi_apply(x, p) == zero and phi_apply(x, high) == zero
    with pytest.raises(QuotientError):
        module_from_generators(1, 1, [p, high], degree_cap=5)


def test_certified_rejects_noncommuting_datum(noncommuting_pair):
    b0, b1 = noncommuting_pair
    x = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    # stable, and z_0 and z_1^2 both kill v: only the commutator check can fail
    assert is_stable(x) and not is_adhm(x)
    assert b0.apply(x.v[0]) == b1.apply(b1.apply(x.v[0])) == (Fraction(0),) * 2
    assert not _certified(x, [mono(2, 1, (1, 0), 1), mono(2, 1, (0, 2), 1)])


def test_certified_rejects_surviving_generator():
    x = module_from_generators(1, 1, [mono(1, 1, (2,), 1)])
    assert x.c == 2 and _certified(x, [mono(1, 1, (2,), 1)])
    assert not _certified(x, [mono(1, 1, (2,), 1), mono(1, 1, (1,), 1)])
    assert not _certified(x, [mono(1, 1, (3,), 1), mono(1, 1, (0,), 1, 5)])


def test_hilbert_profile_examples():
    from adhmquot.punctual import basepoint

    assert hilbert_profile(basepoint(2, 3)) == (3,)
    c = 4
    xj = module_from_generators(1, 1, [mono(1, 1, (c,), 1)])
    assert hilbert_profile(xj) == (1, 2, 3, 4)
    unstable = datum(2, 2, 1, [[[0, 0], [0, 0]]] * 2, [(1, 0)])
    profile = hilbert_profile(unstable)
    assert profile[-1] == 1 < unstable.c


@pytest.mark.parametrize("seed", range(4))
def test_kernel_basis_is_filtration_adapted(seed):
    # elements of degree <= e must span the whole degree-<= e part of the
    # kernel, i.e. count exactly (columns at degree e) - (profile value at e)
    x = random_datum(2, 3, 2, seed=60 + seed, stable=True)
    d = x.c
    basis = kernel_basis_up_to_degree(x, d)
    profile = hilbert_profile(x)
    for e in range(d + 1):
        n_cols = len(monomials_upto(x.n, e)) * x.r
        spanned = profile[min(e, len(profile) - 1)]
        expected = n_cols - spanned
        got = sum(1 for p in basis if p.degree() <= e)
        assert got == expected


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_recovers_datum(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    c = rng.choice([1, 2, 3])
    r = rng.choice([1, 2, 3])
    x = random_datum(n, c, r, seed=1000 + seed, stable=True)
    gens = kernel_basis_up_to_degree(x, c)
    y = module_from_generators(n, r, gens, degree_cap=c + 2)
    assert y.c == x.c
    assert equivalence(x, y) is not None
