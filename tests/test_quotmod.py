from __future__ import annotations

import math
import random
from fractions import Fraction

from unittest import mock

import pytest

from adhmquot import quotmod
from adhmquot.adhm import AdhmDatum, equivalence, is_adhm, is_stable, random_datum
from adhmquot.exactalg import GF, QQ, FieldMismatchError, GFElement, Matrix, kernel_basis
from adhmquot.quotmod import (
    NonCommutingError,
    PolyVector,
    QuotientError,
    _certified,
    _lifted_generators,
    hilbert_profile,
    kernel_basis_up_to_degree,
    module_from_generators,
    monomials_of_degree,
    monomials_upto,
    phi_apply,
)

from helpers import datum, shifted


def unit(n, r, j):
    return PolyVector.unit(n, r, j)


def mono(n, r, alpha, j, coeff=1):
    return PolyVector.monomial(n, r, alpha, j, Fraction(coeff))


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_upto(2, 1) == [(0, 0), (1, 0), (0, 1)]
    for n, d in [(1, 5), (2, 4), (3, 3)]:
        assert len(monomials_upto(n, d)) == math.comb(n + d, n)


def test_cached_monomial_lists_are_fresh():
    first = monomials_of_degree(2, 3)
    first[0] = (9, 9)
    first.append((0, 0))
    assert monomials_of_degree(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert monomials_of_degree(2, 3) is not monomials_of_degree(2, 3)
    columns = quotmod._columns(1, 2, 1)
    columns.clear()
    assert quotmod._columns(1, 2, 1) == [((1,), 1), ((1,), 2), ((0,), 1), ((0,), 2)]


def test_polyvector_drops_zero_terms():
    p = PolyVector(2, 1, {((1, 0), 1): Fraction(0), ((0, 1), 1): Fraction(2)})
    assert len(p.terms) == 1
    assert p.degree() == 1


def test_vectors_from_fractions_and_from_ints_are_equal():
    ints = PolyVector(2, 1, {((1, 0), 1): 2, ((0, 0), 1): -3})
    fractions = PolyVector(2, 1, {((1, 0), 1): Fraction(4, 2), ((0, 0), 1): Fraction(-3)})
    assert ints == fractions and ints._view == fractions._view
    assert ints.terms == {((1, 0), 1): 2, ((0, 0), 1): -3}  # as given
    # the order of the terms takes no part in ==, a coefficient does
    assert PolyVector(2, 1, {((0, 0), 1): Fraction(-3), ((1, 0), 1): 2}) == ints
    assert ints != PolyVector(2, 1, {((1, 0), 1): 2, ((0, 0), 1): Fraction(-3, 2)})
    # mixed denominators share their lcm, as the int constructor divides its gcd out
    mixed = PolyVector(1, 1, {((1,), 1): Fraction(1, 2), ((0,), 1): Fraction(-1, 3)})
    assert mixed._view == (QQ, [(((1,), 1), 3), (((0,), 1), -2)], 6)
    built = PolyVector._of_ints(1, 1, QQ, [(((1,), 1), 12), (((0,), 1), -8)], 24, 1)
    assert built == mixed and built._view == mixed._view and built.degree() == 1
    assert list(built.terms.items()) == list(mixed.terms.items())
    # residues over GF(p); the zero vector is over QQ whatever its field
    field = GF(5)
    assert PolyVector(1, 1, {((1,), 1): field.coerce(7)})._view == (field, [(((1,), 1), 2)], 1)
    assert PolyVector._of_ints(1, 1, field, [], 1, -1) == PolyVector(1, 1, {((0,), 1): field.zero()})


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
        moved = shifted(p, tuple(1 if k == i else 0 for k in range(2)))
        assert phi_apply(x, moved) == x.B[i].apply(phi_apply(x, p))


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


@pytest.mark.parametrize("second, message", [
    # z - 4 over GF(5) has the residues of z + 1, which GF(3) would read as z + 1
    ({((1,), 1): GF(5).one(), ((0,), 1): GF(5).coerce(-4)}, "residue mod 5 used in GF(3)"),
    ({((1,), 1): Fraction(1, 2)}, "cannot coerce Fraction(1, 2) into GF(3)"),
], ids=["GF(5)", "rational"])
def test_module_from_generators_refuses_coefficients_of_another_field(second, message):
    gens = [PolyVector(1, 1, {((2,), 1): GF(3).one()}), PolyVector(1, 1, second)]
    with pytest.raises(FieldMismatchError) as refused:
        module_from_generators(1, 1, gens)
    assert str(refused.value) == message


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


def test_generation_is_read_off_the_table_and_is_stable_decides_the_rest():
    # (z_0^3, z_1^3): the socle z_0^2 z_1^2 has degree 4, above both generators,
    # so the table up to degree 3 holds no unit vector for it
    cubes = [mono(2, 1, (3, 0), 1), mono(2, 1, (0, 3), 1)]
    with mock.patch("adhmquot.quotmod.is_stable", wraps=is_stable) as stable:
        x = module_from_generators(2, 1, cubes)
    assert x.c == 9 and stable.call_count == 1
    for degree, decided in [(3, False), (4, True)]:
        rows, d = quotmod._monomial_vector_table(x, degree)
        assert quotmod._units_generate(rows, d, x.c) is decided
    # every unit vector is a table entry below the generators' degree: no Krylov walk
    with mock.patch("adhmquot.quotmod.is_stable", wraps=is_stable) as stable:
        for field in (QQ, GF(3), GF(32003)):
            y = random_datum(2, 3, 2, seed=4, stable=True, field=field)
            gens = kernel_basis_up_to_degree(y, y.c)
            assert equivalence(y, module_from_generators(2, 2, gens)) is not None
        module_from_generators(1, 1, [mono(1, 1, (4,), 1)])
    assert stable.call_count == 0
    # an unstable datum whose generators vanish: the scan cannot decide, the walk refuses
    unstable = datum(1, 2, 1, [[[0, 0], [0, 0]]], [(1, 0)])
    lifted = _lifted_generators(QQ, [mono(1, 1, (1,), 1)])
    with mock.patch("adhmquot.quotmod.is_stable", wraps=is_stable) as stable:
        assert not _certified(unstable, lifted)
    assert stable.call_count == 1


def test_module_freezes_below_the_first_degree_gap():
    # k[z]^2 / (z^2 e_1, 2 e_2 - 3 z e_1): z^d e_2 survives every truncation
    # at degree d, yet degree 1 has no standard monomial from d = 2 on
    gens = [mono(1, 2, (2,), 1), PolyVector(1, 2, {((0,), 2): Fraction(2), ((1,), 1): Fraction(-3)})]
    x = module_from_generators(1, 2, gens)
    assert (x.c, x.v) == (2, ((1, 0), (0, 1)))  # the basis e_1, e_2
    assert x.B[0] == Matrix(QQ, 2, 2, (0, 0, Fraction(2, 3), 0))  # z e_1 = (2/3) e_2
    assert _certified(x, _lifted_generators(QQ, gens))


def test_module_freezes_a_gap_at_degree_zero():
    # over GF(2), (z_1, z_1 + 1) contains 1: the quotient is zero, though
    # z_0^d survives every truncation
    one = GF(2).one()
    gens = [PolyVector(2, 1, {((0, 1), 1): one}),
            PolyVector(2, 1, {((0, 1), 1): one, ((0, 0), 1): one})]
    x = module_from_generators(2, 1, gens)
    assert (x.c, x.field) == (0, GF(2))


def test_module_freezes_presentations_with_a_surviving_slot():
    # (f(z) e_1, a e_2 - g(z) e_1) with deg g >= 1 is k[z]/(f): e_2 = g e_1 / a
    rng = random.Random(0)

    def nonzero():
        return rng.choice([1, -1]) * rng.randint(1, 3)

    def poly(deg):  # slot-1 terms of a polynomial of degree deg
        coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [nonzero()]
        return {((k,), 1): Fraction(a) for k, a in enumerate(coeffs)}

    for _ in range(100):
        deg_f = rng.randint(1, 3)
        f, g = poly(deg_f), poly(rng.randint(1, 2))
        gens = [PolyVector(1, 2, f),
                PolyVector(1, 2, {((0,), 2): Fraction(nonzero()), **{t: -b for t, b in g.items()}})]
        x = module_from_generators(1, 2, gens)
        assert x.c == deg_f
        assert _certified(x, _lifted_generators(QQ, gens))


def test_certified_rejects_noncommuting_datum(noncommuting_pair):
    b0, b1 = noncommuting_pair
    x = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    # stable, and z_0 and z_1^2 both kill v: only the commutator check can fail
    assert is_stable(x) and not is_adhm(x)
    assert b0.apply(x.v[0]) == b1.apply(b1.apply(x.v[0])) == (Fraction(0),) * 2
    gens = [mono(2, 1, (1, 0), 1), mono(2, 1, (0, 2), 1)]
    assert not _certified(x, _lifted_generators(QQ, gens))


def test_certified_rejects_surviving_generator():
    x = module_from_generators(1, 1, [mono(1, 1, (2,), 1)])
    assert x.c == 2 and _certified(x, _lifted_generators(QQ, [mono(1, 1, (2,), 1)]))
    assert not _certified(x, _lifted_generators(QQ, [mono(1, 1, (2,), 1), mono(1, 1, (1,), 1)]))
    assert not _certified(x, _lifted_generators(QQ, [mono(1, 1, (3,), 1), mono(1, 1, (0,), 1, 5)]))


def test_certified_reads_images_mod_p():
    # over GF(2) the int image of z + 1 is B v + v = 2, which vanishes mod 2
    field = GF(2)
    one = field.one()
    x = AdhmDatum(1, 1, 1, (Matrix(field, 1, 1, (one,)),), ((one,),))
    g = PolyVector(1, 1, {((1,), 1): one, ((0,), 1): one})
    assert phi_apply(x, g) == (field.zero(),)
    assert _certified(x, _lifted_generators(field, [g]))
    assert module_from_generators(1, 1, [g]) == x


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
def test_kernel_presentation_makes_scalars_only_for_its_terms(field):
    x = random_datum(3, 3, 2, seed=3, stable=True, field=field)
    kernels = []

    def kept(m):
        kernels.append(kernel_basis(m))
        return kernels[-1]

    with mock.patch("adhmquot.quotmod._scalars", wraps=quotmod._scalars) as made, \
            mock.patch("adhmquot.quotmod.kernel_basis", side_effect=kept):
        gens = kernel_basis_up_to_degree(x, x.c)
        # no scalar at all until terms is read, none for the kernel basis itself
        assert made.call_count == 0
        assert len(kernels) == 1 and "entries" not in vars(kernels[0].basis)
        terms = [g.terms for g in gens]
    # then one scalar per nonzero coordinate
    assert sum(len(call.args[1]) for call in made.call_args_list) == sum(map(len, terms))
    scalar = Fraction if field == QQ else GFElement
    for g in gens:
        public = PolyVector(g.n, g.r, g.terms)
        assert g == public and list(g.terms.items()) == list(public.terms.items())
        assert all(type(a) is scalar and a for a in g.terms.values())
        assert all(type(e) is int for alpha, _ in g.terms for e in alpha)


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
