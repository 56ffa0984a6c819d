from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhmquot import adhm, monad
from adhmquot.adhm import AdhmDatum, is_stable, random_datum
from adhmquot.exactalg import GF, QQ, Matrix, ShapeError, _linear_combination, rank
from adhmquot.monad import (
    LinearForm,
    LinearFormMatrix,
    alpha0,
    alpha_minus1,
    alpha_minus2_p3,
    compose,
    evaluate,
    fiber_report,
    rank_sample_report,
    sample_points,
    surjectivity_certificate,
)
from adhmquot.punctual import support
from adhmquot.quotmod import NonCommutingError

from helpers import datum, mat


def form(*coeffs):
    return LinearForm(tuple(Fraction(c) for c in coeffs))


def test_alpha0_point_datum():
    x = datum(2, 1, 1, [[[0]], [[0]]], [(1,)])
    a0 = alpha0(x)
    assert (a0.rows, a0.cols) == (1, 3)
    assert a0.entry(0, 0) == form(-1, 0, 0)
    assert a0.entry(0, 1) == form(0, -1, 0)
    assert a0.entry(0, 2) == form(0, 0, 1)


@pytest.mark.parametrize(
    "n,c,r",
    [(2, 1, 1), (3, 2, 2), (4, 3, 1), (2, 5, 3), (1, 2, 1), (3, 0, 2)],
)
def test_shape_identities(n, c, r):
    x = random_datum(n, c, r, seed=n * 100 + c * 10 + r)
    a0 = alpha0(x)
    am1 = alpha_minus1(x)
    assert (a0.rows, a0.cols) == (c, n * c + r)
    assert (am1.rows, am1.cols) == (n * c + r, c * math.comb(n, 2))
    if n == 3:
        am2 = alpha_minus2_p3(x)
        assert (am2.rows, am2.cols) == (3 * c, c)


def test_alpha_minus2_requires_n3():
    x = random_datum(2, 2, 1, seed=3)
    with pytest.raises(ShapeError):
        alpha_minus2_p3(x)


def test_alpha_minus1_n2_column():
    x = datum(2, 1, 1, [[[0]], [[0]]], [(1,)])
    am1 = alpha_minus1(x)
    assert (am1.rows, am1.cols) == (3, 1)
    assert am1.entry(0, 0) == form(0, -1, 0)   # B_1 z_2 - z_1 at B = 0
    assert am1.entry(1, 0) == form(1, 0, 0)    # -B_0 z_2 + z_0
    assert am1.entry(2, 0).is_zero()           # framing row


def test_alpha_minus1_n3_blocks_match_print():
    # c = 1 makes each block a single form; the printed n = 3 blocks are
    # A_0 = [[B1 z3 - z1, B2 z3 - z2], [-B0 z3 + z0, 0], [0, -B0 z3 + z0]]
    # and A_1 = [[0], [B2 z3 - z2], [-B1 z3 + z1]].
    x = datum(3, 1, 1, [[[2]], [[3]], [[5]]], [(1,)])
    am1 = alpha_minus1(x)
    assert (am1.rows, am1.cols) == (4, 3)
    assert am1.entry(0, 0) == form(0, -1, 0, 3)
    assert am1.entry(0, 1) == form(0, 0, -1, 5)
    assert am1.entry(1, 0) == form(1, 0, 0, -2)
    assert am1.entry(1, 1).is_zero()
    assert am1.entry(2, 0).is_zero()
    assert am1.entry(2, 1) == form(1, 0, 0, -2)
    assert am1.entry(0, 2).is_zero()
    assert am1.entry(1, 2) == form(0, 0, -1, 5)
    assert am1.entry(2, 2) == form(0, 1, 0, -3)
    assert all(am1.entry(3, j).is_zero() for j in range(3))


def test_alpha_minus2_column():
    x = datum(3, 1, 1, [[[0]], [[0]], [[0]]], [(1,)])
    am2 = alpha_minus2_p3(x)
    assert am2.entry(0, 0) == form(0, 0, 1, 0)
    assert am2.entry(1, 0) == form(0, -1, 0, 0)
    assert am2.entry(2, 0) == form(1, 0, 0, 0)


def test_compose_zero_factor():
    x = random_datum(2, 2, 1, seed=5)
    a0 = alpha0(x)
    zero_factor = LinearFormMatrix(QQ, a0.cols, 4, (Matrix.zero(QQ, a0.cols, 4),) * 3)
    assert compose(a0, zero_factor).is_zero()


def _dense(m: LinearFormMatrix, k: int) -> Matrix:
    """The coefficient matrix of z_k, read through the entry() views."""
    return Matrix(m.field, m.rows, m.cols, tuple(
        m.entry(i, j).coeffs[k] for i in range(m.rows) for j in range(m.cols)
    ))


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([QQ, GF(32003)]),
    n=st.integers(1, 4),
    c=st.integers(1, 3),
    r=st.integers(1, 2),
    seed=st.integers(0, 10**6),
    perturb=st.lists(st.integers(-2, 2), min_size=9, max_size=9),
)
def test_compose_matches_dense_products(field, n, c, r, seed, perturb):
    x = random_datum(n, c, r, seed=seed, field=field)
    # adding a random matrix to B_0 usually breaks commuting
    bump = Matrix(field, c, c, tuple(field.coerce(e) for e in perturb[: c * c]))
    y = AdhmDatum(n, c, r, (x.B[0] + bump,) + x.B[1:], x.v)
    for d in (x, y):
        pairs = [(alpha0(d), alpha_minus1(d))]
        if n == 3:
            pairs.append((alpha_minus1(d), alpha_minus2_p3(d)))
        for a, b in pairs:
            prod = compose(a, b)
            all_zero = True
            for k in range(n + 1):
                for l in range(k, n + 1):
                    expected = _dense(a, k) @ _dense(b, l)
                    if l != k:
                        expected = expected + _dense(a, l) @ _dense(b, k)
                    all_zero = all_zero and expected.is_zero()
                    assert prod.coefficient_matrix(k, l) == expected
                    assert prod.coefficient_matrix(l, k) == expected
            assert prod.is_zero() == all_zero
    assert compose(alpha0(x), alpha_minus1(x)).is_zero()


def _rational_datum(field, n, c, r, rng) -> AdhmDatum:
    """A datum, commuting or not, with entries over mixed denominators in QQ
    and spread residues in GF(p)."""

    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))
        return field.coerce(rng.choice((0, 1, -1, rng.randrange(field.p))))

    bs = tuple(Matrix(field, c, c, tuple(scalar() for _ in range(c * c))) for _ in range(n))
    return AdhmDatum(n, c, r, bs, tuple(tuple(scalar() for _ in range(c)) for _ in range(r)))


def _composed_by_definition(a: LinearFormMatrix, b: LinearFormMatrix) -> dict:
    """The nonzero C_kk = A_k @ B_k and C_kl = A_k @ B_l + A_l @ B_k (k < l)."""
    out = {}
    for k in range(a.var_count):
        for l in range(k, a.var_count):
            c = a.coeffs[k] @ b.coeffs[l]
            if l != k:
                c = c + a.coeffs[l] @ b.coeffs[k]
            if not c.is_zero():
                out[(k, l)] = c
    return out


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_and_evaluate_match_their_definitions(field, n):
    rng = random.Random(1300 + n)
    for c, r in ((1, 1), (2, 3), (3, 2)):
        x = _rational_datum(field, n, c, r, rng)
        pairs = [(alpha0(x), alpha_minus1(x))]
        if n == 3:
            pairs.append((alpha_minus1(x), alpha_minus2_p3(x)))
        for a, b in pairs:
            got = compose(a, b)
            assert (got.field, got.rows, got.cols) == (field, a.rows, b.cols)
            assert got.coeffs == _composed_by_definition(a, b)
            assert list(got.coeffs) == list(_composed_by_definition(a, b))
        maps = [alpha0(x), alpha_minus1(x)] + ([alpha_minus2_p3(x)] if n == 3 else [])
        for m in maps:
            for _ in range(4):
                raw = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n + 1)]
                if not any(raw):
                    raw[-1] = Fraction(1)
                pt = tuple(field.coerce(z.numerator) / field.coerce(z.denominator) for z in raw)
                assert evaluate(m, pt) == _linear_combination(m.coeffs, pt)


def test_compose_drops_a_coefficient_that_vanishes_mod_p():
    field = GF(7)
    one, minus_one = Matrix.identity(field, 2), Matrix.identity(field, 2).scale(field.coerce(-1))
    a = LinearFormMatrix(field, 2, 2, (one, one))
    b = LinearFormMatrix(field, 2, 2, (one, minus_one))
    # C_01 = 1 * (-1) + 1 * 1 sums to 7 on the residues 1 and 6: zero mod 7
    got = compose(a, b)
    assert got.coeffs == {(0, 0): one, (1, 1): minus_one}
    assert got.coeffs == _composed_by_definition(a, b)
    assert got.coefficient_matrix(1, 0) == Matrix.zero(field, 2, 2)


def test_evaluate_rejects_a_wrong_arity_and_the_zero_point():
    x = _rational_datum(QQ, 2, 2, 1, random.Random(5))
    a0 = alpha0(x)
    with pytest.raises(ShapeError):
        evaluate(a0, (1, 2))
    with pytest.raises(ShapeError):
        evaluate(a0, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        evaluate(a0, (0, Fraction(0), 0))
    with pytest.raises(ValueError):
        evaluate(alpha0(random_datum(2, 2, 1, seed=3, field=GF(5))), (5, 10, 0))


@pytest.mark.parametrize("seed", range(6))
def test_compose_vanishes_iff_commuting(seed, noncommuting_pair):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    c = rng.choice([1, 2, 3])
    x = random_datum(n, c, rng.choice([1, 2]), seed=400 + seed)
    assert compose(alpha0(x), alpha_minus1(x)).is_zero()
    b0, b1 = noncommuting_pair
    y = AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),))
    prod = compose(alpha0(y), alpha_minus1(y))
    assert not prod.is_zero()
    # the z_n^2 coefficient of the single block column is the commutator
    zz = prod.coefficient_matrix(2, 2)
    assert zz == mat([[1, 0], [0, -1]])


@pytest.mark.parametrize("seed", range(4))
def test_depth_two_composition_vanishes(seed):
    x = random_datum(3, 3, 2, seed=500 + seed)
    assert compose(alpha_minus1(x), alpha_minus2_p3(x)).is_zero()


def test_evaluate_at_unit_infinity_point():
    x = random_datum(2, 2, 2, seed=6)
    a0 = alpha0(x)
    at_en = evaluate(a0, (0, 0, 1))
    expected = Matrix.from_rows(QQ, [
        [a for b in x.B for a in b.row_tuple(i)] + [v[i] for v in x.v] for i in range(x.c)
    ])
    assert at_en == expected
    at_inf = evaluate(a0, (1, -2, 0))
    assert rank(at_inf) == x.c


def test_evaluate_homogeneous():
    x = random_datum(3, 2, 1, seed=7)
    a0 = alpha0(x)
    pt = (1, 2, 3, 1)
    lam = Fraction(5)
    scaled = tuple(lam * Fraction(z) for z in pt)
    assert evaluate(a0, scaled) == evaluate(a0, pt).scale(lam)


def test_evaluate_rejects_zero_point():
    x = random_datum(2, 1, 1, seed=8)
    with pytest.raises(ValueError):
        evaluate(alpha0(x), (0, 0, 0))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_evaluate_matches_entrywise_forms(field):
    x = random_datum(3, 3, 2, seed=11, field=field)
    points = [
        (2, -1, 3, 1),  # affine chart
        (Fraction(1, 2), 0, -4, 1),  # affine, zero coordinate
        (0, 0, 0, 1),  # origin
        (1, -2, 0, 0),  # at infinity
        (0, 0, 5, 0),  # at infinity, one nonzero coordinate
        (3, 1, 2, 7),  # a chart point not scaled to z_3 = 1
    ]
    for build in (alpha0, alpha_minus1, alpha_minus2_p3):
        m = build(x)
        for raw in points:
            pt = tuple(
                field.coerce(Fraction(z).numerator) / field.coerce(Fraction(z).denominator)
                for z in raw
            )
            expected = tuple(
                m.entry(i, j).evaluate(pt) for i in range(m.rows) for j in range(m.cols)
            )
            assert evaluate(m, pt) == Matrix(field, m.rows, m.cols, expected)
        with pytest.raises(ValueError):
            evaluate(m, (0, 0, 0, 0))


def test_certificate_stable():
    x = random_datum(3, 3, 2, seed=9, stable=True)
    cert = surjectivity_certificate(x)
    assert cert.surjective
    for pt in sample_points(x, 16, seed=1):
        assert rank(evaluate(alpha0(x), pt)) == x.c


def test_certificate_witness(jordan2):
    x = AdhmDatum(1, 2, 1, (jordan2,), ((1, 0),))
    cert = surjectivity_certificate(x)
    assert not cert.surjective and cert.witness_available
    assert cert.witness_covector == (Fraction(0), Fraction(1))
    assert cert.witness_point == (Fraction(0), Fraction(1))
    at_witness = evaluate(alpha0(x), cert.witness_point)
    w = cert.witness_covector
    for col in range(at_witness.cols):
        assert sum((w[a] * at_witness.entry(a, col) for a in range(2)), Fraction(0)) == 0
    assert rank(at_witness) < x.c


def test_certificate_c0_vacuous():
    x = AdhmDatum(2, 0, 1, (Matrix.zero(QQ, 0, 0),) * 2, ((),))
    assert surjectivity_certificate(x).surjective


def test_certificate_irrational_witness():
    rot = mat([[0, -1], [1, 0]])
    x = AdhmDatum(1, 2, 1, (rot,), ((0, 0),))
    cert = surjectivity_certificate(x)
    assert not cert.surjective
    assert cert.witness_available is False


def test_certificate_witness_never_factors(monkeypatch):
    # B is the companion matrix of (z - 1)(z^4 + z + 1) and v = 0: the witness
    # needs only the rational eigenvalue 1, and only support factors the quartic
    from sympy.polys import factortools

    def refuse(*args):
        raise RuntimeError("dup_factor_list called")

    monkeypatch.setattr(factortools, "dup_factor_list", refuse)
    low_first = (-1, 0, 1, 0, -1)  # z^5 - z^4 + z^2 - 1 without its leading 1
    companion = [[int(i == j + 1) for j in range(4)] + [-low_first[i]] for i in range(5)]
    x = datum(1, 5, 1, [companion], [(0,) * 5])
    cert = surjectivity_certificate(x)
    assert cert.witness_available and cert.witness_point == (Fraction(1), Fraction(1))
    assert rank(evaluate(alpha0(x), cert.witness_point)) < x.c
    with pytest.raises(RuntimeError, match="dup_factor_list called"):
        support(x)


def test_certificate_rejects_noncommuting(noncommuting_pair):
    b0, b1 = noncommuting_pair
    with pytest.raises(NonCommutingError):
        surjectivity_certificate(AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),)))


def test_fiber_report_euler_and_middle():
    x = datum(
        3, 2, 1,
        [[[1, 0], [0, 2]], [[3, 0], [0, 5]], [[-1, 0], [0, 4]]],
        [(1, 1)],
    )
    assert is_stable(x)
    generic = fiber_report(x, (7, 11, -2, 1))
    assert generic.euler == x.r
    assert generic.middle_dim == x.r
    sup = support(x)
    pt = tuple(sup.points[0][0]) + (Fraction(1),)
    at_support = fiber_report(x, pt)
    assert at_support.euler == x.r
    assert at_support.middle_dim > x.r


def test_fiber_report_n2_pair_only():
    x = datum(2, 2, 1, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]], [(1, 1)])
    rep = fiber_report(x, (9, -5, 1))
    assert rep.euler is None
    assert rep.term_dims == (2, 5, 2)  # c*binom(2,2), nc+r, c
    assert rep.middle_dim == x.r
    assert "alpha_minus2" not in rep.ranks


def test_rank_sample_report_includes_support():
    x = datum(2, 2, 1, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]], [(1, 1)])
    report = rank_sample_report(x, samples=8, seed=0)
    assert report["support_complete"]
    assert any(row["support_point"] for row in report["samples"])
    assert report["all_full_rank"]


def test_certificate_computes_the_krylov_closure_once(monkeypatch, jordan2):
    calls = []
    original = adhm.krylov_closure

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(adhm, "krylov_closure", counting)
    monkeypatch.setattr(monad, "krylov_closure", counting)
    rot = mat([[0, -1], [1, 0]])
    cases = [
        (random_datum(3, 3, 2, seed=9, stable=True), True),
        (AdhmDatum(1, 2, 1, (jordan2,), ((1, 0),)), False),
        (AdhmDatum(1, 2, 1, (rot,), ((0, 0),)), False),
        (random_datum(2, 3, 1, seed=5, stable=False), False),
    ]
    for x, surjective in cases:
        calls.clear()
        assert surjectivity_certificate(x).surjective is surjective
        assert calls == [x]
