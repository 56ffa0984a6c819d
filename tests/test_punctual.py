from __future__ import annotations

import random
from fractions import Fraction

import pytest

from adhmquot.adhm import (
    AdhmDatum,
    equivalence,
    is_adhm,
    is_stable,
    random_datum,
)
from adhmquot import adhm, punctual
from adhmquot.exactalg import GF, QQ, Matrix, char_poly, rational_factorization, rational_roots
from adhmquot.punctual import (
    FactorReport,
    PathConstructionError,
    _factor_reports,
    _poly_str,
    basepoint,
    homotopy_path,
    is_nilpotent_tuple,
    path_permutation,
    reindex_vectors,
    support,
    verify_path,
)
from adhmquot.quotmod import NonCommutingError

from helpers import datum, mat, poly_mul


def test_nilpotency_examples(jordan2):
    assert is_nilpotent_tuple(datum(2, 2, 1, [[[0, 0], [0, 0]]] * 2, [(1, 0)]))
    assert is_nilpotent_tuple(AdhmDatum(1, 2, 1, (jordan2,), ((0, 1),)))
    assert not is_nilpotent_tuple(datum(1, 2, 1, [[[1, 0], [0, 0]]], [(1, 1)]))


def test_support_nilpotent_origin():
    x = random_datum(2, 3, 1, seed=1, nilpotent=True)
    report = support(x)
    assert report.complete
    assert report.points == (((Fraction(0), Fraction(0)), 3),)


def test_support_diagonal():
    x = datum(2, 2, 1, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]], [(1, 1)])
    report = support(x)
    assert report.complete
    assert report.points == (
        ((Fraction(1), Fraction(3)), 1),
        ((Fraction(2), Fraction(4)), 1),
    )


def test_support_irrational_factor():
    x = datum(1, 2, 1, [[[0, -1], [1, 0]]], [(1, 0)])
    report = support(x)
    assert not report.complete
    assert report.points == ()
    (factor,) = report.factorizations
    assert factor.axis == 0
    assert factor.polynomial.replace(" ", "") == "z**2+1"


def test_support_mixed_rational_part():
    # B0 block-diagonal: eigenvalue 2 plus a rotation block
    b0 = mat([[2, 0, 0], [0, 0, -1], [0, 1, 0]])
    x = AdhmDatum(1, 3, 1, (b0,), ((1, 1, 0),))
    report = support(x)
    assert not report.complete
    assert report.points == (((Fraction(2),), 1),)
    assert report.total_multiplicity() == 1


def _reference_irreducible_factors(axis, coeffs):
    """The earlier path: refactor the root-free remainder over QQ with sympy."""
    import sympy

    z = sympy.Symbol("z")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * z**k for k, c in enumerate(coeffs))
    _, factors = sympy.Poly(poly, z).factor_list()
    return [
        FactorReport(axis=axis, polynomial=str(factor.as_expr()), multiplicity=mult)
        for factor, mult in factors
    ]


def _reference_reports(axis, coeffs):
    _, remainder = rational_roots(coeffs)
    return _reference_irreducible_factors(axis, remainder) if len(remainder) > 1 else []


def _product(content, *factors):
    poly = [Fraction(content)]
    for f in factors:
        poly = poly_mul(poly, [Fraction(c) for c in f])
    return poly


FACTOR_PIECES = (
    (1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, 0, 2), (-1, -1, 0, 1), (5, 0, -3),
    (7, 0, 0, 0, 1), (1, 2, 0, 5), (2, 1), (-3, 2), (0, 1), (1, -1),
)


@pytest.mark.parametrize("poly", [
    _product(Fraction(1, 2), (1, 0, 1), (-3, 1)),  # rational content, mixed
    _product(Fraction(-3, 7), (5, 0, -3), (1, 2, 0, 5)),  # content, two non-linear
    _product(1, (-2, 0, 1), (-2, 0, 1), (1, 1, 1)),  # repeated irreducible factor
    _product(Fraction(2, 5), (1, 2), (1, 2), (3, 0, 0, 2), (3, 0, 0, 2), (0, 1)),
    _product(1, (1, -1), (2, 1)),  # splits: no factors
    _product(4, (7, 0, 0, 0, 1)),
], ids=["content-mixed", "content-two", "repeated", "repeated-mixed", "split", "quartic"])
def test_factor_reports_match_refactoring(poly):
    _, _, irreducible = rational_factorization(poly)
    assert _factor_reports(1, irreducible) == _reference_reports(1, poly)


def test_factor_reports_match_refactoring_random():
    rng = random.Random(31)
    for _ in range(150):
        poly = [Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3, 5, 7)))]
        for _ in range(rng.randint(1, 5)):
            poly = poly_mul(poly, [Fraction(c) for c in rng.choice(FACTOR_PIECES)])
        _, _, irreducible = rational_factorization(poly)
        assert _factor_reports(0, irreducible) == _reference_reports(0, poly)


def test_poly_str_matches_sympy_on_random_irreducible_factors():
    import sympy

    z = sympy.Symbol("z")
    rng = random.Random(57)
    checked = 0
    while checked < 240:
        degree = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, -1, 2, -5, 12))]
        _, factors = sympy.Poly.from_list(coeffs[::-1], z, domain=sympy.ZZ).factor_list()
        for factor, _ in factors:
            if factor.degree() < 2:
                continue
            ints = tuple(int(c) for c in reversed(factor.all_coeffs()))
            assert _poly_str(ints) == str(factor.as_expr())
            checked += 1


def test_support_factorizations_match_refactoring():
    # B_0 is the companion matrix of (z^2 - 2)^2 (z^2 + z + 1) (z - 1)
    poly = _product(1, (-2, 0, 1), (-2, 0, 1), (1, 1, 1), (-1, 1))
    c = len(poly) - 1
    rows = [[0] * c for _ in range(c)]
    for i in range(1, c):
        rows[i][i - 1] = 1
    for i in range(c):
        rows[i][c - 1] = -poly[i]
    b0 = mat(rows)
    assert char_poly(b0) == tuple(poly)
    x = AdhmDatum(1, c, 1, (b0,), (tuple([1] + [0] * (c - 1)),))
    report = support(x)
    assert report.points == (((Fraction(1),), 1),)
    assert list(report.factorizations) == _reference_reports(0, poly)
    assert [f.multiplicity for f in report.factorizations] == [1, 2]


def test_support_joint_multiplicity():
    # B_0 has a repeated eigenvalue whose eigenspace B_1 does not split further
    b0 = mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    b1 = mat([[3, 1, 0], [0, 3, 0], [0, 0, 4]])
    x = AdhmDatum(2, 3, 1, (b0, b1), ((1, 1, 1),))
    report = support(x)
    assert report.complete
    assert report.points == (
        ((Fraction(1), Fraction(3)), 2),
        ((Fraction(2), Fraction(4)), 1),
    )


def test_support_rejects_noncommuting(noncommuting_pair):
    b0, b1 = noncommuting_pair
    with pytest.raises(NonCommutingError):
        support(AdhmDatum(2, 2, 1, (b0, b1), ((1, 0),)))


def test_support_multiplicities_sum_to_c():
    for seed in range(5):
        x = random_datum(2, 4, 2, seed=seed, nilpotent=True)
        report = support(x)
        assert report.complete and report.total_multiplicity() == 4


def test_basepoint_flags():
    for n in (1, 2, 3):
        for c in (1, 2, 4):
            y = basepoint(n, c)
            assert (y.n, y.c, y.r) == (n, c, c)
            assert is_stable(y) and is_adhm(y) and is_nilpotent_tuple(y)


def test_basepoint_path_is_constant():
    y = basepoint(2, 3)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        pt = homotopy_path(y, t)
        assert pt.v == y.v  # all vectors independent: no interpolation slots
        assert all(b.is_zero() for b in pt.B)


def test_hand_path_example(jordan2):
    # B0 = jordan, B1 = 0, v1 = v2 = e2: k = 1, w1 = B0 v1 = e1
    x = AdhmDatum(2, 2, 2, (jordan2, Matrix.zero(QQ, 2, 2)), ((0, 1), (0, 1)))
    assert is_stable(x)
    half = homotopy_path(x, Fraction(1, 2))
    assert half.B[0] == jordan2.scale(Fraction(1, 2))
    assert half.B[1].is_zero()
    assert half.v[0] == (Fraction(0), Fraction(1))
    assert half.v[1] == (Fraction(1, 2), Fraction(1, 2))


def test_path_endpoints(jordan2):
    x = AdhmDatum(2, 2, 2, (jordan2, Matrix.zero(QQ, 2, 2)), ((0, 1), (0, 1)))
    start = homotopy_path(x, Fraction(0))
    assert all(b.is_zero() for b in start.B)
    assert is_stable(start)
    end = homotopy_path(x, Fraction(1))
    assert end == reindex_vectors(x, path_permutation(x))
    assert equivalence(end, reindex_vectors(x, path_permutation(x))) is not None


def test_path_requires_square_and_stable(jordan2):
    with pytest.raises(PathConstructionError):
        homotopy_path(random_datum(2, 3, 2, seed=2, stable=True), Fraction(1, 2))
    unstable = AdhmDatum(1, 2, 2, (jordan2,), ((1, 0), (2, 0)))
    with pytest.raises(PathConstructionError):
        homotopy_path(unstable, Fraction(1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_path_preserves_commutation_and_nilpotency(seed):
    rng = random.Random(seed)
    n, c = rng.choice([2, 3]), rng.choice([2, 3])
    x = random_datum(n, c, c, seed=30 + seed, stable=True, nilpotent=True)
    for t in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(1)):
        pt = homotopy_path(x, t)
        assert is_adhm(pt)
        assert is_nilpotent_tuple(pt)
        assert is_stable(pt)


def test_verify_path_grid_report():
    x = random_datum(2, 3, 3, seed=40, stable=True, nilpotent=True)
    grid = [Fraction(k, 10) for k in range(11)]
    report = verify_path(x, grid)
    assert len(report.samples) == 11
    assert report.all_flags()
    assert report.endpoint_equivalent


def test_verify_path_non_nilpotent_input():
    x = datum(1, 2, 2, [[[1, 0], [0, 2]]], [(1, 0), (0, 1)])
    assert is_stable(x) and not is_nilpotent_tuple(x)
    report = verify_path(x, [Fraction(0), Fraction(1, 2), Fraction(1)])
    flags = [(s.nilpotent, s.stable, s.commuting) for s in report.samples]
    assert flags[0][0] is True       # t = 0 scales everything to zero
    assert flags[1][0] is False and flags[2][0] is False
    assert all(s.stable and s.commuting for s in report.samples)


def test_experimental_path_small_r():
    # n <= r < c: the same interpolation is attempted; t = 0 cannot be stable
    x = random_datum(2, 3, 2, seed=41, stable=True, nilpotent=True)
    report = verify_path(x, [Fraction(0), Fraction(1, 2), Fraction(1)], experimental=True)
    assert not report.samples[0].stable
    assert report.samples[-1].stable
    assert report.endpoint_equivalent


def test_experimental_path_large_r():
    x = random_datum(2, 2, 4, seed=42, stable=True, nilpotent=True)
    report = verify_path(
        x, [Fraction(k, 8) for k in range(9)], experimental=True
    )
    assert report.all_flags()
    assert report.endpoint_equivalent


def test_path_permutation_orders_selected_first():
    # v1 = 0 is skipped by the greedy scan, so slot 0 moves behind
    x = AdhmDatum(
        1, 2, 2,
        (mat([[0, 1], [0, 0]]),),
        ((0, 0), (0, 1)),
    )
    assert is_stable(x)
    assert path_permutation(x) == (1, 0)


def _reference_verify_path(x, grid, experimental):
    """The earlier loop: every sample and the endpoint through homotopy_path."""
    samples = []
    for t in grid:
        pt = homotopy_path(x, t, experimental=experimental)
        samples.append((x.field.coerce(t), is_stable(pt), is_adhm(pt), is_nilpotent_tuple(pt)))
    permutation = path_permutation(x)
    endpoint = homotopy_path(x, x.field.one(), experimental=experimental)
    equivalent = equivalence(endpoint, reindex_vectors(x, permutation)) is not None
    return samples, equivalent, permutation


# strings, because GF(p) coerces "p/q" but not a Fraction
PATH_REFERENCE_GRID = ("0", "1/3", "1/2", "1", "2", "-1/2")


def _path_cases():
    shapes = [(n, c, c, nilpotent, False)
              for n in (1, 2, 3) for c in (1, 2, 3, 4) for nilpotent in (True, False)]
    shapes += [(n, c, r, True, True)
               for n, c, r in ((1, 3, 1), (2, 4, 2), (2, 3, 2), (2, 2, 4), (3, 1, 3), (1, 3, 5))]
    return [
        pytest.param(field, *shape, id=f"{field}-n{shape[0]}-c{shape[1]}-r{shape[2]}"
                     + ("-nil" if shape[3] else "") + ("-exp" if shape[4] else ""))
        for field in (QQ, GF(32003)) for shape in shapes
    ]


@pytest.mark.parametrize("field,n,c,r,nilpotent,experimental", _path_cases())
def test_verify_path_matches_sample_by_sample_reference(field, n, c, r, nilpotent, experimental):
    x = random_datum(n, c, r, seed=7 * n + c + r, stable=True, nilpotent=nilpotent, field=field)
    report = verify_path(x, PATH_REFERENCE_GRID, experimental=experimental)
    samples, equivalent, permutation = _reference_verify_path(
        x, PATH_REFERENCE_GRID, experimental
    )
    assert [(s.t, s.stable, s.commuting, s.nilpotent) for s in report.samples] == samples
    assert report.endpoint_equivalent == equivalent
    assert report.permutation == permutation


def test_verify_path_computes_path_data_once(monkeypatch):
    calls = []
    original = punctual._path_data

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(punctual, "_path_data", counting)
    x = random_datum(2, 3, 3, seed=40, stable=True, nilpotent=True)
    report = verify_path(x, [Fraction(k, 16) for k in range(17)])
    assert report.all_flags() and len(report.samples) == 17
    assert len(calls) == 1
    y = random_datum(2, 3, 2, seed=41, stable=True, nilpotent=True)
    verify_path(y, [Fraction(0), Fraction(1)], experimental=True)
    assert len(calls) == 2


def test_verify_path_products_do_not_grow_with_the_grid(monkeypatch):
    products, nilpotency = [], []
    matmul, nilpotent = Matrix.__matmul__, punctual.is_nilpotent_tuple

    def counting_matmul(a, b):
        products.append(None)
        return matmul(a, b)

    def counting_nilpotent(x):
        nilpotency.append(x)
        return nilpotent(x)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(punctual, "is_nilpotent_tuple", counting_nilpotent)
    x = random_datum(3, 4, 4, seed=43, stable=True, nilpotent=True)
    counts = []
    for k in (1, 4, 64):
        products.clear()
        nilpotency.clear()
        report = verify_path(x, [Fraction(i, k) for i in range(k + 1)])
        assert report.all_flags() and len(report.samples) == k + 1
        assert nilpotency == [x]
        counts.append(len(products))
    assert counts[0] == counts[1] == counts[2]


def test_verify_path_decides_stability_once_per_distinct_t(monkeypatch):
    field = GF(3)
    x = random_datum(2, 3, 3, seed=1, stable=True, nilpotent=True, field=field)
    # the CLI's --grid 64 over GF(3): i/64 runs through 0, 1, 2 repeatedly
    step = field.one() / field.coerce(64)
    grid = [field.coerce(i) * step for i in range(65)]
    assert len(set(grid)) == 3
    calls = _count_calls(monkeypatch, "is_stable")
    verify_path(x, [])
    setup_calls = len(calls)
    calls.clear()
    report = verify_path(x, grid)
    assert len(calls) - setup_calls <= 3
    samples, equivalent, permutation = _reference_verify_path(x, grid, False)
    assert [(s.t, s.stable, s.commuting, s.nilpotent) for s in report.samples] == samples
    assert report.endpoint_equivalent == equivalent
    assert report.permutation == permutation


def _count_calls(monkeypatch, name):
    """The arguments of every call of adhm's ``name``, through adhm or punctual."""
    calls = []
    original = getattr(adhm, name)

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(adhm, name, counting)
    monkeypatch.setattr(punctual, name, counting, raising=False)
    return calls


@pytest.mark.parametrize("field,k", [(QQ, 64), (GF(3), 64)], ids=["QQ", "GF3"])
def test_verify_path_decides_stability_only_at_zero(monkeypatch, field, k):
    x = random_datum(2, 3, 3, seed=1, stable=True, nilpotent=True, field=field)
    step = field.one() / field.coerce(k)
    grid = [field.coerce(i) * step for i in range(k + 1)]
    stable_calls = _count_calls(monkeypatch, "is_stable")
    walks = _count_calls(monkeypatch, "_krylov_layers")
    report = verify_path(x, grid)
    # one Krylov walk on x in the path set-up decides its stability;
    # phi(0) is stable because r >= c
    assert stable_calls == [] and walks == [x]
    assert len(report.samples) == k + 1 and report.all_flags()
    walks.clear()
    nonzero = [t for t in grid if t]
    report = verify_path(x, nonzero)
    assert stable_calls == [] and walks == [x]
    assert len(report.samples) == len(nonzero) and report.all_flags()


def test_experimental_path_decides_stability_only_at_zero(monkeypatch):
    x = random_datum(2, 3, 2, seed=41, stable=True, nilpotent=True)
    stable_calls = _count_calls(monkeypatch, "is_stable")
    walks = _count_calls(monkeypatch, "_krylov_layers")
    report = verify_path(x, [Fraction(i, 8) for i in range(9)], experimental=True)
    assert stable_calls == [] and walks == [x]
    assert [s.stable for s in report.samples] == [False] + [True] * 8
