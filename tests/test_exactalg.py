from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from adhmquot import exactalg
from adhmquot.exactalg import (
    GF,
    QQ,
    FieldMismatchError,
    GFElement,
    LinearAlgebraError,
    Matrix,
    ShapeError,
    Subspace,
    _first_independent,
    char_poly,
    kernel_basis,
    rank,
    rational_roots,
    rref,
    solve,
)

from helpers import mat, poly_mul


def rand_matrix(rng, rows, cols, bound=4):
    return Matrix(
        QQ, rows, cols,
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(rows * cols)),
    )


def test_rank_examples():
    assert rank(Matrix.identity(QQ, 3)) == 3
    assert rank(Matrix.zero(QQ, 2, 3)) == 0
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_degenerate_shapes():
    assert rank(Matrix.zero(QQ, 0, 5)) == 0
    assert rank(Matrix.zero(QQ, 5, 0)) == 0


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 3)).dim == 0
    assert kernel_basis(Matrix.zero(QQ, 2, 2)).dim == 2
    k = kernel_basis(mat([[1, 1]]))
    assert k.dim == 1
    assert k.basis.row_tuple(0) == (Fraction(1), Fraction(-1))


def test_solve_examples():
    b = (Fraction(3), Fraction(-2))
    assert solve(Matrix.identity(QQ, 2), b) == b
    assert solve(mat([[1, 1]]), (Fraction(2),)) == (Fraction(2), Fraction(0))
    assert solve(mat([[1], [1]]), (Fraction(1), Fraction(2))) is None


def test_solve_shape_error():
    with pytest.raises(ShapeError):
        solve(mat([[1, 1]]), (Fraction(1), Fraction(2)))


@pytest.mark.parametrize("seed", range(10))
def test_rank_transpose_and_nullity(seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    r = rank(m)
    assert r == rank(m.transpose())
    assert kernel_basis(m).dim + r == m.cols


@pytest.mark.parametrize("seed", range(10))
def test_solve_is_exact(seed):
    rng = random.Random(100 + seed)
    a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.cols))
    b = a.apply(x)
    got = solve(a, b)
    assert got is not None
    assert a.apply(got) == b


@pytest.mark.parametrize("seed", range(8))
def test_kernel_vectors_annihilate(seed):
    rng = random.Random(200 + seed)
    m = rand_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
    k = kernel_basis(m)
    zero = (Fraction(0),) * m.rows
    for i in range(k.dim):
        assert m.apply(k.basis.row_tuple(i)) == zero


@pytest.mark.parametrize("p", [101, 32749])
@pytest.mark.parametrize("seed", range(6))
def test_prime_field_rank_agrees_for_large_primes(p, seed):
    rng = random.Random(300 + seed)
    rows, cols = rng.randint(2, 5), rng.randint(2, 5)
    ints = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    rational = Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in ints])
    modular = Matrix.from_rows(GF(p), [[GF(p).coerce(x) for x in row] for row in ints])
    assert rank(modular) <= rank(rational)
    assert rank(modular) == rank(rational)  # small entries, large prime


def test_prime_field_rank_can_drop():
    m = Matrix.from_rows(GF(2), [[GF(2).coerce(2)]])
    assert rank(m) == 0
    assert rank(mat([[2]])) == 1


def test_mixed_moduli_error():
    with pytest.raises(FieldMismatchError):
        GFElement(1, 2) + GFElement(1, 3)
    with pytest.raises(FieldMismatchError):
        GF(3).coerce(GFElement(1, 5))


def test_public_constructor_coerces_and_rejects_foreign_scalars():
    m = Matrix(QQ, 1, 3, (1, "-2/4", Fraction(3)))
    assert m.entries == (Fraction(1), Fraction(-1, 2), Fraction(3))
    assert all(type(x) is Fraction for x in m.entries)
    g = Matrix(GF(5), 1, 3, (7, "3", "1/2"))
    assert [x.value for x in g.entries] == [2, 3, 3]
    assert all(type(x) is GFElement for x in g.entries)
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, 1, 1, (GFElement(1, 3),))
    with pytest.raises(FieldMismatchError):
        Matrix(GF(3), 1, 1, (GFElement(1, 5),))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_a_matrix_cannot_be_assigned_to(field):
    # both constructors: the scalar one keeps its entries, _of_ints makes them on first read
    for m in (Matrix(field, 1, 2, (1, 2)), Matrix._of_ints(field, 1, 2, [1, 2], 1)):
        before = (m.rows, m._lifted, m.entries)
        for name, value in [("rows", 2), ("entries", (Fraction(0),) * 2), ("_lifted", ([0, 0], 1))]:
            with pytest.raises(AttributeError):
                setattr(m, name, value)
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert (m.rows, m._lifted, m.entries) == before


def test_rational_gf_do_not_mix():
    with pytest.raises(TypeError):
        Fraction(1) + GFElement(1, 3)
    with pytest.raises(FieldMismatchError):
        QQ.coerce(GFElement(1, 3))


def test_rref_canonical():
    reduced, pivots = rref(mat([[2, 4, 0], [1, 2, 1]]))
    assert pivots == (0, 2)
    assert reduced.to_rows() == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        m = rand_matrix(rng, 4, 4)
        inv = m.inverse()
        if inv is None:
            assert rank(m) < 4
        else:
            assert (m @ inv) == Matrix.identity(QQ, 4)


def test_subspace_contains_and_join():
    s = Subspace.from_vectors(QQ, 3, [(1, 0, 1), (0, 1, 0)])
    assert s.dim == 2
    assert s.contains((2, 3, 2))
    assert not s.contains((0, 0, 1))
    t = Subspace.from_vectors(QQ, 3, [(0, 0, 1)])
    assert s.join(t).dim == 3
    coords = s.coordinates((2, 3, 2))
    assert coords == (Fraction(2), Fraction(3))
    assert s.coordinates((1, 1, 0)) is None


def test_first_independent_picks_the_vectors_that_grow_the_span():
    assert _first_independent(QQ, 3, [[1, 1, 0], [2, 2, 0], [0, 0, 5], [3, 3, 7]]) == [0, 2]
    assert _first_independent(QQ, 0, [[], []]) == []  # dim 0
    assert _first_independent(QQ, 3, []) == []  # no vectors
    assert _first_independent(QQ, 2, [[0, 0], [0, 3], [0, 0], [4, 0]]) == [1, 3]  # zero vectors
    assert _first_independent(QQ, 2, [[1, 2], [1, 2], [2, 4], [1, 3], [1, 3]]) == [0, 3]  # repeats
    # residues: (1, 1) and (1, 0) span GF(2)^2, and (2, 1) = 2 (1, 2) over GF(3)
    assert _first_independent(GF(2), 2, [[1, 1], [0, 0], [1, 1], [1, 0], [0, 1]]) == [0, 3]
    assert _first_independent(GF(3), 2, [[1, 2], [2, 1], [0, 1], [2, 2]]) == [0, 2]


def test_char_poly_and_roots():
    m = mat([[2, 0], [0, 2]])
    assert char_poly(m) == (Fraction(4), Fraction(-4), Fraction(1))  # (x-2)^2
    roots, remainder = rational_roots(char_poly(m))
    assert roots == [(Fraction(2), 2)]
    assert remainder == (Fraction(1),)
    rot = mat([[0, -1], [1, 0]])
    roots, remainder = rational_roots(char_poly(rot))
    assert roots == []
    assert remainder == (Fraction(1), Fraction(0), Fraction(1))  # z^2 + 1


def test_char_poly_prime_field_rejected():
    with pytest.raises(FieldMismatchError):
        char_poly(Matrix.identity(GF(3), 2))


def _cofactor_det(rows):
    if not rows:
        return Fraction(1)
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = Fraction(-1) ** j
        total += sign * head * _cofactor_det(minor)
    return total


@pytest.mark.parametrize("seed", range(6))
def test_char_poly_matches_determinant_oracle(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(1, 4)
    m = rand_matrix(rng, n, n, bound=3)
    coeffs = char_poly(m)
    for lam in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
        shifted = [
            [lam * Fraction(i == j) - m.entry(i, j) for j in range(n)]
            for i in range(n)
        ]
        expected = _cofactor_det(shifted)
        value = sum(c * lam**k for k, c in enumerate(coeffs))
        assert value == expected


def test_rational_roots_computes_each_divisor_list_once():
    # (12z - 35)(35z + 12)(z^2 + 1): leading and constant coefficients 420, -420
    coeffs = (Fraction(-420), Fraction(-1081), Fraction(0), Fraction(-1081), Fraction(420))
    roots, remainder = rational_roots(coeffs)
    assert sorted(roots) == [(Fraction(-12, 35), 1), (Fraction(35, 12), 1)]
    assert remainder == (Fraction(420), Fraction(0), Fraction(420))


def _reference_rational_roots(coeffs):
    """Rational roots by trying every p/q with p | constant and q | leading coefficient."""

    def divisors(n):
        n = abs(n)
        return [f for f in range(1, n + 1) if n % f == 0]

    def value(poly, x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    def deflate(poly, root):
        out = [Fraction(0)] * (len(poly) - 1)
        carry = Fraction(0)
        for i in range(len(poly) - 1, 0, -1):
            carry = poly[i] + carry * root
            out[i - 1] = carry
        return out

    work = [Fraction(c) for c in coeffs]
    while len(work) > 1 and not work[-1]:
        work.pop()
    roots = []
    zero_mult = 0
    while len(work) > 1 and not work[0]:
        zero_mult += 1
        work = work[1:]
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        ints = [int(c * scale) for c in work]
        candidates = {
            Fraction(sign * p, q)
            for p in divisors(ints[0]) for q in divisors(ints[-1]) for sign in (1, -1)
        }
        for cand in sorted(candidates):
            mult = 0
            while len(work) > 1 and value(work, cand) == 0:
                work = deflate(work, cand)
                mult += 1
            if mult:
                roots.append((cand, mult))
    return roots, tuple(work)


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_match_divisor_enumeration(seed):
    rng = random.Random(700 + seed)
    for _ in range(40):
        # products of small linear factors (zero and repeated roots included)
        # and a random factor with small coefficients
        poly = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))]
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randint(1, 4), rng.choice((0, 0, 1, -1, 2, -3))
            poly = poly_mul(poly, [Fraction(-b), Fraction(a)])
            if rng.random() < 0.3:
                poly = poly_mul(poly, [Fraction(-b), Fraction(a)])
        extra = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(rng.randint(1, 4))]
        if extra[-1] == 0:
            extra[-1] = Fraction(1)
        poly = poly_mul(poly, extra) + [Fraction(0)] * rng.randint(0, 1)
        assert rational_roots(poly) == _reference_rational_roots(poly)


def test_rational_roots_degenerate_inputs():
    assert rational_roots(()) == ([], ())
    assert rational_roots((Fraction(0), Fraction(0))) == ([], (Fraction(0),))
    assert rational_roots((Fraction(5), Fraction(0))) == ([], (Fraction(5),))
    assert rational_roots((0, 0, 0, 2)) == ([(Fraction(0), 3)], (Fraction(2),))
    assert rational_roots((Fraction(-1, 2), Fraction(3, 4))) == (
        [(Fraction(2, 3), 1)], (Fraction(3, 4),)
    )


@pytest.mark.parametrize("coeffs, root", [
    ((Fraction(0), Fraction(5)), Fraction(0)),  # zero root
    ((Fraction(0), Fraction(-2, 3)), Fraction(0)),  # zero root, negative leading coefficient
    ((Fraction(-3), Fraction(2)), Fraction(3, 2)),  # non-integer root
    ((Fraction(1, 2), Fraction(-7, 3)), Fraction(3, 14)),  # negative leading coefficient
    ((Fraction(4), Fraction(-2), Fraction(0)), Fraction(2)),  # trailing zero dropped
])
def test_linear_factorization_needs_no_sympy(monkeypatch, coeffs, root):
    monkeypatch.setitem(sys.modules, "sympy", None)  # any import of sympy now fails
    lead = coeffs[1]
    assert exactalg.rational_factorization(coeffs) == ([(root, 1)], (lead,), [])
    assert rational_roots(coeffs) == _reference_rational_roots(coeffs)


def _reference_rational_factorization(coeffs):
    """The earlier body of rational_factorization, on sympy Poly objects."""
    import sympy

    work = [Fraction(c) for c in coeffs]
    while len(work) > 1 and not work[-1]:
        work.pop()
    if len(work) <= 1:
        return [], tuple(work), []
    if len(work) == 2:
        a0, a1 = work
        return [(-a0 / a1, 1)], (a1,), []
    z = sympy.Symbol("z")
    scale = math.lcm(*(c.denominator for c in work))
    ints = [c.numerator * (scale // c.denominator) for c in reversed(work)]
    content, factors = sympy.Poly.from_list(ints, z, domain=sympy.ZZ).factor_list()
    lead = Fraction(int(content), scale)
    rest = sympy.Poly(1, z, domain=sympy.ZZ)
    roots, irreducible = [], []
    for factor, mult in factors:
        if factor.degree() == 1:
            a, b = (int(c) for c in factor.all_coeffs())
            roots.append((Fraction(-b, a), mult))
            lead *= a**mult
        else:
            rest *= factor**mult
            irreducible.append((tuple(int(c) for c in reversed(factor.all_coeffs())), mult))
    roots.sort(key=lambda rm: (rm[0] != 0, rm[0]))
    remainder = tuple(lead * int(c) for c in reversed(rest.all_coeffs()))
    return roots, remainder, irreducible


def _typed(result):
    """A factorization with every number tagged by its type, so 2 and Fraction(2) differ."""
    roots, remainder, irreducible = result
    tag = lambda v: (type(v).__name__, v)  # noqa: E731
    return (
        [(tag(root), tag(mult)) for root, mult in roots],
        tuple(tag(c) for c in remainder),
        [(tuple(tag(c) for c in f), tag(mult)) for f, mult in irreducible],
    )


def _power(poly, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = poly_mul(out, poly)
    return out


_FACTORIZATION_CASES = [
    (),
    (Fraction(0),),
    (Fraction(-7, 3),),
    (Fraction(0), Fraction(0)),
    (Fraction(3, 4), Fraction(-1, 2)),
    (Fraction(2), Fraction(5), Fraction(0), Fraction(0)),  # trailing zeros: degree 1
    # linear factors with rational roots, 0 and repeated roots included
    tuple(poly_mul(poly_mul(_power([Fraction(0), Fraction(1)], 2), _power([Fraction(-1), Fraction(2)], 3)),
                   [Fraction(3), Fraction(1)])),
    # irreducible quadratic and cubic, each with multiplicity >= 2, times a root
    tuple(poly_mul(poly_mul(_power([Fraction(1), Fraction(0), Fraction(1)], 2),
                            _power([Fraction(-2), Fraction(0), Fraction(0), Fraction(1)], 3)),
                   [Fraction(-5), Fraction(7)])),
    # a non-monic rational leading coefficient, a square of an irreducible
    # quadratic with a non-unit leading coefficient, and a trailing zero
    tuple(poly_mul(poly_mul([Fraction(-3, 7)], _power([Fraction(5), Fraction(1), Fraction(3)], 2)),
                   [Fraction(0), Fraction(4, 9)])) + (Fraction(0),),
    # the incomplete support of `gen --n 2 --c 4 --r 1 --unstable --seed 1`
    (Fraction(405), Fraction(45), Fraction(1)),
    # a repeated root: (z - 1/2)^5
    tuple(_power([Fraction(-1, 2), Fraction(1)], 5)),
    # non-monic rational roots 2/3 and -7/5 beside an irreducible quadratic
    tuple(poly_mul(poly_mul([Fraction(-2), Fraction(3)], [Fraction(7), Fraction(5)]),
                   [Fraction(2), Fraction(0), Fraction(1)])),
    # coefficients above 2^64: the root 3 / 2^70 and a root 2^66 + 5
    tuple(poly_mul(poly_mul([Fraction(-3), Fraction(2**70)], [Fraction(-(2**66) - 5), Fraction(1)]),
                   [Fraction(2**65 + 1), Fraction(0), Fraction(1)])),
    # an irreducible quartic times a square, and times the square of a quadratic
    tuple(poly_mul([Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
                   _power([Fraction(3), Fraction(2)], 2))),
    tuple(poly_mul([Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
                   _power([Fraction(1), Fraction(0), Fraction(1)], 2))),
    # a root-free quartic that splits into two quadratics
    tuple(poly_mul([Fraction(1), Fraction(0), Fraction(1)], [Fraction(2), Fraction(0), Fraction(1)])),
    # zero roots beside a rational root and an irreducible quadratic
    tuple(poly_mul(poly_mul([Fraction(0)] * 3 + [Fraction(1)], [Fraction(-1), Fraction(2)]),
                   [Fraction(1), Fraction(0), Fraction(1)])),
    # (2z - 1)^2 (3z - 19): the square-free part has L = 6 and t(y) = (y - 3)(y - 38),
    # so 2 and 3 divide L and 5 and 7 divide disc(t) = 35^2
    tuple(poly_mul(_power([Fraction(-1), Fraction(2)], 2), [Fraction(-19), Fraction(3)])),
]


@pytest.mark.parametrize("coeffs", _FACTORIZATION_CASES)
def test_rational_factorization_matches_the_poly_reference(coeffs):
    got = exactalg.rational_factorization(coeffs)
    assert _typed(got) == _typed(_reference_rational_factorization(coeffs))
    assert rational_roots(coeffs) == got[:2]


@pytest.mark.parametrize("seed", range(4))
def test_rational_factorization_matches_the_poly_reference_on_random_products(seed):
    rng = random.Random(900 + seed)
    for _ in range(30):
        poly = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))]
        for _ in range(rng.randint(0, 3)):
            linear = [Fraction(rng.choice((0, 1, -1, 2, -3))), Fraction(rng.randint(1, 4))]
            poly = poly_mul(poly, _power(linear, rng.randint(1, 2)))
        for _ in range(rng.randint(0, 2)):
            degree = rng.choice((2, 3))
            factor = [Fraction(rng.randint(-4, 4)) for _ in range(degree)] + [Fraction(rng.randint(1, 3))]
            poly = poly_mul(poly, _power(factor, rng.randint(1, 2)))
        poly += [Fraction(0)] * rng.randint(0, 1)
        got = exactalg.rational_factorization(poly)
        assert _typed(got) == _typed(_reference_rational_factorization(poly))


def test_the_prime_loop_skips_primes_dividing_the_leading_coefficient_or_the_discriminant(monkeypatch):
    # t(y) = (y - 3)(y - 38) for (2z - 1)^2 (3z - 19): 2 and 3 divide L = 6, and
    # the roots of t meet mod 5 and mod 7, so 11 is the first usable prime
    tried = []
    original = exactalg._is_prime

    def recording(p):
        tried.append(p)
        return original(p)

    monkeypatch.setattr(exactalg, "_is_prime", recording)
    coeffs = tuple(poly_mul(_power([Fraction(-1), Fraction(2)], 2), [Fraction(-19), Fraction(3)]))
    assert rational_roots(coeffs) == ([(Fraction(1, 2), 2), (Fraction(19, 3), 1)], (Fraction(12),))
    assert [p for p in tried if original(p)] == [2, 3, 5, 7, 11]


def test_rational_roots_large_constant_term():
    # no real roots (every term dominates the next), and a constant term whose
    # divisors are too many to try one by one
    coeffs = tuple(Fraction(c) for c in (60000000000000, 19, 17, 13, 11, 7, 5))
    assert rational_roots(coeffs) == ([], coeffs)


def test_large_moduli():
    p = 1000000000000000003
    f = GF(p)
    assert (f.coerce(p - 1) * f.coerce(p - 1)).value == 1
    assert exactalg._is_prime((1 << 61) - 1)
    with pytest.raises(LinearAlgebraError):
        GF(10**25 + 13)  # beyond the range where primality is decided exactly


@pytest.mark.parametrize("n", [
    1000000007 * 998244353,  # product of two large primes
    561,  # Carmichael number
    41041,  # Carmichael number
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    318665857834031151167461,  # strong pseudoprime to every base up to 37
])
def test_composites_are_rejected(n):
    assert not exactalg._is_prime(n)
    with pytest.raises(LinearAlgebraError):
        GF(n)


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if exactalg._is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)
    ]
