"""Builders shared by the test modules: rational matrices, polynomial
products, shifted polynomial vectors and ADHM data from nested lists."""

from __future__ import annotations

from fractions import Fraction

from adhmquot.adhm import AdhmDatum
from adhmquot.exactalg import QQ, Matrix
from adhmquot.quotmod import PolyVector


def mat(rows) -> Matrix:
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def poly_mul(a, b) -> list:
    """Product of two coefficient lists, constant term first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def shifted(p: PolyVector, beta) -> PolyVector:
    """p times the monomial z^beta: every term's exponents moved by beta."""
    return PolyVector(p.n, p.r, {(tuple(a + b for a, b in zip(alpha, beta)), j): coeff
                                 for (alpha, j), coeff in p.terms.items()})


def datum(n, c, r, bs, vs) -> AdhmDatum:
    return AdhmDatum(n, c, r, tuple(mat(b) for b in bs), tuple(tuple(v) for v in vs))
