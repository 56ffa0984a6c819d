"""Builders shared by the test modules: rational matrices, polynomial
products and ADHM data from nested lists."""

from __future__ import annotations

from fractions import Fraction

from adhmquot.adhm import AdhmDatum
from adhmquot.exactalg import QQ, Matrix


def mat(rows) -> Matrix:
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def poly_mul(a, b) -> list:
    """Product of two coefficient lists, constant term first."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def datum(n, c, r, bs, vs) -> AdhmDatum:
    return AdhmDatum(n, c, r, tuple(mat(b) for b in bs), tuple(tuple(v) for v in vs))
