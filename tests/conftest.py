from __future__ import annotations

from fractions import Fraction

import pytest

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


@pytest.fixture
def jordan2() -> Matrix:
    return mat([[0, 1], [0, 0]])


@pytest.fixture
def noncommuting_pair():
    # the classic 2x2 pair with [B0, B1] = diag(1, -1)
    return mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]])
