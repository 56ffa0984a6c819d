from __future__ import annotations

import pytest

from adhmquot.exactalg import Matrix
from helpers import mat


@pytest.fixture
def jordan2() -> Matrix:
    return mat([[0, 1], [0, 0]])


@pytest.fixture
def noncommuting_pair():
    # the classic 2x2 pair with [B0, B1] = diag(1, -1)
    return mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]])
