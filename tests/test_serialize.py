from __future__ import annotations

import tracemalloc

import pytest

from adhmquot.adhm import random_datum
from adhmquot.exactalg import GF, QQ, Matrix
from adhmquot.monad import alpha0, alpha_minus1, evaluate
from adhmquot.quotmod import kernel_basis_up_to_degree
from adhmquot.serialize import (
    FormatError,
    datum_from_obj,
    datum_to_obj,
    field_from_obj,
    field_to_obj,
    form_matrix_from_obj,
    form_matrix_to_obj,
    polyvectors_from_obj,
    polyvectors_to_obj,
)

from helpers import datum


def test_field_headers():
    assert field_to_obj(QQ) == "rational"
    assert field_to_obj(GF(3)) == {"prime": 3}
    assert field_from_obj(None) == QQ
    assert field_from_obj({"prime": 5}) == GF(5)
    with pytest.raises(FormatError):
        field_from_obj({"prime": 4})
    with pytest.raises(FormatError):
        field_from_obj("complex")


@pytest.mark.parametrize("seed", range(4))
def test_datum_round_trip(seed):
    x = random_datum(3, 3, 2, seed=seed, stable=True)
    assert datum_from_obj(datum_to_obj(x)) == x


def test_datum_round_trip_prime_field():
    x = random_datum(2, 2, 2, seed=5, field=GF(3))
    obj = datum_to_obj(x)
    assert obj["field"] == {"prime": 3}
    assert datum_from_obj(obj) == x


def test_scalar_strings_are_reduced():
    x = random_datum(2, 2, 1, seed=6)
    obj = datum_to_obj(x)
    for row in obj["B"][0]:
        for s in row:
            assert isinstance(s, str)
            if "/" in s:
                num, den = s.split("/")
                assert int(den) > 1  # denominator 1 prints bare


def test_datum_format_errors():
    x = random_datum(2, 2, 1, seed=7)
    obj = datum_to_obj(x)
    broken = dict(obj)
    broken.pop("B")
    with pytest.raises(FormatError):
        datum_from_obj(broken)
    wrong_shape = datum_to_obj(x)
    wrong_shape["B"] = wrong_shape["B"][:1]
    with pytest.raises(FormatError):
        datum_from_obj(wrong_shape)
    bad_scalar = datum_to_obj(x)
    bad_scalar["v"][0][0] = "1/0"
    with pytest.raises(FormatError):
        datum_from_obj(bad_scalar)


def test_polyvectors_round_trip():
    x = random_datum(2, 2, 2, seed=8, stable=True)
    basis = kernel_basis_up_to_degree(x, 2)
    obj = polyvectors_to_obj(x.n, x.r, basis, x.field)
    n, r, gens, field = polyvectors_from_obj(obj)
    assert (n, r, field) == (x.n, x.r, QQ)
    assert gens == basis


def test_polyvectors_duplicate_term_rejected():
    obj = {
        "schema": "poly-vectors@1",
        "n": 1,
        "r": 1,
        "generators": [[
            {"alpha": [1], "j": 1, "coeff": "1"},
            {"alpha": [1], "j": 1, "coeff": "2"},
        ]],
    }
    with pytest.raises(FormatError):
        polyvectors_from_obj(obj)


@pytest.mark.parametrize("seed", range(3))
def test_form_matrix_round_trip(seed):
    x = random_datum(3, 2, 1, seed=seed)
    for m in (alpha0(x), alpha_minus1(x)):
        assert form_matrix_from_obj(form_matrix_to_obj(m)) == m


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_form_matrix_lifted_view_survives_the_round_trip(field):
    x = random_datum(3, 2, 2, seed=4, field=field)
    point = tuple(field.coerce(z) for z in (2, 0, -3, 1))
    for build in (alpha0, alpha_minus1):
        m = build(x)
        before = repr(m)
        at_point = evaluate(m, point)
        assert repr(m) == before
        fresh = build(x)
        assert fresh == m
        parsed = form_matrix_from_obj(form_matrix_to_obj(m))
        assert parsed == m
        assert evaluate(parsed, point) == at_point
        assert evaluate(m, point) == at_point
        # the coefficients parsed from scalars lift to the int views the builder wrote
        assert [a._lifted for a in parsed.coeffs] == [a._lifted for a in m.coeffs]


def test_form_matrix_from_obj_drops_explicit_zeros():
    # alpha0 of the n = 2, c = 1, r = 1 datum with B = 0 and v = (1,)
    x = datum(2, 1, 1, [[[0]], [[0]]], [(1,)])
    obj = {
        "schema": "linear-form-matrix@1",
        "field": "rational",
        "rows": 1,
        "cols": 3,
        "vars": 3,
        "entries": [[["-1", "0", "-0"], ["0/3", "-1", "0"], ["0", "0", "1"]]],
    }
    parsed = form_matrix_from_obj(obj)
    assert parsed == alpha0(x)
    assert [a._lifted for a in parsed.coeffs] == [a._lifted for a in alpha0(x).coeffs]
    assert form_matrix_to_obj(parsed) == form_matrix_to_obj(alpha0(x))


def test_form_matrix_from_obj_shares_the_zero_coefficient_matrix():
    # no cells: every variable is zero, and a million of them cost one reference each
    obj = {"schema": "linear-form-matrix@1", "field": "rational",
           "rows": 0, "cols": 0, "vars": 10**6, "entries": []}
    tracemalloc.start()
    try:
        parsed = form_matrix_from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert parsed.var_count == 10**6 and parsed.coeffs[0] == Matrix.zero(QQ, 0, 0)
    assert len({id(a) for a in parsed.coeffs}) == 1


@pytest.mark.parametrize("changes,message", [
    ({"rows": None}, "rows must be an integer, got null"),
    ({"cols": "3"}, 'cols must be an integer, got "3"'),
    ({"vars": 1.5}, "vars must be an integer, got 1.5"),
    ({"rows": 0, "cols": 0, "vars": -1, "entries": []}, "vars must be at least 0, got -1"),
], ids=["rows-null", "cols-string", "vars-float", "vars-negative"])
def test_form_matrix_integer_fields_are_checked(changes, message):
    x = datum(2, 1, 1, [[[0]], [[0]]], [(1,)])
    obj = {**form_matrix_to_obj(alpha0(x)), **changes}
    with pytest.raises(FormatError) as info:
        form_matrix_from_obj(obj)
    assert str(info.value) == message
