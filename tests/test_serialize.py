from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adhmquot.adhm import random_datum
from adhmquot.exactalg import GF, QQ, Matrix
from adhmquot.monad import alpha0, alpha_minus1, evaluate
from adhmquot.quotmod import PolyVector, kernel_basis_up_to_degree
from adhmquot.serialize import (
    FormatError,
    datum_from_obj,
    datum_to_obj,
    dumps,
    field_from_obj,
    field_to_obj,
    form_matrix_from_obj,
    form_matrix_to_obj,
    parse_scalar,
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


@st.composite
def generator_documents(draw):
    """One poly-vectors@1 generator over QQ, GF(3) or GF(32003) whose scalars
    are unreduced fractions, explicit zeros and residues past p."""
    field = draw(st.sampled_from([QQ, GF(3), GF(32003)]))
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    records, seen = [], set()
    for _ in range(draw(st.integers(0, 6))):
        alpha = [draw(st.integers(0, 3)) for _ in range(n)]
        j = draw(st.integers(1, r))
        if (tuple(alpha), j) in seen:
            continue
        seen.add((tuple(alpha), j))
        num = draw(st.integers(-40000, 40000) | st.integers(-3, 3))
        den = draw(st.integers(1, 12).filter(lambda b: b % field.p if field != QQ else True))
        coeff = f"{num}/{den}" if den > 1 or draw(st.booleans()) else str(num)
        records.append({"alpha": alpha, "j": j, "coeff": coeff})
    return {"schema": "poly-vectors@1", "field": field_to_obj(field), "n": n, "r": r,
            "generators": [records]}


@given(generator_documents())
@example({"schema": "poly-vectors@1", "field": "rational", "n": 1, "r": 1, "generators": [[
    {"alpha": [2], "j": 1, "coeff": "2/4"}, {"alpha": [1], "j": 1, "coeff": "0/5"},
    {"alpha": [0], "j": 1, "coeff": "-5/6"}]]})
def test_parsed_generators_are_the_public_constructors(doc):
    n, r, (got,), field = polyvectors_from_obj(doc)
    expected = PolyVector(n, r, {(tuple(rec["alpha"]), rec["j"]): parse_scalar(field, rec["coeff"])
                                 for rec in doc["generators"][0]})
    assert got == expected and got._view == expected._view
    assert got.degree() == expected.degree()
    assert [(t, type(a), a) for t, a in got.terms.items()] == \
        [(t, type(a), a) for t, a in expected.terms.items()]
    written = polyvectors_to_obj(n, r, [got], field)
    assert written == polyvectors_to_obj(n, r, [expected], field)
    assert [rec["coeff"] for rec in written["generators"][0]] == \
        [field.format(a) for _, a in sorted(
            expected.terms.items(), key=lambda kv: (kv[0][1], sum(kv[0][0]), [-e for e in kv[0][0]]))]


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


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(-10**400, 10**400) | st.floats() | st.text())
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers(), children)),
    max_leaves=40,
)


@given(JSON_TREES)
@example({"\u00e9\u2603\x00\n\"": [[], {}, (), [[]], {"a": {}}], "b": (True, None, False)})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, -10**300])
@example({10: 1, 9: 2, -1: 3})  # int keys sort numerically, then turn into strings
def test_dumps_is_json_dumps_indented_and_sorted(tree):
    assert dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_dumps_raises_json_type_errors():
    for bad in ({"a": 1, 2: "b"}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            dumps(bad)
        assert str(got.value) == str(expected.value)


@given(st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
@example("007")
@example("-0")
@example("0/7")
@example("-0012/000")
@example("-559380/13283")
def test_rational_scalars_read_as_fraction(raw):
    try:
        expected = Fraction(raw)
    except ZeroDivisionError:
        with pytest.raises(FormatError, match="division by zero$"):
            parse_scalar(QQ, raw)
        return
    got = parse_scalar(QQ, raw)
    assert type(got) is Fraction and got == expected
    if int(raw.partition("/")[2] or 1) % 32003:  # else no residue to compare
        assert parse_scalar(GF(32003), raw) == GF(32003).coerce(raw)


def test_an_over_long_scalar_is_a_bad_scalar():
    for raw in ("7" * 5000, "-" + "7" * 4301 + "/3", "3/" + "1" * 4400):
        with pytest.raises(ValueError) as limit:
            Fraction(raw)
        for field in (QQ, GF(3)):
            with pytest.raises(FormatError) as info:
                parse_scalar(field, raw)
            assert str(info.value) == f"bad scalar {raw!r}: {limit.value}"
