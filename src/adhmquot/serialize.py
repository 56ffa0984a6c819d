"""JSON wire formats shared by the CLI and the file-based workflows.

Scalars serialize as strings: "p/q" (or "p" when the denominator is 1) over
the rationals, decimal residues over a prime field whose modulus is recorded
once per file in the "field" header.  On input every scalar must match
``-?[0-9]+(/[0-9]+)?``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Sequence

from .adhm import AdhmDatum
from .exactalg import QQ, Field, GF, Matrix, PrimeField
from .monad import LinearFormMatrix
from .quotmod import PolyVector

DATUM_SCHEMA = "adhm-datum@1"
POLYVEC_SCHEMA = "poly-vectors@1"
FORM_MATRIX_SCHEMA = "linear-form-matrix@1"


class FormatError(ValueError):
    """Input JSON does not match the documented schema."""


def _typed(value: Any, kind: type, name: str, *, minimum: int | None = None):
    """value itself when it is a JSON integer (kind int) or array (kind list).

    Anything else, including a boolean or a float such as 1.5 that int()
    would truncate, and an integer below ``minimum``, is a FormatError
    naming the field.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is int else "a list"
        raise FormatError(f"{name} must be {what}, got {json.dumps(value, default=repr)[:40]}")
    if minimum is not None and value < minimum:
        raise FormatError(f"{name} must be at least {minimum}, got {value}")
    return value


def field_to_obj(field: Field) -> Any:
    if isinstance(field, PrimeField):
        return {"prime": field.p}
    return "rational"


def field_from_obj(obj: Any) -> Field:
    if obj in (None, "rational"):
        return QQ
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        try:
            return GF(_typed(obj["prime"], int, "field prime"))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"unrecognized field header {obj!r}")


# "p" or "p/q" in ASCII decimal digits; checked before any arithmetic, so
# forms such as "1e1000000000" never reach the number parser
_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_scalar(field: Field, raw: Any):
    """A scalar written "p" or "p/q", as a field element; FormatError otherwise."""
    if not isinstance(raw, str):
        raise FormatError(f"scalars are strings, got {raw!r}")
    if not _SCALAR.fullmatch(raw):
        raise FormatError(f"bad scalar {raw!r}: expected p or p/q")
    try:
        return field.coerce(raw)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction names a zero denominator only as "Fraction(p, 0)"
        reason = "division by zero" if field == QQ and isinstance(exc, ZeroDivisionError) else exc
        raise FormatError(f"bad scalar {raw!r}: {reason}") from exc


def matrix_to_obj(m: Matrix) -> list:
    return [[m.field.format(x) for x in m.row_tuple(i)] for i in range(m.rows)]


def matrix_from_obj(field: Field, obj: Any, rows: int, cols: int) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise FormatError(f"expected a {rows}x{cols} matrix")
    flat = []
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"expected a {rows}x{cols} matrix")
        flat += [parse_scalar(field, x) for x in row]
    return Matrix(field, rows, cols, flat)


def vector_to_obj(field: Field, vec: Sequence) -> list:
    return [field.format(x) for x in vec]


def datum_to_obj(x: AdhmDatum) -> dict:
    return {
        "schema": DATUM_SCHEMA,
        "field": field_to_obj(x.field),
        "n": x.n,
        "c": x.c,
        "r": x.r,
        "B": [matrix_to_obj(b) for b in x.B],
        "v": [vector_to_obj(x.field, vec) for vec in x.v],
    }


def datum_from_obj(obj: Any) -> AdhmDatum:
    if not isinstance(obj, dict):
        raise FormatError("datum document must be a JSON object")
    for key in ("n", "c", "r", "B", "v"):
        if key not in obj:
            raise FormatError(f"datum document is missing {key!r}")
    field = field_from_obj(obj.get("field"))
    n, c, r = (_typed(obj[key], int, key) for key in ("n", "c", "r"))
    if len(_typed(obj["B"], list, "B")) != n:
        raise FormatError(f"expected {n} matrices in B")
    if len(_typed(obj["v"], list, "v")) != r:
        raise FormatError(f"expected {r} vectors in v")
    bs = tuple(matrix_from_obj(field, m, c, c) for m in obj["B"])
    vs = []
    for vec in obj["v"]:
        if not isinstance(vec, list) or len(vec) != c:
            raise FormatError(f"marked vectors must have length {c}")
        vs.append(tuple(parse_scalar(field, x) for x in vec))
    try:
        return AdhmDatum(n, c, r, bs, tuple(vs))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def polyvector_to_obj(p: PolyVector, field: Field) -> list:
    return [
        {"alpha": list(alpha), "j": j, "coeff": field.format(coeff)}
        for (alpha, j), coeff in p.sorted_terms()
    ]


def polyvectors_to_obj(n: int, r: int, gens: Sequence[PolyVector], field: Field) -> dict:
    return {
        "schema": POLYVEC_SCHEMA,
        "field": field_to_obj(field),
        "n": n,
        "r": r,
        "generators": [polyvector_to_obj(g, field) for g in gens],
    }


def polyvectors_from_obj(obj: Any) -> tuple[int, int, list[PolyVector], Field]:
    if not isinstance(obj, dict):
        raise FormatError("generator document must be a JSON object")
    for key in ("n", "r", "generators"):
        if key not in obj:
            raise FormatError(f"generator document is missing {key!r}")
    field = field_from_obj(obj.get("field"))
    n = _typed(obj["n"], int, "n", minimum=1)
    r = _typed(obj["r"], int, "r")
    gens = []
    for rec_list in _typed(obj["generators"], list, "generators"):
        terms = {}
        for rec in _typed(rec_list, list, "each generator"):
            if not isinstance(rec, dict) or not {"alpha", "j", "coeff"} <= set(rec):
                raise FormatError("term records need alpha, j and coeff")
            alpha = tuple(
                _typed(a, int, "alpha entries") for a in _typed(rec["alpha"], list, "alpha")
            )
            j = _typed(rec["j"], int, "j")
            coeff = parse_scalar(field, rec["coeff"])
            if (alpha, j) in terms:
                raise FormatError(f"duplicate term {(alpha, j)}")
            terms[(alpha, j)] = coeff
        try:
            gens.append(PolyVector(n, r, terms))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return n, r, gens, field


def form_matrix_to_obj(m: LinearFormMatrix) -> dict:
    return {
        "schema": FORM_MATRIX_SCHEMA,
        "field": field_to_obj(m.field),
        "rows": m.rows,
        "cols": m.cols,
        "vars": m.var_count,
        "entries": [
            [
                [m.field.format(coeff) for coeff in m.entry(i, j).coeffs]
                for j in range(m.cols)
            ]
            for i in range(m.rows)
        ],
    }


def form_matrix_from_obj(obj: Any) -> LinearFormMatrix:
    if not isinstance(obj, dict):
        raise FormatError("form matrix document must be a JSON object")
    for key in ("rows", "cols", "vars", "entries"):
        if key not in obj:
            raise FormatError(f"form matrix document is missing {key!r}")
    field = field_from_obj(obj.get("field"))
    rows, cols, nvars = (_typed(obj[key], int, key, minimum=0) for key in ("rows", "cols", "vars"))
    raw = _typed(obj["entries"], list, "entries")
    if len(raw) != rows:
        raise FormatError("entries do not match the declared row count")
    values = []  # row-major cells, nvars coefficients each
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError("entries do not match the declared column count")
        for cell in row:
            if not isinstance(cell, list) or len(cell) != nvars:
                raise FormatError("each entry lists one coefficient per variable")
            values.extend(parse_scalar(field, text) for text in cell)
    # all-zero variables share one matrix: nvars costs one reference each
    zero = Matrix.zero(field, rows, cols)
    coeffs = tuple(Matrix(field, rows, cols, tuple(ak)) if any(ak) else zero
                   for ak in (values[k::nvars] for k in range(nvars)))
    return LinearFormMatrix(field, rows, cols, coeffs)
