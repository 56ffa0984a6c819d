"""JSON wire formats shared by the CLI and the file-based workflows.

Scalars serialize as strings: "p/q" (or "p" when the denominator is 1) over
the rationals, decimal residues over a prime field whose modulus is recorded
once per file in the "field" header.  On input every scalar must match
``-?[0-9]+(/[0-9]+)?``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Any, Sequence

from .adhm import AdhmDatum
from .exactalg import QQ, Field, GF, GFElement, Matrix, PrimeField
from .monad import LinearFormMatrix
from .quotmod import PolyVector, _term_error

DATUM_SCHEMA = "adhm-datum@1"
POLYVEC_SCHEMA = "poly-vectors@1"
FORM_MATRIX_SCHEMA = "linear-form-matrix@1"
_TERM_KEYS = frozenset(("alpha", "j", "coeff"))


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


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    That call runs json's pure-Python encoder (CPython takes the C one only
    without ``indent``); this one joins each container once and quotes
    strings and keys with the C ``encode_basestring_ascii``.
    """
    return _dumps(obj, "\n")


_quote = json.encoder.encode_basestring_ascii
_int = int.__repr__  # json's int writer; type(v) is int keeps bools out


def _dumps(o: Any, newline: str) -> str:
    # newline is "\n" and the indent of the line that o starts on
    inner = newline + "  "
    if isinstance(o, dict):
        # sorted before the keys are written, as json sorts: int keys numerically
        parts = [f"{_quote(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_quote(v) if type(v) is str else _int(v) if type(v) is int else _dumps(v, inner)}"
                 for k, v in sorted(o.items())]
        ends = "{}"
    elif isinstance(o, (list, tuple)):
        parts = [_quote(v) if type(v) is str else _int(v) if type(v) is int else _dumps(v, inner)
                 for v in o]
        ends = "[]"
    else:  # bool, None and floats; anything else raises json's TypeError
        return _quote(o) if isinstance(o, str) else json.dumps(o)
    if not parts:
        return ends
    return f"{ends[0]}{inner}{(',' + inner).join(parts)}{newline}{ends[1]}"


# "p" or "p/q" in ASCII decimal digits; checked before any arithmetic, so
# forms such as "1e1000000000" never reach the number parser
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _scalar_ints(field: Field, raw: Any) -> tuple[int, int]:
    """A scalar written "p" or "p/q" as ints (a, b) with value a / b: a residue
    and b = 1 over GF(p), b > 0 over QQ; FormatError otherwise."""
    if not isinstance(raw, str):
        raise FormatError(f"scalars are strings, got {raw!r}")
    match = _SCALAR.fullmatch(raw)
    if match is None:
        raise FormatError(f"bad scalar {raw!r}: expected p or p/q")
    num, den = match.groups()
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"bad scalar {raw!r}: {exc}") from exc
    if isinstance(field, PrimeField):
        if den % field.p == 0:
            raise FormatError(f"bad scalar {raw!r}: division by zero residue")
        return num * pow(den, -1, field.p) % field.p, 1
    if den == 0:
        raise FormatError(f"bad scalar {raw!r}: division by zero")
    return num, den


def parse_scalar(field: Field, raw: Any):
    """A scalar written "p" or "p/q", as a field element; FormatError otherwise."""
    a, b = _scalar_ints(field, raw)
    if isinstance(field, PrimeField):
        return GFElement(a, field.p)
    return Fraction(a, b)


def _format_ints(a: int, d: int) -> str:
    """The scalar a / d as "p" or "p/q" in lowest terms (a residue when d = 1),
    as ``field.format`` writes it."""
    if d == 1:
        return str(a)
    g = math.gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


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


def _serial_key(pair: tuple) -> tuple:
    """Serialization order of (term, int) pairs: slot-major, then degree, then z_0-major."""
    (alpha, j), _ = pair
    return (j, sum(alpha), tuple(-a for a in alpha))


def polyvector_to_obj(p: PolyVector, field: Field) -> list:
    pairs, d = p._ints_in(field)
    return [
        {"alpha": list(alpha), "j": j, "coeff": _format_ints(a, d)}
        for (alpha, j), a in sorted(pairs, key=_serial_key)
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
        seen, pairs, dens, degree, shape_error = set(), [], [], -1, None
        for rec in _typed(rec_list, list, "each generator"):
            if not isinstance(rec, dict) or not _TERM_KEYS <= rec.keys():
                raise FormatError("term records need alpha, j and coeff")
            # exact types take the short test; _typed runs only to raise, so
            # every message and the first error reported stay its own
            alpha, j = rec["alpha"], rec["j"]
            if type(alpha) is list and all(type(a) is int for a in alpha):
                alpha = tuple(alpha)
            else:
                alpha = tuple(_typed(a, int, "alpha entries") for a in _typed(alpha, list, "alpha"))
            if type(j) is not int:
                j = _typed(j, int, "j")
            a, b = _scalar_ints(field, rec["coeff"])
            if (alpha, j) in seen:
                raise FormatError(f"duplicate term {(alpha, j)}")
            seen.add((alpha, j))
            # a bad term is reported once the whole generator has parsed
            shape_error = shape_error or _term_error(n, r, alpha, j)
            if a:
                pairs.append(((alpha, j), a))
                dens.append(b)
                degree = max(degree, sum(alpha))
        if shape_error:
            raise FormatError(shape_error)
        d = math.lcm(*dens)
        if d > 1:
            pairs = [(t, a * (d // b)) for (t, a), b in zip(pairs, dens)]
        gens.append(PolyVector._of_ints(n, r, field, pairs, d, degree))
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
