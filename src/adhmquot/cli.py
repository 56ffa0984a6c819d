"""Command-line interface.

Every subcommand reads and writes the JSON formats owned by the library
modules, prints exactly one JSON document on stdout and a short summary on
stderr.  Exit codes: 0 verified success, 1 property violation, 2 usage or
input errors, 3 internal error (an unexpected exception, reported on one
line), 141 (128 + SIGPIPE) when the reader of stdout closed it before the
document was written (``| head``), with no traceback.  Randomized
subcommands require an explicit seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

from . import adhm, geometry, monad, punctual, quiver, quotmod, serialize
from .exactalg import QQ

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

MANIFEST_SCHEMA = "manifest@1"


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise serialize.FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise serialize.FormatError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_datum(path: str) -> adhm.AdhmDatum:
    return serialize.datum_from_obj(_load_json(path))


def _emit(report: Any, summary: str) -> None:
    # print writes the newline on its own: on an unbuffered stdout (python -u,
    # PYTHONUNBUFFERED) a write cut short by a reader that left raises
    # nothing, and only the next write sees the closed pipe
    print(json.dumps(report, indent=2, sort_keys=True))
    sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
    print(summary, file=sys.stderr)


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise serialize.FormatError(f"{flag} must be at least {low}, got {value}")


def _require_shape(args) -> None:
    _require_at_least("--n", args.n, 1)
    _require_at_least("--c", args.c, 0)
    _require_at_least("--r", args.r, 1)


# ---------------------------------------------------------------- check


def _commutator_residuals(x) -> list:
    return [serialize.matrix_to_obj(m) for m in adhm.commutators(x) if not m.is_zero()]


def _check_one(path: str, args) -> tuple[dict, bool]:
    x = _load_datum(path)
    commuting = adhm.is_adhm(x)
    stable = adhm.is_stable(x)
    nilpotent = punctual.is_nilpotent_tuple(x)
    report: dict = {
        "schema": "check-report@1",
        "path": path,
        "is_adhm": commuting,
        "is_stable": stable,
        "is_nilpotent": nilpotent,
    }
    if not commuting:
        report["commutator_residuals"] = _commutator_residuals(x)
    ok = True
    if args.adhm and not commuting:
        ok = False
    if args.stable and not stable:
        ok = False
    if args.nilpotent and not nilpotent:
        ok = False
    report["passed"] = ok
    return report, ok


def cmd_check(args) -> tuple[Any, bool]:
    if args.manifest:
        doc = _load_json(args.file)
        if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
            raise serialize.FormatError(f"manifest must carry schema {MANIFEST_SCHEMA!r}")
        paths = doc.get("paths")
        if not isinstance(paths, list):
            raise serialize.FormatError("manifest needs a list under 'paths'")
        items = []
        all_ok = True
        for p in paths:
            rep, ok = _check_one(str(p), args)
            items.append(rep)
            all_ok = all_ok and ok
        return {"schema": "check-batch@1", "items": items, "passed": all_ok}, all_ok
    return _check_one(args.file, args)


# ---------------------------------------------------------------- support


def cmd_support(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    report = punctual.support(x)
    obj = {
        "schema": "support-report@1",
        "complete": report.complete,
        "points": [
            {"point": [x.field.format(z) for z in pt], "multiplicity": mult}
            for pt, mult in report.points
        ],
        "factorizations": [
            {"axis": f.axis, "polynomial": f.polynomial, "multiplicity": f.multiplicity}
            for f in report.factorizations
        ],
    }
    return obj, True


# ---------------------------------------------------------------- equiv


def cmd_equiv(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    y = _load_datum(args.other)
    g = adhm.equivalence(x, y)
    obj = {
        "schema": "equiv-report@1",
        "equivalent": g is not None,
        "g": serialize.matrix_to_obj(g) if g is not None else None,
    }
    return obj, g is not None


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> tuple[Any, bool]:
    _require_shape(args)
    _require_at_least("--entry-bound", args.entry_bound, 0)
    header = None if args.prime is None else {"prime": args.prime}
    field = serialize.field_from_obj(header)
    stable = True if args.stable else (False if args.unstable else None)
    x = adhm.random_datum(
        args.n, args.c, args.r, args.seed,
        stable=stable, nilpotent=args.nilpotent,
        entry_bound=args.entry_bound, field=field,
    )
    return serialize.datum_to_obj(x), True


# ---------------------------------------------------------------- quot


def cmd_quot_present(args) -> tuple[Any, bool]:
    if args.degree is not None:
        _require_at_least("--degree", args.degree, 0)
    x = _load_datum(args.file)
    degree = args.degree if args.degree is not None else x.c
    basis = quotmod.kernel_basis_up_to_degree(x, degree)
    return serialize.polyvectors_to_obj(x.n, x.r, basis, x.field), True


def cmd_quot_build(args) -> tuple[Any, bool]:
    if args.degree_cap is not None:
        _require_at_least("--degree-cap", args.degree_cap, 0)
    n, r, gens, _field = serialize.polyvectors_from_obj(_load_json(args.file))
    datum = quotmod.module_from_generators(n, r, gens, degree_cap=args.degree_cap)
    return serialize.datum_to_obj(datum), True


# ---------------------------------------------------------------- monad


def cmd_monad_build(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    obj: dict = {
        "schema": "monad-maps@1",
        "alpha0": serialize.form_matrix_to_obj(monad.alpha0(x)),
        "alpha_minus1": serialize.form_matrix_to_obj(monad.alpha_minus1(x)),
    }
    if x.n == 3:
        obj["alpha_minus2"] = serialize.form_matrix_to_obj(monad.alpha_minus2_p3(x))
    return obj, True


def cmd_monad_check(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    comp = monad.compose(monad.alpha0(x), monad.alpha_minus1(x))
    zero = comp.is_zero()
    obj: dict = {"schema": "monad-check@1", "composition_zero": zero}
    if not zero:
        obj["commutator_residuals"] = _commutator_residuals(x)
    if x.n == 3:
        comp2 = monad.compose(monad.alpha_minus1(x), monad.alpha_minus2_p3(x))
        obj["depth2_composition_zero"] = comp2.is_zero()
        zero = zero and comp2.is_zero()
    return obj, zero


def cmd_monad_rank(args) -> tuple[Any, bool]:
    _require_at_least("--samples", args.samples, 0)
    x = _load_datum(args.file)
    if args.point is None and args.seed is None:
        raise serialize.FormatError("sampling mode needs an explicit --seed")
    if args.point is not None:
        coords = [serialize.parse_scalar(x.field, s.strip()) for s in args.point.split(",")]
        report = monad.fiber_report(x, coords)
        obj = {
            "schema": "fiber-report@1",
            "point": [x.field.format(z) for z in report.point],
            "term_dims": list(report.term_dims),
            "ranks": report.ranks,
            "middle_dim": report.middle_dim,
            "euler": report.euler,
        }
        return obj, True
    report = monad.rank_sample_report(x, args.samples, args.seed)
    obj = {
        "schema": "rank-sample-report@1",
        "expected_rank": report["expected_rank"],
        "support_complete": report["support_complete"],
        "all_full_rank": report["all_full_rank"],
        "samples": [
            {
                "point": [x.field.format(z) for z in row["point"]],
                "rank": row["rank"],
                "support_point": row["support_point"],
            }
            for row in report["samples"]
        ],
    }
    return obj, True


# ---------------------------------------------------------------- quiver


def cmd_quiver_check(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    rep = quiver.QuiverRep(x)
    theta = serialize.parse_scalar(QQ, args.theta)
    param = quiver.StabilityParameter(theta, -x.c * theta, x.c)
    stable, semistable = quiver.theta_verdicts(rep, param)
    obj = {
        "schema": "quiver-report@1",
        "theta": str(param.theta),
        "theta_inf": str(param.theta_inf),
        "theta_stable": stable,
        "theta_semistable": semistable,
        "adhm_stable": adhm.is_stable(x),
    }
    return obj, True


# ---------------------------------------------------------------- path


def cmd_path_run(args) -> tuple[Any, bool]:
    x = _load_datum(args.file)
    t = serialize.parse_scalar(x.field, args.t)
    point = punctual.homotopy_path(x, t, experimental=args.experimental)
    return serialize.datum_to_obj(point), True


def cmd_path_verify(args) -> tuple[Any, bool]:
    k = args.grid
    _require_at_least("--grid", k, 1)
    x = _load_datum(args.file)
    if not x.field.coerce(k):
        raise serialize.FormatError(
            f"--grid {k} is a multiple of the characteristic of {x.field}, "
            f"where 1/{k} does not exist"
        )
    step = x.field.one() / x.field.coerce(k)
    grid = [x.field.coerce(i) * step for i in range(k + 1)]
    report = punctual.verify_path(x, grid, experimental=args.experimental)
    rows = [
        {
            "t": str(s.t),
            "stable": s.stable,
            "commuting": s.commuting,
            "nilpotent": s.nilpotent,
        }
        for s in report.samples
    ]
    ok = report.endpoint_equivalent and all(
        s.stable and s.commuting and (s.nilpotent or not report.input_nilpotent)
        for s in report.samples
    )
    obj = {
        "schema": "path-report@1",
        "grid": rows,
        "endpoint_equivalent": report.endpoint_equivalent,
        "permutation": list(report.permutation),
        "input_nilpotent": report.input_nilpotent,
        "passed": ok,
    }
    return obj, (ok or args.experimental)


# ---------------------------------------------------------------- dim


def cmd_dim_experiment(args) -> tuple[Any, bool]:
    _require_shape(args)
    _require_at_least("--trials", args.trials, 0)
    result = geometry.dimension_experiment(
        args.n, args.c, args.r,
        punctual=args.punctual, trials=args.trials, seed=args.seed,
    )
    obj = {
        "schema": "dimension-experiment@1",
        "n": args.n,
        "c": args.c,
        "r": args.r,
        "punctual": args.punctual,
        "trials": result.trials,
        "tangent_min": result.tangent_min,
        "tangent_max": result.tangent_max,
        "histogram": {str(k): v for k, v in sorted(result.histogram.items())},
        "moduli_histogram": {str(k): v for k, v in sorted(result.moduli_histogram.items())},
    }
    return obj, True


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adhmquot",
        description="Exact ADHM data, monads and dimension experiments for "
        "Quot schemes of points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="flags of a datum (commuting/stable/nilpotent)")
    p.add_argument("file")
    p.add_argument("--stable", action="store_true", help="require stability")
    p.add_argument("--nilpotent", action="store_true", help="require nilpotency")
    p.add_argument("--adhm", action="store_true", help="require commutation")
    p.add_argument("--manifest", action="store_true", help="treat FILE as a manifest of paths")
    p.set_defaults(handler="cmd_check", summary="datum check")

    p = sub.add_parser("support", help="joint spectrum of a commuting datum")
    p.add_argument("file")
    p.set_defaults(handler="cmd_support", summary="support")

    p = sub.add_parser("equiv", help="GL-equivalence witness between two data")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(handler="cmd_equiv", summary="equivalence")

    p = sub.add_parser("gen", help="generate a random commuting datum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stable", action="store_true")
    group.add_argument("--unstable", action="store_true")
    p.add_argument("--nilpotent", action="store_true")
    p.add_argument("--entry-bound", type=int, default=3)
    p.add_argument("--prime", type=int, default=None, help="prime-field modulus")
    p.set_defaults(handler="cmd_gen", summary="generated datum")

    p = sub.add_parser("quot", help="kernel presentation / quotient reconstruction")
    qsub = p.add_subparsers(dest="quot_command", required=True)
    q = qsub.add_parser("present", help="kernel basis of the evaluation map")
    q.add_argument("file")
    q.add_argument("--degree", type=int, default=None, help="degree bound (default c)")
    q.set_defaults(handler="cmd_quot_present", summary="kernel basis")
    q = qsub.add_parser("build", help="multiplication matrices from generators")
    q.add_argument("file")
    q.add_argument("--degree-cap", type=int, default=None)
    q.set_defaults(handler="cmd_quot_build", summary="reconstructed datum")

    p = sub.add_parser("monad", help="monad maps: build, composition check, ranks")
    msub = p.add_subparsers(dest="monad_command", required=True)
    m = msub.add_parser("build", help="emit the linear-form matrices")
    m.add_argument("file")
    m.set_defaults(handler="cmd_monad_build", summary="monad maps")
    m = msub.add_parser("check", help="verify the compositions vanish")
    m.add_argument("file")
    m.set_defaults(handler="cmd_monad_check", summary="monad composition")
    m = msub.add_parser("rank", help="fiberwise ranks at a point or sampled points")
    m.add_argument("file")
    m.add_argument(
        "--point", default=None,
        help="comma-separated homogeneous coordinates, e.g. --point=-1,2,0,1",
    )
    m.add_argument("--samples", type=int, default=32)
    m.add_argument("--seed", type=int, default=None, help="required in sampling mode")
    m.set_defaults(handler="cmd_monad_rank", summary="fiber ranks")

    p = sub.add_parser("quiver", help="theta-stability of the associated representation")
    qsub = p.add_subparsers(dest="quiver_command", required=True)
    q = qsub.add_parser("check")
    q.add_argument("file")
    q.add_argument("--theta", required=True, help="rational theta, e.g. --theta=-2/3")
    q.set_defaults(handler="cmd_quiver_check", summary="quiver stability")

    p = sub.add_parser("path", help="the contraction path onto the basepoint")
    psub = p.add_subparsers(dest="path_command", required=True)
    q = psub.add_parser("run", help="evaluate the path at one parameter value")
    q.add_argument("file")
    q.add_argument("--t", required=True, help="parameter p or p/q in the datum's field")
    q.add_argument("--experimental", action="store_true", help="allow r != c")
    q.set_defaults(handler="cmd_path_run", summary="path point")
    q = psub.add_parser("verify", help="flags of the path on a uniform grid")
    q.add_argument("file")
    q.add_argument("--grid", type=int, default=64,
                   help="number of subintervals (over GF(p), not a multiple of p)")
    q.add_argument("--experimental", action="store_true", help="allow r != c")
    q.set_defaults(handler="cmd_path_verify", summary="path verification")

    p = sub.add_parser("dim", help="tangent-dimension experiments")
    dsub = p.add_subparsers(dest="dim_command", required=True)
    d = dsub.add_parser("experiment")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--c", type=int, required=True)
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--punctual", action="store_true")
    d.add_argument("--trials", type=int, required=True)
    d.add_argument("--seed", type=int, required=True)
    d.set_defaults(handler="cmd_dim_experiment", summary="dimension experiment")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first ``main`` call of a process.

    Later calls reuse it; each parses its own argv into a fresh namespace,
    so nothing carries from one call to the next.  The tree stores handler
    names, which ``main`` looks up in this module at call time, so a
    rebound ``cmd_*`` attribute reaches every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, ok = globals()[args.handler](args)
    except ValueError as exc:  # every input error the library raises is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect, not a verdict: keep it off exit 1
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(report, f"{args.summary}: {'ok' if ok else 'FAILED'}")
    except BrokenPipeError:
        # the rest of the document stays buffered; on devnull the flush at
        # interpreter exit succeeds instead of raising a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK if ok else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
