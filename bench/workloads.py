"""The four benchmark workloads.

Each workload turns a seed into a fixed list of items during set-up; an
item's ``run`` makes the program calls that are timed and returns a small
JSON-able answer (built untimed by ``finish`` when there is one), and its
``check`` returns what is wrong with that answer against the paper's claim
(empty when nothing is).

Program functions are always called through their module (``monad.alpha0``,
not a name imported from it), so that the traced run's rebinding of module
attributes reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from adhmquot import adhm, cli, exactalg, geometry, monad, punctual, quiver, quotmod

PRIME = 32003
PATH_GRID = tuple(Fraction(k, 64) for k in range(65))

# acceptance grids (README "Acceptance criteria")
ROUNDTRIP_GRID = [(n, c, r) for n in (1, 2, 3) for c in (1, 2, 3, 4) for r in (1, 2, 3)]
MONAD_GRID = [(n, c, r) for n in (2, 3, 4) for c in (1, 2, 3, 4, 5) for r in (1, 2, 3)]
GENERIC_GRID = [(2, c, r) for c in (1, 2, 3, 4) for r in (1, 2, 3)]
PUNCTUAL_GRID = [(n, c, r) for n in (2, 3, 4) for c in (2, 3) for r in (1, 2, 3)]
PATH_GRID_SHAPES = [(n, c) for n in (1, 2, 3) for c in (1, 2, 3, 4)]

# A sweep covers a workload's grid once with its own data; more sweeps give
# steadier percentiles across seeds.  The round trip gets fewer because its
# (3, 4, 3) items take about 4 s each.
SWEEPS = 6
ROUNDTRIP_SWEEPS = 3


@dataclass
class Item:
    label: str
    sweep: int  # items of one sweep cover the workload's grid once
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # untimed: turns what ``run`` returned into the answer, adding to counters
    finish: Callable[[Any, Counter], Any] | None = None


def _seeds(workload: str, seed: int):
    """Per-item seeds drawn from the workload seed; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 30)


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ------------------------------------------------------------- roundtrip_cli


def _cli(argv: list[str], out: Path) -> int:
    """cli.main in process, its stdout document written to ``out``."""
    err = io.StringIO()
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 2


def roundtrip_cli(seed: int, work: Path) -> list[Item]:
    """quot present -> quot build -> equiv through cli.main, files in ``work``."""
    items = []
    seeds = _seeds("roundtrip_cli", seed)
    for k in range(ROUNDTRIP_SWEEPS * len(ROUNDTRIP_GRID)):
        n, c, r = ROUNDTRIP_GRID[k % len(ROUNDTRIP_GRID)]
        x_path = work / f"x{k}.json"
        argv = ["gen", "--n", str(n), "--c", str(c), "--r", str(r), "--stable",
                "--seed", str(next(seeds))]
        if _cli(argv, x_path) != 0:
            raise RuntimeError(f"input generation failed: adhmquot {' '.join(argv)}")
        items.append(_roundtrip_cli_item(k, n, c, r, x_path, work))
    return items


def _roundtrip_cli_item(k, n, c, r, x_path: Path, work: Path) -> Item:
    k_path, y_path, e_path = (work / f"{name}{k}.json" for name in ("k", "y", "e"))

    def run():
        return [
            _cli(["quot", "present", str(x_path)], k_path),
            _cli(["quot", "build", str(k_path)], y_path),
            _cli(["equiv", str(x_path), str(y_path)], e_path),
        ]

    def finish(codes, counters: Counter):
        docs = []
        for path in (k_path, y_path, e_path):
            text = path.read_text(encoding="utf-8")
            counters["serialize.bytes"] += len(text.encode("utf-8"))
            docs.append(json.loads(text) if text.strip() else None)
        kernel, rebuilt, equiv = docs
        return {
            "exit_codes": codes,
            "kernel_gens": len(kernel["generators"]) if kernel else None,
            "c": rebuilt["c"] if rebuilt else None,
            "equivalent": equiv["equivalent"] if equiv else None,
        }

    def check(ans) -> list[str]:
        problems: list[str] = []
        _expect(problems, ans["exit_codes"] == [0, 0, 0], f"exit codes {ans['exit_codes']}")
        _expect(problems, ans["c"] == c, f"rebuilt c = {ans['c']}, want {c}")
        _expect(problems, ans["equivalent"] is True, "round trip not equivalent")
        _expect(problems, bool(ans["kernel_gens"]), "empty kernel presentation")
        return problems

    return Item(f"roundtrip({n},{c},{r})#{k}", k // len(ROUNDTRIP_GRID), run, check, finish)


# ------------------------------------------------------------- monad_support


def monad_support(seed: int, work: Path) -> list[Item]:
    """Criterion-2 grid, alternately stable and unstable."""
    items = []
    seeds = _seeds("monad_support", seed)
    for k in range(SWEEPS * len(MONAD_GRID)):
        n, c, r = MONAD_GRID[k % len(MONAD_GRID)]
        want_stable = k % 2 == 0
        x = adhm.random_datum(n, c, r, seed=next(seeds), stable=want_stable)
        points = monad.sample_points(x, 32, seed=next(seeds))
        items.append(_monad_item(k, x, points, want_stable))
    return items


def _fmt_point(field, pt) -> list[str]:
    return [field.format(z) for z in pt]


def _monad_item(k, x, points, want_stable: bool) -> Item:
    n, c, r = x.n, x.c, x.r
    one = x.field.one()

    def run():
        a0 = monad.alpha0(x)
        am1 = monad.alpha_minus1(x)
        compose_zero = monad.compose(a0, am1).is_zero()
        depth2_zero = euler = None
        if n == 3:
            depth2_zero = monad.compose(am1, monad.alpha_minus2_p3(x)).is_zero()
            euler = monad.fiber_report(x, points[0]).euler
        stable = adhm.is_stable(x)
        cert = monad.surjectivity_certificate(x)
        sup = punctual.support(x)
        at = list(points) + [tuple(pt) + (one,) for pt, _ in sup.points]
        ranks = [exactalg.rank(monad.evaluate(a0, pt)) for pt in at]
        witness_rank = annihilates = None
        if cert.witness_available:
            m = monad.evaluate(a0, cert.witness_point)
            witness_rank = exactalg.rank(m)
            w = cert.witness_covector
            annihilates = all(
                sum((w[a] * m.entry(a, col) for a in range(c)), x.field.zero()) == 0
                for col in range(m.cols)
            )
        return {
            "compose_zero": compose_zero,
            "depth2_zero": depth2_zero,
            "euler": euler,
            "stable": stable,
            "surjective": cert.surjective,
            "witness": cert.witness_available,
            "witness_rank": witness_rank,
            "witness_annihilates": annihilates,
            "ranks": ranks,
            "support": [[_fmt_point(x.field, pt), mult] for pt, mult in sup.points],
            "support_complete": sup.complete,
        }

    def check(ans) -> list[str]:
        problems: list[str] = []
        _expect(problems, ans["compose_zero"] is True, "alpha0 o alpha_minus1 != 0")
        if n == 3:
            _expect(problems, ans["depth2_zero"] is True, "alpha_minus1 o alpha_minus2 != 0")
            _expect(problems, ans["euler"] == r, f"Euler characteristic {ans['euler']} != r")
        _expect(
            problems, ans["surjective"] == ans["stable"] == want_stable,
            f"certificate {ans['surjective']}, is_stable {ans['stable']}, "
            f"intended {want_stable}",
        )
        if want_stable:
            _expect(problems, all(rk == c for rk in ans["ranks"]), f"rank drop {ans['ranks']}")
        if ans["witness"]:
            _expect(problems, ans["witness_rank"] < c, "no rank drop at the witness point")
            _expect(problems, ans["witness_annihilates"], "witness covector does not annihilate")
        total = sum(mult for _, mult in ans["support"])
        _expect(
            problems, total == c if ans["support_complete"] else total < c,
            f"support multiplicities sum to {total} (complete={ans['support_complete']})",
        )
        return problems

    label = f"monad({n},{c},{r},{'stable' if want_stable else 'unstable'})#{k}"
    return Item(label, k // len(MONAD_GRID), run, check)


# ------------------------------------------------------------- punctual_dims


def punctual_dims(seed: int, work: Path) -> list[Item]:
    """Generic n = 2 and punctual moduli dimensions, then contraction paths."""
    items = []
    seeds = _seeds("punctual_dims", seed)
    generic = geometry.EquationSystem(commutators=True)
    nilpotent = geometry.EquationSystem(commutators=True, nilpotent=True)
    for sweep in range(SWEEPS):
        for n, c, r in GENERIC_GRID:
            x = geometry.sample_generic_commuting(n, c, r, random.Random(next(seeds)))
            label = f"generic({n},{c},{r})#{sweep}"
            items.append(_dimension_item(label, sweep, x, generic, c * (r + 1)))
        for n, c, r in PUNCTUAL_GRID:
            x = geometry.sample_punctual(n, c, r, random.Random(next(seeds)))
            want = 2 * r + n - 3 if c == 2 else 2 * n + 3 * r - 5
            label = f"punctual({n},{c},{r})#{sweep}"
            items.append(_dimension_item(label, sweep, x, nilpotent, want))
        for n, c in PATH_GRID_SHAPES:
            x = adhm.random_datum(n, c, c, seed=next(seeds), stable=True, nilpotent=True)
            items.append(_path_item(sweep, x))
    return items


def _dimension_item(label: str, sweep: int, x, system, want: int) -> Item:
    def run():
        return {"moduli_dim": geometry.moduli_dimension_estimate(x, system)}

    def check(ans) -> list[str]:
        got = ans["moduli_dim"]
        return [] if got == want else [f"moduli dimension {got}, want {want}"]

    return Item(label, sweep, run, check)


def _path_item(sweep, x) -> Item:
    def run():
        report = punctual.verify_path(x, PATH_GRID)
        endpoint = punctual.homotopy_path(x, Fraction(1))
        target = punctual.reindex_vectors(x, punctual.path_permutation(x))
        return {
            "points": len(report.samples),
            "all_flags": report.all_flags(),
            "endpoint_equivalent": report.endpoint_equivalent,
            "endpoint_matches_input": adhm.equivalence(endpoint, target) is not None,
            "permutation": list(report.permutation),
        }

    def check(ans) -> list[str]:
        problems: list[str] = []
        _expect(problems, ans["points"] == len(PATH_GRID), f"{ans['points']} path samples")
        _expect(problems, ans["all_flags"], "a path sample left the stable nilpotent locus")
        _expect(problems, ans["endpoint_equivalent"], "report: endpoint not equivalent")
        _expect(problems, ans["endpoint_matches_input"], "endpoint not equivalent to the input")
        return problems

    return Item(f"path({x.n},{x.c})#{sweep}", sweep, run, check)


# ------------------------------------------------------------- prime_field


def prime_field(seed: int, work: Path) -> list[Item]:
    """GF(32003) round trip through library calls, then the quiver lemma."""
    items = []
    seeds = _seeds("prime_field", seed)
    field = exactalg.GF(PRIME)
    for sweep in range(SWEEPS):
        for n, c, r in ROUNDTRIP_GRID:
            x = adhm.random_datum(n, c, r, seed=next(seeds), stable=True, field=field)
            items.append(_roundtrip_item(sweep, x))
        for k in range(40):
            p = 2 if k < 20 else 3
            c, r = k % 3 + 1, k % 2 + 1
            x = adhm.random_datum(2, c, r, seed=next(seeds), field=exactalg.GF(p))
            items.append(_quiver_item(sweep, p, x))
    return items


def _roundtrip_item(sweep, x) -> Item:
    def run():
        gens = quotmod.kernel_basis_up_to_degree(x, x.c)
        y = quotmod.module_from_generators(x.n, x.r, gens, degree_cap=x.c + 2)
        return {
            "kernel_gens": len(gens),
            "c": y.c,
            "equivalent": adhm.equivalence(x, y) is not None,
        }

    def check(ans) -> list[str]:
        problems: list[str] = []
        _expect(problems, ans["c"] == x.c, f"rebuilt c = {ans['c']}, want {x.c}")
        _expect(problems, ans["equivalent"], "round trip not equivalent")
        _expect(problems, ans["kernel_gens"] > 0, "empty kernel presentation")
        return problems

    return Item(f"gf_roundtrip({x.n},{x.c},{x.r})#{sweep}", sweep, run, check)


def _quiver_item(sweep, p, x) -> Item:
    def run():
        report = quiver.check_lemma(quiver.QuiverRep(x), Fraction(-1))
        return {"definition_stable": report.definition_stable,
                "krylov_stable": report.krylov_stable}

    def check(ans) -> list[str]:
        if ans["definition_stable"] == ans["krylov_stable"]:
            return []
        return [f"slope verdict {ans['definition_stable']} != stability {ans['krylov_stable']}"]

    return Item(f"quiver(GF({p}),{x.c},{x.r})#{sweep}", sweep, run, check)


WORKLOADS: dict[str, Callable[[int, Path], list[Item]]] = {
    "roundtrip_cli": roundtrip_cli,
    "monad_support": monad_support,
    "punctual_dims": punctual_dims,
    "prime_field": prime_field,
}
