from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest

import adhmquot
from adhmquot import cli, geometry, punctual
from adhmquot.cli import main
from adhmquot.exactalg import PrimeField, RationalField


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def gen_file(tmp_path, capsys, name, *flags):
    code, doc, _ = run(capsys, "gen", *flags)
    assert code == 0
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_gen_exhausts_its_retries_with_one_line(capsys):
    # with every entry zero no draw is stable, so all MAX_RETRIES draws fail
    code, doc, err = run(capsys, "gen", "--n", "2", "--c", "2", "--r", "1", "--stable",
                         "--entry-bound", "0", "--seed", "0")
    assert code == 2 and doc is None
    assert err.splitlines() == ["error: could not draw a datum with flags stable=True "
                                "nilpotent=False for (n, c, r) = (2, 2, 1) in 64 tries"]


def test_gen_is_deterministic(capsys):
    args = ["gen", "--n", "3", "--c", "2", "--r", "2", "--nilpotent", "--seed", "7"]
    code1 = main(args)
    out1, _ = capsys.readouterr()
    code2 = main(args)
    out2, _ = capsys.readouterr()
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_exit_codes(tmp_path, capsys):
    stable = gen_file(tmp_path, capsys, "s.json",
                      "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "1")
    code, doc, _ = run(capsys, "check", str(stable), "--stable")
    assert code == 0 and doc["passed"] and doc["is_stable"]
    unstable = gen_file(tmp_path, capsys, "u.json",
                        "--n", "2", "--c", "3", "--r", "1", "--unstable", "--seed", "2")
    code, doc, _ = run(capsys, "check", str(unstable), "--stable")
    assert code == 1 and not doc["passed"]
    code, doc, _ = run(capsys, "check", str(unstable))
    assert code == 0  # report-only mode never fails


def test_check_manifest(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "a.json",
                 "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "3")
    b = gen_file(tmp_path, capsys, "b.json",
                 "--n", "2", "--c", "2", "--r", "1", "--unstable", "--seed", "4")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"schema": "manifest@1", "paths": [str(a), str(b)]}))
    code, doc, _ = run(capsys, "check", str(manifest), "--manifest", "--stable")
    assert code == 1
    assert [item["passed"] for item in doc["items"]] == [True, False]


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,,}')
    code = main(["check", str(bad)])
    _, err = capsys.readouterr()
    assert code == 2
    assert "line 1" in err and "column" in err


def test_shape_mismatch_is_usage_error(tmp_path, capsys):
    doc = {"schema": "adhm-datum@1", "n": 2, "c": 2, "r": 1,
           "B": [[["0", "0"], ["0", "0"]]], "v": [["1", "0"]]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    capsys.readouterr()
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code = main(["check", "/nonexistent/x.json"])
    capsys.readouterr()
    assert code == 2


def test_quot_present_build_equiv_pipeline(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "x.json",
                   "--n", "2", "--c", "3", "--r", "2", "--stable", "--seed", "5")
    code, pres, _ = run(capsys, "quot", "present", str(src))
    assert code == 0 and pres["schema"] == "poly-vectors@1"
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(json.dumps(pres))
    code, rebuilt, _ = run(capsys, "quot", "build", str(pres_path))
    assert code == 0 and rebuilt["c"] == 3
    rebuilt_path = tmp_path / "rebuilt.json"
    rebuilt_path.write_text(json.dumps(rebuilt))
    code, eq, _ = run(capsys, "equiv", str(src), str(rebuilt_path))
    assert code == 0 and eq["equivalent"] and eq["g"] is not None


@pytest.mark.parametrize("command, options, message", [
    ("support", [], "support requires a commuting datum"),
    ("quot present", [], "the matrices do not commute"),
    ("path run", ["--t", "1/2"], "the path scales a commuting tuple"),
    ("path verify", [], "the path scales a commuting tuple"),
    ("quiver check", ["--theta=-1"], "quiver relations require commuting loop maps"),
    ("monad rank", ["--seed", "1"], "support requires a commuting datum"),
], ids=["support", "quot-present", "path-run", "path-verify", "quiver-check", "monad-rank"])
def test_quot_present_noncommuting_is_usage_error(tmp_path, capsys, command, options, message):
    # r = c = 4, so the path gets past its r = c check; B_1 B_0 e_1 = e_4 but B_0 B_1 e_1 = 0
    unit = [["1" if j == i else "0" for j in range(4)] for i in range(4)]
    zero = ["0"] * 4
    doc = {
        "schema": "adhm-datum@1", "n": 2, "c": 4, "r": 4,
        "B": [[zero, unit[0], zero, zero], [zero, zero, unit[0], unit[1]]],
        "v": unit,
    }
    path = tmp_path / "nc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command.split(), str(path), *options)
    assert (code, out, err) == (2, None, f"error: {message}\n")


def test_quot_build_infinite_quotient_is_usage_error(tmp_path, capsys):
    doc = {
        "schema": "poly-vectors@1",
        "n": 2,
        "r": 1,
        "generators": [[{"alpha": [2, 0], "j": 1, "coeff": "1"}]],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code = main(["quot", "build", str(path), "--degree-cap", "5"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "degree cap" in err


def test_quot_build_degree_cap_zero_stays_legal(tmp_path, capsys):
    # the unit generates everything: degree 0 already has no standard monomial
    doc = {
        "schema": "poly-vectors@1",
        "n": 2,
        "r": 1,
        "generators": [[{"alpha": [0, 0], "j": 1, "coeff": "1"}]],
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "quot", "build", str(path), "--degree-cap", "0")
    assert code == 0 and out["c"] == 0 and out["v"] == [[]]


def test_equiv_failure_exit(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "e1.json",
                 "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "6")
    b = gen_file(tmp_path, capsys, "e2.json",
                 "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "7")
    code, doc, _ = run(capsys, "equiv", str(a), str(b))
    assert code in (0, 1)
    if code == 1:
        assert not doc["equivalent"] and doc["g"] is None


def test_equiv_of_a_missed_unstable_search_exits_2_with_one_line(capsys):
    # an equivalent GF(2) pair, c = 21, whose intertwiner search misses
    x, y = sorted(str(p) for p in Path(__file__).parent.glob("data/gf2_jordan_c21_*.json"))
    assert _captured(["equiv", x, y]) == (2, "", (
        "error: equivalence is undecided for an unstable datum: "
        "no invertible intertwiner found, and none ruled out\n"))


def test_monad_check_perturbed(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "m.json",
                   "--n", "2", "--c", "2", "--r", "1", "--seed", "8")
    doc = json.loads(src.read_text())
    perturbed = tmp_path / "pert.json"
    code = rep = None
    for i in range(2):
        for a in range(2):
            for b in range(2):
                bumped = json.loads(src.read_text())
                entry = bumped["B"][i][a][b]
                bumped["B"][i][a][b] = "1" if "/" in entry else str(int(entry) + 1)
                perturbed.write_text(json.dumps(bumped))
                code, rep, _ = run(capsys, "monad", "check", str(perturbed))
                if not rep["composition_zero"]:
                    assert code == 1
                    assert rep["commutator_residuals"]
                    return
    pytest.fail("no single-entry perturbation broke commutation")


def test_monad_build_and_rank(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "mb.json",
                   "--n", "3", "--c", "2", "--r", "1", "--stable", "--seed", "9")
    code, doc, _ = run(capsys, "monad", "build", str(src))
    assert code == 0
    assert doc["alpha0"]["rows"] == 2 and doc["alpha0"]["cols"] == 7
    assert "alpha_minus2" in doc
    code, doc, _ = run(capsys, "monad", "rank", str(src), "--point", "1,2,3,1")
    assert code == 0 and doc["euler"] == 1
    code, doc, _ = run(capsys, "monad", "rank", str(src), "--samples", "6", "--seed", "0")
    assert code == 0 and doc["all_full_rank"]


def test_support_cli(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "n.json",
                   "--n", "2", "--c", "2", "--r", "1", "--nilpotent", "--seed", "10")
    code, doc, _ = run(capsys, "support", str(src))
    assert code == 0 and doc["complete"]
    assert doc["points"] == [{"point": ["0", "0"], "multiplicity": 2}]


def test_quiver_cli(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "q.json",
                   "--n", "2", "--c", "2", "--r", "2", "--stable", "--seed", "11",
                   "--prime", "3")
    code, doc, _ = run(capsys, "quiver", "check", str(src), "--theta", "-1")
    assert code == 0
    assert doc["theta_stable"] and doc["adhm_stable"]
    assert doc["theta_inf"] == "2"


def test_negative_values_need_the_equals_form(tmp_path, capsys):
    quiv = gen_file(tmp_path, capsys, "q.json",
                    "--n", "2", "--c", "2", "--r", "2", "--stable", "--seed", "11",
                    "--prime", "3")
    mon = gen_file(tmp_path, capsys, "m.json",
                   "--n", "3", "--c", "2", "--r", "1", "--stable", "--seed", "4")
    code, doc, _ = run(capsys, "quiver", "check", str(quiv), "--theta=-2/3")
    assert code == 0 and doc["theta"] == "-2/3"
    code, doc, _ = run(capsys, "monad", "rank", str(mon), "--point=-1,2,0,1")
    assert code == 0 and doc["point"] == ["-1", "2", "0", "1"]
    # a value starting with "-" that is not a plain number reads as an option
    for argv, option in (
        (["quiver", "check", str(quiv), "--theta", "-2/3"], "--theta"),
        (["monad", "rank", str(mon), "--point", "-1,2,0,1"], "--point"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        lines = err.strip().splitlines()
        assert lines[0].startswith("usage:")
        assert lines[-1].endswith(f"argument {option}: expected one argument")


def test_path_cli(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "p.json",
                   "--n", "2", "--c", "2", "--r", "2", "--stable", "--nilpotent",
                   "--seed", "12")
    code, doc, _ = run(capsys, "path", "run", str(src), "--t", "1/2")
    assert code == 0 and doc["schema"] == "adhm-datum@1"
    code, doc, _ = run(capsys, "path", "verify", str(src), "--grid", "8")
    assert code == 0 and doc["passed"]
    assert len(doc["grid"]) == 9
    # r != c without the experimental flag is an input error
    other = gen_file(tmp_path, capsys, "p2.json",
                     "--n", "2", "--c", "3", "--r", "2", "--stable", "--nilpotent",
                     "--seed", "13")
    code = main(["path", "verify", str(other), "--grid", "4"])
    capsys.readouterr()
    assert code == 2
    code, doc, _ = run(capsys, "path", "verify", str(other), "--grid", "4",
                       "--experimental")
    assert code == 0  # experimental reports without enforcing


def test_path_cli_prime_field(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "pp.json",
                   "--prime", "32003", "--n", "2", "--c", "3", "--r", "3",
                   "--stable", "--nilpotent", "--seed", "5")
    code, doc, _ = run(capsys, "path", "verify", str(src), "--grid", "4")
    assert code == 0 and doc["passed"]
    # i/4 in GF(32003): 1/4 = 8001, 1/2 = 16002, 3/4 = 24003
    assert [row["t"] for row in doc["grid"]] == ["0", "8001", "16002", "24003", "1"]
    code, doc, _ = run(capsys, "path", "run", str(src), "--t=1/2")
    assert code == 0 and doc["field"] == {"prime": 32003}
    half = tmp_path / "half.json"
    half.write_text(json.dumps(doc))
    code, doc, _ = run(capsys, "check", str(half), "--adhm", "--stable", "--nilpotent")
    assert code == 0 and doc["passed"]


@pytest.mark.parametrize("prime,grid", [("2", "3"), ("3", "4")])
def test_path_verify_small_prime_grid(tmp_path, capsys, prime, grid):
    src = gen_file(tmp_path, capsys, "small.json",
                   "--prime", prime, "--n", "2", "--c", "3", "--r", "3",
                   "--stable", "--nilpotent", "--seed", "1")
    code, doc, _ = run(capsys, "path", "verify", str(src), "--grid", grid)
    assert code == 0 and doc["passed"] and len(doc["grid"]) == int(grid) + 1


@pytest.mark.parametrize("prime,grid", [("2", "64"), ("2", "4"), ("3", "6")])
def test_path_verify_refuses_grid_divisible_by_p(tmp_path, capsys, prime, grid):
    src = gen_file(tmp_path, capsys, "small.json",
                   "--prime", prime, "--n", "2", "--c", "3", "--r", "3",
                   "--stable", "--nilpotent", "--seed", "1")
    code, doc, err = run(capsys, "path", "verify", str(src), "--grid", grid)
    assert code == 2 and doc is None
    assert err.strip().splitlines() == [
        f"error: --grid {grid} is a multiple of the characteristic of GF({prime}), "
        f"where 1/{grid} does not exist"
    ]


def test_path_run_parses_t_in_the_datum_field(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "small.json",
                   "--prime", "2", "--n", "2", "--c", "3", "--r", "3",
                   "--stable", "--nilpotent", "--seed", "1")
    code, doc, err = run(capsys, "path", "run", str(src), "--t=1/2")
    assert code == 2 and doc is None
    assert err.strip().splitlines() == ["error: bad scalar '1/2': division by zero residue"]


def test_a_rational_zero_denominator_exits_2_with_one_line(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "x.json",
                   "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "1")
    doc = json.loads(src.read_text())
    doc["B"][0][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["path", "run", str(src), "--t", "1/0"], ["check", str(bad)],
                 ["monad", "rank", str(src), "--point", "1/0,0,1"]):
        code, doc, err = run(capsys, *argv)
        assert code == 2 and doc is None
        assert err.splitlines() == ["error: bad scalar '1/0': division by zero"]


def test_the_readme_examples_print_json_dumps_layout(tmp_path):
    # every command of the README's CLI example list: 2-space indent, sorted
    # keys, ASCII escapes and one trailing newline
    x, kernel, y = (str(tmp_path / name) for name in ("X.json", "kernel.json", "Y.json"))
    commands = [
        (["gen", "--n", "3", "--c", "2", "--r", "2", "--stable", "--nilpotent", "--seed", "7"], x),
        (["check", x, "--stable", "--nilpotent"], None),
        (["support", x], None),
        (["monad", "build", x], None),
        (["monad", "check", x], None),
        (["monad", "rank", x, "--samples", "32", "--seed", "0"], None),
        (["monad", "rank", x, "--point=-1,2,0,1"], None),
        (["quot", "present", x], kernel),
        (["quot", "build", kernel], y),
        (["equiv", x, y], None),
        (["quiver", "check", x, "--theta=-2/3"], None),
        (["path", "run", x, "--t", "1/2"], None),
        (["path", "verify", x, "--grid", "64"], None),
        (["dim", "experiment", "--n", "3", "--c", "2", "--r", "1", "--punctual",
          "--trials", "20", "--seed", "1"], None),
    ]
    for argv, target in commands:
        code, out, _ = _captured(argv)
        assert code == 0, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
        if target:
            Path(target).write_text(out)


def _captured(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# gen --nilpotent data over QQ, n <= 3 and c <= 4 with r = c, plus r != c
# shapes, stable and unstable, seeds 0-1
PATH_SWEEP_SHAPES = [(n, c, c) for n in (1, 2, 3) for c in (1, 2, 3, 4)] + [
    (1, 3, 1), (2, 4, 2), (2, 3, 2), (2, 2, 4), (3, 1, 3), (1, 3, 5), (3, 2, 1),
]
# sha256 of the sweep's outcomes, recorded before verify_path stopped forming
# products per sample; a change to any output byte or exit code changes it
PATH_SWEEP_DIGEST = "13147b74dbc19d544844c119ccfb287ee5ac2e192941353c41b2892f7733cf29"


def test_path_outputs_unchanged_over_the_sweep(tmp_path):
    sha = hashlib.sha256()
    src = tmp_path / "sweep.json"
    for n, c, r in PATH_SWEEP_SHAPES:
        for flag in ("--stable", "--unstable"):
            for seed in ("0", "1"):
                gen = ["gen", "--n", str(n), "--c", str(c), "--r", str(r), "--nilpotent",
                       flag, "--seed", seed]
                outcome = _captured(gen)
                sha.update(repr((gen, outcome)).encode())
                if outcome[0] != 0:
                    continue
                src.write_text(outcome[1])
                for command in (["verify", "--grid", "64"],
                                ["verify", "--grid", "64", "--experimental"],
                                ["run", "--t=1/2"]):
                    outcome = _captured(["path", command[0], str(src), *command[1:]])
                    sha.update(repr((command, outcome)).encode())
    assert sha.hexdigest() == PATH_SWEEP_DIGEST


GEN_SWEEP_FIELDS = ([], ["--prime", "3"], ["--prime", "32003"])
GEN_SWEEP_FLAGS = ([], ["--stable"], ["--unstable"], ["--nilpotent"],
                   ["--stable", "--nilpotent"], ["--unstable", "--nilpotent"])
# sha256 of every gen outcome over the fields, flag sets, n <= 3, c <= 4,
# r <= 3 and seeds 0-1, then of the samplers' draws; recorded before the
# samplers built their integer matrices from the drawn ints
GEN_SWEEP_DIGEST = "df719a6c50d8d87826c9a83a5d059352ecc6672876d138353894460a5b3f3c90"


def test_gen_and_sampler_outputs_unchanged_over_the_sweep():
    sha = hashlib.sha256()
    for field in GEN_SWEEP_FIELDS:
        for flags in GEN_SWEEP_FLAGS:
            for n, c, r in product((1, 2, 3), (0, 1, 2, 3, 4), (1, 2, 3)):
                for seed in ("0", "1"):
                    gen = ["gen", *field, "--n", str(n), "--c", str(c), "--r", str(r),
                           *flags, "--seed", seed]
                    sha.update(repr((gen, _captured(gen))).encode())
    draws = [(geometry.sample_punctual, n, c, r, seed)
             for n, c, r, seed in product((1, 2, 3), (1, 2, 3), (1, 2, 3), range(4))]
    draws += [(geometry.sample_generic_commuting, n, c, r, seed)
              for n, c, r, seed in product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3), range(3))]
    for sampler, n, c, r, seed in draws:
        try:
            outcome = repr(sampler(n, c, r, random.Random(seed)))
        except geometry.SamplerError as exc:
            outcome = repr(exc)
        sha.update(repr((sampler.__name__, n, c, r, seed, outcome)).encode())
    assert sha.hexdigest() == GEN_SWEEP_DIGEST


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_path_verify_rejects_nonpositive_grid(tmp_path, capsys, grid):
    src = gen_file(tmp_path, capsys, "g.json",
                   "--n", "2", "--c", "2", "--r", "2", "--stable", "--nilpotent",
                   "--seed", "12")
    code, doc, err = run(capsys, "path", "verify", str(src), "--grid", grid)
    assert code == 2 and doc is None
    assert err.strip().splitlines() == [f"error: --grid must be at least 1, got {grid}"]


def test_check_large_prime_field(tmp_path, capsys):
    doc = {"schema": "adhm-datum@1", "field": {"prime": 1000000000000000003},
           "n": 1, "c": 2, "r": 1, "B": [[["0", "1"], ["0", "0"]]], "v": [["0", "1"]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, "check", str(path), "--stable")
    assert code == 0 and report["is_stable"]
    doc["field"] = {"prime": 10**30 + 57}
    path.write_text(json.dumps(doc))
    code, report, err = run(capsys, "check", str(path))
    assert code == 2 and report is None
    assert "too large" in err


def test_path_run_output_feeds_check(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "pp.json",
                   "--n", "2", "--c", "3", "--r", "3", "--stable", "--nilpotent",
                   "--seed", "15")
    code, doc, _ = run(capsys, "path", "run", str(src), "--t", "3/4")
    assert code == 0
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps(doc))
    code, rep, _ = run(capsys, "check", str(mid), "--stable", "--nilpotent", "--adhm")
    assert code == 0 and rep["passed"]


def test_dim_cli(capsys):
    code, doc, _ = run(capsys, "dim", "experiment", "--n", "3", "--c", "2", "--r", "1",
                       "--punctual", "--trials", "4", "--seed", "1")
    assert code == 0
    assert doc["tangent_min"] == 3 + 1 + 2
    assert doc["moduli_histogram"] == {"2": 4}


def test_reports_reparse(tmp_path, capsys):
    src = gen_file(tmp_path, capsys, "r.json",
                   "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "14")
    for argv in (
        ["check", str(src)],
        ["support", str(src)],
        ["monad", "check", str(src)],
        ["quot", "present", str(src)],
    ):
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("raw", ["1_000", " 2e3 ", "1.5", "1e1000000000"])
def test_loose_scalars_are_rejected_before_parsing(tmp_path, capsys, monkeypatch, raw):
    src = gen_file(tmp_path, capsys, "s.json",
                   "--n", "2", "--c", "2", "--r", "2", "--stable", "--nilpotent",
                   "--seed", "12", "--prime", "3")
    doc = json.loads(src.read_text())
    doc["v"][0][0] = raw
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))

    def guarded(coerce):
        def checked(self, x):
            if isinstance(x, str) and set(x) - set("-0123456789/"):
                raise AssertionError(f"{x!r} reached the number parser")
            return coerce(self, x)
        return checked

    for cls in (RationalField, PrimeField):
        monkeypatch.setattr(cls, "coerce", guarded(cls.coerce))
    for argv, shown in (
        (["quiver", "check", str(src), f"--theta={raw}"], raw),
        (["path", "run", str(src), f"--t={raw}"], raw),
        (["monad", "rank", str(src), "--point", f"1,{raw},1"], raw.strip()),
        (["check", str(bad_file)], raw),
    ):
        code, report, err = run(capsys, *argv)
        assert code == 2 and report is None
        assert err.splitlines() == [f"error: bad scalar {shown!r}: expected p or p/q"]


def _int_limit(digits: str) -> str:
    """The message of the ValueError that int() raises on digits."""
    with pytest.raises(ValueError) as info:
        int(digits)
    return str(info.value)


LONG_NUMERATOR = "7" * 5000


def _generators_doc(**changes) -> dict:
    """z_0 and z_1 in one slot, a colength-1 quotient, with top-level changes."""
    doc = {"schema": "poly-vectors@1", "n": 2, "r": 1, "generators": [
        [{"alpha": [1, 0], "j": 1, "coeff": "1"}],
        [{"alpha": [0, 1], "j": 1, "coeff": "1"}],
    ]}
    doc.update(changes)
    return doc


def _with_first_term(**changes) -> dict:
    doc = _generators_doc()
    doc["generators"][0][0].update(changes)
    return doc


@pytest.mark.parametrize("doc,message", [
    (_generators_doc(n=None), "n must be an integer, got null"),
    (_generators_doc(n=True), "n must be an integer, got true"),
    (_generators_doc(generators=5), "generators must be a list, got 5"),
    (_with_first_term(alpha=5), "alpha must be a list, got 5"),
    (_with_first_term(j=None), "j must be an integer, got null"),
    (_with_first_term(alpha=[1.5, 0]), "alpha entries must be an integer, got 1.5"),
    (_generators_doc(n=0, generators=[[{"alpha": [], "j": 1, "coeff": "1"}]]),
     "n must be at least 1, got 0"),
    (_generators_doc(field={"prime": None}), "field prime must be an integer, got null"),
    (_with_first_term(coeff="1/0"), "bad scalar '1/0': division by zero"),
    ({**_with_first_term(coeff="1/0"), "field": {"prime": 3}},
     "bad scalar '1/0': division by zero residue"),
    (_with_first_term(coeff="1.5"), "bad scalar '1.5': expected p or p/q"),
    (_with_first_term(coeff=" 1"), "bad scalar ' 1': expected p or p/q"),
    (_with_first_term(coeff="1_0"), "bad scalar '1_0': expected p or p/q"),
    (_with_first_term(coeff=LONG_NUMERATOR),
     f"bad scalar {LONG_NUMERATOR!r}: {_int_limit(LONG_NUMERATOR)}"),
    ({**_with_first_term(coeff=LONG_NUMERATOR + "/2"), "field": {"prime": 3}},
     f"bad scalar {LONG_NUMERATOR + '/2'!r}: {_int_limit(LONG_NUMERATOR)}"),
    (_with_first_term(alpha=[True, 0]), "alpha entries must be an integer, got true"),
    (_with_first_term(j=1.5), "j must be an integer, got 1.5"),
    (_generators_doc(generators=[[{"alpha": [1, 0], "j": 1}]]),
     "term records need alpha, j and coeff"),
    (_generators_doc(generators=[[{"alpha": [1, 0], "j": 1, "coeff": "1"},
                                  {"alpha": [1, 0], "j": 1, "coeff": "2"}]]),
     "duplicate term ((1, 0), 1)"),
    (_with_first_term(alpha=[1]), "bad exponent tuple (1,) for n = 2"),
    (_with_first_term(alpha=[1, -1], coeff="0"), "bad exponent tuple (1, -1) for n = 2"),
    (_with_first_term(j=2), "slot 2 out of range 1..1"),
    # a bad term is reported after its generator parses, a bad scalar at once
    (_generators_doc(generators=[[{"alpha": [1], "j": 1, "coeff": "1"},
                                  {"alpha": [0, 1], "j": 0, "coeff": "1"},
                                  {"alpha": [1, 1], "j": 1, "coeff": "1/0"}]]),
     "bad scalar '1/0': division by zero"),
    (_generators_doc(generators=[[{"alpha": [0, 0], "j": 3, "coeff": "1"},
                                  {"alpha": [1], "j": 1, "coeff": "1"}],
                                 [{"alpha": [0, 1], "j": 1, "coeff": "x"}]]),
     "slot 3 out of range 1..1"),
], ids=["n-null", "n-bool", "generators-int", "alpha-int", "j-null", "alpha-float", "n-zero",
        "prime-null", "coeff-zero-den", "coeff-zero-den-GF3", "coeff-decimal", "coeff-space",
        "coeff-underscore", "coeff-5000-digits", "coeff-5000-digits-GF3", "alpha-bool",
        "j-float", "coeff-missing", "duplicate-term", "alpha-short", "alpha-negative-zero-coeff",
        "slot-range", "bad-scalar-before-bad-term", "first-bad-term-of-its-generator"])
def test_malformed_generator_documents_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc))
    code, report, err = run(capsys, "quot", "build", str(path))
    assert code == 2 and report is None
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("key,value,message", [
    ("field", {"prime": None}, "field prime must be an integer, got null"),
    ("field", {"prime": [3]}, "field prime must be an integer, got [3]"),
    ("c", 2.5, "c must be an integer, got 2.5"),
    ("n", "2", 'n must be an integer, got "2"'),
], ids=["prime-null", "prime-list", "c-float", "n-string"])
def test_malformed_datum_documents_exit_2(tmp_path, capsys, key, value, message):
    src = gen_file(tmp_path, capsys, "s.json",
                   "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "1")
    doc = json.loads(src.read_text())
    doc[key] = value
    src.write_text(json.dumps(doc))
    code, report, err = run(capsys, "check", str(src))
    assert code == 2 and report is None
    assert err.splitlines() == [f"error: {message}"]


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", broken)
    src = gen_file(tmp_path, capsys, "s.json",
                   "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "1")
    code, report, err = run(capsys, "check", str(src))
    assert code == 3 and report is None
    assert err.splitlines() == ["internal error: RuntimeError: boom second line"]


def test_round_trip_does_not_import_sympy(tmp_path):
    # sympy is only needed for rational roots and factor reports, and its
    # import is a large share of a short CLI run
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import adhmquot.exactalg, adhmquot.punctual
        assert "sympy" not in sys.modules
        from adhmquot.cli import main

        def run(argv, out):
            with open(out, "w") as fh, contextlib.redirect_stdout(fh):
                with contextlib.redirect_stderr(io.StringIO()):
                    return main(argv)

        d = {str(tmp_path)!r}
        gen = ["gen", "--n", "2", "--c", "3", "--r", "2", "--stable", "--seed", "5"]
        assert run(gen, d + "/x.json") == 0
        assert run(["quot", "present", d + "/x.json"], d + "/k.json") == 0
        assert run(["quot", "build", d + "/k.json"], d + "/y.json") == 0
        assert run(["equiv", d + "/x.json", d + "/y.json"], d + "/e.json") == 0
        assert "sympy" not in sys.modules
    """)
    package_root = str(Path(adhmquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- flag ranges


@pytest.mark.parametrize("argv,message", [
    pytest.param(["gen", "--n", "2", "--c", "2", "--r", "2", "--seed", "1", "--prime", "0"],
                 "0 is not prime", id="gen-prime-0"),
    pytest.param(["gen", "--n", "2", "--c", "2", "--r", "2", "--seed", "1",
                  "--entry-bound", "-3"],
                 "--entry-bound must be at least 0, got -3", id="gen-entry-bound"),
    pytest.param(["dim", "experiment", "--n", "2", "--c", "2", "--r", "1",
                  "--trials", "-1", "--seed", "1"],
                 "--trials must be at least 0, got -1", id="dim-trials"),
])
def test_negative_generation_flags_are_usage_errors(capsys, argv, message):
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc is None
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["gen", "--n", "0", "--c", "2", "--r", "2", "--seed", "1"],
                 "--n must be at least 1, got 0", id="gen-n"),
    pytest.param(["gen", "--n", "2", "--c", "-2", "--r", "2", "--seed", "1"],
                 "--c must be at least 0, got -2", id="gen-c"),
    pytest.param(["gen", "--n", "2", "--c", "2", "--r", "0", "--seed", "1"],
                 "--r must be at least 1, got 0", id="gen-r"),
    pytest.param(["dim", "experiment", "--n", "0", "--c", "2", "--r", "1",
                  "--trials", "2", "--seed", "1"],
                 "--n must be at least 1, got 0", id="dim-n"),
    pytest.param(["dim", "experiment", "--n", "2", "--c", "-1", "--r", "1",
                  "--trials", "2", "--seed", "1"],
                 "--c must be at least 0, got -1", id="dim-c"),
    pytest.param(["dim", "experiment", "--n", "2", "--c", "2", "--r", "0",
                  "--trials", "2", "--seed", "1"],
                 "--r must be at least 1, got 0", id="dim-r"),
])
def test_out_of_range_shape_flags_are_usage_errors(capsys, argv, message):
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc is None
    assert err.splitlines() == [f"error: {message}"]


def test_zero_c_stays_legal(capsys):
    code, doc, _ = run(capsys, "gen", "--n", "2", "--c", "0", "--r", "2", "--seed", "1")
    assert code == 0 and doc["c"] == 0 and doc["v"] == [[], []]
    code, doc, _ = run(capsys, "dim", "experiment", "--n", "2", "--c", "0", "--r", "1",
                       "--trials", "2", "--seed", "1")
    assert code == 0 and doc["histogram"] == {"0": 2} and doc["moduli_histogram"] == {"0": 2}


@pytest.mark.parametrize("argv,message", [
    pytest.param(["monad", "rank", "--samples", "-2", "--seed", "1"],
                 "--samples must be at least 0, got -2", id="monad-rank-samples"),
    pytest.param(["quot", "present", "--degree", "-1"],
                 "--degree must be at least 0, got -1", id="quot-present-degree"),
    pytest.param(["quot", "build", "--degree-cap=-1"],
                 "--degree-cap must be at least 0, got -1", id="quot-build-degree-cap"),
])
def test_negative_datum_flags_are_usage_errors(tmp_path, capsys, argv, message):
    src = gen_file(tmp_path, capsys, "f.json",
                   "--n", "2", "--c", "2", "--r", "1", "--stable", "--seed", "1")
    code, doc, err = run(capsys, *argv, str(src))
    assert code == 2 and doc is None
    assert err.splitlines() == [f"error: {message}"]


def test_zero_trials_stays_legal(capsys):
    code, doc, _ = run(capsys, "dim", "experiment", "--n", "2", "--c", "2", "--r", "1",
                       "--trials", "0", "--seed", "1")
    assert code == 0 and doc["trials"] == 0 and doc["histogram"] == {}


def test_path_verify_checks_input_nilpotency_once(tmp_path, capsys, monkeypatch):
    src = gen_file(tmp_path, capsys, "n.json",
                   "--n", "2", "--c", "3", "--r", "3", "--stable", "--nilpotent", "--seed", "2")
    calls = []
    original = punctual.is_nilpotent_tuple

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(punctual, "is_nilpotent_tuple", counting)
    code, doc, _ = run(capsys, "path", "verify", str(src), "--grid", "8")
    assert code == 0 and doc["input_nilpotent"] is True
    assert len(calls) == 1


# ---------------------------------------------------------------- one parser per process


HELP_ARGVS = [[*command, "-h"] for command in (
    [], ["check"], ["support"], ["equiv"], ["gen"],
    ["quot"], ["quot", "present"], ["quot", "build"],
    ["monad"], ["monad", "build"], ["monad", "check"], ["monad", "rank"],
    ["quiver"], ["quiver", "check"],
    ["path"], ["path", "run"], ["path", "verify"],
    ["dim"], ["dim", "experiment"],
)]


def _reuse_argvs(tmp_path: Path) -> list:
    x = str(tmp_path / "x.json")
    k = str(tmp_path / "k.json")
    y = str(tmp_path / "y.json")
    gen = ["gen", "--n", "2", "--c", "2", "--r", "2", "--stable", "--nilpotent", "--seed", "3"]
    code, out, _ = _captured(gen)
    assert code == 0
    Path(x).write_text(out)
    code, out, _ = _captured(["quot", "present", x])
    assert code == 0
    Path(k).write_text(out)
    code, out, _ = _captured(["quot", "build", k])
    assert code == 0
    Path(y).write_text(out)
    valid = [
        gen,
        ["check", x, "--stable", "--nilpotent"],
        ["quot", "present", x, "--degree", "1"],
        ["quot", "present", x],  # the default degree, not the previous call's
        ["equiv", x, y],
        ["monad", "check", x],
        ["quiver", "check", x, "--theta=-2/3"],
        ["path", "verify", x, "--grid", "4"],
        ["path", "verify", x],
        ["dim", "experiment", "--n", "2", "--c", "2", "--r", "1", "--trials", "2",
         "--seed", "1"],
    ]
    usage_errors = [
        ["gen", "--n", "2", "--c", "2", "--r", "2"],  # missing --seed
        ["monad", "frobnicate", x],  # invalid choice
        ["quiver", "check", x, "--theta", "-2/3"],  # the space form
        ["path", "verify", x, "--grid", "0"],
        [],
    ]
    return valid + usage_errors + HELP_ARGVS


def test_repeated_calls_match_a_one_shot_process(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = _reuse_argvs(tmp_path)
    first = [_captured(argv) for argv in argvs]
    second = [_captured(argv) for argv in argvs]
    assert first == second
    package_root = str(Path(adhmquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root, "COLUMNS": "80"}
    for argv, outcome in zip(argvs, first):
        done = subprocess.run([sys.executable, "-m", "adhmquot.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == outcome, argv


def test_help_of_the_reused_parser_follows_the_terminal_width(monkeypatch):
    _captured(["check", "-h"])  # the shared parser exists before the width changes
    top_level = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in HELP_ARGVS:
            code, out, err = _captured(argv)
            fresh = io.StringIO()
            with contextlib.redirect_stdout(fresh), pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert code == 0 and err == ""
            assert out == fresh.getvalue(), (columns, argv)
        top_level.append(_captured(["-h"])[1])
    assert top_level[0] != top_level[1]


def test_handlers_are_looked_up_at_call_time(monkeypatch, capsys):
    gen = ["gen", "--n", "1", "--c", "2", "--r", "1", "--seed", "9"]
    assert main(gen) == 0  # the shared parser exists before the rebinding
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_gen", lambda args: ({"stub": args.seed}, True))
    code, doc, err = run(capsys, *gen)
    assert code == 0 and doc == {"stub": 9}
    assert err.splitlines() == ["generated datum: ok"]


def test_many_calls_build_the_parser_once(monkeypatch, capsys):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for seed in range(5):
        assert main(["gen", "--n", "1", "--c", "2", "--r", "1", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize("flags, command", [
    (("--n", "3", "--c", "8", "--r", "3", "--stable"), ("monad", "build")),  # ~90 KB
    (("--n", "2", "--c", "2", "--r", "1"), ("check",)),
])
def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path, capsys, flags, command):
    path = gen_file(tmp_path, capsys, "X.json", *flags, "--seed", "1")
    package_root = str(Path(adhmquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.Popen([sys.executable, "-m", "adhmquot.cli", *command, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_a_reader_leaving_mid_document_exits_141_on_an_unbuffered_stdout(tmp_path, capsys):
    """The ~90 KB document outgrows the pipe, so the reader leaves during its
    write; unbuffered, that write reports nothing and the next one must."""
    path = gen_file(tmp_path, capsys, "X.json", "--n", "3", "--c", "8", "--r", "3",
                    "--stable", "--seed", "1")
    package_root = str(Path(adhmquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "adhmquot.cli", "monad", "build", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert b"Traceback" not in err and b"Exception ignored" not in err
