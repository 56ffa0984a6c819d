"""Run one adhmquot benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports the package from ``src/`` next to this directory, warms
sympy (imported lazily by the program on first use) and makes the
workload's inputs from the seed; it is repeated and its median reported as
``setup_s``.  The timed loop is a closed loop with one client: it runs
whole passes over the fixed item list, each item after the previous one
ends, and stops at the pass boundary nearest ``--seconds``.  Every time
reported is scaled to reference machine speed by a calibration kernel run
around it (see ``calibration_s``); the run record also gives wall clock.  Every answer is
checked against the paper's claim, against the same item in the first pass
and, for seeds in ``answers.json``, against the answer recorded when the
benchmark was defined.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the same loop runs untraced, then one more set-up and pass run with every
public entry point wrapped in a span, and the per-layer metrics are
printed.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ANSWERS = BENCH / "answers.json"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Time of calibration_s() on the defining 2-core machine when it ran fast:
# item times are scaled to a machine that runs the kernel in this time.
REFERENCE_CALIBRATION_S = 0.0007

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from percentiles import percentile  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, wrong package picked up)."""


# ------------------------------------------------------------- machine speed


def calibration_s() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel: the current speed.

    The machine the benchmark was defined on runs the same code up to twice
    as fast at one moment as at another, depending on other tenants' load,
    so every timed step is bracketed by this kernel and scaled by it.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    return time.perf_counter() - start


class ScaledClock:
    """Durations scaled to reference speed by the kernel run around them."""

    def __init__(self):
        self.last = calibration_s()

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, calibration_s()
        return seconds * REFERENCE_CALIBRATION_S / ((before + self.last) / 2)


# ------------------------------------------------------------- set-up


def load_program() -> float:
    """Import adhmquot from SRC and warm its lazy sympy import; seconds taken."""
    start = time.perf_counter()
    if not (SRC / "adhmquot" / "__init__.py").is_file():
        raise BenchError(f"no adhmquot sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adhmquot
    from adhmquot import cli  # noqa: F401  (imports every layer)

    if Path(adhmquot.__file__).resolve().parent != (SRC / "adhmquot").resolve():
        raise BenchError(f"imported adhmquot from {adhmquot.__file__}, not from {SRC}")
    import sympy

    z = sympy.Symbol("z")
    sympy.Poly(z**2 - 2, z).factor_list()
    return time.perf_counter() - start


def import_seconds_in_child() -> float:
    """load_program timed in a fresh interpreter, as a cold start pays it."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; print(run.load_program())"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- the loop


def answer_digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def run_pass(items, expected, durations: list, wall: list, counters: Counter,
             problems: list) -> list:
    """One pass over items; appends item times and problems, returns digests.

    ``durations`` gets each item's time scaled to reference speed, ``wall``
    its wall time.  An item fails when it raises, when its check finds a
    problem, or when its digest differs from ``expected`` (a list, or None
    to skip).
    """
    digests = []
    clock = ScaledClock()
    for index, item in enumerate(items):
        start = time.perf_counter()
        try:
            raw, error = item.run(), None
        except Exception as exc:  # a failed item is counted, not fatal
            raw, error = None, exc
        wall.append(time.perf_counter() - start)
        durations.append(clock.scale(wall[-1]))
        if error is not None:
            problems.append(f"{item.label}: raised {type(error).__name__}: {error}")
            digests.append(None)
            continue
        try:
            answer = item.finish(raw, counters) if item.finish else raw
            found = item.check(answer)
            digest = answer_digest(answer)
        except Exception as exc:
            found, digest = [f"answer unreadable: {type(exc).__name__}: {exc}"], None
        if expected is not None and digest != expected[index]:
            found.append(f"answer digest {digest} != expected {expected[index]}")
        problems.extend(f"{item.label}: {p}" for p in found)
        digests.append(digest if not found else None)
    return digests


def run_loop(items, seconds: float, reference) -> dict:
    """Whole passes until the pass boundary nearest ``seconds``."""
    passes: list[list[float]] = []
    wall_passes: list[list[float]] = []
    walls: list[float] = []
    problems: list[str] = []
    failed = 0
    first = None
    start = time.perf_counter()
    while True:
        before = len(problems)
        t0 = time.perf_counter()
        passes.append([])
        wall_passes.append([])
        digests = run_pass(items, reference or first, passes[-1], wall_passes[-1],
                           Counter(), problems)
        walls.append(time.perf_counter() - t0)
        failed += sum(1 for d in digests if d is None)
        if first is None:
            first = digests
        del problems[before + 20:]  # keep the log short; the count is exact
        if time.perf_counter() - start + walls[-1] / 2 >= seconds:
            break
    return {"passes": passes, "wall_passes": wall_passes, "walls": walls,
            "failed": failed, "digests": first, "problems": problems}


def loop_metrics(items, passes: list[list[float]]) -> dict:
    """End-to-end timings of the loop, robust to a slow stretch of machine.

    Throughput is the median over every sweep run (one grid coverage) of
    its items per second of item time; an
    item's latency is its best time over the passes, since interference
    from other work on the machine only ever adds time.
    """
    rates = []
    for durations in passes:
        by_sweep: dict[int, list[float]] = {}
        for item, d in zip(items, durations):
            by_sweep.setdefault(item.sweep, []).append(d)
        rates.extend(len(ds) / sum(ds) for ds in by_sweep.values())
    latency_ms = [min(ds) * 1000 for ds in zip(*passes)]
    return {
        "items_per_s": _metric(statistics.median(rates), "items/s"),
        "item_p50_ms": _metric(percentile(latency_ms, 50), "ms"),
        "item_p90_ms": _metric(percentile(latency_ms, 90), "ms"),
    }


# ------------------------------------------------------------- record


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def run_record(args) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        sha.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": sha.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


def load_reference(workload: str, seed: int):
    if not ANSWERS.is_file():
        return None
    table = json.loads(ANSWERS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


# ------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["roundtrip_cli", "monad_support", "punctual_dims", "prime_field"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run_record(args)
    clock = ScaledClock()
    wall_import_s = [load_program()]
    import_s = [clock.scale(wall_import_s[0])]
    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload]
    for _ in range(SETUP_REPEATS - 1):
        wall_import_s.append(import_seconds_in_child())
        import_s.append(clock.scale(wall_import_s[-1]))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        generation_s, wall_generation_s = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = build(args.seed, work)
            wall_generation_s.append(time.perf_counter() - t0)
            generation_s.append(clock.scale(wall_generation_s[-1]))
        setup_s = statistics.median(import_s) + statistics.median(generation_s)
        reference = load_reference(args.workload, args.seed)
        if reference is not None and len(reference) != len(items):
            reference = None
            print("warning: answers.json does not match this item list; not used",
                  file=sys.stderr)
        gc.collect()
        loop = run_loop(items, args.seconds, reference)
        attempted = len(items) * len(loop["passes"])
        failed = loop["failed"]
        problems = loop["problems"]

        if args.trace:
            rec = spans.Recorder()
            installed = spans.install(rec)
            try:
                rec.phase = "setup"
                traced_items = build(args.seed, work)
                rec.phase = "items"
                traced_durations: list[float] = []
                traced = run_pass(traced_items, loop["digests"], traced_durations, [],
                                  rec.counters, problems)
            finally:
                installed.uninstall()
            traced_failed = sum(1 for d in traced if d is None)
            attempted += len(traced)
            failed += traced_failed
            metrics = {
                name: _metric(value, unit)
                for name, (value, unit) in spans.layer_metrics(rec).items()
            }
            untraced = statistics.median(sum(p) for p in loop["passes"])
            metrics["trace.overhead_frac"] = _metric(sum(traced_durations) / untraced - 1, "ratio")
        else:
            metrics = loop_metrics(items, loop["passes"])
            metrics.update({
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
                ),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = failed == 0
    latencies = [min(ds) for ds in zip(*loop["passes"])]
    slowest = max(range(len(items)), key=latencies.__getitem__)
    record.update({
        "slowest_item": [items[slowest].label, latencies[slowest] * 1000],
        "items_per_pass": len(items),
        "passes": len(loop["walls"]),
        "pass_wall_s": loop["walls"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "answers_digest": answer_digest(loop["digests"]),
        "reference_answers": "not recorded for this seed" if reference is None else "checked",
        "import_s": import_s,
        "generation_s": generation_s,
        "wall_import_s": wall_import_s,
        "wall_generation_s": wall_generation_s,
        "wall_clock": {name: m["value"]
                       for name, m in loop_metrics(items, loop["wall_passes"]).items()},
    })
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'failed_frac':32s} {record['failed_frac']:>16.6f} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
