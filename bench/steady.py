"""Steadiness mode: run one workload on several seeds and judge the spread.

    python3 bench/steady.py --workload NAME --seeds 0-9 [--save A.json]

Each seed runs ``bench/run.py`` in a fresh process with the run length
from BENCHMARK.json.  For every end-to-end metric the report gives the
median, the quartiles and the spread (q3 - q1) / median against the
metric's bound: a spread is steady below a third of the bound and
acceptable up to the bound (``setup_s`` is exempt from the spread rule).
The exit code is 0 only when every run was correct and every judged
spread is acceptable.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from percentiles import quartile_spread  # noqa: E402

SPREAD_EXEMPT = {"setup_s"}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: dict[str, list[float]], specs: dict[str, dict]) -> list[dict]:
    """One row per metric: median, quartiles, spread and the verdict on it."""
    rows = []
    for name, spec in specs.items():
        q1, med, q3, spread = quartile_spread(values[name])
        bound = spec["bound"]
        if name in SPREAD_EXEMPT:
            verdict = "not judged"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "too wide"
        rows.append({"name": name, "unit": spec["unit"], "better": spec["better"],
                     "bound": bound, "q1": q1, "median": med, "q3": q3,
                     "spread": spread, "verdict": verdict})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--save", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in config["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in specs}
    all_correct = True
    for seed in parse_seeds(args.seeds):
        cmd = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        for name in specs:
            values[name].append(result["metrics"][name]["value"])
        shown = ", ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in specs)
        print(f"seed {seed}: {shown}", flush=True)

    if not all(len(v) >= 2 for v in values.values()):
        print("fewer than two successful runs; nothing to summarize", file=sys.stderr)
        return 1
    rows = summarize(values, specs)
    ok = all_correct
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for row in rows:
        line = (f"{row['name']:14s} {row['median']:12.5g} {row['q1']:12.5g} "
                f"{row['q3']:12.5g} {row['spread']:8.4f} {row['bound']:6.2f}  {row['verdict']}")
        ok = ok and row["verdict"] != "too wide"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "values": values, "rows": rows},
            indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
