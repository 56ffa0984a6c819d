"""Record the per-item answer digests that later runs are checked against.

    python3 bench/record_answers.py --seeds 0-9 [--workload NAME ...]

Runs one untimed pass of each workload per seed and stores the digests in
``answers.json``, merged with what is already there.  A seed is recorded
only when every item of the pass meets the paper's claim.  Re-record only
when the answer format of a workload changes, never to make a run pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run
from steady import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15")
    parser.add_argument("--workload", action="append", help="default: all four")
    args = parser.parse_args(argv)

    run.load_program()
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    table = json.loads(run.ANSWERS.read_text()) if run.ANSWERS.is_file() else {}
    run.WORK.mkdir(exist_ok=True)
    ok = True
    for name in names:
        for seed in parse_seeds(args.seeds):
            work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK))
            try:
                items = workloads.WORKLOADS[name](seed, work)
                problems: list[str] = []
                digests = run.run_pass(items, None, [], [], Counter(), problems)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                ok = False
                print(f"{name} seed {seed}: not recorded", *problems, sep="\n  ", file=sys.stderr)
                continue
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} answers", flush=True)
    run.WORK.rmdir()
    lines = []
    for name in sorted(table):
        seeds = sorted(table[name], key=int)
        rows = [f"    {json.dumps(s)}: {json.dumps(table[name][s], separators=(',', ':'))}"
                for s in seeds]
        lines.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    run.ANSWERS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
