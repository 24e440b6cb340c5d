"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out runs/parent --seeds 1-10
    python3 perfbench/sweep.py --out runs/parent --seeds 1-2 --trace 1

Runs one at a time (the benchmark is single-threaded and measures wall
time) and writes each run's stdout to <out>/<workload>/trace<t>-seed<n>.out,
the layout that compare.py reads.  Workloads and run length are those of
BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for workload in (w["name"] for w in spec["workloads"]):
        (args.out / workload).mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            path = args.out / workload / ("trace%d-seed%d.out" % (args.trace, seed))
            path.write_text(proc.stdout)
            status = "ok" if proc.returncode == 0 else "exit %d" % proc.returncode
            print("%s seed %d trace %d: %s" % (workload, seed, args.trace, status), flush=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)


if __name__ == "__main__":
    main()
