"""Compare two sets of benchmark runs (or summarise one).

    python3 perfbench/compare.py runs/parent runs/change

Each set is a directory written by sweep.py.  For every workload and
end-to-end metric it prints the median and quartiles of each set, the
spread (Q3 - Q1) / median, and the change of the medians; a metric whose
median got worse by more than its bound in BENCHMARK.json is flagged
WORSE, a set whose spread exceeds a third of the bound is flagged NOISY.
Then it lists every ``*.calls`` count of the traced runs that differs
between the sets, or between runs within one set.  Exit code 1 when any
metric is flagged WORSE or any run reported a wrong verdict.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {trace: [result dict, ...]}} from a sweep directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*/trace*-seed*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        trace = int(path.name[len("trace")])
        runs.setdefault(path.parent.name, {}).setdefault(trace, []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(before, after, better):
    """Relative change of the median in the bad direction (positive = worse)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def summary(runs, metric_name):
    values = [r["metrics"][metric_name]["value"] for r in runs]
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def calls_of(runs):
    """{metric: set of values} over the runs' *.calls counts."""
    out = {}
    for r in runs:
        for key, m in r["metrics"].items():
            if key.endswith(".calls"):
                out.setdefault(key, set()).add(m["value"])
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    bad = False
    for wl in (w["name"] for w in spec["workloads"]):
        print("== %s" % wl)
        for side, runs in zip(argv, sets):
            for trace, results in sorted(runs.get(wl, {}).items()):
                wrong = sum(1 for r in results if not r["correct"])
                failed = sum(r["failed"] for r in results)
                attempted = sum(r["attempted"] for r in results)
                print("   %s trace %d: %d runs, %d/%d jobs failed, %d runs not correct"
                      % (side, trace, len(results), failed, attempted, wrong))
                bad = bad or wrong > 0
        print("   %-16s %-30s %-30s %s" % ("metric", "A median [Q1, Q3] spread",
                                            "B median [Q1, Q3] spread", "B vs A"))
        for m in spec["end_to_end"]:
            cells, medians = [], []
            for runs in sets:
                results = runs.get(wl, {}).get(0)
                if not results:
                    cells.append("-")
                    continue
                med, q1, q3, spread = summary(results, m["name"])
                flag = " NOISY" if spread > m["bound"] / 3 else ""
                cells.append("%.5g [%.5g, %.5g] %.3f%s" % (med, q1, q3, spread, flag))
                medians.append(med)
            verdict = ""
            if len(medians) == 2:
                change = worse_by(medians[0], medians[1], m["better"])
                verdict = "%+.1f%% worse" % (100 * change) if change > 0 else \
                    "%.1f%% better" % (-100 * change)
                if change > m["bound"]:
                    verdict += " WORSE (bound %.0f%%)" % (100 * m["bound"])
                    bad = True
            print("   %-16s %-30s %-30s %s" % (m["name"], cells[0],
                                              cells[1] if len(cells) > 1 else "", verdict))
        traced = [calls_of(runs.get(wl, {}).get(1, [])) for runs in sets]
        traced = [t for t in traced if t]
        changed = []
        for key in sorted(set().union(*traced)):
            values = [t.get(key, set()) for t in traced]
            if any(len(v) > 1 for v in values) or (len(values) == 2 and values[0] != values[1]):
                changed.append("   %-48s %s" % (key, "  ->  ".join(
                    "/".join(str(x) for x in sorted(v)) or "-" for v in values)))
        print("   changed *.calls counts: %s" % ("none" if not changed else ""))
        for line in changed:
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
