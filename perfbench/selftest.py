"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs with the same seed report identical *.calls counts.
2. After a traced run every wrapped attribute is the original object again.
3. A deliberately wrong known answer, a job that raises and a growth job cut
   by the word ceiling each count as failed, and the run goes on.
4. Every job's root span equals its own self time plus the self times of
   all its descendants.

Prints one PASS/FAIL line per check; exit code 1 if any failed.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SEED = 7


def traced_calls(workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--trace", "1"],
                          cwd=str(run.ROOT), capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if k.endswith(".calls")}


def check_calls_repeat(workloads):
    bad = []
    for workload in workloads:
        first, second = traced_calls(workload), traced_calls(workload)
        bad += ["%s %s: %s vs %s" % (workload, k, first[k], second.get(k))
                for k in first if first[k] != second.get(k)]
    return not bad, "; ".join(bad) or "identical in %s" % ", ".join(workloads)


def _snapshot(hg):
    """Every attribute of hopfgrow's modules and traced classes, by identity."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "hopfgrow" or n.startswith("hopfgrow."))]
    owners += [getattr(sys.modules["hopfgrow." + mod], cls)
               for mod, cls, _, _ in TARGETS if cls is not None]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def small_jobs():
    """Cheap jobs covering confluence, invariants, pbw and growth steps."""
    jobs = make_jobs("invariants", SEED) + make_jobs("growth", SEED)
    keep = ("exterior s=4", "skew_trunc bad_gen", "taft p=7 n=12", "exterior s=4 n=12")
    return [j for j in jobs if j.name in keep]


def check_restored(hg):
    before = _snapshot(hg)
    tracer = Tracer()
    with tracer:
        wrapped = run.run_pass(hg, small_jobs(), {}, tracer)
    after = _snapshot(hg)
    changed = [k for k in before if after.get(k) is not before[k]]
    ok = tracer.restored() and not changed and len(tracer.patches) > 0 and wrapped.failed == 0
    return ok, "%d attributes wrapped, %d not restored" % (len(tracer.patches), len(changed))


def check_failures_counted(hg):
    jobs = small_jobs()
    wrong = copy.deepcopy(jobs)
    growth = next(j for j in wrong if j.name == "taft p=7 n=12")
    growth.expected["dims"][-1] += 1
    broken = next(j for j in wrong if j.name == "exterior s=4 n=12")
    broken.doc["generators"][0]["character"] = ["not-a-scalar"]
    result = run.run_pass(hg, wrong, {})
    env = os.environ.get("HOPFGROW_MAX_WORDS")
    os.environ["HOPFGROW_MAX_WORDS"] = "10"
    try:
        ceiling = run.run_pass(hg, [j for j in jobs if j.name == "taft p=7 n=12"], {})
    finally:
        if env is None:
            del os.environ["HOPFGROW_MAX_WORDS"]
        else:
            os.environ["HOPFGROW_MAX_WORDS"] = env
    clean = run.run_pass(hg, jobs, {})
    ok = (result.failed == 2 and result.attempted == len(jobs)
          and ceiling.failed == 1 and clean.failed == 0)
    return ok, "wrong answer + raising job: %d/%d failed; word ceiling: %d/%d; clean: %d/%d" % (
        result.failed, result.attempted, ceiling.failed, ceiling.attempted,
        clean.failed, clean.attempted)


def check_root_balance(hg):
    tracer = Tracer()
    with tracer:
        run.run_pass(hg, small_jobs(), {}, tracer)
    balance = tracer.root_balance()
    worst = max(abs(v) for v in balance.values())
    return len(balance) == len(small_jobs()) and worst < 1e-9, \
        "%d jobs, largest |root - sum of self times| %.2e s" % (len(balance), worst)


def main():
    hg = run.import_hopfgrow()
    checks = [
        ("traced *.calls repeat", lambda: check_calls_repeat(WORKLOADS)),
        ("originals restored", lambda: check_restored(hg)),
        ("failures counted", lambda: check_failures_counted(hg)),
        ("root span balance", lambda: check_root_balance(hg)),
    ]
    failed = 0
    for label, check in checks:
        ok, detail = check()
        failed += not ok
        print("%s  %-24s %s" % ("PASS" if ok else "FAIL", label, detail), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
