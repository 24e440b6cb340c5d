"""Time-to-verified-verdict benchmark for hopfgrow.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

A single-threaded closed loop: each job (one presentation through part of
the pipeline) starts after the previous verdict has been checked.  Jobs read
their presentation as a JSON document through parse_presentation_data; each
is parsed fresh before its timer starts, so the program's memo caches never
carry over from one job to the next.  A run makes a fixed number of passes
over the workload's job list, --seconds / PASS_S[workload] and at least
MIN_PASSES.  Job times are scaled to a reference host speed measured
alongside them (REF_S); each job's time is its median over the passes.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics; spans go to .bench_out/ at the root of the checkout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from layertrace import JOB_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, check_outcome, make_jobs  # noqa: E402

MIN_PASSES = 3
# Seconds one pass over a workload's jobs takes at the seed commit when the
# host is busy.  A run makes --seconds / PASS_S passes whatever the
# program's speed, so each job's median is always taken over the same number
# of samples.
PASS_S = {"invariants": 4.3, "growth": 4.5, "tau": 8.5}
SETUP_REPEATS = 25
SETUP_TIMEOUT_S = 60
# The shared host changes speed by up to half from one minute to the next
# (NOTES.md, Noise).  A fixed loop of fraction arithmetic, timed
# REF_SAMPLES times before each job, measures that speed, and job times are
# scaled to a host on which one loop takes REF_S.  The jobs slow less than
# the loop: over three sets of runs their times went with the loop's to the
# power REF_POWER.  Set-up, in fresh interpreters, does not follow the loop
# and is not scaled.
REF_S = 0.005
REF_SAMPLES = 5
REF_POWER = 0.75


def reference_loop():
    table = {}
    for i in range(600):
        x = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 4) + Fraction(1, 3)
        table[i % 97, i % 7] = x
    return len(table)


def time_reference(samples):
    """Append REF_SAMPLES timings of the reference loop to samples."""
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)


def host_scale(samples):
    """Factor that turns times measured alongside samples into seconds at
    the reference speed."""
    return (REF_S / statistics.median(samples)) ** REF_POWER


def import_hopfgrow():
    """Import hopfgrow from this checkout's source tree, or exit with code 1."""
    if not (SRC / "hopfgrow" / "__init__.py").is_file():
        sys.exit("perfbench: no hopfgrow sources at %s" % (SRC / "hopfgrow"))
    sys.path.insert(0, str(SRC))
    import hopfgrow
    if Path(hopfgrow.__file__).resolve().parent != SRC / "hopfgrow":
        sys.exit("perfbench: imported hopfgrow from %s, not from the checkout"
                 % hopfgrow.__file__)
    return hopfgrow


def measure_setup(jobs):
    """Median over fresh interpreters of importing hopfgrow and parsing the
    workload's presentation documents."""
    docs = json.dumps([job.doc for job in jobs])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                              input=docs, capture_output=True, text=True,
                              cwd=str(ROOT), timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_job(hg, job, p):
    """Run job's steps on the parsed presentation p.

    Returns (outcome, growth_words, growth_seconds): the outcome dict that
    ``workloads.check_outcome`` reads, the normal words counted by
    measure_growth and the time spent in it.
    """
    out = {}
    words, growth_s = 0, 0.0
    if "confluence" in job.steps:
        out["overlap_failures"] = len(p.check_confluence().failures)
    if "invariants" in job.steps:
        degree, group, power = job.bounds
        report = hg.compute_invariants(p, degree_bound=degree, group_word_bound=group,
                                       power_bound=power)
        counts = report.summary_counts()
        out["counts"] = counts
        out["bounds"] = {b.rule: b.value for b in hg.all_bounds(p, report)}
        out["detector"] = hg.detect_exponential(p, report).classification
        if "pbw" in job.steps:
            scan = hg.pbw_dependence_scan(p, [r.element for r in report.witnesses],
                                          degree_bound=job.pbw_degree)
            out["pbw"] = None if scan.independent else sum(scan.monomial)
            out["pbw_consistent"] = scan.consistent
    if "growth" in job.steps:
        t0 = time.perf_counter()
        growth = hg.measure_growth(p, n_max=job.n_max)
        growth_s = time.perf_counter() - t0
        words = growth.dims[-1]
        out["dims"] = growth.dims
        out["truncated"] = growth.truncated
        out["kind"] = growth.estimate["kind"]
        out["degree"] = growth.estimate.get("degree")
    return out, words, growth_s


class PassResult:
    def __init__(self):
        self.job_s = {}        # job name -> seconds to verdict, for jobs that ran
        self.growth = {}       # job name -> (words, seconds in measure_growth)
        self.ref = []          # reference loop timings taken during the pass
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self):
        return sum(self.job_s.values())


def run_pass(hg, jobs, oracles, tracer=None):
    """Run every job once, timing each to its verdict and then checking it."""
    result = PassResult()
    for index, job in enumerate(jobs):
        result.attempted += 1
        start = None
        try:
            p = hg.parse_presentation_data(job.doc, name=job.name)
            # every job starts from the same collector state and pays for
            # its own garbage only
            gc.collect()
            time_reference(result.ref)
            start = time.perf_counter()
            if tracer is None:
                outcome, words, growth_s = run_job(hg, job, p)
            else:
                tracer.job = index
                outcome, words, growth_s = tracer.span(JOB_SPAN, run_job, hg, job, p)
                tracer.job = None
        except Exception:
            if tracer is not None:
                tracer.job = None
            if start is not None:
                result.job_s[job.name] = time.perf_counter() - start
            result.failed += 1
            print("job %r raised:\n%s" % (job.name, traceback.format_exc()), file=sys.stderr)
            continue
        result.job_s[job.name] = time.perf_counter() - start
        if growth_s:
            result.growth[job.name] = (words, growth_s)
        if job.multigraded and job.name not in oracles:
            oracles[job.name] = hg.dp_word_counts(p, job.n_max)
        bad = check_outcome(job, outcome, oracles.get(job.name))
        if bad:
            result.failed += 1
            print("job %r gave a wrong verdict: %s" % (job.name, "; ".join(bad)),
                  file=sys.stderr)
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(hg, jobs, workload, seed, seconds):
    setup_s = measure_setup(jobs)
    rng = random.Random(seed)
    oracles = {}
    passes = []
    for _ in range(max(MIN_PASSES, round(seconds / PASS_S[workload]))):
        order = list(jobs)
        rng.shuffle(order)
        passes.append(run_pass(hg, order, oracles))
    # Each job's time, and its time in measure_growth, is the median over
    # the passes of its time scaled by that pass's host speed.
    times, growth_times, words = {}, {}, {}
    for r in passes:
        scale = host_scale(r.ref)
        for name, t in r.job_s.items():
            times.setdefault(name, []).append(t * scale)
        for name, (w, t) in r.growth.items():
            growth_times.setdefault(name, []).append(t * scale)
            words[name] = w
    job_s = {name: statistics.median(ts) for name, ts in times.items()}
    growth_s = sum(statistics.median(ts) for ts in growth_times.values())
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(job_s.values()), "s"),
        "verdict_s.p50": metric(statistics.median(job_s.values()) if job_s else 0.0, "s"),
        "verdict_s.max": metric(max(job_s.values(), default=0.0), "s"),
        "words_per_s": metric(sum(words.values()) / growth_s if growth_s else 0.0, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print("passes=%d jobs_per_pass=%d jobs=%d fail_ratio=%s"
          % (len(passes), len(jobs), attempted, failed / attempted))
    print("pass wall_s as measured: %s" % " ".join("%.4g" % r.wall_s for r in passes))
    print("pass reference loop median, ms: %s"
          % " ".join("%.4g" % (1e3 * statistics.median(r.ref)) for r in passes))
    for name in sorted(job_s):
        print("median %-36s %.4g s" % (name, job_s[name]))
    return metrics, attempted, failed


# Layers reported with calls and self time, and with self time only
_CALLS_SELF = [
    "fileformat.parse_presentation_data", "presentation.normal_form_yword",
    "presentation.word_times_letter", "presentation.normalize", "presentation.multiply",
    "presentation.check_confluence", "groups.GroupData", "scalars.Scalar",
    "scalars.Scalar.as_unit_monomial", "cyclotomic.CycloRational",
    "cyclotomic.CycloRational.unity_order", "linalg.ScalarElimination.insert",
    "coalgebra.delta_word", "coalgebra.find_skew_primitives",
]
_SELF_ONLY = [
    "presentation.filtration_dims", "invariants.compute_invariants", "bounds.all_bounds",
    "bounds.detect_exponential", "growth.measure_growth", "growth.pbw_dependence_scan",
    "growth.dp_word_counts",
]
SHARE_LAYERS = ["presentation", "groups", "scalars", "cyclotomic", "linalg", "coalgebra",
                "invariants", "bounds", "growth"]


def per_layer(tracer, overhead_s):
    # parsing and the oracle run outside the jobs; only their own self time
    # is counted, not that of the layers they call
    totals = tracer.layer_totals(outside=("fileformat.parse_presentation_data",
                                          "growth.dp_word_counts"))
    in_jobs = {}
    for name, (_, self_s) in tracer.layer_totals().items():
        layer = name.split(".")[0]
        in_jobs[layer] = in_jobs.get(layer, 0.0) + self_s
    job_total = sum(span[3] - span[2] for span in tracer.spans if span[1] == JOB_SPAN)

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in _CALLS_SELF:
        out[name + ".calls"] = metric(calls(name), "count")
        out[name + ".self_s"] = metric(self_s(name), "s")
    for name in _SELF_ONLY:
        out[name + ".self_s"] = metric(self_s(name), "s")
    for name in ("scalars.Scalar", "cyclotomic.CycloRational"):
        out[name + ".ns_per_call"] = metric(ratio(self_s(name) * 1e9, calls(name)), "ns")
    for name in ("presentation.normal_form_yword", "coalgebra.delta_word"):
        out[name + ".distinct_ratio"] = metric(
            ratio(len(tracer.distinct.get(name, ())), calls(name)), "ratio")
    out["presentation.word_times_letter.support_out"] = metric(
        ratio(tracer.tallies.get("support_out", 0), calls("presentation.word_times_letter")),
        "words")
    out["linalg.ScalarElimination.insert.pivot_ratio"] = metric(
        ratio(tracer.tallies.get("pivots", 0), calls("linalg.ScalarElimination.insert")),
        "ratio")
    out["linalg.nullspace_of_columns.columns"] = metric(tracer.tallies.get("columns", 0), "count")
    out["growth.words"] = metric(tracer.tallies.get("words", 0), "count")
    for layer in SHARE_LAYERS:
        out["share." + layer] = metric(ratio(in_jobs.get(layer, 0.0), job_total), "ratio")
    out["share.unwrapped"] = metric(ratio(in_jobs.get(JOB_SPAN, 0.0), job_total), "ratio")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


def traced(hg, jobs, workload, seed):
    """One untraced pass, then the same pass traced; per-layer metrics."""
    plain = run_pass(hg, jobs, {})
    tracer = Tracer()
    with tracer:
        spans = run_pass(hg, jobs, {}, tracer)
    if not tracer.restored():
        raise RuntimeError("tracer left a wrapped attribute behind")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("spans-%s-seed%d.jsonl" % (workload, seed)))
    metrics = per_layer(tracer, spans.wall_s - plain.wall_s)
    return metrics, plain.attempted + spans.attempted, plain.failed + spans.failed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    hg = import_hopfgrow()
    jobs = make_jobs(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed = traced(hg, jobs, args.workload, args.seed)
    else:
        metrics, attempted, failed = end_to_end(hg, jobs, args.workload, args.seed,
                                                args.seconds)
    for name, m in metrics.items():
        print("%-48s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
