"""Run one workload in a fresh process and print its raw measurements.

    python worker.py --workload NAME --seed N --probe
    python worker.py --workload NAME --seed N --budget SECONDS
                     --min-rounds K [--min-jobs J] [--trace]

--probe stops after set-up (import nilharm, generate the inputs),
prints "ready", then times the calibration and prints its median;
run.py times fresh probes to get setup_s.  Otherwise the worker runs
the workload's job list ("round") repeatedly, as one closed loop in one
thread: the next job starts when the previous one has returned.  It
starts another round while the rounds so far, plus one more of the same
length, fit in the budget, and always runs at least --min-rounds rounds
and --min-jobs jobs.  With --trace it first runs untraced for half the
budget, then installs the tracer and runs traced for the other half,
each half at least --min-rounds rounds.  The last line of stdout is one
JSON object.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
CALIBRATION_REPEATS = 21    # per set-up probe


def calibration():
    """Fixed exact rational arithmetic that runs no nilharm code.

    Timed before every job, it measures how fast the host runs Python at
    that moment; run.py scales the reported times by it.
    """
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def run_rounds(wl, budget, min_rounds, min_jobs=0, tracer=None):
    """Repeat the job list.

    Returns (round walls, job times, calibration seconds, failures); a
    job time is the (start, end) of the job's call on perf_counter, and
    the calibration before job k took calibration seconds[k].
    """
    walls, job_times, cal_seconds, failures = [], [], [], []
    start = time.perf_counter()
    job_id = 0
    while True:
        round_start = time.perf_counter()
        for job in wl.jobs:
            # no collection of the jobs' garbage inside the calibration
            gc.disable()
            c0 = time.perf_counter()
            calibration()
            cal_seconds.append(time.perf_counter() - c0)
            gc.enable()
            if tracer is not None:
                tracer.job = job_id
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # a raising job is a failed job
                result, reason = None, "raised %s: %s" % (
                    type(exc).__name__, exc)
            else:
                reason = None
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            job_times.append((t0, t1))
            job_id += 1
            if reason is None:
                try:
                    reason = job.check(result)
                except Exception as exc:  # a check that cannot run fails
                    reason = "check raised %s: %s" % (type(exc).__name__, exc)
            if reason is not None:
                failures.append((job.key, reason))
            if tracer is not None and wl.cli is not None:
                with open(wl.cli.spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                tracer.merge(child["spans"], job_id - 1)
                wl.counters["cli.import_s"] = (
                    wl.counters.get("cli.import_s", 0.0) + child["import_s"])
        walls.append(time.perf_counter() - round_start)
        spent = time.perf_counter() - start
        if (len(walls) >= min_rounds and len(job_times) >= min_jobs
                and spent + walls[-1] > budget):
            return walls, job_times, cal_seconds, failures


def best_of_passes(seconds, n):
    """For each of the n job slots, its shortest time over the rounds.

    The minimum drops the stretches of a second or more in which a
    shared host runs everything slower, which a median does not.
    """
    return [min(seconds[j::n]) for j in range(n)]


def durations(job_times):
    return [t1 - t0 for t0, t1 in job_times]


def peak_rss_mb(wl):
    """Peak RSS of the process that ran the jobs: this one, or for CLI
    workloads the largest CLI process it started."""
    who = resource.RUSAGE_SELF if wl.cli is None else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--budget", type=float)
    mode.add_argument("--probe", action="store_true")
    parser.add_argument("--min-rounds", type=int)
    parser.add_argument("--min-jobs", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.budget is not None and args.min_rounds is None:
        parser.error("--budget needs --min-rounds")

    mods = workloads.load_modules()
    wl = workloads.build(args.workload, args.seed, mods,
                         workloads.load_reference(), ROOT)
    if args.probe:
        print("ready", flush=True)
        cal = []
        for _ in range(CALIBRATION_REPEATS):
            c0 = time.perf_counter()
            calibration()
            cal.append(time.perf_counter() - c0)
        print(statistics.median(cal))
        return 0

    budget = args.budget / 2 if args.trace else args.budget
    n = len(wl.jobs)
    walls, job_times, cal_seconds, failures = run_rounds(
        wl, budget, args.min_rounds, args.min_jobs)
    report = {
        "rounds": len(walls),
        "round_walls": walls,
        "job_seconds": durations(job_times),
        "job_best_s": best_of_passes(durations(job_times), n),
        "calibration_s": statistics.mean(best_of_passes(cal_seconds, n)),
        "counters": {k: v / len(walls) for k, v in wl.counters.items()},
        "failures": failures,
        "jobs_per_round": n,
        "peak_rss_mb": peak_rss_mb(wl),
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        if wl.cli is not None:
            wl.cli.spans_path = OUT_DIR / "cli-spans.json"
        for key in wl.counters:
            wl.counters[key] = 0
        t_walls, t_jobs, t_cal, t_failures = run_rounds(
            wl, budget, args.min_rounds, tracer=tracer)
        layers, spans_ok = tracer.summarize(len(t_walls), t_jobs, wl.counters)
        report.update(layers=layers, spans_ok=spans_ok,
                      traced_best_s=best_of_passes(durations(t_jobs), n),
                      traced_calibration_s=statistics.mean(
                          best_of_passes(t_cal, n)),
                      traced_failures=t_failures,
                      traced_jobs=len(t_jobs))
        with open(OUT_DIR / ("spans-%s.json" % args.workload),
                  "w", encoding="utf-8") as fh:
            json.dump(tracer.spans(), fh)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
