"""nilharm benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a nilharm checkout.  The program under test is the
source tree in src/, imported by fresh interpreters that this script
starts with an isolated environment (see isolated_env).

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median over SETUP_PROBES fresh processes of the time to
               start, import nilharm and generate the workload's inputs
  wall_s       time of one pass over the workload's job list, as the
               sum over its jobs of each job's best time over the passes
  job_p50_s,   median and 90th percentile over the jobs of a pass of
  job_p90_s    each job's best time over the passes
  ok_frac      jobs that returned a correct result / jobs attempted
               (every run attempts at least MIN_JOBS jobs)
  peak_rss_mb  peak RSS of the process running the jobs; for cli-cold,
               of the largest CLI process it started
The four times are scaled to a nominal host speed: multiplied by
CALIBRATION_NOMINAL_S over the time of a fixed calibration computation
(worker.calibration).  For the jobs that is its time before every job,
best over the passes and averaged over the job slots; for each set-up
probe, the median of worker.CALIBRATION_REPEATS runs in the probe
right after its set-up.  On a shared host the speed changes by up to 2x
for minutes; the scaling removes most of that from the comparison of
two runs.  The info line keeps the unscaled times ("measured_s").

--trace 1 prints the per-layer metrics of BENCHMARK.json, from traced
passes that follow untraced ones in the same process.  Their times are
unscaled, except trace.overhead_s: traced minus untraced wall_s.

The last line of stdout is the result object; the line before it
records the machine, versions, git SHA, seed and job counts.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 13
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 170
MIN_ROUNDS = 3
TRACE_MIN_ROUNDS = 2      # per half: untraced, then traced
MIN_JOBS = 100
# Time of worker.calibration at the speed the reported seconds refer to:
# about its best on an idle 2-vCPU Intel Xeon VM under Python 3.11.
CALIBRATION_NOMINAL_S = 0.0005


class BenchError(Exception):
    pass


def isolated_env():
    """The caller's environment minus anything that steers nilharm.

    NILHARM_* variables are dropped (NILHARM_SEED overrides the config
    seed), PYTHONPATH is the checkout's src/ alone, hashing is fixed and
    BLAS/OpenMP run one thread.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NILHARM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra):
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed)] + list(extra)


def time_setup(args, env):
    """Seconds from starting a fresh worker to its 'ready' line, and the
    calibration time the worker measured after it."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--probe"), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed, float(rest)


def run_worker(args, env, *extra):
    try:
        proc = subprocess.run(worker_cmd(args, *extra), cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded %d s" % WORKER_TIMEOUT) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def end_to_end(args, env):
    # probes on both sides of the measured pass, so that set-up is sampled
    # over the length of the run
    probes = [time_setup(args, env) for _ in range(SETUP_PROBES // 2)]
    rep = run_worker(args, env, "--budget", str(args.seconds),
                     "--min-rounds", str(MIN_ROUNDS),
                     "--min-jobs", str(MIN_JOBS))
    probes += [time_setup(args, env)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    jobs, best = rep["job_seconds"], rep["job_best_s"]
    measured = {
        "setup_s": statistics.median(setup for setup, _ in probes),
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_p90_s": statistics.quantiles(best, n=10)[8],
    }
    rep["measured_s"] = measured
    speed = CALIBRATION_NOMINAL_S / rep["calibration_s"]
    metrics = {name: value * speed for name, value in measured.items()}
    metrics["setup_s"] = statistics.median(
        setup * CALIBRATION_NOMINAL_S / cal for setup, cal in probes)
    metrics["ok_frac"] = 1.0 - len(rep["failures"]) / len(jobs)
    metrics["peak_rss_mb"] = rep["peak_rss_mb"]
    return rep, metrics, len(jobs), rep["failures"], True


def per_layer(args, env):
    rep = run_worker(args, env, "--budget", str(args.seconds), "--trace",
                     "--min-rounds", str(TRACE_MIN_ROUNDS))
    # traced minus untraced wall_s, each scaled like wall_s; job time
    # only, as checks and span merging are the benchmark's own
    rep["layers"]["trace.overhead_s"] = CALIBRATION_NOMINAL_S * (
        sum(rep["traced_best_s"]) / rep["traced_calibration_s"]
        - sum(rep["job_best_s"]) / rep["calibration_s"])
    attempted = len(rep["job_seconds"]) + rep["traced_jobs"]
    failures = rep["failures"] + rep["traced_failures"]
    if not rep["spans_ok"]:
        print("perfbench: traced spans are inconsistent (open, outside "
              "their parent or job, or overlapping)", file=sys.stderr)
    return rep, rep["layers"], attempted, failures, rep["spans_ok"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilharm" / "__init__.py").is_file():
        print("perfbench: no nilharm source at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("perfbench: unknown workload %r" % args.workload,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    import tracer

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and {m["name"] for m in wanted} != set(tracer.PER_LAYER):
        print("perfbench: BENCHMARK.json per_layer and tracer.PER_LAYER "
              "disagree", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    env = isolated_env()
    measure = per_layer if args.trace else end_to_end
    try:
        rep, values, attempted, failures, consistent = measure(args, env)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    unexpected = [f for f in failures if f[0] not in workloads.KNOWN_DEFECTS]
    for key, reason in sorted(set(map(tuple, failures))):
        known = "known defect" if key in workloads.KNOWN_DEFECTS else "FAILED"
        print("perfbench: %s: %s: %s" % (known, key, reason), file=sys.stderr)

    metrics = {}
    for m in wanted:
        if args.trace:
            value = values.get(m["name"], 0.0)
        elif m["name"] in values:
            value = values[m["name"]]
        else:
            print("perfbench: no measurement for %s" % m["name"],
                  file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    info = {
        "attempted": attempted,
        "calibration_s": rep["calibration_s"],
        "counters_per_round": rep["counters"],
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "jobs_per_round": rep["jobs_per_round"],
        "known_defect_failures": len(failures) - len(unexpected),
        "measured_s": rep.get("measured_s"),
        "nproc": os.cpu_count(),
        "numpy": rep["numpy"],
        "python": rep["python"],
        "rounds": rep["rounds"],
        "seconds": args.seconds,
        "seed": args.seed,
        "trace": args.trace,
        "workload": args.workload,
    }
    result = {"correct": not unexpected and consistent,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(ROOT / ".perfbench_out" / ("last-%s-trace%d.json"
                                         % (args.workload, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, sort_keys=True,
                  indent=1)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
