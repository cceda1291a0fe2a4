"""Benchmark of the g2coflow package: seeded workloads, end-to-end metrics and
a traced run that measures each layer.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 33 --trace 0

Workloads are `flow`, `soliton` and `calculus` (see perfbench/README.md), or
`all` for the three in turn in one process. The load is a closed loop with
one client: jobs run back to back in this process on one compute thread.
After set-up, whole cycles through the workload's job sets repeat until the
next would pass `--seconds` of scaled time. Every job's output is
checked against its reference and hashed; a rerun of the same inputs must
hash the same. End-to-end timings are scaled for host speed by a kernel
timed between jobs (see pace.py).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` each round runs twice, untraced and then
traced, and the object holds the per-layer metrics. A results file and the
traced spans are written under perfbench/out/.

Exit codes: 0 result printed; 1 the metrics do not match BENCHMARK.json;
2 the g2coflow sources are missing.
"""

import os
import sys

# one compute thread: pin the BLAS/OpenMP pools before numpy is imported
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELDOUT_SEED = 104729      # kept for confirming a claimed gain; not used in tuning
SETUP_SAMPLES = 5
REAL_TIME_CAP = 1.2         # a run's real time may exceed --seconds by this factor
WORKLOAD_NAMES = ("flow", "soliton", "calculus")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=33.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or a note when it is not a git checkout."""
    try:
        # the ceiling keeps git from reporting a repository around the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              timeout=30, capture_output=True, text=True)
    except OSError:
        done = None
    if done is None or done.returncode != 0:
        return "unavailable (not a git checkout)"
    return done.stdout.strip()


def environment(seed):
    import numpy
    import scipy

    import g2coflow
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "g2coflow": g2coflow.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "thread_pinning": {var: os.environ[var] for var in PINNED},
        "load": "closed loop, one client, one compute thread",
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def time_import():
    """Scaled seconds to import the package in a fresh interpreter, scaled
    by the pace kernel timed in that interpreter right after the import."""
    code = ("import time; t = time.perf_counter(); import g2coflow.cli; "
            "t = time.perf_counter() - t; import pace; "
            "print(t * pace.Pace().scale())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def set_up(workload, seed, scratch, pace):
    """Job sets plus scaled set-up seconds: the median import time plus the
    median input generation time, each over SETUP_SAMPLES repetitions."""
    import jobs
    imports, builds = [], []
    for i in range(SETUP_SAMPLES):
        imports.append(time_import())
        inputs = os.path.join(scratch, f"inputs{i}")
        os.makedirs(inputs)
        t0 = time.perf_counter()
        sets = jobs.build_sets(workload, seed, inputs)
        builds.append((time.perf_counter() - t0) * pace.scale())
    return sets, statistics.median(imports) + statistics.median(builds), {
        "import_s": imports, "inputs_s": builds}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def digits_of(checks):
    """min over checks of log10(tolerance / error); an exact result counts
    as 16 digits beyond its tolerance."""
    out = math.inf
    for _label, error, tol in checks:
        if tol > 0 and math.isfinite(error):
            out = min(out, math.log10(tol / max(error, tol * 1e-16)))
    return out


class Runner:
    """Runs job sets in rounds and keeps one record per job execution."""

    def __init__(self, sets, workdir, pace):
        self.sets = sets
        self.workdir = workdir
        self.pace = pace
        self.records = []
        self.digests = {}           # (set, job index) -> digest of the first run
        self.digests_match = True   # every rerun hashed like the first run

    def round(self, number, set_index, tracer=None):
        """Scaled wall time of the round: the sum of its jobs' scaled times."""
        return sum(self._execute(number, set_index, index, job, tracer)
                   for index, job in enumerate(self.sets[set_index]))

    def _execute(self, number, set_index, index, job, tracer):
        import jobs
        workdir = os.path.join(self.workdir, f"set{set_index}", f"job{index}")
        os.makedirs(workdir, exist_ok=True)
        span = tracer.begin_job(f"{number}.{index}") if tracer else None
        t0 = time.perf_counter()
        try:
            checks, digest = jobs.run_job(job, workdir)
            failing = [f"{label}: {error:.3g} not below {tol:.3g}"
                       for label, error, tol in checks if not error < tol]
        except Exception as exc:    # a failing job is recorded, not fatal
            checks, digest = [], None
            failing = [f"{type(exc).__name__}: {exc}"]
            if not any(r["reason"] for r in self.records):
                traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_job(span)
        scaled = latency * self.pace.scale()
        if digest is not None and digest != self.digests.setdefault(
                (set_index, index), digest):
            self.digests_match = False
            failing.append("output differs from an earlier run of the same inputs")
        self.records.append({
            "round": number, "set": set_index, "job": job.name,
            "traced": tracer is not None, "latency_s": latency,
            "scaled_s": scaled, "digits": digits_of(checks),
            "reason": "; ".join(failing), "digest": digest})
        return scaled


def measure(runner, seconds, tracer=None):
    """Whole cycles through the job sets, one round per set; at least one.

    A new cycle starts only if its untraced rounds are expected to end
    within `seconds` of scaled time (see pace.py), and the cycle within
    REAL_TIME_CAP * `seconds` of real time. Every set so weighs the same in
    every run, and the number of cycles, with it the jobs behind each
    percentile, does not depend on how fast the host ran unless it ran
    slower than the cap allows.

    Returns the scaled round walls of each set: (untraced, traced). With a
    tracer every round runs twice on the same job set, untraced and then
    traced, and the real-time cap doubles, so that a traced run holds as
    many cycles as an untraced one and the per-set medians outvote the
    first, cold cycle. Without a tracer the traced lists stay empty. There
    is no warm-up
    round: a CLI user pays lazy imports and cache fills on every invocation,
    and the per-set medians absorb the first cycle's share of them.
    """
    start = time.perf_counter()
    plain = [[] for _ in runner.sets]
    traced = [[] for _ in runner.sets]
    scaled, real, number = [], [], 0
    cap = REAL_TIME_CAP * seconds * (2 if tracer else 1)
    while True:
        t0, cycle = time.perf_counter(), 0.0
        for set_index in range(len(runner.sets)):
            plain[set_index].append(runner.round(number, set_index))
            cycle += plain[set_index][-1]
            if tracer:
                tracer.install()
                try:
                    traced[set_index].append(runner.round(number, set_index, tracer))
                finally:
                    tracer.uninstall()
            number += 1
        scaled.append(cycle)
        real.append(time.perf_counter() - t0)
        if (sum(scaled) + statistics.median(scaled) > seconds
                or time.perf_counter() - start + statistics.median(real) > cap):
            return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def round_wall(walls):
    """Scaled wall time of one round: the mean over sets of each set's median
    round."""
    return statistics.fmean(statistics.median(w) for w in walls)


def tail(latencies):
    """(percentile, value) of the slowest job with at least ten jobs beyond
    it, never below the median: with fewer than 20 jobs that is the median."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (count - 10) / count, ordered[count - 11]


def kind_medians(records, key="scaled_s"):
    """{job kind: median of `key` in ms} over the untraced runs."""
    by_kind = {}
    for r in records:
        if not r["traced"]:
            by_kind.setdefault(r["job"], []).append(1e3 * r[key])
    return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}


def end_to_end(records, walls, setup_s, workloads_before):
    lat = [r["scaled_s"] for r in records]
    medians = kind_medians(records)
    pct, tail_s = tail(lat)
    finite = [r["digits"] for r in records if math.isfinite(r["digits"])]
    failed = sum(bool(r["reason"]) for r in records)
    metrics = {
        "wall_s": (round_wall(walls), "s"),
        "job_p50_ms": (statistics.geometric_mean(medians.values()), "ms"),
        "job_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "pass_frac": (1.0 - failed / len(records), "ratio"),
        "accuracy_digits": (min(finite) if finite else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    rss_note = "ru_maxrss of this process"
    if workloads_before:
        rss_note += (", cumulative: it includes the workloads run before in "
                     f"this process ({', '.join(workloads_before)})")
    notes = {
        "wall_s": f"mean over {len(walls)} sets of the set's median round, "
                  f"{len(walls[0])} rounds each",
        "job_p50_ms": f"geometric mean of the median latency of each of "
                      f"{len(medians)} job kinds, {len(lat)} jobs",
        "job_tail_ms": f"p{pct:.4g} of {len(lat)} jobs",
        "setup_s": f"median import + median input generation, "
                   f"{SETUP_SAMPLES} samples each",
        "pass_frac": f"failed_frac = {failed / len(records):.4g} "
                     f"({failed} of {len(records)} jobs)",
        "accuracy_digits": "min over jobs of log10(tolerance / error)",
        "peak_rss_mb": rss_note,
    }
    return metrics, notes


def run_workload(name, seed, seconds, trace, workloads_before=()):
    import jobs
    import tracing
    from pace import REFERENCE_PACE_S, Pace
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    pace = Pace()
    try:
        sets, setup_s, setup_detail = set_up(jobs.WORKLOADS[name], seed, scratch,
                                             pace)
        runner = Runner(sets, os.path.join(scratch, "work"), pace)
        tracer = tracing.Tracer() if trace else None
        plain, traced = measure(runner, seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = runner.records
    digits = {}
    for r in records:
        digits[r["job"]] = min(digits.get(r["job"], math.inf), r["digits"])
    counts = Counter(r["job"] for r in records if not r["traced"])
    raw_ms = kind_medians(records, "latency_s")
    kernel_q = statistics.quantiles(pace.kernel_s, n=10)
    # the first output of every job that ran; two runs of one seed compare
    job_digests = {f"set{s}.job{i}": d for (s, i), d in sorted(runner.digests.items())}
    result = {"workload": name, "seed": seed, "trace": trace,
              "cycles": len(plain[0]), "round_s": plain, "traced_round_s": traced,
              "jobs_per_round": [len(s) for s in sets],
              "outputs_digest": hashlib.sha256(
                  json.dumps(job_digests).encode()).hexdigest(),
              "job_digests": job_digests,
              "setup": setup_detail,
              "pace": {"reference_s": REFERENCE_PACE_S,
                       "kernel_p10_s": kernel_q[0],
                       "kernel_median_s": statistics.median(pace.kernel_s),
                       "kernel_p90_s": kernel_q[-1]},
              "jobs": {job: {"median_ms": ms, "raw_median_ms": raw_ms[job],
                             "count": counts[job], "min_digits": digits[job]}
                       for job, ms in kind_medians(records).items()},
              "failures": [r for r in records if r["reason"]]}
    if trace:
        metrics = tracing.layer_metrics(tracer, sum(map(len, traced)))
        metrics["trace.overhead_s"] = (round_wall(traced) - round_wall(plain), "s")
        notes = {"trace.overhead_s": "traced minus untraced scaled wall of one "
                                     "round",
                 "trace.unattributed_s": "job time no layer span covers, "
                                         "per round"}
        result["baseline"] = tracing.baseline_lines(tracer, name)
        result["digests_match"] = runner.digests_match
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics, notes = end_to_end(records, plain, setup_s, workloads_before)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["notes"] = notes
    return result, records


def report(result):
    print(f"== workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  cycles {result['cycles']}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{name:44s} {m['value']:14.6g} {m['unit']:8s} {note}")
    print(f"job outputs digest {result['outputs_digest']}")
    pace = result["pace"]
    print(f"pace kernel {1e3 * pace['kernel_median_s']:.3f} ms median "
          f"(p10 {1e3 * pace['kernel_p10_s']:.3f}, p90 {1e3 * pace['kernel_p90_s']:.3f}) "
          f"against {1e3 * pace['reference_s']:.3f} ms on the reference host")
    for job, v in result["jobs"].items():
        print(f"  {job:32s} median {v['median_ms']:10.2f} ms scaled, "
              f"{v['raw_median_ms']:10.2f} ms raw, over {v['count']:4d} runs; "
              f"min {v['min_digits']:.3g} digits")
    for line in result.get("baseline", []):
        print(f"baseline: {line}")
    if "digests_match" in result:
        print("traced outputs hash the same as untraced: "
              f"{'yes' if result['digests_match'] else 'NO'}")
    seen = set()
    for failure in result["failures"]:
        if (failure["job"], failure["reason"]) not in seen:
            seen.add((failure["job"], failure["reason"]))
            print(f"FAILED {failure['job']} (set {failure['set']}, round "
                  f"{failure['round']}): {failure['reason']}")


def expected_metrics(trace):
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "g2coflow" / "__init__.py").is_file():
        print(f"perfbench: no g2coflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import g2coflow.cli  # noqa: F401  (imports every layer)
    OUT.mkdir(parents=True, exist_ok=True)

    env = environment(args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    expected = expected_metrics(args.trace)
    merged, attempted, failed = {}, 0, 0
    for done, name in enumerate(names):
        result, records = run_workload(name, args.seed, args.seconds, args.trace,
                                       names[:done])
        result["environment"] = env
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        if got != expected:
            print(f"perfbench: metrics {sorted(set(got) ^ set(expected))} do not "
                  "match BENCHMARK.json", file=sys.stderr)
            return 1
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json",
                  "w") as fh:
            json.dump(result, fh, indent=1, default=str)
        report(result)
        attempted += len(records)
        failed += len(result["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        merged.update({prefix + k: m for k, m in result["metrics"].items()})
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
