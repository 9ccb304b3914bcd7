"""Benchmark of the toric_ih pipeline: one seeded workload per run.

    python3 bench/run.py --workload hull --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports ``toric_ih`` from its
``src`` directory.  The run repeats passes over the workload's job list (see
``workloads.py``) until ``--seconds`` have gone by, checks every job's
output, prints a table of metrics and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  Job times are given in ``ref`` units: multiples of the time of
a fixed reference loop (``probe``, stdlib ``Fraction`` arithmetic of the
kind the library does) timed right before and right after the job.  On a
shared host the speed of one core drifts by up to 2x over seconds to
minutes; the job and the loop next to it drift together, so their ratio is
steady where seconds are not.  A job of 1 ref takes as long as the loop.

- ``pass_ref``: one pass over the job list, the median over passes of the
  sum of the pass's job times;
- ``job_ref.p50``: the median of all job times;
- ``job_ref.tail``: the highest percentile of job times that has at least
  ten samples beyond it (the percentile and sample count are printed);
- ``setup_s``: importing ``toric_ih`` and generating the inputs, in seconds,
  the median over nine fresh processes spread over the run;
- ``peak_rss_mb``: peak resident memory of the run's process, in MiB.

The table before the JSON line also shows the median pass and job times in
seconds.

``fail_ratio``, the share of jobs that raised or failed their output check,
is printed too; the JSON line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` passes alternate between tracing off and on; the metrics
are per-layer self times in seconds (median over traced passes) and work
counts per pass, and the spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROCESSES = 9
PROBE_TERMS = 200
MIN_PASSES = 2

# Per-layer metrics of a traced run: self time per pass of these spans ...
TIMED_SPANS = (
    "polytope.from_points", "polytope.from_inequalities", "polytope.face_lattice",
    "polytope.normal_fan", "polytope.is_smooth_cone",
    "stalks.stalk_polynomials", "stalks.global_ih_class", "stalks.stalk_table",
    "stalks.cone_classes",
    "counting.count_report", "counting.reciprocity_check", "counting.slice_count",
    "hypersurface.frontier_hodge", "hypersurface.curve_e_polynomial",
    "hypersurface.euler_relation_check", "hypersurface.prime_cut_multipliers",
    "cutting.prime_cut", "cutting.vertex_blowup",
)
# ... work counts per pass (see workloads.job_counters) ...
COUNTERS = (
    "polytope.from_points.calls", "polytope.from_inequalities.calls",
    "polytope.hull.subsets", "polytope.hull.facets_out", "polytope.hull.vertices_out",
    "polytope.face_lattice.faces", "stalks.interval_pairs", "counting.box_points",
    "counting.points", "cutting.rounds", "cutting.cut_entries", "cutting.cut_vertices",
)
# ... and the self time per pass of every span of each layer.
LAYERS = ("polytope", "stalks", "counting", "hypersurface", "cutting")


def setup(workload, seed):
    """Import toric_ih from this checkout and generate the job list.

    Returns ``(seconds, workloads module, jobs)``."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC_DIR))
    import toric_ih

    if Path(toric_ih.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"toric_ih was imported from {toric_ih.__file__}, not {SRC_DIR}")
    import workloads

    jobs = workloads.make_jobs(workload, seed)
    elapsed = perf_counter() - t0
    if not workloads.plain(tuple(jobs)):
        raise SystemExit("job inputs must be plain data")
    return elapsed, workloads, jobs


def fresh_setup_seconds(workload, seed):
    """Set-up time in a fresh interpreter, as reported by that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def probe():
    """The reference loop: a harmonic sum in ``Fraction``s, about a millisecond."""
    s = Fraction(0)
    for i in range(1, PROBE_TERMS):
        s += Fraction(1, i)
    return s


def probe_seconds():
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def run_pass(wl, jobs, tracer, pass_no, counters=None, probes=None):
    """Run and check every job once.  Returns (job seconds, failure messages).

    With a tracer that keeps spans, each job's calls are cleared after it
    ends, and added into ``counters`` when one is given.  With a ``probes``
    list, the reference loop is timed before each job and after the last,
    and its seconds are appended there."""
    times, failures = [], []
    for i, job in enumerate(jobs):
        if probes is not None:
            probes.append(probe_seconds())
        t0 = perf_counter()
        try:
            with tracer.job(f"{pass_no}/{i}"):
                out = wl.run_job(tracer, job)
            times.append(perf_counter() - t0)
            wl.check_job(job, out)
        except Exception as exc:  # a failed job is counted and the run goes on
            if len(times) == i:
                times.append(perf_counter() - t0)
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        out = None
        if tracer.calls:
            if counters is not None:
                counters.update(wl.job_counters(tracer.calls))
            tracer.calls.clear()
    if probes is not None:
        probes.append(probe_seconds())
    return times, failures


def in_ref(times, probes):
    """Job seconds as multiples of the mean of the probes before and after each job."""
    return [t / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]


def layer_metrics(spans, counters):
    """Per-pass layer metrics: median self times over traced passes and one
    pass's work counts."""
    from spans import JOB_SPAN, self_times

    per_key = defaultdict(Counter)  # key -> pass -> seconds
    passes = set()
    for (name, start, end, _, job), own in zip(spans, self_times(spans)):
        pass_no = job.split("/")[0]
        passes.add(pass_no)
        keys = ((JOB_SPAN, own), ("bench.job.s", end - start)) if name == JOB_SPAN else (
            (name, own), (name.split(".")[0] + ".s", own))
        for key, t in keys:
            per_key[key][pass_no] += t

    def per_pass(key):
        return statistics.median(per_key[key][p] for p in passes) if passes else 0.0

    m = {name + ".s": (per_pass(name), "s") for name in TIMED_SPANS}
    m.update({name: (counters[name], "count") for name in COUNTERS})
    box = counters["counting.box_points"]
    m["counting.hit_ratio"] = (counters["counting.points"] / box if box else 0.0, "ratio")
    m.update({layer + ".s": (per_pass(layer + ".s"), "s") for layer in LAYERS})
    m["bench.job.s"] = (per_pass("bench.job.s"), "s")
    m["bench.job_self.s"] = (per_pass(JOB_SPAN), "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    setup_s, wl, jobs = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    from spans import NullTracer, Tracer, tail, write_trace

    setup_runs = [setup_s]
    untraced, tracer = NullTracer(), Tracer()
    job_secs, job_refs = [], []  # untraced jobs, one list per pass
    walls, traced_walls, failures, attempted, counters = [], [], [], 0, Counter()
    traced_passes = 0
    deadline = perf_counter() + args.seconds
    for n in itertools.count():
        traced = args.trace == 1 and n % 2 == 1
        gc.collect()
        start = perf_counter()
        if traced:
            _, fails = run_pass(wl, jobs, tracer, n, None if traced_passes else counters)
            traced_passes += 1
            traced_walls.append(perf_counter() - start)
        else:
            probes = [] if args.trace == 0 else None
            times, fails = run_pass(wl, jobs, untraced, n, probes=probes)
            walls.append(perf_counter() - start)
            job_secs.append(times)
            if probes is not None:
                job_refs.append(in_ref(times, probes))
        attempted += len(jobs)
        failures += fails
        passes = len(job_secs)
        if args.trace == 0 and len(setup_runs) < SETUP_PROCESSES:
            setup_runs.append(fresh_setup_seconds(args.workload, args.seed))
        enough = passes >= MIN_PASSES and (args.trace == 0 or traced_passes)
        if enough and perf_counter() + statistics.median(walls + traced_walls) > deadline:
            break

    for f in failures[:20]:
        print("FAILED", f)
    if args.trace == 0:
        refs = [r for rs in job_refs for r in rs]
        tail_ref, pct, beyond = tail(refs)
        metrics = {
            "pass_ref": (statistics.median(map(sum, job_refs)), "ref"),
            "job_ref.p50": (statistics.median(refs), "ref"),
            "job_ref.tail": (tail_ref, "ref"),
            "setup_s": (statistics.median(setup_runs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        secs = [t for ts in job_secs for t in ts]
        print(f"# {passes} passes of {len(jobs)} jobs; job_ref.tail is the p{pct:.2f} "
              f"of {len(refs)} job times, {beyond} beyond it; in seconds: median pass "
              f"{statistics.median(map(sum, job_secs)):.4g}, median job "
              f"{statistics.median(secs):.4g}, tail job {tail(secs)[0]:.4g}")
    else:
        metrics = layer_metrics(tracer.spans, counters)
        pass_s = statistics.median(map(sum, job_secs))
        metrics["bench.trace_overhead_s"] = (metrics["bench.job.s"][0] - pass_s, "s")
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, tracer.spans, {"workload": args.workload, "seed": args.seed,
                                         "jobs": [j.name for j in jobs]})
        print(f"# {traced_passes} traced and {passes} untraced passes; "
              f"spans in {path.relative_to(BENCH_DIR.parent)}")
    shown = dict(metrics, fail_ratio=(len(failures) / attempted, "ratio"))
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
