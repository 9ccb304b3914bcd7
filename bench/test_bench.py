"""Tests of the benchmark itself: spans, statistics, seeds and fresh objects.

    python3 -m pytest bench
"""

import gc
import json
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer, read_trace, self_times, tail, write_trace  # noqa: E402
from toric_ih import FaceLattice, Polytope  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["bench.job", 0.0, 10.0, None, "0/0"],
        ["a", 1.0, 4.0, 0, "0/0"],
        ["a.inner", 2.0, 3.0, 1, "0/0"],
        ["b", 5.0, 6.0, 0, "0/0"],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_self_times_add_up():
    tr = Tracer()
    with tr.job("0/0"):
        tr.call("outer", lambda: tr.call("inner", sum, range(1000)))
    names = [s[0] for s in tr.spans]
    assert names == ["bench.job", "outer", "inner"]
    assert [s[3] for s in tr.spans] == [None, 0, 1]
    assert {s[4] for s in tr.spans} == {"0/0"}
    job = tr.spans[0]
    assert sum(self_times(tr.spans)) == pytest.approx(job[2] - job[1], abs=1e-9)
    assert [c[0] for c in tr.calls] == ["inner", "outer"]


def test_layer_metrics_take_the_median_pass():
    import run

    spans = [
        ["bench.job", 0.0, 10.0, None, "0/0"], ["polytope.from_points", 1.0, 4.0, 0, "0/0"],
        ["bench.job", 10.0, 15.0, None, "0/1"], ["cutting.prime_cut", 11.0, 15.0, 2, "0/1"],
        ["bench.job", 20.0, 28.0, None, "2/0"], ["polytope.from_points", 21.0, 23.0, 4, "2/0"],
        ["bench.job", 30.0, 36.0, None, "2/1"], ["cutting.prime_cut", 31.0, 34.0, 6, "2/1"],
    ]
    m = {k: v for k, (v, _) in run.layer_metrics(spans, Counter()).items()}
    # passes 0 and 2: from_points 3 and 2, prime_cut 4 and 3, jobs 15 and 14
    assert (m["polytope.from_points.s"], m["cutting.prime_cut.s"]) == (2.5, 3.5)
    assert (m["polytope.s"], m["cutting.s"], m["stalks.s"]) == (2.5, 3.5, 0)
    assert m["bench.job.s"] == 14.5
    assert m["bench.job_self.s"] == (8.0 + 9.0) / 2


def test_job_times_in_ref_units_use_the_probes_on_both_sides():
    import run

    assert run.in_ref([3.0, 1.0], [1.0, 2.0, 0.5]) == [2.0, 0.8]
    assert run.probe() == sum(Fraction(1, i) for i in range(1, run.PROBE_TERMS))


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = tail(list(range(100, 0, -1)))
    assert (value, beyond) == (90, 10)
    assert pct == pytest.approx(100 * 89 / 99)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    assert tail(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_trace_json_round_trip(tmp_path):
    tr = Tracer()
    for i in range(3):
        with tr.job(f"1/{i}"):
            tr.call("polytope.from_points", Polytope.from_points, [(0, 0), (1, 0), (0, 1)])
    path = tmp_path / "trace.json"
    meta = {"workload": "hull", "seed": 7, "jobs": ["a", "b", "c"]}
    write_trace(path, tr.spans, meta)
    spans, meta_back = read_trace(path)
    assert spans == tr.spans and meta_back == meta
    assert json.loads(path.read_text())["fields"] == ["name", "start", "end", "parent", "job"]


def test_null_tracer_calls_through():
    tr = NullTracer()
    with tr.job("0/0"):
        assert tr.call("x", pow, 2, 10) == 1024
    assert not tr.calls


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_gives_the_same_inputs_and_named_fixtures_ignore_it(workload):
    a, b, other = (wl.make_jobs(workload, s) for s in (5, 5, 6))
    assert a == b
    assert wl.plain(tuple(a))
    assert [j.name for j in a] == [j.name for j in other]
    named = [(x, y) for x, y in zip(a, other) if not x.name.startswith("seeded-")]
    assert named and all(x == y for x, y in named)
    seeded = [(x, y) for x, y in zip(a, other) if x.name.startswith("seeded-")]
    assert seeded and any(x.source != y.source for x, y in seeded)


def _counters(jobs):
    tr = Tracer()
    total = {}
    for job in jobs:
        wl.run_job(tr, job)
        for k, v in wl.job_counters(tr.calls).items():
            total[k] = total.get(k, 0) + v
        tr.calls.clear()
    return total


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_gives_the_same_computed_counters(workload):
    def pick(seed):
        return [j for j in wl.make_jobs(workload, seed) if j.name.startswith("seeded-")][:2]

    first = _counters(pick(3))
    assert first and first == _counters(pick(3))
    # The seed only translates the pool inputs, so the work is the same.
    assert first == _counters(pick(4))


def test_hull_counters_by_hand():
    job = next(j for j in wl.make_jobs("hull", 1) if j.name == "cube(3)")
    c = _counters([job])
    assert c["polytope.hull.subsets"] == 56 + 20 + 15  # C(8,3) + C(6,3) + C(6,2)
    assert (c["polytope.hull.facets_out"], c["polytope.hull.vertices_out"]) == (6, 8)
    assert (c["polytope.from_points.calls"], c["polytope.from_inequalities.calls"]) == (1, 1)


def test_a_wrong_expectation_fails_the_check():
    job = next(j for j in wl.make_jobs("hull", 1) if j.name == "cube(3)")
    out = wl.run_job(NullTracer(), job)
    wl.check_job(job, out)
    bad = job._replace(expect=(("vertices", 8), ("rays", 0), ("facets", 7)))
    with pytest.raises(wl.CheckFailed):
        wl.check_job(bad, out)


def _library_objects(root):
    """Polytope and FaceLattice instances reachable from root."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, Fraction)
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Polytope, FaceLattice)):
            found.append(obj)
        if (isinstance(obj, (dict, list, tuple, set, frozenset))
                or type(obj).__module__.startswith("toric_ih")):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_library_object_is_shared_between_jobs_or_passes(workload):
    jobs = wl.make_jobs(workload, 1)[:8]
    owner, alive = {}, []
    for pass_no in range(2):
        for i, job in enumerate(jobs):
            found = _library_objects(wl.run_job(NullTracer(), job))
            assert found
            alive += found  # keeps ids unique while the test runs
            for obj in found:
                assert owner.setdefault(id(obj), (pass_no, i)) == (pass_no, i), job.name


def test_the_runner_keeps_no_library_object_after_a_job():
    import run

    tr = Tracer()
    times, failures = run.run_pass(wl, wl.make_jobs("prime-cut", 1)[:3], tr, 0)
    assert len(times) == 3 and not failures
    assert tr.spans and not tr.calls
    assert not _library_objects((tr.spans, tr.calls))


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_declared_metrics(trace, section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    result = _run("--workload", "prime-cut", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 14
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
