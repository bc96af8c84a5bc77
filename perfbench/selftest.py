"""The benchmark's own tests: python3 perfbench/selftest.py (a few seconds).

Runs every workload on a one-query subset, untraced and traced, and shows
that a deliberately wrong reference is caught and counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time

import run
from spans import NullTracer, ReferenceClock, Tracer

run.import_program()
import workloads  # noqa: E402  (needs the checkout's src/ on the path)

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CHEAP = {
    "tables": "quaternion8",
    "search": "symmetric(4) (1;[2,b])",
    "lattice": "symmetric(4) (1;[2,b],[2,b])",
    "cli": "chartab quaternion8 exit 0",
}


def one_query(workload, **override):
    case = next(c for c in workloads.load(workload) if c["id"] == CHEAP[workload])
    return [dict(case, **override)]


def failed_frac(workload, queries):
    child_rss = []
    runner = run.runner_for(workload, child_rss)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        passes = run.run_passes(queries, runner, 2, random.Random(0), [ReferenceClock()])
        attempted, failed, metrics = run.end_to_end(workload, passes, child_rss)
    assert set(metrics) | {"setup_s"} == {m["name"] for m in CONTRACT["end_to_end"]}
    return failed / attempted


def test_one_query_subsets():
    for workload in CHEAP:
        assert failed_frac(workload, one_query(workload)) == 0, workload
        probe = workloads.probe_cli if workload == "cli" else None
        passes = run.run_passes(one_query(workload), run.runner_for(workload, []), 1,
                                random.Random(0), [NullTracer(), Tracer()], probe=probe)
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.per_layer(passes)
        assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}, workload
        assert metrics["monodromy.mismatches"][0] == 0


def test_wrong_references_are_counted():
    wrong = {
        "tables": {"classes": 6},
        "search": {"truth": "exists"},
        "lattice": {"realizable_refinements": 2},
        "cli": {"exit": 1},
    }
    for workload, override in wrong.items():
        assert failed_frac(workload, one_query(workload, **override)) == 1.0, workload


def test_recorded_references_hold():
    for workload in run.PASSES:
        assert workloads.verify_references(workloads.load(workload)) == [], workload
    G = workloads.ref.RefGroup(*workloads.GROUPS["w_d5"])
    assert G.exponent() == 120 and not G.is_solvable()


def test_reference_checks_reject_bad_data():
    G = workloads.GROUPS["symmetric(4)"]
    s4 = workloads.ref.RefGroup(*G)
    # (1,2)(3,4) is even, so parity proves nothing about five of them
    assert workloads.ref.proof_problems(s4, "parity", 0, [2] * 5, ["(1,2)(3,4)"] * 5)
    assert s4.vector_problems(1, [2, 2], ["b", "b"],
                              {"a": ["()"], "b": ["()"], "c": ["(1,2)", "(1,2)"]})


def test_ref_costs():
    clock = ReferenceClock()
    clock.units["q"] = [1.0, 0.5, 2.0]
    clock.units["r"] = [1.0, 0.5, 2.0]
    passes = [(clock, 8.0, [("q", 5.0, False, True), ("r", 3.0, False, True)]),
              (clock, 5.0, [("q", 4.0, False, True), ("r", 1.0, False, True)]),
              (clock, 8.0, [("q", 6.0, False, True), ("r", 2.0, False, True)])]
    # costs q: 5/1, 4/0.5, 6/2 = 5, 8, 3; r: 3, 2, 1
    best, samples = run.ref_costs(passes)
    assert best == {"q": 5.0, "r": 2.0}
    assert sorted(samples) == [1.0, 2.0, 3.0, 3.0, 5.0, 8.0]


def test_per_layer_reads_each_pass():
    naps = iter([0.0, 0.02, 0.0, 0.04])  # untraced, traced, untraced, traced

    def runner(tr, case):
        with tr.span("groups.build"):
            time.sleep(next(naps))
        return True

    passes = run.run_passes([{"id": "q"}], runner, 2, random.Random(0),
                            [NullTracer(), Tracer()])
    with contextlib.redirect_stdout(io.StringIO()):
        metrics = run.per_layer(passes)
    # the median of the two traced passes, 0.02 s and 0.04 s
    assert 0.029 < metrics["groups.build_s"][0] < 0.035


def test_tail_definition():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and round(pct, 1) == 66.7


def test_fails_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, exit nonzero, print no result."""
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
