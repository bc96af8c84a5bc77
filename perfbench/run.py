"""geosig benchmark: one workload per run, metrics as one JSON line at the end.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; geosig is imported from its
`src/`.  A run makes passes over the workload's queries, each pass in an
order drawn from the seed.  The pass count is proportional to `--seconds`;
at the commit that defined the benchmark a gated run lasted 0.7 to 1.5
times `--seconds` on a 2-core VM of a shared host, depending on its load.
With `--trace 0` it prints the end-to-end metrics, with query times in
reference units: multiples of the time a fixed pure-Python computation
takes around the same query (`spans.reference_time`).  With `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics
(self time per layer, counts, and the tracing overhead), writing the spans
to `.bench_out/`.  Every query's output is checked against the references
in workloads.py; failed queries count in `failed`.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import NullTracer, ReferenceClock, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
RUN_SECONDS = 40  # run_seconds in BENCHMARK.json
RUN_LIMIT = 1.45  # passes stop short of this multiple of --seconds
# untraced passes at --seconds RUN_SECONDS, each count chosen so that the
# 11th-largest sample falls among the lower samples of a long query
PASSES = {"tables": 7, "search": 11, "lattice": 16, "lattice_w_d5": 4, "cli": 27}
LAYER_TIMES = [
    "groups.build", "groups.classes", "groups.cyclic_classes",
    "chartable.table", "chartable.to_json",
    "signature.parse", "signature.search", "signature.verify",
    "covers.lattice", "monodromy.oracle", "jacobian.decompose", "jacobian.gamma1",
    "cli.interpreter", "cli.import", "cli.main", "bench.check",
]
LAYER_COUNTS = [
    "groups.elements", "groups.classes", "chartable.cells", "chartable.galois_classes",
    "signature.searches", "signature.exists", "signature.not_exists",
    "signature.budget_exhausted", "covers.reports", "covers.sheets",
    "monodromy.cosets", "monodromy.mismatches", "jacobian.galois_classes",
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(PASSES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="import geosig, load the cases, and exit (times set-up)")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; fail if it holds no geosig."""
    src = ROOT / "src"
    if not (src / "geosig" / "__init__.py").is_file():
        sys.exit(f"no geosig sources under {src}")
    sys.path.insert(0, str(src))
    import geosig
    if Path(geosig.__file__).resolve().parent != (src / "geosig").resolve():
        sys.exit(f"imported geosig from {geosig.__file__}, not from {src}")


def runner_for(workload, child_rss):
    """The workload's query runner; CLI queries add their child's peak RSS to child_rss."""
    import workloads
    if workload == "cli":
        return functools.partial(workloads.run_cli, child_rss=child_rss)
    return {"tables": workloads.run_table, "search": workloads.run_search,
            "lattice": workloads.run_lattice, "lattice_w_d5": workloads.run_lattice}[workload]


def run_pass(queries, runner, tr, rng, probe=None):
    """One pass over all queries in a seeded order: [(id, seconds, failed, decided)]."""
    order = list(queries)
    rng.shuffle(order)
    out = []
    for case in order:
        tr.query = case["id"]
        # the previous query's garbage goes now, untimed, so that neither its
        # collection nor its memory lands on this query: queries are independent
        gc.collect()
        clocked = isinstance(tr, ReferenceClock)
        if clocked:
            tr.start_query()
        start = perf_counter()
        try:
            with tr.span("query"):
                decided = runner(tr, case)
            failed = False
        except Exception as exc:  # a query that raises is a failed query, not a crash
            print(f"FAILED {case['id']}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed, decided = True, False
        out.append((case["id"], perf_counter() - start, failed, decided))
        if clocked:
            tr.end_query()
        if probe is not None:
            probe(tr, case)
    return out


def cycle_count(workload, seconds, passes_per_cycle):
    """Cycles of passes for `seconds`, at least one.

    The count depends on `seconds` only, not on the measured speed: parent and
    change then take the same number of samples, so the tail percentile is the
    same on both, and a burst of load cannot change it.
    """
    return max(1, round(PASSES[workload] * seconds / RUN_SECONDS / passes_per_cycle))


def run_passes(queries, runner, cycles, rng, tracers, limit=float("inf"),
               between=None, probe=None):
    """Run up to `cycles` cycles of one pass per tracer, with `between(slot, last)` around them.

    No cycle starts that would take the time spent in cycles past `limit`
    seconds, at the pace of the fastest cycle so far: on a machine slowed by
    other tenants a run then makes fewer passes instead of running long.  A pass's time is the
    sum of its query times, which leaves out the benchmark's work between
    queries (garbage collection, CLI probes).
    """
    passes, spent, fastest = [], 0.0, float("inf")
    for slot in range(cycles):
        if slot and spent + fastest > limit:
            break
        if between is not None:
            between(slot, False)
        start = perf_counter()
        for tr in tracers:
            tr.pass_no = len(passes)
            results = run_pass(queries, runner, tr, rng,
                               probe if isinstance(tr, Tracer) else None)
            passes.append((tr, sum(secs for _, secs, _, _ in results), results))
        spent += perf_counter() - start
        fastest = min(fastest, perf_counter() - start)
    if between is not None:
        between(len(passes) // len(tracers), True)
    return passes


def setup_probe(workload):
    """Wall time of a fresh process that imports geosig and loads the cases."""
    start = perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "0", "--seconds", "0", "--trace", "0", "--setup-probe"],
                   check=True, cwd=ROOT)
    return perf_counter() - start


def tail(samples):
    """Value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def best_times(passes):
    """Each query's fastest time over the passes, by query id."""
    best = {}
    for _, _, rs in passes:
        for case_id, secs, _, _ in rs:
            best[case_id] = min(secs, best.get(case_id, secs))
    return best


def ref_costs(passes):
    """Query costs in reference units: ({query id: median cost}, [cost of every run]).

    The passes ran under one `ReferenceClock`.  A run's cost is its time over
    the reference time measured around it (`spans.reference_time`): other
    tenants of a shared host slow the query and the reference computation
    alike, so the ratio moves far less than either time.
    """
    clock = passes[0][0]
    runs = defaultdict(list)
    for _, _, rs in passes:
        for case_id, secs, _, _ in rs:
            runs[case_id].append(secs)
    costs = {case_id: [t / unit for t, unit in zip(secs, clock.units[case_id])]
             for case_id, secs in runs.items()}
    return ({case_id: statistics.median(c) for case_id, c in costs.items()},
            [cost for c in costs.values() for cost in c])


def rate(passes):
    """Completed queries per second of a pass made of each query's fastest run."""
    results = [r for _, _, rs in passes for r in rs]
    completed = sum(not f for _, _, f, _ in results) / len(passes)
    return completed / sum(best_times(passes).values())


def end_to_end(workload, passes, child_rss):
    results = [r for _, _, rs in passes for r in rs]
    attempted = len(results)
    failed = sum(f for _, _, f, _ in results)
    decided = sum(d for _, _, _, d in results)
    completed = (attempted - failed) / len(passes)
    if workload == "cli":
        peak_kib = max(child_rss, default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    costs, samples = ref_costs(passes)
    tail_ref, pct = tail(samples)
    unit_ms = 1000 * statistics.median(u for us in passes[0][0].units.values() for u in us)
    walls = " ".join(f"{wall:.2f}" for _, wall, _ in passes)
    print(f"{workload}: {len(passes)} passes ({walls} s), {attempted} queries, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); query_tail_ref is p{pct:.1f} "
          f"of {attempted} samples; reference time median {unit_ms:.2f} ms; in seconds, "
          f"fastest runs: {rate(passes):.4g} queries/s, "
          f"median query {statistics.median(best_times(passes).values()):.4g} s")
    metrics = {
        "queries_per_ref": (completed / sum(costs.values()), "1/ref"),
        "query_p50_ref": (statistics.median(costs.values()), "ref"),
        "query_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "decided_frac": (decided / attempted, "ratio"),
    }
    return attempted, failed, metrics


def per_layer(passes):
    """Medians over traced passes of per-layer self times and counts, plus overhead."""
    traced = [p for p in passes if isinstance(p[0], Tracer)]
    plain = [p for p in passes if not isinstance(p[0], Tracer)]
    rows = []
    # a pass's number is its index in `passes`: run_passes numbers them so
    for pass_no, (tr, _, rs) in enumerate(passes):
        if not isinstance(tr, Tracer):
            continue
        self_s = tr.self_times(pass_no)
        counts = tr.counts[pass_no]
        row = {f"{name}_s": self_s[name] for name in LAYER_TIMES}
        # the import probe starts its own interpreter; its share excludes that
        row["cli.import_s"] -= row["cli.interpreter_s"]
        row.update({name: counts[name] for name in LAYER_COUNTS})
        row["signature.decided_ratio"] = (
            (counts["signature.exists"] + counts["signature.not_exists"])
            / counts["signature.searches"] if counts["signature.searches"] else 0.0)
        row["bench.query_s"] = sum(secs for _, secs, _, _ in rs)
        row["bench.glue_s"] = row["bench.query_s"] - sum(row[f"{n}_s"] for n in LAYER_TIMES)
        rows.append(row)
    metrics = {}
    for name in rows[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = (statistics.median(r[name] for r in rows), unit)
    metrics["trace.traced_qps"] = (rate(traced), "1/s")
    metrics["trace.untraced_qps"] = (rate(plain), "1/s")
    metrics["trace.qps_ratio"] = (rate(traced) / rate(plain), "ratio")
    for name in ("bench.query_s", "bench.glue_s", "trace.qps_ratio"):
        print(f"{name}: {metrics[name][0]:.6g}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process and the processes it starts, so that a query,
    # or its child, and the reference computation around it see the same load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import workloads
    queries = workloads.load(args.workload)
    if args.setup_probe:
        return 0
    rng, child_rss = random.Random(args.seed), []
    runner = runner_for(args.workload, child_rss)
    if args.trace:
        tracer = Tracer()
        cycles = cycle_count(args.workload, args.seconds, 2)
        probe = workloads.probe_cli if args.workload == "cli" else None
        passes = run_passes(queries, runner, cycles, rng, [NullTracer(), tracer],
                            RUN_LIMIT * args.seconds, probe=probe)
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json")
        attempted = sum(len(rs) for _, _, rs in passes)
        failed = sum(f for _, _, rs in passes for _, _, f, _ in rs)
        metrics = per_layer(passes)
    else:
        # the set-up probes are spread over the gaps between passes, so that
        # their median does not rest on one moment's load
        cycles = cycle_count(args.workload, args.seconds, 1)
        setup_times = []

        def between(slot, last):
            due = SETUP_PROBES if last else SETUP_PROBES * (slot + 1) // (cycles + 1)
            while len(setup_times) < due:
                setup_times.append(setup_probe(args.workload))

        passes = run_passes(queries, runner, cycles, rng, [ReferenceClock()],
                            RUN_LIMIT * args.seconds, between=between)
        attempted, failed, metrics = end_to_end(args.workload, passes, child_rss)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
