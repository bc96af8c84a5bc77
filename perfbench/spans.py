"""Spans and counters recorded around calls into geosig.

A span is (name, start, end, parent, query, pass).  Spans stay in memory
and are written out once, when the run ends.  `NullTracer` has the same
interface and records nothing, so traced and untraced passes run the same
benchmark code.  `ReferenceClock`, for the end-to-end passes, records no
spans either, only the time of a fixed reference computation around each
query.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter


class NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


# S7 from a 7-cycle and a transposition, as 0-based image tuples
_S7 = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))


def reference_time() -> float:
    """Seconds that one fixed pure-Python computation takes now.

    The computation is the closure of S7 from two generators: 5040 tuple
    products and set lookups, the kind of work geosig does, but no geosig
    code, so no change to geosig can move it.  Timed next to a query, it
    measures how fast the machine runs at that moment.
    """
    start = perf_counter()
    seen = {tuple(range(7))}
    frontier = list(seen)
    while frontier:
        grown = []
        for p in frontier:
            for g in _S7:
                q = tuple(g[v] for v in p)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return perf_counter() - start


class ReferenceClock(NullTracer):
    """A `NullTracer` that also times the reference computation around each query.

    `units[query]` holds one reference time per run of that query, the mean
    of `reference_time()` just before and just after it.
    """

    def __init__(self):
        self.query = None
        self.units: dict[str, list[float]] = defaultdict(list)
        self._before = 0.0

    def start_query(self) -> None:
        self._before = reference_time()

    def end_query(self) -> None:
        self.units[self.query].append((self._before + reference_time()) / 2)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.query = None
        self.pass_no = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "query": self.query, "pass": self.pass_no}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.pass_no][name] += n

    def self_times(self, pass_no: int) -> Counter:
        """Per span name, total duration minus the time covered by child spans."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec["parent"] is not None:
                children[rec["parent"]].append(rec)
        out = Counter()
        for idx, rec in enumerate(self.spans):
            if rec["pass"] != pass_no:
                continue
            covered, reach = 0.0, rec["start"]
            for ch in sorted(children[idx], key=lambda c: c["start"]):
                lo, hi = max(ch["start"], reach), min(ch["end"], rec["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[rec["name"]] += rec["end"] - rec["start"] - covered
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }))
