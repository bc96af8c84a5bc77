"""The five workloads: their queries, the references, and one runner each.

A query is one (group, signature or table) request.  Each query builds
its own group from its input, so no FiniteGroup, table or vector object is
shared between queries.  Every reference below is a mathematical fact or a
hand proof; `verify_references`, which the self-test runs, checks the
recorded witnesses and the proofs' premises with `ref`, so none of them
rests on geosig.  See NOTES.md for why each case is in its workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from geosig import (
    SearchBudgetExceeded,
    catalog,
    compute_table,
    factor_dimensions,
    find_generating_vector,
    gamma1_analysis,
    group_from_payload,
    lattice_report,
    refinements,
    signature_from_payload,
    verify_generating_vector,
)
from geosig import cli, monodromy

import ref
from ref import ReferenceFailure

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
W_D5 = (HERE / "groups" / "w_d5.json").read_text()
BUDGET = 50_000  # one node budget for every search; only S6 (1;[2,b]) exhausts it

# own generator data for the groups whose witnesses and proofs are rechecked
GROUPS = {
    "dihedral(4)": (4, {"x": "(1,2,3,4)", "y": "(1,3)"}, 8),
    "symmetric(4)": (4, {"a": "(1,2,3,4)", "b": "(1,2)"}, 24),
    "symmetric(5)": (5, {"a": "(1,2,3,4,5)", "b": "(1,2)"}, 120),
    "symmetric(6)": (6, {"a": "(1,2,3,4,5,6)", "b": "(1,2)"}, 720),
    "alternating(5)": (5, {"a": "(1,2,3)", "b": "(1,2,3,4,5)"}, 60),
    "alternating(6)": (6, {"a": "(1,2,3)", "b": "(2,3,4,5,6)"}, 360),
    "wc3": (6, {"x": "(1,4)", "y": "(2,5)", "z": "(3,6)",
                "a": "(1,2,3)(4,5,6)", "b": "(1,2)(4,5)"}, 48),
    "w_d5": (10, json.loads(W_D5)["generators"], 1920),
}


def _sig(group, genus, *branches, **extra):
    """branches are (order, class_rep) pairs, class_rep None for a plain entry."""
    return dict(group=group, genus=genus, branches=list(branches), **extra)


S5_245 = _sig("symmetric(5)", 0, (2, "b"), (4, "(1,2,3,4)"), (5, "a"),
              witness={"a": [], "b": [], "c": ["(4,5)", "(1,2,3,4)", "(1,5,4,3,2)"]})
S6_265 = _sig("symmetric(6)", 0, (2, "b"), (6, "a"), (5, "(1,2,3,4,5)"),
              witness={"a": [], "b": [], "c": ["(5,6)", "(1,2,3,4,5,6)", "(1,5,4,3,2)"]})
A6_445 = _sig("alternating(6)", 0, (4, None), (4, None), (5, None),
              witness={"a": [], "b": [], "c": ["(1,2)(3,4,5,6)", "(1,2,3,5)(4,6)", "(1,4,5,6,3)"]})
WC3_1 = _sig("wc3", 0, (6, "xa^2"), (4, "xyab"), (2, "xyzb"),
             witness={"a": [], "b": [],
                      "c": ["(1,2,3,4,5,6)", "(1,2,4,5)(3,6)", "(1,4)(2,6)(3,5)"]})
WC3_2 = _sig("wc3", 0, (6, "xa^2"), (4, "yab"), (2, "yzab"),
             witness={"a": [], "b": [], "c": ["(1,2,3,4,5,6)", "(2,6,5,3)", "(1,6)(3,4)"]})
WC3_SUBGROUPS = [["y", "z", "xyzab"], ["y", "z", "ab"]]

# tables: known order, class count, exponent and degrees (None: only sum of squares)
TABLES = [
    dict(group="quaternion8", order=8, classes=5, exponent=4, degrees=[1, 1, 1, 1, 2]),
    dict(group="wc3", order=48, classes=10, exponent=12, degrees=[1] * 4 + [2] * 2 + [3] * 4),
    dict(group="alternating(6)", order=360, classes=7, exponent=60,
         degrees=[1, 5, 5, 8, 8, 9, 10]),
    dict(group="symmetric(6)", order=720, classes=11, exponent=60,
         degrees=[1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]),
    dict(group="cyclic(30)", order=30, classes=30, exponent=30, degrees=[1] * 30),
    # dihedral(n), n even: 4 linear characters and (n - 2)/2 of degree 2
    dict(group="dihedral(30)", order=60, classes=18, exponent=30, degrees=[1] * 4 + [2] * 14),
    dict(group="w_d5", order=1920, classes=18, exponent=120, degrees=None),
]

SEARCH = [
    dict(S5_245, truth="exists"),
    _sig("alternating(5)", 0, (2, None), (3, None), (5, None), truth="exists",
         witness={"a": [], "b": [], "c": ["(2,3)(4,5)", "(1,2,4)", "(1,5,4,3,2)"]}),
    dict(A6_445, truth="exists"),
    dict(S6_265, truth="exists"),
    dict(WC3_1, truth="exists"),
    _sig("symmetric(5)", 1, (2, "b"), truth="not-exists", proof="parity"),
    _sig("symmetric(4)", 1, (2, "b"), truth="not-exists", proof="parity"),
    _sig("symmetric(4)", 0, *[(2, "b")] * 5, truth="not-exists", proof="parity"),
    # (0;2,4,4) on w_d5 is left out: its 5-7 s alone would cap a run at two passes
    *(_sig("w_d5", 0, *[(m, None) for m in orders], truth="not-exists",
           proof="euclidean-triangle")
      for orders in ((2, 3, 6), (3, 3, 3))),
    # decided by parity, but exhausts BUDGET at the seed: the undecided case
    _sig("symmetric(6)", 1, (2, "b"), truth="not-exists", proof="parity"),
]

LATTICE = [
    dict(WC3_1, subgroups=WC3_SUBGROUPS),
    dict(WC3_2, subgroups=WC3_SUBGROUPS),
    S5_245,
    # its summary string is wrong at the seed (Schur bound 2 where the index
    # is 1), so only Schur-independent fields are checked; see NOTES.md
    S6_265,
    dict(A6_445, realizable_refinements=1),
    _sig("symmetric(4)", 1, (2, "b"), (2, "b"),
         witness={"a": ["()"], "b": ["(2,3,4)"], "c": ["(1,2)", "(1,2)"]}),
]

# the same pipeline on the order-1920 group; its own workload because one
# 4-6 s query cannot be repeated often enough in a run to time it steadily
LATTICE_W_D5 = [
    _sig("w_d5", 0, (2, "(4,5)(9,10)"), (5, "(1,2,3,4,5)(6,7,8,9,10)"),
         (8, "(1,6)(2,4,3,5,7,9,8,10)"),
         witness={"a": [], "b": [],
                  "c": ["(4,5)(9,10)", "(1,2,3,4,10)(5,6,7,8,9)", "(1,9,8,7,6,4,3,2)(5,10)"]}),
]


def _payload(case):
    branches = [{"order": m} if rep is None else {"order": m, "class_rep": rep}
                for m, rep in case["branches"]]
    return {"genus": case["genus"], "branches": branches}


D4_GOOD = _sig("dihedral(4)", 0, (4, "x"), (2, "y"), (2, "xy"),
               witness={"a": [], "b": [], "c": ["(1,2,3,4)", "(2,4)", "(1,4)(2,3)"]})
D4_BAD = _sig("dihedral(4)", 0, (4, "x"), (2, "x^2"), (2, "x^2"),
              truth="not-exists", proof="proper-normal-subgroup")
CLI = [
    dict(D4_GOOD, argv=["exists", "--group", "dihedral(4)", "--signature",
                        json.dumps(_payload(D4_GOOD))], exit=0, verdict="exists"),
    dict(WC3_1, argv=["lattice", "--group", "wc3", "--signature",
                      json.dumps(_payload(WC3_1)), "--subgroups",
                      *(",".join(w) for w in WC3_SUBGROUPS), "--cross-check"], exit=0),
    dict(WC3_1, argv=["decompose", "--group", "wc3", "--signature",
                      json.dumps(_payload(WC3_1))], exit=0),
    dict(TABLES[0], argv=["chartab", "--group", "quaternion8"], exit=0),
    dict(D4_BAD, argv=["exists", "--group", "dihedral(4)", "--signature",
                       json.dumps(_payload(D4_BAD))], exit=1, verdict="not-exists"),
    dict(group="wc3", argv=["exists", "--group", "wc3", "--signature",
                            json.dumps({"genus": 2, "branches": [{"order": 2}, {"order": 2}]}),
                            "--budget", "5"], exit=2, verdict="budget-exhausted"),
    dict(group="nosuchgroup(3)", argv=["exists", "--group", "nosuchgroup(3)", "--signature",
                                       json.dumps(_payload(D4_GOOD))], exit=64),
]


def _case_id(case) -> str:
    if "argv" in case:
        return f"{case['argv'][0]} {case['group']} exit {case['exit']}"
    if "branches" not in case:
        return case["group"]
    body = ",".join(str(m) if rep is None else f"[{m},{rep}]" for m, rep in case["branches"])
    return f"{case['group']} ({case['genus']};{body})"


# -- loading ---------------------------------------------------------------------


def load(workload: str) -> list[dict]:
    """The workload's cases, each with an id and, where checks need it, its RefGroup.

    The recorded witnesses and proofs are static data; `verify_references`
    checks them, and the self-test runs it.
    """
    cases = {"tables": TABLES, "search": SEARCH, "lattice": LATTICE,
             "lattice_w_d5": LATTICE_W_D5, "cli": CLI}[workload]
    refs = {name: ref.RefGroup(*GROUPS[name])
            for name in {c["group"] for c in cases if "witness" in c or "proof" in c}}
    if any(c["group"] == "w_d5" for c in cases):
        G = refs.get("w_d5") or ref.RefGroup(*GROUPS["w_d5"])
        if G.class_count() != 18:
            raise ReferenceFailure("w_d5 does not have 18 classes")
    return [dict(c, id=_case_id(c), ref=refs.get(c["group"])) for c in cases]


def verify_references(cases) -> list:
    """Problems with the recorded witnesses and with the premises of the hand proofs."""
    out = []
    for case in cases:
        if "witness" in case:
            found = _witness_problems(case, case["witness"])
        elif "proof" in case:
            found = ref.proof_problems(case["ref"], case["proof"], case["genus"],
                                       [m for m, _ in case["branches"]],
                                       [r for _, r in case["branches"]])
        else:
            continue
        out += [f"{case['id']}: {p}" for p in found]
    return out


def _fail(case, problems):
    if problems:
        raise ReferenceFailure(f"{case['id']}: {'; '.join(problems)}")


# -- in-process queries --------------------------------------------------------


def build_group(tr, case):
    """Build the query's own group and force its cached class data under spans."""
    with tr.span("groups.build"):
        if case["group"] == "w_d5":
            G = group_from_payload(json.loads(W_D5))
        else:
            G = catalog(case["group"])
    with tr.span("groups.classes"):
        G.conjugacy_classes
        G.class_index
    with tr.span("groups.cyclic_classes"):
        G.cyclic_subgroup_classes
        G.merged_element_classes
    tr.count("groups.elements", G.order)
    tr.count("groups.classes", len(G.conjugacy_classes))
    if case["group"] in GROUPS and G.order != GROUPS[case["group"]][2]:
        raise ReferenceFailure(f"{case['id']}: group order {G.order}")
    if case["group"] == "w_d5" and len(G.conjugacy_classes) != 18:
        raise ReferenceFailure(f"{case['id']}: {len(G.conjugacy_classes)} classes")
    return G


def _table(tr, G):
    with tr.span("chartable.table"):
        table = compute_table(G)
    tr.count("chartable.cells", len(table.classes) ** 2)
    tr.count("chartable.galois_classes", len(table.galois_classes))
    return table


def _witness_problems(case, vec_json):
    orders = [m for m, _ in case["branches"]]
    reps = [r for _, r in case["branches"]]
    return case["ref"].vector_problems(case["genus"], orders, reps, vec_json)


def run_table(tr, case) -> bool:
    G = build_group(tr, case)
    table = _table(tr, G)
    with tr.span("chartable.to_json"):
        payload = table.to_json()
    with tr.span("bench.check"):
        _fail(case, ref.table_problems(payload, case["order"], case["classes"],
                                       case["exponent"], case["degrees"]))
    return True


def _search(tr, G, sig):
    """The search verdict: a vector, None (proven absent), or "budget"."""
    tr.count("signature.searches")
    try:
        with tr.span("signature.search"):
            vec = find_generating_vector(G, sig, BUDGET)
    except SearchBudgetExceeded:
        tr.count("signature.budget_exhausted")
        return "budget"
    tr.count("signature.not_exists" if vec is None else "signature.exists")
    return vec


def run_search(tr, case) -> bool:
    G = build_group(tr, case)
    with tr.span("signature.parse"):
        sig = signature_from_payload(G, _payload(case))
    vec = _search(tr, G, sig)
    if vec == "budget":
        return False
    if vec is None:
        _fail(case, [] if case["truth"] == "not-exists"
              else ["proven absent, but a witness is known"])
        return True
    _fail(case, [] if case["truth"] == "exists" else [f"found a vector against {case['proof']}"])
    with tr.span("signature.verify"):
        ok = verify_generating_vector(G, sig, vec).ok
    _fail(case, [] if ok else ["geosig rejects its own witness"])
    with tr.span("bench.check"):
        _fail(case, _witness_problems(case, vec.to_json()))
    return True


def run_lattice(tr, case) -> bool:
    G = build_group(tr, case)
    with tr.span("signature.parse"):
        sig = signature_from_payload(G, _payload(case))
        candidates = [sig] if sig.is_geometric else refinements(G, sig)
    found = []
    for cand in candidates:
        vec = _search(tr, G, cand)
        if vec == "budget":
            return False
        if vec is not None:
            found.append((cand, vec))
    _fail(case, [] if len(found) == case.get("realizable_refinements", 1)
          else [f"{len(found)} realizable refinements"])
    sig, vec = found[0]
    gamma = sig.quotient_genus

    with tr.span("covers.lattice"):
        subs = [G.subgroup_from_words(w, label=",".join(w)) for w in case.get("subgroups", ())]
        reports = lattice_report(G, sig, subs)
    tr.count("covers.reports", len(reports))
    tr.count("covers.sheets", sum(rep.degree for rep in reports))
    for rep in reports:
        with tr.span("monodromy.oracle"):
            rep.oracle = monodromy.oracle_summary(G, rep.subgroup, vec, gamma)
        tr.count("monodromy.cosets", sum(rep.oracle["cycle_structures"][0]))
    table = _table(tr, G)
    with tr.span("jacobian.decompose"):
        dec = factor_dimensions(G, table, sig).to_json()
    tr.count("jacobian.galois_classes", len(dec["classes"]))
    conditions = ()
    if gamma == 1:
        with tr.span("jacobian.gamma1"):
            conditions = [c.to_json() for c in gamma1_analysis(G, table, sig)]

    with tr.span("bench.check"):
        genus = ref.riemann_hurwitz(G.order, gamma, [m for m, _ in case["branches"]])
        problems = _witness_problems(case, vec.to_json())
        problems += ref.decomposition_problems(dec, genus)
        for rep in reports:
            report = rep.to_json()
            tr.count("monodromy.mismatches", ref.oracle_mismatch(report))
            problems += ref.report_problems(report, gamma)
        for c in conditions:
            flags = {c["dim_is_zero"], c["stabilizers_in_kernel"],
                     c["kernel_cover_unramified"], c["kernel_quotient_is_torus"]}
            if len(flags) != 1:
                problems.append(f"gamma-1 conditions disagree for chi{c['representative']}")
        _fail(case, problems)
    return True


# -- command-line queries ------------------------------------------------------


def _cli_process(*argv):
    """Run a child to completion: (exit code, stdout, stderr, its peak RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env, cwd=SRC.parent) as proc:
        out = proc.stdout.read()
        err = proc.stderr.read()  # one short line at most, so it never fills its pipe
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def run_cli(tr, case, child_rss) -> bool:
    """One fresh `python -m geosig.cli` process, checked by exit code and JSON.

    Appends the child's peak RSS (KiB) to `child_rss`.
    """
    code, out, err, rss = _cli_process("-m", "geosig.cli", *case["argv"], "--format", "json")
    child_rss.append(rss)
    with tr.span("bench.check"):
        if code != case["exit"]:
            raise ReferenceFailure(f"{case['id']}: exit {code}: {err.strip()}")
        if code == 64:
            _fail(case, [] if not out and err.startswith("error:") else ["usage error output"])
            return True
        payload = json.loads(out)
        cmd = case["argv"][0]
        if "verdict" in case and payload["verdict"] != case["verdict"]:
            raise ReferenceFailure(f"{case['id']}: verdict {payload['verdict']}")
        if cmd == "exists" and code == 0:
            _fail(case, _witness_problems(case, payload["witness"]))
        elif cmd == "chartab":
            _fail(case, ref.table_problems(payload, case["order"], case["classes"],
                                           case["exponent"], case["degrees"]))
        elif cmd in ("lattice", "decompose"):
            genus = ref.riemann_hurwitz(len(case["ref"].elements), case["genus"],
                                        [m for m, _ in case["branches"]])
            if cmd == "decompose":
                _fail(case, ref.decomposition_problems(payload["decomposition"], genus))
            else:
                problems = [] if payload["cross_checked"] and payload["genus"] == genus else [
                    "lattice not cross-checked or wrong genus"]
                for rep in payload["reports"]:
                    problems += ref.report_problems(rep, case["genus"])
                _fail(case, problems)
    return code != 2


def probe_cli(tr, case):
    """The traced split of one CLI query: interpreter, import, and in-process main."""
    with tr.span("cli.interpreter"):
        _cli_process("-c", "pass")
    with tr.span("cli.import"):
        _cli_process("-c", "import geosig.cli")
    sink = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main([*case["argv"], "--format", "json"])


