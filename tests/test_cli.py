import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geosig import covers, jacobian
from geosig.cli import main
from geosig.errors import InternalCheckError
from geosig.groups import Subgroup, catalog
from geosig.signature import signature_from_payload

D4_FIRST = json.dumps({
    "genus": 0,
    "branches": [
        {"order": 4, "class_rep": "x"},
        {"order": 2, "class_rep": "y"},
        {"order": 2, "class_rep": "xy"},
    ],
})
D4_SECOND = json.dumps({
    "genus": 0,
    "branches": [
        {"order": 4, "class_rep": "x"},
        {"order": 2, "class_rep": "x^2"},
        {"order": 2, "class_rep": "x^2"},
    ],
})
WC3_FIRST = json.dumps({
    "genus": 0,
    "branches": [
        {"order": 6, "class_rep": "xa^2"},
        {"order": 4, "class_rep": "xyab"},
        {"order": 2, "class_rep": "xyzb"},
    ],
})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exists_positive(capsys):
    code, out, _ = run(capsys, "exists", "--group", "dihedral(4)",
                       "--signature", D4_FIRST)
    assert code == 0
    assert "exists" in out


def test_exists_negative(capsys):
    code, out, _ = run(capsys, "exists", "--group", "dihedral(4)",
                       "--signature", D4_SECOND)
    assert code == 1
    assert "not-exists" in out


def test_exists_budget(capsys):
    code, out, _ = run(capsys, "exists", "--group", "wc3",
                       "--signature", json.dumps({"genus": 2, "branches":
                                                  [{"order": 2}, {"order": 2}]}),
                       "--budget", "5")
    assert code == 2
    assert "budget" in out


def test_exists_json_roundtrip(capsys):
    code, out, _ = run(capsys, "exists", "--group", "dihedral(4)",
                       "--signature", D4_FIRST, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "exists"
    assert payload["genus"] == 0
    assert payload["group"]["hash"]
    # byte-stable across runs
    code2, out2, _ = run(capsys, "exists", "--group", "dihedral(4)",
                         "--signature", D4_FIRST, "--format", "json")
    assert out == out2


def test_malformed_inputs_exit_64(capsys):
    code, _, err = run(capsys, "exists", "--group", "nosuchgroup(3)",
                       "--signature", D4_FIRST)
    assert code == 64 and "error" in err
    code, _, err = run(capsys, "exists", "--group", "dihedral(4)",
                       "--signature", "{bad json")
    assert code == 64
    code, _, err = run(capsys, "exists", "--group", "dihedral(4)",
                       "--signature", json.dumps({"genus": 0, "branches":
                                                  [{"order": 4, "class_rep": "y"}]}))
    assert code == 64


def test_lattice_wc3(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "wc3",
                       "--signature", WC3_FIRST,
                       "--subgroups", "y,z,xyzab", "y,z,ab",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    genera = {r["subgroup"]["label"]: r["genus"] for r in payload["reports"]}
    assert genera["y,z,xyzab"] == 0
    assert genera["y,z,ab"] == 1


def test_subgroups_in_cycle_notation(capsys):
    # x = (1,4) and y = (2,5) in wc3; commas inside a cycle do not split
    reports = {}
    for spec in ("x,y", "(1,4),(2,5)"):
        code, out, _ = run(capsys, "lattice", "--group", "wc3", "--signature",
                           WC3_FIRST, "--subgroups", spec, "--format", "json")
        assert code == 0
        extra = json.loads(out)["reports"][-1]
        assert extra["subgroup"]["order"] == 4
        reports[spec] = (extra["genus"], extra["branch_values"])
    assert reports["x,y"] == reports["(1,4),(2,5)"]


def test_lattice_cross_check(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "cyclic(4)",
                       "--signature", json.dumps({
                           "genus": 1,
                           "branches": [{"order": 2, "class_rep": "x^2"},
                                        {"order": 2, "class_rep": "x^2"}],
                       }),
                       "--cross-check", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cross_checked"]
    for rep in payload["reports"]:
        assert rep["oracle"]["genus"] == rep["genus"]
        for bv in rep["branch_values"]:
            assert bv["type_rep"]


def test_lattice_unrealizable_exit_1(capsys):
    code, _, err = run(capsys, "lattice", "--group", "dihedral(4)",
                       "--signature", D4_SECOND)
    assert code == 1
    assert "not realizable" in err


def test_lattice_plain_signature_unique_refinement(capsys):
    # cyclic(4) with plain (1; 2,2): the only order-2 class is <x^2>
    code, out, _ = run(capsys, "lattice", "--group", "cyclic(4)",
                       "--signature", json.dumps({"genus": 1, "branches":
                                                  [{"order": 2}, {"order": 2}]}),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    genera = sorted(r["genus"] for r in payload["reports"])
    assert genera == [1, 1, 3]


def test_lattice_plain_signature_ambiguous(capsys):
    code, _, err = run(capsys, "lattice", "--group", "dihedral(4)",
                       "--signature", json.dumps({"genus": 0, "branches":
                                                  [{"order": 4}, {"order": 2},
                                                   {"order": 2}]}))
    assert code == 64
    assert "ambiguous" in err


def test_decompose_wc3(capsys):
    code, out, _ = run(capsys, "decompose", "--group", "wc3",
                       "--signature", WC3_FIRST, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    dec = payload["decomposition"]
    assert dec["summary"] == "JS ~ E^3"
    nonzero = [c for c in dec["classes"] if c["dim_B"] > 0]
    assert len(nonzero) == 1
    assert nonzero[0]["degree"] == 3 and nonzero[0]["exponent"] == 3


def test_decompose_gamma1_runs_factor_dimensions_once(capsys, monkeypatch):
    calls = []
    real = jacobian.factor_dimensions

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jacobian, "factor_dimensions", counted)
    code, out, _ = run(capsys, "decompose", "--group", "symmetric(4)", "--signature",
                       json.dumps({"genus": 1, "branches": [{"order": 2, "class_rep": "b"},
                                                            {"order": 2, "class_rep": "b"}]}),
                       "--format", "json")
    assert code == 0
    assert "gamma1_conditions" in json.loads(out)
    assert len(calls) == 1


def test_decompose_text_output(capsys):
    code, out, _ = run(capsys, "decompose", "--group", "cyclic(4)",
                       "--signature", json.dumps({"genus": 1, "branches":
                                                  [{"order": 2}, {"order": 2}]}))
    assert code == 0
    assert "JS ~" in out
    assert "torus-quotient factors" in out


def test_decompose_schur_override(capsys):
    # overriding the trivial character's class is harmless and recorded
    code, out, _ = run(capsys, "decompose", "--group", "cyclic(4)",
                       "--signature", json.dumps({"genus": 1, "branches":
                                                  [{"order": 2}, {"order": 2}]}),
                       "--schur-override", "0=1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    sources = {c["representative"]: c["schur_source"]
               for c in payload["decomposition"]["classes"]}
    assert "user-override" in sources.values()


def test_chartab_text_and_json(capsys):
    code, out, _ = run(capsys, "chartab", "--group", "quaternion8",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["characters"]) == 5
    schur = {gc["schur_index"] for gc in payload["galois_classes"]}
    assert schur == {1, 2}
    assert payload["schur_bound_verified_group"] is True

    code, out, _ = run(capsys, "chartab", "--group", "cyclic(4)")
    assert code == 0
    assert "chi0" in out


def test_group_file_and_signature_file(tmp_path, capsys):
    gpath = tmp_path / "d4.json"
    gpath.write_text(json.dumps({
        "name": "my-d4",
        "degree": 4,
        "generators": {"x": "(1,2,3,4)", "y": "(1,3)"},
    }))
    spath = tmp_path / "sig.json"
    spath.write_text(D4_FIRST)
    code, out, _ = run(capsys, "exists", "--group", str(gpath),
                       "--signature", str(spath), "--format", "json")
    assert code == 0
    assert json.loads(out)["group"]["name"] == "my-d4"


def test_bad_schur_override_exits_64(capsys):
    # unreadable, no such character, zero, not dividing chi(1) (degree-1
    # character of wc3), two values for one Galois class (the degree-2
    # characters 2 and 3 of dihedral(5)) and two values for one character;
    # none of them is an internal defect
    for argv in [
        ("chartab", "--group", "cyclic(4)", "--schur-override", "abc"),
        ("chartab", "--group", "quaternion8", "--schur-override", "99=2"),
        ("chartab", "--group", "quaternion8", "--schur-override", "0=0"),
        ("decompose", "--group", "wc3", "--signature", WC3_FIRST,
         "--schur-override", "1=2"),
        ("chartab", "--group", "dihedral(5)",
         "--schur-override", "2=1", "--schur-override", "3=2"),
        ("chartab", "--group", "quaternion8",
         "--schur-override", "4=1", "--schur-override", "4=2"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert err.startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ["exists", "--group", "wc3"],
    ["exists", "--group", "wc3", "--signature", WC3_FIRST, "--budget", "x"],
    ["frobnicate", "--group", "wc3"],
], ids=["missing-signature", "bad-budget", "unknown-command"])
def test_usage_errors_exit_64(capsys, argv):
    # argparse's own status 2 would read as "search budget exhausted"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


def test_group_over_the_order_cap_exits_64(capsys):
    code, out, err = run(capsys, "exists", "--group", "symmetric(7)",
                         "--signature", json.dumps({"genus": 0, "branches": []}))
    assert code == 64
    assert out == ""
    assert "exceeds the supported cap of 2000" in err


def test_closed_stdout_exits_74():
    # the reader of the pipe is gone long before the table is written: a
    # failed write is neither a verdict nor an internal defect
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "geosig.cli", "chartab", "--group", "symmetric(6)",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 74
    assert err.startswith("error: cannot write the output:"), err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    assert "--schur-override" in capsys.readouterr().out


def test_trivial_group_lattice(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "cyclic(1)",
                       "--signature", json.dumps({"genus": 2, "branches": []}),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["genus"] == 2


def test_json_parse_print_roundtrip(capsys):
    # parse(print(report)) recovers the payload for every command
    commands = [
        ("exists", "--group", "dihedral(4)", "--signature", D4_FIRST),
        ("lattice", "--group", "wc3", "--signature", WC3_FIRST),
        ("decompose", "--group", "wc3", "--signature", WC3_FIRST),
        ("chartab", "--group", "quaternion8"),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out


@pytest.mark.parametrize("defect", [
    InternalCheckError("genus formulas disagree: 1 vs 2"),
    ZeroDivisionError("genus formulas disagree: division by zero"),
])
def test_internal_defect_exits_70(capsys, monkeypatch, defect):
    # a failed cross-check or a stray exception is a defect (70), never a
    # verdict: status 1 would claim the action does not exist
    def broken(*_args):
        raise defect
    monkeypatch.setattr(covers, "double_coset_count", broken)
    code, out, err = run(capsys, "lattice", "--group", "wc3",
                         "--signature", WC3_FIRST, "--format", "json")
    assert code == 70
    assert out == ""
    assert catalog("wc3").digest in err
    assert WC3_FIRST in err
    assert "genus formulas disagree" in err


def test_short_conjugate_cache_names_its_check(capsys, monkeypatch):
    # a conjugate cache shorter than the transversal of N(G_j) is a defect
    # that names G_j and both lengths, never a bare zip() error
    real = Subgroup.conjugate_masks.func
    monkeypatch.setattr(Subgroup, "conjugate_masks", property(lambda K: real(K)[:-1]))
    G = catalog("wc3")
    sig = signature_from_payload(G, json.loads(WC3_FIRST))
    with pytest.raises(InternalCheckError) as err:
        covers.transversal_partition(G, sig, G.trivial_subgroup, 0)
    message = str(err.value)
    assert "G_0 = <(1,5,3,4,2,6)> of order 6" in message
    assert "has 4 elements, its cached conjugates 3" in message
    code, out, err = run(capsys, "lattice", "--group", "wc3", "--signature", WC3_FIRST,
                         "--cross-check", "--format", "json")
    assert code == 70
    assert out == ""
    assert message in err
