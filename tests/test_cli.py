import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geosig import covers, jacobian
from geosig.cli import main
from geosig.errors import InternalCheckError
from geosig.groups import FiniteGroup, Subgroup, catalog
from geosig.signature import find_generating_vector, refinements, signature_from_payload

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


SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def child(*args):
    """A fresh interpreter run to completion on args, as the console script
    runs: what it exits with and writes goes through exit() and real pipes."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=CHILD_ENV,
                          text=True, timeout=120)


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


def test_exists_on_a_long_signature(capsys):
    # 1,200 branch values: the search keeps its choices on a stack, not
    # one Python frame each
    sig = json.dumps({"genus": 0, "branches": [{"order": 2, "class_rep": "b"}] * 1200})
    code, out, _ = run(capsys, "exists", "--group", "symmetric(3)", "--signature", sig)
    assert code == 0 and out.startswith("exists; genus 1795\n")


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


@pytest.mark.parametrize("group,signature", [
    ("dihedral(4)", D4_SECOND),
    ("symmetric(4)", json.dumps({"genus": 1, "branches": [{"order": 2, "class_rep": "b"}]})),
], ids=["d4", "s4"])
def test_decompose_unrealizable_exits_1(capsys, group, signature):
    # the existence search always runs first, so no arithmetic on an
    # unrealizable signature can fail as an internal defect
    code, out, err = run(capsys, "decompose", "--group", group, "--signature", signature)
    assert code == 1
    assert out == ""
    assert "not realizable" in err


def test_assume_realizable_is_gone(capsys):
    for command in ("lattice", "decompose"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--group", "dihedral(4)", "--signature", D4_FIRST,
                  "--assume-realizable"])
        assert exc.value.code == 64
        assert "--assume-realizable" in capsys.readouterr().err


def test_plain_signature_is_searched_once_per_refinement(capsys, monkeypatch):
    searched = []
    real = find_generating_vector

    def counting(G, sig, *rest):
        searched.append(str(sig))
        return real(G, sig, *rest)

    monkeypatch.setattr("geosig.signature.find_generating_vector", counting)
    code, _, _ = run(capsys, "lattice", "--group", "alternating(6)", "--signature",
                     json.dumps({"genus": 0, "branches": [{"order": 4}, {"order": 4},
                                                          {"order": 5}]}))
    assert code == 0
    G = catalog("alternating(6)")
    sig = signature_from_payload(G, {"genus": 0, "branches": [
        {"order": 4}, {"order": 4}, {"order": 5}]})
    assert searched == [str(refined) for refined in refinements(G, sig)]


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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    ["exists", "--group", "dihedral(4)", "--signature", D4_FIRST],
    ["lattice", "--group", "wc3", "--signature", WC3_FIRST],
    ["decompose", "--group", "wc3", "--signature", WC3_FIRST],
    ["chartab", "--group", "quaternion8"],
], ids=["exists", "lattice", "decompose", "chartab"])
def test_each_format_builds_only_its_own_output(capsys, monkeypatch, argv, fmt):
    # a text report renders no JSON and reads no group hash; a JSON report
    # renders no text table
    from geosig.chartable import CharacterTable

    calls = {}

    def counted(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    for cls in (CharacterTable, jacobian.DecompositionReport):
        for method in ("to_json", "render_text"):
            name = f"{cls.__name__}.{method}"
            monkeypatch.setattr(cls, method, counted(name, getattr(cls, method)))
    monkeypatch.setattr(FiniteGroup, "digest",
                        property(counted("digest", FiniteGroup.digest.func)))
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    built = {name.split(".")[-1] for name in calls}
    if fmt == "json":
        assert "render_text" not in built and "digest" in built, calls
    else:
        assert not built & {"to_json", "digest"}, calls
    if argv[0] in ("decompose", "chartab"):
        assert built & {"to_json", "render_text"} == {"to_json" if fmt == "json"
                                                      else "render_text"}


S6_GENERATORS = {"a": "(1,2,3,4,5,6)", "b": "(1,2)"}


def test_schur_flag_follows_the_group_not_its_name(capsys):
    # symmetric(6) under the name cyclic(5): the flag follows the group, so
    # the Schur indices 2 known wrong on S6 are not reported as verified
    for name in ("cyclic(5)", "symmetric(6)"):
        spec = json.dumps({"name": name, "degree": 6, "generators": S6_GENERATORS})
        code, out, _ = run(capsys, "chartab", "--group", spec, "--format", "json")
        assert code == 0
        assert json.loads(out)["schur_bound_verified_group"] is False
    code, out, _ = run(capsys, "chartab", "--group", "symmetric(6)", "--format", "json")
    assert json.loads(out)["schur_bound_verified_group"] is False
    # the catalog group itself, given inline under its own name, is verified
    spec = json.dumps({"name": "symmetric(4)", "degree": 4,
                       "generators": {"a": "(1,2,3,4)", "b": "(1,2)"}})
    code, out, _ = run(capsys, "chartab", "--group", spec, "--format", "json")
    assert code == 0
    assert json.loads(out)["schur_bound_verified_group"] is True


def flag(capsys, *argv):
    code, out, _ = run(capsys, "chartab", "--format", "json", *argv)
    assert code == 0
    return json.loads(out)["schur_bound_verified_group"]


def test_schur_flag_is_proven_from_the_bounds(capsys):
    # every Schur bound of symmetric(5) is 1, so its flag is proven, under
    # the catalog name and inline
    assert flag(capsys, "--group", "symmetric(5)") is True
    s5 = {"degree": 5, "generators": {"a": "(1,2,3,4,5)", "b": "(1,2)"}}
    assert flag(capsys, "--group", json.dumps(s5)) is True
    # dihedral(4) on other labels is not the catalog group, and is proven
    d4 = {"name": "dihedral(4)", "degree": 4,
          "generators": {"r": "(1,2,4,3)", "s": "(1,4)"}}
    assert flag(capsys, "--group", json.dumps(d4)) is True


def test_schur_overrides_do_not_reach_the_flag(capsys):
    # symmetric(6) has the bound 2 on characters 8, 9 and 10 with indicator
    # +1; pinning their indices to 1 changes the table, not the proof
    overrides = ["--schur-override", "8=1", "--schur-override", "9=1",
                 "--schur-override", "10=1"]
    code, out, _ = run(capsys, "chartab", "--group", "symmetric(6)",
                       "--format", "json", *overrides)
    assert code == 0
    payload = json.loads(out)
    assert {gc["schur_index_source"] for gc in payload["galois_classes"]
            if gc["members"][0] in (8, 9, 10)} == {"user-override"}
    assert payload["schur_bound_verified_group"] is False
    code, out, _ = run(capsys, "decompose", "--group", "symmetric(6)", "--signature",
                       json.dumps({"genus": 0, "branches": [
                           {"order": 2, "class_rep": "b"}, {"order": 6, "class_rep": "a"},
                           {"order": 5, "class_rep": "(1,2,3,4,5)"}]}),
                       "--format", "json", *overrides)
    assert code == 0
    assert json.loads(out)["schur_bound_verified_group"] is False


@pytest.mark.parametrize("group,signature", [
    (None, {"genus": 0.9, "branches": []}),
    (None, {"genus": True, "branches": []}),
    (None, {"genus": "0", "branches": []}),
    (None, {"genus": 0, "branches": [{"order": 2.5}, {"order": 2}, {"order": 2}]}),
    ({"degree": 4.7, "generators": {"x": "(1,2,3,4)", "y": "(1,3)"}},
     {"genus": 0, "branches": []}),
], ids=["genus-float", "genus-bool", "genus-string", "order-float", "degree-float"])
def test_json_integers_must_be_integers(capsys, group, signature):
    # int() would truncate or convert each of these and echo the result
    code, out, err = run(capsys, "exists",
                         "--group", json.dumps(group) if group else "dihedral(4)",
                         "--signature", json.dumps(signature), "--format", "json")
    assert code == 64
    assert out == ""
    assert "needs an integer" in err


@pytest.mark.parametrize("group,signature,key", [
    ("dihedral(4)", {"genus": 0, "brnches": json.loads(D4_FIRST)["branches"]}, "brnches"),
    ("dihedral(4)", {"genus": 0, "branches": [{"order": 4, "clas_rep": "x"},
                                              {"order": 2}, {"order": 2}]}, "clas_rep"),
    (json.dumps({"nmae": "d4", "degree": 4, "generators": {"x": "(1,2,3,4)", "y": "(1,3)"}}),
     json.loads(D4_FIRST), "nmae"),
], ids=["signature", "branch", "group"])
def test_unknown_payload_keys_exit_64(capsys, group, signature, key):
    # malformed input, never a verdict: "brnches" used to exit 1 with a
    # negative genus, "clas_rep" to search a plain entry, "nmae" to pass
    code, out, err = run(capsys, "exists", "--group", group,
                         "--signature", json.dumps(signature), "--format", "json")
    assert code == 64
    assert out == ""
    assert err.startswith("error:") and f"unknown key '{key}'" in err


def test_integers_too_long_to_read_exit_64(capsys):
    # Python 3.11 and later refuse int() on more than 4300 digits
    big = "9" * 5000
    for group, signature in [
        (f'{{"degree": {big}, "generators": {{"a": "(1,2)"}}}}', '{"genus": 0, "branches": []}'),
        (json.dumps({"degree": 4, "generators": {"a": f"(1,{big})"}}),
         '{"genus": 0, "branches": []}'),
        ("dihedral(4)", f'{{"genus": {big}, "branches": []}}'),
    ]:
        code, out, err = run(capsys, "exists", "--group", group, "--signature", signature)
        assert code == 64
        assert out == ""
        assert err.startswith("error:")


def test_word_exponent_too_long_to_read_exits_64(capsys):
    # a word exponent goes through int() as well
    word = "x^" + "9" * 5000
    signature = json.dumps({"genus": 0, "branches": [
        {"order": 4, "class_rep": word}, {"order": 2, "class_rep": "y"},
        {"order": 2, "class_rep": "xy"}]})
    for argv in [
        ("lattice", "--group", "dihedral(4)", "--signature", D4_FIRST, "--subgroups", word),
        ("exists", "--group", "dihedral(4)", "--signature", signature),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert out == ""
        assert err.startswith("error: exponent too long to read"), err


def test_deeply_nested_json_exits_64(tmp_path):
    # json.loads recurses once per level; a fresh process has the default
    # recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in [("--group", "dihedral(4)", "--signature", str(deep)),
                 ("--group", str(deep), "--signature", D4_FIRST)]:
        proc = child("-m", "geosig.cli", "exists", *argv)
        assert proc.returncode == 64, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bad JSON in"), proc.stderr
        assert "Traceback" not in proc.stderr


def test_non_string_group_name_exits_64(capsys):
    spec = json.dumps({"name": 5, "degree": 6, "generators": S6_GENERATORS})
    code, out, err = run(capsys, "chartab", "--group", spec, "--format", "json")
    assert code == 64
    assert out == ""
    assert "'name' must be a string" in err


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
    ["exists", "--group", "wc3", "--signature", WC3_FIRST, "--budget", "0"],
    ["lattice", "--group", "wc3", "--signature", WC3_FIRST, "--budget", "0"],
    ["decompose", "--group", "wc3", "--signature", WC3_FIRST, "--budget", "-1"],
], ids=["missing-signature", "bad-budget", "unknown-command", "zero-budget-exists",
        "zero-budget-lattice", "negative-budget-decompose"])
def test_usage_errors_exit_64(capsys, argv):
    # argparse's own status 2 would read as "search budget exhausted"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "error:" in capsys.readouterr().err


def test_group_over_the_order_cap_exits_64(capsys):
    # an inline group of degree 2001 is over the degree cap, which is
    # checked before any generator is parsed
    for group in ("symmetric(7)", json.dumps({"degree": 2001, "generators": {"a": "(1,2)"}})):
        code, out, err = run(capsys, "exists", "--group", group,
                             "--signature", json.dumps({"genus": 0, "branches": []}))
        assert code == 64
        assert out == ""
        assert "exceeds the supported cap of 2000" in err


@pytest.mark.parametrize("source", ["Symmetric(3)", "WC3", "symmetric( 3)", " Dihedral(4) "])
def test_catalog_spellings_are_catalog_names(capsys, source, tmp_path, monkeypatch):
    # a file of the same name never shadows a catalog name
    monkeypatch.chdir(tmp_path)
    (tmp_path / source.strip()).write_text("not a group file")
    code, out, _ = run(capsys, "chartab", "--group", source, "--format", "json")
    assert code == 0
    assert json.loads(out)["group"]["name"] == source.replace(" ", "").lower()


def test_unknown_group_source_exits_64(capsys):
    for source in ("nosuchgroup(3)", "cyclic(x)"):
        code, out, err = run(capsys, "chartab", "--group", source)
        assert code == 64
        assert out == ""
        assert err == (f"error: group source {source!r} is neither a catalog name "
                       "nor a readable file\n")


def test_huge_quotient_genus_exits_64(capsys):
    # refused before the search, whose product(..., repeat=2 * genus) overflows
    huge = json.dumps({"genus": 10 ** 23, "branches": []})
    for command in ("exists", "lattice", "decompose"):
        code, out, err = run(capsys, command, "--group", "cyclic(2)", "--signature", huge)
        assert (code, out) == (64, "")
        assert err == "error: quotient genus exceeds the supported cap of 2000\n"


@pytest.mark.parametrize("option", ["--group", "--signature"])
@pytest.mark.parametrize("kind", ["non-utf8-file", "over-long-source"])
def test_unreadable_sources_exit_64(capsys, tmp_path, option, kind):
    # a file that is not UTF-8, or a source too long to be a file name
    # (ENAMETOOLONG), is malformed input, not an internal defect
    if kind == "non-utf8-file":
        source = tmp_path / "input.json"
        source.write_bytes(b"\xff\xfe{")
        source = str(source)
    else:
        source = "x" * 5000
    sources = {"--group": "cyclic(4)", "--signature": D4_FIRST, option: source}
    code, out, err = run(capsys, "exists", "--group", sources["--group"],
                         "--signature", sources["--signature"])
    assert (code, out) == (64, "")
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


Q8_SIGNATURE = json.dumps({"genus": 0, "branches": [
    {"order": 4, "class_rep": "x"}, {"order": 4, "class_rep": "y"},
    {"order": 4, "class_rep": "xy"}]})


@pytest.mark.parametrize("argv,bound", [
    (["chartab", "--group", "quaternion8", "--schur-override", "4=1"], 2),
    (["decompose", "--group", "quaternion8", "--signature", Q8_SIGNATURE,
      "--schur-override", "4=1"], 2),
    (["chartab", "--group", "dihedral(4)", "--schur-override", "4=2"], 1),
], ids=["quaternion8-chartab", "quaternion8-decompose", "dihedral4-chartab"])
def test_override_against_the_computed_bound_exits_64(capsys, argv, bound):
    # quaternion8's character 4 has indicator -1, so its index is even;
    # dihedral(4)'s character 4 has the computed bound 1, which 2 does not divide
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: Schur override") and f"computed bound {bound}" in err
    assert ("indicator is -1" in err) == (bound == 2)


def test_closed_stdout_exits_74():
    # the reader of the pipe is gone long before the table is written: a
    # failed write is neither a verdict nor an internal defect
    with subprocess.Popen(
        [sys.executable, "-m", "geosig.cli", "chartab", "--group", "symmetric(6)",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 74
    assert err.startswith("error: cannot write the output:"), err
    assert "Traceback" not in err and "Exception ignored" not in err


BUDGET_SIGNATURE = json.dumps({"genus": 2, "branches": [{"order": 2}, {"order": 2}]})


@pytest.mark.parametrize("argv, status, verdict", [
    (["exists", "--group", "dihedral(4)", "--signature", D4_FIRST], 0, "exists"),
    (["exists", "--group", "dihedral(4)", "--signature", D4_SECOND], 1, "not-exists"),
    (["exists", "--group", "wc3", "--signature", BUDGET_SIGNATURE, "--budget", "5"],
     2, "budget-exhausted"),
    (["exists", "--group", "nosuchgroup(3)", "--signature", D4_FIRST], 64, None),
], ids=["exists-0", "not-exists-1", "budget-2", "unknown-group-64"])
def test_console_entry_exit_codes(argv, status, verdict):
    # the verdict reaches the shell through entry()'s exit, not main()'s
    # return value: a fresh child for each status, its output complete
    proc = child("-m", "geosig.cli", *argv, "--format", "json")
    assert proc.returncode == status, proc.stderr
    if verdict is None:
        assert proc.stdout == ""
        assert proc.stderr == "error: group source 'nosuchgroup(3)' is neither a " \
                              "catalog name nor a readable file\n"
    else:
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == verdict
        assert json.dumps(payload, indent=2) + "\n" == proc.stdout


def test_console_entry_internal_defect_exits_70():
    script = (
        "import sys\n"
        "from geosig import cli, covers\n"
        "def broken(*_args):\n"
        "    raise ZeroDivisionError('genus formulas disagree')\n"
        "covers.double_coset_count = broken\n"
        f"sys.argv = ['geosig', 'lattice', '--group', 'wc3', '--signature', {WC3_FIRST!r}]\n"
        "cli.entry()\n"
    )
    proc = child("-c", script)
    assert proc.returncode == 70, proc.stderr
    assert proc.stdout == ""
    assert "internal defect: ZeroDivisionError: genus formulas disagree" in proc.stderr
    assert f"group hash: {catalog('wc3').digest}" in proc.stderr


def test_console_entry_runs_atexit_handlers_after_the_output():
    # the process ends through sys.exit: handlers registered at exit (as
    # site's may be) still run, after the command's output, and see the
    # objects entry() froze before it exited
    script = (
        "import atexit, gc, sys\n"
        "from geosig import cli\n"
        "atexit.register(lambda: print('atexit marker, frozen:', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['geosig', 'exists', '--group', 'dihedral(4)', '--signature', "
        f"{D4_FIRST!r}, '--format', 'json']\n"
        "cli.entry()\n"
    )
    proc = child("-c", script)
    assert proc.returncode == 0, proc.stderr
    marker = "atexit marker, frozen: True\n"
    assert proc.stdout.endswith("}\n" + marker)
    assert json.loads(proc.stdout.removesuffix(marker))["verdict"] == "exists"


def test_main_leaves_the_collector_alone(capsys):
    # only the console script's exit freezes objects; the API never does
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, "decompose", "--group", "wc3", "--signature", WC3_FIRST)
    assert code == 0
    assert gc.get_freeze_count() == before


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


def test_oracle_defect_exits_70(capsys, monkeypatch):
    # a coset image that is not a permutation is a defect in the columns the
    # oracle reads, not malformed input: 70, naming the subgroup order and
    # the vector element
    real = covers.lattice_report

    def then_break_columns(G, *args):
        reports = real(G, *args)
        monkeypatch.setattr(FiniteGroup, "right", lambda self, g: [0] * self.order)
        return reports
    monkeypatch.setattr(covers, "lattice_report", then_break_columns)
    code, out, err = run(capsys, "lattice", "--group", "wc3", "--signature", WC3_FIRST,
                         "--cross-check", "--format", "json")
    assert code == 70
    assert out == ""
    assert catalog("wc3").digest in err
    assert WC3_FIRST in err
    assert "does not permute the 48 right cosets of a subgroup of order 1" in err


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
